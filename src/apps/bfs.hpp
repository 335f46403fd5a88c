// Push-based Breadth-First Search on KVMSR (paper Section 4.2): the
// single-tenant app interface.
//
// The kernel lives in the serve layer (serve/bfs.cpp, the kBfs query): App
// installs the QueryEngine and adds one BFS query on all lanes. Where the
// paper runs one KVMSR invocation per level, the traversal here is one
// diffusing KVMSR job: a reduce that lowers a vertex's level expands it at
// once, and the job ends when the termination gather finds no work left.
// run() launches the query, simulates to quiescence, and reads back levels
// and parents.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/layout.hpp"
#include "serve/query_engine.hpp"

namespace updown::bfs {

struct Options {
  VertexId root = 0;
  /// Placement of the {level, parent} result array: 0 puts each vertex's
  /// pair on its vertex record's node; n spreads it over nodes [0, n) (the
  /// Figure 12 placement sweep).
  std::uint32_t result_mem_nodes = 0;
};

struct Result {
  std::vector<std::uint64_t> dist;  ///< kInfDist if unreachable
  std::vector<VertexId> parent;     ///< kNoParent if none
  std::uint64_t traversed_edges = 0;  ///< edges out of reached vertices
  std::uint64_t rounds = 0;           ///< BFS levels (deepest level + 1)
  Tick start_tick = 0;
  Tick done_tick = 0;

  Tick duration() const { return done_tick - start_tick; }
  double seconds() const { return ticks_to_seconds(duration()); }
  /// Giga-traversed-edges per second, the paper's Figure 9 (center) metric.
  double gteps() const {
    return seconds() > 0 ? static_cast<double>(traversed_edges) / seconds() / 1e9 : 0.0;
  }
};

/// BFS application instance; install at most one per Machine.
class App {
 public:
  static App& install(Machine& m, const DeviceGraph& dg, const Options& opt = {});

  App(Machine& m, const DeviceGraph& dg, const Options& opt);

  /// Fire the driver, simulate to completion, read back levels and parents.
  Result run();

 private:
  serve::QueryEngine& eng_;
  DeviceGraph dg_;  ///< the query reads this copy
  serve::QueryId query_ = 0;
};

}  // namespace updown::bfs
