// Push-based Breadth-First Search on KVMSR (paper Section 4.2): the
// single-tenant app interface.
//
// The kernel lives in the serve layer (serve/bfs.cpp, the kBfs query): App
// installs the QueryEngine and adds one BFS query on all lanes. As the paper
// describes, the frontier is a per-node local structure split into per-lane
// slices, each round is one kBlock KVMSR invocation with one key per lane
// whose map task scans the lane's slice, and reduce tasks on hash(vertex)
// lanes keep the vertex's level and append newly reached vertices to their
// own lane's next slice. The driver stops when a round adds nothing ("add
// queue 0" in the paper's log). run() launches the query, simulates to
// quiescence, and reads back levels and parents.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/layout.hpp"
#include "serve/query_engine.hpp"

namespace updown::bfs {

struct Options {
  VertexId root = 0;
  /// Placement of the frontier: 0 keeps each lane's slice on its own node
  /// (the paper's default); n spreads it over nodes [0, n) (the Figure 12
  /// placement sweep).
  std::uint32_t frontier_mem_nodes = 0;
};

struct Result {
  std::vector<std::uint64_t> dist;  ///< kInfDist if unreachable
  std::vector<VertexId> parent;     ///< kNoParent if none
  std::uint64_t traversed_edges = 0;
  std::uint64_t rounds = 0;
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
