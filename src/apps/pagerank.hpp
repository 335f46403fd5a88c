// Push-based PageRank on KVMSR (paper Section 4.1, Listing 3): the
// single-tenant app interface.
//
// The kernel lives in the serve layer (serve/pagerank.cpp, the kPageRank
// query): App installs the QueryEngine and adds one PageRank query on all
// lanes, with the binding and value placement below as query
// inputs. run() launches the query's driver, simulates to quiescence, and
// reads back the ranks.
//
// The graph is vertex-split to a maximum degree (default 512, the paper's PR
// setting) "yet yields the correct result for the original graph": the split
// upload carries the accumulator-slot table that load-balances reductions
// into high-in-degree vertices, and ranks come back per original vertex.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/layout.hpp"
#include "kvmsr/kvmsr.hpp"
#include "serve/query_engine.hpp"

namespace updown::pr {

struct Options {
  unsigned iterations = 5;
  double damping = 0.85;
  /// Computation binding for the propagate map phase (Block default).
  kvmsr::MapBinding map_binding = kvmsr::MapBinding::kBlock;
  /// Removed: KVMSR's packed shuffle lost on every benchmark workload, so
  /// every tuple is one message. The field remains so existing callers that
  /// set it to 1 still compile; install throws std::invalid_argument for any
  /// other value.
  std::uint32_t coalesce_tuples = 1;
  /// Placement of the rank/accumulator value arrays.
  GraphPlacement value_placement{};
};

struct Result {
  std::vector<double> rank;  ///< per original vertex
  Tick start_tick = 0;
  Tick done_tick = 0;
  /// Total emitted tuples over all iterations: one per edge per iteration.
  std::uint64_t edge_updates = 0;
  unsigned iterations = 0;

  Tick duration() const { return done_tick - start_tick; }
  double seconds() const { return ticks_to_seconds(duration()); }
  /// Giga-updates per second, the paper's Figure 9 (left) metric.
  double gups() const {
    return seconds() > 0 ? static_cast<double>(edge_updates) / seconds() / 1e9 : 0.0;
  }
};

/// PageRank application instance; install at most one per Machine.
class App {
 public:
  /// `dg` must be the device image of `sg` (upload_split_graph). The split
  /// graph supplies the accumulator-slot numbering that load-balances
  /// reductions into high-in-degree vertices.
  static App& install(Machine& m, const DeviceGraph& dg, const SplitGraph& sg,
                      const Options& opt = {});

  App(Machine& m, const DeviceGraph& dg, const SplitGraph& sg, const Options& opt);

  /// Fire the driver, simulate to completion, read back ranks.
  Result run();

 private:
  serve::QueryEngine& eng_;
  DeviceGraph dg_;  ///< the query reads this copy
  serve::QueryId query_ = 0;
};

}  // namespace updown::pr
