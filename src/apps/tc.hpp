// Triangle Counting on KVMSR (paper Section 4.3): the single-tenant app
// interface.
//
// The kernel lives in the serve layer (serve/triangles.cpp, the kTriangles
// query): pair-enumeration map, stream-intersect reduce, counts through the
// combining cache into per-lane cells. App installs the QueryEngine and adds
// one triangle query on all lanes; run() launches it, simulates to
// quiescence, and sums the cells.
//
// The map side supports both Block and PBMW computation binding — the paper
// compares the two and found Block sufficient once the reduce was
// load-balanced; the PBMW variant remains available (Section 4.3.3).
#pragma once

#include <cstdint>

#include "graph/layout.hpp"
#include "kvmsr/kvmsr.hpp"
#include "serve/query_engine.hpp"

namespace updown::tc {

struct Options {
  kvmsr::MapBinding map_binding = kvmsr::MapBinding::kBlock;
  /// Shuffle coalescing factor for the pair job (1 = off; UD_COALESCE
  /// overrides). TC never enables map-side combining: every pair key is
  /// emitted exactly once, so there is nothing to merge.
  std::uint32_t coalesce_tuples = 1;
};

struct Result {
  std::uint64_t triangles = 0;
  std::uint64_t pairs = 0;  ///< reduce tasks (connected pairs with x > y)
  Tick start_tick = 0;
  Tick done_tick = 0;

  Tick duration() const { return done_tick - start_tick; }
  double seconds() const { return ticks_to_seconds(duration()); }
};

class App {
 public:
  /// `dg` must be the device image of a symmetric (undirected) graph with
  /// sorted adjacency lists.
  static App& install(Machine& m, const DeviceGraph& dg, const Options& opt = {});

  App(Machine& m, const DeviceGraph& dg, const Options& opt);

  Result run();

 private:
  serve::QueryEngine& eng_;
  DeviceGraph dg_;  ///< the query reads this copy
  serve::QueryId query_ = 0;
};

}  // namespace updown::tc
