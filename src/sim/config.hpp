// Machine configuration: topology and the latency/bandwidth model.
//
// Defaults reproduce the *ratios* of the UpDown system described in the
// paper's Section 3 (local:remote access latency about 7:1, node DRAM
// bandwidth 9.4 TB/s vs 4 TB/s injection, 0.5us cross-machine latency at a
// 2 GHz lane clock), scaled down in lane count so that a single host core can
// simulate multi-node configurations.
#pragma once

#include <cstdint>
#include <string>

#include "common/bits.hpp"
#include "common/types.hpp"
#include "common/units.hpp"

namespace updown {

struct MachineConfig {
  // ---- Topology -----------------------------------------------------------
  std::uint32_t nodes = 1;            ///< power of two; paper machine: 16384
  std::uint32_t accels_per_node = 4;  ///< paper: 32
  std::uint32_t lanes_per_accel = 8;  ///< paper: 64
  std::uint32_t max_threads_per_lane = 1u << 14;
  std::uint64_t scratchpad_bytes = 64 * KiB;

  // ---- Latency model (cycles at 2 GHz) -------------------------------------
  Tick lat_same_lane = 2;     ///< self-send (event to own lane)
  Tick lat_intra_accel = 4;   ///< lane-to-lane within an accelerator
  Tick lat_intra_node = 30;   ///< accelerator-to-accelerator within a node
  Tick lat_hop = 320;         ///< per network hop; 3 hops ~ 0.5us (paper)
  Tick lat_dram = 140;        ///< HBM3e access latency

  // ---- Bandwidth model (bytes per cycle) -----------------------------------
  double bw_dram_node = 4700.0;        ///< 9.4 TB/s per node HBM
  double bw_inject_node = 2000.0;      ///< 4 TB/s node injection
  double bw_bisection_per_node = 1000.0;  ///< 32 PB/s over 16K nodes

  // ---- Message format -------------------------------------------------------
  std::uint32_t msg_header_bytes = 16;  ///< event word + continuation word

  // ---- Checking (src/check/) ------------------------------------------------
  // Overridden by the UD_CHECK / UD_CHECK_SP_STRICT environment variables
  // ("0" or empty = off, anything else = on), mirroring the UDSIM_LOG pattern.
  bool check = false;           ///< enable the udcheck analysis subsystem
  bool check_sp_strict = false; ///< also flag HB-concurrent scratchpad access

  // ---- Tracing (src/trace/) -------------------------------------------------
  // udtrace: opt-in timeline/profiling layer. `trace` names the output file
  // (Chrome trace_event JSON, plus a `<trace>.csv` sibling); empty = off. The
  // UD_TRACE environment variable, when set and non-empty, overrides the
  // path. Zero cost when off (one null test per hook site, the UDSIM_LOG /
  // UD_CHECK pattern), and observation-only when on: simulated timing, event
  // order, and all pinned goldens are unchanged.
  std::string trace;
  /// Width in ticks of the timeline buckets (busy/traffic/queue series).
  /// UD_TRACE_SLICE overrides (strict parse; 0 keeps this default).
  Tick trace_slice = 1024;

  // ---- Host-parallel execution ---------------------------------------------
  // Number of host threads the event engine shards across (UD_SHARDS env
  // overrides; clamped to the node count, and to 1 when checking is on:
  // udcheck runs on the serial engine). Nodes are partitioned round-robin;
  // shards run in lock-step windows one minimum cross-node latency wide (one
  // shard runs the same windows alone), so results are bit-identical for any
  // value.
  std::uint32_t shards = 1;

  /// Removed: pinning each shard's host thread to a CPU never measurably
  /// won (PageRank at 4 shards, pinned against unpinned in alternating
  /// pairs). The field remains so existing configurations that set it false
  /// still compile; the Machine constructor throws std::invalid_argument
  /// when it is true.
  bool pin = false;

  /// Removed: window-boundary work stealing never paid on a measured
  /// workload, so node n runs on shard n % shards for the machine's whole
  /// life. The field remains so existing configurations that set it false
  /// still compile; the Machine constructor throws std::invalid_argument
  /// when it is true.
  bool steal = false;

  /// Conservative lookahead of the engine's window loop: no event can cause
  /// another event on a different node sooner than this (1 hop minimum, and
  /// bandwidth queuing only adds delay). valid() requires at least 1 tick,
  /// or the loop would spin on the empty window [W, W).
  Tick min_cross_node_latency() const { return lat_intra_node + lat_hop; }

  // ---- Derived --------------------------------------------------------------
  std::uint32_t lanes_per_node() const { return accels_per_node * lanes_per_accel; }
  std::uint64_t total_lanes() const {
    return static_cast<std::uint64_t>(nodes) * lanes_per_node();
  }
  double bisection_bytes_per_cycle() const { return bw_bisection_per_node * nodes; }

  /// A configuration with the paper's full per-node shape (32 accelerators of
  /// 64 lanes = 2048 lanes/node). Only usable for small node counts on a
  /// development host.
  static MachineConfig paper_node(std::uint32_t n_nodes) {
    MachineConfig c;
    c.nodes = n_nodes;
    c.accels_per_node = 32;
    c.lanes_per_accel = 64;
    return c;
  }

  /// Scaled configuration used by the benchmark harness: preserves the
  /// node/accelerator/lane hierarchy and all latency/bandwidth ratios, but
  /// with fewer lanes per node so that 64-node sweeps simulate quickly.
  ///
  /// Caveat: the *per-node* bandwidths are kept, so with 64x fewer lanes per
  /// node each lane sees 64x the paper machine's injection/bisection share —
  /// the network is effectively never the bottleneck under scaled(). That is
  /// the right trade for the strong-scaling sweeps (they measure parallelism
  /// and latency tolerance), but wrong for anything that claims a
  /// network-contention effect; use scaled_netbound() for those.
  static MachineConfig scaled(std::uint32_t n_nodes, std::uint32_t accels = 4,
                              std::uint32_t lanes = 8) {
    MachineConfig c;
    c.nodes = n_nodes;
    c.accels_per_node = accels;
    c.lanes_per_accel = lanes;
    return c;
  }

  /// scaled(), with the network bandwidths cut by the same factor as the
  /// lane count: each lane's injection/bisection share matches the paper
  /// machine's (2048 lanes/node sharing 2000 B/cycle injection ~= 1 B/cycle
  /// per lane). This is the configuration where network traffic shows in
  /// simulated time; under plain scaled() it only moves message/byte
  /// counters.
  static MachineConfig scaled_netbound(std::uint32_t n_nodes, std::uint32_t accels = 4,
                                       std::uint32_t lanes = 8) {
    MachineConfig c = scaled(n_nodes, accels, lanes);
    const double share = static_cast<double>(paper_node(1).lanes_per_node()) /
                         static_cast<double>(c.lanes_per_node());
    c.bw_inject_node /= share;
    c.bw_bisection_per_node /= share;
    return c;
  }

  bool valid() const {
    // The lane-count ceiling leaves u32 headroom above the lane ids for the
    // engine's non-lane sender entities (per-node DRAM ports and the host).
    return is_pow2(nodes) && accels_per_node > 0 && lanes_per_accel > 0 &&
           total_lanes() <= (1ull << 31) && shards >= 1 &&
           min_cross_node_latency() >= 1;
  }
};

}  // namespace updown
