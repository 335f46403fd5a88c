// udtrace: the opt-in timeline/profiling layer of the simulator.
//
// Where MachineStats answers "how much", udtrace answers "when": it records
// time-sliced per-lane and per-node busy-cycle timelines, named phase spans
// (KVMSR map / shuffle-drain / flush, application supersteps), a per-(src
// node, dst node) traffic matrix with queue-depth/network-backlog time
// series, and latency histograms for message delivery and DRAM queue wait.
// At drain the Machine serializes everything as Chrome trace_event JSON
// (loadable in Perfetto / chrome://tracing) plus a compact CSV sibling for
// the bench harness.
//
// Design rules, in order of importance:
//
//   1. Zero cost when off. The Machine holds a null Tracer pointer and every
//      hook site is one null test — the UDSIM_LOG / UD_CHECK pattern. The
//      determinism goldens and the micro_sim throughput floors are asserted
//      with tracing off.
//
//   2. Observation only when on. No hook writes anything the engine reads:
//      timing, event order, statistics and application results are
//      bit-identical with and without UD_TRACE.
//
//   3. Shard-safe by ownership, deterministic by construction. Unlike
//      udcheck (whose engine-global side tables keep checked runs on the
//      serial engine), the tracer runs under any UD_SHARDS count with no
//      merge step: every mutable cell is written by exactly one shard — per-lane series by the lane's owner,
//      per-node series and matrix rows by the source node's owner, arrival
//      series by the destination's owner, histograms and phase records into
//      per-shard buffers that merge by a sender-deterministic sort key at
//      serialization. Everything recorded is a simulated quantity (ticks,
//      bytes, counts — never wall-clock or host-queue state), so the
//      serialized trace is byte-identical for any shard count.
#pragma once

#include <array>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"
#include "sim/config.hpp"

namespace updown {

/// Log2-bucketed latency histograms: bucket 0 holds exact zeros, bucket b
/// holds [2^(b-1), 2^b). 32 buckets cover any 32-bit-cycle latency.
constexpr std::uint32_t kTraceHistBuckets = 32;

/// Per-shard trace buffers. Each EngineShard points at its own TraceShard;
/// hooks executed by that shard write here without synchronization.
struct TraceShard {
  /// One phase marker. `seq` is the emitting lane's private marker counter,
  /// so (t, lane, seq) orders markers identically for any shard count.
  struct Phase {
    Tick t = 0;
    std::uint32_t lane = 0;
    std::uint32_t seq = 0;
    std::uint32_t name = 0;  ///< interned via Tracer::intern
    bool begin = false;
  };
  std::vector<Phase> phases;
  std::array<std::uint64_t, kTraceHistBuckets> msg_latency{};  ///< arrive - depart
  std::array<std::uint64_t, kTraceHistBuckets> dram_wait{};    ///< queue wait beyond lat_dram

  /// Sparse (src node, dst node) -> traffic cell, keyed src * nodes + dst.
  /// Per shard (each shard records the traffic its own source nodes emit) so
  /// the map mutates without synchronization; serialization sums the shards.
  /// Sparse because a dense nodes^2 matrix is ~1 GiB at the 8192-node
  /// scale_sweep configurations while real traffic touches a tiny fraction
  /// of the pairs.
  struct Traffic {
    std::uint64_t msgs = 0;
    std::uint64_t bytes = 0;
  };
  std::unordered_map<std::uint64_t, Traffic> traffic;
};

class Tracer {
 public:
  /// @param slice  timeline bucket width in ticks (>= 1)
  Tracer(const MachineConfig& cfg, std::uint32_t nshards, std::string json_path,
         Tick slice);

  TraceShard& shard(std::uint32_t s) { return shards_[s]; }
  Tick slice() const { return slice_; }
  const std::string& path() const { return path_; }

  // ---- Hot-path hooks (called only when tracing is on) ----------------------
  // All indices are simulated entities; the caller guarantees the calling
  // shard owns them (see the header comment).

  /// A queued event executed on `lane` (of `node`): it arrived at `arrive`,
  /// started at `start`, and held the lane for `cost` cycles. Writes the
  /// lane/node busy timelines (cost split across slice boundaries), the
  /// per-node executed-events series, and the per-node arrival series.
  void on_execute(std::uint32_t lane, std::uint32_t node, Tick arrive, Tick start,
                  std::uint64_t cost);
  /// An inline-delivered event (KVMSR packet unpack): its cycles are already
  /// inside the enclosing packet event's cost, so only the event count moves.
  void on_inline_execute(std::uint32_t node, Tick start);
  /// A message routed from `src_node` to `dst_node`: sent series, traffic
  /// matrix, delivery-latency histogram, and the injection-backlog sample
  /// (max per slice) for the network-pressure time series.
  void on_message(TraceShard& ts, std::uint32_t src_node, std::uint32_t dst_node,
                  std::uint32_t bytes, Tick depart, Tick arrive, Tick inject_backlog);
  /// A DRAM access serviced with `wait` cycles of queueing beyond the fixed
  /// access latency.
  void on_dram_wait(TraceShard& ts, Tick wait);

  // Phase spans (cold path: a handful per KVMSR job / app superstep).
  void phase_begin(TraceShard& ts, std::uint32_t lane, Tick t, std::string_view name);
  void phase_end(TraceShard& ts, std::uint32_t lane, Tick t, std::string_view name);

  // ---- Reporting ------------------------------------------------------------
  /// Per-slice load imbalance (max lane busy / mean lane busy, 0 for empty
  /// slices): the paper's "extremely good load balance" claim over time.
  std::vector<double> imbalance_series() const;

  /// Write the Chrome trace_event JSON to `path` and the compact CSV to
  /// `path + ".csv"`. Cumulative and idempotent: the Machine calls this at
  /// every run() drain, rewriting both files; the content depends only on
  /// simulated quantities and is byte-identical across UD_SHARDS counts.
  void serialize() const;

 private:
  std::uint32_t intern(std::string_view name);
  std::uint64_t slice_of(Tick t) const { return t / slice_; }
  /// All shards' sparse traffic maps summed (serialization only).
  std::unordered_map<std::uint64_t, TraceShard::Traffic> merged_traffic() const;
  /// Number of slices any series extends to (the serialized timeline length).
  std::uint64_t nslices() const;
  void write_json(std::FILE* f) const;
  void write_csv(std::FILE* f) const;

  MachineConfig cfg_;  ///< by value: the machine may outlive config edits
  std::string path_;
  Tick slice_;
  std::uint32_t lanes_per_node_;

  std::vector<TraceShard> shards_;

  // Slice-indexed series, grown on demand. Outer index = lane or node; each
  // inner vector is written only by the owning shard. The outer vectors are
  // pre-sized (they must never reallocate while shards write disjoint rows)
  // but the rows themselves stay empty until a lane/node is active, so an
  // idle lane costs one empty vector here, not a timeline.
  std::vector<std::vector<std::uint32_t>> lane_busy_;    ///< busy cycles / slice
  std::vector<std::vector<std::uint64_t>> node_busy_;    ///< busy cycles / slice
  std::vector<std::vector<std::uint64_t>> node_events_;  ///< executed events / slice
  std::vector<std::vector<std::uint64_t>> node_arrivals_;///< message arrivals / slice
  std::vector<std::vector<std::uint64_t>> node_sent_;    ///< messages sent / slice
  std::vector<std::vector<std::uint64_t>> node_sent_bytes_;  ///< bytes sent / slice
  std::vector<std::vector<std::uint64_t>> node_backlog_; ///< max inject backlog / slice

  std::vector<std::uint32_t> phase_seq_;  ///< per-lane marker counter

  // Interning: ids are handed out under a mutex in cross-shard arrival order
  // (not deterministic), but records resolve back to strings at
  // serialization, so the output never depends on id assignment.
  mutable std::mutex name_mu_;
  std::vector<std::string> names_;
  std::unordered_map<std::string, std::uint32_t> name_ids_;
};

}  // namespace updown
