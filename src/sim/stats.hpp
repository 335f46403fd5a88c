// Machine-wide and per-lane statistics.
//
// These counters are the raw material for every benchmark table: events and
// cycles give the simulated runtimes, message/DRAM counters give the traffic
// breakdowns, and per-lane busy cycles give utilization and load-imbalance
// numbers (the paper's "extremely good load balance over millions of lanes").
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace updown {

struct LaneStats {
  Tick busy_cycles = 0;
  std::uint64_t events_executed = 0;
  std::uint64_t messages_sent = 0;
};

/// Machine-readable summary of the udcheck analyses (src/check/). All-zero
/// (and `enabled == false`) when the checker is off. Error counters mean the
/// run exercised a real bug class; warning counters are drain-state gauges
/// that clean applications may legitimately leave nonzero.
struct CheckSummary {
  bool enabled = false;
  bool sp_strict = false;

  // Errors.
  std::uint64_t data_races = 0;          ///< unordered DRAM write pairs
  std::uint64_t sp_races = 0;            ///< strict-mode scratchpad conflicts
  std::uint64_t out_of_bounds = 0;       ///< unmapped-VA accesses
  std::uint64_t use_after_free = 0;      ///< accesses into freed regions
  std::uint64_t bad_frees = 0;           ///< double/invalid dram_free
  std::uint64_t dead_thread_sends = 0;   ///< events to dead thread contexts
  std::uint64_t stale_deliveries = 0;    ///< recycled-tid aliased deliveries
  std::uint64_t bad_event_words = 0;     ///< invalid label/lane/thread class
  std::uint64_t operand_overflows = 0;   ///< >6 operands on a plain message
  std::uint64_t leaked_threads = 0;      ///< live thread contexts at drain
  std::uint64_t undelivered_messages = 0;///< queue not quiescent at report

  // Warnings.
  std::uint64_t leaked_allocations = 0;    ///< live DRAM regions at drain
  std::uint64_t unfired_continuations = 0; ///< delivered conts never sent

  // Gauges (not part of errors()/warnings()/clean()).
  std::uint64_t shadow_peak_bytes = 0;  ///< peak resident shadow-memory bytes

  std::uint64_t errors() const {
    return data_races + sp_races + out_of_bounds + use_after_free + bad_frees +
           dead_thread_sends + stale_deliveries + bad_event_words +
           operand_overflows + leaked_threads + undelivered_messages;
  }
  std::uint64_t warnings() const { return leaked_allocations + unfired_continuations; }
  bool clean() const { return errors() == 0; }
};

/// KVMSR shuffle-phase traffic counters, kept separately from the machine
/// totals so figures and tests can split map/control traffic from the
/// shuffle without re-deriving counts. Every emit()/emit2() call sends one
/// message, so `messages` equals `tuples_emitted`.
struct ShuffleStats {
  std::uint64_t tuples_emitted = 0;   ///< emit()/emit2() calls
  /// Removed with map-side combining: always 0. It remains only because the
  /// repository benchmark reads it.
  std::uint64_t tuples_combined = 0;
  std::uint64_t messages = 0;         ///< shuffle wire messages, one per tuple
  std::uint64_t bytes = 0;            ///< shuffle wire bytes (header + payload)
  std::uint64_t cross_node_messages = 0;

  void merge(const ShuffleStats& s) {
    tuples_emitted += s.tuples_emitted;
    messages += s.messages;
    bytes += s.bytes;
    cross_node_messages += s.cross_node_messages;
  }
};

struct MachineStats {
  std::uint64_t events_executed = 0;
  std::uint64_t charged_cycles = 0;  ///< total lane-busy cycles across the run
  std::uint64_t messages_sent = 0;
  std::uint64_t message_bytes = 0;
  std::uint64_t cross_node_messages = 0;
  std::uint64_t dram_reads = 0;
  std::uint64_t dram_writes = 0;
  std::uint64_t dram_bytes = 0;
  std::uint64_t remote_dram_accesses = 0;  ///< request crossed node boundary
  std::uint64_t threads_created = 0;
  std::uint64_t threads_destroyed = 0;
  std::uint64_t max_live_threads = 0;
  std::uint64_t max_queue_depth = 0;  ///< peak pending events in the calendar queue
  ShuffleStats shuffle;  ///< KVMSR shuffle traffic split (zero outside KVMSR jobs)
  CheckSummary check;  ///< udcheck results (all-zero when UD_CHECK is off)

  void reset() { *this = MachineStats{}; }

  /// Fold a shard's delta block into a machine-wide total. Counters add; the
  /// two engine gauges (`max_queue_depth`, `max_live_threads`) combine by
  /// max, i.e. the peak any single shard observed — exact when shards == 1,
  /// a per-shard view otherwise (the determinism goldens exclude them).
  /// `check` is left alone — the checker (which runs only on the serial
  /// engine) writes its summary into the machine total directly at report
  /// time; shard delta blocks never carry checker counts.
  void merge(const MachineStats& s) {
    events_executed += s.events_executed;
    charged_cycles += s.charged_cycles;
    messages_sent += s.messages_sent;
    message_bytes += s.message_bytes;
    cross_node_messages += s.cross_node_messages;
    dram_reads += s.dram_reads;
    dram_writes += s.dram_writes;
    dram_bytes += s.dram_bytes;
    remote_dram_accesses += s.remote_dram_accesses;
    threads_created += s.threads_created;
    threads_destroyed += s.threads_destroyed;
    max_live_threads = std::max(max_live_threads, s.max_live_threads);
    max_queue_depth = std::max(max_queue_depth, s.max_queue_depth);
    shuffle.merge(s.shuffle);
  }

  /// Interval view for per-job stats isolation: the monotone counters since
  /// `base` (a snapshot taken at job admission), computed by subtraction.
  /// The gauges (`max_live_threads`, `max_queue_depth`) and `check` are NOT
  /// interval quantities — they keep the current cumulative values, so a
  /// per-job block reads as "counters this job's window, machine gauges as
  /// of now". Requires `base` to be an earlier snapshot of the same machine.
  MachineStats counters_since(const MachineStats& base) const {
    assert(events_executed >= base.events_executed &&
           "counters_since: base is not an earlier snapshot of this machine");
    MachineStats d = *this;  // carries gauges + check forward
    d.events_executed -= base.events_executed;
    d.charged_cycles -= base.charged_cycles;
    d.messages_sent -= base.messages_sent;
    d.message_bytes -= base.message_bytes;
    d.cross_node_messages -= base.cross_node_messages;
    d.dram_reads -= base.dram_reads;
    d.dram_writes -= base.dram_writes;
    d.dram_bytes -= base.dram_bytes;
    d.remote_dram_accesses -= base.remote_dram_accesses;
    d.threads_created -= base.threads_created;
    d.threads_destroyed -= base.threads_destroyed;
    d.shuffle.tuples_emitted -= base.shuffle.tuples_emitted;
    d.shuffle.messages -= base.shuffle.messages;
    d.shuffle.bytes -= base.shuffle.bytes;
    d.shuffle.cross_node_messages -= base.shuffle.cross_node_messages;
    return d;
  }
};

/// Host-side gauges of the event engine itself (not simulated quantities):
/// how the calendar queue and payload pools behaved over a run. Surfaced by
/// the micro_sim throughput benchmark.
struct EngineStats {
  std::uint64_t far_events = 0;        ///< pushes beyond the calendar window
  std::uint64_t bucket_sorts = 0;      ///< lazy calendar-bucket sorts
  std::uint32_t msg_pool_capacity = 0;   ///< message slots ever allocated
  std::uint32_t dram_pool_capacity = 0;  ///< DRAM-request slots ever allocated
  std::uint32_t shards = 1;            ///< host threads the run sharded over
  std::uint64_t windows = 0;           ///< lock-step lookahead windows executed
  std::uint64_t mailbox_messages = 0;  ///< events handed between shards
};

/// Aggregate view over per-lane activity.
struct LaneActivity {
  double mean_busy = 0.0;
  Tick max_busy = 0;
  Tick min_busy = 0;

  /// Load imbalance factor: max lane busy-time over mean busy-time. A
  /// perfectly balanced run has factor 1.0.
  double imbalance() const { return mean_busy > 0 ? max_busy / mean_busy : 0.0; }

  static LaneActivity from(const std::vector<LaneStats>& lanes) {
    LaneActivity a;
    if (lanes.empty()) return a;
    Tick total = 0;
    a.min_busy = lanes.front().busy_cycles;
    for (const auto& l : lanes) {
      total += l.busy_cycles;
      a.max_busy = std::max(a.max_busy, l.busy_cycles);
      a.min_busy = std::min(a.min_busy, l.busy_cycles);
    }
    a.mean_busy = static_cast<double>(total) / static_cast<double>(lanes.size());
    return a;
  }
};

}  // namespace updown
