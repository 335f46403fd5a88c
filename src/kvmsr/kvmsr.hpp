// KVMSR: key-value map-shuffle-reduce (paper Section 2.2).
//
// KVMSR organizes large-scale parallelism over a shared global address
// space. A job is described by a user kv_map event (one logical task per key
// of a parallel integer iterator), an optional kv_reduce event (one task per
// tuple emitted into the intermediate map — never materialized, tuples flow
// directly to reducers), and computation bindings:
//
//   - map side:    Block (default) — each lane gets a contiguous key range —
//                  or PBMW (partial-block + master-worker work stealing).
//   - reduce side: Hash (default) — lane = hash(key) % lanes — or any
//                  user-provided binding function.
//
// Contract for user events:
//   kv_map   : new thread per key, ops = {key, job}. CCONT is the launching
//              worker's return continuation; a single-event map task calls
//              Library::map_return(ctx, ctx.ccont()); a multi-event task
//              stores ctx.ccont() in its thread state (see MapTask) and
//              passes it to map_return at the end. Emit tuples at any point
//              with Library::emit(...) — from the map thread or from any
//              subtask it spawned (the task may fan out further in UDWeave).
//   kv_reduce: new thread per tuple, ops = {key, v0 [, v1, v2], job}. Must
//              finish by calling Library::reduce_return(ctx, job), which also
//              terminates the thread.
//   flush    : optional; after the reduce drain one flush event runs per
//              lane, sent by the lane's leaf relay (new thread, ops = {job});
//              it must reply to CCONT with no operands when its lane's state
//              is flushed.
//
// Termination protocol (the paper: "KVMSR tracks termination of the map and
// reduce phases"): workers retire map tasks via kv_map_return; once the map
// phase is done, the master runs gather rounds summing per-lane
// emitted/received counters until the sums agree, then flushes and signals
// the launch continuation with {total_emitted}. Every all-lane exchange
// (kBlock launch and map-done, each poll round, the flush) goes through a
// control tree shaped by the machine: the master, then the network's L2 and
// L1 node groups, nodes, accelerators, and the lanes. Node relays are always
// there; a group or accelerator tier is added only where the level above
// would otherwise fan out to more than 64 children, so jobs on up to 64
// nodes of up to 64 lanes have one relay per node. Each relay passes the
// exchange to its children and folds their replies into one, so the master
// and every relay send and fold one message per child. A leaf relay whose
// lanes each hold exactly one key sends those map tasks itself; elsewhere
// it starts a worker per lane.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/bits.hpp"
#include "sim/machine.hpp"
#include "udweave/context.hpp"

namespace updown::kvmsr {

using JobId = std::uint32_t;

struct LaneSet {
  NetworkId first = 0;
  std::uint32_t count = 0;  ///< 0 = whole machine (resolved at launch)
};

enum class MapBinding {
  kBlock,  ///< equal contiguous key ranges per lane (default)
  kPBMW,   ///< partial block + master-worker work requests
};

/// Map-side combining operator applied inside the per-destination emit
/// buffer (JobSpec::combiner). Values are merged as raw 64-bit words; kSumF64
/// reinterprets them as IEEE doubles.
enum class Combiner : std::uint8_t { kNone, kSumU64, kSumF64 };

struct JobSpec {
  EventLabel kv_map = 0;
  EventLabel kv_reduce = 0;  ///< 0 = map-only (do_all)
  EventLabel flush = 0;      ///< 0 = no flush phase
  MapBinding map_binding = MapBinding::kBlock;
  /// Reduce-side computation binding; empty = Hash (the KVMSR default).
  std::function<NetworkId(Word key, NetworkId first, std::uint32_t count)> reduce_binding;
  LaneSet lanes;
  std::uint32_t max_inflight_per_lane = 64;  ///< map-task window per worker: deep
  ///< enough to hide cross-machine DRAM latency (the paper: KVMSR matches
  ///< thread parallelism "to the machine's memory latency ... without any
  ///< application programmer effort")
  std::uint64_t pbmw_chunk = 64;  ///< keys per PBMW grant
  /// Backoff between termination-gather rounds (cycles). Without pacing the
  /// master lane saturates itself re-polling while reducers drain.
  Tick poll_backoff = 4096;
  /// Shuffle coalescing: pack up to this many tuples per (source lane,
  /// destination lane) emit buffer into one simulated bulk message. 1 = off
  /// (default): the classic one-message-per-tuple shuffle, bit-identical to
  /// pre-coalescing builds. The UD_COALESCE environment variable, when set
  /// to a positive integer, overrides this for every job (global experiment
  /// knob, read at add_job). Capacity is further clamped so a packet fits
  /// the bulk payload (kMaxBulkWords words) at the job's tuple width.
  std::uint32_t coalesce_tuples = 1;
  /// Optional map-side combining: merge same-key tuples inside the emit
  /// buffer before they ship. A merged tuple never becomes a reduce task and
  /// is never counted as emitted, so the termination gather's
  /// emitted == received comparison stays exact. Applies only to 1-value
  /// tuples (emit, not emit2) and only while the job coalesces (factor > 1).
  /// Composes with — does not replace — map-task-level pre-aggregation such
  /// as apps' CombiningCache: the cache merges within one map task, the
  /// buffer merges across map tasks that share a source lane.
  Combiner combiner = Combiner::kNone;
  /// Opaque job tag, readable from user events via Library::spec(job).tag.
  /// The stream layer stamps each delta-ingest job with its batch id so the
  /// reduce handlers append parsed edges into the right staging batch.
  Word tag = 0;
  std::string name = "kvmsr";
};

struct JobState {
  Tick start_tick = 0;
  Tick map_done_tick = 0;
  Tick done_tick = 0;
  std::uint64_t total_keys = 0;
  std::uint64_t total_emitted = 0;
  std::uint32_t poll_rounds = 0;
  std::uint32_t runs = 0;
  bool running = false;
  /// The last run was truncated by request_cancel: workers stopped issuing
  /// map tasks, in-flight tasks retired, and the job drained through the
  /// normal termination protocol (done_tick etc. are valid; no state leaks).
  bool cancelled = false;
};

/// Convenience base class for map-task threads that span multiple events and
/// need to hold their KVMSR return continuation across them.
struct MapTask : ThreadState {
  Word kvmsr_cont = IGNRCONT;
  /// Call first thing in the kv_map event.
  void kvmsr_begin(Ctx& ctx) { kvmsr_cont = ctx.ccont(); }
};

class Library {
 public:
  /// Register the KVMSR runtime events on `m` and publish the library as a
  /// machine service. Call once, before Machine::run.
  static Library& install(Machine& m);

  explicit Library(Machine& m);

  JobId add_job(JobSpec spec);
  JobSpec& spec(JobId job) { return jobs_.at(job).spec; }
  const JobState& state(JobId job) const { return jobs_.at(job).state; }
  /// Resolved per-job coalescing factor (spec / UD_COALESCE; 1 = off).
  std::uint32_t coalesce_factor(JobId job) const { return jobs_.at(job).coalesce; }

  // ---- Launch ----------------------------------------------------------------
  /// Fire a job from the host (TOP core). `cont` receives {total_emitted}
  /// when the job completes (IGNRCONT: just read state() after run()).
  void launch_from_host(JobId job, std::uint64_t key_begin, std::uint64_t key_end,
                        Word cont = IGNRCONT);
  /// Like launch_from_host, but the launch message departs the host at
  /// simulated tick max(at, Machine::now()) — offered-load pacing for the
  /// serve scheduler (arrivals in the future wait in the host queue).
  void launch_from_host_at(Tick at, JobId job, std::uint64_t key_begin,
                           std::uint64_t key_end, Word cont = IGNRCONT);
  /// Fire a job from a device event (application driver threads).
  void launch(Ctx& ctx, JobId job, std::uint64_t key_begin, std::uint64_t key_end,
              Word cont = IGNRCONT);
  /// Host helper: launch, run the machine to quiescence, return final state.
  const JobState& run_to_completion(JobId job, std::uint64_t key_begin,
                                    std::uint64_t key_end);

  // ---- Calls available inside user tasks ---------------------------------------
  /// kv_map_emit: push a tuple into the intermediate map; it becomes a
  /// kv_reduce task on the lane chosen by the reduce binding. May be called
  /// from the map thread or any UDWeave subtask on a lane of the job's set.
  void emit(Ctx& ctx, JobId job, Word key, Word v0);
  void emit2(Ctx& ctx, JobId job, Word key, Word v0, Word v1);
  /// kv_map_return: retire the map task (pass ctx.ccont() for single-event
  /// tasks or the stored MapTask::kvmsr_cont) and terminate its thread.
  void map_return(Ctx& ctx, Word stored_cont);
  /// kv_reduce_return: count the processed tuple and terminate the reducer.
  void reduce_return(Ctx& ctx, JobId job);
  /// Coalescing flush hint: ship any partially filled emit buffers of the
  /// calling lane for `job` now. The runtime flushes automatically at
  /// map-task retirement and at every termination-gather poll, so this is
  /// never needed for correctness — but emitting tasks the runtime cannot
  /// see retire (UDWeave subtasks, e.g. BFS expansion chunks) should call it
  /// when they finish emitting, or their tuples wait for the next poll
  /// round. No-op when the job does not coalesce.
  void flush_hint(Ctx& ctx, JobId job) { flush_lane(ctx, job); }

  // ---- Multi-job serving -------------------------------------------------------
  /// Drain-to-cancel: stop issuing new map tasks for `job` at each worker's
  /// next pump; in-flight tasks retire normally and the job runs the regular
  /// termination gather to done (no leaked threads, udcheck-clean). Host-side
  /// only — call while the machine is paused (between run_until windows).
  /// JobState::cancelled reports whether the finished run was truncated.
  /// Note: a leaf relay whose lanes each hold one key sends their map tasks
  /// up front, so a cancel that arrives after it ran prunes none of them.
  void request_cancel(JobId job) { jobs_.at(job).cancel = true; }
  bool cancel_requested(JobId job) const { return jobs_.at(job).cancel; }
  /// Resolved lane set of `job` (a spec count of 0 expanded to the machine).
  LaneSet lanes_of(JobId job) const { return resolved_lanes(jobs_.at(job)); }
  std::size_t num_jobs() const { return jobs_.size(); }
  /// Any job currently mid-flight (between launch and its master's finish)?
  bool any_running() const {
    for (const Job& j : jobs_)
      if (j.state.running) return true;
    return false;
  }

  // ---- Accessors used by handlers / helpers ------------------------------------
  static Word map_key(Ctx& ctx) { return ctx.op(0); }
  static JobId map_job(Ctx& ctx) { return static_cast<JobId>(ctx.op(1)); }
  static Word reduce_key(Ctx& ctx) { return ctx.op(0); }
  static Word reduce_val(Ctx& ctx, unsigned i = 0) { return ctx.op(1 + i); }
  static JobId reduce_job(Ctx& ctx) { return static_cast<JobId>(ctx.op(ctx.nops() - 1)); }

  Machine& machine() { return m_; }

 private:
  friend struct MasterThread;
  friend struct RelayThread;
  friend struct WorkerThread;
  friend struct PollThread;
  friend struct PacketThread;

  /// One (source lane, destination lane) emit buffer. `words` holds
  /// `ntuples` packed tuples of `1 + nvals` words each: {key, v0 [, v1]}.
  struct EmitBuf {
    NetworkId dst = 0;
    std::uint32_t nvals = 0;
    std::uint32_t ntuples = 0;
    std::vector<Word> words;
  };
  /// Per-source-lane buffer set. `bufs` keeps insertion order so flush_lane
  /// ships packets in a deterministic order; flushed buffers are emptied in
  /// place, never erased. Each lane's entry is touched only by the engine
  /// shard that owns the lane (same disjointness as emitted_by_lane).
  struct LaneBufs {
    std::vector<EmitBuf> bufs;
    std::unordered_map<NetworkId, std::uint32_t> index;  ///< dst -> bufs slot
  };

  struct Job {
    JobSpec spec;
    JobState state;
    bool cancel = false;         ///< request_cancel pending (cleared at finish)
    std::uint32_t coalesce = 1;  ///< resolved coalescing factor (1 = off)
    std::vector<std::uint64_t> emitted_by_lane;
    std::vector<std::uint64_t> received_by_lane;
    std::vector<LaneBufs> bufs_by_lane;  ///< sized total_lanes iff coalesce > 1
  };

  LaneSet resolved_lanes(const Job& j) const;
  NetworkId reduce_lane(Job& j, Word key) const;
  void coalesce_emit(Ctx& ctx, JobId job, Job& j, NetworkId dst, Word key,
                     const Word* vals, std::uint32_t nvals);
  void flush_buffer(Ctx& ctx, JobId job, EmitBuf& b);
  /// Flush every buffer of the calling lane for `job` (no-op when the job
  /// does not coalesce). Called at map-task retirement (WorkerThread) and at
  /// the start of every termination-gather poll (PollThread) — the latter is
  /// what keeps the emitted/received protocol exact: a non-empty buffer
  /// holds counted-but-undelivered tuples, so the sums cannot agree until a
  /// poll round has flushed it and the reducers have drained.
  void flush_lane(Ctx& ctx, JobId job);
  void count_tuple_message(Ctx& ctx, NetworkId dst, std::uint32_t payload_words);

  Machine& m_;
  std::vector<Job> jobs_;

  // Runtime event labels.
  EventLabel m_start_ = 0;
  EventLabel m_map_done_ = 0;
  EventLabel m_pbmw_request_ = 0;
  EventLabel m_poll_reply_ = 0;
  EventLabel m_poll_again_ = 0;
  EventLabel m_flush_done_ = 0;
  EventLabel r_launch_ = 0;
  EventLabel r_poll_ = 0;
  EventLabel r_flush_ = 0;
  EventLabel r_child_done_ = 0;
  EventLabel w_start_ = 0;
  EventLabel w_map_returned_ = 0;
  EventLabel w_grant_ = 0;
  EventLabel p_poll_ = 0;
  EventLabel kv_packet_ = 0;  ///< coalesced-shuffle packet unpack
};

/// do_all: map-only KVMSR (the paper's 33-LoC wrapper) — run `kv_map` once
/// per key over the lane set, no reduce phase.
JobId do_all(Library& lib, EventLabel kv_map, LaneSet lanes = {},
             MapBinding binding = MapBinding::kBlock);

}  // namespace updown::kvmsr
