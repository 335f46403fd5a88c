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
//   - reduce side: Hash (default) — lane = hash(key + 1) % lanes — or any
//                  user-provided binding function.
//
// The shuffle sends each emitted tuple as one message, straight from the
// emitting lane to a new kv_reduce thread: no buffering, packing or
// map-side combining (DESIGN.md "One shuffle path" says why).
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
//              terminates the thread. A reduce may emit only when its job's
//              JobSpec::reduces_emit is set, and then must call
//              reduce_return only once it, and any work it spawned, has
//              emitted all it will: a tuple counts as received when its
//              reduce returns, so a balanced count means no work is left.
//   flush    : optional; after the reduce drain one flush event runs per
//              lane, sent by the lane's leaf relay (new thread, ops = {job});
//              it must reply to CCONT with no operands when its lane's state
//              is flushed.
//
// Termination protocol (the paper: "KVMSR tracks termination of the map and
// reduce phases"): workers retire map tasks via kv_map_return; once the map
// phase is done, the master runs gather rounds summing per-lane
// emitted/received counters until the sums agree, then flushes and signals
// the launch continuation with {total_emitted}. Emitted is final at
// map-done unless reduces emit, so one balanced wave ends a job. A job whose
// reduces emit ends only when two consecutive waves read the same balanced
// sum (Mattern's four-counter test): one wave may read a lane's counters
// before a reduce elsewhere emits and returns. Every all-lane exchange
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
  /// Reduces emit (a diffusing job, such as BFS): termination takes two
  /// consecutive balanced gather waves with the same sum instead of one.
  bool reduces_emit = false;
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
  /// kv_map_emit: push a tuple into the intermediate map; it travels as one
  /// message to a new kv_reduce task on the lane chosen by the reduce
  /// binding. May be called from the map thread or any UDWeave subtask on a
  /// lane of the job's set, and from reduces when JobSpec::reduces_emit.
  void emit(Ctx& ctx, JobId job, Word key, Word v0);
  void emit2(Ctx& ctx, JobId job, Word key, Word v0, Word v1);
  /// kv_map_return: retire the map task (pass ctx.ccont() for single-event
  /// tasks or the stored MapTask::kvmsr_cont) and terminate its thread.
  void map_return(Ctx& ctx, Word stored_cont);
  /// kv_reduce_return: count the processed tuple and terminate the reducer.
  void reduce_return(Ctx& ctx, JobId job);

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
  /// The lane the reduce binding gives `key`: where its tuples reduce, and
  /// so the lane that owns any per-key state the reduces keep.
  NetworkId reduce_lane(JobId job, Word key) const;
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

  struct Job {
    JobSpec spec;
    JobState state;
    bool cancel = false;  ///< request_cancel pending (cleared at finish)
    std::vector<std::uint64_t> emitted_by_lane;
    std::vector<std::uint64_t> received_by_lane;
  };

  LaneSet resolved_lanes(const Job& j) const;
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
};

/// do_all: map-only KVMSR (the paper's 33-LoC wrapper) — run `kv_map` once
/// per key over the lane set, no reduce phase.
JobId do_all(Library& lib, EventLabel kv_map, LaneSet lanes = {},
             MapBinding binding = MapBinding::kBlock);

}  // namespace updown::kvmsr
