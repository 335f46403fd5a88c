// Host-side job scheduler: admission, QoS dispatch, and per-job quiescence
// over a QueryEngine (the tentpole of ROADMAP item 2).
//
// The scheduler owns the machine's simulated timeline. submit() only records
// a request — admission is decided at the request's ARRIVAL TICK with the
// queue state of that moment, exactly like a serving frontend: if a running
// slot is free the query dispatches, if the bounded admission queue has room
// it waits, otherwise it is REJECTED. drain() then walks simulated time with
// Machine::run_until, pausing the engine only at host-attention points:
//
//   predicate := (any running query finished) or (timer tick >= next
//                arrival/cancel time)
//
// where the timer ticks are real simulated events (QueryEngine::tick_label)
// injected from the host — the engine never busy-polls and the schedule is
// deterministic for a fixed machine, at any shard count: the engine tests
// the predicate only at lookahead-window boundaries, which the events alone
// decide (see Machine::run_until).
//
// QoS: three classes; the queue dispatches in (qos, arrival, id) order, so a
// high-QoS query leapfrogs any backlog of lower classes but never preempts a
// running query (run-to-completion within a slot).
//
// Placement: with SchedOptions::partition_lanes (UD_JOBS_PARTITION) each
// running slot owns an equal share of the machine's lanes and a dispatched
// interleaved query (spec.lanes.count == 0) is rewritten onto its slot's
// share — the paper's fig12 partitioned serving mode. Queries that name an
// explicit lane partition keep it either way.
//
// Per-ticket stats: a MachineStats snapshot at dispatch and
// counters_since(snapshot) at completion give the host-side event/message
// counters spent while the ticket was running (overlapping tickets share the
// machine, so these are window counters, not an exclusive attribution).
// Mutations: add_mutation() interleaves a graph mutation into the admitted
// stream. A mutation has an arrival tick (its place in the admission order),
// an optional device-side ingestion phase started at arrival, and a
// host-side apply that runs only at a quiescent point — no queries in
// flight — at or after `not_before` (the streaming layer rounds this up to
// the next UD_STREAM_EPOCH boundary). Any ticket arriving at or after the
// mutation's arrival is held out of dispatch until the mutation applies, so
// post-delta queries always see the post-delta graph; earlier tickets run
// to completion first, which is what makes the apply point deterministic.
//
// Aging: with SchedOptions::aging_quantum > 0 (UD_JOBS_AGING) a queued
// ticket's effective QoS class improves by one for every quantum of ticks it
// has waited, so a saturated high-QoS stream cannot starve the batch tier
// forever. Off by default — dispatch order (and therefore every existing
// schedule) is unchanged unless the knob is set.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "serve/query_engine.hpp"
#include "sim/stats.hpp"

namespace updown::serve {

enum class QoS : std::uint8_t { kHigh = 0, kNormal = 1, kLow = 2 };

const char* qos_name(QoS q);

using TicketId = std::uint32_t;

enum class TicketStatus : std::uint8_t {
  kPending,    ///< submitted; arrival tick not reached yet
  kQueued,     ///< admitted to the wait queue
  kRunning,    ///< dispatched to the engine
  kDone,       ///< finished (results collectable via query id)
  kRejected,   ///< admission queue full at arrival
  kCancelled,  ///< cancelled while queued or pending, or drained mid-flight
};

const char* ticket_status_name(TicketStatus s);

struct SchedOptions {
  std::uint32_t max_concurrent = 4;  ///< running slots (UD_JOBS)
  std::uint32_t max_queue = 16;      ///< admission queue bound (UD_JOBS_QUEUE)
  bool partition_lanes = false;      ///< slot lane partitions (UD_JOBS_PARTITION)
  /// Queue-wait ticks per one-class effective-QoS promotion (UD_JOBS_AGING).
  /// 0 = aging off: strict (qos, arrival, id) dispatch order.
  Tick aging_quantum = 0;

  /// Defaults overridden by UD_JOBS / UD_JOBS_QUEUE / UD_JOBS_PARTITION /
  /// UD_JOBS_AGING.
  static SchedOptions from_env();
};

using MutationId = std::uint32_t;

/// A graph mutation riding the admission stream (see header comment). The
/// scheduler only sequences it; the callbacks own the actual work (the
/// streaming layer binds them to delta-batch ingestion and compaction).
struct Mutation {
  Tick arrival = 0;     ///< place in the admission order
  Tick not_before = 0;  ///< apply at/after this tick (epoch boundary)
  /// Launch device-side ingestion; called once, at the first host-attention
  /// point at/after `arrival`. Null = no device phase.
  std::function<void(Tick)> start;
  /// True once the device-side ingestion has completed. Null = immediate.
  std::function<bool()> ingested;
  /// Host-side apply (compaction). Runs with no queries in flight, at a tick
  /// >= not_before. Null = marker-only mutation.
  std::function<void(Tick)> apply;
};

struct Ticket {
  TicketId id = 0;
  QoS qos = QoS::kNormal;
  TicketStatus status = TicketStatus::kPending;
  /// Engine query id; valid once dispatched (kRunning and later). Collect
  /// results with QueryEngine::collect(query).
  QueryId query = 0;
  bool dispatched = false;
  Tick arrival = 0;   ///< requested arrival tick
  Tick dispatch = 0;  ///< tick the query entered a running slot
  Tick done = 0;      ///< tick the query finished (or was cancelled)
  /// Host counters spent during [dispatch, done] (see header comment).
  MachineStats stats;

  Tick latency() const { return done - arrival; }
  Tick queue_wait() const { return dispatch - arrival; }
};

class Scheduler {
 public:
  explicit Scheduler(QueryEngine& eng, SchedOptions opt = SchedOptions::from_env());

  /// Record a request that arrives at simulated tick `arrival`. Admission is
  /// decided during drain(), at that tick. Returns the ticket id.
  TicketId submit(QuerySpec spec, QoS qos = QoS::kNormal, Tick arrival = 0);

  /// Cancel ticket `t` at simulated tick `at` (host-timed): a pending or
  /// queued ticket is dropped; a running one drains via QueryEngine::cancel.
  void request_cancel(TicketId t, Tick at);

  /// Interleave a mutation into the admission stream. Mutations apply in
  /// add_mutation order; add them in arrival order.
  MutationId add_mutation(Mutation mu);
  bool mutation_applied(MutationId m) const { return muts_.at(m).applied; }
  Tick mutation_applied_tick(MutationId m) const { return muts_.at(m).applied_tick; }
  std::size_t num_mutations() const { return muts_.size(); }

  /// Run the simulated timeline until every submitted ticket has resolved
  /// (done / rejected / cancelled). Idempotent; call again after more
  /// submit()s.
  void drain();

  const Ticket& ticket(TicketId t) const { return tickets_.at(t); }
  std::size_t num_tickets() const { return tickets_.size(); }
  std::uint32_t running() const { return static_cast<std::uint32_t>(running_.size()); }
  std::uint32_t queued() const { return static_cast<std::uint32_t>(queue_.size()); }
  std::uint64_t rejected() const { return rejected_; }
  const SchedOptions& options() const { return opt_; }

 private:
  static constexpr Tick kNever = std::numeric_limits<Tick>::max();

  struct CancelReq {
    Tick at = 0;
    TicketId ticket = 0;
  };

  struct MutRec {
    Mutation mu;
    bool started = false;
    bool applied = false;
    Tick applied_tick = 0;
  };

  Tick next_attention() const;     ///< earliest unprocessed arrival/cancel
  void process_due(Tick now);      ///< admissions + cancels with time <= now
  void admit(TicketId t, Tick now);
  void dispatch_ready(Tick now);   ///< queue -> free slots, QoS order
  void dispatch_one(TicketId t, Tick now);
  void harvest();                  ///< finished running tickets -> kDone
  void ensure_tick(Tick at);       ///< inject a host timer event once per time
  /// Dispatch hold: some unapplied mutation arrived at/before this ticket.
  bool gated(const Ticket& tk) const;
  /// QoS class after aging promotion (== qos when aging is off).
  int effective_qos(const Ticket& tk, Tick now) const;
  bool sched_before(const Ticket& a, const Ticket& b, Tick now) const;
  /// Apply every due mutation (in order) if the engine is quiescent.
  /// Returns true if any applied — gated tickets may now be eligible.
  bool maybe_apply(Tick now);

  QueryEngine& eng_;
  Machine& m_;
  SchedOptions opt_;
  std::vector<Ticket> tickets_;
  std::vector<QuerySpec> specs_;   ///< per ticket, consumed at dispatch
  std::vector<TicketId> arrivals_; ///< pending, sorted by (arrival, ticket)
  std::size_t next_arrival_ = 0;   ///< arrivals_ below this are processed
  std::vector<CancelReq> cancels_; ///< sorted by (at, ticket)
  std::size_t next_cancel_ = 0;
  std::vector<TicketId> queue_;    ///< admitted, waiting (unsorted; scanned)
  std::vector<TicketId> running_;
  static constexpr TicketId kFreeSlot = ~0u;
  std::vector<TicketId> slots_;    ///< slot -> ticket (partition mode)
  std::vector<MachineStats> stats_base_;  ///< per-ticket dispatch snapshots
  std::vector<Tick> ticked_;       ///< timer times already injected
  std::vector<MutRec> muts_;       ///< mutations, in apply order
  std::uint64_t rejected_ = 0;
};

}  // namespace updown::serve
