#include "serve/scheduler.hpp"

#include <algorithm>
#include <stdexcept>

#include "check/checker.hpp"
#include "common/env.hpp"
#include "sim/event_word.hpp"

namespace updown::serve {

const char* qos_name(QoS q) {
  switch (q) {
    case QoS::kHigh: return "high";
    case QoS::kNormal: return "normal";
    case QoS::kLow: return "low";
  }
  return "?";
}

const char* ticket_status_name(TicketStatus s) {
  switch (s) {
    case TicketStatus::kPending: return "pending";
    case TicketStatus::kQueued: return "queued";
    case TicketStatus::kRunning: return "running";
    case TicketStatus::kDone: return "done";
    case TicketStatus::kRejected: return "rejected";
    case TicketStatus::kCancelled: return "cancelled";
  }
  return "?";
}

SchedOptions SchedOptions::from_env() {
  SchedOptions o;
  o.max_concurrent = static_cast<std::uint32_t>(env_u64("UD_JOBS", o.max_concurrent, 2048));
  o.max_queue = static_cast<std::uint32_t>(env_u64("UD_JOBS_QUEUE", o.max_queue, 1u << 20));
  o.partition_lanes = env_flag("UD_JOBS_PARTITION", o.partition_lanes);
  o.aging_quantum = env_u64("UD_JOBS_AGING", o.aging_quantum, ~0ull);
  return o;
}

Scheduler::Scheduler(QueryEngine& eng, SchedOptions opt)
    : eng_(eng), m_(eng.machine()), opt_(opt) {
  if (opt_.max_concurrent == 0)
    throw std::invalid_argument("serve: SchedOptions::max_concurrent must be >= 1");
  if (opt_.partition_lanes && m_.config().total_lanes() < opt_.max_concurrent)
    throw std::invalid_argument("serve: fewer lanes than running slots to partition");
  slots_.assign(opt_.max_concurrent, kFreeSlot);
  // Leaked-thread diagnostics name the query owning the lane's partition.
  if (Checker* ck = m_.checker())
    ck->set_lane_annotator([&e = eng_](NetworkId l) { return e.owner_of_lane(l); });
}

TicketId Scheduler::submit(QuerySpec spec, QoS qos, Tick arrival) {
  const TicketId id = static_cast<TicketId>(tickets_.size());
  Ticket t;
  t.id = id;
  t.qos = qos;
  t.arrival = arrival;
  tickets_.push_back(t);
  specs_.push_back(std::move(spec));
  stats_base_.emplace_back();
  // Keep the unprocessed suffix of arrivals_ sorted by (arrival, id).
  const auto begin = arrivals_.begin() + static_cast<std::ptrdiff_t>(next_arrival_);
  const auto pos = std::upper_bound(begin, arrivals_.end(), id, [this](TicketId a, TicketId b) {
    const Ticket& ta = tickets_[a];
    const Ticket& tb = tickets_[b];
    return ta.arrival != tb.arrival ? ta.arrival < tb.arrival : ta.id < tb.id;
  });
  arrivals_.insert(pos, id);
  return id;
}

void Scheduler::request_cancel(TicketId t, Tick at) {
  if (t >= tickets_.size()) throw std::out_of_range("serve: cancel of unknown ticket");
  const auto begin = cancels_.begin() + static_cast<std::ptrdiff_t>(next_cancel_);
  CancelReq c{at, t};
  const auto pos = std::upper_bound(begin, cancels_.end(), c, [](const CancelReq& a, const CancelReq& b) {
    return a.at != b.at ? a.at < b.at : a.ticket < b.ticket;
  });
  cancels_.insert(pos, c);
}

MutationId Scheduler::add_mutation(Mutation mu) {
  const MutationId id = static_cast<MutationId>(muts_.size());
  muts_.push_back(MutRec{std::move(mu), false, false, 0});
  return id;
}

bool Scheduler::gated(const Ticket& tk) const {
  for (const MutRec& r : muts_)
    if (!r.applied && r.mu.arrival <= tk.arrival) return true;
  return false;
}

int Scheduler::effective_qos(const Ticket& tk, Tick now) const {
  int q = static_cast<int>(tk.qos);
  if (opt_.aging_quantum == 0) return q;
  const Tick wait = now > tk.arrival ? now - tk.arrival : 0;
  const Tick steps = wait / opt_.aging_quantum;
  return q - static_cast<int>(std::min<Tick>(steps, static_cast<Tick>(q)));
}

bool Scheduler::sched_before(const Ticket& a, const Ticket& b, Tick now) const {
  const int ea = effective_qos(a, now);
  const int eb = effective_qos(b, now);
  if (ea != eb) return ea < eb;
  if (a.arrival != b.arrival) return a.arrival < b.arrival;
  return a.id < b.id;
}

bool Scheduler::maybe_apply(Tick now) {
  if (!running_.empty()) return false;
  bool any = false;
  for (MutRec& r : muts_) {
    if (r.applied) continue;
    if (!r.started || now < r.mu.not_before) break;
    if (r.mu.ingested && !r.mu.ingested()) break;
    if (r.mu.apply) r.mu.apply(now);
    r.applied = true;
    r.applied_tick = now;
    any = true;  // later mutations may now be due too; keep going in order
  }
  return any;
}

Tick Scheduler::next_attention() const {
  Tick t = kNever;
  if (next_arrival_ < arrivals_.size())
    t = std::min(t, tickets_[arrivals_[next_arrival_]].arrival);
  if (next_cancel_ < cancels_.size()) t = std::min(t, cancels_[next_cancel_].at);
  for (const MutRec& r : muts_) {
    if (r.applied) continue;
    // A started mutation whose not_before has passed waits for the running
    // queries, not for a time: a past tick would satisfy the run_until
    // predicate before any event runs, and drain() would spin.
    const Tick due = r.started ? r.mu.not_before : r.mu.arrival;
    if (due > m_.now()) t = std::min(t, due);
  }
  return t;
}

void Scheduler::process_due(Tick now) {
  // Start due mutations' device-side ingestion (index order == apply order).
  for (MutRec& r : muts_)
    if (!r.started && r.mu.arrival <= now) {
      r.started = true;
      if (r.mu.start) r.mu.start(now);
    }
  // Interleave arrivals and cancels in time order; arrivals first on a tie so
  // a same-tick cancel can target the just-arrived ticket.
  for (;;) {
    const Tick ta = next_arrival_ < arrivals_.size()
                        ? tickets_[arrivals_[next_arrival_]].arrival
                        : kNever;
    const Tick tc = next_cancel_ < cancels_.size() ? cancels_[next_cancel_].at : kNever;
    if (ta <= tc && ta != kNever && ta <= now) {
      admit(arrivals_[next_arrival_++], now);
      continue;
    }
    if (tc != kNever && tc <= now) {
      const CancelReq c = cancels_[next_cancel_++];
      Ticket& tk = tickets_[c.ticket];
      switch (tk.status) {
        case TicketStatus::kPending:
          tk.status = TicketStatus::kCancelled;
          tk.done = c.at;
          break;
        case TicketStatus::kQueued:
          queue_.erase(std::find(queue_.begin(), queue_.end(), c.ticket));
          tk.status = TicketStatus::kCancelled;
          tk.done = now;
          break;
        case TicketStatus::kRunning:
          eng_.cancel(tk.query);  // drains; harvest() marks it kCancelled
          break;
        default:
          break;  // already resolved
      }
      continue;
    }
    break;
  }
}

void Scheduler::admit(TicketId t, Tick now) {
  Ticket& tk = tickets_[t];
  if (tk.status == TicketStatus::kCancelled) return;  // cancelled before arrival
  if (running_.size() < opt_.max_concurrent && !gated(tk)) {
    dispatch_one(t, now);
  } else if (queue_.size() < opt_.max_queue) {
    tk.status = TicketStatus::kQueued;
    queue_.push_back(t);
  } else {
    tk.status = TicketStatus::kRejected;
    tk.done = now;
    ++rejected_;
  }
}

void Scheduler::dispatch_ready(Tick now) {
  while (running_.size() < opt_.max_concurrent) {
    auto best = queue_.end();
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
      if (gated(tickets_[*it])) continue;
      if (best == queue_.end() || sched_before(tickets_[*it], tickets_[*best], now))
        best = it;
    }
    if (best == queue_.end()) break;  // empty, or everything gated
    const TicketId t = *best;
    queue_.erase(best);
    dispatch_one(t, now);
  }
}

void Scheduler::dispatch_one(TicketId t, Tick now) {
  Ticket& tk = tickets_[t];
  QuerySpec spec = std::move(specs_[t]);
  if (opt_.partition_lanes && spec.lanes.count == 0) {
    const std::uint32_t slot = static_cast<std::uint32_t>(
        std::find(slots_.begin(), slots_.end(), kFreeSlot) - slots_.begin());
    const auto per = static_cast<std::uint32_t>(m_.config().total_lanes() /
                                                opt_.max_concurrent);
    spec.lanes.first = slot * per;
    spec.lanes.count = per;
    slots_[slot] = t;
  }
  tk.query = eng_.add_query(std::move(spec));
  tk.dispatched = true;
  tk.status = TicketStatus::kRunning;
  tk.dispatch = now;
  stats_base_[t] = m_.stats();
  eng_.launch(tk.query, now);
  running_.push_back(t);
}

void Scheduler::harvest() {
  for (std::size_t i = 0; i < running_.size();) {
    const TicketId t = running_[i];
    Ticket& tk = tickets_[t];
    if (!eng_.done(tk.query)) {
      ++i;
      continue;
    }
    tk.done = eng_.done_tick(tk.query);
    tk.status = eng_.was_cancelled(tk.query) ? TicketStatus::kCancelled
                                             : TicketStatus::kDone;
    tk.stats = m_.stats().counters_since(stats_base_[t]);
    for (TicketId& s : slots_)
      if (s == t) s = kFreeSlot;
    running_.erase(running_.begin() + static_cast<std::ptrdiff_t>(i));
  }
}

void Scheduler::ensure_tick(Tick at) {
  if (std::find(ticked_.begin(), ticked_.end(), at) != ticked_.end()) return;
  ticked_.push_back(at);
  m_.send_from_host_at(at, evw::make_new(0, eng_.tick_label()), {at});
}

void Scheduler::drain() {
  for (;;) {
    const Tick now = m_.now();
    process_due(now);
    dispatch_ready(now);
    harvest();  // a prior full drain may have finished queries unharvested
    if (maybe_apply(m_.now())) dispatch_ready(m_.now());  // ungates tickets
    bool more_host_work =
        next_arrival_ < arrivals_.size() || next_cancel_ < cancels_.size();
    for (const MutRec& r : muts_) more_host_work |= !r.applied;
    if (running_.empty() && queue_.empty() && !more_host_work) {
      // All tickets resolved. The last run_until may have stopped on the
      // final completion predicate rather than a clean drain, which skips
      // the checker's drain analysis and the trace rewrite — finish with a
      // full drain so both run (a no-op when already idle).
      m_.run();
      return;
    }
    const Tick target = next_attention();
    if (target != kNever) ensure_tick(target);
    // If the only thing left to wait for is a mutation's device-side
    // ingestion, no query-completion or timer predicate will fire — run the
    // ingest job to completion instead, then loop to apply it.
    bool ingest_only = running_.empty();
    if (ingest_only) {
      ingest_only = false;
      for (const MutRec& r : muts_) {
        if (r.applied) continue;
        ingest_only = r.started && r.mu.ingested && !r.mu.ingested();
        break;
      }
    }
    if (ingest_only && (target == kNever || eng_.tick_seen() >= target)) {
      m_.run();
      continue;
    }
    m_.run_until([this, target] {
      for (const TicketId t : running_)
        if (eng_.done(tickets_[t].query)) return true;
      if (running_.empty()) {
        for (const MutRec& r : muts_) {
          if (r.applied) continue;
          if (r.started && (!r.mu.ingested || r.mu.ingested()) &&
              (r.mu.not_before == 0 || eng_.tick_seen() >= r.mu.not_before))
            return true;
          break;  // mutations resolve in order
        }
      }
      return target != kNever && eng_.tick_seen() >= target;
    });
    harvest();
  }
}

}  // namespace updown::serve
