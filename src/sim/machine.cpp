#include "sim/machine.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>

#include "check/checker.hpp"
#include "common/env.hpp"
#include "common/log.hpp"
#include "trace/trace.hpp"
#include "udweave/context.hpp"

namespace updown {

namespace {
constexpr Tick kNoEvent = std::numeric_limits<Tick>::max();

/// Validated pass-through so the LaneTable member (sized total_lanes()) is
/// never constructed from a bogus configuration.
MachineConfig validated(MachineConfig cfg) {
  if (!cfg.valid()) throw std::invalid_argument("Machine: invalid configuration");
  if (cfg.steal)
    throw std::invalid_argument(
        "Machine: MachineConfig::steal is no longer supported (work stealing was "
        "removed; node n always runs on shard n % shards)");
  if (cfg.pin)
    throw std::invalid_argument(
        "Machine: MachineConfig::pin is no longer supported (pinning shard "
        "threads to CPUs never measurably won)");
  return cfg;
}
}  // namespace

void SpinBarrier::arrive_and_wait() {
  if (n_ == 1) return;  // one party: nobody to wait for
  const std::uint32_t gen = generation_.load(std::memory_order_acquire);
  if (count_.fetch_add(1, std::memory_order_acq_rel) + 1 == n_) {
    count_.store(0, std::memory_order_relaxed);
    generation_.fetch_add(1, std::memory_order_release);
  } else {
    unsigned spins = 0;
    while (generation_.load(std::memory_order_acquire) == gen)
      if (++spins >= 4096) std::this_thread::yield();
  }
}

Machine::Machine(MachineConfig cfg)
    : cfg_(validated(std::move(cfg))),
      memory_(cfg_.nodes),
      network_(cfg_),
      dram_(cfg_),
      lanes_(cfg_.total_lanes(), cfg_.max_threads_per_lane, cfg_.scratchpad_bytes),
      lpn_div_(cfg_.lanes_per_node()),
      lpa_div_(cfg_.lanes_per_accel),
      barrier_(1) {
  nshards_ = static_cast<std::uint32_t>(std::min<std::uint64_t>(
      env_u64("UD_SHARDS", cfg_.shards, std::numeric_limits<std::uint32_t>::max()),
      cfg_.nodes));
  if (nshards_ == 0) nshards_ = 1;

  // Checked runs use the serial engine: the checker's hooks run inline, in
  // the engine's one event order, whatever shard count was asked for.
  if (env_flag("UD_CHECK", cfg_.check)) {
    checker_ = std::make_unique<Checker>(
        *this, env_flag("UD_CHECK_SP_STRICT", cfg_.check_sp_strict));
    memory_.set_observer(checker_.get());
    if (nshards_ > 1) {
      static std::atomic<bool> warned{false};
      if (!warned.exchange(true))
        std::fprintf(stderr,
                     "[UDCHECK] note: checked runs use the serial engine; the "
                     "requested %u engine shards are ignored\n",
                     nshards_);
      nshards_ = 1;
    }
  }

  barrier_.set_parties(nshards_);
  local_min_.assign(nshards_, kNoEvent);
  dram_seq_.assign(cfg_.nodes, 0);
  owner_.resize(cfg_.nodes);
  for (std::uint32_t n = 0; n < cfg_.nodes; ++n) owner_[n] = n % nshards_;
  shards_.reserve(nshards_);
  for (std::uint32_t s = 0; s < nshards_; ++s) {
    shards_.push_back(std::make_unique<EngineShard>());
    shards_.back()->outbox.resize(nshards_);
  }

  // udtrace: the env variable overrides the configured path; empty = off.
  // Unlike the checker, the tracer runs under any shard count.
  std::string trace_path = cfg_.trace;
  if (const char* v = std::getenv("UD_TRACE"); v && *v) trace_path = v;
  if (!trace_path.empty()) {
    const Tick slice = static_cast<Tick>(
        env_u64("UD_TRACE_SLICE", cfg_.trace_slice, Tick(1) << 30));
    tracer_ = std::make_unique<Tracer>(cfg_, nshards_, std::move(trace_path), slice);
    for (std::uint32_t s = 0; s < nshards_; ++s)
      shards_[s]->trace = &tracer_->shard(s);
  }
}

Machine::~Machine() = default;

void Machine::send_from_host(Word event_word, std::initializer_list<Word> ops, Word cont) {
  host_send(now_, event_word, ops.begin(), ops.size(), cont);
}

void Machine::send_from_host(Word event_word, const Word* ops, std::size_t nops, Word cont) {
  host_send(now_, event_word, ops, nops, cont);
}

void Machine::send_from_host_at(Tick depart, Word event_word,
                                std::initializer_list<Word> ops, Word cont) {
  host_send(std::max(depart, now_), event_word, ops.begin(), ops.size(), cont);
}

void Machine::host_send(Tick depart, Word event_word, const Word* ops, std::size_t nops,
                        Word cont) {
  if (nops > kMaxOperands)
    throw std::invalid_argument("send_from_host: " + std::to_string(nops) +
                                " operands; a message carries at most " +
                                std::to_string(kMaxOperands));
  Message m;
  m.evw = event_word;
  m.cont = cont;
  m.nops = static_cast<std::uint8_t>(nops);
  std::copy(ops, ops + nops, m.ops.begin());
  m.src = first_lane_of_node(0);  // the TOP core is attached to node 0
  if (checker_) checker_->on_host_send();
  // The engine is idle here, so routing from shard 0 (which owns node 0's
  // network buckets) is race-free; a cross-shard destination just parks the
  // message in the mailbox until run() merges it.
  route_message(shard0(), host_entity(), host_seq_++, std::move(m), depart);
}

void Machine::push(EngineShard& sh, const QEntry& e) {
  sh.queue.push(e);
  if (sh.queue.size() > sh.stats.max_queue_depth)
    sh.stats.max_queue_depth = sh.queue.size();
}

void Machine::route_message(EngineShard& sh, std::uint32_t ent, std::uint32_t seq,
                            Message&& m, Tick depart) {
  const NetworkId dst = evw::nwid(m.evw);
  if (dst >= lanes_.size()) {
    // Checked mode reports the bad event word and drops the send so the
    // simulation can continue and surface the rest of the run's violations.
    if (!checker_) throw std::out_of_range("send_event: networkID beyond machine lanes");
    checker_->on_bad_route(m.evw, depart);
    return;
  }
  const std::uint32_t bytes = m.payload_bytes(cfg_.msg_header_bytes);
  const Tick arrive = network_.arrival(depart, m.src, dst, bytes);
  sh.stats.messages_sent++;
  sh.stats.message_bytes += bytes;
  const std::uint32_t src_node = node_of(m.src);
  const std::uint32_t dst_node = node_of(dst);
  if (src_node != dst_node) sh.stats.cross_node_messages++;
  // The calling shard owns the sending node (its network buckets were just
  // charged), so every cell this hook touches is shard-owned.
  if (tracer_)
    tracer_->on_message(*sh.trace, src_node, dst_node, bytes, depart, arrive,
                        network_.inject_backlog(src_node, depart));
  const std::uint32_t dshard = shard_of(dst_node);
  EngineShard& dsh = *shards_[dshard];
  if (&dsh == &sh) {
    const std::uint32_t idx = sh.msg_pool.acquire();
    sh.msg_pool[idx] = m;
    if (checker_) checker_->on_route_message(idx, depart);
    push(sh, QEntry{arrive, ent, seq, idx, kMsg});
  } else {
    sh.outbox[dshard].msgs.push_back({arrive, ent, seq, m});
  }
}

void Machine::route_dram(EngineShard& sh, std::uint32_t ent, std::uint32_t seq,
                         DramRequest&& r, Tick depart) {
  // Translate once at routing time; the home node rides along in the request.
  // An unmapped base throws UnmappedAddressError, except under the checker:
  // there it routes to node 0 and the checker classifies the fault (UAF vs
  // OOB) at service time, word by word.
  const SwizzleDescriptor* d =
      checker_ ? memory_.find_live(r.addr) : &memory_.descriptor_for(r.addr);
  r.dst_node = d ? d->translate(r.addr).node : 0;
  const std::uint32_t req_bytes =
      cfg_.msg_header_bytes + (r.is_write ? r.nwords * 8u : 0u);
  const Tick arrive =
      network_.arrival(depart, r.src, first_lane_of_node(r.dst_node), req_bytes);
  if (node_of(r.src) != r.dst_node) sh.stats.remote_dram_accesses++;
  const std::uint32_t dshard = shard_of(r.dst_node);
  EngineShard& dsh = *shards_[dshard];
  if (&dsh == &sh) {
    const std::uint32_t idx = sh.dram_pool.acquire();
    sh.dram_pool[idx] = r;
    if (checker_) checker_->on_route_dram(idx, d != nullptr, depart);
    push(sh, QEntry{arrive, ent, seq, idx, kDram});
  } else {
    sh.outbox[dshard].drams.push_back({arrive, ent, seq, r});
  }
}

void Machine::exec_message(EngineShard& sh, const QEntry& e) {
  Message& m = sh.msg_pool[e.index];
  const Tick arrive = e.t;
  const NetworkId dst = evw::nwid(m.evw);
  Lane lane(lanes_, dst);
  const Tick start = std::max(arrive, lanes_.free_at[dst]);
  const EventLabel label = evw::label(m.evw);

  // Checked mode validates the delivery (label, target liveness, recycled
  // contexts) and suppresses violating messages after reporting them.
  if (checker_ && !checker_->on_pre_deliver(e.index, start)) return;

  const EventDef& def = program_.def(label);

  const bool new_thread = evw::is_new_thread(m.evw);
  ThreadId tid;
  if (new_thread) {
    tid = lane.allocate_thread(sh.states.take(def));  // Thread Create: 0 cycles
    sh.stats.threads_created++;
    const std::uint64_t live = ++sh.live_threads;
    if (live > sh.stats.max_live_threads) sh.stats.max_live_threads = live;
  } else {
    tid = evw::tid(m.evw);
  }
  ThreadState& state = lane.thread(tid);
  if (state.ud_class_id != def.type_id) {
    if (checker_) {
      checker_->on_class_mismatch(e.index, dst, tid, start);
      return;
    }
    throw std::runtime_error("event '" + def.name + "' delivered to a thread of another class");
  }

  const Word cevnt = evw::make_existing(dst, tid, label, m.nops);
  UDSIM_LOG(LogLevel::kDebug, start, "[NWID %u][TID %u] %s (%u ops)", dst, tid,
            def.name.c_str(), m.nops);
  if (checker_) checker_->on_task_begin(e.index, dst, tid, label, start, new_thread);
  Ctx ctx(*this, sh, lane, m, start, tid, cevnt, state);
  def.invoke(ctx, state);

  const std::uint64_t cost = ctx.charged() + 1;  // +1: Thread Yield at return
  const Tick lane_free = start + cost;
  lanes_.free_at[dst] = lane_free;
  LaneStats& lst = lane.stats();
  lst.busy_cycles += cost;
  lst.events_executed++;
  sh.stats.events_executed++;
  sh.stats.charged_cycles += cost;
  // Executed on the destination's owning shard: lane/node timelines and the
  // arrival series are destination-keyed.
  if (tracer_) tracer_->on_execute(dst, node_of(dst), arrive, start, cost);
  if (ctx.terminated()) {
    sh.states.give(lane.deallocate_thread(tid));
    sh.stats.threads_destroyed++;
    --sh.live_threads;
  }
  if (checker_) checker_->on_task_end(dst, tid, ctx.terminated());
  if (lane_free > sh.now) sh.now = lane_free;
}

void Machine::exec_dram(EngineShard& sh, const QEntry& e) {
  DramRequest& r = sh.dram_pool[e.index];
  const Tick arrive = e.t;
  const std::uint32_t data_bytes = r.nwords * 8u + cfg_.msg_header_bytes;
  const Tick ready = dram_.service(arrive, r.dst_node, data_bytes);
  // service() never returns before arrive + lat_dram; the excess is pure
  // bandwidth queueing at the home node's DRAM port.
  if (tracer_) tracer_->on_dram_wait(*sh.trace, ready - arrive - cfg_.lat_dram);

  // Checked mode sanitizes the address range (OOB/UAF) and race-checks each
  // word; invalid accesses are suppressed (reads deliver zeros) so the run
  // can continue to the report instead of corrupting host memory.
  const bool ok = !checker_ || checker_->on_dram_exec(e.index, arrive);
  if (r.is_write) {
    if (ok) memory_.write_words(r.addr, r.data.data(), r.nwords);
    sh.stats.dram_writes++;
  } else {
    if (ok) memory_.read_words(r.addr, r.data.data(), r.nwords);
    else r.data.fill(0);
    sh.stats.dram_reads++;
  }
  sh.stats.dram_bytes += r.nwords * 8u;

  if (r.reply_evw != 0) {
    Message resp;
    resp.evw = r.reply_evw;
    resp.cont = r.reply_cont;
    resp.nops = r.is_write ? 0 : r.nwords;
    if (!r.is_write) resp.ops = r.data;
    resp.src = first_lane_of_node(r.dst_node);
    if (checker_) checker_->begin_dram_reply(e.index);
    // The reply is sent by the home node's DRAM port: a sender entity of its
    // own, with its own counter, so the (tick, src, seq) order of replies is
    // shard-count-invariant just like lane sends.
    route_message(sh, dram_entity(r.dst_node), dram_seq_[r.dst_node]++,
                  std::move(resp), ready);
  }
  if (checker_) checker_->on_dram_done(e.index);
  if (ready > sh.now) sh.now = ready;
}

void Machine::exec_next(EngineShard& sh) {
  const QEntry e = sh.queue.pop();
  if (e.t > sh.now) sh.now = e.t;
  if (e.kind == kMsg) {
    // The pooled payload stays in place through execution; handlers may
    // acquire new slots (slabs are stable), and the slot is recycled after.
    exec_message(sh, e);
    sh.msg_pool.release(e.index);
  } else {
    exec_dram(sh, e);
    sh.dram_pool.release(e.index);
  }
}

void Machine::run() { run_until({}); }

bool Machine::run_until(const std::function<bool()>& stop) {
  // One loop at every shard count: shard 0 runs on the caller's thread and
  // shards 1.. on workers that live for this run only. Every shard reads the
  // descriptor table in place, so it stays frozen until this call returns or
  // throws.
  struct Freeze {
    GlobalMemory& mem;
    explicit Freeze(GlobalMemory& m) : mem(m) { mem.set_frozen(true); }
    Freeze(const Freeze&) = delete;
    ~Freeze() { mem.set_frozen(false); }
  } freeze(memory_);
  const Tick lookahead = cfg_.min_cross_node_latency();
  abort_.store(false, std::memory_order_relaxed);
  stop_.store(false, std::memory_order_relaxed);
  stop_pred_ = stop ? &stop : nullptr;
  std::vector<std::thread> workers;
  workers.reserve(nshards_ - 1);
  for (std::uint32_t s = 1; s < nshards_; ++s)
    workers.emplace_back([this, s, lookahead] { run_shard(s, lookahead); });
  run_shard(0, lookahead);
  for (auto& w : workers) w.join();
  stop_pred_ = nullptr;

  for (const auto& sh : shards_)
    if (sh->now > now_) now_ = sh->now;

  std::exception_ptr first;
  for (auto& sh : shards_) {
    if (sh->eptr && !first) first = sh->eptr;
    sh->eptr = nullptr;
  }
  if (first) std::rethrow_exception(first);
  if (stop_.load(std::memory_order_relaxed)) return true;

  // Clean-drain finalization only: the checker's drain-state analysis (leaks,
  // unfired continuations) and its era barrier are only sound against a
  // quiescent machine, and the trace rewrite covers the whole simulation so
  // far. A predicate-stopped run leaves both for the run that finally drains.
  if (checker_) {
    flush_stats();  // the report writes stats_.check; totals first
    checker_->report();
  }
  // Serialize only at a clean drain (cumulative rewrite: the last run() wins,
  // covering the whole simulation so far). Faulted runs keep the previous
  // trace file intact for post-mortem.
  if (tracer_) tracer_->serialize();
  return false;
}

void Machine::merge_inbox(EngineShard& sh, std::uint32_t my) {
  for (std::uint32_t s = 0; s < nshards_; ++s) {
    EngineShard::MailBox& box = shards_[s]->outbox[my];
    for (const EngineShard::MailMsg& mm : box.msgs) {
      const std::uint32_t idx = sh.msg_pool.acquire();
      sh.msg_pool[idx] = mm.m;
      push(sh, QEntry{mm.t, mm.ent, mm.seq, idx, kMsg});
    }
    for (EngineShard::MailDram& md : box.drams) {
      const std::uint32_t idx = sh.dram_pool.acquire();
      sh.dram_pool[idx] = md.r;
      push(sh, QEntry{md.t, md.ent, md.seq, idx, kDram});
    }
    sh.mail_received += box.msgs.size() + box.drams.size();
    box.msgs.clear();
    box.drams.clear();
  }
}

void Machine::run_shard(std::uint32_t my, Tick lookahead) {
  EngineShard& sh = *shards_[my];
  // Every shard walks the same round structure and hits every barrier the
  // same number of times; both exit tests (quiescence, abort) are decisions
  // all shards reach identically, so nobody is left stranded at a barrier.
  for (;;) {
    // 1. Merge mail addressed to this shard. The producers appended before
    // barrier B of the previous round; we clear before barrier A, ahead of
    // any new appends. Every mailed event's tick is at least one full
    // lookahead window ahead, so merged entries never sort before anything
    // this shard already executed.
    try {
      merge_inbox(sh, my);
      // run_until stop predicate: evaluated by shard 0 only, here — between
      // barrier B of the previous round (which published every exec-phase
      // write) and barrier A of this one (no shard is executing). The
      // decision is published pre-A like the abort flag, so every shard
      // breaks at the same window boundary and no partial window runs. The
      // windows, and so the pause points, are decided by the events alone:
      // a paused run stops on the same tick at any shard count.
      if (my == 0 && stop_pred_ && (*stop_pred_)())
        stop_.store(true, std::memory_order_release);
    } catch (...) {
      if (!sh.eptr) sh.eptr = std::current_exception();
    }

    // A shard that failed (this round's merge, or last round's exec) raises
    // the abort flag here, strictly before barrier A. Every store to abort_
    // is pre-A and every load post-A, so all shards take the same branch; a
    // store from inside the exec phase could be observed by a shard still at
    // its abort check, stranding the thrower at barrier B.
    if (sh.eptr) abort_.store(true, std::memory_order_release);
    local_min_[my] = sh.queue.empty() ? kNoEvent : sh.queue.peek_tick();

    barrier_.arrive_and_wait();  // A: local minima published, mailboxes clear

    // 2. Same inputs on every shard -> same decision on every shard.
    if (abort_.load(std::memory_order_acquire)) break;
    if (stop_.load(std::memory_order_acquire)) break;  // run_until pause
    Tick window = kNoEvent;
    for (std::uint32_t s = 0; s < nshards_; ++s)
      window = std::min(window, local_min_[s]);
    if (window == kNoEvent) break;  // globally quiescent
    if (my == 0) ++windows_;

    // 3. Execute everything strictly inside [window, window + lookahead).
    // Same-shard sends may land inside the window and are drained here too;
    // cross-shard sends can't (their latency is at least the lookahead).
    const Tick wend = window + lookahead;
    try {
      while (!sh.queue.empty() && sh.queue.peek_tick() < wend) exec_next(sh);
    } catch (...) {
      // Record only; the abort flag is published at the top of the next
      // round, before barrier A (see above).
      if (!sh.eptr) sh.eptr = std::current_exception();
    }

    barrier_.arrive_and_wait();  // B: all outbox appends for this round done
  }
}

void Machine::flush_stats() {
  for (auto& sh : shards_) {
    stats_.merge(sh->stats);
    sh->stats.reset();
  }
}

bool Machine::idle() const {
  for (const auto& sh : shards_) {
    if (!sh->queue.empty()) return false;
    for (const auto& box : sh->outbox)
      if (!box.msgs.empty() || !box.drams.empty()) return false;
  }
  return true;
}

EngineStats Machine::engine_stats() const {
  EngineStats es;
  for (const auto& sh : shards_) {
    es.far_events += sh->queue.stats().far_events;
    es.bucket_sorts += sh->queue.stats().bucket_sorts;
    es.msg_pool_capacity += sh->msg_pool.capacity();
    es.dram_pool_capacity += sh->dram_pool.capacity();
    es.mailbox_messages += sh->mail_received;
  }
  es.shards = nshards_;
  es.windows = windows_;
  return es;
}

std::vector<LaneStats> Machine::lane_stats() const {
  // Unmaterialized lanes never executed anything: all-zero stats.
  std::vector<LaneStats> out(lanes_.size());
  for (std::uint64_t id = 0; id < lanes_.size(); ++id)
    if (const LaneCore* c = lanes_.core_if(static_cast<NetworkId>(id))) out[id] = c->stats;
  return out;
}

LaneActivity Machine::lane_activity() const { return LaneActivity::from(lane_stats()); }

}  // namespace updown
