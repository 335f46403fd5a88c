#include "kvmsr/kvmsr.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <stdexcept>

namespace updown::kvmsr {

namespace {
// udcheck sync-cell slots for the per-lane emit/receive counters: the
// termination gather's poll read of these counters is a happens-before edge
// (reduce tasks terminate without sending, so the message graph alone cannot
// order their DRAM writes before the master's done decision).
constexpr std::uint64_t emitted_slot(JobId job) { return 2ull * job; }
constexpr std::uint64_t received_slot(JobId job) { return 2ull * job + 1; }

/// Poll-clock stamps of a job whose reduces emit: a tuple's or handoff's job
/// operand carries its sender's clock mod kStamps above the JobId, and
/// kStamped marks it, so reduce_return can tell stamp 0 from a bare JobId.
constexpr unsigned kStamps = 4;
constexpr unsigned kStampShift = 32;
constexpr Word kStamped = Word{1} << 34;

/// Largest fan-out the master or a relay takes on before the control tree
/// inserts the machine's next tier below it.
constexpr std::uint64_t kMaxFanout = 64;

/// The control tree of a lane set, shaped by the machine. Level 0 is the
/// master, which covers the whole set. A level-d relay (d >= 1) covers one
/// width[d-1]-lane block of the machine, cut to the set, and its children
/// are the width[d]-lane blocks inside it. From the top, the blocks are the
/// NetworkModel's L2 and L1 node groups, nodes, accelerators and lanes.
/// Nodes and lanes are always levels; each other tier is a level only where
/// the level above would otherwise fan out to more than kMaxFanout children.
/// The last width is 1: the leaf relays fan out to lanes.
struct Tree {
  std::array<std::uint64_t, 5> width{};
  /// Lane offset of a width[i] block's relay from the block's first lane in
  /// the set: 0 for a node (whose first lane also hosts the master, for the
  /// set's first node), 1 for an accelerator, 2 for an L1 group, 3 for an L2
  /// group, so the relays of one block's first node sit on different lanes.
  std::array<std::uint32_t, 5> place{};
};

Tree tree_of(const Machine& m, LaneSet s) {
  const std::uint64_t lpn = m.config().lanes_per_node();
  const std::uint64_t lpa = m.config().lanes_per_accel;
  const std::uint64_t l1 = m.network().l1_group_nodes() * lpn;
  const std::uint64_t l2 = m.network().l2_group_nodes() * lpn;
  const std::uint64_t first = s.first, last = s.first + s.count - 1;
  Tree t;
  unsigned depth = 0;
  std::uint64_t parent = 0;  // the master's block: the whole set
  // Children of one `parent`-lane block at `child` lanes each.
  const auto fanout = [&](std::uint64_t child) {
    const std::uint64_t spanned = last / child - first / child + 1;
    return parent == 0 ? spanned : std::min(parent / child, spanned);
  };
  const auto add = [&](std::uint64_t width, std::uint32_t place) {
    t.width[depth] = width;
    t.place[depth++] = place;
    parent = width;
  };
  if (fanout(lpn) > kMaxFanout && fanout(l2) > 1) add(l2, 3);
  if (fanout(lpn) > kMaxFanout && fanout(l1) > 1) add(l1, 2);
  add(lpn, 0);
  if (fanout(1) > kMaxFanout && fanout(lpa) > 1) add(lpa, 1);
  add(1, 0);
  return t;
}

/// A relay's operand 0: the job id, with the relay's tree level above it.
Word relay_op(JobId job, unsigned level) { return job | (static_cast<Word>(level) << 32); }

/// Lanes [lo, hi) of a relay or the master, inside the job's lane set.
struct LaneSpan {
  NetworkId lo, hi;
};

/// End of the lanes of `s` that hold keys of a non-empty [key_begin,
/// key_end) under the Block binding. Each lane holds ceil(n / count) keys
/// from the set's first lane on, so the keyed lanes are a prefix of the set.
NetworkId keyed_end(LaneSet s, std::uint64_t key_begin, std::uint64_t key_end) {
  const std::uint64_t n = key_end - key_begin;
  return s.first + static_cast<NetworkId>(ceil_div(n, ceil_div(n, s.count)));
}

/// Send `label` {relay_op(job, level + 1), args...} to the relay of every
/// child block of the level-`level` span `sp`, each replying to `reply` on
/// the calling thread. Returns the number of children.
std::uint32_t to_children(Ctx& ctx, const Tree& t, unsigned level, LaneSpan sp, JobId job,
                          EventLabel label, EventLabel reply,
                          std::initializer_list<Word> args) {
  Word ops[3] = {relay_op(job, level + 1)};
  std::copy(args.begin(), args.end(), ops + 1);
  const std::uint64_t w = t.width[level];
  std::uint32_t n = 0;
  for (NetworkId b = sp.lo; b < sp.hi; ++n) {
    const NetworkId e = static_cast<NetworkId>(std::min<std::uint64_t>(sp.hi, (b / w + 1) * w));
    ctx.charge(1);
    ctx.send_eventv(ctx.evw_new(b + std::min<NetworkId>(e - b - 1, t.place[level]), label), ops,
                    1 + args.size(), ctx.evw_update_event(ctx.cevnt(), reply));
    b = e;
  }
  return n;
}
}  // namespace

// ---------------------------------------------------------------------------
// Runtime thread classes. These are the KVMSR library's own UDWeave threads:
// a per-launch master, the relays of the control tree, a per-lane worker
// that pumps map tasks with a bounded in-flight window, and per-lane poll
// agents for the termination gather.
// ---------------------------------------------------------------------------

struct MasterThread : ThreadState {
  JobId job = 0;
  std::uint64_t key_begin = 0, key_end = 0;
  Word cont = IGNRCONT;
  /// Replies still due in the current exchange: map-done reports, then poll
  /// replies, then flush replies (the phases never overlap).
  std::uint64_t pending = 0;
  std::uint64_t poll_emitted = 0, poll_received = 0;
  bool poll_grew = false;  ///< a lane returned a tuple stamped with this wave
  std::uint64_t pbmw_next = 0;
  Tick backoff = 128;  ///< exponential re-poll delay, capped at spec.poll_backoff

  void m_start(Ctx& ctx);
  void m_map_done(Ctx& ctx);
  void m_poll_again(Ctx& ctx);
  void m_pbmw_request(Ctx& ctx);
  void m_poll_reply(Ctx& ctx);
  void m_flush_done(Ctx& ctx);

 private:
  std::uint32_t to_relays(Ctx& ctx, EventLabel relay_label, EventLabel reply,
                          std::initializer_list<Word> args);
  void map_phase_complete(Ctx& ctx);
  void start_poll_round(Ctx& ctx);
  void start_flush(Ctx& ctx);
  void finish(Ctx& ctx);
};

/// One block's relay in the control tree (see Tree). Its parent exchanges
/// one message with it per exchange. It passes the exchange on to its child
/// relays or, at the leaf level, to each of its lanes in the job's set, folds
/// their replies and answers its CCONT once.
struct RelayThread : ThreadState {
  JobId job = 0;
  unsigned level = 0;
  Word reply = IGNRCONT;
  std::uint32_t pending = 0;
  bool poll = false;
  std::uint64_t emitted = 0, received = 0;
  bool grew = false;

  void r_launch(Ctx& ctx);  ///< kBlock: start the keyed lanes' map work, collect map-done
  void r_poll(Ctx& ctx);    ///< termination poll: sum the lanes' counters
  void r_flush(Ctx& ctx);   ///< flush phase: run spec.flush on every lane
  void r_child_done(Ctx& ctx);

 private:
  LaneSpan enter(Ctx& ctx, Tree& t);
  void fan_out(Ctx& ctx, EventLabel relay_label, EventLabel lane_label);
};

struct WorkerThread : ThreadState {
  JobId job = 0;
  std::uint64_t next = 0, end = 0;
  Word master = 0;  ///< PBMW grant server: master thread event word (any label)
  Word done = IGNRCONT;  ///< map-done report target (the leaf relay or, PBMW, master)
  std::uint32_t inflight = 0;
  bool waiting_grant = false;
  bool no_more = false;

  void w_start(Ctx& ctx);
  void w_map_returned(Ctx& ctx);
  void w_grant(Ctx& ctx);

 private:
  void pump(Ctx& ctx);
  void maybe_finish(Ctx& ctx);
};

struct PollThread : ThreadState {
  void p_poll(Ctx& ctx);
};

// ---------------------------------------------------------------------------
// Library
// ---------------------------------------------------------------------------

Library& Library::install(Machine& m) {
  if (m.has_service<Library>()) return m.service<Library>();
  return m.add_service<Library>(m);
}

Library::Library(Machine& m) : m_(m) {
  Program& p = m.program();
  m_start_ = p.event("kvmsr::m_start", &MasterThread::m_start);
  m_map_done_ = p.event("kvmsr::m_map_done", &MasterThread::m_map_done);
  m_pbmw_request_ = p.event("kvmsr::m_pbmw_request", &MasterThread::m_pbmw_request);
  m_poll_reply_ = p.event("kvmsr::m_poll_reply", &MasterThread::m_poll_reply);
  m_poll_again_ = p.event("kvmsr::m_poll_again", &MasterThread::m_poll_again);
  m_flush_done_ = p.event("kvmsr::m_flush_done", &MasterThread::m_flush_done);
  r_launch_ = p.event("kvmsr::r_launch", &RelayThread::r_launch);
  r_poll_ = p.event("kvmsr::r_poll", &RelayThread::r_poll);
  r_flush_ = p.event("kvmsr::r_flush", &RelayThread::r_flush);
  r_child_done_ = p.event("kvmsr::r_child_done", &RelayThread::r_child_done);
  w_start_ = p.event("kvmsr::w_start", &WorkerThread::w_start);
  w_map_returned_ = p.event("kvmsr::w_map_returned", &WorkerThread::w_map_returned);
  w_grant_ = p.event("kvmsr::w_grant", &WorkerThread::w_grant);
  p_poll_ = p.event("kvmsr::p_poll", &PollThread::p_poll);
}

JobId Library::add_job(JobSpec spec) {
  Job j;
  j.spec = std::move(spec);
  jobs_.push_back(std::move(j));
  return static_cast<JobId>(jobs_.size() - 1);
}

LaneSet Library::resolved_lanes(const Job& j) const {
  LaneSet s = j.spec.lanes;
  if (s.count == 0) {
    s.first = 0;
    s.count = static_cast<std::uint32_t>(m_.config().total_lanes());
  }
  return s;
}

NetworkId Library::reduce_lane(JobId job, Word key) const {
  const Job& j = jobs_.at(job);
  const LaneSet s = resolved_lanes(j);
  if (j.spec.reduce_binding) return j.spec.reduce_binding(key, s.first, s.count);
  // The Hash binding. hash64(0) == 0, so hashing key 0 itself would put it
  // (RMAT's top hub) on the set's first lane, which also runs the master.
  return s.first + static_cast<NetworkId>(hash64(key + 1) % s.count);
}

void Library::launch_from_host(JobId job, std::uint64_t key_begin, std::uint64_t key_end,
                               Word cont) {
  const LaneSet s = resolved_lanes(jobs_.at(job));
  m_.send_from_host(evw::make_new(s.first, m_start_), {job, key_begin, key_end}, cont);
}

void Library::launch_from_host_at(Tick at, JobId job, std::uint64_t key_begin,
                                  std::uint64_t key_end, Word cont) {
  const LaneSet s = resolved_lanes(jobs_.at(job));
  m_.send_from_host_at(at, evw::make_new(s.first, m_start_), {job, key_begin, key_end},
                       cont);
}

void Library::launch(Ctx& ctx, JobId job, std::uint64_t key_begin, std::uint64_t key_end,
                     Word cont) {
  const LaneSet s = resolved_lanes(jobs_.at(job));
  ctx.send_event(evw::make_new(s.first, m_start_), {job, key_begin, key_end}, cont);
}

const JobState& Library::run_to_completion(JobId job, std::uint64_t key_begin,
                                           std::uint64_t key_end) {
  // run() below drains the WHOLE machine, so any other resident job would be
  // driven to completion (or deadlock on its absent driver) under this job's
  // name — a single-tenant helper silently swallowing a concurrent workload.
  // Debug builds assert; Release builds throw. Concurrent jobs go through
  // launch_from_host + Machine::run_until (see serve::Scheduler).
  for (JobId o = 0; o < static_cast<JobId>(jobs_.size()); ++o) {
    if (o != job && jobs_[o].state.running) {
      assert(false && "KVMSR run_to_completion: another job is resident; "
                      "drive concurrent jobs with Machine::run_until");
      throw std::runtime_error("KVMSR: run_to_completion('" + jobs_.at(job).spec.name +
                               "') while job '" + jobs_[o].spec.name +
                               "' is resident; drive concurrent jobs with "
                               "Machine::run_until instead");
    }
  }
  launch_from_host(job, key_begin, key_end);
  m_.run();
  if (jobs_.at(job).state.running)
    throw std::runtime_error("KVMSR job '" + jobs_[job].spec.name +
                             "' did not terminate (machine went quiescent mid-job)");
  return jobs_.at(job).state;
}

void Library::emit(Ctx& ctx, JobId job, Word key, Word v0) {
  Job& j = jobs_.at(job);
  const NetworkId dst = reduce_lane(job, key);
  ctx.charge(2);  // binding hash + scratchpad emit counter
  ctx.shuffle_stats().tuples_emitted++;
  j.emitted.at(ctx.nwid())++;
  ctx.send_event(evw::make_new(dst, j.spec.kv_reduce), {key, v0, stamp(ctx, job, j)});
  count_tuple_message(ctx, dst, 3);
}

void Library::emit2(Ctx& ctx, JobId job, Word key, Word v0, Word v1) {
  Job& j = jobs_.at(job);
  const NetworkId dst = reduce_lane(job, key);
  ctx.charge(2);
  ctx.shuffle_stats().tuples_emitted++;
  j.emitted.at(ctx.nwid())++;
  ctx.send_event(evw::make_new(dst, j.spec.kv_reduce), {key, v0, v1, stamp(ctx, job, j)});
  count_tuple_message(ctx, dst, 4);
}

void Library::hand_off(Ctx& ctx, JobId job, NetworkId lane, EventLabel event,
                       std::initializer_list<Word> args) {
  Job& j = jobs_.at(job);
  if (!j.spec.reduces_emit || args.size() >= kMaxOperands)
    throw std::logic_error("KVMSR: hand_off in job '" + j.spec.name +
                           "' needs JobSpec::reduces_emit and at most 7 args");
  Word ops[kMaxOperands];
  std::copy(args.begin(), args.end(), ops);
  ctx.charge(1);  // scratchpad handoff counter
  j.handed.at(ctx.nwid())++;
  ops[args.size()] = stamp(ctx, job, j);
  ctx.send_eventv(evw::make_new(lane, event), ops, args.size() + 1);
}

Word Library::stamp(Ctx& ctx, JobId job, Job& j) {
  ctx.sync_release(emitted_slot(job));
  if (!j.spec.reduces_emit) return job;
  ctx.charge(1);  // poll-clock load
  return job | Word{j.clock.at(ctx.nwid()) % kStamps} << kStampShift | kStamped;
}

// Shuffle-traffic accounting for one tuple message. Pure statistics: it
// never touches timing.
void Library::count_tuple_message(Ctx& ctx, NetworkId dst, std::uint32_t payload_words) {
  ShuffleStats& s = ctx.shuffle_stats();
  s.messages++;
  s.bytes += m_.config().msg_header_bytes + 8ull * payload_words;
  if (m_.node_of(ctx.nwid()) != m_.node_of(dst)) s.cross_node_messages++;
}

void Library::map_return(Ctx& ctx, Word stored_cont) {
  ctx.send_event(stored_cont, {});
  ctx.yield_terminate();
}

void Library::reduce_return(Ctx& ctx, Word job_operand) {
  const JobId job = job_of(job_operand);
  Job& j = jobs_.at(job);
  std::size_t counter = ctx.nwid();
  if (j.spec.reduces_emit) {
    if (!(job_operand & kStamped))
      throw std::logic_error("KVMSR: job '" + j.spec.name +
                             "' has emitting reduces; reduce_return needs the tuple's "
                             "job operand (Library::job_operand), not its JobId");
    counter = counter * kStamps + (job_operand >> kStampShift) % kStamps;
  }
  ctx.charge(1);  // scratchpad received counter, at the address the stamp selects
  j.received.at(counter)++;
  ctx.sync_release(received_slot(job));
  ctx.yield_terminate();
}

// ---------------------------------------------------------------------------
// Master
// ---------------------------------------------------------------------------

void MasterThread::m_start(Ctx& ctx) {
  Library& lib = ctx.machine().service<Library>();
  job = static_cast<JobId>(ctx.op(0));
  key_begin = ctx.op(1);
  key_end = ctx.op(2);
  cont = ctx.ccont();

  Library::Job& j = lib.jobs_.at(job);
  if (j.state.running)
    throw std::runtime_error("KVMSR: job '" + j.spec.name + "' launched while running");
  j.state.running = true;
  j.state.runs++;
  j.state.start_tick = ctx.start_time();
  j.state.map_done_tick = j.state.done_tick = 0;
  j.state.total_keys = key_end - key_begin;
  j.state.total_emitted = 0;
  j.state.poll_rounds = j.state.vetoed_waves = 0;
  j.state.cancelled = false;
  j.cancel = false;  // a relaunch of a previously cancelled job starts fresh
  backoff = 128;
  const std::size_t lanes = ctx.machine().config().total_lanes();
  const std::size_t stamped_lanes = j.spec.reduces_emit ? lanes : 0;
  j.emitted.assign(lanes, 0);
  j.received.assign(j.spec.reduces_emit ? lanes * kStamps : lanes, 0);
  j.handed.assign(stamped_lanes, 0);
  j.clock.assign(stamped_lanes, 0);
  j.seen.assign(stamped_lanes, 0);

  // udtrace spans live on the master lane: map from launch to the map
  // barrier, then shuffle-drain, then flush — the paper's phase anatomy.
  // Name construction is guarded so the trace-off path stays zero-cost.
  if (ctx.machine().tracer()) ctx.trace_phase_begin(j.spec.name + ":map");

  const LaneSet s = lib.resolved_lanes(j);
  if (key_begin >= key_end) {
    map_phase_complete(ctx);
    return;
  }

  switch (j.spec.map_binding) {
    case MapBinding::kBlock:
      // The leaf relays start the keyed lanes' map work; each relay reports
      // once when all of its children have retired theirs. The keys fill a
      // prefix of the set, and the launch skips every block past it.
      pending = to_children(ctx, tree_of(ctx.machine(), s), 0,
                            {s.first, keyed_end(s, key_begin, key_end)}, job, lib.r_launch_,
                            lib.m_map_done_, {key_begin, key_end});
      break;
    case MapBinding::kPBMW: {
      // Partial block + master-worker: each lane starts with one chunk and
      // asks this master for more, so the master launches every lane itself.
      pbmw_next = key_begin;
      pending = s.count;
      for (std::uint32_t i = 0; i < s.count; ++i) {
        const std::uint64_t b = std::min(key_end, pbmw_next);
        const std::uint64_t e = std::min(key_end, b + j.spec.pbmw_chunk);
        pbmw_next = e;
        ctx.charge(1);
        ctx.send_event(ctx.evw_new(s.first + i, lib.w_start_), {job, b, e, ctx.cevnt()},
                       ctx.evw_update_event(ctx.cevnt(), lib.m_map_done_));
      }
      break;
    }
  }
}

/// Send `relay_label` {relay_op(job, 1), args...} to the top-level relays of
/// the control tree, each replying to `reply` on this master. Returns the
/// relay count.
std::uint32_t MasterThread::to_relays(Ctx& ctx, EventLabel relay_label, EventLabel reply,
                                      std::initializer_list<Word> args) {
  const LaneSet s = ctx.machine().service<Library>().lanes_of(job);
  return to_children(ctx, tree_of(ctx.machine(), s), 0, {s.first, s.first + s.count}, job,
                     relay_label, reply, args);
}

/// One map-done report: a top-level relay's for its block (kBlock) or a
/// worker's for its lane (PBMW).
void MasterThread::m_map_done(Ctx& ctx) {
  if (--pending == 0) map_phase_complete(ctx);
}

void MasterThread::map_phase_complete(Ctx& ctx) {
  Library& lib = ctx.machine().service<Library>();
  Library::Job& j = lib.jobs_.at(job);
  j.state.map_done_tick = ctx.now();
  // A job with no keys ran no map task, so it emitted nothing and left no
  // lane state to flush: it finishes at once.
  const bool empty = key_begin >= key_end;
  if (ctx.machine().tracer()) {
    ctx.trace_phase_end(j.spec.name + ":map");
    if (j.spec.kv_reduce != 0 && !empty) ctx.trace_phase_begin(j.spec.name + ":drain");
  }
  if (empty)
    finish(ctx);
  else if (j.spec.kv_reduce != 0)
    start_poll_round(ctx);
  else if (j.spec.flush != 0)
    start_flush(ctx);
  else
    finish(ctx);
}

void MasterThread::start_poll_round(Ctx& ctx) {
  Library& lib = ctx.machine().service<Library>();
  poll_emitted = poll_received = 0;
  poll_grew = false;
  lib.jobs_.at(job).state.poll_rounds++;
  pending = to_relays(ctx, lib.r_poll_, lib.m_poll_reply_, {});
}

/// One top-level relay's reply: {emitted, received} summed over its block,
/// and for a job whose reduces emit, whether any of its lanes returned a
/// tuple stamped with this wave before the wave read it.
void MasterThread::m_poll_reply(Ctx& ctx) {
  Library& lib = ctx.machine().service<Library>();
  Library::Job& j = lib.jobs_.at(job);
  ctx.charge(ctx.nops());  // one scratchpad add (or flag or) per operand
  poll_emitted += ctx.op(0);
  poll_received += ctx.op(1);
  if (j.spec.reduces_emit) poll_grew |= ctx.op(2) != 0;
  if (--pending > 0) return;
  const bool balanced = poll_emitted == poll_received;
  if (balanced && !poll_grew) {
    j.state.total_emitted = poll_emitted;
    if (ctx.machine().tracer()) ctx.trace_phase_end(j.spec.name + ":drain");
    if (j.spec.flush != 0)
      start_flush(ctx);
    else
      finish(ctx);
  } else {
    if (balanced) ++j.state.vetoed_waves;
    // Tuples are still in flight (or, vetoed, the wave read some lanes too
    // early to tell); gather again after an exponentially
    // growing backoff, so short drains re-poll quickly while long-running
    // reduce phases do not saturate the master lane with polling.
    const Tick delay = std::min(backoff, j.spec.poll_backoff);
    backoff = std::min(backoff * 2, j.spec.poll_backoff);
    ctx.send_event_delayed(ctx.evw_update_event(ctx.cevnt(), lib.m_poll_again_), {},
                           IGNRCONT, delay);
  }
}

void MasterThread::m_poll_again(Ctx& ctx) { start_poll_round(ctx); }

void MasterThread::start_flush(Ctx& ctx) {
  Library& lib = ctx.machine().service<Library>();
  if (ctx.machine().tracer()) ctx.trace_phase_begin(lib.jobs_.at(job).spec.name + ":flush");
  pending = to_relays(ctx, lib.r_flush_, lib.m_flush_done_, {});
}

void MasterThread::m_flush_done(Ctx& ctx) {
  if (--pending > 0) return;
  if (ctx.machine().tracer())
    ctx.trace_phase_end(ctx.machine().service<Library>().jobs_.at(job).spec.name + ":flush");
  finish(ctx);
}

void MasterThread::finish(Ctx& ctx) {
  Library& lib = ctx.machine().service<Library>();
  Library::Job& j = lib.jobs_.at(job);
  j.state.done_tick = ctx.now();
  j.state.cancelled = j.cancel;
  j.cancel = false;
  j.state.running = false;
  if (cont != IGNRCONT) ctx.send_event(cont, {j.state.total_emitted});
  ctx.yield_terminate();
}

void MasterThread::m_pbmw_request(Ctx& ctx) {
  Library& lib = ctx.machine().service<Library>();
  Library::Job& j = lib.jobs_.at(job);
  if (pbmw_next < key_end) {
    const std::uint64_t b = pbmw_next;
    const std::uint64_t e = std::min(key_end, b + j.spec.pbmw_chunk);
    pbmw_next = e;
    ctx.charge(2);
    ctx.send_reply({b, e, 1});
  } else {
    ctx.send_reply({0, 0, 0});
  }
}

// ---------------------------------------------------------------------------
// Relay + worker + poll agent
// ---------------------------------------------------------------------------

/// Common relay entry: ops = {relay_op(job, level), ...}, CCONT = the
/// parent's fold event. Fills `t` with the job's tree and returns the lanes
/// this relay serves.
LaneSpan RelayThread::enter(Ctx& ctx, Tree& t) {
  Library& lib = ctx.machine().service<Library>();
  job = static_cast<JobId>(ctx.op(0));
  level = static_cast<unsigned>(ctx.op(0) >> 32);
  reply = ctx.ccont();
  const LaneSet s = lib.lanes_of(job);
  t = tree_of(ctx.machine(), s);
  const std::uint64_t w = t.width[level - 1];
  const std::uint64_t base = ctx.nwid() / w * w;
  return {static_cast<NetworkId>(std::max<std::uint64_t>(base, s.first)),
          static_cast<NetworkId>(std::min<std::uint64_t>(base + w, s.first + s.count))};
}

void RelayThread::r_launch(Ctx& ctx) {
  Library& lib = ctx.machine().service<Library>();
  Tree t;
  LaneSpan lanes = enter(ctx, t);
  const std::uint64_t key_begin = ctx.op(1), key_end = ctx.op(2);
  const LaneSet s = lib.lanes_of(job);
  lanes.hi = std::min(lanes.hi, keyed_end(s, key_begin, key_end));
  if (t.width[level] > 1) {
    pending = to_children(ctx, t, level, lanes, job, lib.r_launch_, lib.r_child_done_,
                          {key_begin, key_end});
    return;
  }
  const Library::Job& j = lib.jobs_.at(job);
  const std::uint64_t per = ceil_div(key_end - key_begin, s.count);
  pending = lanes.hi - lanes.lo;
  if (per == 1 && !j.cancel) {
    // Every lane here holds exactly one key: send its map task directly, one
    // cycle per send as in the poll fan-out. A worker would only forward the
    // task and relay its return.
    for (NetworkId lane = lanes.lo; lane < lanes.hi; ++lane) {
      ctx.charge(1);
      ctx.send_event(ctx.evw_new(lane, j.spec.kv_map), {key_begin + (lane - s.first), job},
                     ctx.evw_update_event(ctx.cevnt(), lib.r_child_done_));
    }
    return;
  }
  for (NetworkId lane = lanes.lo; lane < lanes.hi; ++lane) {
    const std::uint64_t b = std::min(key_end, key_begin + (lane - s.first) * per);
    const std::uint64_t e = std::min(key_end, b + per);
    ctx.charge(2);
    ctx.send_event(ctx.evw_new(lane, lib.w_start_), {job, b, e},
                   ctx.evw_update_event(ctx.cevnt(), lib.r_child_done_));
  }
}

void RelayThread::r_poll(Ctx& ctx) {
  Library& lib = ctx.machine().service<Library>();
  poll = true;
  fan_out(ctx, lib.r_poll_, lib.p_poll_);
}

void RelayThread::r_flush(Ctx& ctx) {
  Library& lib = ctx.machine().service<Library>();
  fan_out(ctx, lib.r_flush_,
          lib.jobs_.at(static_cast<JobId>(ctx.op(0))).spec.flush);
}

/// Pass a poll or flush on: `relay_label` to the child relays or, at the leaf
/// level, `lane_label` {job} to each lane, replying to r_child_done.
void RelayThread::fan_out(Ctx& ctx, EventLabel relay_label, EventLabel lane_label) {
  Library& lib = ctx.machine().service<Library>();
  Tree t;
  const LaneSpan lanes = enter(ctx, t);
  if (t.width[level] > 1) {
    pending = to_children(ctx, t, level, lanes, job, relay_label, lib.r_child_done_, {});
    return;
  }
  pending = lanes.hi - lanes.lo;
  for (NetworkId lane = lanes.lo; lane < lanes.hi; ++lane) {
    ctx.charge(1);
    ctx.send_event(ctx.evw_new(lane, lane_label), {job},
                   ctx.evw_update_event(ctx.cevnt(), lib.r_child_done_));
  }
}

/// One child's reply: for a poll {emitted, received}, with the stamp check's
/// flag third when reduces emit; none for map-done and flush. The last one
/// sends the relay's single reply, the same shape, to its parent.
void RelayThread::r_child_done(Ctx& ctx) {
  if (poll) {
    ctx.charge(ctx.nops());  // one scratchpad add (or flag or) per operand
    emitted += ctx.op(0);
    received += ctx.op(1);
    if (ctx.nops() > 2) grew |= ctx.op(2) != 0;
  }
  if (--pending > 0) return;
  if (!poll)
    ctx.send_event(reply, {});
  else if (ctx.nops() > 2)
    ctx.send_event(reply, {emitted, received, grew});
  else
    ctx.send_event(reply, {emitted, received});
  ctx.yield_terminate();
}

/// ops = {job, begin, end [, grant server (PBMW)]}, CCONT = map-done target.
void WorkerThread::w_start(Ctx& ctx) {
  job = static_cast<JobId>(ctx.op(0));
  next = ctx.op(1);
  end = ctx.op(2);
  if (ctx.nops() > 3) master = ctx.op(3);
  done = ctx.ccont();
  pump(ctx);
}

void WorkerThread::w_map_returned(Ctx& ctx) {
  --inflight;
  pump(ctx);
}

void WorkerThread::w_grant(Ctx& ctx) {
  waiting_grant = false;
  if (ctx.op(2) != 0) {
    next = ctx.op(0);
    end = ctx.op(1);
    pump(ctx);
  } else {
    no_more = true;
    maybe_finish(ctx);
  }
}

void WorkerThread::pump(Ctx& ctx) {
  Library& lib = ctx.machine().service<Library>();
  Library::Job& j = lib.jobs_.at(job);
  if (j.cancel) {
    // Drain-to-cancel: forfeit the remaining key range (and any future PBMW
    // grants) so in-flight tasks retire and the normal termination gather
    // runs to done — the job ends cleanly, just early.
    next = end;
    no_more = true;
  }
  while (inflight < j.spec.max_inflight_per_lane && next < end) {
    ctx.charge(1);
    ctx.send_event(ctx.evw_new(ctx.nwid(), j.spec.kv_map), {next, job},
                   ctx.evw_update_event(ctx.cevnt(), lib.w_map_returned_));
    ++inflight;
    ++next;
  }
  if (next >= end && j.spec.map_binding == MapBinding::kPBMW && !waiting_grant && !no_more) {
    waiting_grant = true;
    ctx.send_event(evw::update_event(master, lib.m_pbmw_request_), {job},
                   ctx.evw_update_event(ctx.cevnt(), lib.w_grant_));
    return;
  }
  maybe_finish(ctx);
}

void WorkerThread::maybe_finish(Ctx& ctx) {
  Library& lib = ctx.machine().service<Library>();
  Library::Job& j = lib.jobs_.at(job);
  const bool exhausted =
      next >= end && (j.spec.map_binding != MapBinding::kPBMW || no_more);
  if (exhausted && inflight == 0 && !waiting_grant) {
    ctx.send_event(done, {});
    ctx.yield_terminate();
  }
}

void PollThread::p_poll(Ctx& ctx) {
  Library& lib = ctx.machine().service<Library>();
  const JobId job_id = static_cast<JobId>(ctx.op(0));
  Library::Job& j = lib.jobs_.at(job_id);
  const NetworkId lane = ctx.nwid();
  ctx.sync_acquire(emitted_slot(job_id));
  ctx.sync_acquire(received_slot(job_id));
  if (!j.spec.reduces_emit) {
    ctx.charge(3);  // two scratchpad counter loads + reply setup
    ctx.send_reply({j.emitted.at(lane), j.received.at(lane)});
    ctx.yield_terminate();
    return;
  }
  // Mattern's time test; this read is wave k, the lane's new clock. A tuple
  // stamped k was emitted after wave k read its sender, so if this lane
  // returned one since wave k-1 read it, wave k counted its receipt but not
  // its emit: the wave may not end the job. The handoffs this lane sent
  // count against its returns, so the sums balance only when every tuple and
  // handoff has returned (received may wrap below zero on one lane; the
  // relays' sums wrap back).
  ctx.charge(9);  // six counter loads, clock bump, stamp-k check and store, reply setup
  const std::uint32_t k = ++j.clock.at(lane);
  const std::uint64_t* r = &j.received.at(std::size_t{lane} * kStamps);
  const bool grew = r[k % kStamps] != j.seen.at(lane);
  j.seen[lane] = r[(k + 1) % kStamps];
  ctx.send_reply({j.emitted.at(lane), r[0] + r[1] + r[2] + r[3] - j.handed.at(lane), grew});
  ctx.yield_terminate();
}

// ---------------------------------------------------------------------------

JobId do_all(Library& lib, EventLabel kv_map, LaneSet lanes, MapBinding binding) {
  JobSpec spec;
  spec.kv_map = kv_map;
  spec.kv_reduce = 0;
  spec.lanes = lanes;
  spec.map_binding = binding;
  spec.name = "do_all";
  return lib.add_job(std::move(spec));
}

}  // namespace updown::kvmsr
