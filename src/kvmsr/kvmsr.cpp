#include "kvmsr/kvmsr.hpp"

#include <algorithm>
#include <array>
#include <cassert>

namespace updown::kvmsr {

namespace {
// udcheck sync-cell slots for the per-lane emit/receive counters: the
// termination gather's poll read of these counters is a happens-before edge
// (reduce tasks terminate without sending, so the message graph alone cannot
// order their DRAM writes before the master's done decision).
constexpr std::uint64_t emitted_slot(JobId job) { return 2ull * job; }
constexpr std::uint64_t received_slot(JobId job) { return 2ull * job + 1; }

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

  void r_launch(Ctx& ctx);  ///< kBlock: start the lanes' map work, collect map-done
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
  j.emitted_by_lane.assign(m_.config().total_lanes(), 0);
  j.received_by_lane.assign(m_.config().total_lanes(), 0);
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

NetworkId Library::reduce_lane(Job& j, Word key) const {
  const LaneSet s = resolved_lanes(j);
  if (j.spec.reduce_binding) return j.spec.reduce_binding(key, s.first, s.count);
  return s.first + static_cast<NetworkId>(hash64(key) % s.count);  // Hash binding
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
  const NetworkId dst = reduce_lane(j, key);
  ctx.charge(2);  // binding hash + scratchpad emit counter
  ctx.shuffle_stats().tuples_emitted++;
  j.emitted_by_lane.at(ctx.nwid())++;
  ctx.sync_release(emitted_slot(job));
  ctx.send_event(evw::make_new(dst, j.spec.kv_reduce), {key, v0, job});
  count_tuple_message(ctx, dst, 3);
}

void Library::emit2(Ctx& ctx, JobId job, Word key, Word v0, Word v1) {
  Job& j = jobs_.at(job);
  const NetworkId dst = reduce_lane(j, key);
  ctx.charge(2);
  ctx.shuffle_stats().tuples_emitted++;
  j.emitted_by_lane.at(ctx.nwid())++;
  ctx.sync_release(emitted_slot(job));
  ctx.send_event(evw::make_new(dst, j.spec.kv_reduce), {key, v0, v1, job});
  count_tuple_message(ctx, dst, 4);
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

void Library::reduce_return(Ctx& ctx, JobId job) {
  Job& j = jobs_.at(job);
  ctx.charge(1);  // scratchpad received counter
  j.received_by_lane.at(ctx.nwid())++;
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
  j.state.poll_rounds = 0;
  j.state.cancelled = false;
  j.cancel = false;  // a relaunch of a previously cancelled job starts fresh
  backoff = 128;
  std::fill(j.emitted_by_lane.begin(), j.emitted_by_lane.end(), 0);
  std::fill(j.received_by_lane.begin(), j.received_by_lane.end(), 0);

  // udtrace spans live on the master lane: map from launch to the map
  // barrier, then shuffle-drain, then flush — the paper's phase anatomy.
  // Name construction is guarded so the trace-off path stays zero-cost.
  if (ctx.machine().tracer()) ctx.trace_phase_begin(j.spec.name + ":map");

  const LaneSet s = lib.resolved_lanes(j);

  switch (j.spec.map_binding) {
    case MapBinding::kBlock:
      // The leaf relays start their lanes' map work; each relay reports once
      // when all of its children have retired theirs.
      pending = to_relays(ctx, lib.r_launch_, lib.m_map_done_, {key_begin, key_end});
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
  if (ctx.machine().tracer()) {
    ctx.trace_phase_end(j.spec.name + ":map");
    if (j.spec.kv_reduce != 0) ctx.trace_phase_begin(j.spec.name + ":drain");
  }
  if (j.spec.kv_reduce != 0)
    start_poll_round(ctx);
  else if (j.spec.flush != 0)
    start_flush(ctx);
  else
    finish(ctx);
}

void MasterThread::start_poll_round(Ctx& ctx) {
  Library& lib = ctx.machine().service<Library>();
  poll_emitted = poll_received = 0;
  lib.jobs_.at(job).state.poll_rounds++;
  pending = to_relays(ctx, lib.r_poll_, lib.m_poll_reply_, {});
}

void MasterThread::m_poll_reply(Ctx& ctx) {
  Library& lib = ctx.machine().service<Library>();
  Library::Job& j = lib.jobs_.at(job);
  ctx.charge(2);  // two scratchpad adds
  poll_emitted += ctx.op(0);
  poll_received += ctx.op(1);
  if (--pending > 0) return;
  if (poll_emitted == poll_received) {
    j.state.total_emitted = poll_emitted;
    if (ctx.machine().tracer()) ctx.trace_phase_end(j.spec.name + ":drain");
    if (j.spec.flush != 0)
      start_flush(ctx);
    else
      finish(ctx);
  } else {
    // Tuples are still in flight; gather again after an exponentially
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
  if (--pending == 0) finish(ctx);
}

void MasterThread::finish(Ctx& ctx) {
  Library& lib = ctx.machine().service<Library>();
  Library::Job& j = lib.jobs_.at(job);
  j.state.done_tick = ctx.now();
  j.state.cancelled = j.cancel;
  j.cancel = false;
  j.state.running = false;
  if (j.spec.flush != 0 && ctx.machine().tracer())
    ctx.trace_phase_end(j.spec.name + ":flush");
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
  const LaneSpan lanes = enter(ctx, t);
  const std::uint64_t key_begin = ctx.op(1), key_end = ctx.op(2);
  if (t.width[level] > 1) {
    pending = to_children(ctx, t, level, lanes, job, lib.r_launch_, lib.r_child_done_,
                          {key_begin, key_end});
    return;
  }
  const Library::Job& j = lib.jobs_.at(job);
  const LaneSet s = lib.lanes_of(job);
  const std::uint64_t per = ceil_div(key_end - key_begin, s.count);
  pending = lanes.hi - lanes.lo;
  if (per == 1 && key_begin + (lanes.hi - 1 - s.first) < key_end && !j.cancel) {
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

/// One child's reply: {emitted, received} for a poll, none for map-done and
/// flush. The last one sends the relay's single reply to its parent.
void RelayThread::r_child_done(Ctx& ctx) {
  if (poll) {
    ctx.charge(2);  // two scratchpad adds
    emitted += ctx.op(0);
    received += ctx.op(1);
  }
  if (--pending > 0) return;
  if (poll)
    ctx.send_event(reply, {emitted, received});
  else
    ctx.send_event(reply, {});
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
  ctx.charge(3);  // two scratchpad counter loads + reply setup
  ctx.sync_acquire(emitted_slot(job_id));
  ctx.sync_acquire(received_slot(job_id));
  ctx.send_reply({j.emitted_by_lane.at(ctx.nwid()), j.received_by_lane.at(ctx.nwid())});
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
