#include "serve/query_engine.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace updown::serve {

const char* kind_name(QueryKind k) {
  switch (k) {
    case QueryKind::kPageRank: return "pagerank";
    case QueryKind::kBfs: return "bfs";
    case QueryKind::kPathCount: return "pathcount";
    case QueryKind::kTriangles: return "triangles";
    case QueryKind::kIncPageRank: return "inc_pagerank";
    case QueryKind::kIncBfs: return "inc_bfs";
  }
  return "?";
}

// Host timer: publishes its firing time so a run_until predicate can stop the
// engine at a chosen simulated tick (scheduler arrivals, timed cancels).
struct SqTick : ThreadState {
  void t_fire(Ctx& ctx) {
    auto& seen = ctx.machine().service<QueryEngine>().tick_seen_;
    const std::uint64_t t = ctx.op(0);
    std::uint64_t cur = seen.load(std::memory_order_relaxed);
    while (cur < t &&
           !seen.compare_exchange_weak(cur, t, std::memory_order_release)) {
    }
    ctx.yield_terminate();
  }
};

// ---------------------------------------------------------------------------
// Driver: one device-side thread per query, living on the partition's first
// lane. Chains the query's KVMSR launches round by round via continuations
// and publishes the host-visible completion flag — the run_until predicate.
// ---------------------------------------------------------------------------
struct SqDriver : ThreadState {
  QueryId qid = 0;

  void d_start(Ctx& ctx) {
    auto& eng = ctx.machine().service<QueryEngine>();
    auto& q = *eng.queries_.at(qid = static_cast<QueryId>(ctx.op(0)));
    q.launch_tick = ctx.start_time();
    if (ctx.machine().tracer()) ctx.trace_phase_begin("serve:" + q.spec.name);
    switch (q.spec.kind) {
      case QueryKind::kPageRank:
        if (q.spec.iterations == 0) {
          finish(ctx, eng, q);
          return;
        }
        launch_main(ctx, eng, q, eng.lb_.d_pr_prop_done);
        break;
      case QueryKind::kPathCount:
      case QueryKind::kTriangles:
        launch_main(ctx, eng, q, eng.lb_.d_pass_done);
        break;
      case QueryKind::kIncPageRank:
        if (q.spec.iterations == 0 || q.seeded == 0) {
          finish(ctx, eng, q);
          return;
        }
        launch_main(ctx, eng, q, eng.lb_.d_ipr_round_done);
        break;
      case QueryKind::kBfs:
      case QueryKind::kIncBfs:
        if (q.alist.empty()) {  // no seed: a repair with nothing dirty
          finish(ctx, eng, q);
          return;
        }
        launch_main(ctx, eng, q, eng.lb_.d_pass_done);
        break;
    }
  }

  void d_pr_prop_done(Ctx& ctx) {
    auto& eng = ctx.machine().service<QueryEngine>();
    auto& q = *eng.queries_.at(qid);
    q.emitted += ctx.op(0);
    eng.lib_->launch(ctx, q.apply_job, 0, q.spec.graph->num_original,
                     ctx.evw_update_event(ctx.cevnt(), eng.lb_.d_pr_apply_done));
  }

  void d_pr_apply_done(Ctx& ctx) {
    auto& eng = ctx.machine().service<QueryEngine>();
    auto& q = *eng.queries_.at(qid);
    q.round++;
    if (q.cancel || q.round >= q.spec.iterations) {
      finish(ctx, eng, q);
      return;
    }
    launch_main(ctx, eng, q, eng.lb_.d_pr_prop_done);
  }

  void d_pass_done(Ctx& ctx) {
    auto& eng = ctx.machine().service<QueryEngine>();
    auto& q = *eng.queries_.at(qid);
    q.emitted += ctx.op(0);
    q.round++;
    finish(ctx, eng, q);
  }

  void d_ipr_round_done(Ctx& ctx) {
    auto& eng = ctx.machine().service<QueryEngine>();
    auto& q = *eng.queries_.at(qid);
    q.emitted += ctx.op(0);
    q.round++;
    if (q.cancel || q.round >= q.spec.iterations) {
      finish(ctx, eng, q);
      return;
    }
    // Expand the affected set for the next sweep: A_{k+1} = A_k ∪ N_out(A_k).
    // Anything a changed sweep-k rank can reach at sweep k+1 gets re-ranked;
    // every other vertex's rank_hist[k+1] entry is already the full-sweep
    // value. Host-side state (`joining` as two-phase scratch), ordered by
    // the round's gather -> driver -> relaunch message chain.
    const serve::ResidentState* rs = q.spec.resident;
    const Graph& g = *rs->csr;
    const VertexId nv = g.num_vertices();
    if (q.seeded < nv) {
      for (VertexId u = 0; u < nv; ++u)
        if (q.visited[u])
          for (const VertexId w : g.neighbors_of(u))
            if (!q.visited[w]) q.joining[w] = 1;
      for (VertexId w = 0; w < nv; ++w)
        if (q.joining[w]) {
          q.visited[w] = 1;
          q.joining[w] = 0;
        }
      q.alist.clear();
      for (VertexId v = 0; v < nv; ++v)
        if (q.visited[v]) q.alist.push_back(v);
    }
    launch_main(ctx, eng, q, eng.lb_.d_ipr_round_done);
  }

 private:
  void launch_main(Ctx& ctx, QueryEngine& eng, QueryEngine::Query& q, EventLabel done) {
    // kIncPageRank sweeps launch only the affected keys and BFS only its
    // seeds (both via alist indirection); everything else maps over the full
    // vertex range.
    std::uint64_t hi = q.spec.graph->num_vertices;
    if (q.spec.kind == QueryKind::kIncPageRank || q.spec.kind == QueryKind::kBfs ||
        q.spec.kind == QueryKind::kIncBfs)
      hi = q.alist.size();
    eng.lib_->launch(ctx, q.job, 0, hi, ctx.evw_update_event(ctx.cevnt(), done));
  }

  void finish(Ctx& ctx, QueryEngine& eng, QueryEngine::Query& q) {
    q.done_tick = ctx.now();
    if (ctx.machine().tracer()) ctx.trace_phase_end("serve:" + q.spec.name);
    q.finished = true;  // published to the host at the next pause point
    q.heard = decltype(q.heard)();  // the BFS sender filter's table
    (void)eng;
    ctx.yield_terminate();
  }
};

// ---------------------------------------------------------------------------
// 2-hop path count (the PartialMatch stand-in): map emits one tuple per edge
// (a -> b, weight 1); the reduce on b's lane multiplies by outdeg(b).
// ---------------------------------------------------------------------------
struct SqPcMap : kvmsr::MapTask {
  kvmsr::JobId job = 0;
  Word degree = 0;
  Word loaded = 0;

  void kv_map(Ctx& ctx) {
    kvmsr_begin(ctx);
    auto& eng = ctx.machine().service<QueryEngine>();
    job = kvmsr::Library::map_job(ctx);
    const Word a = kvmsr::Library::map_key(ctx);
    ctx.send_dram_read(eng.query_of_job(job).spec.graph->vertex_addr(a), 8,
                       eng.lb_.pc_rec);
  }

  void pc_rec(Ctx& ctx) {
    auto& eng = ctx.machine().service<QueryEngine>();
    degree = ctx.op(DeviceGraph::kDegree);
    const Word nbr_ptr = ctx.op(DeviceGraph::kNbrPtr);
    ctx.charge(2);
    if (degree == 0) {
      eng.lib_->map_return(ctx, kvmsr_cont);
      return;
    }
    for (Word i = 0; i < degree; i += 8) {
      const unsigned n = static_cast<unsigned>(std::min<Word>(8, degree - i));
      ctx.charge(2);
      ctx.send_dram_read(nbr_ptr + i * 8, n, eng.lb_.pc_nbrs);
    }
  }

  void pc_nbrs(Ctx& ctx) {
    auto& eng = ctx.machine().service<QueryEngine>();
    for (unsigned i = 0; i < ctx.nops(); ++i) {
      ctx.charge(1);
      eng.lib_->emit(ctx, job, ctx.op(i), 1);
    }
    loaded += ctx.nops();
    if (loaded == degree) eng.lib_->map_return(ctx, kvmsr_cont);
  }
};

struct SqPcReduce : ThreadState {
  kvmsr::JobId job = 0;
  Word paths_in = 0;

  void kv_reduce(Ctx& ctx) {
    auto& eng = ctx.machine().service<QueryEngine>();
    job = kvmsr::Library::reduce_job(ctx);
    const Word b = kvmsr::Library::reduce_key(ctx);
    paths_in = kvmsr::Library::reduce_val(ctx);
    ctx.charge(1);
    ctx.send_dram_read(eng.query_of_job(job).spec.graph->vertex_addr(b), 8,
                       eng.lb_.pc_deg);
  }

  void pc_deg(Ctx& ctx) {
    auto& eng = ctx.machine().service<QueryEngine>();
    auto& q = eng.query_of_job(job);
    const Word deg = ctx.op(DeviceGraph::kDegree);
    ctx.charge(2);
    const Word found = paths_in * deg;
    if (found > 0) {
      const Addr cell =
          q.cells_base + static_cast<Addr>(ctx.nwid() - q.rlanes.first) * 8;
      eng.cc_->add_u64(ctx, cell, found, job);
    }
    eng.lib_->reduce_return(ctx, job);
  }
};

// ---------------------------------------------------------------------------
// Incremental PageRank sweep: pull-over-reverse-CSR, affected vertices only.
// The map task for an affected v gathers v's in-neighbor list from the
// resident REVERSE graph, then for each in-neighbor u reads its live
// out-degree (forward vertex record) and its sweep-(k-1) rank from the
// resident rank history, and accumulates pr(u)/outdeg(u) in ascending-u
// order — the exact quotients and addition order of the from-scratch Jacobi
// baseline, so the refreshed rank_hist[k][v] is bit-equal to a full sweep.
// Map-only job: the result is an acked in-place write, nothing shuffles.
// ---------------------------------------------------------------------------
struct SqIprMap : kvmsr::MapTask {
  kvmsr::JobId job = 0;
  Word v = 0;
  Word rdeg = 0;
  Word rptr = 0;
  std::vector<Word> ids;    ///< in-neighbor ids, ascending (rev CSR is sorted)
  Word ids_got = 0;
  std::vector<Word> degs;   ///< out-degree per in-neighbor position
  std::vector<Word> ranks;  ///< sweep-(k-1) rank bits per position
  Word got = 0, need = 0;

  void kv_map(Ctx& ctx) {
    kvmsr_begin(ctx);
    auto& eng = ctx.machine().service<QueryEngine>();
    job = kvmsr::Library::map_job(ctx);
    auto& q = eng.query_of_job(job);
    // Keys index the compact affected list, not the vertex range: sweeps
    // never spawn tasks for untouched vertices.
    v = q.alist[kvmsr::Library::map_key(ctx)];
    ctx.charge(1);  // scratchpad affected-list lookup
    ctx.send_dram_read(q.spec.graph->vertex_addr(v), 8, eng.lb_.ipr_rrec);
  }

  void ipr_rrec(Ctx& ctx) {
    auto& eng = ctx.machine().service<QueryEngine>();
    rdeg = ctx.op(DeviceGraph::kDegree);
    rptr = ctx.op(DeviceGraph::kNbrPtr);
    ctx.charge(2);
    if (rdeg == 0) {
      finalize(ctx, 0.0);
      return;
    }
    ids.assign(rdeg, 0);
    for (Word i = 0; i < rdeg; i += 8) {
      const unsigned n = static_cast<unsigned>(std::min<Word>(8, rdeg - i));
      ctx.charge(2);
      ctx.send_dram_read(rptr + i * 8, n, eng.lb_.ipr_ids);
    }
  }

  void ipr_ids(Ctx& ctx) {
    const Word base = (ctx.ccont() - rptr) / 8;
    for (unsigned i = 0; i < ctx.nops(); ++i) {
      ctx.charge(1);
      ids[base + i] = ctx.op(i);
    }
    ids_got += ctx.nops();
    if (ids_got == rdeg) gather(ctx);
  }

  void ipr_deg(Ctx& ctx) {
    auto& eng = ctx.machine().service<QueryEngine>();
    const ResidentState* rs = eng.query_of_job(job).spec.resident;
    const Word u = (ctx.ccont() - rs->fwd->field_addr(0, DeviceGraph::kDegree)) /
                   DeviceGraph::kVertexBytes;
    ctx.charge(1);
    degs[position_of(u)] = ctx.op(0);
    if (++got == need) accumulate(ctx);
  }

  void ipr_rank(Ctx& ctx) {
    auto& eng = ctx.machine().service<QueryEngine>();
    auto& q = eng.query_of_job(job);
    const Word u = (ctx.ccont() - q.spec.resident->rank_hist[q.round - 1]) / 8;
    ctx.charge(1);
    ranks[position_of(u)] = ctx.op(0);
    if (++got == need) accumulate(ctx);
  }

  void ipr_written(Ctx& ctx) {
    auto& eng = ctx.machine().service<QueryEngine>();
    eng.lib_->map_return(ctx, kvmsr_cont);
  }

 private:
  Word position_of(Word u) const {
    return static_cast<Word>(std::lower_bound(ids.begin(), ids.end(), u) -
                             ids.begin());
  }

  void gather(Ctx& ctx) {
    auto& eng = ctx.machine().service<QueryEngine>();
    auto& q = eng.query_of_job(job);
    const ResidentState* rs = q.spec.resident;
    const Word k = q.round;
    degs.assign(rdeg, 0);
    ranks.assign(rdeg, 0);
    got = 0;
    need = rdeg * (k ? 2 : 1);
    for (const Word u : ids) {
      ctx.charge(1);
      ctx.send_dram_read(rs->fwd->field_addr(u, DeviceGraph::kDegree), 1,
                         eng.lb_.ipr_deg);
      // Sweep 0 reads the uniform 1/n init inline; later sweeps read the
      // previous sweep's resident rank array.
      if (k) ctx.send_dram_read(rs->rank_hist[k - 1] + u * 8, 1, eng.lb_.ipr_rank);
    }
  }

  void accumulate(Ctx& ctx) {
    auto& eng = ctx.machine().service<QueryEngine>();
    auto& q = eng.query_of_job(job);
    const double inv_n =
        1.0 / static_cast<double>(q.spec.graph->num_original);
    double acc = 0.0;
    for (Word pos = 0; pos < rdeg; ++pos) {
      const double pr_u =
          q.round ? std::bit_cast<double>(ranks[pos]) : inv_n;
      ctx.charge(2);
      acc += pr_u / static_cast<double>(degs[pos]);
    }
    finalize(ctx, acc);
  }

  void finalize(Ctx& ctx, double acc) {
    auto& eng = ctx.machine().service<QueryEngine>();
    auto& q = eng.query_of_job(job);
    const double n = static_cast<double>(q.spec.graph->num_original);
    const double rank = (1.0 - q.spec.damping) / n + q.spec.damping * acc;
    ctx.charge(4);
    // Acked: the next sweep reads this array; the write must be durable
    // before the round completes.
    ctx.send_dram_write(q.spec.resident->rank_hist[q.round] + v * 8,
                        {std::bit_cast<Word>(rank)}, eng.lb_.ipr_written);
  }
};

// ---------------------------------------------------------------------------
// QueryEngine
// ---------------------------------------------------------------------------

QueryEngine& QueryEngine::install(Machine& m) {
  if (m.has_service<QueryEngine>()) return m.service<QueryEngine>();
  return m.add_service<QueryEngine>(m);
}

QueryEngine::QueryEngine(Machine& m) : m_(m) {
  lib_ = &kvmsr::Library::install(m);
  cc_ = &kvmsr::CombiningCache::install(m);
  Program& p = m.program();

  d_start_ = p.event("serve::d_start", &SqDriver::d_start);
  tick_ = p.event("serve::sched_tick", &SqTick::t_fire);
  lb_.d_pr_prop_done = p.event("serve::d_pr_prop_done", &SqDriver::d_pr_prop_done);
  lb_.d_pr_apply_done = p.event("serve::d_pr_apply_done", &SqDriver::d_pr_apply_done);
  lb_.d_pass_done = p.event("serve::d_pass_done", &SqDriver::d_pass_done);
  lb_.d_ipr_round_done = p.event("serve::d_ipr_round_done", &SqDriver::d_ipr_round_done);
  register_pagerank(p);
  register_triangles(p);
  register_bfs(p);
  lb_.pc_map = p.event("serve::pc_map", &SqPcMap::kv_map);
  lb_.pc_reduce = p.event("serve::pc_reduce", &SqPcReduce::kv_reduce);
  lb_.pc_rec = p.event("serve::pc_rec", &SqPcMap::pc_rec);
  lb_.pc_nbrs = p.event("serve::pc_nbrs", &SqPcMap::pc_nbrs);
  lb_.pc_deg = p.event("serve::pc_deg", &SqPcReduce::pc_deg);
  lb_.ipr_map = p.event("serve::ipr_map", &SqIprMap::kv_map);
  lb_.ipr_rrec = p.event("serve::ipr_rrec", &SqIprMap::ipr_rrec);
  lb_.ipr_ids = p.event("serve::ipr_ids", &SqIprMap::ipr_ids);
  lb_.ipr_deg = p.event("serve::ipr_deg", &SqIprMap::ipr_deg);
  lb_.ipr_rank = p.event("serve::ipr_rank", &SqIprMap::ipr_rank);
  lb_.ipr_written = p.event("serve::ipr_written", &SqIprMap::ipr_written);
}

Addr QueryEngine::place(const QuerySpec& spec, std::uint64_t bytes) {
  const std::uint32_t nr =
      spec.values.nr_nodes ? spec.values.nr_nodes : m_.config().nodes;
  return m_.memory().dram_malloc(std::max<std::uint64_t>(8, bytes),
                                 spec.values.first_node, nr,
                                 spec.values.block_size);
}

void QueryEngine::bind_job(kvmsr::JobId j, QueryId q) {
  if (j >= job2query_.size()) job2query_.resize(j + 1, kNoQuery);
  job2query_[j] = q;
}

QueryId QueryEngine::add_query(QuerySpec spec) {
  if (!spec.graph && spec.resident) {
    if (spec.kind == QueryKind::kIncPageRank) spec.graph = spec.resident->rev;
    if (spec.kind == QueryKind::kIncBfs) spec.graph = spec.resident->fwd;
  }
  if (!spec.graph) throw std::invalid_argument("serve: QuerySpec::graph is null");
  if (spec.graph->split() && spec.kind != QueryKind::kPageRank)
    throw std::invalid_argument(
        std::string("serve: ") + kind_name(spec.kind) + " requires an unsplit graph");
  const std::uint64_t nv = spec.graph->num_vertices;
  if (spec.lanes.count != 0 &&
      spec.lanes.first + spec.lanes.count > m_.config().total_lanes())
    throw std::invalid_argument("serve: lane partition beyond the machine");
  const bool bfs_from_root =
      spec.kind == QueryKind::kBfs ||
      (spec.kind == QueryKind::kIncBfs && spec.seeds == QuerySpec::Seeds::kAll);
  if (bfs_from_root && spec.root >= nv)
    throw std::invalid_argument("serve: BFS root out of range");

  auto qp = std::make_unique<Query>();
  Query& q = *qp;
  q.spec = std::move(spec);
  q.id = static_cast<QueryId>(queries_.size());
  q.rlanes = q.spec.lanes;
  if (q.rlanes.count == 0) {
    q.rlanes.first = 0;
    q.rlanes.count = static_cast<std::uint32_t>(m_.config().total_lanes());
  }

  kvmsr::JobSpec js;
  js.lanes = q.spec.lanes;
  js.map_binding = q.spec.map_binding;
  js.name = q.spec.name;

  switch (q.spec.kind) {
    case QueryKind::kPageRank: {
      // Ranks per original vertex; accumulators per vertex, or per slot on
      // a split graph (one slot per sub-vertex, so also num_vertices).
      const std::uint64_t no = q.spec.graph->num_original;
      q.rank_base = place(q.spec, no * 8);
      q.acc_base = place(q.spec, nv * 8);
      const double init = no ? 1.0 / static_cast<double>(no) : 0.0;
      for (VertexId v = 0; v < no; ++v)
        m_.memory().host_store<double>(q.rank_base + v * 8, init);
      for (VertexId v = 0; v < nv; ++v)
        m_.memory().host_store<double>(q.acc_base + v * 8, 0.0);
      js.kv_map = lb_.pr_map;
      js.kv_reduce = lb_.pr_reduce;
      js.flush = cc_->flush_label();
      js.name = q.spec.name + ".prop";
      q.job = lib_->add_job(js);

      kvmsr::JobSpec as;
      as.kv_map = lb_.pr_apply;
      as.lanes = q.spec.lanes;
      as.name = q.spec.name + ".apply";
      q.apply_job = lib_->add_job(as);
      bind_job(q.apply_job, q.id);
      break;
    }
    case QueryKind::kPathCount: {
      q.cells_base = place(q.spec, static_cast<std::uint64_t>(q.rlanes.count) * 8);
      for (std::uint32_t l = 0; l < q.rlanes.count; ++l)
        m_.memory().host_store<Word>(q.cells_base + static_cast<Addr>(l) * 8, 0);
      js.kv_map = lb_.pc_map;
      js.kv_reduce = lb_.pc_reduce;
      js.flush = cc_->flush_label();
      js.name = q.spec.name + ".paths";
      q.job = lib_->add_job(js);
      break;
    }
    case QueryKind::kTriangles: {
      q.cells_base = place(q.spec, static_cast<std::uint64_t>(q.rlanes.count) * 8);
      for (std::uint32_t l = 0; l < q.rlanes.count; ++l)
        m_.memory().host_store<Word>(q.cells_base + static_cast<Addr>(l) * 8, 0);
      js.kv_map = lb_.tc_map;
      js.kv_reduce = lb_.tc_reduce;
      js.flush = cc_->flush_label();
      js.name = q.spec.name + ".tc";
      q.job = lib_->add_job(js);
      break;
    }
    case QueryKind::kIncPageRank: {
      ResidentState* rs = q.spec.resident;
      if (!rs || !rs->rev || !rs->fwd || !rs->csr)
        throw std::invalid_argument(
            "serve: kIncPageRank requires a ResidentState with fwd/rev/csr");
      if (q.spec.iterations != rs->rank_hist.size())
        throw std::invalid_argument(
            "serve: kIncPageRank iterations must equal rank_hist depth");
      q.visited.assign(nv, 0);  // affected flags
      q.joining.assign(nv, 0);
      if (q.spec.seeds == QuerySpec::Seeds::kAll) {
        std::fill(q.visited.begin(), q.visited.end(), 1);
        q.seeded = nv;
      } else {
        for (const VertexId v : rs->pr_dirty)
          if (v < nv && !q.visited[v]) {
            q.visited[v] = 1;
            ++q.seeded;
          }
        rs->pr_dirty.clear();
      }
      q.alist.reserve(q.seeded);
      for (VertexId v = 0; v < nv; ++v)
        if (q.visited[v]) q.alist.push_back(v);
      js.kv_map = lb_.ipr_map;
      js.name = q.spec.name + ".rank";
      q.job = lib_->add_job(js);
      break;
    }
    case QueryKind::kBfs:
    case QueryKind::kIncBfs:
      add_bfs(q, bfs_from_root);
      js.kv_map = lb_.bfs_seed;
      js.kv_reduce = lb_.bfs_reduce;
      js.reduces_emit = true;
      js.name = q.spec.name + (q.spec.kind == QueryKind::kBfs ? ".bfs" : ".repair");
      q.job = lib_->add_job(js);
      break;
  }
  bind_job(q.job, q.id);
  queries_.push_back(std::move(qp));
  return q.id;
}

void QueryEngine::launch(QueryId qid, Tick at) {
  Query& q = *queries_.at(qid);
  if (q.launched)
    throw std::logic_error("serve: query '" + q.spec.name + "' launched twice");
  q.launched = true;
  m_.send_from_host_at(at, evw::make_new(q.rlanes.first, d_start_), {qid});
}

void QueryEngine::cancel(QueryId qid) {
  Query& q = *queries_.at(qid);
  if (!q.launched || q.finished) return;
  q.cancel = true;  // driver stops chaining rounds
  // Truncate the in-flight KVMSR launch too: workers forfeit unissued keys.
  lib_->request_cancel(q.job);
  if (q.spec.kind == QueryKind::kPageRank) lib_->request_cancel(q.apply_job);
}

kvmsr::LaneSet QueryEngine::lanes(QueryId qid) const {
  return queries_.at(qid)->rlanes;
}

std::string QueryEngine::owner_of_lane(NetworkId lane) const {
  for (const auto& qp : queries_) {
    const Query& q = *qp;
    if (!q.launched || q.finished || q.spec.lanes.count == 0) continue;
    if (lane >= q.rlanes.first && lane < q.rlanes.first + q.rlanes.count)
      return q.spec.name;
  }
  return {};
}

QueryResult QueryEngine::collect(QueryId qid) const {
  const Query& q = *queries_.at(qid);
  if (!q.finished)
    throw std::logic_error("serve: collect('" + q.spec.name + "') before done");
  QueryResult r;
  r.launch_tick = q.launch_tick;
  r.done_tick = q.done_tick;
  r.rounds = q.round;
  r.emitted = q.emitted;
  r.cancelled = q.cancel;
  const std::uint64_t nv = q.spec.graph->num_vertices;
  switch (q.spec.kind) {
    case QueryKind::kPageRank:
      r.rank.resize(q.spec.graph->num_original);
      for (VertexId v = 0; v < r.rank.size(); ++v)
        r.rank[v] = m_.memory().host_load<double>(q.rank_base + v * 8);
      break;
    case QueryKind::kBfs:
    case QueryKind::kIncBfs: {
      std::vector<Word> pairs(2 * nv);
      m_.memory().host_read(q.bfs_base, pairs.data(), pairs.size() * 8);
      r.dist.resize(nv);
      r.parent.resize(nv);
      r.rounds = 0;  // levels: one more than the deepest reached level
      for (VertexId v = 0; v < nv; ++v) {
        r.dist[v] = pairs[2 * v];
        r.parent[v] = pairs[2 * v + 1];
        if (r.dist[v] != kInfDist) r.rounds = std::max<std::uint64_t>(r.rounds, r.dist[v] + 1);
      }
      break;
    }
    case QueryKind::kPathCount:
    case QueryKind::kTriangles:
      for (std::uint32_t l = 0; l < q.rlanes.count; ++l)
        r.count += m_.memory().host_load<Word>(q.cells_base + static_cast<Addr>(l) * 8);
      break;
    case QueryKind::kIncPageRank:
      if (!q.spec.resident->rank_hist.empty()) {
        const Addr last = q.spec.resident->rank_hist.back();
        r.rank.resize(nv);
        for (VertexId v = 0; v < nv; ++v)
          r.rank[v] = m_.memory().host_load<double>(last + v * 8);
      }
      break;
  }
  return r;
}

std::uint64_t cpu_path_count(const Graph& g) {
  std::uint64_t total = 0;
  for (VertexId a = 0; a < g.num_vertices(); ++a)
    for (const VertexId b : g.neighbors_of(a)) total += g.degree(b);
  return total;
}

}  // namespace updown::serve
