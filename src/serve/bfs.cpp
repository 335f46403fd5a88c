// Push breadth-first search (paper Section 4.2), the kBfs and kIncBfs query
// kernel and the repo's one BFS: bfs::App adds one kBfs query.
//
// The paper runs BFS in level-synchronous rounds, one KVMSR job per level.
// Here each traversal is one diffusing KVMSR job (JobSpec::reduces_emit), so
// it pays one launch and one termination gather, not one per level. The map
// keys are the seeds, the root or a repair's dirty sources; a seed's map
// task starts the seed's expand on its owner lane, the lane the job's
// reduce binding gives it. An expand reads u's level from the lane-owned
// level mirror, then u's record and neighbor list, and emits
// <w, level + 1, u>; a hub (degree above kSplitDegree) hands its list out in
// chunks over the query's lanes, each a counted handoff
// (kvmsr::Library::hand_off) that streams and emits on its own lane and
// ends with reduce_return. The reduce runs on w's owner lane: it
// improve-tests the mirror, writes {level, parent} with one acked 2-word
// write and, unless w's `queued` flag says an expand of w is pending,
// spawns w's expand on its own lane. It returns once the write is acked and
// that expand has emitted or handed off all its neighbors, so a balanced
// termination count means no work is left. The expand clears the flag as it reads the level, so it always
// reads the newest level, and a later improvement spawns a new expand; an
// expand whose vertex improved while it streams stops emitting.
//
// Sender filter (Query::heard): when the graph has at most 32 edges per lane
// of the query, every reduce, improving or not, records its tuple's sender
// u and u's level (the tuple's level - 1) in its lane's 32-slot table, and
// every expand, on the owner lane or in a hub chunk, skips a neighbor x that
// its lane's table holds at a level no greater than the one it would send:
// dist[x] is already that low, so the tuple could not lower it. On a
// symmetric graph a hub's tuple to w lands on w's owner lane, where w's
// expand runs, so w no longer echoes its level back to the hub.
//
// Levels only fall, so the final levels do not depend on message order,
// shard count or concurrent jobs; a vertex may be expanded more than once,
// so a query can emit more tuples than its BFS tree traverses. kBfs seeds
// the root on the query's own arrays; kIncBfs repairs the session's
// resident arrays from delta-touched sources (Seeds::kPending) or
// recomputes them from the root (Seeds::kAll). A cancelled query stops
// spawning expands, so its job drains early.
#include <algorithm>
#include <stdexcept>

#include "serve/query_engine.hpp"

namespace updown::serve {

/// Expand one vertex u (bfs_expand, ops {u, job}): stream the neighbors and
/// emit <w, level, u> for each, or hand a hub's list off in chunks, then
/// reply to CCONT. Or run one such chunk (bfs_chunk, ops {base, len, u,
/// level, job operand}), which ends with reduce_return. bfs_seed is the
/// job's kv_map: it hands the seed to an expand on the seed's owner lane,
/// whose reply retires the map task; the map-done that follows orders that
/// handoff before every poll wave, so it needs no count.
struct SqBfsExpand : ThreadState {
  /// Above this degree an expand fans chunk subtasks out to other lanes: the
  /// equivalent of the artifact's max-degree-4096 split for BFS, realized as
  /// dynamic parallelism instead of a preprocessing transform. Without it a
  /// hub's emit loop serializes one lane for tens of thousands of cycles.
  static constexpr Word kSplitDegree = 256;

  Word u = 0;
  kvmsr::JobId job = 0;
  Word job_op = 0;  ///< a chunk's job operand, for its reduce_return
  Word level = 0;   ///< the level emitted to u's neighbors
  Word len = 0, loaded = 0;
  Word done_cont = IGNRCONT;
  bool owner = false;  ///< runs on u's owner lane (not a hub chunk)
  bool stale = false;  ///< u improved since: a newer expand supersedes this one

  void bfs_seed(Ctx& ctx) {
    auto& eng = ctx.machine().service<QueryEngine>();
    job = kvmsr::Library::map_job(ctx);
    const Word s = eng.query_of_job(job).alist[kvmsr::Library::map_key(ctx)];
    ctx.charge(1);  // scratchpad seed-list lookup
    ctx.send_event(ctx.evw_new(eng.lib_->reduce_lane(job, s), eng.lb_.bfs_expand), {s, job},
                   ctx.ccont());
    ctx.yield_terminate();
  }

  void bfs_expand(Ctx& ctx) {
    auto& eng = ctx.machine().service<QueryEngine>();
    u = ctx.op(0);
    job = static_cast<kvmsr::JobId>(ctx.op(1));
    done_cont = ctx.ccont();
    auto& q = eng.query_of_job(job);
    ctx.charge(2);  // queued-flag clear and level-mirror load
    q.queued[u] = 0;  // from here on, an improvement spawns a new expand
    level = (*q.dist)[u] + 1;
    owner = true;
    ctx.send_dram_read(q.spec.graph->vertex_addr(u), 8, eng.lb_.bfs_rec);
  }

  void bfs_chunk(Ctx& ctx) {
    job_op = kvmsr::Library::job_operand(ctx);
    job = kvmsr::Library::job_of(job_op);
    u = ctx.op(2);
    level = ctx.op(3);
    stream(ctx, ctx.op(0), ctx.op(1));
  }

  void bfs_rec(Ctx& ctx) {
    auto& eng = ctx.machine().service<QueryEngine>();
    const Word degree = ctx.op(DeviceGraph::kDegree);
    const Word nbr_ptr = ctx.op(DeviceGraph::kNbrPtr);
    ctx.charge(2);
    if (degree == 0) {
      finish(ctx);
      return;
    }
    if (degree <= kSplitDegree) {
      stream(ctx, nbr_ptr, degree);
      return;
    }
    // Hand the list off in kSplitDegree chunks, striped over the query's
    // lanes; each chunk task streams and emits from its own lane. The job
    // counts each chunk until it returns, so this expand is done once it
    // has sent them.
    const kvmsr::LaneSet ls = eng.query_of_job(job).rlanes;
    Word i = 0;
    for (Word off = 0; off < degree; off += kSplitDegree, ++i) {
      const NetworkId lane =
          ls.first + static_cast<NetworkId>((ctx.nwid() - ls.first + 1 + i * 97) % ls.count);
      ctx.charge(2);
      eng.lib_->hand_off(ctx, job, lane, eng.lb_.bfs_chunk,
                         {nbr_ptr + off * 8, std::min<Word>(kSplitDegree, degree - off), u, level});
    }
    finish(ctx);
  }

  void bfs_nbrs(Ctx& ctx) {
    auto& eng = ctx.machine().service<QueryEngine>();
    auto& q = eng.query_of_job(job);
    if (owner && !stale) {
      // If u's level fell after this expand read it, the reduce that lowered
      // it spawned a newer expand (or the query was cancelled), whose tuples
      // carry lower levels to the same neighbors: the rest of ours are waste.
      ctx.charge(1);  // level-mirror load
      stale = (*q.dist)[u] + 1 < level;
    }
    for (unsigned i = 0; i < ctx.nops() && !stale; ++i) {
      const Word x = ctx.op(i);
      if (!q.heard.empty()) {
        // A reduce on this lane heard from x at a level no greater than
        // ours, so dist[x] <= level already: the tuple could not lower it.
        ctx.charge(2);  // slot hash and heard-table load
        const auto& h = q.heard_slot(ctx.nwid(), x);
        if (h.vertex == x && h.level <= level) continue;
      }
      ctx.charge(1);
      eng.lib_->emit2(ctx, job, x, level, u);
    }
    loaded += ctx.nops();
    if (loaded == len) finish(ctx);
  }

 private:
  void stream(Ctx& ctx, Word base, Word n) {
    auto& eng = ctx.machine().service<QueryEngine>();
    len = n;
    for (Word i = 0; i < n; i += 8) {
      ctx.charge(2);
      ctx.send_dram_read(base + i * 8, static_cast<unsigned>(std::min<Word>(8, n - i)),
                         eng.lb_.bfs_nbrs);
    }
  }

  void finish(Ctx& ctx) {
    if (!owner) {
      ctx.machine().service<QueryEngine>().lib_->reduce_return(ctx, job_op);
      return;
    }
    ctx.send_event(done_cont, {});
    ctx.yield_terminate();
  }
};

// udcheck sync cell for the lane-owned level-mirror entry of vertex w. Two
// reduces can both improve dist[w] (a repair's seeds mix levels, and a
// diffusing traversal reaches w along paths of different lengths); the
// improve-test on the mirror orders their two acked DRAM writes, and this
// cell shows the checker that edge. Bit 30 keeps these cells apart from
// KVMSR's counter cells (2*job and 2*job + 1), which stay below bit 30 for
// job ids under 2^29.
constexpr std::uint64_t dist_slot(Word w) { return (1ull << 30) | (w & ((1ull << 30) - 1)); }

/// Kv_reduce on w's owner lane: improve-test, acked {level, parent} write,
/// and w's expand unless one is pending. Returns when the write is acked
/// and the expand it spawned has emitted or handed off all it will, so a
/// later query reads no unordered write and the job's termination count
/// stays exact.
struct SqBfsReduce : ThreadState {
  Word job_op = 0;  ///< the tuple's job operand, for reduce_return
  unsigned pending = 1;  ///< the write ack, plus a spawned expand's reply

  void kv_reduce(Ctx& ctx) {
    auto& eng = ctx.machine().service<QueryEngine>();
    job_op = kvmsr::Library::job_operand(ctx);
    const kvmsr::JobId job = kvmsr::Library::job_of(job_op);
    auto& q = eng.query_of_job(job);
    const Word w = kvmsr::Library::reduce_key(ctx);
    const Word pair[2] = {kvmsr::Library::reduce_val(ctx, 0),
                          kvmsr::Library::reduce_val(ctx, 1)};
    if (!q.heard.empty()) {
      // Improving or not, record the sender u = pair[1] at the level it sent
      // from, pair[0] - 1: levels only fall, so dist[u] stays at most that.
      ctx.charge(2);  // slot hash and heard-table store
      q.heard_slot(ctx.nwid(), pair[1]) = {static_cast<std::uint32_t>(pair[1]),
                                           static_cast<std::uint32_t>(pair[0] - 1)};
    }
    ctx.charge(2);  // improve-test against the lane-owned mirror entry
    ctx.sync_acquire(dist_slot(w));
    if (pair[0] >= (*q.dist)[w]) {
      eng.lib_->reduce_return(ctx, job_op);
      return;
    }
    (*q.dist)[w] = pair[0];
    if (!q.queued[w] && !q.cancel) {
      q.queued[w] = 1;
      ++pending;
      ctx.charge(1);  // queued-flag store
      ctx.send_event(ctx.evw_new(ctx.nwid(), eng.lb_.bfs_expand), {w, job},
                     ctx.evw_update_event(ctx.cevnt(), eng.lb_.bfs_settled));
    }
    ctx.send_dram_writev(q.bfs_base + w * 16, pair, 2,
                         ctx.evw_update_event(ctx.cevnt(), eng.lb_.bfs_settled));
    ctx.sync_release(dist_slot(w));
  }

  void bfs_settled(Ctx& ctx) {
    if (--pending == 0) ctx.machine().service<QueryEngine>().lib_->reduce_return(ctx, job_op);
  }
};

void QueryEngine::register_bfs(Program& p) {
  lb_.bfs_seed = p.event("serve::bfs_seed", &SqBfsExpand::bfs_seed);
  lb_.bfs_expand = p.event("serve::bfs_expand", &SqBfsExpand::bfs_expand);
  lb_.bfs_chunk = p.event("serve::bfs_chunk", &SqBfsExpand::bfs_chunk);
  lb_.bfs_rec = p.event("serve::bfs_rec", &SqBfsExpand::bfs_rec);
  lb_.bfs_nbrs = p.event("serve::bfs_nbrs", &SqBfsExpand::bfs_nbrs);
  lb_.bfs_reduce = p.event("serve::bfs_reduce", &SqBfsReduce::kv_reduce);
  lb_.bfs_settled = p.event("serve::bfs_settled", &SqBfsReduce::bfs_settled);
}

void QueryEngine::add_bfs(Query& q, bool from_root) {
  const std::uint64_t nv = q.spec.graph->num_vertices;
  ResidentState* rs = q.spec.resident;
  if (q.spec.kind == QueryKind::kBfs) {
    // The query's own {level, parent} array: on `values`' nodes when set
    // (the fig12 placement knob), else beside the graph's vertex records.
    q.bfs_base = q.spec.values.nr_nodes ? place(q.spec, nv * 16)
                                        : alloc_vertex_pairs(m_, *q.spec.graph);
    q.own_dist.resize(nv);
    q.dist = &q.own_dist;
  } else {
    if (!rs || !rs->fwd) throw std::invalid_argument("serve: kIncBfs requires a ResidentState");
    if (rs->dist.size() != nv)
      throw std::invalid_argument("serve: ResidentState dist mirror does not match the graph");
    q.bfs_base = rs->bfs_base;
    q.dist = &rs->dist;
  }
  q.queued.assign(nv, 0);
  // The sender filter charges 2 cycles for every neighbor an expand streams.
  // With more than 32 edges a lane, a lane hears from more senders than its
  // 32 slots hold and filters too few tuples to repay that. Vertex ids and
  // levels must fit the table's 32-bit fields.
  if (q.spec.graph->num_edges <= std::uint64_t{Query::kHeardSlots} * q.rlanes.count &&
      nv < ~std::uint32_t{0})
    q.heard.assign(std::size_t{q.rlanes.count} * Query::kHeardSlots, {});

  // Seeds are the job's map keys, each at most once; a seed's expand is
  // pending from the start.
  const auto seed = [&](VertexId s) {
    if (q.queued[s]) return;
    q.queued[s] = 1;
    q.alist.push_back(s);
  };
  std::vector<Word>& dist = *q.dist;
  if (from_root) {
    const VertexId root = q.spec.root;
    std::fill(dist.begin(), dist.end(), kInfDist);
    dist[root] = 0;
    std::vector<Word> pairs(2 * nv);
    for (VertexId w = 0; w < nv; ++w) {
      pairs[2 * w] = kInfDist;
      pairs[2 * w + 1] = kNoParent;
    }
    pairs[2 * root] = 0;
    pairs[2 * root + 1] = root;
    m_.memory().host_write(q.bfs_base, pairs.data(), pairs.size() * 8);
    seed(root);
  } else {
    // Repair: only delta-touched sources that are themselves reachable can
    // lower a neighbor's level.
    for (const VertexId s : rs->bfs_dirty)
      if (s < nv && dist[s] != kInfDist) seed(s);
    rs->bfs_dirty.clear();
  }
}

}  // namespace updown::serve
