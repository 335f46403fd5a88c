// Push breadth-first search (paper Section 4.2), the kBfs and kIncBfs query
// kernel and the repo's one BFS: bfs::App adds one kBfs query.
//
// The frontier lives in DRAM as per-lane slices, each lane's slice on the
// lane's own node by default (the paper's DRAMmalloc(size, 0, NRnodes,
// size/NRnodes) idiom), and each round is one kBlock KVMSR job with one key
// per lane of the query's LaneSet, so the control tree's leaf relays send
// the map tasks themselves. A map task is its lane's frontier scan: it reads
// and resets the lane's slice count, streams the slice, and spawns one
// expand per entry on its own lane. An expand reads u's level from the
// lane-owned level mirror (the scan's lane is u's hash-owner lane), then
// u's record and neighbor list, and emits <w, level + 1, u>; a hub (degree
// above kSplitDegree) fans its list out in chunks over the query's lanes.
// The reduce runs on w's hash-owner lane: it improve-tests the mirror,
// writes {level, parent} with one acked 2-word write, and appends w to its
// own lane's next slice unless w's `queued` flag says w already waits in a
// slice. The scan clears the flag as it reads the entry, so an expand
// always reads the newest level, and a repair frontier, which mixes levels,
// stays a set without a per-round snapshot.
//
// Levels only fall, so the final levels do not depend on message order,
// shard count or concurrent jobs. kBfs seeds the root on the query's own
// arrays; kIncBfs repairs the session's resident arrays from delta-touched
// sources (Seeds::kPending) or recomputes them from the root (Seeds::kAll).
// The driver (SqDriver) chains rounds until one appends nothing.
#include <algorithm>
#include <stdexcept>
#include <utility>

#include "serve/query_engine.hpp"

namespace updown::serve {

/// Kv_map task of a round, one per lane: scan this lane's slice.
struct SqBfsScan : kvmsr::MapTask {
  kvmsr::JobId job = 0;
  std::uint32_t count = 0;
  std::uint32_t spawned = 0;
  std::uint32_t expanded = 0;

  void kv_map(Ctx& ctx) {
    kvmsr_begin(ctx);
    auto& eng = ctx.machine().service<QueryEngine>();
    job = kvmsr::Library::map_job(ctx);
    auto& q = eng.query_of_job(job);
    ctx.charge(1);  // scratchpad slice-count load and reset
    count = std::exchange(q.slice_count[q.cur_buf][ctx.nwid() - q.rlanes.first], 0);
    if (count == 0) {
      eng.lib_->map_return(ctx, kvmsr_cont);
      return;
    }
    const Addr slice = q.slice_addr(q.cur_buf, ctx.nwid());
    for (std::uint32_t i = 0; i < count; i += 8) {
      const unsigned n = std::min<std::uint32_t>(8, count - i);
      ctx.charge(2);
      ctx.send_dram_read(slice + i * 8, n, eng.lb_.bfs_slice);
    }
  }

  void bfs_slice(Ctx& ctx) {
    auto& eng = ctx.machine().service<QueryEngine>();
    auto& q = eng.query_of_job(job);
    for (unsigned i = 0; i < ctx.nops(); ++i) {
      ctx.charge(1);
      q.queued[ctx.op(i)] = 0;  // from here on, an improvement re-queues it
      ctx.send_event(ctx.evw_new(ctx.nwid(), eng.lb_.bfs_expand), {ctx.op(i), job},
                     ctx.evw_update_event(ctx.cevnt(), eng.lb_.bfs_expanded));
      ++spawned;
    }
    maybe_finish(ctx);
  }

  void bfs_expanded(Ctx& ctx) {
    ++expanded;
    maybe_finish(ctx);
  }

 private:
  void maybe_finish(Ctx& ctx) {
    if (spawned == count && expanded == count)
      ctx.machine().service<QueryEngine>().lib_->map_return(ctx, kvmsr_cont);
  }
};

/// Expand one frontier vertex u (bfs_expand, ops {u, job}), or one chunk of
/// a hub's neighbor list (bfs_chunk, ops {base, len, u, job, level}): stream
/// the neighbors and emit <w, level, u> for each.
struct SqBfsExpand : ThreadState {
  /// Above this degree an expand fans chunk subtasks out to other lanes: the
  /// equivalent of the artifact's max-degree-4096 split for BFS, realized as
  /// dynamic parallelism instead of a preprocessing transform. Without it a
  /// hub's emit loop serializes one lane for tens of thousands of cycles.
  static constexpr Word kSplitDegree = 256;

  Word u = 0;
  kvmsr::JobId job = 0;
  Word level = 0;  ///< the level emitted to u's neighbors
  Word len = 0, loaded = 0, chunks = 0;
  Word done_cont = IGNRCONT;

  void bfs_expand(Ctx& ctx) {
    auto& eng = ctx.machine().service<QueryEngine>();
    u = ctx.op(0);
    job = static_cast<kvmsr::JobId>(ctx.op(1));
    done_cont = ctx.ccont();
    auto& q = eng.query_of_job(job);
    ctx.charge(1);  // level-mirror load
    level = (*q.dist)[u] + 1;
    ctx.send_dram_read(q.spec.graph->vertex_addr(u), 8, eng.lb_.bfs_rec);
  }

  void bfs_chunk(Ctx& ctx) {
    u = ctx.op(2);
    job = static_cast<kvmsr::JobId>(ctx.op(3));
    level = ctx.op(4);
    done_cont = ctx.ccont();
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
    // Fan the list out in kSplitDegree chunks, striped over the query's
    // lanes; each chunk task streams and emits from its own lane.
    const kvmsr::LaneSet ls = eng.query_of_job(job).rlanes;
    Word i = 0;
    for (Word off = 0; off < degree; off += kSplitDegree, ++i) {
      const NetworkId lane =
          ls.first + static_cast<NetworkId>((ctx.nwid() - ls.first + 1 + i * 97) % ls.count);
      ctx.charge(2);
      ctx.send_event(ctx.evw_new(lane, eng.lb_.bfs_chunk),
                     {nbr_ptr + off * 8, std::min<Word>(kSplitDegree, degree - off), u, job, level},
                     ctx.evw_update_event(ctx.cevnt(), eng.lb_.bfs_chunk_done));
      ++chunks;
    }
  }

  void bfs_nbrs(Ctx& ctx) {
    auto& eng = ctx.machine().service<QueryEngine>();
    for (unsigned i = 0; i < ctx.nops(); ++i) {
      ctx.charge(1);
      eng.lib_->emit2(ctx, job, ctx.op(i), level, u);
    }
    loaded += ctx.nops();
    if (loaded == len) finish(ctx);
  }

  void bfs_chunk_done(Ctx& ctx) {
    if (--chunks == 0) finish(ctx);
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
    ctx.send_event(done_cont, {});
    ctx.yield_terminate();
  }
};

// udcheck sync cell for the lane-owned level-mirror entry of vertex w. A
// repair frontier mixes levels, so one round can improve dist[w] twice; the
// improve-test on the mirror orders the two acked DRAM writes, and this cell
// shows the checker that edge. Bit 30 keeps these cells apart from KVMSR's
// counter cells (2*job and 2*job + 1), which stay below bit 30 for job ids
// under 2^29.
constexpr std::uint64_t dist_slot(Word w) { return (1ull << 30) | (w & ((1ull << 30) - 1)); }

/// Kv_reduce on w's hash-owner lane: improve-test, {level, parent} write,
/// next-slice append. Writes are acked so the next round cannot observe a
/// partially written slice, and a later query no unordered write.
struct SqBfsReduce : ThreadState {
  kvmsr::JobId job = 0;
  unsigned acks = 0, writes = 1;

  void kv_reduce(Ctx& ctx) {
    auto& eng = ctx.machine().service<QueryEngine>();
    job = kvmsr::Library::reduce_job(ctx);
    auto& q = eng.query_of_job(job);
    const Word w = kvmsr::Library::reduce_key(ctx);
    const Word pair[2] = {kvmsr::Library::reduce_val(ctx, 0),
                          kvmsr::Library::reduce_val(ctx, 1)};
    ctx.charge(2);  // improve-test against the lane-owned mirror entry
    ctx.sync_acquire(dist_slot(w));
    if (pair[0] >= (*q.dist)[w]) {
      eng.lib_->reduce_return(ctx, job);
      return;
    }
    (*q.dist)[w] = pair[0];
    if (!q.queued[w]) {
      q.queued[w] = 1;
      q.added.fetch_add(1, std::memory_order_relaxed);
      const unsigned nxt = q.cur_buf ^ 1;
      std::uint32_t& fill = q.slice_count[nxt][ctx.nwid() - q.rlanes.first];
      ctx.charge(2);  // slice fill-count update
      ctx.send_dram_write(q.slice_addr(nxt, ctx.nwid()) + fill++ * 8, {w},
                          eng.lb_.bfs_written);
      ++writes;
    }
    ctx.send_dram_writev(q.bfs_base + w * 16, pair, 2,
                         ctx.evw_update_event(ctx.cevnt(), eng.lb_.bfs_written));
    ctx.sync_release(dist_slot(w));
  }

  void bfs_written(Ctx& ctx) {
    if (++acks == writes) ctx.machine().service<QueryEngine>().lib_->reduce_return(ctx, job);
  }
};

void QueryEngine::register_bfs(Program& p) {
  lb_.bfs_scan = p.event("serve::bfs_scan", &SqBfsScan::kv_map);
  lb_.bfs_slice = p.event("serve::bfs_slice", &SqBfsScan::bfs_slice);
  lb_.bfs_expanded = p.event("serve::bfs_expanded", &SqBfsScan::bfs_expanded);
  lb_.bfs_expand = p.event("serve::bfs_expand", &SqBfsExpand::bfs_expand);
  lb_.bfs_chunk = p.event("serve::bfs_chunk", &SqBfsExpand::bfs_chunk);
  lb_.bfs_rec = p.event("serve::bfs_rec", &SqBfsExpand::bfs_rec);
  lb_.bfs_nbrs = p.event("serve::bfs_nbrs", &SqBfsExpand::bfs_nbrs);
  lb_.bfs_chunk_done = p.event("serve::bfs_chunk_done", &SqBfsExpand::bfs_chunk_done);
  lb_.bfs_reduce = p.event("serve::bfs_reduce", &SqBfsReduce::kv_reduce);
  lb_.bfs_written = p.event("serve::bfs_written", &SqBfsReduce::bfs_written);
}

void QueryEngine::add_bfs(Query& q, bool from_root) {
  const std::uint64_t nv = q.spec.graph->num_vertices;
  GlobalMemory& mem = m_.memory();
  ResidentState* rs = q.spec.resident;
  if (q.spec.kind == QueryKind::kBfs) {
    q.bfs_base = alloc_vertex_pairs(m_, *q.spec.graph);
    q.own_dist.resize(nv);
    q.dist = &q.own_dist;
  } else {
    if (!rs || !rs->fwd) throw std::invalid_argument("serve: kIncBfs requires a ResidentState");
    if (rs->dist.size() != nv)
      throw std::invalid_argument("serve: ResidentState dist mirror does not match the graph");
    q.bfs_base = rs->bfs_base;
    q.dist = &rs->dist;
  }

  // Slices: a lane's slice holds each vertex the lane owns at most once, so
  // the most vertices any lane owns under the Hash binding is the capacity.
  const kvmsr::LaneSet ls = q.rlanes;
  std::vector<std::uint64_t> owned(ls.count, 0);
  for (VertexId v = 0; v < nv; ++v) ++owned[hash64(v) % ls.count];
  q.slice_cap = std::max<std::uint64_t>(1, *std::max_element(owned.begin(), owned.end()));
  // One block per node the lanes touch, over a power-of-two node range.
  const MachineConfig& cfg = m_.config();
  q.lpn = cfg.lanes_per_node();
  const std::uint32_t n0 = ls.first / q.lpn;
  const std::uint32_t span =
      static_cast<std::uint32_t>(next_pow2((ls.first + ls.count - 1) / q.lpn + 1 - n0));
  q.node0 = std::min(n0, cfg.nodes - span);
  q.node_bytes = next_pow2(std::uint64_t{q.lpn} * q.slice_cap * 8);
  const std::uint64_t bytes = span * q.node_bytes;
  const GraphPlacement& v = q.spec.values;
  for (Addr& base : q.frontier)
    base = v.nr_nodes ? mem.dram_malloc(bytes, v.first_node, v.nr_nodes,
                                        std::max(q.node_bytes, bytes / v.nr_nodes))
                      : mem.dram_malloc(bytes, q.node0, span, q.node_bytes);
  for (auto& c : q.slice_count) c.assign(ls.count, 0);
  q.queued.assign(nv, 0);

  // Seeds go into buffer 0 on their hash-owner lanes.
  const auto seed = [&](VertexId s) {
    if (q.queued[s]) return;
    q.queued[s] = 1;
    const NetworkId lane = ls.first + static_cast<NetworkId>(hash64(s) % ls.count);
    mem.host_store<Word>(q.slice_addr(0, lane) + q.slice_count[0][lane - ls.first]++ * 8, s);
    ++q.seeded;
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
    mem.host_write(q.bfs_base, pairs.data(), pairs.size() * 8);
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
