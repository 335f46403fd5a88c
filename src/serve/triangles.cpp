// Triangle count (paper Section 4.3), the kTriangles query kernel.
//
// kv_map tasks run over all vertices; each enumerates the connected vertex
// pairs <x, y> with x > y and emits one tuple per pair — vertex parallelism
// on the map side, edge parallelism on the reduce side. kv_reduce tasks
// stream BOTH neighbor lists from DRAM, every chunk read issued at once, and
// merge-intersect the prefixes z < y, so every triangle x > y > z is counted
// exactly once. This is the paper's second TC version: it "streams both
// neighbor lists in the reduce function, consuming more memory bandwidth but
// improving load balance", where a request-response chunk chain would
// serialize tens of round trips on the critical path.
//
// Counts accumulate through the job-tagged combining cache into per-lane
// count cells of the query's partition (lane-owned, so flushes never race);
// collect() sums the cells. The graph must be symmetric (undirected) with
// sorted adjacency lists.
#include <algorithm>
#include <vector>

#include "serve/query_engine.hpp"

namespace updown::serve {

/// Pack/unpack the pair key (vertex ids fit in 32 bits at simulated scales).
constexpr Word pair_key(Word x, Word y) { return (x << 32) | y; }
constexpr Word pair_x(Word key) { return key >> 32; }
constexpr Word pair_y(Word key) { return key & 0xFFFFFFFFull; }

struct SqTcMap : kvmsr::MapTask {
  kvmsr::JobId job = 0;
  Word x = 0;
  Word degree = 0;
  Word loaded = 0;

  void kv_map(Ctx& ctx) {
    kvmsr_begin(ctx);
    auto& eng = ctx.machine().service<QueryEngine>();
    job = kvmsr::Library::map_job(ctx);
    x = kvmsr::Library::map_key(ctx);
    ctx.send_dram_read(eng.query_of_job(job).spec.graph->vertex_addr(x), 8,
                       eng.lb_.tc_rec);
  }

  void tc_rec(Ctx& ctx) {
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
      ctx.send_dram_read(nbr_ptr + i * 8, n, eng.lb_.tc_nbrs);
    }
  }

  void tc_nbrs(Ctx& ctx) {
    auto& eng = ctx.machine().service<QueryEngine>();
    for (unsigned i = 0; i < ctx.nops(); ++i) {
      const Word y = ctx.op(i);
      ctx.charge(1);
      if (y < x) eng.lib_->emit(ctx, job, pair_key(x, y), 0);
    }
    loaded += ctx.nops();
    if (loaded == degree) eng.lib_->map_return(ctx, kvmsr_cont);
  }
};

struct SqTcReduce : ThreadState {
  kvmsr::JobId job = 0;
  Word x = 0, y = 0;
  Word deg[2] = {0, 0};
  Word ptr[2] = {0, 0};
  unsigned recs = 0;
  std::vector<Word> list[2];
  Word arrived = 0, expected = 0;
  Word found = 0;

  void kv_reduce(Ctx& ctx) {
    auto& eng = ctx.machine().service<QueryEngine>();
    job = kvmsr::Library::reduce_job(ctx);
    const Word key = kvmsr::Library::reduce_key(ctx);
    x = pair_x(key);
    y = pair_y(key);
    ctx.charge(2);
    const DeviceGraph* dg = eng.query_of_job(job).spec.graph;
    ctx.send_dram_read(dg->vertex_addr(x), 8, eng.lb_.tc_rrec);
    ctx.send_dram_read(dg->vertex_addr(y), 8, eng.lb_.tc_rrec);
  }

  void tc_rrec(Ctx& ctx) {
    auto& eng = ctx.machine().service<QueryEngine>();
    const DeviceGraph* dg = eng.query_of_job(job).spec.graph;
    const unsigned side = ctx.ccont() == dg->vertex_addr(x) ? 0 : 1;
    deg[side] = ctx.op(DeviceGraph::kDegree);
    ptr[side] = ctx.op(DeviceGraph::kNbrPtr);
    ctx.charge(2);
    if (++recs < 2) return;
    if (deg[0] == 0 || deg[1] == 0) {
      finish(ctx);
      return;
    }
    for (unsigned s = 0; s < 2; ++s) {
      list[s].assign(deg[s], 0);
      for (Word i = 0; i < deg[s]; i += 8) {
        const unsigned n = static_cast<unsigned>(std::min<Word>(8, deg[s] - i));
        ctx.charge(2);
        ctx.send_dram_read(ptr[s] + i * 8, n,
                           s == 0 ? eng.lb_.tc_xchunk : eng.lb_.tc_ychunk);
        ++expected;
      }
    }
  }

  void tc_xchunk(Ctx& ctx) { chunk_arrived(ctx, 0); }
  void tc_ychunk(Ctx& ctx) { chunk_arrived(ctx, 1); }

 private:
  void chunk_arrived(Ctx& ctx, unsigned side) {
    const Word base = (ctx.ccont() - ptr[side]) / 8;
    for (unsigned i = 0; i < ctx.nops(); ++i) {
      ctx.charge(1);
      list[side][base + i] = ctx.op(i);
    }
    if (++arrived == expected) merge(ctx);
  }

  void merge(Ctx& ctx) {
    std::size_t i = 0, j = 0;
    while (i < list[0].size() && j < list[1].size()) {
      const Word a = list[0][i], b = list[1][j];
      ctx.charge(1);
      if (a >= y || b >= y) break;  // only the z < y prefix counts
      if (a < b) {
        ++i;
      } else if (b < a) {
        ++j;
      } else {
        ++found;
        ++i;
        ++j;
      }
    }
    finish(ctx);
  }

  void finish(Ctx& ctx) {
    auto& eng = ctx.machine().service<QueryEngine>();
    auto& q = eng.query_of_job(job);
    if (found > 0) {
      const Addr cell =
          q.cells_base + static_cast<Addr>(ctx.nwid() - q.rlanes.first) * 8;
      eng.cc_->add_u64(ctx, cell, found, job);
    }
    eng.lib_->reduce_return(ctx, job);
  }
};

void QueryEngine::register_triangles(Program& p) {
  lb_.tc_map = p.event("serve::tc_map", &SqTcMap::kv_map);
  lb_.tc_reduce = p.event("serve::tc_reduce", &SqTcReduce::kv_reduce);
  lb_.tc_rec = p.event("serve::tc_rec", &SqTcMap::tc_rec);
  lb_.tc_nbrs = p.event("serve::tc_nbrs", &SqTcMap::tc_nbrs);
  lb_.tc_rrec = p.event("serve::tc_rrec", &SqTcReduce::tc_rrec);
  lb_.tc_xchunk = p.event("serve::tc_xchunk", &SqTcReduce::tc_xchunk);
  lb_.tc_ychunk = p.event("serve::tc_ychunk", &SqTcReduce::tc_ychunk);
}

}  // namespace updown::serve
