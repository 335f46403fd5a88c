// Push-based PageRank (paper Section 4.1, Listing 3), the kPageRank query
// kernel.
//
// One propagate map task per (sub-)vertex reads its vertex record, the
// owner's current rank, and its neighbor list in chunks of eight, then emits
// a <target, contribution> tuple per edge — vertex parallelism on the map
// side, edge parallelism on the reduce side. The reduce accumulates
// contributions into the query's accumulator array through the job-tagged
// combining cache (the paper's software fetch&add). An apply phase (a
// second, map-only KVMSR job over the original vertices) folds the
// accumulators into ranks with the damping formula and zeroes them for the
// next sweep. The query's driver chains propagate -> apply per sweep.
//
// On a graph vertex-split to a maximum degree (upload_split_graph; the
// paper's PR setting is 512) the result is still that of the original graph:
// sub-vertex s pushes rank[owner(s)] / total_degree(owner(s)) along its
// slice of the owner's edges, each edge's target is one of the target's
// accumulator slots, and the apply sums original vertex v's slot range
// [slot[v], slot[v+1]) from the graph's slot table. On an unsplit graph the
// record's owner fields are the vertex itself and the apply reads v's one
// accumulator directly.
#include <algorithm>
#include <bit>

#include "common/bits.hpp"
#include "serve/query_engine.hpp"

namespace updown::serve {

struct SqPrMap : kvmsr::MapTask {
  kvmsr::JobId job = 0;
  Word degree = 0;
  Word nbr_ptr = 0;
  Word owner_degree = 0;
  double contrib = 0.0;
  Word loaded = 0;  // the paper's loadedNeighbors completion counter

  void kv_map(Ctx& ctx) {
    kvmsr_begin(ctx);
    auto& eng = ctx.machine().service<QueryEngine>();
    job = kvmsr::Library::map_job(ctx);
    const Word v = kvmsr::Library::map_key(ctx);
    // One read returns the whole 8-word vertex record.
    ctx.send_dram_read(eng.query_of_job(job).spec.graph->vertex_addr(v), 8,
                       eng.lb_.pr_rec);
  }

  void pr_rec(Ctx& ctx) {
    auto& eng = ctx.machine().service<QueryEngine>();
    const Word owner = ctx.op(DeviceGraph::kId);
    degree = ctx.op(DeviceGraph::kDegree);
    nbr_ptr = ctx.op(DeviceGraph::kNbrPtr);
    owner_degree = ctx.op(DeviceGraph::kOwnerDegree);
    ctx.charge(3);
    if (degree == 0) {
      eng.lib_->map_return(ctx, kvmsr_cont);
      return;
    }
    ctx.send_dram_read(eng.query_of_job(job).rank_base + owner * 8, 1, eng.lb_.pr_rank);
  }

  void pr_rank(Ctx& ctx) {
    contrib = std::bit_cast<double>(ctx.op(0)) / static_cast<double>(owner_degree);
    ctx.charge(2);
    auto& eng = ctx.machine().service<QueryEngine>();
    // Issue all neighbor-chunk reads up front: memory parallelism
    // proportional to the edges (Section 4.1.2).
    for (Word i = 0; i < degree; i += 8) {
      const unsigned n = static_cast<unsigned>(std::min<Word>(8, degree - i));
      ctx.charge(2);  // loop control + address arithmetic
      ctx.send_dram_read(nbr_ptr + i * 8, n, eng.lb_.pr_nbrs);
    }
  }

  void pr_nbrs(Ctx& ctx) {
    auto& eng = ctx.machine().service<QueryEngine>();
    for (unsigned i = 0; i < ctx.nops(); ++i) {
      ctx.charge(1);
      eng.lib_->emit(ctx, job, ctx.op(i), std::bit_cast<Word>(contrib));
    }
    loaded += ctx.nops();
    if (loaded == degree) eng.lib_->map_return(ctx, kvmsr_cont);
  }
};

struct SqPrReduce : ThreadState {
  void kv_reduce(Ctx& ctx) {
    auto& eng = ctx.machine().service<QueryEngine>();
    const kvmsr::JobId job = kvmsr::Library::reduce_job(ctx);
    auto& q = eng.query_of_job(job);
    const Word slot = kvmsr::Library::reduce_key(ctx);
    const double c = std::bit_cast<double>(kvmsr::Library::reduce_val(ctx));
    eng.cc_->add_f64(ctx, q.acc_base + slot * 8, c, job);
    eng.lib_->reduce_return(ctx, job);
  }
};

/// Apply sweep, one task per original vertex v: rank'[v] = (1-d)/n + d*sum,
/// where sum is v's accumulator (unsplit) or the sum of its slot range
/// (split), and the accumulators are zeroed. Acked writes, so the next
/// propagate cannot read a stale rank or accumulator.
struct SqPrApply : kvmsr::MapTask {
  kvmsr::JobId job = 0;
  Word v = 0;
  Word first_slot = 0, end_slot = 0;
  double sum = 0.0;
  Word chunks_loaded = 0, chunks_expected = 0;
  unsigned acks = 0, acks_expected = 2;

  void kv_map(Ctx& ctx) {
    kvmsr_begin(ctx);
    auto& eng = ctx.machine().service<QueryEngine>();
    job = kvmsr::Library::map_job(ctx);
    v = kvmsr::Library::map_key(ctx);
    auto& q = eng.query_of_job(job);
    const DeviceGraph& g = *q.spec.graph;
    if (g.split())
      ctx.send_dram_read(g.slot_base + v * 8, 2, eng.lb_.pr_slots);
    else
      ctx.send_dram_read(q.acc_base + v * 8, 1, eng.lb_.pr_acc);
  }

  void pr_acc(Ctx& ctx) {
    auto& eng = ctx.machine().service<QueryEngine>();
    auto& q = eng.query_of_job(job);
    ctx.charge(4);
    ctx.send_dram_write(q.rank_base + v * 8, {rank_bits(q, std::bit_cast<double>(ctx.op(0)))},
                        eng.lb_.pr_written);
    ctx.send_dram_write(q.acc_base + v * 8, {0}, eng.lb_.pr_written);
  }

  void pr_slots(Ctx& ctx) {
    auto& eng = ctx.machine().service<QueryEngine>();
    auto& q = eng.query_of_job(job);
    first_slot = ctx.op(0);
    end_slot = ctx.op(1);
    chunks_expected = ceil_div(end_slot - first_slot, 8);
    ctx.charge(2);
    for (Word s = first_slot; s < end_slot; s += 8) {
      const unsigned n = static_cast<unsigned>(std::min<Word>(8, end_slot - s));
      ctx.charge(2);
      ctx.send_dram_read(q.acc_base + s * 8, n, eng.lb_.pr_slot_acc);
    }
  }

  void pr_slot_acc(Ctx& ctx) {
    for (unsigned i = 0; i < ctx.nops(); ++i) {
      ctx.charge(1);
      sum += std::bit_cast<double>(ctx.op(i));
    }
    if (++chunks_loaded < chunks_expected) return;

    auto& eng = ctx.machine().service<QueryEngine>();
    auto& q = eng.query_of_job(job);
    ctx.charge(4);
    acks_expected = 1 + static_cast<unsigned>(chunks_expected);
    ctx.send_dram_write(q.rank_base + v * 8, {rank_bits(q, sum)}, eng.lb_.pr_written);
    const Word zeros[8] = {};
    for (Word s = first_slot; s < end_slot; s += 8) {
      const unsigned k = static_cast<unsigned>(std::min<Word>(8, end_slot - s));
      ctx.send_dram_writev(q.acc_base + s * 8, zeros, k,
                           ctx.evw_update_event(ctx.cevnt(), eng.lb_.pr_written));
    }
  }

  void pr_written(Ctx& ctx) {
    if (++acks == acks_expected)
      ctx.machine().service<QueryEngine>().lib_->map_return(ctx, kvmsr_cont);
  }

 private:
  static Word rank_bits(const QueryEngine::Query& q, double acc) {
    const double n = static_cast<double>(q.spec.graph->num_original);
    return std::bit_cast<Word>((1.0 - q.spec.damping) / n + q.spec.damping * acc);
  }
};

void QueryEngine::register_pagerank(Program& p) {
  lb_.pr_map = p.event("serve::pr_map", &SqPrMap::kv_map);
  lb_.pr_reduce = p.event("serve::pr_reduce", &SqPrReduce::kv_reduce);
  lb_.pr_apply = p.event("serve::pr_apply", &SqPrApply::kv_map);
  lb_.pr_rec = p.event("serve::pr_rec", &SqPrMap::pr_rec);
  lb_.pr_rank = p.event("serve::pr_rank", &SqPrMap::pr_rank);
  lb_.pr_nbrs = p.event("serve::pr_nbrs", &SqPrMap::pr_nbrs);
  lb_.pr_acc = p.event("serve::pr_acc", &SqPrApply::pr_acc);
  lb_.pr_slots = p.event("serve::pr_slots", &SqPrApply::pr_slots);
  lb_.pr_slot_acc = p.event("serve::pr_slot_acc", &SqPrApply::pr_slot_acc);
  lb_.pr_written = p.event("serve::pr_written", &SqPrApply::pr_written);
}

}  // namespace updown::serve
