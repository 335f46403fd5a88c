#include "apps/gnn.hpp"

#include <bit>
#include <stdexcept>

namespace updown::gnn {

struct GnnMap : kvmsr::MapTask {
  kvmsr::JobId job = 0;
  Word v = 0;
  Word degree = 0, nbr_ptr = 0;
  Word loaded = 0;
  double feat[kDims] = {};

  void kv_map(Ctx& ctx) {
    kvmsr_begin(ctx);
    auto& app = ctx.machine().user<App>();
    job = kvmsr::Library::map_job(ctx);
    v = kvmsr::Library::map_key(ctx);
    ctx.send_dram_read(app.dg_.vertex_addr(v), 8, app.lb_.m_rec);
  }

  void m_rec(Ctx& ctx) {
    auto& app = ctx.machine().user<App>();
    degree = ctx.op(DeviceGraph::kDegree);
    nbr_ptr = ctx.op(DeviceGraph::kNbrPtr);
    ctx.charge(2);
    if (degree == 0) {
      app.lib_->map_return(ctx, kvmsr_cont);
      return;
    }
    ctx.send_dram_read(app.feat_base_ + v * kDims * 8, kDims, app.lb_.m_feat);
  }

  void m_feat(Ctx& ctx) {
    auto& app = ctx.machine().user<App>();
    for (unsigned d = 0; d < kDims; ++d) feat[d] = std::bit_cast<double>(ctx.op(d));
    ctx.charge(kDims);
    for (Word i = 0; i < degree; i += 8) {
      const unsigned n = static_cast<unsigned>(std::min<Word>(8, degree - i));
      ctx.charge(2);
      ctx.send_dram_read(nbr_ptr + i * 8, n, app.lb_.m_nbrs);
    }
  }

  void m_nbrs(Ctx& ctx) {
    auto& app = ctx.machine().user<App>();
    for (unsigned i = 0; i < ctx.nops(); ++i) {
      for (unsigned d = 0; d < kDims; ++d) {
        ctx.charge(1);
        app.lib_->emit(ctx, job, dim_key(ctx.op(i), d), std::bit_cast<Word>(feat[d]));
      }
    }
    loaded += ctx.nops();
    if (loaded == degree) app.lib_->map_return(ctx, kvmsr_cont);
  }
};

struct GnnReduce : ThreadState {
  void kv_reduce(Ctx& ctx) {
    auto& app = ctx.machine().user<App>();
    app.cc_->add_f64(ctx, app.out_base_ + kvmsr::Library::reduce_key(ctx) * 8,
                     std::bit_cast<double>(kvmsr::Library::reduce_val(ctx)));
    app.lib_->reduce_return(ctx, kvmsr::Library::reduce_job(ctx));
  }
};

App& App::install(Machine& m, const DeviceGraph& dg, const std::vector<double>& features) {
  return m.emplace_user<App>(m, dg, features);
}

App::App(Machine& m, const DeviceGraph& dg, const std::vector<double>& features)
    : m_(m), dg_(dg) {
  if (features.size() != dg.num_vertices * kDims)
    throw std::invalid_argument("gnn: features must be num_vertices * kDims");
  lib_ = &kvmsr::Library::install(m);
  cc_ = &kvmsr::CombiningCache::install(m);
  Program& p = m.program();
  lb_.m_rec = p.event("gnn::m_rec", &GnnMap::m_rec);
  lb_.m_feat = p.event("gnn::m_feat", &GnnMap::m_feat);
  lb_.m_nbrs = p.event("gnn::m_nbrs", &GnnMap::m_nbrs);

  const std::uint64_t bytes = dg.num_vertices * kDims * 8;
  feat_base_ = m.memory().dram_malloc_spread(bytes);
  out_base_ = m.memory().dram_malloc_spread(bytes);
  m.memory().host_write(feat_base_, features.data(), bytes);
  m.memory().host_fill(out_base_, 0, bytes);

  kvmsr::JobSpec spec;
  spec.kv_map = p.event("gnn::kv_map", &GnnMap::kv_map);
  spec.kv_reduce = p.event("gnn::kv_reduce", &GnnReduce::kv_reduce);
  spec.flush = cc_->flush_label();
  spec.name = "gnn.genFeatures";
  job_ = lib_->add_job(spec);
}

Result App::run() {
  const kvmsr::JobState& st = lib_->run_to_completion(job_, 0, dg_.num_vertices);
  Result r;
  r.start_tick = st.start_tick;
  r.done_tick = st.done_tick;
  r.aggregated.resize(dg_.num_vertices * kDims);
  m_.memory().host_read(out_base_, r.aggregated.data(), r.aggregated.size() * 8);
  return r;
}

}  // namespace updown::gnn
