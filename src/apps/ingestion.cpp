#include "apps/ingestion.hpp"

#include <algorithm>

#include "tform/block_parse.hpp"

namespace updown::ingest {

// The shared block-parse map task, over the App's one byte stream.
struct IngestSource {
  static tform::BlockJob block_job(Ctx& ctx, kvmsr::JobId) {
    const auto& app = ctx.machine().user<App>();
    return {app.data_base_, app.data_bytes_, app.opt_.block_bytes, app.lb_.m_chunk};
  }
};
using IngestMap = tform::BlockParseMap<IngestSource>;

// Reduce: insert the record into the parallel graph; retire when durable.
struct IngestReduce : ThreadState {
  kvmsr::JobId job = 0;

  void kv_reduce(Ctx& ctx) {
    auto& app = ctx.machine().user<App>();
    job = kvmsr::Library::reduce_job(ctx);
    app.pg_->insert_edge(ctx, kvmsr::Library::reduce_key(ctx),
                         kvmsr::Library::reduce_val(ctx, 0), kvmsr::Library::reduce_val(ctx, 1),
                         ctx.evw_update_event(ctx.cevnt(), app.lb_.r_inserted));
  }

  void r_inserted(Ctx& ctx) { ctx.machine().user<App>().lib_->reduce_return(ctx, job); }
};

App& App::install(Machine& m, const Options& opt) { return m.emplace_user<App>(m, opt); }

App::App(Machine& m, const Options& opt) : m_(m), opt_(opt) {
  lib_ = &kvmsr::Library::install(m);
  pg_ = &pgraph::ParallelGraph::install(m, opt.graph);
  Program& p = m.program();
  lb_.m_chunk = p.event("ingest::m_chunk", &IngestMap::m_chunk);
  lb_.r_inserted = p.event("ingest::r_inserted", &IngestReduce::r_inserted);

  kvmsr::JobSpec spec;
  spec.kv_map = p.event("ingest::kv_map", &IngestMap::kv_map);
  spec.kv_reduce = p.event("ingest::kv_reduce", &IngestReduce::kv_reduce);
  spec.name = "ingest";
  job_ = lib_->add_job(spec);
}

Result App::run(std::string_view csv) {
  data_bytes_ = csv.size();
  const std::uint64_t alloc = std::max<std::uint64_t>(64, (data_bytes_ + 63) & ~63ull);
  data_base_ = m_.memory().dram_malloc_spread(alloc);
  m_.memory().host_write(data_base_, csv.data(), csv.size());

  const std::uint64_t blocks = ceil_div(data_bytes_, opt_.block_bytes);
  const kvmsr::JobState& st = lib_->run_to_completion(job_, 0, blocks);
  Result r;
  r.records = st.total_emitted;
  r.start_tick = st.start_tick;
  r.done_tick = st.done_tick;
  return r;
}

}  // namespace updown::ingest
