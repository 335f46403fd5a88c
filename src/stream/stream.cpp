#include "stream/stream.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "common/env.hpp"
#include "tform/block_parse.hpp"

namespace updown::stream {

StreamOptions StreamOptions::from_env() {
  StreamOptions o;
  o.epoch = env_u64("UD_STREAM_EPOCH", o.epoch, ~0ull);
  o.block_bytes = env_u64("UD_STREAM_BLOCK", o.block_bytes, 1ull << 30);
  return o;
}

// ---------------------------------------------------------------------------
// Delta-batch ingestion: the shared block-parse map task over per-batch
// record buffers (the job's tag names the batch), and a reduce that appends
// parsed edges into the batch's per-lane staging instead of a parallel-graph
// hash insert — the staged edges feed DeltaGraph::compact().
// ---------------------------------------------------------------------------
struct StIngestSource {
  static tform::BlockJob block_job(Ctx& ctx, kvmsr::JobId job) {
    const auto& se = ctx.machine().service<StreamEngine>();
    const auto& bt = se.batches_.at(se.lib_->spec(job).tag);
    return {bt.data_base, bt.data_bytes, se.opt_.block_bytes, se.lb_.m_chunk};
  }
};
using StIngestMap = tform::BlockParseMap<StIngestSource>;

struct StIngestReduce : ThreadState {
  void kv_reduce(Ctx& ctx) {
    auto& se = ctx.machine().service<StreamEngine>();
    const kvmsr::JobId job = kvmsr::Library::reduce_job(ctx);
    auto& bt = se.batches_.at(se.lib_->spec(job).tag);
    const Word u = kvmsr::Library::reduce_key(ctx);
    const Word v = kvmsr::Library::reduce_val(ctx, 0);
    // reduce_val(ctx, 1) is the edge type — the graph does not keep it.
    if (u >= se.dg_.num_vertices() || v >= se.dg_.num_vertices())
      throw std::runtime_error("stream: delta edge endpoint out of range");
    ctx.charge(2);  // lane-local staging append
    const auto lane = static_cast<std::uint32_t>(ctx.nwid()) - se.rlanes_.first;
    bt.per_lane.at(lane).push_back(Edge{u, v});
    se.lib_->reduce_return(ctx, job);
  }
};

// ---------------------------------------------------------------------------
// StreamEngine
// ---------------------------------------------------------------------------

StreamEngine& StreamEngine::install(Machine& m, Graph base, StreamOptions opt) {
  if (m.has_service<StreamEngine>())
    throw std::logic_error("stream: a streaming session is already installed");
  return m.add_service<StreamEngine>(m, std::move(base), std::move(opt));
}

StreamEngine::StreamEngine(Machine& m, Graph base, StreamOptions opt)
    : m_(m), opt_(std::move(opt)), dg_(std::move(base)) {
  lib_ = &kvmsr::Library::install(m);
  qe_ = &serve::QueryEngine::install(m);
  rlanes_ = opt_.lanes;
  if (rlanes_.count == 0) {
    rlanes_.first = 0;
    rlanes_.count = static_cast<std::uint32_t>(m_.config().total_lanes());
  }
  fwd_ = upload_graph(m_, dg_.csr(), opt_.values);
  rev_ = upload_graph(m_, dg_.rcsr(), opt_.values);

  const VertexId nv = dg_.num_vertices();
  rs_.fwd = &fwd_;
  rs_.rev = &rev_;
  rs_.csr = &dg_.csr();
  rs_.rank_hist.resize(opt_.pr_iterations);
  for (Addr& h : rs_.rank_hist) {
    h = place(nv * 8);
    for (VertexId v = 0; v < nv; ++v) m_.memory().host_store<double>(h + v * 8, 0.0);
  }
  // BFS {level, parent} pairs, unreached until warm() runs the first BFS.
  rs_.bfs_base = alloc_vertex_pairs(m_, fwd_);
  rs_.dist.assign(nv, kInfDist);
  std::vector<Word> unreached;
  for (VertexId v = 0; v < nv; ++v) unreached.insert(unreached.end(), {kInfDist, kNoParent});
  m_.memory().host_write(rs_.bfs_base, unreached.data(), unreached.size() * 8);

  Program& p = m_.program();
  lb_.kv_map = p.event("stream::kv_map", &StIngestMap::kv_map);
  lb_.m_chunk = p.event("stream::m_chunk", &StIngestMap::m_chunk);
  lb_.kv_reduce = p.event("stream::kv_reduce", &StIngestReduce::kv_reduce);
}

Addr StreamEngine::place(std::uint64_t bytes) {
  const std::uint32_t nr =
      opt_.values.nr_nodes ? opt_.values.nr_nodes : m_.config().nodes;
  return m_.memory().dram_malloc(std::max<std::uint64_t>(8, bytes),
                                 opt_.values.first_node, nr,
                                 opt_.values.block_size);
}

serve::QuerySpec StreamEngine::base_spec(serve::QueryKind k, const char* nm) {
  serve::QuerySpec s;
  s.kind = k;
  s.resident = &rs_;
  s.lanes = opt_.lanes;
  s.values = opt_.values;
  s.iterations = opt_.pr_iterations;
  s.damping = opt_.damping;
  s.root = opt_.bfs_root;
  s.coalesce_tuples = opt_.coalesce_tuples;
  s.name = std::string("stream.") + nm + "#" + std::to_string(queries_++);
  return s;
}

serve::QuerySpec StreamEngine::inc_pagerank_spec() {
  auto s = base_spec(serve::QueryKind::kIncPageRank, "ipr");
  s.seeds = serve::QuerySpec::Seeds::kPending;
  return s;
}

serve::QuerySpec StreamEngine::inc_bfs_spec() {
  auto s = base_spec(serve::QueryKind::kIncBfs, "ibfs");
  s.seeds = serve::QuerySpec::Seeds::kPending;
  return s;
}

serve::QuerySpec StreamEngine::full_pagerank_spec() {
  auto s = base_spec(serve::QueryKind::kIncPageRank, "pr");
  s.seeds = serve::QuerySpec::Seeds::kAll;
  return s;
}

serve::QuerySpec StreamEngine::full_bfs_spec() {
  auto s = base_spec(serve::QueryKind::kIncBfs, "bfs");
  s.seeds = serve::QuerySpec::Seeds::kAll;
  return s;
}

void StreamEngine::run_query(serve::QuerySpec spec, serve::QueryResult& out) {
  const serve::QueryId q = qe_->add_query(std::move(spec));
  qe_->launch(q);
  m_.run_until([this, q] { return qe_->done(q); });
  m_.run();  // settle to a clean drain (checker analysis, trace rewrite)
  out = qe_->collect(q);
}

RefreshResult StreamEngine::warm() {
  RefreshResult r;
  run_query(full_pagerank_spec(), r.pr);
  run_query(full_bfs_spec(), r.bfs);
  return r;
}

RefreshResult StreamEngine::refresh() {
  RefreshResult r;
  run_query(inc_pagerank_spec(), r.pr);
  run_query(inc_bfs_spec(), r.bfs);
  return r;
}

std::uint64_t StreamEngine::stage(const std::vector<tform::EdgeRecord>& recs) {
  const std::uint64_t b = dg_.begin_batch();
  batches_.emplace_back();
  for (const tform::EdgeRecord& r : recs) dg_.stage(b, r.src, r.dst);
  return b;
}

std::uint64_t StreamEngine::ingest_async(const std::vector<tform::EdgeRecord>& recs,
                                         Tick at) {
  const std::uint64_t b = dg_.begin_batch();
  batches_.emplace_back();
  Batch& bt = batches_.back();
  bt.device = true;
  bt.per_lane.resize(rlanes_.count);

  const std::string bytes = tform::encode_records(recs);
  bt.data_bytes = bytes.size();
  if (bt.data_bytes) {
    bt.data_base = place((bt.data_bytes + 63) & ~63ull);
    m_.memory().host_write(bt.data_base, bytes.data(), bytes.size());
  }
  bt.blocks = ceil_div(bt.data_bytes, opt_.block_bytes);

  kvmsr::JobSpec js;
  js.kv_map = lb_.kv_map;
  js.kv_reduce = lb_.kv_reduce;
  js.lanes = opt_.lanes;
  js.coalesce_tuples = opt_.coalesce_tuples;
  js.tag = b;  // reduce handlers route parsed edges by this
  js.name = "stream.ingest#" + std::to_string(b);
  bt.job = lib_->add_job(js);
  if (bt.blocks) lib_->launch_from_host_at(at, bt.job, 0, bt.blocks);
  return b;
}

bool StreamEngine::ingested(std::uint64_t batch) const {
  const Batch& bt = batches_.at(batch);
  if (!bt.device || bt.blocks == 0) return true;
  const kvmsr::JobState& st = lib_->state(bt.job);
  return st.runs > 0 && !st.running;
}

void StreamEngine::refresh_device(const DeltaGraph::CompactionResult& cr) {
  const auto patch = [&](DeviceGraph& dev, const Graph& g,
                         const std::vector<VertexId>& touched) {
    for (const VertexId v : touched) {
      const auto nbrs = g.neighbors_of(v);
      Addr slice = 0;
      if (!nbrs.empty()) {
        slice = place(nbrs.size() * 8);
        m_.memory().host_write(slice, nbrs.data(), nbrs.size() * 8);
      }
      // Unsplit graph: the owner degree is the vertex's own degree.
      for (const auto f : {DeviceGraph::kDegree, DeviceGraph::kOwnerDegree})
        m_.memory().host_store<Word>(dev.field_addr(v, f), nbrs.size());
      m_.memory().host_store<Word>(dev.field_addr(v, DeviceGraph::kNbrPtr), slice);
    }
    dev.num_edges = g.num_edges();
  };
  patch(fwd_, dg_.csr(), cr.touched_fwd);
  patch(rev_, dg_.rcsr(), cr.touched_rev);
}

DeltaGraph::CompactionResult StreamEngine::compact(Tick visible_at) {
  // Drain every completed device batch's per-lane staging into the overlay.
  // Lane order is fixed, and compaction is order-independent anyway, so the
  // merged graph is a pure function of the batches' edge sets.
  for (std::uint64_t b = 0; b < batches_.size(); ++b) {
    Batch& bt = batches_[b];
    if (bt.drained || !ingested(b)) continue;  // skip still-ingesting batches
    for (auto& lane : bt.per_lane) {
      for (const Edge& e : lane) dg_.stage(b, e.first, e.second);
      lane.clear();
      lane.shrink_to_fit();
    }
    bt.drained = true;
  }
  const DeltaGraph::CompactionResult cr = dg_.compact();
  refresh_device(cr);
  // Dirty sets for the next incremental refresh: a changed source u shifts
  // the pull contribution pr(u)/outdeg(u) of EVERY current out-neighbor
  // (the divisor changed), and can lower BFS levels downstream of itself.
  for (const VertexId u : cr.touched_fwd) {
    rs_.bfs_dirty.push_back(u);
    for (const VertexId w : dg_.csr().neighbors_of(u)) rs_.pr_dirty.push_back(w);
  }
  last_epoch_tick_ = visible_at;
  return cr;
}

serve::MutationId StreamEngine::submit(serve::Scheduler& sched,
                                       std::vector<tform::EdgeRecord> recs,
                                       Tick arrival) {
  constexpr std::uint64_t kNoBatch = ~0ull;
  serve::Mutation mu;
  mu.arrival = arrival;
  mu.not_before = arrival;
  if (opt_.epoch)
    mu.not_before = ((arrival + opt_.epoch - 1) / opt_.epoch) * opt_.epoch;
  auto batch = std::make_shared<std::uint64_t>(kNoBatch);
  auto pending = std::make_shared<std::vector<tform::EdgeRecord>>(std::move(recs));
  mu.start = [this, batch, pending](Tick at) {
    *batch = ingest_async(*pending, at);
    pending->clear();
  };
  mu.ingested = [this, batch] { return *batch != kNoBatch && ingested(*batch); };
  mu.apply = [this](Tick now) { compact(now); };
  return sched.add_mutation(std::move(mu));
}

}  // namespace updown::stream
