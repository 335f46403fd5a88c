// Streaming-graph battery (ROADMAP item 3): DeltaGraph compaction as a pure
// function of the staged edge set, warm/incremental refresh bit-equality
// against from-scratch CPU baselines, device-path ingestion vs host staging,
// the solo-vs-shared / shard-matrix bit-identity guarantee for a mutating
// session, and scheduler mutation epochs gating post-delta queries.
#include "stream/stream.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <string>
#include <vector>

#include "baseline/baseline.hpp"
#include "bfs_tree.hpp"
#include "env_guard.hpp"
#include "graph/generators.hpp"
#include "serve/scheduler.hpp"

namespace updown::stream {
namespace {

std::vector<Edge> edges_of(const Graph& g) {
  std::vector<Edge> es;
  for (VertexId u = 0; u < g.num_vertices(); ++u)
    for (const VertexId v : g.neighbors_of(u)) es.emplace_back(u, v);
  return es;
}

/// From-scratch oracle graph: the old edge set plus the delta records through
/// Graph::from_edges — exactly the set semantics compaction must reproduce.
Graph apply_delta(const Graph& g, const std::vector<tform::EdgeRecord>& recs) {
  std::vector<Edge> es = edges_of(g);
  for (const tform::EdgeRecord& r : recs) es.emplace_back(r.src, r.dst);
  return Graph::from_edges(g.num_vertices(), std::move(es), false);
}

/// Deterministic pseudo-random delta batch over `n` vertices.
std::vector<tform::EdgeRecord> delta_recs(VertexId n, std::uint64_t count,
                                          std::uint64_t seed) {
  std::vector<tform::EdgeRecord> recs;
  std::uint64_t x = seed * 0x9e3779b97f4a7c15ull + 1;
  const auto next = [&x] {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    return x >> 33;
  };
  for (std::uint64_t i = 0; i < count; ++i)
    recs.push_back({next() % n, next() % n, i % 4});
  return recs;
}

void expect_rank_bits(const std::vector<double>& got, const std::vector<double>& want,
                      const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t v = 0; v < want.size(); ++v)
    ASSERT_EQ(std::bit_cast<Word>(got[v]), std::bit_cast<Word>(want[v]))
        << what << " diverged at vertex " << v;
}

// ---------------------------------------------------------------------------
// DeltaGraph: host-side overlay + compaction semantics (no machine).
// ---------------------------------------------------------------------------

TEST(DeltaGraph, CompactionMatchesFromEdgesOnBothSides) {
  const Graph base = rmat(6, {}, 5);
  const VertexId n = base.num_vertices();
  DeltaGraph dg(base);

  // The constructor's reverse CSR is from_edges over the reversed edge list.
  std::vector<Edge> rev;
  for (const auto& [u, v] : edges_of(base)) rev.emplace_back(v, u);
  const Graph rbase = Graph::from_edges(n, rev, false);
  EXPECT_EQ(dg.rcsr().offsets(), rbase.offsets());
  EXPECT_EQ(dg.rcsr().neighbors(), rbase.neighbors());

  // Two interleaved batches, with duplicates and a self-loop mixed in.
  const auto recs = delta_recs(n, 30, 3);
  const auto b0 = dg.begin_batch();
  const auto b1 = dg.begin_batch();
  std::uint64_t staged = 0;
  for (std::size_t i = 0; i < recs.size(); ++i) {
    dg.stage(i % 2 ? b1 : b0, recs[i].src, recs[i].dst);
    ++staged;
  }
  dg.stage(b0, recs[0].src, recs[0].dst);  // duplicate, dropped at compaction
  dg.stage(b1, 7, 7);                      // self-loop, dropped at compaction
  staged += 2;
  EXPECT_EQ(dg.staged_edges(), staged);

  const DeltaGraph::CompactionResult cr = dg.compact();
  auto all = recs;
  all.push_back({7, 7, 0});
  const Graph post = apply_delta(base, all);
  EXPECT_EQ(dg.csr().offsets(), post.offsets());
  EXPECT_EQ(dg.csr().neighbors(), post.neighbors());
  std::vector<Edge> prev;
  for (const auto& [u, v] : edges_of(post)) prev.emplace_back(v, u);
  const Graph rpost = Graph::from_edges(n, prev, false);
  EXPECT_EQ(dg.rcsr().offsets(), rpost.offsets());
  EXPECT_EQ(dg.rcsr().neighbors(), rpost.neighbors());

  // Touched lists: exactly the vertices whose adjacency changed, ascending.
  std::vector<VertexId> want_fwd;
  for (VertexId u = 0; u < n; ++u) {
    const auto a = base.neighbors_of(u);
    const auto b = post.neighbors_of(u);
    if (!std::equal(a.begin(), a.end(), b.begin(), b.end())) want_fwd.push_back(u);
  }
  EXPECT_EQ(cr.touched_fwd, want_fwd);
  EXPECT_EQ(cr.inserted, post.num_edges() - base.num_edges());
  EXPECT_EQ(cr.staged, staged);
  EXPECT_EQ(dg.epochs(), 1u);

  // A second epoch with nothing staged is a no-op.
  const DeltaGraph::CompactionResult empty = dg.compact();
  EXPECT_TRUE(empty.touched_fwd.empty());
  EXPECT_TRUE(empty.touched_rev.empty());
  EXPECT_EQ(empty.inserted, 0u);
}

TEST(DeltaGraph, OverlayVisibilityAndValidation) {
  const Graph base = path_graph(6);
  DeltaGraph dg(base);
  // Unknown batch before any begin_batch().
  EXPECT_THROW(dg.stage(0, 0, 1), std::out_of_range);
  const auto b = dg.begin_batch();
  EXPECT_THROW(dg.stage(b, 6, 0), std::out_of_range);
  EXPECT_THROW(dg.stage(b, 0, 99), std::out_of_range);
  EXPECT_THROW(dg.stage(b + 1, 0, 1), std::out_of_range);

  ASSERT_FALSE(base.has_edge(0, 5));
  dg.stage(b, 0, 5);
  EXPECT_TRUE(dg.has_edge(0, 5));        // overlay-visible before the epoch
  EXPECT_FALSE(dg.csr().has_edge(0, 5)); // snapshot unchanged
  const auto pend = dg.pending(0);
  ASSERT_EQ(pend.size(), 1u);
  EXPECT_EQ(pend[0], 5u);
  dg.compact();
  EXPECT_TRUE(dg.csr().has_edge(0, 5));
  EXPECT_TRUE(dg.pending(0).empty());

  // The overlay merge and the kernels' position-indexed gathers require a
  // sorted base — an unvouched from_csr adoption is rejected up front.
  const Graph unsorted = Graph::from_csr({0, 2, 2}, {1, 0}, false);
  EXPECT_THROW(DeltaGraph{unsorted}, std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Warm + incremental refresh vs from-scratch CPU baselines (bit-exact).
// ---------------------------------------------------------------------------

TEST(StreamRefresh, HostStagedEpochsTrackFromScratchBaselines) {
  Machine m(MachineConfig::scaled(2));
  const Graph base = rmat(7, {}, 21);
  const VertexId n = base.num_vertices();
  StreamOptions opt;
  opt.pr_iterations = 3;
  auto& se = StreamEngine::install(m, base, opt);

  const RefreshResult w = se.warm();
  expect_rank_bits(w.pr.rank, baseline::pagerank(base, 3), "warm pagerank");
  EXPECT_EQ(w.bfs.dist, baseline::bfs(base, 0).dist);
  expect_bfs_tree(base, 0, w.bfs.dist, w.bfs.parent, "warm bfs");
  EXPECT_EQ(w.pr.rounds, 3u);

  Graph cur = base;
  for (int epoch = 0; epoch < 3; ++epoch) {
    auto recs = delta_recs(n, 8 + 4 * static_cast<std::uint64_t>(epoch),
                           11 + static_cast<std::uint64_t>(epoch));
    recs.push_back({0, n - 1 - static_cast<VertexId>(epoch), 0});  // root shortcut
    recs.push_back({5, 5, 0});      // self-loop, dropped
    recs.push_back(recs.front());   // duplicate, dropped
    se.stage(recs);
    const auto cr = se.compact(m.now());
    EXPECT_GT(cr.inserted, 0u) << "epoch " << epoch;
    cur = apply_delta(cur, recs);
    EXPECT_EQ(se.graph().csr().neighbors(), cur.neighbors());
    // Patched records keep the unsplit-graph invariant the PageRank map
    // relies on: a vertex is its own owner, so owner_degree == degree.
    for (const DeviceGraph* dg : {se.resident().fwd, se.resident().rev})
      for (VertexId v = 0; v < n; ++v)
        ASSERT_EQ(m.memory().host_load<Word>(dg->field_addr(v, DeviceGraph::kOwnerDegree)),
                  m.memory().host_load<Word>(dg->field_addr(v, DeviceGraph::kDegree)))
            << "epoch " << epoch << " vertex " << v
            << (dg == se.resident().fwd ? " (fwd)" : " (rev)");

    const RefreshResult r = se.refresh();
    expect_rank_bits(r.pr.rank, baseline::pagerank(cur, 3),
                     ("incremental pagerank epoch " + std::to_string(epoch)).c_str());
    const auto bfs_oracle = baseline::bfs(cur, 0);
    ASSERT_EQ(r.bfs.dist.size(), bfs_oracle.dist.size());
    for (VertexId v = 0; v < n; ++v)
      ASSERT_EQ(r.bfs.dist[v], bfs_oracle.dist[v])
          << "incremental bfs epoch " << epoch << " vertex " << v;
    // Repaired parents still form a BFS tree of the post-delta graph.
    expect_bfs_tree(cur, 0, r.bfs.dist, r.bfs.parent,
                    "incremental bfs epoch " + std::to_string(epoch));
  }
  EXPECT_EQ(se.graph().epochs(), 3u);
  EXPECT_TRUE(m.idle());
}

TEST(StreamIngest, DevicePathMatchesHostStaging) {
  const Graph base = rmat(7, {}, 21);
  const auto recs = delta_recs(base.num_vertices(), 50, 3);  // 3200 B = 4 blocks

  StreamOptions opt;  // defaults, env-independent
  Machine ma(MachineConfig::scaled(2));
  auto& sa = StreamEngine::install(ma, base, opt);
  sa.warm();
  sa.stage(recs);
  sa.compact(ma.now());
  const RefreshResult ra = sa.refresh();

  Machine mb(MachineConfig::scaled(2));
  auto& sb = StreamEngine::install(mb, base, opt);
  sb.warm();
  const std::uint64_t b = sb.ingest_async(recs, mb.now());
  EXPECT_FALSE(sb.ingested(b));  // job launched, not yet run
  mb.run();
  ASSERT_TRUE(sb.ingested(b));
  sb.compact(mb.now());
  const RefreshResult rb = sb.refresh();

  // The TFORM parse job must stage the exact same edge set: identical
  // compacted CSRs (both sides) and bit-identical refresh results.
  EXPECT_EQ(sa.graph().csr().offsets(), sb.graph().csr().offsets());
  EXPECT_EQ(sa.graph().csr().neighbors(), sb.graph().csr().neighbors());
  EXPECT_EQ(sa.graph().rcsr().offsets(), sb.graph().rcsr().offsets());
  EXPECT_EQ(sa.graph().rcsr().neighbors(), sb.graph().rcsr().neighbors());
  expect_rank_bits(rb.pr.rank, ra.pr.rank, "device-vs-host pagerank");
  EXPECT_EQ(rb.bfs.dist, ra.bfs.dist);

  // And both match the from-scratch oracle on the post-delta graph.
  const Graph post = apply_delta(base, recs);
  expect_rank_bits(ra.pr.rank, baseline::pagerank(post, opt.pr_iterations),
                   "post-delta pagerank");
  EXPECT_EQ(ra.bfs.dist, baseline::bfs(post, opt.bfs_root).dist);
}

TEST(StreamEngineTest, InstallIsExclusiveAndOptionsReadEnv) {
  {
    EnvGuard e1("UD_STREAM_EPOCH", "12345");
    EnvGuard e2("UD_STREAM_BLOCK", "256");
    const StreamOptions o = StreamOptions::from_env();
    EXPECT_EQ(o.epoch, 12345u);
    EXPECT_EQ(o.block_bytes, 256u);
  }
  Machine m(MachineConfig::scaled(1));
  StreamEngine::install(m, path_graph(8), {});
  EXPECT_THROW(StreamEngine::install(m, path_graph(8), {}), std::logic_error);
}

// ---------------------------------------------------------------------------
// Determinism matrix: a mutating session confined to nodes {0,1} must be
// bit-identical — refresh results AND completion ticks — across UD_SHARDS x
// UD_CHECK, whether an unrelated partition-confined tenant runs on nodes
// {2,3} or not, and whether the delta batch lands before or after that
// tenant's launch tick.
// ---------------------------------------------------------------------------

struct Fingerprint {
  std::vector<Word> rank;
  std::vector<Word> dist;
  Tick pr_done = 0, bfs_done = 0;
  std::vector<Word> tenant_dist;
  Tick tenant_done = 0;
};

constexpr Tick kTenantAt = 1'000'000;
constexpr Tick kRefreshAt = 32'000'000;

Fingerprint run_variant(std::uint32_t shards, bool check, bool launch_tenant,
                        Tick ingest_at) {
  EnvGuard g1("UD_SHARDS", std::to_string(shards).c_str());
  EnvGuard g2("UD_CHECK", check ? "1" : "0");
  Machine m(MachineConfig::scaled(4));
  const auto lpn = static_cast<std::uint32_t>(m.config().total_lanes() / 4);

  StreamOptions opt;
  opt.pr_iterations = 2;
  opt.lanes = {0, 2 * lpn};
  opt.values = {0, 2, 32 * 1024};
  auto& se = StreamEngine::install(m, rmat(7, {}, 41), opt);
  auto& eng = serve::QueryEngine::install(m);
  se.warm();

  // The tenant is BUILT in every variant (identical allocation sequence) and
  // only LAUNCHED in the shared ones — the run_partitioned recipe.
  const Graph tg = rmat(7, {.symmetrize = true}, 42);
  const GraphPlacement tplace{2, 2, 32 * 1024};
  const DeviceGraph tdg = upload_graph(m, tg, tplace);
  serve::QuerySpec ts;
  ts.kind = serve::QueryKind::kBfs;
  ts.graph = &tdg;
  ts.lanes = {2 * lpn, 2 * lpn};
  ts.values = tplace;
  ts.root = 1;
  ts.name = "tenant.bfs";
  const serve::QueryId tq = eng.add_query(std::move(ts));

  const std::uint64_t b =
      se.ingest_async(delta_recs(se.graph().num_vertices(), 24, 7), ingest_at);
  if (launch_tenant) eng.launch(tq, kTenantAt);
  m.run();
  EXPECT_TRUE(se.ingested(b));
  se.compact(m.now());

  EXPECT_LE(m.now(), kRefreshAt);
  const serve::QueryId qp = eng.add_query(se.inc_pagerank_spec());
  const serve::QueryId qb = eng.add_query(se.inc_bfs_spec());
  eng.launch(qp, kRefreshAt);
  eng.launch(qb, kRefreshAt);
  m.run();
  EXPECT_TRUE(eng.done(qp) && eng.done(qb));
  if (check) {
    EXPECT_TRUE(m.stats().check.enabled);
    EXPECT_EQ(m.stats().check.errors(), 0u);
  }

  Fingerprint fp;
  const serve::QueryResult rp = eng.collect(qp);
  const serve::QueryResult rb = eng.collect(qb);
  for (const double d : rp.rank) fp.rank.push_back(std::bit_cast<Word>(d));
  fp.dist = rb.dist;
  fp.pr_done = rp.done_tick;
  fp.bfs_done = rb.done_tick;
  if (launch_tenant) {
    const serve::QueryResult rt = eng.collect(tq);
    fp.tenant_dist = rt.dist;
    fp.tenant_done = rt.done_tick;
  }
  return fp;
}

TEST(StreamDeterminism, MutatingSessionBitIdenticalAcrossShardsChecksAndTenants) {
  const Fingerprint solo = run_variant(1, false, false, 1000);
  ASSERT_FALSE(solo.rank.empty());

  // Correctness of the solo fingerprint vs the post-delta oracle.
  const Graph base = rmat(7, {}, 41);
  const Graph post = apply_delta(base, delta_recs(base.num_vertices(), 24, 7));
  const auto pr_oracle = baseline::pagerank(post, 2);
  ASSERT_EQ(solo.rank.size(), pr_oracle.size());
  for (std::size_t v = 0; v < pr_oracle.size(); ++v)
    ASSERT_EQ(solo.rank[v], std::bit_cast<Word>(pr_oracle[v])) << "vertex " << v;
  EXPECT_EQ(solo.dist, baseline::bfs(post, 0).dist);

  Fingerprint first_shared;
  bool have_shared = false;
  for (const std::uint32_t shards : {1u, 2u, 4u}) {
    const Fingerprint fp = run_variant(shards, true, true, 1000);
    EXPECT_EQ(fp.rank, solo.rank) << "shards=" << shards;
    EXPECT_EQ(fp.dist, solo.dist) << "shards=" << shards;
    EXPECT_EQ(fp.pr_done, solo.pr_done) << "shards=" << shards;
    EXPECT_EQ(fp.bfs_done, solo.bfs_done) << "shards=" << shards;
    if (!have_shared) {
      first_shared = fp;
      have_shared = true;
      // The tenant itself must be correct while the session mutates around it.
      const Graph tg = rmat(7, {.symmetrize = true}, 42);
      EXPECT_EQ(fp.tenant_dist, baseline::bfs(tg, 1).dist);
    } else {
      EXPECT_EQ(fp.tenant_dist, first_shared.tenant_dist) << "shards=" << shards;
      EXPECT_EQ(fp.tenant_done, first_shared.tenant_done) << "shards=" << shards;
    }
  }

  // Delta batch landing AFTER the tenant's launch tick instead of before:
  // same session results/ticks, same tenant results/ticks.
  const Fingerprint late = run_variant(1, true, true, 2'000'000);
  EXPECT_EQ(late.rank, solo.rank);
  EXPECT_EQ(late.dist, solo.dist);
  EXPECT_EQ(late.pr_done, solo.pr_done);
  EXPECT_EQ(late.bfs_done, solo.bfs_done);
  EXPECT_EQ(late.tenant_dist, first_shared.tenant_dist);
  EXPECT_EQ(late.tenant_done, first_shared.tenant_done);
}

// ---------------------------------------------------------------------------
// Scheduler integration: a submitted delta batch is a mutation epoch —
// pre-arrival queries see the old graph, post-arrival queries are gated
// until the epoch applies and see the new one.
// ---------------------------------------------------------------------------

TEST(StreamScheduler, MutationGatesPostArrivalQueriesAndAppliesOnEpochGrid) {
  Machine m(MachineConfig::scaled(2));
  const Graph base = rmat(7, {}, 9);
  StreamOptions opt;
  opt.pr_iterations = 2;
  opt.epoch = 300'000;  // compaction grid
  auto& se = StreamEngine::install(m, base, opt);
  auto& eng = serve::QueryEngine::install(m);
  se.warm();

  serve::Scheduler sched(eng, {.max_concurrent = 1, .max_queue = 8});
  const auto recs = delta_recs(base.num_vertices(), 20, 77);
  const Graph post = apply_delta(base, recs);

  // Pre-epoch ticket first; its result is collected BEFORE the epoch because
  // incremental queries refresh the shared resident arrays in place.
  const serve::TicketId pre_t =
      sched.submit(se.full_pagerank_spec(), serve::QoS::kNormal, m.now() + 1000);
  sched.drain();
  EXPECT_EQ(sched.ticket(pre_t).status, serve::TicketStatus::kDone);
  expect_rank_bits(eng.collect(sched.ticket(pre_t).query).rank,
                   baseline::pagerank(base, 2), "pre-epoch pagerank");

  const Tick arrival = m.now() + 2'000'000;
  const Tick boundary = ((arrival + opt.epoch - 1) / opt.epoch) * opt.epoch;
  const serve::MutationId mu = se.submit(sched, recs, arrival);
  const serve::TicketId post_full =
      sched.submit(se.full_pagerank_spec(), serve::QoS::kNormal, arrival + 10'000);
  const serve::TicketId post_inc =
      sched.submit(se.inc_pagerank_spec(), serve::QoS::kNormal, arrival + 20'000);
  const serve::TicketId post_bfs =
      sched.submit(se.inc_bfs_spec(), serve::QoS::kNormal, arrival + 30'000);
  sched.drain();

  ASSERT_TRUE(sched.mutation_applied(mu));
  // Applied at/after the next epoch boundary >= arrival, with the
  // pre-arrival ticket fully out of the way first.
  EXPECT_GE(sched.mutation_applied_tick(mu), boundary);
  EXPECT_LE(sched.ticket(pre_t).done, sched.mutation_applied_tick(mu));
  for (const serve::TicketId t : {post_full, post_inc, post_bfs}) {
    EXPECT_EQ(sched.ticket(t).status, serve::TicketStatus::kDone);
    EXPECT_GE(sched.ticket(t).dispatch, sched.mutation_applied_tick(mu));
  }

  // Post-epoch queries (full recompute AND incremental refresh) see the
  // post-delta graph — bit-exact against the from-scratch oracle.
  const auto post_oracle = baseline::pagerank(post, 2);
  expect_rank_bits(eng.collect(sched.ticket(post_full).query).rank, post_oracle,
                   "post-epoch full pagerank");
  expect_rank_bits(eng.collect(sched.ticket(post_inc).query).rank, post_oracle,
                   "post-epoch incremental pagerank");
  EXPECT_EQ(eng.collect(sched.ticket(post_bfs).query).dist,
            baseline::bfs(post, 0).dist);
  EXPECT_EQ(se.graph().epochs(), 1u);
  EXPECT_EQ(se.last_epoch_tick(), sched.mutation_applied_tick(mu));
}

TEST(StreamScheduler, MutationDueWhileAQueryRunsWaitsForIt) {
  // With one slot and no epoch grid, the mutation's not_before passes while
  // the PageRank read still holds the slot. The mutation must wait for the
  // read to finish, not for that passed tick, or drain() never returns.
  Machine m(MachineConfig::scaled(2));
  const Graph base = rmat(7, {}, 9);
  StreamOptions opt;
  opt.pr_iterations = 2;
  opt.epoch = 0;
  auto& se = StreamEngine::install(m, base, opt);
  auto& eng = serve::QueryEngine::install(m);
  se.warm();

  serve::Scheduler sched(eng, {.max_concurrent = 1, .max_queue = 8});
  serve::QuerySpec read;
  read.kind = serve::QueryKind::kPageRank;
  read.graph = se.resident().fwd;
  read.iterations = 2;
  read.name = "read";
  const serve::TicketId t = sched.submit(std::move(read), serve::QoS::kNormal, m.now() + 1000);
  const serve::MutationId mu =
      se.submit(sched, delta_recs(base.num_vertices(), 20, 77), m.now() + 2000);
  sched.drain();

  ASSERT_EQ(sched.ticket(t).status, serve::TicketStatus::kDone);
  ASSERT_TRUE(sched.mutation_applied(mu));
  EXPECT_GE(sched.mutation_applied_tick(mu), sched.ticket(t).done);
  EXPECT_EQ(se.graph().epochs(), 1u);
  // The read ran on the pre-delta graph.
  const auto oracle = baseline::pagerank(base, 2);
  const serve::QueryResult r = eng.collect(sched.ticket(t).query);
  ASSERT_EQ(r.rank.size(), oracle.size());
  for (VertexId v = 0; v < base.num_vertices(); ++v)
    EXPECT_NEAR(r.rank[v], oracle[v], 1e-9) << "vertex " << v;
}

}  // namespace
}  // namespace updown::stream
