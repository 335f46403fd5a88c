// Differential fuzzing: random graphs and inputs through the simulated
// UpDown applications, checked word-for-word against the CPU baselines in
// src/baseline. Every case is derived purely from a 64-bit seed, so any
// failure is a one-line repro:
//
//   UD_FUZZ_SEED=<seed> ./tests/test_differential
//
// replays exactly the failing case (and nothing else). Without UD_FUZZ_SEED
// the suite sweeps UD_FUZZ_CASES (default 56) case seeds derived from the
// master seed UD_FUZZ_MASTER (default fixed); CI's nightly job passes a
// date-derived master so the corpus moves every night yet any night's run is
// reproducible, and each failure still reports its single-case repro seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <deque>
#include <string>
#include <vector>

#include "abstractions/global_sort.hpp"
#include "apps/bfs.hpp"
#include "apps/pagerank.hpp"
#include "apps/tc.hpp"
#include "baseline/baseline.hpp"
#include "common/rng.hpp"
#include "env_guard.hpp"
#include "graph/generators.hpp"
#include "serve/query_engine.hpp"
#include "stream/stream.hpp"

namespace updown {
namespace {

constexpr int kDefaultCases = 56;  // CI acceptance floor is 50 seeded combos

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// The repro line printed on failure and in every scoped trace.
std::string repro(std::uint64_t case_seed) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "repro: UD_FUZZ_SEED=%llu ./tests/test_differential",
                static_cast<unsigned long long>(case_seed));
  return buf;
}

/// A random graph whose every dimension — generator family, size, skew,
/// symmetry, self-loops, duplicate edges — comes from the seed. Self-loop
/// and duplicate injection feed raw edges through Graph::from_edges, which
/// must drop/dedup them identically to the preprocessing tools.
Graph fuzz_graph(Xoshiro256& rng, bool symmetrize) {
  const std::uint32_t scale = 5 + static_cast<std::uint32_t>(rng.below(4));  // 32..256 vertices
  const std::uint32_t edge_factor = 4 + static_cast<std::uint32_t>(rng.below(13));
  Graph g;
  switch (rng.below(3)) {
    case 0: {  // RMAT with randomized skew
      RmatParams p;
      p.a = 0.3 + rng.uniform() * 0.4;           // 0.3 .. 0.7
      p.b = (1.0 - p.a) * rng.uniform() * 0.5;   // keep a+b+c < 1
      p.c = (1.0 - p.a - p.b) * rng.uniform() * 0.7;
      p.edge_factor = edge_factor;
      p.symmetrize = symmetrize;
      g = rmat(scale, p, rng());
      break;
    }
    case 1:
      g = erdos_renyi(scale, edge_factor, rng(), symmetrize);
      break;
    default: {  // raw edge list with explicit self-loops and duplicates
      const VertexId n = 1ull << scale;
      std::vector<Edge> edges;
      const std::uint64_t m = n * edge_factor / 2;
      for (std::uint64_t i = 0; i < m; ++i) {
        const VertexId u = rng.below(n), v = rng.below(n);
        edges.emplace_back(u, v);
        if (rng.below(4) == 0) edges.emplace_back(u, v);  // duplicate
        if (rng.below(8) == 0) edges.emplace_back(u, u);  // self-loop
      }
      g = Graph::from_edges(n, std::move(edges), symmetrize);
      break;
    }
  }
  return g;
}

std::uint32_t fuzz_nodes(Xoshiro256& rng) {
  return 1u << rng.below(3);  // 1, 2, or 4 nodes (power of two required)
}

void fuzz_pagerank(Xoshiro256& rng) {
  Graph g = fuzz_graph(rng, rng.below(2) == 0);
  const std::uint64_t block = 8ull << rng.below(4);  // split block 8..64
  SplitGraph sg = split_vertices(g, block);
  Machine m(MachineConfig::scaled(fuzz_nodes(rng)));
  DeviceGraph dg = upload_split_graph(m, sg);
  pr::Options opt;
  opt.iterations = 1 + static_cast<unsigned>(rng.below(3));
  opt.damping = 0.5 + rng.uniform() * 0.49;
  pr::Result r = pr::App::install(m, dg, sg, opt).run();
  const auto oracle = baseline::pagerank(g, opt.iterations, opt.damping);
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    ASSERT_NEAR(r.rank[v], oracle[v], 1e-9) << "pagerank diverged at vertex " << v;
  if (m.stats().check.enabled) {
    ASSERT_EQ(m.stats().check.errors(), 0u) << "checker false positive";
  }
}

void fuzz_bfs(Xoshiro256& rng) {
  Graph g = fuzz_graph(rng, rng.below(2) == 0);
  const VertexId root = rng.below(g.num_vertices());
  Machine m(MachineConfig::scaled(fuzz_nodes(rng)));
  DeviceGraph dg = upload_graph(m, g);
  bfs::Result r = bfs::App::install(m, dg, {.root = root}).run();
  const auto oracle = baseline::bfs(g, root);
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    ASSERT_EQ(r.dist[v], oracle.dist[v]) << "bfs distance diverged at vertex " << v;
  ASSERT_EQ(r.traversed_edges, oracle.traversed_edges);
  ASSERT_EQ(r.rounds, oracle.rounds);
  if (m.stats().check.enabled) {
    ASSERT_EQ(m.stats().check.errors(), 0u) << "checker false positive";
  }
}

void fuzz_tc(Xoshiro256& rng) {
  Graph g = fuzz_graph(rng, /*symmetrize=*/true);  // TC requires symmetric input
  Machine m(MachineConfig::scaled(fuzz_nodes(rng)));
  DeviceGraph dg = upload_graph(m, g);
  tc::Result r = tc::App::install(m, dg, {}).run();
  ASSERT_EQ(r.triangles, baseline::triangle_count(g)) << "triangle count diverged";
  if (m.stats().check.enabled) {
    ASSERT_EQ(m.stats().check.errors(), 0u) << "checker false positive";
  }
}

/// ConcurrentJobs dimension: 2–4 simultaneous serve-layer queries, each a
/// seeded PR/BFS/TC on its own key-space (per-tenant graph copy, node
/// partition, lane partition), launched together and driven to global drain.
/// Every tenant must match its CPU baseline AND the tenants must actually
/// interleave: each query's [launch, done] window overlaps every other's.
void fuzz_concurrent(Xoshiro256& rng) {
  const std::uint32_t njobs = 2 + static_cast<std::uint32_t>(rng.below(3));  // 2..4
  Machine m(MachineConfig::scaled(4));
  auto& eng = serve::QueryEngine::install(m);
  const auto lanes_per_node =
      static_cast<std::uint32_t>(m.config().total_lanes() / m.config().nodes);

  struct TenantCase {
    Graph g;
    DeviceGraph dg;
    serve::QueryKind kind{};
    VertexId root = 0;
    unsigned iters = 1;
    serve::QueryId q = 0;
  };
  std::deque<TenantCase> tenants;
  for (std::uint32_t i = 0; i < njobs; ++i) {
    TenantCase t;
    switch (rng.below(3)) {
      case 0: t.kind = serve::QueryKind::kPageRank; break;
      case 1: t.kind = serve::QueryKind::kBfs; break;
      default: t.kind = serve::QueryKind::kTriangles; break;
    }
    t.g = fuzz_graph(rng, t.kind != serve::QueryKind::kPageRank || rng.below(2) == 0);
    t.root = rng.below(t.g.num_vertices());
    t.iters = 1 + static_cast<unsigned>(rng.below(3));
    const GraphPlacement place{i, 1, 32 * 1024};
    tenants.push_back(std::move(t));
    TenantCase& tb = tenants.back();  // deque: stable address for spec.graph
    tb.dg = upload_graph(m, tb.g, place);
    serve::QuerySpec s;
    s.kind = tb.kind;
    s.graph = &tb.dg;
    s.lanes = {i * lanes_per_node, lanes_per_node};
    s.values = place;
    s.iterations = tb.iters;
    s.root = tb.root;
    s.name = "fz" + std::to_string(i);
    tb.q = eng.add_query(std::move(s));
  }
  for (const TenantCase& t : tenants) eng.launch(t.q);
  m.run();

  for (const TenantCase& t : tenants) {
    ASSERT_TRUE(eng.done(t.q));
    const serve::QueryResult r = eng.collect(t.q);
    switch (t.kind) {
      case serve::QueryKind::kPageRank: {
        const auto oracle = baseline::pagerank(t.g, t.iters);
        for (VertexId v = 0; v < t.g.num_vertices(); ++v)
          ASSERT_NEAR(r.rank[v], oracle[v], 1e-9)
              << "tenant " << eng.spec(t.q).name << " diverged at vertex " << v;
        break;
      }
      case serve::QueryKind::kBfs: {
        const auto oracle = baseline::bfs(t.g, t.root);
        for (VertexId v = 0; v < t.g.num_vertices(); ++v)
          ASSERT_EQ(r.dist[v], oracle.dist[v])
              << "tenant " << eng.spec(t.q).name << " diverged at vertex " << v;
        break;
      }
      default:
        ASSERT_EQ(r.count, baseline::triangle_count(t.g))
            << "tenant " << eng.spec(t.q).name << " triangle count diverged";
        break;
    }
  }
  // Interleaved completion: no tenant finished before another launched — the
  // jobs were genuinely concurrent, not serialized by the runtime.
  for (const TenantCase& x : tenants)
    for (const TenantCase& y : tenants) {
      const serve::QueryResult rx = eng.collect(x.q);
      const serve::QueryResult ry = eng.collect(y.q);
      ASSERT_LT(rx.launch_tick, ry.done_tick)
          << "tenants " << eng.spec(x.q).name << "/" << eng.spec(y.q).name
          << " did not overlap";
    }
  if (m.stats().check.enabled) {
    ASSERT_EQ(m.stats().check.errors(), 0u) << "checker false positive";
  }
}

/// Streaming dimension: a resident session over a seeded base graph takes
/// 1–3 seeded delta batches (device-ingested or host-staged, with injected
/// duplicates and self-loops), compacting and incrementally refreshing after
/// each epoch. Incremental PageRank must match the from-scratch CPU baseline
/// on the post-delta graph BIT-for-bit (the rank-history pull design), and
/// incremental BFS repair must land on the from-scratch distances.
void fuzz_streaming(Xoshiro256& rng) {
  Graph base = fuzz_graph(rng, rng.below(2) == 0);
  const VertexId n = base.num_vertices();
  Machine m(MachineConfig::scaled(fuzz_nodes(rng)));
  stream::StreamOptions opt;
  opt.pr_iterations = 1 + static_cast<std::uint32_t>(rng.below(3));
  opt.damping = 0.5 + rng.uniform() * 0.49;
  opt.bfs_root = rng.below(n);
  auto& se = stream::StreamEngine::install(m, base, opt);
  se.warm();

  Graph cur = base;
  const int epochs = 1 + static_cast<int>(rng.below(3));
  for (int e = 0; e < epochs; ++e) {
    std::vector<tform::EdgeRecord> recs;
    const std::uint64_t nrec = 1 + rng.below(24);
    for (std::uint64_t i = 0; i < nrec; ++i) {
      const tform::EdgeRecord r{rng.below(n), rng.below(n), rng.below(8)};
      recs.push_back(r);
      if (rng.below(4) == 0) recs.push_back(r);                    // duplicate
      if (rng.below(8) == 0) recs.push_back({r.src, r.src, 0});    // self-loop
    }
    if (rng.below(2) == 0) {
      const std::uint64_t b = se.ingest_async(recs, m.now());
      m.run();
      ASSERT_TRUE(se.ingested(b)) << "epoch " << e << " ingestion stalled";
    } else {
      se.stage(recs);
    }
    se.compact(m.now());

    std::vector<Edge> edges;
    for (VertexId u = 0; u < n; ++u)
      for (const VertexId v : cur.neighbors_of(u)) edges.emplace_back(u, v);
    for (const tform::EdgeRecord& r : recs) edges.emplace_back(r.src, r.dst);
    cur = Graph::from_edges(n, std::move(edges), false);

    const stream::RefreshResult rr = se.refresh();
    const auto pr_oracle = baseline::pagerank(cur, opt.pr_iterations, opt.damping);
    for (VertexId v = 0; v < n; ++v)
      ASSERT_EQ(std::bit_cast<Word>(rr.pr.rank[v]), std::bit_cast<Word>(pr_oracle[v]))
          << "incremental pagerank diverged at vertex " << v << " epoch " << e;
    const auto bfs_oracle = baseline::bfs(cur, opt.bfs_root);
    for (VertexId v = 0; v < n; ++v)
      ASSERT_EQ(rr.bfs.dist[v], bfs_oracle.dist[v])
          << "incremental bfs diverged at vertex " << v << " epoch " << e;
  }
  if (m.stats().check.enabled) {
    ASSERT_EQ(m.stats().check.errors(), 0u) << "checker false positive";
  }
}

void fuzz_bucket_sort(Xoshiro256& rng) {
  Machine m(MachineConfig::scaled(fuzz_nodes(rng)));
  auto& gs = gsort::GlobalSort::install(m);
  const std::uint64_t n = rng.below(2000);  // 0..1999 values, including empty
  const unsigned key_bits = 8 + static_cast<unsigned>(rng.below(41));  // 8..48
  std::vector<Word> data(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    data[i] = rng() & ((key_bits >= 64 ? ~0ull : (1ull << key_bits) - 1));
    // Occasionally duplicate an earlier value (from the filled prefix only —
    // copying zero-initialized tail entries would pile mass on bucket 0 and
    // trip GlobalSort's documented skewed-key bucket-overflow guard).
    if (i > 0 && rng.below(8) == 0) data[i] = data[rng.below(i)];
  }
  Addr input = m.memory().dram_malloc_spread(std::max<std::uint64_t>(8, n * 8), 4096);
  m.memory().host_write(input, data.data(), n * 8);
  gs.sort(input, n, key_bits);
  const auto sim_sorted = gs.host_read_sorted();
  const auto oracle = baseline::bucket_sort(data, key_bits, m.config().total_lanes());
  ASSERT_EQ(sim_sorted, oracle) << "bucket sort diverged";
  // The lane mapping takes the top key bits, so bucket-major order IS sorted
  // order (total lanes is a power of two) — assert against plain sort too.
  std::sort(data.begin(), data.end());
  ASSERT_EQ(sim_sorted, data);
  if (m.stats().check.enabled) {
    ASSERT_EQ(m.stats().check.errors(), 0u) << "checker false positive";
  }
}

/// Run the one case identified by `case_seed`: the seed picks the app and
/// every input dimension. Keeping the whole derivation inside one function
/// is what makes the single-seed replay exact.
void run_case(std::uint64_t case_seed) {
  SCOPED_TRACE(repro(case_seed));
  Xoshiro256 rng(case_seed);
  // An unused draw: it keeps every recorded UD_FUZZ_SEED replaying the same
  // app and inputs.
  (void)rng.below(6);
  switch (rng.below(6)) {
    case 0: fuzz_pagerank(rng); break;
    case 1: fuzz_bfs(rng); break;
    case 2: fuzz_tc(rng); break;
    case 3: fuzz_bucket_sort(rng); break;
    case 4: fuzz_streaming(rng); break;
    default: fuzz_concurrent(rng); break;
  }
}

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* v = std::getenv(name);
  return (v && *v) ? std::strtoull(v, nullptr, 0) : fallback;
}

TEST(DifferentialFuzz, SimMatchesBaselines) {
  const char* replay = std::getenv("UD_FUZZ_SEED");
  if (replay && *replay) {
    // Replay mode: exactly the failing case, nothing else.
    run_case(std::strtoull(replay, nullptr, 0));
    return;
  }
  const std::uint64_t master = env_u64("UD_FUZZ_MASTER", 0xD1FFC0DEULL);
  const int cases = static_cast<int>(env_u64("UD_FUZZ_CASES", kDefaultCases));
  for (int i = 0; i < cases; ++i) {
    const std::uint64_t case_seed = splitmix64(master + static_cast<std::uint64_t>(i));
    run_case(case_seed);
    if (::testing::Test::HasFatalFailure()) {
      // The scoped trace already carries the repro; print it unmissably too.
      std::fprintf(stderr, "[  FUZZ    ] case %d failed — %s\n", i, repro(case_seed).c_str());
      return;
    }
  }
}

TEST(DifferentialFuzz, CheckedShardedSweep) {
  // Eight seeded cases under the race checker with UD_SHARDS=4 requested: a
  // checked run ignores the shard count and uses the serial engine, and the
  // checker must neither perturb any baseline-checked result nor report a
  // false positive on these clean programs (every fuzz_* asserts
  // errors()==0 when checking is on). Seeds are offset from the main sweep
  // so the checked corpus is its own slice; any failure replays with
  //   UD_CHECK=1 UD_SHARDS=4 UD_FUZZ_SEED=<seed> ./tests/test_differential
  EnvGuard gc("UD_CHECK", "1");
  EnvGuard gs("UD_SHARDS", "4");
  const std::uint64_t master = env_u64("UD_FUZZ_MASTER", 0xD1FFC0DEULL);
  for (int i = 0; i < 8; ++i) {
    const std::uint64_t case_seed =
        splitmix64(master + 0xC4EC0000ULL + static_cast<std::uint64_t>(i));
    run_case(case_seed);
    if (::testing::Test::HasFatalFailure()) {
      std::fprintf(stderr, "[  FUZZ    ] checked case %d failed — %s\n", i,
                   repro(case_seed).c_str());
      return;
    }
  }
}

TEST(DifferentialFuzz, CheckedIncrementalBfsRepairIsRaceFree) {
  // Case 12 of UD_FUZZ_MASTER=20261017: a kIncBfs repair frontier mixes
  // levels, so one round improves some dist[w] twice and both reduces send
  // an acked write to the same word. The lane-owned mirror's improve-test
  // orders the two writes; the reduce declares that ordering to the checker
  // as a sync cell, without which this case reported a write-write race.
  EnvGuard gc("UD_CHECK", "1");
  for (const char* shards : {"1", "4"}) {
    EnvGuard gs("UD_SHARDS", shards);
    run_case(17150174870685195705ULL);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace updown
