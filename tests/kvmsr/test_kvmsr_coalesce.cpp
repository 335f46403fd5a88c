// Shuffle coalescing correctness: every application must compute the same
// answer with UD_COALESCE on and off, across map bindings — Block and PBMW
// (worker-retirement flushes), and Block jobs with one key per lane, whose
// relays send the map tasks without workers (poll-time + flush-hint flushes).
// Results are exact for jobs without map-side combining (TC pair counts, BFS
// distances); combining jobs (PageRank, GNN) reassociate f64 sums, so their
// outputs match to tight tolerance instead of bitwise.
#include <gtest/gtest.h>

#include <string>

#include "apps/bfs.hpp"
#include "apps/gnn.hpp"
#include "apps/pagerank.hpp"
#include "apps/tc.hpp"
#include "bfs_tree.hpp"
#include "env_guard.hpp"
#include "graph/generators.hpp"

namespace updown {
namespace {

struct PrRun {
  pr::Result result;
  ShuffleStats shuffle;
};

PrRun run_pr(std::uint32_t coalesce, kvmsr::MapBinding binding) {
  EnvGuard g1("UD_COALESCE", std::to_string(coalesce).c_str());
  EnvGuard g2("UD_SHARDS", nullptr);
  Machine m(MachineConfig::scaled(4));
  Graph g = rmat(8, {}, 21);
  SplitGraph sg = split_vertices(g, 32);
  DeviceGraph dg = upload_split_graph(m, sg);
  pr::Options opt;
  opt.iterations = 2;
  opt.map_binding = binding;
  pr::Result r = pr::App::install(m, dg, sg, opt).run();
  return {std::move(r), m.stats().shuffle};
}

void expect_pr_equivalent(kvmsr::MapBinding binding) {
  const PrRun off = run_pr(1, binding);
  const PrRun on = run_pr(16, binding);
  ASSERT_EQ(on.result.rank.size(), off.result.rank.size());
  for (std::size_t v = 0; v < off.result.rank.size(); ++v)
    EXPECT_NEAR(on.result.rank[v], off.result.rank[v], 1e-12) << "vertex " << v;
  // The coalesced run must actually have packed tuples...
  EXPECT_GT(on.shuffle.coalesced_packets, 0u);
  // Packing density at this small scale is modest (tuples spread over every
  // lane, buffers flush at map retirement); >1 proves packing happened, the
  // >=4x density claim is asserted at bench scale (fig9 / CI bench smoke).
  EXPECT_GT(on.shuffle.coalescing_factor(), 1.05);
  // ...and moved strictly fewer, strictly larger shuffle messages.
  EXPECT_LT(on.shuffle.messages, off.shuffle.messages);
  EXPECT_LT(on.shuffle.cross_node_messages, off.shuffle.cross_node_messages);
  // Combining merged at least something on this skewed graph, and the
  // uncoalesced path combined nothing.
  EXPECT_GT(on.shuffle.tuples_combined, 0u);
  EXPECT_EQ(off.shuffle.tuples_combined, 0u);
  EXPECT_EQ(off.shuffle.coalesced_packets, 0u);
}

TEST(Coalesce, PageRankMatchesUncoalescedBlock) {
  expect_pr_equivalent(kvmsr::MapBinding::kBlock);
}

TEST(Coalesce, PageRankMatchesUncoalescedPbmw) {
  expect_pr_equivalent(kvmsr::MapBinding::kPBMW);
}

TEST(Coalesce, BfsMatchesUncoalesced) {
  // BFS maps one key per lane, and its node relays send those map tasks
  // without a WorkerThread on the emitting lanes, so this exercises the
  // flush-hint + poll-time flush paths. Distances, round count, and
  // traversed-edge totals are order-insensitive and must be exactly equal;
  // parents may legitimately differ (of the tuples that bring a vertex its
  // level, the first to arrive sets its parent, and coalescing reorders
  // arrivals), so the parents are instead checked to form a BFS tree.
  const Graph g = rmat(8, {.symmetrize = true}, 33);
  auto run = [&g](std::uint32_t coalesce) {
    EnvGuard g1("UD_COALESCE", std::to_string(coalesce).c_str());
    EnvGuard g2("UD_SHARDS", nullptr);
    Machine m(MachineConfig::scaled(4));
    DeviceGraph dg = upload_graph(m, g);
    return bfs::App::install(m, dg, {.root = 2}).run();
  };
  const bfs::Result off = run(1);
  const bfs::Result on = run(16);
  EXPECT_EQ(on.dist, off.dist);
  EXPECT_EQ(on.rounds, off.rounds);
  EXPECT_EQ(on.traversed_edges, off.traversed_edges);
  expect_bfs_tree(g, 2, on.dist, on.parent);
}

TEST(Coalesce, TriangleCountMatchesUncoalesced) {
  auto run = [](std::uint32_t coalesce, kvmsr::MapBinding binding) {
    EnvGuard g1("UD_COALESCE", std::to_string(coalesce).c_str());
    EnvGuard g2("UD_SHARDS", nullptr);
    Machine m(MachineConfig::scaled(2));
    Graph g = rmat(8, {.symmetrize = true}, 5);
    DeviceGraph dg = upload_graph(m, g);
    return tc::App::install(m, dg, {.map_binding = binding}).run();
  };
  for (const auto binding : {kvmsr::MapBinding::kBlock, kvmsr::MapBinding::kPBMW}) {
    const tc::Result off = run(1, binding);
    const tc::Result on = run(16, binding);
    EXPECT_EQ(on.triangles, off.triangles);
    EXPECT_EQ(on.pairs, off.pairs);  // no combiner: every pair still shipped
  }
}

TEST(Coalesce, GnnMatchesUncoalesced) {
  auto run = [](std::uint32_t coalesce) {
    EnvGuard g1("UD_COALESCE", std::to_string(coalesce).c_str());
    EnvGuard g2("UD_SHARDS", nullptr);
    Machine m(MachineConfig::scaled(2));
    Graph g = rmat(7, {}, 9);
    DeviceGraph dg = upload_graph(m, g);
    std::vector<double> feats(g.num_vertices() * gnn::kDims);
    for (std::size_t i = 0; i < feats.size(); ++i)
      feats[i] = 0.25 * static_cast<double>(i % 17) - 1.0;
    return gnn::App::install(m, dg, feats).run();
  };
  const gnn::Result off = run(1);
  const gnn::Result on = run(16);
  ASSERT_EQ(on.aggregated.size(), off.aggregated.size());
  for (std::size_t i = 0; i < off.aggregated.size(); ++i)
    EXPECT_NEAR(on.aggregated[i], off.aggregated[i], 1e-12) << "slot " << i;
}

TEST(Coalesce, SpecFactorAppliesWithoutEnv) {
  // Per-job opt-in via JobSpec::coalesce_tuples (no UD_COALESCE in the
  // environment) must coalesce too — and only the opted-in job.
  EnvGuard g1("UD_COALESCE", nullptr);
  EnvGuard g2("UD_SHARDS", nullptr);
  Machine m(MachineConfig::scaled(4));
  Graph g = rmat(8, {}, 21);
  SplitGraph sg = split_vertices(g, 32);
  DeviceGraph dg = upload_split_graph(m, sg);
  pr::Options opt;
  opt.iterations = 1;
  opt.coalesce_tuples = 16;
  pr::Result r = pr::App::install(m, dg, sg, opt).run();
  EXPECT_GT(r.rank.size(), 0u);
  EXPECT_GT(m.stats().shuffle.coalesced_packets, 0u);
}

TEST(Coalesce, FactorOneIsExactlyTheClassicShuffle) {
  // UD_COALESCE=1 (and unset) must leave the classic per-tuple path: no
  // packets, one message per emitted tuple.
  EnvGuard g1("UD_COALESCE", "1");
  EnvGuard g2("UD_SHARDS", nullptr);
  Machine m(MachineConfig::scaled(2));
  Graph g = rmat(7, {.symmetrize = true}, 5);
  DeviceGraph dg = upload_graph(m, g);
  tc::Result r = tc::App::install(m, dg, {}).run();
  const ShuffleStats& s = m.stats().shuffle;
  EXPECT_GT(r.pairs, 0u);
  EXPECT_EQ(s.coalesced_packets, 0u);
  EXPECT_EQ(s.tuples_combined, 0u);
  EXPECT_EQ(s.messages, s.tuples_emitted);
}

}  // namespace
}  // namespace updown
