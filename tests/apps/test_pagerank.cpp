// Simulated PageRank vs the CPU oracle, across machine shapes, graphs,
// splitting parameters, and bindings.
#include "apps/pagerank.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "baseline/baseline.hpp"
#include "graph/generators.hpp"

namespace updown::pr {
namespace {

void expect_matches_oracle(const Graph& g, std::uint32_t nodes, std::uint64_t max_degree,
                           unsigned iterations,
                           kvmsr::MapBinding binding = kvmsr::MapBinding::kBlock) {
  Machine m(MachineConfig::scaled(nodes));
  SplitGraph sg = split_vertices(g, max_degree);
  DeviceGraph dg = upload_split_graph(m, sg);
  Options opt;
  opt.iterations = iterations;
  opt.map_binding = binding;
  App& app = App::install(m, dg, sg, opt);
  Result r = app.run();

  const auto oracle = baseline::pagerank(g, iterations);
  ASSERT_EQ(r.rank.size(), oracle.size());
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    EXPECT_NEAR(r.rank[v], oracle[v], 1e-9) << "vertex " << v;
  EXPECT_GT(r.done_tick, r.start_tick);
  EXPECT_EQ(r.edge_updates, g.num_edges() * iterations);
}

TEST(PageRank, MatchesOracleOnRmat) {
  expect_matches_oracle(rmat(8), 2, 16, 3);
}

TEST(PageRank, MatchesOracleOnErdosRenyi) {
  expect_matches_oracle(erdos_renyi(8), 4, 64, 3);
}

TEST(PageRank, MatchesOracleWithoutSplitting) {
  expect_matches_oracle(rmat(7), 1, 1u << 20, 2);  // max_degree huge: no split
}

TEST(PageRank, MatchesOracleWithAggressiveSplitting) {
  expect_matches_oracle(star_graph(200), 2, 4, 4);
}

TEST(PageRank, MatchesOracleWithPbmwBinding) {
  expect_matches_oracle(rmat(7, {}, 11), 2, 32, 2, kvmsr::MapBinding::kPBMW);
}

TEST(PageRank, SingleIterationOnPath) {
  expect_matches_oracle(path_graph(64), 1, 8, 1);
}

class PrShapes : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(PrShapes, OracleHoldsAcrossMachineSizes) {
  expect_matches_oracle(rmat(7, {}, 3), GetParam(), 32, 2);
}

INSTANTIATE_TEST_SUITE_P(Nodes, PrShapes, ::testing::Values(1u, 2u, 4u, 8u));

TEST(PageRank, StrongScalingOnSkewedGraph) {
  // The Figure 9 (left) property: more nodes, shorter simulated time. The
  // graph must be large enough that per-lane work exceeds the protocol
  // latency floor (as in the paper, whose smallest graphs have ~1M vertices).
  Graph g = rmat(15);
  SplitGraph sg = split_vertices(g, 64);
  Tick t1 = 0, t8 = 0;
  for (std::uint32_t nodes : {1u, 8u}) {
    Machine m(MachineConfig::scaled(nodes));
    DeviceGraph dg = upload_split_graph(m, sg);
    Options opt;
    opt.iterations = 1;
    Result r = App::install(m, dg, sg, opt).run();
    (nodes == 1 ? t1 : t8) = r.duration();
  }
  EXPECT_LT(t8 * 2, t1);
}

TEST(PageRank, GupsIsPositiveAndFinite) {
  Machine m(MachineConfig::scaled(2));
  Graph g = rmat(8);
  SplitGraph sg = split_vertices(g, 64);
  DeviceGraph dg = upload_split_graph(m, sg);
  Result r = App::install(m, dg, sg, {.iterations = 1}).run();
  EXPECT_GT(r.gups(), 0.0);
  EXPECT_LT(r.gups(), 1e6);
}

// The packed shuffle is gone: Options::coalesce_tuples is a tombstone that
// accepts only 1, the one path.
TEST(PageRank, CoalesceTuplesAboveOneThrows) {
  Machine m(MachineConfig::scaled(2));
  Graph g = rmat(7, {}, 3);
  SplitGraph sg = split_vertices(g, 32);
  DeviceGraph dg = upload_split_graph(m, sg);
  EXPECT_THROW(App::install(m, dg, sg, {.iterations = 2, .coalesce_tuples = 16}),
               std::invalid_argument);
  Result r = App::install(m, dg, sg, {.iterations = 2, .coalesce_tuples = 1}).run();
  const auto oracle = baseline::pagerank(g, 2);
  ASSERT_EQ(r.rank.size(), oracle.size());
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    EXPECT_NEAR(r.rank[v], oracle[v], 1e-9) << "vertex " << v;
  EXPECT_EQ(r.edge_updates, g.num_edges() * 2);
}

}  // namespace
}  // namespace updown::pr
