// Simulated BFS vs the CPU oracle: exact distances, valid parents, traversed
// edge counts, across graphs and machine shapes.
#include "apps/bfs.hpp"

#include <gtest/gtest.h>

#include "baseline/baseline.hpp"
#include "bfs_tree.hpp"
#include "graph/generators.hpp"

namespace updown::bfs {
namespace {

void expect_matches_oracle(const Graph& g, std::uint32_t nodes, VertexId root) {
  Machine m(MachineConfig::scaled(nodes));
  DeviceGraph dg = upload_graph(m, g);
  Options opt;
  opt.root = root;
  Result r = App::install(m, dg, opt).run();

  const auto oracle = baseline::bfs(g, root);
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    EXPECT_EQ(r.dist[v], oracle.dist[v]) << "vertex " << v;
  expect_bfs_tree(g, root, r.dist, r.parent);
  EXPECT_EQ(r.traversed_edges, oracle.traversed_edges);
  EXPECT_EQ(r.rounds, oracle.rounds);
  EXPECT_GT(r.done_tick, r.start_tick);
}

TEST(Bfs, PathGraph) { expect_matches_oracle(path_graph(64), 1, 0); }

TEST(Bfs, StarFromHubAndFromLeaf) {
  expect_matches_oracle(star_graph(63), 2, 0);
  expect_matches_oracle(star_graph(63), 2, 5);
}

TEST(Bfs, RmatSymmetric) {
  expect_matches_oracle(rmat(8, {.symmetrize = true}), 2, 1);
}

TEST(Bfs, RmatDirectedWithUnreachable) {
  expect_matches_oracle(rmat(8), 4, 0);
}

TEST(Bfs, ErdosRenyi) {
  expect_matches_oracle(erdos_renyi(9, 8, 21, /*symmetrize=*/true), 4, 3);
}

TEST(Bfs, DisconnectedComponentStaysInf) {
  Graph g = Graph::from_edges(6, {{0, 1}, {1, 2}, {3, 4}}, true);
  expect_matches_oracle(g, 1, 0);
}

TEST(Bfs, IsolatedRootTerminatesImmediately) {
  Graph g = Graph::from_edges(4, {{1, 2}}, true);
  Machine m(MachineConfig::scaled(1));
  DeviceGraph dg = upload_graph(m, g);
  Result r = App::install(m, dg, {.root = 0}).run();
  EXPECT_EQ(r.dist[0], 0u);
  EXPECT_EQ(r.dist[1], kInfDist);
  EXPECT_EQ(r.rounds, 1u);
  EXPECT_EQ(r.traversed_edges, 0u);
}

class BfsShapes : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(BfsShapes, OracleHoldsAcrossMachineSizes) {
  expect_matches_oracle(rmat(8, {.symmetrize = true}, 17), GetParam(), 2);
}

INSTANTIATE_TEST_SUITE_P(Nodes, BfsShapes, ::testing::Values(1u, 2u, 4u, 8u));

TEST(Bfs, RootOutOfRangeThrows) {
  Machine m(MachineConfig::scaled(1));
  Graph g = path_graph(4);
  DeviceGraph dg = upload_graph(m, g);
  EXPECT_THROW(App::install(m, dg, {.root = 99}), std::invalid_argument);
}

TEST(Bfs, StrongScalingOnLargeGraph) {
  Graph g = rmat(14, {.symmetrize = true});
  Tick t1 = 0, t8 = 0;
  for (std::uint32_t nodes : {1u, 8u}) {
    Machine m(MachineConfig::scaled(nodes));
    DeviceGraph dg = upload_graph(m, g);
    Result r = App::install(m, dg, {.root = 1}).run();
    (nodes == 1 ? t1 : t8) = r.duration();
  }
  EXPECT_LT(t8 * 2, t1);
}

}  // namespace
}  // namespace updown::bfs
