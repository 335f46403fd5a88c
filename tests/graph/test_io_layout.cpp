#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/layout.hpp"

namespace updown {
namespace {

class GraphIo : public ::testing::Test {
 protected:
  std::string tmp(const std::string& name) {
    const auto dir = std::filesystem::temp_directory_path() / "ud_graph_io";
    std::filesystem::create_directories(dir);
    return (dir / name).string();
  }
};

TEST_F(GraphIo, BinaryRoundTrip) {
  Graph g = rmat(8);
  write_binary(g, tmp("rmat8"));
  Graph h = read_binary(tmp("rmat8"));
  EXPECT_EQ(g.offsets(), h.offsets());
  EXPECT_EQ(g.neighbors(), h.neighbors());
}

TEST_F(GraphIo, EdgeListRoundTrip) {
  Graph g = rmat(7, {}, 5);
  write_edge_list(g, tmp("rmat7.txt"));
  Graph h = read_edge_list(tmp("rmat7.txt"));
  // An edge list cannot represent trailing isolated vertices, so compare the
  // edge structure, not vertex counts.
  EXPECT_EQ(g.num_edges(), h.num_edges());
  EXPECT_EQ(g.neighbors(), h.neighbors());
  for (VertexId v = 0; v < h.num_vertices(); ++v)
    EXPECT_EQ(g.offset(v), h.offset(v)) << "vertex " << v;
}

TEST_F(GraphIo, EdgeListSkipsHeadersAndComments) {
  const std::string path = tmp("hdr.txt");
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("vertices 3 edges 2\n# comment\n0 1\n% other\n1 2\n", f);
    std::fclose(f);
  }
  Graph g = read_edge_list(path, /*skip_lines=*/1);
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST_F(GraphIo, MissingFileThrows) {
  EXPECT_THROW(read_edge_list(tmp("nope.txt")), std::runtime_error);
  EXPECT_THROW(read_binary(tmp("nope")), std::runtime_error);
}

TEST(Layout, UploadedRecordsMatchHostGraph) {
  Machine m(MachineConfig::scaled(4));
  Graph g = rmat(7);
  DeviceGraph dg = upload_graph(m, g);
  auto& mem = m.memory();
  EXPECT_EQ(dg.num_vertices, g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); v += 7) {
    EXPECT_EQ(mem.host_load<Word>(dg.field_addr(v, DeviceGraph::kId)), v);
    EXPECT_EQ(mem.host_load<Word>(dg.field_addr(v, DeviceGraph::kDegree)), g.degree(v));
    EXPECT_EQ(mem.host_load<Word>(dg.field_addr(v, DeviceGraph::kOwnerDegree)), g.degree(v));
    // The neighbor pointer dereferences to the right first neighbor.
    if (g.degree(v) > 0) {
      const Addr nbr = mem.host_load<Word>(dg.field_addr(v, DeviceGraph::kNbrPtr));
      EXPECT_EQ(mem.host_load<Word>(nbr), g.neighbors_of(v)[0]);
    }
  }
}

TEST(Layout, SplitUploadCarriesOwnerFields) {
  Machine m(MachineConfig::scaled(2));
  Graph g = star_graph(64);
  SplitGraph sg = split_vertices(g, 8, /*shuffle=*/false);
  DeviceGraph dg = upload_split_graph(m, sg);
  EXPECT_EQ(dg.num_original, g.num_vertices());
  EXPECT_EQ(dg.num_vertices, sg.num_sub());
  for (VertexId s = 0; s < sg.num_sub(); ++s) {
    EXPECT_EQ(m.memory().host_load<Word>(dg.field_addr(s, DeviceGraph::kId)), sg.owner[s]);
    EXPECT_EQ(m.memory().host_load<Word>(dg.field_addr(s, DeviceGraph::kOwnerDegree)),
              sg.owner_degree[s]);
  }
}

TEST(Layout, PlacementControlsNodeSpread) {
  Machine m(MachineConfig::scaled(8));
  Graph g = rmat(8);
  GraphPlacement narrow{.first_node = 0, .nr_nodes = 2, .block_size = 4096};
  DeviceGraph dg = upload_graph(m, g, narrow);
  // All vertex-array blocks live on nodes 0 and 1 (Figure 12's mem sweep).
  for (VertexId v = 0; v < g.num_vertices(); v += 64)
    EXPECT_LT(m.memory().translate(dg.vertex_addr(v)).node, 2u);
}

}  // namespace
}  // namespace updown
