// Shared BFS-tree check: any valid BFS tree is accepted, so parents are not
// compared with an oracle's. The root is its own parent, every other reached
// vertex's parent is one level closer along an edge of g, and unreachable
// vertices have none.
#pragma once

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "graph/layout.hpp"

namespace updown {

inline void expect_bfs_tree(const Graph& g, VertexId root, const std::vector<Word>& dist,
                            const std::vector<Word>& parent, const std::string& what = "") {
  ASSERT_EQ(dist.size(), g.num_vertices()) << what;
  ASSERT_EQ(parent.size(), g.num_vertices()) << what;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (v == root) {
      EXPECT_EQ(parent[v], root) << what;
    } else if (dist[v] != kInfDist) {
      ASSERT_NE(parent[v], kNoParent) << what << " vertex " << v;
      ASSERT_LT(parent[v], g.num_vertices()) << what << " vertex " << v;
      EXPECT_EQ(dist[parent[v]] + 1, dist[v]) << what << " vertex " << v;
      EXPECT_TRUE(g.has_edge(parent[v], v)) << what << " vertex " << v;
    } else {
      EXPECT_EQ(parent[v], kNoParent) << what << " vertex " << v;
    }
  }
}

}  // namespace updown
