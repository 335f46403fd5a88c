// BFS application driver, mirroring the artifact's Listing 11:
//   ./bfs_udweave <graph_prefix> <lanes> <lanes_per_accel> <root_vid> [mem]
//
// <graph_prefix> names a tsv-produced binary pair; <lanes> selects the
// machine size (node count = lanes / (accels * lanes_per_accel)); <mem>
// sweeps the memory nodes of the {level, parent} array (Figure 12).
#include <cstdio>
#include <cstdlib>
#include <string>

#include "apps/bfs.hpp"
#include "graph/io.hpp"

using namespace updown;

int main(int argc, char** argv) {
  if (argc < 5) {
    std::fprintf(stderr, "usage: %s <graph_prefix> <lanes> <lanes_per_accel> <root_vid> [mem]\n",
                 argv[0]);
    return 2;
  }
  const std::string prefix = argv[1];
  const auto lanes = static_cast<std::uint32_t>(std::atoi(argv[2]));
  const auto lpa = static_cast<std::uint32_t>(std::atoi(argv[3]));
  const auto root = static_cast<VertexId>(std::strtoull(argv[4], nullptr, 10));

  const std::uint32_t accels = 4;
  const std::uint32_t lanes_per_node = accels * lpa;
  if (lanes % lanes_per_node != 0) {
    std::fprintf(stderr, "%s: lanes must be a multiple of %u\n", argv[0], lanes_per_node);
    return 2;
  }
  const std::uint32_t nodes = lanes / lanes_per_node;
  const auto mem = static_cast<std::uint32_t>(argc > 5 ? std::atoi(argv[5]) : nodes);

  Graph g = read_binary(prefix);
  Machine m(MachineConfig::scaled(nodes, accels, lpa));
  DeviceGraph dg = upload_graph(m, g);
  bfs::Options opt;
  opt.root = root;
  opt.result_mem_nodes = mem;
  bfs::Result r = bfs::App::install(m, dg, opt).run();

  std::printf("[UDSIM] %llu: [main_master__init] BFS Start\n",
              (unsigned long long)r.start_tick);
  std::printf("[UDSIM] %llu: [main_master__reduce_launcher_done] BFS finish\n",
              (unsigned long long)r.done_tick);
  std::printf("simulated time: %.6f s | %llu levels | traversed edges %llu | %.2f GTEPS\n",
              r.seconds(), (unsigned long long)r.rounds,
              (unsigned long long)r.traversed_edges, r.gteps());
  return 0;
}
