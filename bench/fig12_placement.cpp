// Figure 12: performance impact of NRnodes in the DRAMmalloc() allocation of
// the graph structure (PR) and the {level, parent} array (BFS; the paper
// sweeps its frontier, which this repo's diffusing BFS does not keep), at a
// fixed compute-node count. "Only a single number was changed in a
// DRAMmalloc() call to create each layout!" — here that number is the
// placement's nr_nodes field.
#include <cstdio>

#include "apps/bfs.hpp"
#include "apps/pagerank.hpp"
#include "bench/bench_util.hpp"
#include "graph/generators.hpp"

using namespace updown;

int main() {
  const std::uint32_t compute_nodes = bench::scale_level() > 1 ? 32 : 16;
  std::vector<std::uint32_t> mem_nodes;
  for (std::uint32_t n = 1; n <= compute_nodes; n *= 2) mem_nodes.push_back(n);

  const std::uint32_t s = bench::graph_scale(14);
  Graph g = rmat(s);
  SplitGraph sg = split_vertices(g, 64);
  Graph gsym = rmat(s, {.symmetrize = true}, 3);

  std::printf("Figure 12 reproduction: DRAMmalloc NRnodes sweep, %u compute nodes\n",
              compute_nodes);

  bench::Series pr_col{"PR (graph)", {}}, bfs_col{"BFS (levels)", {}};
  Tick pr_base = 0, bfs_base = 0;
  for (std::uint32_t mem : mem_nodes) {
    {
      MachineConfig cfg = MachineConfig::scaled(compute_nodes);
      // Preserve the paper's demand:supply ratio: its Fig.12 runs 64 full
      // nodes (2048 lanes each) against 2-64 memory nodes; our nodes carry
      // 64x fewer lanes, so per-node DRAM bandwidth is scaled down by the
      // same factor to keep narrow placements memory-bound.
      cfg.bw_dram_node = 64.0;
      Machine m(cfg);
      GraphPlacement place;
      place.nr_nodes = mem;  // the single DRAMmalloc number being swept
      DeviceGraph dg = upload_graph(m, sg.g, place, &sg);
      pr::Options opt;
      opt.iterations = 1;
      opt.value_placement.nr_nodes = mem;
      pr::Result r = pr::App::install(m, dg, sg, opt).run();
      if (pr_base == 0) pr_base = r.duration();
      pr_col.values.push_back(static_cast<double>(pr_base) / r.duration());
    }
    {
      MachineConfig cfg = MachineConfig::scaled(compute_nodes);
      cfg.bw_dram_node = 64.0;
      Machine m(cfg);
      DeviceGraph dg = upload_graph(m, gsym);
      bfs::Options opt;
      opt.root = 1;
      opt.result_mem_nodes = mem;
      bfs::Result r = bfs::App::install(m, dg, opt).run();
      if (bfs_base == 0) bfs_base = r.duration();
      bfs_col.values.push_back(static_cast<double>(bfs_base) / r.duration());
    }
  }
  bench::print_table("Speedup vs narrowest placement (Figure 12 analog)", "MemNodes",
                     mem_nodes, {pr_col, bfs_col});
  return 0;
}
