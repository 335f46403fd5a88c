// Figure 9 (left) + Table 8: PageRank strong scaling on the simulated
// UpDown machine. Prints the speedup-vs-nodes series for an Erdős–Rényi, a
// Forest Fire, and an RMAT graph (the paper's graph families), plus absolute
// giga-updates/second and the host-CPU baseline time for reference.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "apps/pagerank.hpp"
#include "baseline/baseline.hpp"
#include "bench/bench_util.hpp"
#include "graph/generators.hpp"

using namespace updown;

namespace {

struct GraphCase {
  std::string name;
  Graph graph;
};

}  // namespace

int main() {
  const auto nodes = bench::node_sweep();
  const std::uint32_t s = bench::graph_scale(15);
  const unsigned iterations = 1;
  const std::uint64_t max_degree = 64;  // paper: 512 at full scale

  std::vector<GraphCase> cases;
  cases.push_back({"Erdos-Renyi", erdos_renyi(s)});
  cases.push_back({"ForestFire", forest_fire(1ull << s)});
  cases.push_back({"RMAT-s" + std::to_string(s), rmat(s)});

  std::printf("Figure 9 (left) / Table 8 reproduction: PageRank strong scaling\n");
  std::printf("graphs at scale %u (~%llu vertices), %u iterations, split max degree %llu\n",
              s, 1ull << s, iterations, (unsigned long long)max_degree);

  std::vector<bench::Series> speedup_cols, gups_cols;
  for (auto& gc : cases) {
    SplitGraph sg = split_vertices(gc.graph, max_degree);

    const auto cpu_t0 = std::chrono::steady_clock::now();
    (void)baseline::pagerank(gc.graph, iterations);
    const double cpu_ms =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - cpu_t0)
            .count();

    std::vector<Tick> durations;
    bench::Series gups{gc.name, {}};
    for (std::uint32_t n : nodes) {
      Machine m(MachineConfig::scaled(n));
      DeviceGraph dg = upload_split_graph(m, sg);
      pr::Options opt;
      opt.iterations = iterations;
      pr::Result r = pr::App::install(m, dg, sg, opt).run();
      durations.push_back(r.duration());
      gups.values.push_back(r.gups());
    }
    speedup_cols.push_back({gc.name, bench::speedups(durations)});
    gups_cols.push_back(gups);
    std::printf("  %-14s m=%-9llu CPU baseline (this host, serial): %.1f ms; "
                "UpDown 1-node simulated time: %.3f ms\n",
                gc.name.c_str(), (unsigned long long)gc.graph.num_edges(), cpu_ms,
                1e3 * ticks_to_seconds(durations.front()));
  }

  bench::print_table("PR speedup vs 1 node (Table 8 analog)", "Nodes", nodes, speedup_cols);
  bench::print_table("PR absolute giga-updates/second", "Nodes", nodes, gups_cols);
  return 0;
}
