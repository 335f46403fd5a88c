// Figure 9 (center) + Table 9: BFS strong scaling. The paper's series are a
// com-orkut-like social graph (here: symmetric RMAT), a soc-livej-like graph
// that saturates early (here: a smaller symmetric RMAT — the saturation is a
// property of insufficient frontier work, which the small graph reproduces),
// and an ER graph. Prints speedups and absolute giga-traversed-edges/second.
// Every run's levels must equal baseline::bfs; each case also prints the
// shuffle tuples its diffusing BFS emitted per traversed edge (a vertex
// whose level falls twice is expanded twice).
#include <algorithm>
#include <cstdio>

#include "apps/bfs.hpp"
#include "baseline/baseline.hpp"
#include "bench/bench_util.hpp"
#include "graph/generators.hpp"

using namespace updown;

int main() {
  const auto nodes = bench::node_sweep();
  const std::uint32_t s = bench::graph_scale(15);

  struct Case {
    std::string name;
    Graph graph;
    VertexId root;
  };
  std::vector<Case> cases;
  cases.push_back({"RMAT-s" + std::to_string(s), rmat(s, {.symmetrize = true}), 1});
  cases.push_back({"small-social", rmat(s - 3, {.symmetrize = true}, 17), 1});
  cases.push_back({"Erdos-Renyi", erdos_renyi(s, 16, 7, true), 0});

  std::printf("Figure 9 (center) / Table 9 reproduction: BFS strong scaling\n");

  bool exact = true;
  std::vector<bench::Series> speedup_cols, gteps_cols;
  for (auto& c : cases) {
    const auto oracle = baseline::bfs(c.graph, c.root);
    std::vector<Tick> durations;
    bench::Series gteps{c.name, {}};
    std::printf("  %-14s m=%-9llu levels=%llu traversed=%llu emitted/traversed:",
                c.name.c_str(), (unsigned long long)c.graph.num_edges(),
                (unsigned long long)oracle.rounds, (unsigned long long)oracle.traversed_edges);
    for (std::uint32_t n : nodes) {
      Machine m(MachineConfig::scaled(n));
      DeviceGraph dg = upload_graph(m, c.graph);
      bfs::Result r = bfs::App::install(m, dg, {.root = c.root}).run();
      if (r.dist != oracle.dist || r.traversed_edges != oracle.traversed_edges) {
        std::fprintf(stderr, "FAIL: %s diverged from baseline::bfs at %u nodes\n",
                     c.name.c_str(), n);
        exact = false;
      }
      std::printf(" %.5f", static_cast<double>(m.stats().shuffle.tuples_emitted) /
                               static_cast<double>(std::max<std::uint64_t>(1, r.traversed_edges)));
      durations.push_back(r.duration());
      gteps.values.push_back(r.gteps());
    }
    std::printf("\n");
    speedup_cols.push_back({c.name, bench::speedups(durations)});
    gteps_cols.push_back(gteps);
  }

  bench::print_table("BFS speedup vs 1 node (Table 9 analog)", "Nodes", nodes, speedup_cols);
  bench::print_table("BFS absolute giga-traversed-edges/second", "Nodes", nodes, gteps_cols);
  return exact ? 0 : 1;
}
