// Figure 9 (left) + Table 8: PageRank strong scaling on the simulated
// UpDown machine. Prints the speedup-vs-nodes series for an Erdős–Rényi, a
// Forest Fire, and an RMAT graph (the paper's graph families), plus absolute
// giga-updates/second and the host-CPU baseline time for reference.
//
// A second section compares the shuffle with and without destination
// coalescing (pr::Options::coalesce_tuples = 16) on a pinned dense RMAT at
// 16 nodes / 512 lanes with the paper's per-lane network bandwidth share
// (MachineConfig::scaled_netbound), prints the per-phase traffic summaries,
// and writes BENCH_fig9_coalesce.json; under UD_BENCH_ENFORCE the coalesced
// run must cut cross-node shuffle messages by at least 4x AND finish in
// fewer simulated cycles.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "apps/pagerank.hpp"
#include "baseline/baseline.hpp"
#include "bench/bench_util.hpp"
#include "graph/generators.hpp"
#include "trace/trace.hpp"

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

  // --- Shuffle coalescing at 16 nodes (512 lanes) --------------------------
  // A pinned configuration, independent of UD_BENCH_SCALE, so the enforce
  // gate below is deterministic: a dense RMAT (edge factor 64, several
  // tuples per lane pair) on the network-bandwidth-faithful machine
  // (scaled_netbound — under plain scaled() each lane has 64x the paper's
  // injection share and fewer messages cannot translate into cycles).
  // The comparison drives the factor through the job spec; an ambient
  // UD_COALESCE would override BOTH sides and make it degenerate, so drop it
  // for the rest of this process.
  ::unsetenv("UD_COALESCE");
  const std::uint32_t big = 16;
  Graph dense = rmat(15, {.edge_factor = 64});
  SplitGraph sg = split_vertices(dense, max_degree);
  struct CoalesceRun {
    Tick duration = 0;
    MachineStats stats;
    std::string trace_path{};
    Tick trace_slice = 0;
    std::vector<double> imbalance{};  // per-slice peak/mean lane busy (udtrace)
  };
  auto run_coalesced = [&](std::uint32_t coalesce) {
    MachineConfig cfg = MachineConfig::scaled_netbound(big);
    // Each side also records a udtrace timeline so the phase structure and
    // lane imbalance behind the headline cycle counts can be inspected in
    // Perfetto. UD_TRACE, if set, overrides this path for both runs.
    cfg.trace = "TRACE_fig9_pr_c" + std::to_string(coalesce) + ".json";
    Machine m(cfg);
    DeviceGraph dg = upload_split_graph(m, sg);
    pr::Options opt;
    opt.iterations = iterations;
    opt.coalesce_tuples = coalesce;
    pr::Result r = pr::App::install(m, dg, sg, opt).run();
    CoalesceRun out{r.duration(), m.stats()};
    if (const Tracer* t = m.tracer()) {
      out.trace_path = t->path();
      out.trace_slice = t->slice();
      out.imbalance = t->imbalance_series();
    }
    return out;
  };
  std::printf("\n=== shuffle coalescing, RMAT-s15-ef64 (m=%llu) at %u nodes "
              "(%u lanes, paper per-lane net bandwidth) ===\n",
              (unsigned long long)dense.num_edges(), big,
              big * MachineConfig::scaled(big).lanes_per_node());
  const CoalesceRun off = run_coalesced(1);
  std::printf("coalesce=1 (classic per-tuple shuffle), %llu simulated cycles:\n",
              (unsigned long long)off.duration);
  off.stats.print_traffic_summary();
  const CoalesceRun on = run_coalesced(16);
  std::printf("coalesce=16 (packed packets + f64 sum combining), %llu simulated cycles:\n",
              (unsigned long long)on.duration);
  on.stats.print_traffic_summary();

  const double msg_ratio =
      on.stats.shuffle.cross_node_messages
          ? static_cast<double>(off.stats.shuffle.cross_node_messages) /
                static_cast<double>(on.stats.shuffle.cross_node_messages)
          : 0.0;
  const double cycle_gain =
      on.duration ? static_cast<double>(off.duration) / static_cast<double>(on.duration)
                  : 0.0;
  std::printf("cross-node shuffle messages %llu -> %llu (%.2fx fewer); "
              "cycles %llu -> %llu (%.2fx)\n",
              (unsigned long long)off.stats.shuffle.cross_node_messages,
              (unsigned long long)on.stats.shuffle.cross_node_messages, msg_ratio,
              (unsigned long long)off.duration, (unsigned long long)on.duration,
              cycle_gain);
  auto imbalance_summary = [](const CoalesceRun& r) {
    double mean = 0.0, peak = 0.0;
    std::uint64_t active = 0;
    for (double x : r.imbalance) {
      if (x <= 0.0) continue;  // empty slices carry no load to balance
      mean += x;
      if (x > peak) peak = x;
      ++active;
    }
    if (active) mean /= static_cast<double>(active);
    return std::pair<double, double>{mean, peak};
  };
  for (const auto* r : {&off, &on}) {
    if (r->trace_path.empty()) continue;
    const auto [mean_imb, peak_imb] = imbalance_summary(*r);
    std::printf("coalesce=%d udtrace: %s (slice %llu cycles, %zu slices, "
                "lane imbalance mean %.2f peak %.2f)\n",
                r == &off ? 1 : 16, r->trace_path.c_str(),
                (unsigned long long)r->trace_slice, r->imbalance.size(), mean_imb,
                peak_imb);
  }

  {
    bench::Json json("BENCH_fig9_coalesce.json");
    json.str("benchmark", "fig9_pagerank_coalesce");
    json.str("graph", "RMAT-s15-ef64");
    json.u64("nodes", big);
    json.u64("lanes", big * MachineConfig::scaled(big).lanes_per_node());
    json.u64("iterations", iterations);
    json.begin_array("runs");
    for (const auto* r : {&off, &on}) {
      json.begin_object();
      json.u64("coalesce_tuples", r == &off ? 1 : 16);
      json.u64("simulated_cycles", r->duration);
      json.u64("shuffle_messages", r->stats.shuffle.messages);
      json.u64("shuffle_cross_node_messages", r->stats.shuffle.cross_node_messages);
      json.u64("shuffle_bytes", r->stats.shuffle.bytes);
      json.u64("tuples_emitted", r->stats.shuffle.tuples_emitted);
      json.u64("tuples_combined", r->stats.shuffle.tuples_combined);
      json.num("coalescing_factor", r->stats.shuffle.coalescing_factor());
      if (!r->trace_path.empty()) {
        const auto [mean_imb, peak_imb] = imbalance_summary(*r);
        json.str("trace_file", r->trace_path);
        json.u64("trace_slice_cycles", r->trace_slice);
        json.u64("trace_slices", r->imbalance.size());
        json.num("lane_imbalance_mean", mean_imb);
        json.num("lane_imbalance_peak", peak_imb);
      }
      json.end();
    }
    json.end();
    json.num("cross_node_message_reduction", msg_ratio);
    json.num("cycle_speedup", cycle_gain);
  }

  if (std::getenv("UD_BENCH_ENFORCE")) {
    if (msg_ratio < 4.0) {
      std::fprintf(stderr,
                   "fig9_pagerank: FAIL: coalesce=16 cut cross-node shuffle messages "
                   "only %.2fx (floor 4x)\n",
                   msg_ratio);
      return 1;
    }
    if (on.duration >= off.duration) {
      std::fprintf(stderr,
                   "fig9_pagerank: FAIL: coalesce=16 did not improve simulated time "
                   "(%llu -> %llu cycles)\n",
                   (unsigned long long)off.duration, (unsigned long long)on.duration);
      return 1;
    }
  }
  return 0;
}
