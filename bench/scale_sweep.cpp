// scale_sweep: the memory-lean engine at paper-scale lane counts.
//
// The paper's machine is 16,384 nodes x 2,048 lanes; reproducing its
// extreme-scaling claims requires the simulator itself to scale. This bench
// demonstrates the two host-side properties that make that possible:
//
//   1. Memory. Lane state is struct-of-arrays with lazily materialized
//      cores (sim/lane.hpp): an idle configured lane costs a few flat words,
//      not a 64 KiB scratchpad + context table. The sweep constructs
//      machines at 512 / 2,048 / 8,192 simulated nodes (32 lanes each),
//      records the resident-set delta and the resident bytes per configured
//      lane, then runs PageRank end-to-end on each. A final section
//      force-materializes every lane of the 512-node machine
//      (LaneTable::materialize_all — the old eager layout) and reports the
//      eager/lazy ratio, which must be >= 10x under UD_BENCH_ENFORCE.
//
//   2. Throughput at scale. Each size runs a shard sweep (1/2/4/8 host
//      shards) recording wall time, events/s,
//      and events/s per shard; every row's simulation fingerprint (final
//      tick, events, messages, charged cycles, rank checksum) must be
//      bit-identical to the serial row — always fatal, not just under
//      enforce.
//
// Writes BENCH_scale_sweep.json. UD_SCALE_MAX_NODES (strict parse, default
// 8192) caps the sweep so CI can smoke-test the 512-node point quickly.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "apps/pagerank.hpp"
#include "bench/bench_util.hpp"
#include "common/env.hpp"
#include "graph/generators.hpp"

using namespace updown;

namespace {

/// Current resident set in bytes (/proc/self/statm field 2; 0 off-Linux).
std::uint64_t current_rss() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (!f) return 0;
  unsigned long long size = 0, resident = 0;
  const int got = std::fscanf(f, "%llu %llu", &size, &resident);
  std::fclose(f);
  if (got != 2) return 0;
  return resident * static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
}

/// Process-lifetime peak resident set in bytes.
std::uint64_t peak_rss() {
  struct rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024;
}

struct Fingerprint {
  Tick done = 0;
  std::uint64_t events = 0, messages = 0, charged = 0, updates = 0;
  bool operator==(const Fingerprint&) const = default;
};

struct ShardRow {
  std::uint32_t shards = 0;
  double wall_s = 0;
  std::uint64_t events = 0, windows = 0;
  Fingerprint fp;
};

struct SizePoint {
  std::uint32_t nodes = 0;
  std::uint64_t lanes = 0;
  std::uint64_t machine_rss_bytes = 0;   ///< RSS delta of constructing the machine
  std::uint64_t idle_bytes_per_lane = 0; ///< machine_rss_bytes / lanes (upper bound)
  std::uint64_t materialized_after_run = 0;
  std::vector<ShardRow> rows;
};

}  // namespace

int main() {
  // The sweep drives every knob through MachineConfig so an ambient CI
  // environment (UD_SHARDS=4 etc.) cannot skew the matrix.
  for (const char* v : {"UD_SHARDS", "UD_CHECK", "UD_TRACE", "UD_COALESCE"})
    ::unsetenv(v);

  const std::uint32_t max_nodes =
      static_cast<std::uint32_t>(env_u64("UD_SCALE_MAX_NODES", 8192, 1u << 20));
  std::vector<std::uint32_t> sizes;
  for (std::uint32_t n : {512u, 2048u, 8192u})
    if (n <= max_nodes) sizes.push_back(n);
  if (sizes.empty()) sizes.push_back(max_nodes);

  // One fixed graph for the whole sweep: the workload stays constant while
  // the machine grows, so the large configurations are mostly idle lanes —
  // exactly the regime the lazy layout exists for.
  Graph g = rmat(14, {}, 99);
  SplitGraph sg = split_vertices(g, 64);
  std::printf("scale_sweep: PageRank on RMAT-s14 (m=%llu), machines up to %u nodes\n",
              (unsigned long long)g.num_edges(), sizes.back());

  std::vector<SizePoint> points;
  bool fingerprints_identical = true;

  // --- Phase 1: resident cost of configured-but-idle machines -------------
  // Measured before anything heavy runs: glibc never returns freed arenas
  // to the OS, so once a PageRank run (or the eager demo below) has been
  // resident, later allocations reuse warm pages and RSS deltas read ~0.
  // Ascending sizes, with a throwaway construction first so the measured
  // delta is the machine, not one-time allocator growth.
  for (std::uint32_t n : sizes) {
    SizePoint pt;
    pt.nodes = n;
    { Machine warm(MachineConfig::scaled(n)); }
    const std::uint64_t rss0 = current_rss();
    {
      Machine m(MachineConfig::scaled(n));
      pt.lanes = m.config().total_lanes();
      pt.machine_rss_bytes = current_rss() - rss0;
      pt.idle_bytes_per_lane = pt.machine_rss_bytes / pt.lanes;
    }
    std::printf("  nodes=%-5u lanes=%-7llu idle machine rss %.1f MiB (%llu B/lane)\n", n,
                (unsigned long long)pt.lanes, pt.machine_rss_bytes / 1048576.0,
                (unsigned long long)pt.idle_bytes_per_lane);
    points.push_back(pt);
  }

  // --- Phase 2: eager vs lazy — the memory the SoA refactor saves ---------
  // Still before the throughput runs: the only resident history at this
  // point is the few-MiB idle constructions above, so the eager
  // materialization delta is genuine new memory, not arena reuse.
  const std::uint32_t demo_nodes = sizes.front();
  std::uint64_t lazy_bytes = 0, eager_bytes = 0, demo_lanes = 0;
  {
    { Machine warm(MachineConfig::scaled(demo_nodes)); }
    const std::uint64_t rss0 = current_rss();
    Machine m(MachineConfig::scaled(demo_nodes));
    demo_lanes = m.config().total_lanes();
    lazy_bytes = current_rss() - rss0;
    m.lane_table().materialize_all();
    eager_bytes = current_rss() - rss0;
  }
  // The lazy machine can be smaller than RSS page granularity after the
  // warm-up construction (measured delta 0): floor the denominator at one
  // page so the ratio stays finite and conservative.
  const std::uint64_t lazy_floor =
      std::max<std::uint64_t>(lazy_bytes, static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE)));
  const double eager_ratio = static_cast<double>(eager_bytes) / static_cast<double>(lazy_floor);
  std::printf("eager vs lazy at %u nodes (%llu lanes): %.1f MiB eager, %.1f MiB lazy "
              "(%.1fx)\n",
              demo_nodes, (unsigned long long)demo_lanes, eager_bytes / 1048576.0,
              lazy_bytes / 1048576.0, eager_ratio);

  // --- Phase 3: PageRank throughput across shard counts ------------------
  for (SizePoint& pt : points) {
    const std::uint32_t n = pt.nodes;
    const unsigned iterations = n >= 8192 ? 1 : 2;

    for (const std::uint32_t shards : {1u, 2u, 4u, 8u}) {
      MachineConfig cfg = MachineConfig::scaled(n);
      cfg.shards = shards;
      Machine m(cfg);
      DeviceGraph dg = upload_split_graph(m, sg);
      pr::Options opt;
      opt.iterations = iterations;
      const auto t0 = std::chrono::steady_clock::now();
      pr::Result r = pr::App::install(m, dg, sg, opt).run();
      const double wall =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

      ShardRow row;
      row.shards = shards;
      row.wall_s = wall;
      row.events = m.stats().events_executed;
      row.windows = m.engine_stats().windows;
      row.fp = {r.done_tick, m.stats().events_executed, m.stats().messages_sent,
                m.stats().charged_cycles, r.edge_updates};
      pt.rows.push_back(row);
      pt.materialized_after_run = m.lane_table().materialized_cores();

      if (!(row.fp == pt.rows.front().fp)) {
        fingerprints_identical = false;
        std::fprintf(stderr,
                     "scale_sweep: FAIL: fingerprint diverged at nodes=%u shards=%u "
                     "(done %llu vs %llu)\n",
                     n, shards, (unsigned long long)row.fp.done,
                     (unsigned long long)pt.rows.front().fp.done);
      }
      std::printf("  nodes=%-5u shards=%u  wall %.3fs  %8.0f ev/s (%8.0f /shard)  "
                  "windows=%llu done=%llu\n",
                  n, shards, wall, row.events / wall,
                  row.events / wall / shards, (unsigned long long)row.windows,
                  (unsigned long long)row.fp.done);
    }
    std::printf("  nodes=%-5u cores touched by run: %llu/%llu\n", n,
                (unsigned long long)pt.materialized_after_run,
                (unsigned long long)pt.lanes);
  }
  std::printf("peak rss over the whole sweep: %.1f MiB\n", peak_rss() / 1048576.0);

  {
    bench::Json json("BENCH_scale_sweep.json");
    json.str("benchmark", "scale_sweep");
    json.str("graph", "RMAT-s14");
    json.u64("graph_edges", g.num_edges());
    json.begin_array("sizes");
    for (const SizePoint& pt : points) {
      json.begin_object();
      json.u64("nodes", pt.nodes);
      json.u64("lanes", pt.lanes);
      json.u64("machine_rss_bytes", pt.machine_rss_bytes);
      json.u64("idle_bytes_per_lane", pt.idle_bytes_per_lane);
      json.u64("materialized_cores_after_run", pt.materialized_after_run);
      json.begin_array("shard_runs");
      for (const ShardRow& r : pt.rows) {
        json.begin_object();
        json.u64("shards", r.shards);
        json.num("wall_s", r.wall_s);
        json.u64("events", r.events);
        json.num("events_per_sec", r.wall_s > 0 ? r.events / r.wall_s : 0.0);
        json.num("events_per_sec_per_shard",
                 r.wall_s > 0 ? r.events / r.wall_s / r.shards : 0.0);
        json.u64("windows", r.windows);
        json.u64("done_tick", r.fp.done);
        json.u64("charged_cycles", r.fp.charged);
        json.end();
      }
      json.end();
      json.end();
    }
    json.end();
    json.begin_object("eager_vs_lazy");
    json.u64("nodes", demo_nodes);
    json.u64("lanes", demo_lanes);
    json.u64("lazy_rss_bytes", lazy_bytes);
    json.u64("eager_rss_bytes", eager_bytes);
    json.num("eager_over_lazy", eager_ratio);
    json.end();
    json.u64("peak_rss_bytes", peak_rss());
    json.boolean("fingerprints_identical", fingerprints_identical);
    if (!json.ok()) {
      std::fprintf(stderr, "scale_sweep: FAIL: could not write BENCH_scale_sweep.json\n");
      return 1;
    }
  }

  if (!fingerprints_identical) return 1;  // always fatal: determinism is the contract

  if (std::getenv("UD_BENCH_ENFORCE")) {
    const SizePoint& big = points.back();
    if (big.idle_bytes_per_lane > 512) {
      std::fprintf(stderr,
                   "scale_sweep: FAIL: idle machine costs %llu B/lane at %u nodes "
                   "(floor 512)\n",
                   (unsigned long long)big.idle_bytes_per_lane, big.nodes);
      return 1;
    }
    if (eager_ratio < 10.0) {
      std::fprintf(stderr,
                   "scale_sweep: FAIL: eager layout only %.1fx the lazy RSS "
                   "(floor 10x)\n",
                   eager_ratio);
      return 1;
    }
  }
  return 0;
}
