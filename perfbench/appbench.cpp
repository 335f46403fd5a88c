// appbench: the repository benchmark.
//
// Runs one app-shaped workload through the public entry points of graph,
// sim, kvmsr, apps, serve and stream; checks every result against
// src/baseline; and prints each metric by name with its unit. The last line
// of stdout is one JSON object:
//
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage (perfbench/run.py builds this binary and passes its arguments on):
//   appbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--out <dir>] [--describe <version string>]
//
// A run repeats the workload's script — set up from the seed, timed calls,
// oracle check — until --seconds of wall time have passed, and reports the
// median host time over the repetitions. Every repetition rebuilds its
// inputs from the seed, so simulated quantities must repeat exactly; any
// difference counts as a failure.
//
// Host seconds are process CPU seconds (CLOCK_PROCESS_CPUTIME_ID): on a
// shared host the CPU clock of a serial run is far steadier than the wall
// clock. Each repetition's are scaled to a reference host speed by a
// calibration kernel timed before and after it (see "Host speed" below).
//
// --trace 0 prints the end-to-end metrics. --trace 1 is the separate traced
// run: it alternates repetitions with udtrace off and on
// (MachineConfig::trace) until --seconds have passed, records a span around
// every public call the benchmark makes, writes the spans to
// <out>/spans_<workload>.json at exit, and prints the per-layer metrics.
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "apps/bfs.hpp"
#include "apps/pagerank.hpp"
#include "baseline/baseline.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "graph/layout.hpp"
#include "graph/split.hpp"
#include "kvmsr/kvmsr.hpp"
#include "serve/query_engine.hpp"
#include "serve/scheduler.hpp"
#include "stream/stream.hpp"
#include "trace/trace.hpp"

namespace {

using namespace updown;

// ---- Workload sizes ---------------------------------------------------------
// Every workload runs on MachineConfig::scaled_netbound: each lane gets the
// paper machine's share of network bandwidth, so shuffle traffic costs ticks.

// pagerank_16n: push PageRank on RMAT, split to max degree 64.
constexpr std::uint32_t kPrScale = 15;
constexpr std::uint32_t kPrNodes = 16;
constexpr unsigned kPrIterations = 4;
constexpr std::uint64_t kPrMaxDegree = 64;
constexpr double kPrTolerance = 1e-9;

// bfs_2kn: BFS on symmetric RMAT over 2,048 nodes, from a root drawn from
// the top 1% of vertices by degree. Such a root reaches the giant component
// in the fewest rounds on 38 of 40 seeds tried, while a root drawn from all
// vertices takes one or two rounds more on some seeds; each round's launch
// and termination over 65,536 lanes costs ~200k ticks.
constexpr std::uint32_t kBfsScale = 15;
constexpr std::uint32_t kBfsNodes = 2048;
constexpr std::uint64_t kBfsRootPool = 100;  // top 1/100 of vertices by degree
// BFS runs per repetition, each on its own graph. Even from hub roots, one
// BFS takes 1.14M, 1.34M, 1.54M or 1.76M ticks, depending on how many rounds
// need a second termination poll over all lanes (kvmsr.drain_ticks shows
// it), and some graphs put every root on the slow steps: eight roots of one
// graph still left the sum 9.4% apart (IQR) over ten seeds.
constexpr unsigned kBfsRuns = 8;

// serve_stream_4n: one streaming session with open-loop reads.
constexpr std::uint32_t kSsScale = 10;
constexpr std::uint32_t kSsNodes = 4;
constexpr unsigned kSsEpochs = 12;
constexpr unsigned kSsReadsPerEpoch = 20;
constexpr std::uint64_t kSsDeltaPerMille = 2;  // 0.2% of the edges per epoch
// Reads arrive every kSsReadPeriod ticks, just on the light side of the
// knee: on seed 1 the read p50 is 52k ticks at a 40k period, 59k at 32k and
// 88k at 28k. At 30k the p50 of ten seeds split between ~71k and ~79k.
constexpr Tick kSsReadPeriod = 32000;
constexpr std::uint32_t kSsSlots = 4;
constexpr std::uint32_t kSsQueue = 16;
constexpr unsigned kSsPrIterations = 2;

// udtrace bucket width: the default on small machines, coarse on 2,048
// nodes, where per-lane timelines at 1,024 ticks cost gigabytes.
constexpr Tick kTraceSlice = 1024;
constexpr Tick kTraceSliceWide = Tick(1) << 20;

// ---- Clocks -----------------------------------------------------------------
double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double wall_now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---- Host speed -------------------------------------------------------------
// On a shared VM the CPU clock of a serial run still runs fast or slow with
// what other tenants run on the same cores and caches, for tens of seconds
// at a time: six 30-second pagerank_16n runs, with the same event count to
// 0.1%, had median repetitions from 2.16 to 3.09 CPU seconds, and one of
// them never went below 2.93. No statistic over one run removes that, so the
// benchmark times a fixed kernel before and after every repetition and
// reports host seconds at a reference speed (at_ref_speed()). The kernel
// uses nothing from src/, so a change to the program moves reference
// seconds as it moves raw ones. It has two parts, because the workloads
// slow down with contention for caches and memory, not for the core: a
// compute-only kernel did not follow them at all.
//  - a small event loop, a binary heap of timed events over 32 MiB of state,
//    like the simulator's event queue and lane memory;
//  - a chain of dependent loads over 128 MiB, like lane state beyond the
//    caches. Alone, the loop followed pagerank_16n's repetitions with a
//    slope of 0.4-0.9 and the chain with 0.5; their sum with about 1.

/// About one calibration pass on a 4-vCPU Xeon VM. Host seconds are
/// reported as if every pass around the repetition had taken this long.
constexpr double kCalibRefSeconds = 0.4;

std::uint64_t mix64(std::uint64_t z) {  // splitmix64's finalizer
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// CPU seconds of one fixed pass of the calibration kernel. Its state is
/// allocated per pass and unmapped after it, so it stays out of the
/// repetitions' resident set.
double calibration_pass() {
  constexpr std::size_t kCells = std::size_t(1) << 22;  // 32 MiB
  constexpr std::size_t kPending = std::size_t(1) << 16;
  constexpr std::uint64_t kSteps = 1'000'000;
  constexpr std::size_t kLinks = std::size_t(1) << 25;  // 128 MiB
  constexpr std::uint64_t kHops = 1'000'000;
  static volatile std::uint64_t sink = 0;
  std::vector<std::uint64_t> cells(kCells, 1);
  std::vector<std::uint32_t> links(kLinks, 1);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> heap;  // (tick, cell)
  heap.reserve(kPending);
  std::uint64_t x = 0;
  for (std::size_t i = 0; i < kPending; ++i) {
    x = mix64(x + i);
    heap.push_back({x & 1023, x & (kCells - 1)});
  }
  std::make_heap(heap.begin(), heap.end(), std::greater<>());
  const double c0 = cpu_now();
  for (std::uint64_t step = 0; step < kSteps; ++step) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<>());
    auto& [tick, cell] = heap.back();
    const std::uint64_t v = mix64(cells[cell] ^ tick);
    cells[cell] = v;
    tick += 1 + (v & 1023);
    cell = (v >> 20) & (kCells - 1);
    std::push_heap(heap.begin(), heap.end(), std::greater<>());
  }
  // Each address depends on the value loaded before it, so the loads
  // cannot overlap.
  std::uint64_t at = 0;
  for (std::uint64_t hop = 0; hop < kHops; ++hop) {
    const std::uint32_t link = links[at];
    links[at] = link + 1;
    at = mix64(at + link) & (kLinks - 1);
  }
  const double secs = cpu_now() - c0;
  sink = sink + heap.front().first + at;
  return secs;
}

// ---- Benchmark-side spans ---------------------------------------------------
// One span per public call into a layer: name, CPU and wall start/end, the
// enclosing span, and the request (phase/repetition/epoch/ticket) it served.
// Kept in memory, written once at exit.
struct Span {
  std::string name, request;
  int parent = -1;
  double cpu0 = 0, cpu1 = 0, wall0 = 0, wall1 = 0;
};

class SpanLog {
 public:
  bool on = false;
  std::string request;  ///< request id stamped on spans opened from now on

  int begin(const char* name, double cpu) {
    if (!on) return -1;
    spans_.push_back({name, request, open_.empty() ? -1 : open_.back(), cpu, cpu,
                      wall_now(), 0});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }
  void end(int id, double cpu) {
    if (id < 0) return;
    spans_[id].cpu1 = cpu;
    spans_[id].wall1 = wall_now();
    open_.pop_back();
  }

  /// Per span name: count, total CPU seconds, and self CPU seconds (the
  /// span minus the time its child spans cover).
  void print_summary(std::FILE* f) const {
    struct Agg {
      std::uint64_t n = 0;
      double total = 0, self = 0;
    };
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_)
      if (s.parent >= 0) child[s.parent] += s.cpu1 - s.cpu0;
    std::map<std::string, Agg> agg;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      Agg& a = agg[spans_[i].name];
      ++a.n;
      a.total += spans_[i].cpu1 - spans_[i].cpu0;
      a.self += spans_[i].cpu1 - spans_[i].cpu0 - child[i];
    }
    std::fprintf(f, "spans: %-34s %7s %12s %12s\n", "name", "count", "cpu_s", "self_cpu_s");
    for (const auto& [name, a] : agg)
      std::fprintf(f, "spans: %-34s %7llu %12.6f %12.6f\n", name.c_str(),
                   static_cast<unsigned long long>(a.n), a.total, a.self);
  }

  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    std::fputs("[\n", f);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\": %zu, \"name\": \"%s\", \"parent\": %d, \"request\": \"%s\", "
                   "\"cpu_start\": %.9f, \"cpu_end\": %.9f, \"wall_start\": %.9f, "
                   "\"wall_end\": %.9f}%s\n",
                   i, s.name.c_str(), s.parent, s.request.c_str(), s.cpu0, s.cpu1, s.wall0,
                   s.wall1, i + 1 < spans_.size() ? "," : "");
    }
    std::fputs("]\n", f);
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

SpanLog g_spans;

/// Wraps one public call: adds its CPU seconds to `*acc` (when given) and
/// records a span.
class Timed {
 public:
  Timed(double* acc, const char* span) : acc_(acc), c0_(cpu_now()) {
    id_ = g_spans.begin(span, c0_);
  }
  ~Timed() {
    const double c1 = cpu_now();
    if (acc_) *acc_ += c1 - c0_;
    g_spans.end(id_, c1);
  }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

 private:
  double* acc_;
  double c0_;
  int id_ = -1;
};

// ---- One repetition's measurements ------------------------------------------
struct Rep {
  double setup_cpu = 0;  ///< set-up steps (generation .. install / warm)
  double run_cpu = 0;    ///< inside the timed calls
  double calib = 0;      ///< mean calibration_pass() seconds before and after
  double peak_rss = 0;   ///< MiB, ru_maxrss at the end of the repetition
  std::map<std::string, double> host;    ///< per-layer host seconds
  std::map<std::string, double> gauges;  ///< host-side counts
  /// Simulated quantities: deterministic for a seed, so they must repeat
  /// exactly across repetitions and between traced and untraced runs.
  std::map<std::string, double> sim;
  /// udtrace-derived quantities (traced repetitions only).
  std::map<std::string, double> traced;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> errors;

  void fail(const std::string& what) {
    ++failed;
    if (errors.size() < 8) errors.push_back(what);
  }
};

struct RunOptions {
  std::uint64_t seed = 1;
  std::string trace_path;  ///< udtrace output file; empty = udtrace off
};

/// Independent sub-seeds for the generated inputs of one workload seed.
std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t stream) {
  Xoshiro256 rng(seed * 0x9e3779b97f4a7c15ULL + stream);
  return rng();
}

/// Every knob fixed through MachineConfig (the environment is cleared at
/// start-up, see pin_environment).
MachineConfig pinned_config(MachineConfig cfg, const RunOptions& run, std::uint32_t shards,
                            Tick slice) {
  cfg.shards = shards;
  cfg.check = false;
  cfg.check_sp_strict = false;
  cfg.pin = false;
  cfg.steal = false;
  cfg.trace = run.trace_path;
  cfg.trace_slice = slice;
  return cfg;
}

/// Nearest-rank percentile (p in (0, 100]) of integer samples.
Tick percentile(std::vector<Tick> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---- Counters read from outside the layers ----------------------------------

/// Machine, engine and KVMSR counters of the interval since `base`.
void read_machine_counters(Machine& m, const MachineStats& base, Tick span_ticks,
                           std::map<std::string, double>& s) {
  const MachineStats st = m.stats().counters_since(base);
  const EngineStats es = m.engine_stats();
  s["sim.events"] += static_cast<double>(st.events_executed);
  s["sim.max_queue_depth"] = std::max(s["sim.max_queue_depth"],
                                      static_cast<double>(st.max_queue_depth));
  s["sim.threads_created"] += static_cast<double>(st.threads_created);
  s["sim.messages"] += static_cast<double>(st.messages_sent);
  s["sim.cross_node_messages"] += static_cast<double>(st.cross_node_messages);
  s["sim.message_bytes"] += static_cast<double>(st.message_bytes);
  s["sim.dram_accesses"] += static_cast<double>(st.dram_reads + st.dram_writes);
  s["sim.remote_dram_accesses"] += static_cast<double>(st.remote_dram_accesses);
  s["sim.charged_cycles"] += static_cast<double>(st.charged_cycles);
  s["sim.lane_ticks"] += static_cast<double>(m.config().total_lanes()) *
                         static_cast<double>(span_ticks);
  s["sim.lanes_materialized"] = std::max(
      s["sim.lanes_materialized"], static_cast<double>(m.lane_table().materialized_cores()));
  s["sim.max_live_threads"] = std::max(s["sim.max_live_threads"],
                                       static_cast<double>(st.max_live_threads));
  s["sim.windows"] += static_cast<double>(es.windows);
  s["sim.mailbox_events"] += static_cast<double>(es.mailbox_messages);
  s["kvmsr.tuples_emitted"] += static_cast<double>(st.shuffle.tuples_emitted);
  s["kvmsr.tuples_combined"] += static_cast<double>(st.shuffle.tuples_combined);
  s["kvmsr.shuffle_messages"] += static_cast<double>(st.shuffle.messages);
  s["kvmsr.shuffle_cross_node"] += static_cast<double>(st.shuffle.cross_node_messages);
  s["kvmsr.shuffle_bytes"] += static_cast<double>(st.shuffle.bytes);
  // Lane imbalance of the whole machine's life (max lane busy / mean).
  s["sim.lane_imbalance"] = std::max(s["sim.lane_imbalance"], m.lane_activity().imbalance());
}

/// Host-side calendar-queue gauges; not simulated quantities, so they stay
/// out of the exact-repeat check.
void read_engine_gauges(Machine& m, std::map<std::string, double>& h) {
  const EngineStats es = m.engine_stats();
  h["sim.far_events"] += static_cast<double>(es.far_events);
  h["sim.bucket_sorts"] += static_cast<double>(es.bucket_sorts);
}

std::uint64_t kvmsr_launches(Machine& m) {
  if (!m.has_service<kvmsr::Library>()) return 0;
  const kvmsr::Library& lib = m.service<kvmsr::Library>();
  std::uint64_t runs = 0;
  for (kvmsr::JobId j = 0; j < lib.num_jobs(); ++j) runs += lib.state(j).runs;
  return runs;
}

using Hist = std::array<std::uint64_t, kTraceHistBuckets>;

Hist trace_hist(Machine& m, Hist TraceShard::*which) {
  Hist h{};
  if (Tracer* t = m.tracer())
    for (std::uint32_t s = 0; s < m.shards(); ++s)
      for (std::uint32_t b = 0; b < kTraceHistBuckets; ++b) h[b] += (t->shard(s).*which)[b];
  return h;
}

/// Median of a log2-bucketed udtrace histogram, as the lower edge of the
/// bucket that holds it (bucket 0 = exact zeros, bucket b = [2^(b-1), 2^b)).
double hist_p50(const Hist& h) {
  std::uint64_t total = 0;
  for (std::uint64_t c : h) total += c;
  if (total == 0) return 0;
  std::uint64_t seen = 0;
  for (std::uint32_t b = 0; b < kTraceHistBuckets; ++b) {
    seen += h[b];
    if (2 * seen >= total) return b == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(b) - 1);
  }
  return 0;
}

/// KVMSR phase ticks from the udtrace CSV: the summed length of every
/// `<job>:map`, `<job>:drain` and `<job>:flush` span that began at or after
/// `from`.
void read_phase_ticks(const std::string& csv_path, Tick from, std::map<std::string, double>& t) {
  std::ifstream in(csv_path);
  std::map<std::pair<std::string, std::string>, std::vector<Tick>> open;  // (lane, name)
  std::string line;
  double map = 0, drain = 0, flush = 0;
  while (std::getline(in, line)) {
    if (line.rfind("phase,", 0) != 0) continue;
    // phase,<tick>,<lane>,<B|E>:<name>
    const std::size_t a = line.find(',', 6), b = line.find(',', a + 1);
    if (a == std::string::npos || b == std::string::npos || b + 2 >= line.size()) continue;
    const Tick tick = std::stoull(line.substr(6, a - 6));
    const std::string lane = line.substr(a + 1, b - a - 1);
    const bool begin = line[b + 1] == 'B';
    const std::string name = line.substr(b + 3);
    auto& stack = open[{lane, name}];
    if (begin) {
      stack.push_back(tick);
      continue;
    }
    if (stack.empty()) continue;
    const Tick t0 = stack.back();
    stack.pop_back();
    if (t0 < from) continue;
    const auto ends_with = [&](const char* suffix) {
      const std::size_t n = std::strlen(suffix);
      return name.size() >= n && name.compare(name.size() - n, n, suffix) == 0;
    };
    const double d = static_cast<double>(tick - t0);
    if (ends_with(":map")) map += d;
    if (ends_with(":drain")) drain += d;
    if (ends_with(":flush")) flush += d;
  }
  t["kvmsr.map_ticks"] += map;
  t["kvmsr.drain_ticks"] += drain;
  t["kvmsr.flush_ticks"] += flush;
}

/// The udtrace-derived per-layer metrics of one machine, for the interval
/// starting at `from` (histograms: minus the `base` snapshots).
void read_udtrace(Machine& m, Tick from, const Hist& msg_base, const Hist& dram_base,
                  const RunOptions& run, std::map<std::string, double>& t) {
  if (!m.tracer()) return;
  Hist msg = trace_hist(m, &TraceShard::msg_latency);
  Hist dram = trace_hist(m, &TraceShard::dram_wait);
  for (std::uint32_t b = 0; b < kTraceHistBuckets; ++b) {
    msg[b] -= msg_base[b];
    dram[b] -= dram_base[b];
  }
  // Several machines per repetition (bfs_2kn): keep the largest median.
  t["sim.msg_latency_p50_ticks"] = std::max(t["sim.msg_latency_p50_ticks"], hist_p50(msg));
  t["sim.dram_wait_p50_ticks"] = std::max(t["sim.dram_wait_p50_ticks"], hist_p50(dram));
  read_phase_ticks(run.trace_path + ".csv", from, t);
}

bool bits_equal(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (std::bit_cast<Word>(a[i]) != std::bit_cast<Word>(b[i])) return false;
  return true;
}

bool ranks_close(const std::vector<double>& got, const std::vector<double>& want) {
  if (got.size() != want.size()) return false;
  for (std::size_t i = 0; i < got.size(); ++i)
    if (!(std::fabs(got[i] - want[i]) <= kPrTolerance)) return false;
  return true;
}

/// CPU seconds of the timed calls, accumulated into the Rep.
class RunClock {
 public:
  explicit RunClock(Rep& r) : r_(r), c0_(cpu_now()) {}
  ~RunClock() { r_.run_cpu += cpu_now() - c0_; }
  RunClock(const RunClock&) = delete;
  RunClock& operator=(const RunClock&) = delete;

 private:
  Rep& r_;
  double c0_;
};

// ---- pagerank_16n -----------------------------------------------------------
Rep rep_pagerank(const RunOptions& run) {
  Rep r;
  const double c0 = cpu_now();
  Graph g;
  {
    Timed t(&r.host["graph.generate_s"], "graph.rmat");
    g = rmat(kPrScale, {}, sub_seed(run.seed, 1));
  }
  SplitGraph sg;
  {
    Timed t(&r.host["graph.split_s"], "graph.split_vertices");
    sg = split_vertices(g, kPrMaxDegree, true, sub_seed(run.seed, 2));
  }
  std::unique_ptr<Machine> m;
  {
    Timed t(&r.host["sim.machine_new_s"], "sim.Machine");
    m = std::make_unique<Machine>(
        pinned_config(MachineConfig::scaled_netbound(kPrNodes), run, 1, kTraceSlice));
  }
  DeviceGraph dg;
  {
    Timed t(&r.host["graph.upload_s"], "graph.upload_split_graph");
    dg = upload_split_graph(*m, sg);
  }
  pr::App* app = nullptr;
  {
    Timed t(&r.host["apps.install_s"], "apps.pr.App::install");
    pr::Options opt;
    opt.iterations = kPrIterations;
    opt.coalesce_tuples = 1;
    app = &pr::App::install(*m, dg, sg, opt);
  }
  r.setup_cpu = cpu_now() - c0;

  const MachineStats base = m->stats();
  pr::Result res;
  {
    RunClock rc(r);
    Timed t(nullptr, "apps.pr.App::run");
    res = app->run();
  }
  ++r.attempted;
  r.sim["sim_ticks"] = static_cast<double>(res.duration());
  r.sim["query_p50_ticks"] = r.sim["query_p95_ticks"] = r.sim["fresh_p50_ticks"] =
      static_cast<double>(res.duration());
  read_machine_counters(*m, base, res.duration(), r.sim);
  read_engine_gauges(*m, r.gauges);
  r.sim["kvmsr.launches"] = static_cast<double>(kvmsr_launches(*m));
  r.sim["apps.pr.gups"] = res.gups();
  read_udtrace(*m, res.start_tick, Hist{}, Hist{}, run, r.traced);

  {
    Timed t(&r.host["baseline.verify_s"], "baseline.pagerank");
    if (!ranks_close(res.rank, baseline::pagerank(g, kPrIterations)))
      r.fail("pagerank ranks differ from baseline::pagerank by more than 1e-9");
  }
  return r;
}

// ---- bfs_2kn (and its two-shard pass) ---------------------------------------

/// A root drawn from the seed among the top 1/kBfsRootPool of vertices by
/// degree.
VertexId bfs_root(const Graph& g, std::uint64_t seed) {
  std::vector<std::pair<std::uint64_t, VertexId>> by_degree;
  for (VertexId v = 0; v < g.num_vertices(); ++v) by_degree.push_back({g.degree(v), v});
  const std::size_t pool = std::max<std::size_t>(1, by_degree.size() / kBfsRootPool);
  std::partial_sort(by_degree.begin(), by_degree.begin() + pool, by_degree.end(),
                    std::greater<>());
  Xoshiro256 rng(seed);
  return by_degree[rng.below(pool)].second;
}

Rep rep_bfs(const RunOptions& run, std::uint32_t shards) {
  Rep r;
  const std::string request = g_spans.request;
  double ticks = 0, reached = 0, traversed = 0, rounds = 0, secs = 0;
  // apps/bfs writes its result into the device graph, so every run gets a
  // fresh machine.
  for (unsigned i = 0; i < kBfsRuns; ++i) {
    g_spans.request = request + "/bfs" + std::to_string(i);
    const double c0 = cpu_now();
    Graph g;
    {
      Timed t(&r.host["graph.generate_s"], "graph.rmat");
      g = rmat(kBfsScale, {.symmetrize = true}, sub_seed(run.seed, 16 + i));
    }
    const VertexId root = bfs_root(g, sub_seed(run.seed, 32 + i));
    std::unique_ptr<Machine> m;
    {
      Timed t(&r.host["sim.machine_new_s"], "sim.Machine");
      m = std::make_unique<Machine>(pinned_config(MachineConfig::scaled_netbound(kBfsNodes),
                                                  run, shards, kTraceSliceWide));
    }
    DeviceGraph dg;
    {
      Timed t(&r.host["graph.upload_s"], "graph.upload_graph");
      dg = upload_graph(*m, g);
    }
    bfs::App* app = nullptr;
    {
      Timed t(&r.host["apps.install_s"], "apps.bfs.App::install");
      bfs::Options opt;
      opt.root = root;
      app = &bfs::App::install(*m, dg, opt);
    }
    r.setup_cpu += cpu_now() - c0;

    const MachineStats base = m->stats();
    bfs::Result res;
    {
      RunClock rc(r);
      Timed t(nullptr, "apps.bfs.App::run");
      res = app->run();
    }
    ++r.attempted;
    ticks += static_cast<double>(res.duration());
    read_machine_counters(*m, base, res.duration(), r.sim);
    read_engine_gauges(*m, r.gauges);
    r.sim["kvmsr.launches"] += static_cast<double>(kvmsr_launches(*m));
    for (const std::uint64_t d : res.dist) reached += d != kInfDist;
    traversed += static_cast<double>(res.traversed_edges);
    rounds += static_cast<double>(res.rounds);
    secs += res.seconds();
    read_udtrace(*m, res.start_tick, Hist{}, Hist{}, run, r.traced);

    Timed t(&r.host["baseline.verify_s"], "baseline.bfs");
    if (res.dist != baseline::bfs(g, root).dist)
      r.fail("bfs " + std::to_string(i) + " from root " + std::to_string(root) +
             " differs from baseline::bfs");
  }
  g_spans.request = request;
  // The eight-run batch is the workload's one query; single BFS latencies
  // fall on a few termination-poll steps, too coarse for percentiles.
  r.sim["sim_ticks"] = r.sim["query_p50_ticks"] = r.sim["query_p95_ticks"] =
      r.sim["fresh_p50_ticks"] = ticks;
  r.sim["apps.bfs.rounds"] = rounds;
  r.sim["apps.bfs.traversed_edges"] = traversed;
  r.sim["apps.bfs.gteps"] = secs > 0 ? traversed / secs / 1e9 : 0;
  r.sim["apps.bfs.discover_frac"] = traversed > 0 ? reached / traversed : 0;
  return r;
}

// ---- serve_stream_4n --------------------------------------------------------

struct Read {
  serve::QueryKind kind;
  VertexId root;
};

Rep rep_serve_stream(const RunOptions& run) {
  Rep r;
  const double c0 = cpu_now();
  const std::string request = g_spans.request;
  Graph base_graph;
  {
    Timed t(&r.host["graph.generate_s"], "graph.rmat");
    base_graph = rmat(kSsScale, {}, sub_seed(run.seed, 1));
  }
  const VertexId nv = base_graph.num_vertices();

  // Inputs drawn from the seed: BFS roots with out-degree > 0 (the session
  // root and the BFS reads), the read rotation, and the delta batches.
  Xoshiro256 rng(sub_seed(run.seed, 4));
  std::vector<VertexId> sources;
  for (VertexId v = 0; v < nv; ++v)
    if (base_graph.degree(v) > 0) sources.push_back(v);
  const auto pick_source = [&] { return sources[rng.below(sources.size())]; };
  const VertexId session_root = pick_source();
  std::vector<std::vector<Read>> reads(kSsEpochs);
  std::vector<std::vector<tform::EdgeRecord>> deltas(kSsEpochs);
  const std::uint64_t nrec =
      std::max<std::uint64_t>(8, base_graph.num_edges() * kSsDeltaPerMille / 1000);
  for (unsigned e = 0; e < kSsEpochs; ++e) {
    for (std::uint64_t i = 0; i < nrec; ++i)
      deltas[e].push_back({rng.below(nv), rng.below(nv), i % 4});
    for (unsigned k = 0; k < kSsReadsPerEpoch; ++k) {
      static constexpr serve::QueryKind kRotation[] = {
          serve::QueryKind::kPageRank, serve::QueryKind::kBfs, serve::QueryKind::kPathCount};
      reads[e].push_back({kRotation[(e * kSsReadsPerEpoch + k) % 3], pick_source()});
    }
  }

  std::unique_ptr<Machine> m;
  {
    Timed t(&r.host["sim.machine_new_s"], "sim.Machine");
    m = std::make_unique<Machine>(
        pinned_config(MachineConfig::scaled_netbound(kSsNodes), run, 1, kTraceSlice));
  }
  stream::StreamEngine* se = nullptr;
  {
    Timed t(&r.host["graph.upload_s"], "stream.StreamEngine::install");
    stream::StreamOptions opt;
    opt.pr_iterations = kSsPrIterations;
    opt.bfs_root = session_root;
    opt.block_bytes = 1000;
    opt.coalesce_tuples = 1;
    opt.epoch = 0;
    se = &stream::StreamEngine::install(*m, base_graph, opt);
  }
  serve::QueryEngine& eng = serve::QueryEngine::install(*m);
  serve::SchedOptions sopt;
  sopt.max_concurrent = kSsSlots;
  sopt.max_queue = kSsQueue;
  sopt.partition_lanes = false;
  sopt.aging_quantum = 0;
  serve::Scheduler sched(eng, sopt);
  {
    Timed t(nullptr, "stream.StreamEngine::warm");
    se->warm();
  }
  r.setup_cpu = cpu_now() - c0;

  // The session: per epoch, ingest a delta batch on the device and compact
  // it, then serve the epoch's two incremental refreshes beside its reads.
  const MachineStats base = m->stats();
  const std::uint64_t launches0 = kvmsr_launches(*m);
  const Hist msg0 = trace_hist(*m, &TraceShard::msg_latency);
  const Hist dram0 = trace_hist(*m, &TraceShard::dram_wait);
  const Tick t_start = m->now();
  struct Epoch {
    Tick arrival = 0, ingest_ticks = 0, fresh = 0;
    std::uint64_t dirty = 0, touched = 0;
    serve::TicketId ipr = 0, ibfs = 0;
    std::vector<serve::TicketId> reads;
    serve::QueryResult ipr_res, ibfs_res;
    std::vector<serve::QueryResult> read_res;
  };
  std::vector<Epoch> epochs(kSsEpochs);
  {
    RunClock rc(r);
    for (unsigned e = 0; e < kSsEpochs; ++e) {
      Epoch& ep = epochs[e];
      g_spans.request = request + "/epoch" + std::to_string(e);
      ep.arrival = m->now();
      {
        Timed t(&r.host["stream.ingest_cpu_s"], "stream.ingest");
        std::uint64_t batch = 0;
        {
          Timed t2(nullptr, "stream.StreamEngine::ingest_async");
          batch = se->ingest_async(deltas[e], ep.arrival);
        }
        {
          Timed t2(nullptr, "sim.Machine::run");
          m->run();
        }
        if (!se->ingested(batch)) r.fail("epoch " + std::to_string(e) + ": ingest incomplete");
      }
      ep.ingest_ticks = m->now() - ep.arrival;
      {
        Timed t(&r.host["stream.compact_s"], "stream.StreamEngine::compact");
        const DeltaGraph::CompactionResult cr = se->compact(m->now());
        ep.touched = cr.touched_fwd.size() + cr.touched_rev.size();
      }
      ep.dirty = se->resident().pr_dirty.size();
      const Tick t_visible = m->now();
      {
        Timed t(nullptr, "serve.Scheduler::submit");
        ep.ipr = sched.submit(se->inc_pagerank_spec(), serve::QoS::kNormal, t_visible);
        ep.ibfs = sched.submit(se->inc_bfs_spec(), serve::QoS::kNormal, t_visible);
        for (unsigned k = 0; k < kSsReadsPerEpoch; ++k) {
          serve::QuerySpec s;
          s.kind = reads[e][k].kind;
          s.graph = se->resident().fwd;
          s.iterations = kSsPrIterations;
          s.root = reads[e][k].root;
          s.name = "read" + std::to_string(e) + "." + std::to_string(k);
          ep.reads.push_back(
              sched.submit(std::move(s), serve::QoS::kNormal, t_visible + k * kSsReadPeriod));
        }
      }
      {
        Timed t(&r.host["serve.drain_cpu_s"], "serve.Scheduler::drain");
        sched.drain();
      }
      // Incremental results live in the session's resident arrays: collect
      // them before the next epoch overwrites them.
      const auto collect = [&](serve::TicketId id, serve::QueryResult& out) {
        const serve::Ticket& tk = sched.ticket(id);
        if (tk.status != serve::TicketStatus::kDone) return;
        g_spans.request = request + "/epoch" + std::to_string(e) + "/ticket" + std::to_string(id);
        Timed t(nullptr, "serve.QueryEngine::collect");
        out = eng.collect(tk.query);
      };
      collect(ep.ipr, ep.ipr_res);
      collect(ep.ibfs, ep.ibfs_res);
      ep.read_res.resize(ep.reads.size());
      for (std::size_t k = 0; k < ep.reads.size(); ++k) collect(ep.reads[k], ep.read_res[k]);
      // An unfinished refresh fails the oracle check below.
      const Tick fresh_done = std::max(sched.ticket(ep.ipr).done, sched.ticket(ep.ibfs).done);
      ep.fresh = fresh_done > ep.arrival ? fresh_done - ep.arrival : 0;
    }
  }
  g_spans.request = request;

  // Latencies and per-layer counters of the session.
  Tick t_end = t_start;
  std::vector<Tick> read_lat, fresh, ingest, wait, svc_pr, svc_bfs, svc_pc, ref_pr, ref_bfs;
  double busy = 0, dirty = 0, touched = 0, records = 0, rejected = 0;
  for (unsigned e = 0; e < kSsEpochs; ++e) {
    const Epoch& ep = epochs[e];
    fresh.push_back(ep.fresh);
    ingest.push_back(ep.ingest_ticks);
    records += static_cast<double>(nrec);
    dirty += static_cast<double>(ep.dirty);
    touched += static_cast<double>(ep.touched);
    std::vector<serve::TicketId> all = ep.reads;
    all.push_back(ep.ipr);
    all.push_back(ep.ibfs);
    for (const serve::TicketId id : all) {
      const serve::Ticket& tk = sched.ticket(id);
      if (tk.status == serve::TicketStatus::kRejected) ++rejected;
      if (tk.status != serve::TicketStatus::kDone) continue;
      t_end = std::max(t_end, tk.done);
      busy += static_cast<double>(tk.done - tk.dispatch);
      wait.push_back(tk.queue_wait());
    }
    for (std::size_t k = 0; k < ep.reads.size(); ++k) {
      const serve::Ticket& tk = sched.ticket(ep.reads[k]);
      if (tk.status != serve::TicketStatus::kDone) continue;
      read_lat.push_back(tk.latency());
      const Tick svc = tk.done - tk.dispatch;
      switch (reads[e][k].kind) {
        case serve::QueryKind::kPageRank: svc_pr.push_back(svc); break;
        case serve::QueryKind::kBfs: svc_bfs.push_back(svc); break;
        default: svc_pc.push_back(svc); break;
      }
    }
    ref_pr.push_back(ep.ipr_res.duration());
    ref_bfs.push_back(ep.ibfs_res.duration());
  }
  const Tick span = t_end - t_start;
  r.sim["sim_ticks"] = static_cast<double>(span);
  r.sim["query_p50_ticks"] = static_cast<double>(percentile(read_lat, 50));
  r.sim["query_p95_ticks"] = static_cast<double>(percentile(read_lat, 95));
  r.sim["fresh_p50_ticks"] = static_cast<double>(percentile(fresh, 50));
  read_machine_counters(*m, base, span, r.sim);
  read_engine_gauges(*m, r.gauges);
  r.sim["kvmsr.launches"] = static_cast<double>(kvmsr_launches(*m) - launches0);
  r.sim["serve.queue_wait_p50_ticks"] = static_cast<double>(percentile(wait, 50));
  r.sim["serve.queue_wait_p95_ticks"] = static_cast<double>(percentile(wait, 95));
  r.sim["serve.service_p50_ticks.pr"] = static_cast<double>(percentile(svc_pr, 50));
  r.sim["serve.service_p50_ticks.bfs"] = static_cast<double>(percentile(svc_bfs, 50));
  r.sim["serve.service_p50_ticks.pathcount"] = static_cast<double>(percentile(svc_pc, 50));
  r.sim["serve.slot_util"] =
      span > 0 ? busy / (static_cast<double>(kSsSlots) * static_cast<double>(span)) : 0;
  r.sim["serve.rejected"] = rejected;
  r.sim["stream.ingest_ticks"] = static_cast<double>(percentile(ingest, 50));
  double ingest_total = 0;
  for (const Tick t : ingest) ingest_total += static_cast<double>(t);
  r.sim["stream.records_per_ktick"] = ingest_total > 0 ? records * 1e3 / ingest_total : 0;
  r.sim["stream.refresh_pr_ticks"] = static_cast<double>(percentile(ref_pr, 50));
  r.sim["stream.refresh_bfs_ticks"] = static_cast<double>(percentile(ref_bfs, 50));
  r.sim["stream.pr_dirty_frac"] = dirty / (static_cast<double>(kSsEpochs) * nv);
  r.sim["stream.touched_vertices"] = touched;
  read_udtrace(*m, t_start, msg0, dram0, run, r.traced);

  // Oracle: each epoch's graph is rebuilt from the base edges plus every
  // delta so far, independently of the session's own DeltaGraph.
  Timed verify(&r.host["baseline.verify_s"], "baseline.verify_serve_stream");
  std::vector<Edge> edges;
  for (VertexId u = 0; u < nv; ++u)
    for (const VertexId v : base_graph.neighbors_of(u)) edges.emplace_back(u, v);
  for (unsigned e = 0; e < kSsEpochs; ++e) {
    const Epoch& ep = epochs[e];
    for (const tform::EdgeRecord& rec : deltas[e]) edges.emplace_back(rec.src, rec.dst);
    const Graph g = Graph::from_edges(nv, edges, false);
    const std::vector<double> want_pr = baseline::pagerank(g, kSsPrIterations);
    const std::uint64_t want_paths = serve::cpu_path_count(g);
    const std::string tag = "epoch " + std::to_string(e) + ": ";
    r.attempted += 2;
    if (sched.ticket(ep.ipr).status != serve::TicketStatus::kDone ||
        !bits_equal(ep.ipr_res.rank, want_pr))
      r.fail(tag + "incremental pagerank is not bit-equal to baseline::pagerank");
    if (sched.ticket(ep.ibfs).status != serve::TicketStatus::kDone ||
        ep.ibfs_res.dist != baseline::bfs(g, session_root).dist)
      r.fail(tag + "incremental bfs differs from baseline::bfs");
    for (std::size_t k = 0; k < ep.reads.size(); ++k) {
      ++r.attempted;
      const serve::Ticket& tk = sched.ticket(ep.reads[k]);
      const serve::QueryResult& got = ep.read_res[k];
      const std::string what = tag + "read " + std::to_string(k) + " (" +
                               serve::kind_name(reads[e][k].kind) + ")";
      if (tk.status != serve::TicketStatus::kDone) {
        r.fail(what + " " + serve::ticket_status_name(tk.status));
        continue;
      }
      switch (reads[e][k].kind) {
        case serve::QueryKind::kPageRank:
          if (!ranks_close(got.rank, want_pr)) r.fail(what + " differs from baseline");
          break;
        case serve::QueryKind::kBfs:
          if (got.dist != baseline::bfs(g, reads[e][k].root).dist)
            r.fail(what + " differs from baseline");
          break;
        default:
          if (got.count != want_paths) r.fail(what + " differs from cpu_path_count");
          break;
      }
    }
  }
  return r;
}

// ---- Running a workload -----------------------------------------------------

using RepFn = Rep (*)(const RunOptions&);

struct Workload {
  const char* name;
  RepFn rep;
  /// The same script on the sharded engine, run once in the traced
  /// invocation (null: none). It must reproduce the serial fingerprint, and
  /// it supplies the lock-step window counters.
  RepFn sharded;
};

Rep rep_bfs_serial(const RunOptions& run) { return rep_bfs(run, 1); }
Rep rep_bfs_2shards(const RunOptions& run) { return rep_bfs(run, 2); }

// bfs_2kn on two shards is not a timed workload of its own: its wall time
// spread 1.15-1.59 s over five seeds on a 4-vCPU host, which measures the
// hypervisor more than the engine. Its fingerprint check and window counters
// run in bfs_2kn's traced invocation instead.
const Workload kWorkloads[] = {
    {"pagerank_16n", rep_pagerank, nullptr},
    {"bfs_2kn", rep_bfs_serial, rep_bfs_2shards},
    {"serve_stream_4n", rep_serve_stream, nullptr},
};

/// Every environment knob the program reads. They are cleared so the pinned
/// MachineConfig / SchedOptions / StreamOptions values above take effect.
/// UDSIM_LOG is read during static initialization, so its level is reset
/// to the default too.
void pin_environment() {
  for (const char* v :
       {"UD_SHARDS", "UD_CHECK", "UD_CHECK_SP_STRICT", "UD_TRACE", "UD_TRACE_SLICE",
        "UD_COALESCE", "UD_STEAL", "UD_STEAL_PERIOD", "UD_PIN", "UD_JOBS", "UD_JOBS_QUEUE",
        "UD_JOBS_PARTITION", "UD_JOBS_AGING", "UD_STREAM_EPOCH", "UD_STREAM_BLOCK",
        "UD_BENCH_SCALE", "UDSIM_LOG"})
    ::unsetenv(v);
  Logger::level() = LogLevel::kWarn;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

/// Restarts the resident-set high-water mark that ru_maxrss reads, so the
/// calibration kernel's buffer stays out of the repetitions' peak. False
/// where /proc does not allow it.
bool reset_peak_rss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (!f) return false;
  const bool wrote = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && wrote;
}

/// One repetition; an exception counts as a failed operation.
Rep run_rep(RepFn fn, const RunOptions& run) {
  try {
    return fn(run);
  } catch (const std::exception& e) {
    Rep r;
    r.attempted = 1;
    r.fail(std::string("exception: ") + e.what());
    return r;
  }
}

/// Runs repetitions with a calibration pass before the first and after
/// each, and records each repetition's peak resident set.
class Repeater {
 public:
  Rep next(RepFn fn, const RunOptions& run) {
    if (!reset_peak_rss() && !warned_) {
      std::printf("note: cannot reset the peak RSS; peak_rss_mb includes the calibration "
                  "buffer\n");
      warned_ = true;
    }
    Rep r = run_rep(fn, run);
    r.peak_rss = peak_rss_mib();
    const double after = calibration_pass();
    r.calib = 0.5 * (before_ + after);
    before_ = after;
    return r;
  }

 private:
  double before_ = calibration_pass();
  bool warned_ = false;
};

/// Runs repetitions until `seconds` of wall time have passed (at least one).
std::vector<Rep> repeat(RepFn fn, const RunOptions& run, double seconds, const char* phase) {
  std::vector<Rep> reps;
  Repeater repeater;
  const double until = wall_now() + seconds;
  do {
    g_spans.request = std::string(phase) + "/rep" + std::to_string(reps.size());
    reps.push_back(repeater.next(fn, run));
  } while (wall_now() < until);
  return reps;
}

struct Outcome {
  std::uint64_t attempted = 0, failed = 0;
  bool consistent = true;
};

/// Totals the repetitions' operations and checks that every simulated
/// quantity repeated exactly.
Outcome check(const std::vector<Rep>& reps, const char* phase) {
  Outcome o;
  for (const Rep& r : reps) {
    std::printf("rep [%s] %zu: setup_cpu=%.6f run_cpu=%.6f calib=%.6f peak_rss=%.1f\n", phase,
                static_cast<std::size_t>(&r - reps.data()), r.setup_cpu, r.run_cpu, r.calib,
                r.peak_rss);
    o.attempted += r.attempted;
    o.failed += r.failed;
    for (const std::string& e : r.errors) std::printf("FAIL [%s]: %s\n", phase, e.c_str());
    if (r.sim != reps.front().sim) o.consistent = false;
  }
  if (!o.consistent)
    std::printf("FAIL [%s]: simulated metrics differ between repetitions\n", phase);
  return o;
}

/// Host seconds of a repetition at the reference speed: one calibration
/// pass takes kCalibRefSeconds.
double at_ref_speed(const Rep& r, double secs) { return secs * kCalibRefSeconds / r.calib; }

double lookup(const std::map<std::string, double>& m, const std::string& key) {
  const auto it = m.find(key);
  return it == m.end() ? 0.0 : it->second;
}

double median_of(const std::vector<Rep>& reps, double Rep::*field) {
  std::vector<double> v;
  for (const Rep& r : reps) v.push_back(r.*field);
  return median(v);
}

/// Median over the repetitions of a host-seconds field, at the reference speed.
double median_ref(const std::vector<Rep>& reps, double Rep::*field) {
  std::vector<double> v;
  for (const Rep& r : reps) v.push_back(at_ref_speed(r, r.*field));
  return median(v);
}

/// Median over the repetitions of a per-layer host time, at the reference speed.
double median_host(const std::vector<Rep>& reps, const std::string& key) {
  std::vector<double> v;
  for (const Rep& r : reps) v.push_back(at_ref_speed(r, lookup(r.host, key)));
  return median(v);
}

/// Median over the repetitions of a host-side count.
double median_gauge(const std::vector<Rep>& reps, const std::string& key) {
  std::vector<double> v;
  for (const Rep& r : reps) v.push_back(lookup(r.gauges, key));
  return median(v);
}

double max_of(const std::vector<Rep>& reps, double Rep::*field) {
  double m = 0;
  for (const Rep& r : reps) m = std::max(m, r.*field);
  return m;
}

/// The simulated fingerprint a host-only change must leave identical:
/// sim_ticks, events, messages, DRAM accesses, charged cycles.
std::vector<double> fingerprint(const char* label, const Rep& r) {
  std::vector<double> fp;
  for (const char* k :
       {"sim_ticks", "sim.events", "sim.messages", "sim.dram_accesses", "sim.charged_cycles"})
    fp.push_back(lookup(r.sim, k));
  std::printf("fingerprint%s: sim_ticks=%.0f events=%.0f messages=%.0f dram_accesses=%.0f "
              "charged_cycles=%.0f\n",
              label, fp[0], fp[1], fp[2], fp[3], fp[4]);
  return fp;
}

struct Metric {
  std::string name, unit;
  double value;
};

int usage(const char* msg) {
  std::fprintf(stderr,
               "appbench: %s\nusage: appbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--out <dir>] [--describe <text>]\nworkloads:",
               msg);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  pin_environment();
  std::string workload, out_dir = ".", describe = "unknown";
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    try {
      if (a == "--workload") workload = v;
      else if (a == "--seed") seed = std::stoull(v);
      else if (a == "--seconds") seconds = std::stod(v);
      else if (a == "--trace") trace = std::stoi(v);
      else if (a == "--out") out_dir = v;
      else if (a == "--describe") describe = v;
      else return usage(("unknown argument " + a).c_str());
    } catch (const std::exception&) {
      return usage(("bad value for " + a).c_str());
    }
  }
  const Workload* w = nullptr;
  for (const Workload& c : kWorkloads)
    if (workload == c.name) w = &c;
  if (!w) return usage(("unknown workload '" + workload + "'").c_str());
  if (trace != 0 && trace != 1) return usage("--trace must be 0 or 1");
  if (!(seconds > 0)) return usage("--seconds must be positive");

  std::printf("appbench: workload=%s seed=%llu seconds=%g trace=%d\n", w->name,
              static_cast<unsigned long long>(seed), seconds, trace);
  std::printf("host: nproc=%ld build=%s compiler=%s version=%s\n", sysconf(_SC_NPROCESSORS_ONLN),
              APPBENCH_BUILD_TYPE, APPBENCH_COMPILER, describe.c_str());

  RunOptions run;
  run.seed = seed;
  std::vector<Metric> metrics;
  Outcome total;
  bool correct = true;

  if (trace == 0) {
    const std::vector<Rep> reps = repeat(w->rep, run, seconds, "run");
    total = check(reps, "run");
    correct = total.consistent;
    const Rep& first = reps.front();
    fingerprint("", first);
    const auto sim = [&](const char* k) { return lookup(first.sim, k); };
    metrics = {
        {"setup_s", "s", median_ref(reps, &Rep::setup_cpu)},
        {"run_cpu_s", "s", median_ref(reps, &Rep::run_cpu)},
        {"sim_ticks", "ticks", sim("sim_ticks")},
        {"peak_rss_mb", "MiB", max_of(reps, &Rep::peak_rss)},
        {"query_p50_ticks", "ticks", sim("query_p50_ticks")},
        {"query_p95_ticks", "ticks", sim("query_p95_ticks")},
        {"fresh_p50_ticks", "ticks", sim("fresh_p50_ticks")},
    };
    std::printf("repetitions: %zu; raw CPU medians: setup %.6f s, run %.6f s; calibration "
                "pass median %.6f s, reference %.3f s\n",
                reps.size(), median_of(reps, &Rep::setup_cpu), median_of(reps, &Rep::run_cpu),
                median_of(reps, &Rep::calib), kCalibRefSeconds);
  } else {
    g_spans.on = true;
    std::error_code ec;
    std::filesystem::create_directories(out_dir, ec);
    // Untraced and traced repetitions alternate, so drift in the host's
    // speed during the run does not land in trace.overhead_pct.
    RunOptions traced_run = run;
    traced_run.trace_path = out_dir + "/udtrace_" + w->name + ".json";
    std::vector<Rep> plain, traced;
    Repeater repeater;
    const double until = wall_now() + seconds;
    do {
      g_spans.request = "untraced/rep" + std::to_string(plain.size());
      plain.push_back(repeater.next(w->rep, run));
      g_spans.request = "traced/rep" + std::to_string(traced.size());
      traced.push_back(repeater.next(w->rep, traced_run));
    } while (wall_now() < until);
    const Outcome a = check(plain, "untraced"), b = check(traced, "traced");
    total = {a.attempted + b.attempted, a.failed + b.failed, a.consistent && b.consistent};
    const bool same = plain.front().sim == traced.front().sim;
    if (!same)
      std::printf("FAIL [traced]: simulated metrics differ with udtrace on (it only observes)\n");
    correct = total.consistent && same;
    const std::vector<double> fp = fingerprint(" (untraced)", plain.front());
    fingerprint(" (traced)", traced.front());
    Rep sharded;
    if (w->sharded) {
      g_spans.request = "sharded/rep0";
      sharded = run_rep(w->sharded, run);
      const Outcome c = check({sharded}, "2 shards");
      total.attempted += c.attempted + 1;
      total.failed += c.failed;
      if (fingerprint(" (2 shards)", sharded) != fp) {
        ++total.failed;
        std::printf("FAIL [2 shards]: fingerprint differs from the serial engine's\n");
      }
    }

    const std::map<std::string, double>& s = plain.front().sim;
    const std::map<std::string, double>& t = traced.front().traced;
    const double run_cpu = median_ref(plain, &Rep::run_cpu);
    const double run_cpu_traced = median_ref(traced, &Rep::run_cpu);
    const double events = lookup(s, "sim.events");
    const double windows = lookup(sharded.sim, "sim.windows");
    const double lane_ticks = lookup(s, "sim.lane_ticks");
    const double tuples = lookup(s, "kvmsr.tuples_emitted") - lookup(s, "kvmsr.tuples_combined");
    const double shuffle_msgs = lookup(s, "kvmsr.shuffle_messages");
    metrics = {
        {"graph.generate_s", "s", median_host(plain, "graph.generate_s")},
        {"graph.split_s", "s", median_host(plain, "graph.split_s")},
        {"graph.upload_s", "s", median_host(plain, "graph.upload_s")},
        {"sim.machine_new_s", "s", median_host(plain, "sim.machine_new_s")},
        {"apps.install_s", "s", median_host(plain, "apps.install_s")},
        {"sim.events", "count", events},
        {"sim.ns_per_event", "ns", events > 0 ? run_cpu * 1e9 / events : 0},
        {"sim.max_queue_depth", "count", lookup(s, "sim.max_queue_depth")},
        {"sim.far_events", "count", median_gauge(plain, "sim.far_events")},
        {"sim.bucket_sorts", "count", median_gauge(plain, "sim.bucket_sorts")},
        {"sim.threads_created", "count", lookup(s, "sim.threads_created")},
        {"sim.messages", "count", lookup(s, "sim.messages")},
        {"sim.cross_node_messages", "count", lookup(s, "sim.cross_node_messages")},
        {"sim.message_bytes", "bytes", lookup(s, "sim.message_bytes")},
        {"sim.dram_accesses", "count", lookup(s, "sim.dram_accesses")},
        {"sim.remote_dram_accesses", "count", lookup(s, "sim.remote_dram_accesses")},
        {"sim.charged_cycles", "cycles", lookup(s, "sim.charged_cycles")},
        {"sim.lane_util", "ratio", lane_ticks > 0 ? lookup(s, "sim.charged_cycles") / lane_ticks : 0},
        {"sim.lane_imbalance", "ratio", lookup(s, "sim.lane_imbalance")},
        {"sim.msg_latency_p50_ticks", "ticks", lookup(t, "sim.msg_latency_p50_ticks")},
        {"sim.dram_wait_p50_ticks", "ticks", lookup(t, "sim.dram_wait_p50_ticks")},
        {"sim.lanes_materialized", "count", lookup(s, "sim.lanes_materialized")},
        {"sim.max_live_threads", "count", lookup(s, "sim.max_live_threads")},
        {"sim.windows", "count", windows},
        {"sim.mailbox_events", "count", lookup(sharded.sim, "sim.mailbox_events")},
        {"sim.events_per_window", "count",
         windows > 0 ? lookup(sharded.sim, "sim.events") / windows : 0},
        {"kvmsr.tuples_emitted", "count", lookup(s, "kvmsr.tuples_emitted")},
        {"kvmsr.tuples_combined", "count", lookup(s, "kvmsr.tuples_combined")},
        {"kvmsr.shuffle_messages", "count", shuffle_msgs},
        {"kvmsr.shuffle_cross_node", "count", lookup(s, "kvmsr.shuffle_cross_node")},
        {"kvmsr.shuffle_bytes", "bytes", lookup(s, "kvmsr.shuffle_bytes")},
        {"kvmsr.coalescing_factor", "ratio", shuffle_msgs > 0 ? tuples / shuffle_msgs : 1.0},
        {"kvmsr.map_ticks", "ticks", lookup(t, "kvmsr.map_ticks")},
        {"kvmsr.launches", "count", lookup(s, "kvmsr.launches")},
        {"kvmsr.drain_ticks", "ticks", lookup(t, "kvmsr.drain_ticks")},
        {"kvmsr.flush_ticks", "ticks", lookup(t, "kvmsr.flush_ticks")},
        {"apps.pr.gups", "Gupd/s", lookup(s, "apps.pr.gups")},
        {"apps.bfs.gteps", "Gedge/s", lookup(s, "apps.bfs.gteps")},
        {"apps.bfs.rounds", "count", lookup(s, "apps.bfs.rounds")},
        {"apps.bfs.traversed_edges", "count", lookup(s, "apps.bfs.traversed_edges")},
        {"apps.bfs.discover_frac", "ratio", lookup(s, "apps.bfs.discover_frac")},
        {"serve.queue_wait_p50_ticks", "ticks", lookup(s, "serve.queue_wait_p50_ticks")},
        {"serve.queue_wait_p95_ticks", "ticks", lookup(s, "serve.queue_wait_p95_ticks")},
        {"serve.service_p50_ticks.pr", "ticks", lookup(s, "serve.service_p50_ticks.pr")},
        {"serve.service_p50_ticks.bfs", "ticks", lookup(s, "serve.service_p50_ticks.bfs")},
        {"serve.service_p50_ticks.pathcount", "ticks",
         lookup(s, "serve.service_p50_ticks.pathcount")},
        {"serve.slot_util", "ratio", lookup(s, "serve.slot_util")},
        {"serve.rejected", "count", lookup(s, "serve.rejected")},
        {"serve.drain_cpu_s", "s", median_host(plain, "serve.drain_cpu_s")},
        {"stream.ingest_ticks", "ticks", lookup(s, "stream.ingest_ticks")},
        {"stream.records_per_ktick", "records/ktick", lookup(s, "stream.records_per_ktick")},
        {"stream.refresh_pr_ticks", "ticks", lookup(s, "stream.refresh_pr_ticks")},
        {"stream.refresh_bfs_ticks", "ticks", lookup(s, "stream.refresh_bfs_ticks")},
        {"stream.pr_dirty_frac", "ratio", lookup(s, "stream.pr_dirty_frac")},
        {"stream.ingest_cpu_s", "s", median_host(plain, "stream.ingest_cpu_s")},
        {"stream.compact_s", "s", median_host(plain, "stream.compact_s")},
        {"stream.touched_vertices", "count", lookup(s, "stream.touched_vertices")},
        {"baseline.verify_s", "s", median_host(plain, "baseline.verify_s")},
        {"trace.overhead_pct", "%", run_cpu > 0 ? (run_cpu_traced / run_cpu - 1) * 100 : 0},
    };
    std::printf("repetitions: %zu untraced, %zu traced\n", plain.size(), traced.size());
    g_spans.print_summary(stdout);
    const std::string spans_path = out_dir + "/spans_" + w->name + ".json";
    if (!g_spans.write(spans_path)) std::printf("note: could not write %s\n", spans_path.c_str());
  }

  if (total.failed) correct = false;
  for (const Metric& m : metrics)
    std::printf("metric %-36s %20.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(total.attempted),
              static_cast<unsigned long long>(total.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  std::printf("}}\n");
  return 0;
}
