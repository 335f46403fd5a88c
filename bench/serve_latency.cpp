// Multi-tenant serving latency under offered load (ROADMAP item 2's
// deliverable). A seeded trace of mixed PageRank / BFS / 2-hop-path queries
// is replayed against a resident graph at swept offered loads through the
// serve scheduler; each point reports p50/p99 job latency (arrival ->
// completion, queueing included) and sustained throughput. A serial
// (max_concurrent=1) replay of the same trace calibrates the concurrency
// speedup: with 4 running slots in partitioned mode the simulated makespan
// must beat serial by >= 1.5x under UD_BENCH_ENFORCE (>= 4-core hosts).
//
// Writes BENCH_serve_latency.json. All simulated quantities are
// deterministic for a fixed machine, at any shard count; wall-clock plays
// no part.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.hpp"
#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "serve/scheduler.hpp"

namespace updown {
namespace {

struct TraceEntry {
  serve::QueryKind kind;
  Tick arrival;
};

/// The seeded mixed-query trace: kinds cycle PR -> BFS -> PathCount; gaps
/// are uniform in [period/2, 3*period/2) from a fixed seed, so every load
/// point replays the same shape at a different density.
std::vector<TraceEntry> make_trace(std::size_t n, Tick period, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<TraceEntry> t;
  Tick at = 0;
  for (std::size_t i = 0; i < n; ++i) {
    serve::QueryKind kind = serve::QueryKind::kPageRank;
    if (i % 3 == 1) kind = serve::QueryKind::kBfs;
    if (i % 3 == 2) kind = serve::QueryKind::kPathCount;
    t.push_back({kind, at});
    at += period / 2 + (period ? rng.below(period) : 0);
  }
  return t;
}

serve::QuerySpec spec_for(const TraceEntry& e, const DeviceGraph& dg, std::size_t i) {
  serve::QuerySpec s;
  s.kind = e.kind;
  s.graph = &dg;
  s.iterations = 2;
  s.root = 1;
  s.name = std::string(serve::kind_name(e.kind)) + std::to_string(i);
  return s;
}

struct PointResult {
  Tick period = 0;
  Tick makespan = 0;
  Tick p50 = 0, p99 = 0, mean = 0;
  std::uint64_t completed = 0, rejected = 0;
  double jobs_per_mtick = 0.0;
};

PointResult replay(const Graph& g, const std::vector<TraceEntry>& trace,
                   const serve::SchedOptions& opt, Tick period) {
  Machine m(MachineConfig::scaled(4));
  DeviceGraph dg = upload_graph(m, g);
  auto& eng = serve::QueryEngine::install(m);
  serve::Scheduler sched(eng, opt);
  std::vector<serve::TicketId> tickets;
  for (std::size_t i = 0; i < trace.size(); ++i)
    tickets.push_back(sched.submit(spec_for(trace[i], dg, i), serve::QoS::kNormal,
                                   trace[i].arrival));
  sched.drain();

  PointResult r;
  r.period = period;
  std::vector<Tick> lat;
  Tick last_done = 0;
  for (const serve::TicketId t : tickets) {
    const serve::Ticket& tk = sched.ticket(t);
    if (tk.status == serve::TicketStatus::kRejected) {
      ++r.rejected;
      continue;
    }
    lat.push_back(tk.latency());
    last_done = std::max(last_done, tk.done);
  }
  std::sort(lat.begin(), lat.end());
  r.completed = lat.size();
  if (!lat.empty()) {
    r.p50 = lat[lat.size() / 2];
    r.p99 = lat[std::min(lat.size() - 1, lat.size() * 99 / 100)];
    Tick sum = 0;
    for (const Tick l : lat) sum += l;
    r.mean = sum / lat.size();
    r.makespan = last_done;  // arrivals start at 0
    r.jobs_per_mtick = static_cast<double>(lat.size()) * 1e6 /
                       static_cast<double>(std::max<Tick>(1, r.makespan));
  }
  return r;
}

}  // namespace
}  // namespace updown

int main() {
  using namespace updown;
  const std::uint32_t scale = bench::graph_scale(8);
  Graph g = rmat(scale, {.symmetrize = true}, 77);
  const std::size_t njobs = 12;

  // Calibrate: the same trace, all arrivals at 0, one running slot — the
  // single-job-serial baseline every concurrency claim is measured against.
  const std::vector<TraceEntry> burst = make_trace(njobs, 0, 0x5EED);
  serve::SchedOptions serial_opt;
  serial_opt.max_concurrent = 1;
  serial_opt.max_queue = 64;
  const PointResult serial = replay(g, burst, serial_opt, 0);
  const Tick t_single = serial.makespan / njobs;  // mean solo job span
  std::printf("serial: makespan %llu ticks, mean job span %llu, p99 latency %llu\n",
              static_cast<unsigned long long>(serial.makespan),
              static_cast<unsigned long long>(t_single),
              static_cast<unsigned long long>(serial.p99));

  // The N=4 concurrent replay of the same burst, partitioned serving mode.
  serve::SchedOptions conc_opt;
  conc_opt.max_concurrent = 4;
  conc_opt.max_queue = 64;
  conc_opt.partition_lanes = true;
  const PointResult burst4 = replay(g, burst, conc_opt, 0);
  const double speedup = static_cast<double>(serial.makespan) /
                         static_cast<double>(std::max<Tick>(1, burst4.makespan));
  std::printf("concurrent x4: makespan %llu ticks — %.2fx serial throughput\n",
              static_cast<unsigned long long>(burst4.makespan), speedup);

  // The offered-load sweep: light (2x the solo span between arrivals),
  // saturating (0.5x), and overload (0.125x, small queue so the admission
  // bound actually rejects).
  struct LoadPoint {
    const char* name;
    Tick period;
    std::uint32_t max_queue;
  };
  const LoadPoint points[] = {
      {"light", t_single * 2, 16},
      {"saturating", t_single / 2, 16},
      {"overload", t_single / 24, 2},
  };
  std::vector<PointResult> results;
  for (const LoadPoint& p : points) {
    serve::SchedOptions opt = conc_opt;
    opt.max_queue = p.max_queue;
    results.push_back(replay(g, make_trace(njobs, p.period, 0x5EED), opt, p.period));
    const PointResult& r = results.back();
    std::printf("%-10s period %8llu: p50 %8llu  p99 %8llu  %.2f jobs/Mtick  rejected %llu\n",
                p.name, static_cast<unsigned long long>(p.period),
                static_cast<unsigned long long>(r.p50),
                static_cast<unsigned long long>(r.p99), r.jobs_per_mtick,
                static_cast<unsigned long long>(r.rejected));
  }

  bench::Json j("BENCH_serve_latency.json");
  j.str("bench", "serve_latency");
  j.u64("graph_scale", scale);
  j.u64("jobs", njobs);
  j.str("mix", "pagerank/bfs/pathcount round-robin");
  j.u64("serial_makespan", serial.makespan);
  j.u64("concurrent4_makespan", burst4.makespan);
  j.num("concurrent4_speedup", speedup);
  j.begin_array("load_points");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const PointResult& r = results[i];
    j.begin_object();
    j.str("load", points[i].name);
    j.u64("arrival_period", r.period);
    j.u64("p50_latency", r.p50);
    j.u64("p99_latency", r.p99);
    j.u64("mean_latency", r.mean);
    j.num("jobs_per_mtick", r.jobs_per_mtick);
    j.u64("completed", r.completed);
    j.u64("rejected", r.rejected);
    j.end();
  }
  j.end();
  j.close();

  // Latency must degrade monotonically-ish with load: overload p99 above
  // light p99 (a sanity property, enforced always).
  if (results.front().p99 > results.back().p99) {
    std::fprintf(stderr, "FAIL: p99 under overload (%llu) below light load (%llu)\n",
                 static_cast<unsigned long long>(results.back().p99),
                 static_cast<unsigned long long>(results.front().p99));
    return 1;
  }
  // The overload point is sized so the bounded queue actually rejects —
  // a deterministic simulated property, checked regardless of host size.
  if (results.back().rejected == 0) {
    std::fprintf(stderr, "FAIL: overload point rejected nothing — admission bound idle\n");
    return 1;
  }
  if (std::getenv("UD_BENCH_ENFORCE") && std::thread::hardware_concurrency() >= 4) {
    if (speedup < 1.5) {
      std::fprintf(stderr, "FAIL: 4-slot concurrent throughput %.2fx serial (floor 1.5x)\n",
                   speedup);
      return 1;
    }
  }
  return 0;
}
