// Ablations for the design choices DESIGN.md calls out:
//
//  1. Map-task window depth (JobSpec::max_inflight_per_lane): the KVMSR
//     latency-tolerance claim — "enough thread parallelism ... to tolerate
//     latency" — quantified by sweeping the window on a multi-node machine.
//  2. Termination-gather backoff (JobSpec::poll_backoff): without pacing,
//     the master lane saturates itself re-polling.
//  3. Block vs PBMW map binding under *artificial* skew (a key range whose
//     map cost grows with the key): the case PBMW exists for.
#include <cstdio>

#include "kvmsr/kvmsr.hpp"

using namespace updown;
using namespace updown::kvmsr;

namespace {

struct AblApp {
  JobId job = 0;
  Addr cells = 0;
  std::uint64_t n = 0;
  bool skewed = false;
  std::uint64_t reduce_cost = 3;
  EventLabel loaded_label = 0;
  EventLabel r_loaded_label = 0;
};

struct AblMap : MapTask {
  JobId job = 0;

  void kv_map(Ctx& ctx) {
    kvmsr_begin(ctx);
    auto& app = ctx.machine().user<AblApp>();
    job = Library::map_job(ctx);
    const Word k = Library::map_key(ctx);
    // Skew: the last keys cost ~64x the first ones (triangle-shaped work).
    if (app.skewed) ctx.charge(1 + 64 * k / app.n);
    ctx.send_dram_read(app.cells + (k % app.n) * 8, 1, app.loaded_label);
  }

  void loaded(Ctx& ctx) {
    auto& lib = ctx.machine().service<Library>();
    ctx.charge(2);
    lib.emit(ctx, job, ctx.op(0), 1);
    lib.map_return(ctx, kvmsr_cont);
  }
};

// Two-event reduce (read then combine), like TC's streaming reducers: the
// lane is idle-but-pending between the events, so termination polls do NOT
// queue behind the work — this is the regime where gather pacing matters.
struct AblReduce : ThreadState {
  JobId job = 0;

  void kv_reduce(Ctx& ctx) {
    auto& app = ctx.machine().user<AblApp>();
    job = Library::reduce_job(ctx);
    ctx.send_dram_read(app.cells + (Library::reduce_key(ctx) % app.n) * 8, 1,
                       app.r_loaded_label);
  }

  void r_loaded(Ctx& ctx) {
    auto& lib = ctx.machine().service<Library>();
    ctx.charge(ctx.machine().user<AblApp>().reduce_cost);
    lib.reduce_return(ctx, job);
  }
};

struct RunStats {
  Tick ticks = 0;
  std::uint32_t poll_rounds = 0;
  Tick master_busy = 0;
};

RunStats run_once(std::uint32_t window, Tick backoff, MapBinding binding, bool skewed,
                  std::uint64_t reduce_cost = 3) {
  Machine m(MachineConfig::scaled(8));
  auto& lib = Library::install(m);
  auto& app = m.emplace_user<AblApp>();
  app.n = 40000;
  app.skewed = skewed;
  app.reduce_cost = reduce_cost;
  app.cells = m.memory().dram_malloc_spread(app.n * 8);
  for (std::uint64_t i = 0; i < app.n; ++i)
    m.memory().host_store<Word>(app.cells + i * 8, i * 2654435761u % app.n);

  JobSpec spec;
  spec.kv_map = m.program().event("abl::kv_map", &AblMap::kv_map);
  app.loaded_label = m.program().event("abl::loaded", &AblMap::loaded);
  spec.kv_reduce = m.program().event("abl::kv_reduce", &AblReduce::kv_reduce);
  app.r_loaded_label = m.program().event("abl::r_loaded", &AblReduce::r_loaded);
  spec.max_inflight_per_lane = window;
  spec.poll_backoff = backoff;
  spec.map_binding = binding;
  app.job = lib.add_job(spec);
  const JobState& st = lib.run_to_completion(app.job, 0, app.n);
  return {st.done_tick - st.start_tick, st.poll_rounds, m.lane_stats()[0].busy_cycles};
}

}  // namespace

int main() {
  std::printf("KVMSR design ablations (8-node machine, 40k keys with one remote read each)\n");

  std::printf("\n--- map window depth (latency tolerance) ---\n");
  std::printf("%-8s %12s %10s\n", "window", "ticks", "speedup");
  Tick base = 0;
  for (std::uint32_t w : {1u, 2u, 4u, 8u, 16u, 32u, 64u, 128u}) {
    const Tick t = run_once(w, 4096, MapBinding::kBlock, false).ticks;
    if (!base) base = t;
    std::printf("%-8u %12llu %10.2f\n", w, (unsigned long long)t,
                static_cast<double>(base) / t);
  }

  // The backoff does not change end-to-end time when polling overlaps the
  // reduce drain; what it buys is master-lane headroom (the TC regression
  // that motivated it had application reduces sharing the master's lane).
  std::printf("\n--- termination-gather backoff (reduce-heavy drain) ---\n");
  std::printf("%-8s %12s %8s %14s\n", "backoff", "ticks", "rounds", "master busy");
  for (Tick b : {Tick{0}, Tick{256}, Tick{1024}, Tick{4096}, Tick{16384}}) {
    const RunStats r = run_once(64, b, MapBinding::kBlock, false, /*reduce_cost=*/300);
    std::printf("%-8llu %12llu %8u %14llu\n", (unsigned long long)b,
                (unsigned long long)r.ticks, r.poll_rounds,
                (unsigned long long)r.master_busy);
  }

  std::printf("\n--- Block vs PBMW under triangle-shaped key skew ---\n");
  std::printf("%-8s %12s %12s\n", "", "Block", "PBMW");
  const Tick tb = run_once(64, 4096, MapBinding::kBlock, true).ticks;
  const Tick tp = run_once(64, 4096, MapBinding::kPBMW, true).ticks;
  std::printf("%-8s %12llu %12llu   (PBMW %+0.1f%%)\n", "skewed", (unsigned long long)tb,
              (unsigned long long)tp, 100.0 * (static_cast<double>(tb) / tp - 1.0));
  return 0;
}
