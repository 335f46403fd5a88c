// KVMSR edge cases: custom bindings, PBMW chunk boundaries, re-launch rules,
// counters, and the combining cache in isolation.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "env_guard.hpp"
#include "kvmsr/combining_cache.hpp"
#include "kvmsr/kvmsr.hpp"

namespace updown::kvmsr {
namespace {

struct EdgeApp {
  JobId job = 0;
  std::vector<NetworkId> reduce_ran_at;  // by key
  std::vector<std::uint32_t> map_runs;   // by key
};

struct EMap : ThreadState {
  void kv_map(Ctx& ctx) {
    auto& lib = ctx.machine().service<Library>();
    auto& app = ctx.machine().user<EdgeApp>();
    const Word k = Library::map_key(ctx);
    app.map_runs.at(k)++;
    lib.emit(ctx, Library::map_job(ctx), k, 0);
    lib.map_return(ctx, ctx.ccont());
  }
};

struct EReduce : ThreadState {
  void kv_reduce(Ctx& ctx) {
    auto& lib = ctx.machine().service<Library>();
    auto& app = ctx.machine().user<EdgeApp>();
    app.reduce_ran_at.at(Library::reduce_key(ctx)) = ctx.nwid();
    lib.reduce_return(ctx, Library::reduce_job(ctx));
  }
};

class KvmsrEdge : public ::testing::Test {
 protected:
  void make(std::uint32_t nodes, JobSpec spec, std::uint64_t keys) {
    m_ = std::make_unique<Machine>(MachineConfig::scaled(nodes));
    lib_ = &Library::install(*m_);
    app_ = &m_->emplace_user<EdgeApp>();
    app_->reduce_ran_at.assign(keys, ~0u);
    app_->map_runs.assign(keys, 0);
    spec.kv_map = m_->program().event("EMap::kv_map", &EMap::kv_map);
    spec.kv_reduce = m_->program().event("EReduce::kv_reduce", &EReduce::kv_reduce);
    app_->job = lib_->add_job(spec);
  }
  std::unique_ptr<Machine> m_;
  Library* lib_ = nullptr;
  EdgeApp* app_ = nullptr;
};

TEST_F(KvmsrEdge, CustomReduceBindingIsHonored) {
  JobSpec spec;
  // Route every key to the LAST lane of the set.
  spec.reduce_binding = [](Word, NetworkId first, std::uint32_t count) {
    return first + count - 1;
  };
  make(2, spec, 100);
  lib_->run_to_completion(app_->job, 0, 100);
  const NetworkId last = static_cast<NetworkId>(m_->config().total_lanes() - 1);
  for (auto lane : app_->reduce_ran_at) EXPECT_EQ(lane, last);
}

TEST_F(KvmsrEdge, DefaultHashBindingUsesManyLanes) {
  make(4, {}, 2000);
  lib_->run_to_completion(app_->job, 0, 2000);
  std::set<NetworkId> used(app_->reduce_ran_at.begin(), app_->reduce_ran_at.end());
  EXPECT_GT(used.size(), m_->config().total_lanes() / 2);
}

TEST_F(KvmsrEdge, EveryKeyMapsExactlyOnce) {
  for (MapBinding b : {MapBinding::kBlock, MapBinding::kPBMW}) {
    JobSpec spec;
    spec.map_binding = b;
    spec.pbmw_chunk = 7;  // deliberately not a divisor of the key count
    make(2, spec, 1000);
    lib_->run_to_completion(app_->job, 0, 1000);
    for (std::uint64_t k = 0; k < 1000; ++k)
      EXPECT_EQ(app_->map_runs[k], 1u) << "binding " << int(b) << " key " << k;
  }
}

TEST_F(KvmsrEdge, PbmwChunkLargerThanKeyRange) {
  JobSpec spec;
  spec.map_binding = MapBinding::kPBMW;
  spec.pbmw_chunk = 1 << 20;
  make(2, spec, 50);
  const JobState& st = lib_->run_to_completion(app_->job, 0, 50);
  EXPECT_EQ(st.total_emitted, 50u);
}

TEST_F(KvmsrEdge, NonZeroKeyRangeStart) {
  make(2, {}, 300);
  lib_->run_to_completion(app_->job, 100, 300);
  for (std::uint64_t k = 0; k < 100; ++k) EXPECT_EQ(app_->map_runs[k], 0u);
  for (std::uint64_t k = 100; k < 300; ++k) EXPECT_EQ(app_->map_runs[k], 1u);
}

TEST_F(KvmsrEdge, RelaunchAfterCompletionResetsCounters) {
  make(2, {}, 100);
  const JobState& st1 = lib_->run_to_completion(app_->job, 0, 100);
  EXPECT_EQ(st1.runs, 1u);
  EXPECT_EQ(st1.total_emitted, 100u);
  std::fill(app_->map_runs.begin(), app_->map_runs.end(), 0);
  const JobState& st2 = lib_->run_to_completion(app_->job, 0, 100);
  EXPECT_EQ(st2.runs, 2u);
  EXPECT_EQ(st2.total_emitted, 100u);  // not 200: counters reset per launch
}

TEST_F(KvmsrEdge, EmptyKeyRangeCompletesImmediately) {
  make(2, {}, 10);
  const JobState& st = lib_->run_to_completion(app_->job, 5, 5);
  EXPECT_EQ(st.total_emitted, 0u);
  for (std::uint64_t k = 0; k < 10; ++k) EXPECT_EQ(app_->map_runs[k], 0u);
  EXPECT_TRUE(m_->idle());
  // An empty launch leaves the job relaunchable — it completed normally.
  const JobState& st2 = lib_->run_to_completion(app_->job, 0, 10);
  EXPECT_EQ(st2.total_emitted, 10u);
}

TEST_F(KvmsrEdge, SingleKeyRange) {
  for (MapBinding b : {MapBinding::kBlock, MapBinding::kPBMW}) {
    JobSpec spec;
    spec.map_binding = b;
    make(2, spec, 100);
    const JobState& st = lib_->run_to_completion(app_->job, 42, 43);
    EXPECT_EQ(st.total_emitted, 1u);
    for (std::uint64_t k = 0; k < 100; ++k)
      EXPECT_EQ(app_->map_runs[k], k == 42 ? 1u : 0u) << "binding " << int(b);
    EXPECT_NE(app_->reduce_ran_at[42], ~0u);
  }
}

// All keys collide onto a single reduce key: the worst-case serialization the
// paper's KVMSR section calls out. Every map emits key 0, so one reduce lane
// must absorb every update, once per emission.
struct CollideApp {
  JobId job = 0;
  std::uint64_t reduce_runs = 0;
  std::set<NetworkId> reduce_lanes;
};

struct CollideMap : ThreadState {
  void kv_map(Ctx& ctx) {
    auto& lib = ctx.machine().service<Library>();
    lib.emit(ctx, Library::map_job(ctx), /*key=*/0, Library::map_key(ctx));
    lib.map_return(ctx, ctx.ccont());
  }
};

struct CollideReduce : ThreadState {
  void kv_reduce(Ctx& ctx) {
    auto& lib = ctx.machine().service<Library>();
    auto& app = ctx.machine().user<CollideApp>();
    app.reduce_runs++;
    app.reduce_lanes.insert(ctx.nwid());
    lib.reduce_return(ctx, Library::reduce_job(ctx));
  }
};

TEST(KvmsrCollide, AllKeysCollideOnOneReducer) {
  Machine m(MachineConfig::scaled(2));
  auto& lib = Library::install(m);
  auto& app = m.emplace_user<CollideApp>();
  JobSpec spec;
  spec.kv_map = m.program().event("CollideMap::kv_map", &CollideMap::kv_map);
  spec.kv_reduce = m.program().event("CollideReduce::kv_reduce", &CollideReduce::kv_reduce);
  app.job = lib.add_job(spec);
  const JobState& st = lib.run_to_completion(app.job, 0, 500);
  EXPECT_EQ(st.total_emitted, 500u);
  EXPECT_EQ(app.reduce_runs, 500u);
  EXPECT_EQ(app.reduce_lanes.size(), 1u);  // one key → one owning lane
}

// A reduce that finishes long after it starts: the termination gather keeps
// re-polling for the whole wait, and its exponential backoff must stay capped
// at poll_backoff. An uncapped backoff (128 * 2^57 = 2^64) wrapped to zero
// after 57 re-polls, and every later re-poll fired back to back, saturating
// the master lane.
struct SlowApp {
  EventLabel finish = 0;
};

struct SlowReduce : ThreadState {
  static constexpr Tick kWait = 1'000'000;
  JobId job = 0;

  void kv_reduce(Ctx& ctx) {
    job = Library::reduce_job(ctx);
    ctx.send_event_delayed(ctx.evw_update_event(ctx.cevnt(), ctx.machine().user<SlowApp>().finish),
                           {}, IGNRCONT, kWait);
  }
  void finish(Ctx& ctx) { ctx.machine().service<Library>().reduce_return(ctx, job); }
};

TEST(KvmsrGather, LongReduceRepollsAtCappedBackoff) {
  Machine m(MachineConfig::scaled(1));
  auto& lib = Library::install(m);
  m.emplace_user<SlowApp>().finish = m.program().event("SlowReduce::finish", &SlowReduce::finish);
  JobSpec spec;
  spec.kv_map = m.program().event("CollideMap::kv_map", &CollideMap::kv_map);
  spec.kv_reduce = m.program().event("SlowReduce::kv_reduce", &SlowReduce::kv_reduce);
  const JobId job = lib.add_job(spec);

  const JobState& st = lib.run_to_completion(job, 0, 1);
  const Tick duration = st.done_tick - st.start_tick;
  EXPECT_GE(duration, SlowReduce::kWait);
  EXPECT_LE(st.poll_rounds, duration / spec.poll_backoff + 16);
  const Tick master_busy = m.lane_stats().at(lib.lanes_of(job).first).busy_cycles;
  EXPECT_LT(master_busy * 10, duration) << "master lane busy " << master_busy << " cycles";
}

TEST_F(KvmsrEdge, LaunchWhileRunningThrows) {
  make(1, {}, 100);
  lib_->launch_from_host(app_->job, 0, 100);
  lib_->launch_from_host(app_->job, 0, 100);
  EXPECT_THROW(m_->run(), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Combining cache in isolation.
// ---------------------------------------------------------------------------
struct CcApp {
  Addr cell = 0;
  EventLabel add = 0, flush_done = 0;
  bool flushed = false;
};

struct CcUser : ThreadState {
  void add(Ctx& ctx) {
    auto& cc = ctx.machine().service<CombiningCache>();
    auto& app = ctx.machine().user<CcApp>();
    cc.add_u64(ctx, app.cell, ctx.op(0));
    cc.add_f64(ctx, app.cell + 8, 0.5);
    ctx.yield_terminate();
  }
};

struct CcWatcher : ThreadState {
  void flush_done(Ctx& ctx) {
    ctx.machine().user<CcApp>().flushed = true;
    ctx.yield_terminate();
  }
};

TEST(CombiningCacheUnit, AccumulatesAndFlushesRmw) {
  Machine m(MachineConfig::scaled(1));
  auto& cc = CombiningCache::install(m);
  auto& app = m.emplace_user<CcApp>();
  app.cell = m.memory().dram_malloc_spread(64, 4096);
  m.memory().host_store<Word>(app.cell, 1000);       // pre-existing value: RMW adds
  m.memory().host_store<double>(app.cell + 8, 0.25);
  app.add = m.program().event("CcUser::add", &CcUser::add);
  app.flush_done = m.program().event("CcWatcher::flush_done", &CcWatcher::flush_done);

  for (Word i = 1; i <= 10; ++i) m.send_from_host(evw::make_new(0, app.add), {i});
  m.run();
  EXPECT_EQ(cc.entries(0), 2u);
  EXPECT_EQ(m.memory().host_load<Word>(app.cell), 1000u);  // not yet flushed

  m.send_from_host(evw::make_new(0, cc.flush_label()), {0},
                   evw::make_new(0, app.flush_done));
  m.run();
  EXPECT_TRUE(app.flushed);
  EXPECT_EQ(cc.entries(0), 0u);
  EXPECT_EQ(m.memory().host_load<Word>(app.cell), 1055u);  // 1000 + 1..10
  EXPECT_DOUBLE_EQ(m.memory().host_load<double>(app.cell + 8), 0.25 + 5.0);
  EXPECT_EQ(cc.total_flushed(), 2u);
}

TEST(CombiningCacheUnit, EmptyFlushRepliesImmediately) {
  Machine m(MachineConfig::scaled(1));
  auto& cc = CombiningCache::install(m);
  auto& app = m.emplace_user<CcApp>();
  app.flush_done = m.program().event("CcWatcher::flush_done", &CcWatcher::flush_done);
  m.send_from_host(evw::make_new(3, cc.flush_label()), {0},
                   evw::make_new(0, app.flush_done));
  m.run();
  EXPECT_TRUE(app.flushed);
}

// ---------------------------------------------------------------------------
// UD_COALESCE is parsed strictly at add_job: "-1" used to wrap through
// strtoul into a huge factor (silently clamped), and trailing garbage was
// silently ignored. Both are now fatal; "0"/unset keep the job's factor, and
// anything above the bulk-message capacity (kMaxBulkWords) is rejected
// instead of silently truncated.
// ---------------------------------------------------------------------------

class KvmsrCoalesceEnv : public ::testing::Test {
 protected:
  JobId add(Machine& m) {
    auto& lib = Library::install(m);
    JobSpec spec;
    spec.kv_map = m.program().event("EMap::kv_map_env", &EMap::kv_map);
    spec.kv_reduce = m.program().event("EReduce::kv_reduce_env", &EReduce::kv_reduce);
    spec.name = "env";
    spec.coalesce_tuples = 8;
    return lib.add_job(spec);
  }
};

TEST_F(KvmsrCoalesceEnv, NegativeValueThrows) {
  EnvGuard g("UD_COALESCE", "-1");
  Machine m(MachineConfig::scaled(1));
  EXPECT_THROW(add(m), std::invalid_argument);
}

TEST_F(KvmsrCoalesceEnv, TrailingGarbageThrows) {
  EnvGuard g("UD_COALESCE", "16x");
  Machine m(MachineConfig::scaled(1));
  EXPECT_THROW(add(m), std::invalid_argument);
}

TEST_F(KvmsrCoalesceEnv, BeyondBulkCapacityThrows) {
  EnvGuard g("UD_COALESCE", std::to_string(kMaxBulkWords + 1).c_str());
  Machine m(MachineConfig::scaled(1));
  EXPECT_THROW(add(m), std::invalid_argument);
}

TEST_F(KvmsrCoalesceEnv, ZeroAndUnsetKeepTheJobFactor) {
  {
    EnvGuard g("UD_COALESCE", "0");
    Machine m(MachineConfig::scaled(1));
    EXPECT_NO_THROW(add(m));
  }
  {
    EnvGuard g("UD_COALESCE", nullptr);
    Machine m(MachineConfig::scaled(1));
    EXPECT_NO_THROW(add(m));
  }
}

TEST_F(KvmsrCoalesceEnv, CapacityBoundaryIsAccepted) {
  EnvGuard g("UD_COALESCE", std::to_string(kMaxBulkWords).c_str());
  Machine m(MachineConfig::scaled(1));
  EXPECT_NO_THROW(add(m));
}

}  // namespace
}  // namespace updown::kvmsr
