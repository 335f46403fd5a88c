// udtrace: the opt-in timeline/profiling layer (src/trace/).
//
// The load-bearing properties asserted here:
//   - off by default and zero-observable: no tracer, no files;
//   - the serialized trace is byte-identical across UD_SHARDS counts and
//     across repeated runs (the same determinism contract as the engine);
//   - phase spans (KVMSR map / shuffle-drain) appear begin-before-end and
//     balanced — the structural golden for a tiny KVMSR job;
//   - the UD_TRACE env path overrides the configured path, and UD_TRACE_SLICE
//     parses strictly;
//   - the hot-path slice bucketing splits busy cycles across boundaries.
#include "trace/trace.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "env_guard.hpp"
#include "kvmsr/kvmsr.hpp"

namespace updown {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f.good()) << "missing file: " << path;
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

bool file_exists(const std::string& path) {
  std::ifstream f(path);
  return f.good();
}

// ---------------------------------------------------------------------------
// Tiny KVMSR job: map key k emits (k % 7, k); reduce just retires the tuple.
// Small enough for a structural golden, big enough to cross nodes.
// ---------------------------------------------------------------------------
struct TinyMap : ThreadState {
  void kv_map(Ctx& ctx) {
    auto& lib = ctx.machine().service<kvmsr::Library>();
    const Word k = kvmsr::Library::map_key(ctx);
    ctx.charge(2);
    lib.emit(ctx, kvmsr::Library::map_job(ctx), k % 7, k);
    lib.map_return(ctx, ctx.ccont());
  }
};

struct TinyReduce : ThreadState {
  void kv_reduce(Ctx& ctx) {
    auto& lib = ctx.machine().service<kvmsr::Library>();
    ctx.charge(1);
    lib.reduce_return(ctx, kvmsr::Library::reduce_job(ctx));
  }
};

struct Noop : ThreadState {
  void go(Ctx& ctx) {
    ctx.charge(1);
    ctx.yield_terminate();
  }
};

/// Run the tiny job on a 4-node machine with tracing to `trace_path` under
/// `shards` host threads; returns the job's done tick.
Tick run_tiny_traced(const std::string& trace_path, std::uint32_t shards) {
  EnvGuard g1("UD_SHARDS", std::to_string(shards).c_str());
  EnvGuard g2("UD_TRACE", nullptr);        // config path, not env, drives this run
  EnvGuard g3("UD_TRACE_SLICE", nullptr);
  EnvGuard g4("UD_CHECK", "0");
  EnvGuard g5("UD_COALESCE", nullptr);
  MachineConfig cfg = MachineConfig::scaled(4);
  cfg.trace = trace_path;
  Machine m(cfg);
  EXPECT_NE(m.tracer(), nullptr);
  auto& lib = kvmsr::Library::install(m);
  kvmsr::JobSpec spec;
  spec.kv_map = m.program().event("TinyMap::kv_map", &TinyMap::kv_map);
  spec.kv_reduce = m.program().event("TinyReduce::kv_reduce", &TinyReduce::kv_reduce);
  spec.name = "tiny";
  const kvmsr::JobId job = lib.add_job(spec);
  const kvmsr::JobState& st = lib.run_to_completion(job, 0, 500);
  EXPECT_EQ(st.total_emitted, 500u);
  return st.done_tick;
}

TEST(TraceTest, OffByDefaultNoTracerNoFiles) {
  EnvGuard g1("UD_TRACE", nullptr);
  EnvGuard g2("UD_SHARDS", "1");
  Machine m(MachineConfig::scaled(1));
  EXPECT_EQ(m.tracer(), nullptr);
}

TEST(TraceTest, WritesJsonAndCsvSiblings) {
  const std::string path = testing::TempDir() + "udtrace_basic.json";
  run_tiny_traced(path, 1);
  ASSERT_TRUE(file_exists(path));
  ASSERT_TRUE(file_exists(path + ".csv"));
  const std::string json = slurp(path);
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"udtrace\""), std::string::npos);
  EXPECT_NE(json.find("\"busy cycles\""), std::string::npos);
  EXPECT_NE(json.find("\"traffic_matrix_messages\""), std::string::npos);
  EXPECT_NE(json.find("\"message_latency_hist\""), std::string::npos);
  const std::string csv = slurp(path + ".csv");
  EXPECT_EQ(csv.rfind("# udtrace v1", 0), 0u);
  EXPECT_NE(csv.find("lane_busy,"), std::string::npos);
  EXPECT_NE(csv.find("phase,"), std::string::npos);
}

// The structural golden: the KVMSR master emits one balanced map span and one
// balanced shuffle-drain span, begin strictly before end, map before drain.
TEST(TraceTest, KvmsrPhaseSpansBalancedAndOrdered) {
  const std::string path = testing::TempDir() + "udtrace_phases.json";
  run_tiny_traced(path, 1);
  const std::string json = slurp(path);

  const auto count = [&](const std::string& needle) {
    std::size_t n = 0, pos = 0;
    while ((pos = json.find(needle, pos)) != std::string::npos) {
      ++n;
      pos += needle.size();
    }
    return n;
  };
  EXPECT_EQ(count("\"name\":\"tiny:map\",\"ph\":\"B\""), 1u);
  EXPECT_EQ(count("\"name\":\"tiny:map\",\"ph\":\"E\""), 1u);
  EXPECT_EQ(count("\"name\":\"tiny:drain\",\"ph\":\"B\""), 1u);
  EXPECT_EQ(count("\"name\":\"tiny:drain\",\"ph\":\"E\""), 1u);
  EXPECT_EQ(count("\"name\":\"tiny:flush\""), 0u);  // no flush phase configured

  const std::size_t map_b = json.find("\"name\":\"tiny:map\",\"ph\":\"B\"");
  const std::size_t map_e = json.find("\"name\":\"tiny:map\",\"ph\":\"E\"");
  const std::size_t drain_b = json.find("\"name\":\"tiny:drain\",\"ph\":\"B\"");
  const std::size_t drain_e = json.find("\"name\":\"tiny:drain\",\"ph\":\"E\"");
  // Phase events are serialized in (t, lane, seq) order, so textual order is
  // timeline order: map opens, closes, then the drain opens and closes.
  EXPECT_LT(map_b, map_e);
  EXPECT_LE(map_e, drain_b);
  EXPECT_LT(drain_b, drain_e);
}

TEST(TraceTest, ByteIdenticalAcrossShardCounts) {
  const std::string p1 = testing::TempDir() + "udtrace_s1.json";
  const std::string p4 = testing::TempDir() + "udtrace_s4.json";
  const Tick d1 = run_tiny_traced(p1, 1);
  const Tick d4 = run_tiny_traced(p4, 4);
  EXPECT_EQ(d1, d4);  // tracing never perturbs simulated time
  EXPECT_EQ(slurp(p1), slurp(p4));
  EXPECT_EQ(slurp(p1 + ".csv"), slurp(p4 + ".csv"));
}

TEST(TraceTest, ByteIdenticalAcrossRepeatedRuns) {
  const std::string pa = testing::TempDir() + "udtrace_runA.json";
  const std::string pb = testing::TempDir() + "udtrace_runB.json";
  run_tiny_traced(pa, 2);
  run_tiny_traced(pb, 2);
  EXPECT_EQ(slurp(pa), slurp(pb));
  EXPECT_EQ(slurp(pa + ".csv"), slurp(pb + ".csv"));
}

TEST(TraceTest, EnvPathOverridesConfiguredPath) {
  const std::string cfg_path = testing::TempDir() + "udtrace_cfg_path.json";
  const std::string env_path = testing::TempDir() + "udtrace_env_path.json";
  std::remove(cfg_path.c_str());
  std::remove(env_path.c_str());
  EnvGuard g1("UD_TRACE", env_path.c_str());
  EnvGuard g2("UD_SHARDS", "1");
  MachineConfig cfg = MachineConfig::scaled(1);
  cfg.trace = cfg_path;
  Machine m(cfg);
  ASSERT_NE(m.tracer(), nullptr);
  EXPECT_EQ(m.tracer()->path(), env_path);
  m.send_from_host(evw::make_new(0, m.program().event("noop", &Noop::go)), {});
  m.run();
  EXPECT_TRUE(file_exists(env_path));
  EXPECT_FALSE(file_exists(cfg_path));
}

TEST(TraceTest, TraceSliceEnvParsesStrictly) {
  EnvGuard g1("UD_TRACE", "/tmp/udtrace_unused.json");
  {
    EnvGuard g2("UD_TRACE_SLICE", "512");
    Machine m(MachineConfig::scaled(1));
    ASSERT_NE(m.tracer(), nullptr);
    EXPECT_EQ(m.tracer()->slice(), 512u);
  }
  {
    EnvGuard g2("UD_TRACE_SLICE", "0");  // 0 keeps the configured default
    Machine m(MachineConfig::scaled(1));
    ASSERT_NE(m.tracer(), nullptr);
    EXPECT_EQ(m.tracer()->slice(), MachineConfig{}.trace_slice);
  }
  {
    EnvGuard g2("UD_TRACE_SLICE", "1024x");
    EXPECT_THROW(Machine m(MachineConfig::scaled(1)), std::invalid_argument);
  }
  {
    EnvGuard g2("UD_TRACE_SLICE", "-4");
    EXPECT_THROW(Machine m(MachineConfig::scaled(1)), std::invalid_argument);
  }
}

// ---------------------------------------------------------------------------
// Tracer unit level: slice bucketing and the imbalance series.
// ---------------------------------------------------------------------------
TEST(TracerUnitTest, BusyCostSplitsAcrossSliceBoundaries) {
  const MachineConfig cfg = MachineConfig::scaled(1);  // 32 lanes
  Tracer t(cfg, 1, "unused.json", /*slice=*/10);
  // 15 busy cycles starting at tick 5: 5 land in slice 0, 10 in slice 1.
  t.on_execute(/*lane=*/0, /*node=*/0, /*arrive=*/5, /*start=*/5, /*cost=*/15);
  const std::vector<double> imb = t.imbalance_series();
  ASSERT_EQ(imb.size(), 2u);
  // One active lane out of 32: peak == total, so max/mean == lane count.
  const double nlanes = static_cast<double>(cfg.total_lanes());
  EXPECT_DOUBLE_EQ(imb[0], nlanes);
  EXPECT_DOUBLE_EQ(imb[1], nlanes);
}

TEST(TracerUnitTest, ImbalanceIsMaxOverMeanPerSlice) {
  const MachineConfig cfg = MachineConfig::scaled(1);
  Tracer t(cfg, 1, "unused.json", /*slice=*/100);
  // Slice 0: two lanes busy 10 and 30 -> total 40 over 32 lanes, peak 30.
  t.on_execute(0, 0, 0, 0, 10);
  t.on_execute(1, 0, 0, 20, 30);
  const std::vector<double> imb = t.imbalance_series();
  ASSERT_EQ(imb.size(), 1u);
  EXPECT_DOUBLE_EQ(imb[0], 30.0 * 32.0 / 40.0);
}

TEST(TracerUnitTest, EmptySlicesReportZeroImbalance) {
  const MachineConfig cfg = MachineConfig::scaled(1);
  Tracer t(cfg, 1, "unused.json", /*slice=*/10);
  t.on_execute(0, 0, 25, 25, 1);  // activity only in slice 2
  const std::vector<double> imb = t.imbalance_series();
  ASSERT_EQ(imb.size(), 3u);
  EXPECT_DOUBLE_EQ(imb[0], 0.0);
  EXPECT_DOUBLE_EQ(imb[1], 0.0);
  EXPECT_GT(imb[2], 0.0);
}

}  // namespace
}  // namespace updown
