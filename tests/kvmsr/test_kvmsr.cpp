// KVMSR end-to-end: map/emit/reduce over the simulated machine, bindings,
// termination protocol, and the combining-cache flush phase.
#include "kvmsr/kvmsr.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "kvmsr/combining_cache.hpp"

namespace updown::kvmsr {
namespace {

// ---------------------------------------------------------------------------
// Job 1: "square sum" — map key k emits (k % buckets, k*k); reduce
// accumulates into a combining cache over a global histogram array.
struct HistApp {
  JobId job = 0;
  Addr hist_base = 0;
  std::uint64_t buckets = 0;
};

struct HistMap : ThreadState {
  void kv_map(Ctx& ctx) {
    auto& lib = ctx.machine().service<Library>();
    auto& app = ctx.machine().user<HistApp>();
    const Word k = Library::map_key(ctx);
    ctx.charge(2);
    lib.emit(ctx, Library::map_job(ctx), k % app.buckets, k * k);
    lib.map_return(ctx, ctx.ccont());
  }
};

struct HistReduce : ThreadState {
  void kv_reduce(Ctx& ctx) {
    auto& lib = ctx.machine().service<Library>();
    auto& cc = ctx.machine().service<CombiningCache>();
    auto& app = ctx.machine().user<HistApp>();
    const Word bucket = Library::reduce_key(ctx);
    cc.add_u64(ctx, app.hist_base + bucket * 8, Library::reduce_val(ctx));
    lib.reduce_return(ctx, Library::reduce_job(ctx));
  }
};

// Runs the histogram job over 5,000 keys with a combining-cache flush phase
// and checks every bucket. Returns every lane's stats; lane 0 is the
// master's.
std::vector<LaneStats> run_histogram(const MachineConfig& cfg, MapBinding binding) {
  Machine m(cfg);
  auto& lib = Library::install(m);
  auto& cc = CombiningCache::install(m);

  auto& app = m.emplace_user<HistApp>();
  app.buckets = 13;
  app.hist_base = m.memory().dram_malloc_spread(app.buckets * 8, 4096);
  m.memory().host_fill(app.hist_base, 0, app.buckets * 8);

  JobSpec spec;
  spec.kv_map = m.program().event("HistMap::kv_map", &HistMap::kv_map);
  spec.kv_reduce = m.program().event("HistReduce::kv_reduce", &HistReduce::kv_reduce);
  spec.flush = cc.flush_label();
  spec.map_binding = binding;
  spec.name = "hist";
  app.job = lib.add_job(spec);

  const std::uint64_t n = 5000;
  const JobState& st = lib.run_to_completion(app.job, 0, n);

  EXPECT_EQ(st.total_keys, n);
  EXPECT_EQ(st.total_emitted, n);
  EXPECT_GT(st.done_tick, st.map_done_tick);
  EXPECT_GT(st.map_done_tick, st.start_tick);

  // Exact histogram regardless of machine size or binding.
  for (std::uint64_t b = 0; b < app.buckets; ++b) {
    std::uint64_t expect = 0;
    for (std::uint64_t k = b; k < n; k += app.buckets) expect += k * k;
    EXPECT_EQ(m.memory().host_load<Word>(app.hist_base + b * 8), expect) << "bucket " << b;
  }
  return m.lane_stats();
}

class KvmsrHistogram : public ::testing::TestWithParam<std::tuple<std::uint32_t, MapBinding>> {
};

TEST_P(KvmsrHistogram, ComputesExactHistogramAtAnyScale) {
  const auto [nodes, binding] = GetParam();
  run_histogram(MachineConfig::scaled(nodes), binding);
}

INSTANTIATE_TEST_SUITE_P(
    ScalesAndBindings, KvmsrHistogram,
    ::testing::Combine(::testing::Values(1u, 2u, 8u), ::testing::Values(MapBinding::kBlock,
                                                                        MapBinding::kPBMW)));

// The kBlock launch, map-done, every poll round and the flush go through the
// control tree, so the master's lane handles at most 64 control messages per
// exchange: 4x the lanes must not bring 4x its events, and at 1,024 nodes the
// tree's L2 groups keep it near the 64-node count instead of 16x it.
TEST(KvmsrControlTree, MasterLaneEventsGrowWithNodesNotLanes) {
  const auto master_lane_events = [](std::uint32_t nodes) {
    return run_histogram(MachineConfig::scaled(nodes), MapBinding::kBlock).at(0).events_executed;
  };
  const std::uint64_t at16 = master_lane_events(16);
  const std::uint64_t at64 = master_lane_events(64);
  const std::uint64_t at1024 = master_lane_events(1024);
  EXPECT_LE(2 * at64, 3 * at16) << "lane 0 events: " << at16 << " at 16 nodes, " << at64
                                << " at 64";
  EXPECT_LE(2 * at1024, 3 * at64) << "lane 0 events: " << at64 << " at 64 nodes, " << at1024
                                  << " at 1024";
}

// A paper_node has 2,048 lanes per node, so an accelerator tier sits below
// each node relay and no relay folds more than 64 replies per exchange. A
// node relay that fanned out to its lanes directly would fold 2,048 in each
// of the launch, every poll round and the flush.
TEST(KvmsrControlTree, AcceleratorTierBoundsRelayLanes) {
  const MachineConfig cfg = MachineConfig::paper_node(2);
  const std::vector<LaneStats> lanes = run_histogram(cfg, MapBinding::kBlock);
  const auto busiest = std::max_element(
      lanes.begin(), lanes.end(),
      [](const LaneStats& a, const LaneStats& b) { return a.events_executed < b.events_executed; });
  EXPECT_LT(busiest->events_executed, cfg.lanes_per_node()) << "lane " << busiest - lanes.begin();
}

// ---------------------------------------------------------------------------
// do_all: map-only job touching a global flag array.
struct DoAllApp {
  JobId job = 0;
  Addr flags = 0;
};

struct Toucher : ThreadState {
  void kv_map(Ctx& ctx) {
    auto& lib = ctx.machine().service<Library>();
    auto& app = ctx.machine().user<DoAllApp>();
    const Word k = Library::map_key(ctx);
    ctx.send_dram_write(app.flags + k * 8, {k + 1});
    lib.map_return(ctx, ctx.ccont());
  }
};

TEST(KvmsrDoAll, RunsEveryKeyExactlyOnce) {
  Machine m(MachineConfig::scaled(4));
  auto& lib = Library::install(m);
  auto& app = m.emplace_user<DoAllApp>();
  const std::uint64_t n = 2000;
  app.flags = m.memory().dram_malloc_spread(n * 8, 4096);
  m.memory().host_fill(app.flags, 0, n * 8);
  app.job = do_all(lib, m.program().event("Toucher::kv_map", &Toucher::kv_map));

  const JobState& st = lib.run_to_completion(app.job, 0, n);
  EXPECT_EQ(st.total_emitted, 0u);
  for (std::uint64_t k = 0; k < n; ++k)
    EXPECT_EQ(m.memory().host_load<Word>(app.flags + k * 8), k + 1) << "key " << k;
}

// ---------------------------------------------------------------------------
// Block binding really places contiguous key ranges on consecutive lanes.
struct BlockApp {
  JobId job = 0;
  std::vector<NetworkId> ran_at;
};

struct BlockMap : ThreadState {
  void kv_map(Ctx& ctx) {
    auto& lib = ctx.machine().service<Library>();
    ctx.machine().user<BlockApp>().ran_at.at(Library::map_key(ctx)) = ctx.nwid();
    lib.map_return(ctx, ctx.ccont());
  }
};

TEST(KvmsrBlock, ContiguousRangesAscendAcrossLanes) {
  Machine m(MachineConfig::scaled(2));
  auto& lib = Library::install(m);
  auto& app = m.emplace_user<BlockApp>();
  const std::uint64_t n = 4 * m.config().total_lanes();
  app.ran_at.assign(n, ~0u);
  app.job = do_all(lib, m.program().event("BlockMap::kv_map", &BlockMap::kv_map));
  lib.run_to_completion(app.job, 0, n);

  for (std::uint64_t k = 0; k < n; ++k) {
    EXPECT_EQ(app.ran_at[k], k / 4) << "key " << k;  // 4 keys per lane, in order
  }
}

TEST(KvmsrBlock, FewKeysManyLanesStillTerminates) {
  Machine m(MachineConfig::scaled(8));
  auto& lib = Library::install(m);
  auto& app = m.emplace_user<BlockApp>();
  app.ran_at.assign(3, ~0u);
  app.job = do_all(lib, m.program().event("BlockMap::kv_map", &BlockMap::kv_map));
  const JobState& st = lib.run_to_completion(app.job, 0, 3);
  EXPECT_EQ(st.total_keys, 3u);
  for (auto lane : app.ran_at) EXPECT_NE(lane, ~0u);
}

TEST(KvmsrBlock, EmptyKeyRangeCompletesImmediately) {
  Machine m(MachineConfig::scaled(2));
  auto& lib = Library::install(m);
  m.emplace_user<BlockApp>().job =
      do_all(lib, m.program().event("BlockMap::kv_map", &BlockMap::kv_map));
  const JobState& st = lib.run_to_completion(0, 5, 5);
  EXPECT_EQ(st.total_keys, 0u);
  EXPECT_FALSE(st.running);
}

// ---------------------------------------------------------------------------
// Lane-set restriction: a job bound to a sub-span of lanes never executes
// map, reduce or flush tasks outside it, and flushes each lane inside once.
struct SetApp {
  JobId job = 0;
  NetworkId lo = 0, hi = 0;
  bool violated = false;
  std::vector<std::uint32_t> flushes;  // by lane
};

struct SetMap : ThreadState {
  void kv_map(Ctx& ctx) {
    auto& lib = ctx.machine().service<Library>();
    auto& app = ctx.machine().user<SetApp>();
    if (ctx.nwid() < app.lo || ctx.nwid() >= app.hi) app.violated = true;
    lib.emit(ctx, Library::map_job(ctx), Library::map_key(ctx) * 7919, 1);
    lib.map_return(ctx, ctx.ccont());
  }
};

struct SetReduce : ThreadState {
  void kv_reduce(Ctx& ctx) {
    auto& lib = ctx.machine().service<Library>();
    auto& app = ctx.machine().user<SetApp>();
    if (ctx.nwid() < app.lo || ctx.nwid() >= app.hi) app.violated = true;
    lib.reduce_return(ctx, Library::reduce_job(ctx));
  }
};

struct SetFlush : ThreadState {
  void flush(Ctx& ctx) {
    ctx.machine().user<SetApp>().flushes.at(ctx.nwid())++;
    ctx.send_reply({});
    ctx.yield_terminate();
  }
};

// Runs a 500-key job with reduce and flush on `set` and checks that no task
// ran outside it and that every lane inside was flushed once.
void run_in_set(const MachineConfig& cfg, LaneSet set, MapBinding binding,
                std::uint32_t coalesce) {
  SCOPED_TRACE("set {" + std::to_string(set.first) + ", " + std::to_string(set.count) +
               "} binding " + std::to_string(int(binding)) + " coalesce " +
               std::to_string(coalesce));
  Machine m(cfg);
  auto& lib = Library::install(m);
  auto& app = m.emplace_user<SetApp>();
  app.lo = set.first;
  app.hi = set.first + set.count;
  app.flushes.assign(m.config().total_lanes(), 0);

  JobSpec spec;
  spec.kv_map = m.program().event("SetMap::kv_map", &SetMap::kv_map);
  spec.kv_reduce = m.program().event("SetReduce::kv_reduce", &SetReduce::kv_reduce);
  spec.flush = m.program().event("SetFlush::flush", &SetFlush::flush);
  spec.map_binding = binding;
  spec.coalesce_tuples = coalesce;
  spec.lanes = set;
  app.job = lib.add_job(spec);

  const JobState& st = lib.run_to_completion(app.job, 0, 500);
  EXPECT_EQ(st.total_emitted, 500u);
  EXPECT_FALSE(app.violated);
  for (NetworkId lane = 0; lane < m.config().total_lanes(); ++lane) {
    const bool inside = lane >= app.lo && lane < app.hi;
    EXPECT_EQ(app.flushes[lane], inside ? 1u : 0u) << "lane " << lane;
  }
}

TEST(KvmsrLaneSet, JobStaysInsideItsLaneSet) {
  const std::uint32_t lpn = MachineConfig::scaled(4).lanes_per_node();
  // Nodes 1..2 exactly, and lanes [19, 77), which starts and ends mid-node:
  // the relays of both end nodes serve a sub-range of their node.
  for (const LaneSet set : {LaneSet{lpn, 2 * lpn}, LaneSet{19, 58}})
    for (const MapBinding binding : {MapBinding::kBlock, MapBinding::kPBMW})
      for (const std::uint32_t coalesce : {1u, 16u})
        run_in_set(MachineConfig::scaled(4), set, binding, coalesce);
}

// 300 nodes of a 2,048-node machine, starting and ending mid-node: the tree
// gets both group tiers (L2 groups of 128 nodes, L1 groups of 8), cut to the
// set at both ends. The 500 keys give the leaf relays of the set's first
// nodes one key per lane, so they send the map tasks themselves; the others
// start workers.
TEST(KvmsrLaneSet, GroupTiersStayInsideTheSet) {
  const MachineConfig cfg = MachineConfig::scaled(2048);
  const std::uint32_t lpn = cfg.lanes_per_node();
  for (const std::uint32_t coalesce : {1u, 16u})
    run_in_set(cfg, LaneSet{5 * lpn + 19, 300 * lpn}, MapBinding::kBlock, coalesce);
}

// ---------------------------------------------------------------------------
// Strong-scaling smoke: the same job completes in fewer simulated ticks on a
// bigger machine (this is the property every Figure-9 curve rests on).
TEST(KvmsrScaling, MoreNodesFewerTicks) {
  Tick t1 = 0, t8 = 0;
  for (std::uint32_t nodes : {1u, 8u}) {
    Machine m(MachineConfig::scaled(nodes));
    auto& lib = Library::install(m);
    auto& cc = CombiningCache::install(m);
    auto& app = m.emplace_user<HistApp>();
    // Reduce keys must scale with the input (as vertex ids do in PR) or the
    // reduce side serializes on a few lanes and caps the speedup.
    app.buckets = 8192;
    app.hist_base = m.memory().dram_malloc_spread(app.buckets * 8, 4096);
    JobSpec spec;
    spec.kv_map = m.program().event("HistMap::kv_map", &HistMap::kv_map);
    spec.kv_reduce = m.program().event("HistReduce::kv_reduce", &HistReduce::kv_reduce);
    spec.flush = cc.flush_label();
    app.job = lib.add_job(spec);
    const JobState& st = lib.run_to_completion(app.job, 0, 50000);
    const Tick dur = st.done_tick - st.start_tick;
    (nodes == 1 ? t1 : t8) = dur;
  }
  EXPECT_LT(t8 * 2, t1);  // at least 2x speedup from 8x hardware
}

}  // namespace
}  // namespace updown::kvmsr
