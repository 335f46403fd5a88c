// KVMSR end-to-end: map/emit/reduce over the simulated machine, bindings,
// termination protocol, and the combining-cache flush phase.
#include "kvmsr/kvmsr.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>

#include "env_guard.hpp"
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
// master's. `state`, when given, receives the job's final state.
std::vector<LaneStats> run_histogram(const MachineConfig& cfg, MapBinding binding,
                                     JobState* state = nullptr) {
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
  if (state) *state = st;
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
// control tree, so in each exchange the master sends one message to each
// top-tier relay, at most 64: one per node up to 64 nodes, then one per
// group. Lane lpn (node 1's first lane) runs every role lane 0 runs but the
// master's, so the difference of their sent messages is the master's. At
// 1,024 nodes the tree's L2 groups also keep lane 0's events near the
// 64-node count instead of 16x it.
TEST(KvmsrControlTree, MasterLaneEventsGrowWithNodesNotLanes) {
  std::uint64_t events[2] = {};
  for (const std::uint32_t nodes : {16u, 64u, 1024u}) {
    const MachineConfig cfg = MachineConfig::scaled(nodes);
    JobState st;
    const std::vector<LaneStats> lanes = run_histogram(cfg, MapBinding::kBlock, &st);
    const std::uint64_t master =
        lanes.at(0).messages_sent - lanes.at(cfg.lanes_per_node()).messages_sent;
    // The launch, every poll wave and the flush, and one timer event the
    // master sends itself before each re-poll.
    const std::uint64_t exchanges = 2 + st.poll_rounds;
    EXPECT_LE(master, 64 * exchanges + st.poll_rounds - 1) << nodes << " nodes";
    if (nodes >= 64) events[nodes == 1024] = lanes.at(0).events_executed;
  }
  EXPECT_LE(2 * events[1], 3 * events[0])
      << "lane 0 events: " << events[0] << " at 64 nodes, " << events[1] << " at 1024";
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

// The kBlock launch visits only the blocks whose lanes hold keys. A 1-key
// job's launch therefore runs m_start, one r_launch per relay level, the
// map task, one r_child_done per relay level and m_map_done. The tree has
// one relay level at 64 nodes (nodes), two at 1,024 (L2 groups of 64 nodes,
// nodes) and three at 2,048 (L2 groups of 128, L1 groups of 8, nodes): 5, 7
// and 9 events, where a launch that started every lane of the set would
// visit 2,048, 32,768 and 65,536 lanes.
TEST(KvmsrControlTree, SparseLaunchEventsGrowWithDepthNotLanes) {
  for (const auto& [nodes, events] :
       {std::pair{64u, 5u}, std::pair{1024u, 7u}, std::pair{2048u, 9u}}) {
    Machine m(MachineConfig::scaled(nodes));
    auto& lib = Library::install(m);
    auto& app = m.emplace_user<BlockApp>();
    app.ran_at.assign(1, ~0u);
    app.job = do_all(lib, m.program().event("BlockMap::kv_map", &BlockMap::kv_map));
    lib.run_to_completion(app.job, 0, 1);
    EXPECT_EQ(app.ran_at[0], 0u) << nodes << " nodes";
    EXPECT_EQ(m.stats().events_executed, events) << nodes << " nodes";
  }
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
void run_in_set(const MachineConfig& cfg, LaneSet set, MapBinding binding) {
  SCOPED_TRACE("set {" + std::to_string(set.first) + ", " + std::to_string(set.count) +
               "} binding " + std::to_string(int(binding)));
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
      run_in_set(MachineConfig::scaled(4), set, binding);
}

// 300 nodes of a 2,048-node machine, starting and ending mid-node: the tree
// gets both group tiers (L2 groups of 128 nodes, L1 groups of 8), cut to the
// set at both ends. The 500 keys give the leaf relays of the set's first
// nodes one key per lane, so they send the map tasks themselves; the others
// start workers.
TEST(KvmsrLaneSet, GroupTiersStayInsideTheSet) {
  const MachineConfig cfg = MachineConfig::scaled(2048);
  const std::uint32_t lpn = cfg.lanes_per_node();
  run_in_set(cfg, LaneSet{5 * lpn + 19, 300 * lpn}, MapBinding::kBlock);
}

// ---------------------------------------------------------------------------
// Reduces that emit (JobSpec::reduces_emit). Map key c starts chain c, whose
// link i reduces on one of the last lanes of a 2-node machine; the reduce
// waits past the gather backoff, hands a hop task to one of the first lanes
// (Library::hand_off) and returns. The hop emits link i + 1 and returns in
// turn. The poll waves read the hops' lanes first and the reduces' lanes
// last, so a wave often reads a hop's lane before its emit and the reduce's
// lane after its return: only the handoff's count keeps that wave from
// balancing while link i + 1 is pending. (With the hop sent as a plain,
// uncounted message and the reduce returning once the hop replied, the
// stamped one-wave test ended this job at 148 of 336 tuples.)
struct ChainApp {
  EventLabel wake = 0, hop = 0;
  std::vector<Tick> last_reduce;  ///< by lane: the tick of its last reduce
  std::vector<std::uint32_t> completions;  ///< by lane: launch continuations
};

/// Chain c has 16 << 2c links: the longest runs alone for most of the job.
constexpr unsigned kChains = 3;
constexpr Tick kChainBackoff = 256;

Word chain_length(Word chain) { return Word{16} << (2 * chain); }

struct ChainMap : ThreadState {
  void kv_map(Ctx& ctx) {
    auto& lib = ctx.machine().service<Library>();
    const Word chain = Library::map_key(ctx);
    lib.emit2(ctx, Library::map_job(ctx), chain, chain, 0);
    lib.map_return(ctx, ctx.ccont());
  }
};

/// ops {key, chain, link, job operand}; the key picks the reduce lane (see
/// the binding below).
struct ChainReduce : ThreadState {
  Word job_op = 0;
  Word chain = 0, link = 0;

  void kv_reduce(Ctx& ctx) {
    auto& app = ctx.machine().user<ChainApp>();
    job_op = Library::job_operand(ctx);
    chain = Library::reduce_val(ctx, 0);
    link = Library::reduce_val(ctx, 1);
    app.last_reduce.at(ctx.nwid()) = ctx.now();
    if (link + 1 == chain_length(chain)) {
      ctx.machine().service<Library>().reduce_return(ctx, job_op);
      return;
    }
    // Wait on this lane's timer, a pseudo-random delay past the backoff, so
    // the hops fall at every phase of the gather waves. (A delayed
    // cross-node send would hold this node's injection port until it
    // departs, and so line the gather's replies up behind the hops.)
    const Tick delay = kChainBackoff + 1 + hash64(chain * 1000 + link) % 1024;
    ctx.send_event_delayed(ctx.evw_update_event(ctx.cevnt(), app.wake), {}, IGNRCONT, delay);
  }

  void wake(Ctx& ctx) {
    auto& lib = ctx.machine().service<Library>();
    const JobId job = Library::job_of(job_op);
    const NetworkId first = lib.lanes_of(job).first;
    lib.hand_off(ctx, job, first + 1 + link % 3, ctx.machine().user<ChainApp>().hop,
                 {chain, link + 1});
    lib.reduce_return(ctx, job_op);
  }
};

/// ops {chain, link, job operand}: emit the link, then end the handoff.
struct ChainHop : ThreadState {
  void hop(Ctx& ctx) {
    auto& lib = ctx.machine().service<Library>();
    const Word chain = ctx.op(0), link = ctx.op(1);
    const Word job_op = Library::job_operand(ctx);
    lib.emit2(ctx, Library::job_of(job_op), chain * 1000 + link, chain, link);
    lib.reduce_return(ctx, job_op);
  }
};

struct ChainDone : ThreadState {
  void done(Ctx& ctx) {
    ctx.machine().user<ChainApp>().completions.at(ctx.nwid())++;
    ctx.yield_terminate();
  }
};

class KvmsrEmittingReduces
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, bool>> {};

TEST_P(KvmsrEmittingReduces, ChainsTerminateOnceAndNeverEarly) {
  const auto [shards, check] = GetParam();
  EnvGuard gs("UD_SHARDS", std::to_string(shards).c_str());
  EnvGuard gc("UD_CHECK", check ? "1" : "0");
  Machine m(MachineConfig::scaled(2));
  auto& lib = Library::install(m);
  auto& app = m.emplace_user<ChainApp>();
  const std::uint32_t lanes = static_cast<std::uint32_t>(m.config().total_lanes());
  app.last_reduce.assign(lanes, 0);
  app.completions.assign(lanes, 0);
  Program& p = m.program();
  app.wake = p.event("ChainReduce::wake", &ChainReduce::wake);
  app.hop = p.event("ChainHop::hop", &ChainHop::hop);

  JobSpec spec;
  spec.kv_map = p.event("ChainMap::kv_map", &ChainMap::kv_map);
  spec.kv_reduce = p.event("ChainReduce::kv_reduce", &ChainReduce::kv_reduce);
  // Every reduce on the last four lanes of the set, which the gather reads
  // last (and every hop on lanes it reads first).
  spec.reduce_binding = [](Word key, NetworkId first, std::uint32_t count) {
    return first + count - 1 - static_cast<NetworkId>(hash64(key) % 4);
  };
  spec.reduces_emit = true;
  spec.poll_backoff = kChainBackoff;
  spec.name = "chains";
  const JobId job = lib.add_job(spec);

  const NetworkId home = 37;
  lib.launch_from_host(job, 0, kChains, evw::make_new(home, p.event("ChainDone::done",
                                                                         &ChainDone::done)));
  m.run();
  EXPECT_TRUE(m.idle());

  const JobState& st = lib.state(job);
  Word links = 0;
  for (Word c = 0; c < kChains; ++c) links += chain_length(c);
  EXPECT_EQ(st.runs, 1u);
  EXPECT_FALSE(st.running);
  EXPECT_EQ(st.total_emitted, links);
  EXPECT_GT(st.done_tick, *std::max_element(app.last_reduce.begin(), app.last_reduce.end()));
  for (NetworkId l = 0; l < lanes; ++l) EXPECT_EQ(app.completions[l], l == home ? 1u : 0u);
  if (check) {
    EXPECT_EQ(m.shards(), 1u);
    EXPECT_EQ(m.stats().check.errors(), 0u);
  } else {
    EXPECT_EQ(m.shards(), std::min(shards, 2u));  // clamped to the node count
  }
}

INSTANTIATE_TEST_SUITE_P(ShardsAndCheck, KvmsrEmittingReduces,
                         ::testing::Combine(::testing::Values(1u, 4u), ::testing::Bool()));

// One balanced wave can end a job early even when every successor is
// emitted on its reduce's own lane. On a 2-node machine a wave reads lane A
// (node 0, next to the relay) first, then B (node 0, the relay's far end),
// then C (node 1, one network hop later). The map's tuple m0 reduces on C,
// which waits `delay` ticks, emits m1 to A and returns. For some delays:
// - C emits m1 before the wave reads C, and m1 reaches A after A's read;
// - A reduces m1, emits m2 to B and m3 to C, and returns;
// - B returns m2 before the wave reads B;
// - m3 is still in flight when the wave reads C.
// That wave reads emitted {m0, m1} and received {m0, m2}: balanced, with m3
// pending. m2 carries stamp k, since A's clock moved when wave k read it,
// and B returned it before wave k read B: the stamp check vetoes the wave.
// (With the check removed, the job ended after 2 of its 4 tuples at 26 of
// the 700 delays swept here, 356-406, at 1 and 4 shards, checked or not.)
struct SameLaneApp {
  NetworkId a = 0, b = 0, c = 0;
  Tick delay = 0;
  EventLabel emit_m1 = 0;
  Tick last_return = 0;
};

/// Key 0's map emits m0 to C. A tuple's key is its reduce lane; v0 is its
/// index (0 for m0 ... 3 for m3).
struct SameLaneMap : ThreadState {
  void kv_map(Ctx& ctx) {
    auto& lib = ctx.machine().service<Library>();
    lib.emit(ctx, Library::map_job(ctx), ctx.machine().user<SameLaneApp>().c, 0);
    lib.map_return(ctx, ctx.ccont());
  }
};

struct SameLaneReduce : ThreadState {
  Word job_op = 0;

  void kv_reduce(Ctx& ctx) {
    auto& lib = ctx.machine().service<Library>();
    auto& app = ctx.machine().user<SameLaneApp>();
    job_op = Library::job_operand(ctx);
    const JobId job = Library::job_of(job_op);
    switch (Library::reduce_val(ctx)) {
      case 0:  // m0 on C: wait, then emit m1 (below)
        ctx.send_event_delayed(ctx.evw_update_event(ctx.cevnt(), app.emit_m1), {}, IGNRCONT,
                               app.delay);
        return;
      case 1:  // m1 on A
        lib.emit(ctx, job, app.b, 2);
        lib.emit(ctx, job, app.c, 3);
        break;
      default:  // m2 on B, m3 on C
        break;
    }
    finish(ctx);
  }

  void emit_m1(Ctx& ctx) {
    auto& app = ctx.machine().user<SameLaneApp>();
    ctx.machine().service<Library>().emit(ctx, Library::job_of(job_op), app.a, 1);
    finish(ctx);
  }

  void finish(Ctx& ctx) {
    auto& app = ctx.machine().user<SameLaneApp>();
    app.last_return = std::max(app.last_return, ctx.now());
    ctx.machine().service<Library>().reduce_return(ctx, job_op);
  }
};

class KvmsrStampedWaves : public ::testing::TestWithParam<std::tuple<std::uint32_t, bool>> {};

TEST_P(KvmsrStampedWaves, SameLaneSuccessorsNeverEndEarly) {
  const auto [shards, check] = GetParam();
  EnvGuard gs("UD_SHARDS", std::to_string(shards).c_str());
  EnvGuard gc("UD_CHECK", check ? "1" : "0");
  std::uint32_t vetoed = 0;
  for (Tick delay = 0; delay < 1400; delay += 2) {
    SCOPED_TRACE("delay " + std::to_string(delay));
    Machine m(MachineConfig::scaled(2));
    auto& lib = Library::install(m);
    auto& app = m.emplace_user<SameLaneApp>();
    const NetworkId lpn = m.config().lanes_per_node();
    app.a = 1;
    app.b = lpn - 1;
    app.c = lpn + 1;
    app.delay = delay;
    Program& p = m.program();
    app.emit_m1 = p.event("SameLaneReduce::emit_m1", &SameLaneReduce::emit_m1);
    JobSpec spec;
    spec.kv_map = p.event("SameLaneMap::kv_map", &SameLaneMap::kv_map);
    spec.kv_reduce = p.event("SameLaneReduce::kv_reduce", &SameLaneReduce::kv_reduce);
    spec.reduce_binding = [](Word key, NetworkId, std::uint32_t) {
      return static_cast<NetworkId>(key);
    };
    spec.reduces_emit = true;
    spec.poll_backoff = 256;
    const JobId job = lib.add_job(spec);
    const JobState& st = lib.run_to_completion(job, 0, 1);
    EXPECT_EQ(st.total_emitted, 4u);
    EXPECT_GT(st.done_tick, app.last_return);
    vetoed += st.vetoed_waves;
    if (check) {
      EXPECT_EQ(m.stats().check.errors(), 0u);
    }
  }
  // The sweep builds the case: some wave balanced with m3 pending.
  EXPECT_GT(vetoed, 0u);
}

INSTANTIATE_TEST_SUITE_P(ShardsAndCheck, KvmsrStampedWaves,
                         ::testing::Combine(::testing::Values(1u, 4u), ::testing::Bool()));

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
