// Stress tests: the machine's resource-exhaustion paths fail loudly and
// deterministically — scratchpad bump-allocator overflow, lane thread-context
// table overflow, DRAMmalloc descriptor-table growth, and allocation while
// the table is frozen — in the serial engine and through the sharded
// engine's exception protocol (a throwing shard stops all shards at the next
// window boundary and the error surfaces from Machine::run()).
#include <gtest/gtest.h>

#include "env_guard.hpp"
#include "sim/machine.hpp"
#include "udweave/context.hpp"

namespace updown {
namespace {

// ---------------------------------------------------------------------------
// Scratchpad (spMalloc) exhaustion.
// ---------------------------------------------------------------------------

TEST(Stress, ScratchpadBumpAllocatorExhausts) {
  EnvGuard g("UD_SHARDS", "1");
  Machine m(MachineConfig::scaled(1));
  Lane lane = m.lane(0);
  const std::uint64_t cap = lane.scratchpad_bytes();
  const std::uint64_t mark = lane.sp_mark();
  // Fill in 1 KiB steps, then one more byte must throw the exact message
  // applications grep for in failure logs.
  for (std::uint64_t used = mark; used + 1024 <= cap; used += 1024) lane.sp_alloc(1024);
  try {
    lane.sp_alloc(1024);
    FAIL() << "expected scratchpad exhaustion";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "spMalloc: lane scratchpad exhausted (lane 0)");
  }
  // sp_release unwinds the bump pointer: the lane is reusable afterwards.
  lane.sp_release(mark);
  EXPECT_NO_THROW(lane.sp_alloc(1024));
}

struct SpHogApp {
  EventLabel hog = 0;
};

struct TSpHog : ThreadState {
  void hog(Ctx& ctx) {
    ctx.sp_alloc(ctx.machine().config().scratchpad_bytes + 1);
    ctx.yield_terminate();
  }
};

TEST(Stress, ScratchpadExhaustionSurfacesFromShardedRun) {
  EnvGuard g("UD_SHARDS", "2");
  Machine m(MachineConfig::scaled(2));
  ASSERT_EQ(m.shards(), 2u);
  auto& app = m.emplace_user<SpHogApp>();
  app.hog = m.program().event("TSpHog::hog", &TSpHog::hog);
  // Target a lane on node 1: the fault happens on shard 1 and must be
  // rethrown by run() on the calling thread via the abort protocol.
  m.send_from_host(evw::make_new(m.first_lane_of_node(1), app.hog), {});
  try {
    m.run();
    FAIL() << "expected scratchpad exhaustion out of run()";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "spMalloc: lane scratchpad exhausted (lane 32)");
  }
}

// ---------------------------------------------------------------------------
// Thread-context table exhaustion.
// ---------------------------------------------------------------------------

struct ParkApp {
  EventLabel park = 0;
  int started = 0;
};

struct TPark : ThreadState {
  // Starts a thread and parks it (no yield_terminate): the context stays
  // allocated for the life of the run.
  void park(Ctx& ctx) { ctx.machine().user<ParkApp>().started++; }
};

TEST(Stress, LaneThreadContextsExhaust) {
  EnvGuard g("UD_SHARDS", "1");
  MachineConfig cfg = MachineConfig::scaled(1);
  cfg.max_threads_per_lane = 4;
  Machine m(cfg);
  auto& app = m.emplace_user<ParkApp>();
  app.park = m.program().event("TPark::park", &TPark::park);
  // Five new-thread events on one lane with a four-context table: the fifth
  // allocation must fail with the canonical message.
  for (int i = 0; i < 5; ++i) m.send_from_host(evw::make_new(0, app.park), {});
  try {
    m.run();
    FAIL() << "expected thread-context exhaustion";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "lane out of thread contexts");
  }
  EXPECT_EQ(app.started, 4);
}

TEST(Stress, RecycledContextsNeverExhaust) {
  EnvGuard g("UD_SHARDS", "1");
  MachineConfig cfg = MachineConfig::scaled(1);
  cfg.max_threads_per_lane = 4;
  Machine m(cfg);
  Lane lane = m.lane(0);
  // allocate/deallocate cycles far beyond the table size: recycling through
  // free_tids must never hit the limit.
  for (int round = 0; round < 1000; ++round) {
    ThreadId a = lane.allocate_thread(std::make_unique<ThreadState>());
    ThreadId b = lane.allocate_thread(std::make_unique<ThreadState>());
    lane.deallocate_thread(a);
    lane.deallocate_thread(b);
  }
  EXPECT_EQ(lane.live_threads(), 0u);
}

// ---------------------------------------------------------------------------
// DRAMmalloc descriptor-table growth.
// ---------------------------------------------------------------------------

// The binary-search lookup agrees with a linear scan of the live table at
// every region edge, in the alignment gaps between regions, in the holes
// dram_free leaves, and around the whole mapped range.
void expect_lookup_matches_linear_scan(const GlobalMemory& mem,
                                       const std::vector<std::pair<Addr, Addr>>& ranges) {
  const auto linear = [&](Addr va) -> const SwizzleDescriptor* {
    for (const SwizzleDescriptor& d : mem.live_descriptors())
      if (d.contains(va)) return &d;
    return nullptr;
  };
  std::vector<Addr> probes = {0, 0x10000 - 1, 0x10000};
  for (const auto& [begin, end] : ranges)
    for (const Addr va : {begin - 1, begin, begin + 1, end - 1, end, end + 1})
      probes.push_back(va);
  for (const Addr va : probes) {
    const SwizzleDescriptor* want = linear(va);
    ASSERT_EQ(mem.find_live(va), want) << std::hex << "va=0x" << va;
    if (want) EXPECT_EQ(mem.translate(va), want->translate(va)) << std::hex << "va=0x" << va;
    else EXPECT_THROW(mem.translate(va), UnmappedAddressError) << std::hex << "va=0x" << va;
  }
}

TEST(Stress, DescriptorTableGrowsAndTranslates) {
  EnvGuard g("UD_SHARDS", "1");
  Machine m(MachineConfig::scaled(2));
  GlobalMemory& mem = m.memory();
  const std::size_t base_count = mem.descriptor_count();
  // Several hundred live regions, the scale a serving session reaches (two
  // orders of magnitude beyond the paper's "2-4 descriptors"). Sizes are not
  // multiples of the 4 KiB block, so every region is followed by an
  // alignment gap.
  constexpr int kRegions = 400;
  std::vector<Addr> regions;
  std::vector<std::pair<Addr, Addr>> ranges;  // [base, end) of every region, live or freed
  const auto tag = [](int i) { return 0xABCD0000ull + static_cast<std::uint64_t>(i); };
  for (int i = 0; i < kRegions; ++i) {
    const std::uint64_t size = 256 + 8 * static_cast<std::uint64_t>(i);
    const Addr a = mem.dram_malloc_spread(size, 4096);
    mem.host_store<std::uint64_t>(a, tag(i));
    mem.host_store<std::uint64_t>(a + size - 8, ~tag(i));
    regions.push_back(a);
    ranges.emplace_back(a, a + size);
  }
  EXPECT_EQ(mem.descriptor_count(), base_count + kRegions);
  // Every region still translates and holds its values (first and last word).
  for (int i = 0; i < kRegions; ++i) {
    EXPECT_EQ(mem.host_load<std::uint64_t>(regions[i]), tag(i));
    EXPECT_EQ(mem.host_load<std::uint64_t>(ranges[i].second - 8), ~tag(i));
  }
  expect_lookup_matches_linear_scan(mem, ranges);
  // Free every other region; survivors stay mapped, freed ones unmap.
  for (int i = 0; i < kRegions; i += 2) mem.dram_free(regions[i]);
  EXPECT_EQ(mem.descriptor_count(), base_count + kRegions / 2);
  for (int i = 1; i < kRegions; i += 2) {
    EXPECT_EQ(mem.host_load<std::uint64_t>(regions[i]), tag(i));
    EXPECT_EQ(mem.host_load<std::uint64_t>(ranges[i].second - 8), ~tag(i));
  }
  EXPECT_THROW(mem.host_load<std::uint64_t>(regions[0]), UnmappedAddressError);
  expect_lookup_matches_linear_scan(mem, ranges);
  // Allocate-and-free churn leaves the table at its size (freed VA ranges
  // stay unmapped: the VA break only grows).
  for (int i = 0; i < 100; ++i) {
    const Addr a = mem.dram_malloc_spread(1024, 4096);
    ranges.emplace_back(a, a + 1024);
    mem.dram_free(a);
  }
  EXPECT_EQ(mem.descriptor_count(), base_count + kRegions / 2);
  expect_lookup_matches_linear_scan(mem, ranges);
}

// The table is frozen while the machine runs: a handler that allocates or
// frees makes run() throw std::logic_error (a bad free would throw
// BadFreeError, also a logic_error, so the target region is live), and the
// host allocates again once the run has returned.
struct FrozenApp {
  EventLabel touch = 0;
  Addr live = 0;
};

struct TFrozen : ThreadState {
  void touch(Ctx& ctx) {
    GlobalMemory& mem = ctx.memory();
    if (ctx.op(0) == 0) mem.dram_malloc_spread(64);
    else mem.dram_free(ctx.machine().user<FrozenApp>().live);
    ctx.yield_terminate();
  }
};

TEST(Stress, HandlerAllocationThrowsAndHostAllocatesAfter) {
  for (const char* shards : {"1", "2"}) {
    for (const Word op : {Word{0}, Word{1}}) {
      SCOPED_TRACE(std::string("shards ") + shards + (op ? ", dram_free" : ", dram_malloc"));
      EnvGuard g("UD_SHARDS", shards);
      Machine m(MachineConfig::scaled(2));
      FrozenApp& app = m.emplace_user<FrozenApp>();
      app.touch = m.program().event("TFrozen::touch", &TFrozen::touch);
      app.live = m.memory().dram_malloc_spread(256);
      const std::size_t count = m.memory().descriptor_count();
      // Node 1: the last shard's node at 2 shards.
      m.send_from_host(evw::make_new(m.first_lane_of_node(1), app.touch), {op});
      try {
        m.run();
        ADD_FAILURE() << "run() returned";
      } catch (const std::logic_error& e) {
        EXPECT_NE(std::string(e.what()).find("frozen"), std::string::npos) << e.what();
      }
      EXPECT_EQ(m.memory().descriptor_count(), count);
      const Addr a = m.memory().dram_malloc_spread(64);
      m.memory().host_store<Word>(a, 5);
      EXPECT_EQ(m.memory().host_load<Word>(a), 5u);
      m.memory().dram_free(a);
      m.memory().dram_free(app.live);
      EXPECT_EQ(m.memory().descriptor_count(), count - 1);
    }
  }
}

struct ProbeApp {
  EventLabel probe = 0, landed = 0;
  Addr target = 0;
  Word seen = 0;
};

struct TProbe : ThreadState {
  void probe(Ctx& ctx) {
    auto& app = ctx.machine().user<ProbeApp>();
    ctx.send_dram_read(app.target, 1, app.landed);
  }
  void landed(Ctx& ctx) {
    ctx.machine().user<ProbeApp>().seen = ctx.op(0);
    ctx.yield_terminate();
  }
};

TEST(Stress, GrownDescriptorTableVisibleToShardedRun) {
  EnvGuard g("UD_SHARDS", "2");
  Machine m(MachineConfig::scaled(2));
  ASSERT_EQ(m.shards(), 2u);
  // Grow the table to hundreds of regions, then have a lane on node 1 (the
  // second shard) read from the very last one: every shard reads the one
  // table the host grew.
  Addr last = 0;
  for (int i = 0; i < 300; ++i) last = m.memory().dram_malloc_spread(512, 4096);
  m.memory().host_store<std::uint64_t>(last, 0xFEEDFACEull);
  auto& app = m.emplace_user<ProbeApp>();
  app.probe = m.program().event("TProbe::probe", &TProbe::probe);
  app.landed = m.program().event("TProbe::landed", &TProbe::landed);
  app.target = last;
  m.send_from_host(evw::make_new(m.first_lane_of_node(1), app.probe), {});
  m.run();
  EXPECT_EQ(app.seen, 0xFEEDFACEull);
}

}  // namespace
}  // namespace updown
