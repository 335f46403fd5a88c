// Stress tests: the machine's resource-exhaustion paths fail loudly and
// deterministically — scratchpad bump-allocator overflow, lane thread-context
// table overflow, and DRAMmalloc descriptor-table growth — in the serial
// engine and through the sharded engine's exception protocol (a throwing
// shard stops all shards at the next window boundary and the error surfaces
// from Machine::run()).
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

TEST(Stress, DescriptorTableGrowsAndTranslates) {
  EnvGuard g("UD_SHARDS", "1");
  Machine m(MachineConfig::scaled(2));
  GlobalMemory& mem = m.memory();
  const std::size_t base_count = mem.descriptor_count();
  // Several hundred live regions — two orders of magnitude beyond the
  // "typical programs need 2-4 descriptors" sizing assumption.
  constexpr int kRegions = 400;
  std::vector<Addr> regions;
  for (int i = 0; i < kRegions; ++i) {
    Addr a = mem.dram_malloc_spread(256 + 8 * static_cast<std::uint64_t>(i), 4096);
    m.memory().host_store<std::uint64_t>(a, 0xABCD0000ull + static_cast<std::uint64_t>(i));
    regions.push_back(a);
  }
  EXPECT_EQ(mem.descriptor_count(), base_count + kRegions);
  // Every region still translates and holds its value (first and last word).
  for (int i = 0; i < kRegions; ++i) {
    EXPECT_EQ(mem.host_load<std::uint64_t>(regions[i]), 0xABCD0000ull + static_cast<std::uint64_t>(i));
  }
  // Free every other region; survivors stay mapped, freed ones unmap.
  for (int i = 0; i < kRegions; i += 2) mem.dram_free(regions[i]);
  EXPECT_EQ(mem.descriptor_count(), base_count + kRegions / 2);
  for (int i = 1; i < kRegions; i += 2)
    EXPECT_EQ(mem.host_load<std::uint64_t>(regions[i]), 0xABCD0000ull + static_cast<std::uint64_t>(i));
  EXPECT_THROW(mem.host_load<std::uint64_t>(regions[0]), UnmappedAddressError);
  // Freed VA space is reusable without unbounded table growth.
  for (int i = 0; i < 100; ++i) {
    Addr a = mem.dram_malloc_spread(1024, 4096);
    mem.dram_free(a);
  }
  EXPECT_EQ(mem.descriptor_count(), base_count + kRegions / 2);
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
  // Grow the table well past the snapshot's initial copy, then have a lane
  // on node 1 read from the very last region: the shard-private descriptor
  // snapshot must see the grown table.
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
