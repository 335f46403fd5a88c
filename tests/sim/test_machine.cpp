// End-to-end tests of the event-driven machine: thread/event semantics,
// continuation composition (the paper's Listing 2), DRAM access, costs.
#include "sim/machine.hpp"

#include <gtest/gtest.h>

#include <string>

#include "env_guard.hpp"
#include "udweave/context.hpp"

namespace updown {
namespace {

// ---------------------------------------------------------------------------
// The paper's Listing 2: call-return composition via continuations.
//   e1 spawns e2 on the next lane with a continuation pointing at its own e3.
struct CallReturnApp {
  EventLabel e1, e2, e3;
  int e3_runs = 0;
  Word received0 = 0, received1 = 0;
};

struct TCallReturn : ThreadState {
  void e1(Ctx& ctx) {
    auto& app = ctx.machine().user<CallReturnApp>();
    const Word evw = ctx.evw_new(ctx.nwid() + 1, app.e2);
    const Word ctw = ctx.evw_update_event(ctx.cevnt(), app.e3);
    ctx.send_event(evw, {0, 1}, ctw);
  }
  void e2(Ctx& ctx) {
    auto& app = ctx.machine().user<CallReturnApp>();
    app.received0 = ctx.op(0);
    app.received1 = ctx.op(1);
    ctx.send_reply({});
    ctx.yield_terminate();
  }
  void e3(Ctx& ctx) {
    ctx.machine().user<CallReturnApp>().e3_runs++;
    ctx.yield_terminate();
  }
};

TEST(Machine, CallReturnComposition) {
  Machine m(MachineConfig::scaled(1));
  auto& app = m.emplace_user<CallReturnApp>();
  app.e1 = m.program().event("TCallReturn::e1", &TCallReturn::e1);
  app.e2 = m.program().event("TCallReturn::e2", &TCallReturn::e2);
  app.e3 = m.program().event("TCallReturn::e3", &TCallReturn::e3);

  m.send_from_host(evw::make_new(0, app.e1), {});
  m.run();

  EXPECT_EQ(app.received0, 0u);
  EXPECT_EQ(app.received1, 1u);
  EXPECT_EQ(app.e3_runs, 1);
  EXPECT_EQ(m.stats().events_executed, 3u);
  EXPECT_EQ(m.stats().threads_created, 2u);
  EXPECT_EQ(m.stats().threads_destroyed, 2u);
}

// ---------------------------------------------------------------------------
// Thread-state persistence across events (Listing 1 style reduction).
struct ReductionApp {
  EventLabel start, add, finish;
  Word result = 0;
  Tick done_at = 0;
};

struct TReduce : ThreadState {
  Word acc = 0;   // thread variable, preserved across events
  Word seen = 0;
  Word expect = 0;

  void start(Ctx& ctx) {
    auto& app = ctx.machine().user<ReductionApp>();
    expect = ctx.op(0);
    // Fan out: one add event per value, all back to this same thread.
    for (Word i = 0; i < expect; ++i) {
      ctx.charge(2);  // loop control + address arithmetic
      ctx.send_event(ctx.evw_update_event(ctx.cevnt(), app.add), {i + 1});
    }
  }
  void add(Ctx& ctx) {
    auto& app = ctx.machine().user<ReductionApp>();
    acc += ctx.op(0);
    ctx.charge(1);
    if (++seen == expect) {
      app.result = acc;
      app.done_at = ctx.now();
      ctx.yield_terminate();
    }
  }
};

TEST(Machine, ThreadStatePersistsAcrossEvents) {
  Machine m(MachineConfig::scaled(1));
  auto& app = m.emplace_user<ReductionApp>();
  app.start = m.program().event("TReduce::start", &TReduce::start);
  app.add = m.program().event("TReduce::add", &TReduce::add);

  m.send_from_host(evw::make_new(3, app.start), {10});
  m.run();
  EXPECT_EQ(app.result, 55u);  // 1+2+...+10
  EXPECT_GT(app.done_at, 0u);
}

// ---------------------------------------------------------------------------
// DRAM write-then-read round trip through the simulated memory system.
struct DramApp {
  EventLabel start, wrote, readback;
  Addr base = 0;
  std::vector<Word> got;
};

struct TDram : ThreadState {
  void start(Ctx& ctx) {
    auto& app = ctx.machine().user<DramApp>();
    ctx.send_dram_write(app.base, {111, 222, 333}, app.wrote);
  }
  void wrote(Ctx& ctx) {
    auto& app = ctx.machine().user<DramApp>();
    ctx.send_dram_read(app.base, 3, app.readback);
  }
  void readback(Ctx& ctx) {
    auto& app = ctx.machine().user<DramApp>();
    for (unsigned i = 0; i < ctx.nops(); ++i) app.got.push_back(ctx.op(i));
    EXPECT_EQ(ctx.ccont(), app.base);  // response carries the request address
    ctx.yield_terminate();
  }
};

TEST(Machine, DramRoundTrip) {
  Machine m(MachineConfig::scaled(4));
  auto& app = m.emplace_user<DramApp>();
  app.start = m.program().event("TDram::start", &TDram::start);
  app.wrote = m.program().event("TDram::wrote", &TDram::wrote);
  app.readback = m.program().event("TDram::readback", &TDram::readback);
  app.base = m.memory().dram_malloc(4096, 0, 4, 256);

  m.send_from_host(evw::make_new(0, app.start), {});
  m.run();
  ASSERT_EQ(app.got.size(), 3u);
  EXPECT_EQ(app.got[0], 111u);
  EXPECT_EQ(app.got[1], 222u);
  EXPECT_EQ(app.got[2], 333u);
  EXPECT_EQ(m.stats().dram_reads, 1u);
  EXPECT_EQ(m.stats().dram_writes, 1u);
  // Host view agrees with the simulated write.
  EXPECT_EQ(m.memory().host_load<Word>(app.base + 8), 222u);
}

// ---------------------------------------------------------------------------
// Cost model: remote events cost more wall-clock than local ones.
struct PingApp {
  EventLabel ping;
  Tick done_at = 0;
};
struct TPing : ThreadState {
  void ping(Ctx& ctx) {
    ctx.machine().user<PingApp>().done_at = ctx.now();
    ctx.yield_terminate();
  }
};

TEST(Machine, RemoteDeliveryIsSlowerThanLocal) {
  Tick local_done = 0, remote_done = 0;
  for (bool remote : {false, true}) {
    Machine m(MachineConfig::scaled(16));
    auto& app = m.emplace_user<PingApp>();
    app.ping = m.program().event("TPing::ping", &TPing::ping);
    const NetworkId dst = remote ? m.first_lane_of_node(15) : 1;
    m.send_from_host(evw::make_new(dst, app.ping), {});
    m.run();
    (remote ? remote_done : local_done) = app.done_at;
  }
  EXPECT_GT(remote_done, local_done + 500);
}

// Event delivered to a thread of the wrong class is a hard error.
struct TOther : ThreadState {
  void nop(Ctx&) {}
};

TEST(Machine, MismatchedThreadClassThrows) {
  Machine m(MachineConfig::scaled(1));
  struct App {
    EventLabel spawn, wrong;
  };
  auto& app = m.emplace_user<App>();
  struct TSpawner : ThreadState {
    void spawn(Ctx& ctx) {
      auto& a = ctx.machine().user<App>();
      // Address the *current* (TSpawner) thread with TOther's handler.
      ctx.send_event(ctx.evw_update_event(ctx.cevnt(), a.wrong), {});
    }
  };
  app.spawn = m.program().event("TSpawner::spawn", &TSpawner::spawn);
  app.wrong = m.program().event("TOther::nop", &TOther::nop);
  m.send_from_host(evw::make_new(0, app.spawn), {});
  if (m.checker()) {
    // Checked mode (ambient UD_CHECK=1): the delivery is suppressed and
    // reported instead of throwing, so the run can surface later violations.
    m.run();
    EXPECT_GE(m.stats().check.bad_event_words, 1u);
  } else {
    EXPECT_THROW(m.run(), std::runtime_error);
  }
}

// Scratchpad reads/writes round trip and charge cycles.
struct SpApp {
  EventLabel go;
  Word out = 0;
  std::uint64_t cost = 0;
};
struct TSp : ThreadState {
  void go(Ctx& ctx) {
    auto& app = ctx.machine().user<SpApp>();
    const std::uint64_t buf = ctx.sp_alloc(8 * 8);
    for (Word i = 0; i < 8; ++i) ctx.sp_write(buf + 8 * i, i * i);
    Word sum = 0;
    for (Word i = 0; i < 8; ++i) sum += ctx.sp_read(buf + 8 * i);
    app.out = sum;
    app.cost = ctx.charged();
    ctx.yield_terminate();
  }
};

TEST(Machine, ScratchpadRoundTripChargesPerAccess) {
  Machine m(MachineConfig::scaled(1));
  auto& app = m.emplace_user<SpApp>();
  app.go = m.program().event("TSp::go", &TSp::go);
  m.send_from_host(evw::make_new(0, app.go), {});
  m.run();
  EXPECT_EQ(app.out, 140u);  // 0+1+4+...+49
  EXPECT_GE(app.cost, 16u);  // 16 scratchpad accesses at 1 cycle each
}

// Lane FIFO: two messages to the same lane execute in arrival order and the
// second starts no earlier than the first finishes.
struct FifoApp {
  EventLabel tick;
  std::vector<Word> order;
};
struct TFifo : ThreadState {
  void tick(Ctx& ctx) {
    ctx.machine().user<FifoApp>().order.push_back(ctx.op(0));
    ctx.charge(50);
    ctx.yield_terminate();
  }
};

TEST(Machine, LaneExecutesInArrivalOrder) {
  Machine m(MachineConfig::scaled(1));
  auto& app = m.emplace_user<FifoApp>();
  app.tick = m.program().event("TFifo::tick", &TFifo::tick);
  for (Word i = 0; i < 5; ++i) m.send_from_host(evw::make_new(2, app.tick), {i});
  m.run();
  ASSERT_EQ(app.order.size(), 5u);
  for (Word i = 0; i < 5; ++i) EXPECT_EQ(app.order[i], i);
  // 5 events, 50+ cycles each, serialized on one lane.
  EXPECT_GE(m.now(), 250u);
}

TEST(Machine, StatsTrackThreadsAndMessages) {
  Machine m(MachineConfig::scaled(1));
  auto& app = m.emplace_user<FifoApp>();
  app.tick = m.program().event("TFifo::tick", &TFifo::tick);
  for (Word i = 0; i < 3; ++i) m.send_from_host(evw::make_new(0, app.tick), {i});
  m.run();
  EXPECT_EQ(m.stats().threads_created, 3u);
  EXPECT_EQ(m.stats().threads_destroyed, 3u);
  EXPECT_EQ(m.stats().events_executed, 3u);
  EXPECT_EQ(m.stats().messages_sent, 3u);
  EXPECT_GE(m.stats().max_live_threads, 1u);
}

// A message carries at most kMaxOperands words. Every host-send overload
// throws on a ninth operand instead of writing past Message::ops, and queues
// nothing.
TEST(Machine, HostSendRejectsMoreThanMaxOperands) {
  Machine m(MachineConfig::scaled(1));
  auto& app = m.emplace_user<FifoApp>();
  app.tick = m.program().event("TFifo::tick", &TFifo::tick);
  const Word evw = evw::make_new(0, app.tick);
  const Word nine[] = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  EXPECT_THROW(m.send_from_host(evw, nine, 9), std::invalid_argument);
  EXPECT_THROW(m.send_from_host(evw, {1, 2, 3, 4, 5, 6, 7, 8, 9}), std::invalid_argument);
  EXPECT_THROW(m.send_from_host_at(100, evw, {1, 2, 3, 4, 5, 6, 7, 8, 9}),
               std::invalid_argument);
  EXPECT_TRUE(m.idle());
  m.send_from_host(evw, nine, kMaxOperands);
  m.run();
  EXPECT_EQ(m.stats().events_executed, 1u);
  ASSERT_EQ(app.order.size(), 1u);
  EXPECT_EQ(app.order[0], 1u);
}

// ---------------------------------------------------------------------------
// UD_SHARDS is parsed strictly: trailing garbage or out-of-range values used
// to be silently accepted ("4x" ran as 4 shards, "-1" wrapped), masking
// misconfigured CI matrices. Now they fail loudly at machine construction.
// ---------------------------------------------------------------------------

TEST(MachineEnv, ShardsTrailingGarbageThrows) {
  EnvGuard g("UD_SHARDS", "4x");
  EXPECT_THROW(Machine{MachineConfig::scaled(4)}, std::invalid_argument);
}

TEST(MachineEnv, ShardsNegativeThrows) {
  EnvGuard g("UD_SHARDS", "-1");
  EXPECT_THROW(Machine{MachineConfig::scaled(4)}, std::invalid_argument);
}

TEST(MachineEnv, ShardsOverflowThrows) {
  EnvGuard g("UD_SHARDS", "99999999999999999999999");
  EXPECT_THROW(Machine{MachineConfig::scaled(4)}, std::invalid_argument);
}

TEST(MachineEnv, ShardsZeroKeepsConfiguredDefault) {
  EnvGuard g("UD_SHARDS", "0");
  MachineConfig cfg = MachineConfig::scaled(4);
  cfg.shards = 2;
  Machine m(cfg);
  EXPECT_EQ(m.shards(), 2u);
}

TEST(MachineEnv, ShardsValidValueAppliesAndClampsToNodes) {
  {
    EnvGuard g("UD_SHARDS", "2");
    Machine m(MachineConfig::scaled(4));
    EXPECT_EQ(m.shards(), 2u);
  }
  {
    EnvGuard g("UD_SHARDS", "64");  // more shards than nodes: clamp
    Machine m(MachineConfig::scaled(4));
    EXPECT_EQ(m.shards(), 4u);
  }
}

// MachineConfig::steal and MachineConfig::pin are tombstones: setting either
// throws, naming the field.
TEST(Machine, StealTombstoneThrows) {
  for (bool MachineConfig::*field : {&MachineConfig::steal, &MachineConfig::pin}) {
    MachineConfig cfg = MachineConfig::scaled(4);
    cfg.*field = true;
    const std::string name =
        field == &MachineConfig::steal ? "MachineConfig::steal" : "MachineConfig::pin";
    try {
      Machine m(cfg);
      ADD_FAILURE() << "expected std::invalid_argument for " << name;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(name), std::string::npos) << e.what();
    }
    cfg.*field = false;
    EXPECT_NO_THROW(Machine{cfg});
  }
}

}  // namespace
}  // namespace updown
