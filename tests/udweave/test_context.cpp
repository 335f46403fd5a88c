// Ctx intrinsics: delayed sends, replies, operand limits, scratchpad
// allocation and bounds, program registry errors, service registry.
#include <gtest/gtest.h>

#include "env_guard.hpp"
#include "sim/machine.hpp"
#include "udweave/context.hpp"

namespace updown {
namespace {

struct CtxApp {
  EventLabel go = 0, tick = 0, reply_target = 0;
  std::vector<std::pair<Word, Tick>> arrivals;  // (tag, start time)
  bool replied = false;
};

struct TCtx : ThreadState {
  void go(Ctx& ctx) {
    auto& app = ctx.machine().user<CtxApp>();
    // Delayed sends arrive in delay order regardless of send order.
    ctx.send_event_delayed(ctx.evw_new(0, app.tick), {2}, IGNRCONT, 5000);
    ctx.send_event_delayed(ctx.evw_new(0, app.tick), {1}, IGNRCONT, 1000);
    ctx.send_event(ctx.evw_new(0, app.tick), {0});
    // send_reply with no continuation is a silent no-op.
    ctx.send_reply({99});
    ctx.yield_terminate();
  }
  void tick(Ctx& ctx) {
    ctx.machine().user<CtxApp>().arrivals.emplace_back(ctx.op(0), ctx.start_time());
    ctx.yield_terminate();
  }
};

TEST(Context, DelayedSendsArriveInDelayOrder) {
  Machine m(MachineConfig::scaled(1));
  auto& app = m.emplace_user<CtxApp>();
  app.go = m.program().event("TCtx::go", &TCtx::go);
  app.tick = m.program().event("TCtx::tick", &TCtx::tick);
  m.send_from_host(evw::make_new(1, app.go), {});
  m.run();
  ASSERT_EQ(app.arrivals.size(), 3u);
  EXPECT_EQ(app.arrivals[0].first, 0u);
  EXPECT_EQ(app.arrivals[1].first, 1u);
  EXPECT_EQ(app.arrivals[2].first, 2u);
  EXPECT_GE(app.arrivals[1].second, app.arrivals[0].second + 900);
  EXPECT_GE(app.arrivals[2].second, app.arrivals[0].second + 4900);
}

struct TMaxOps : ThreadState {
  void go(Ctx& ctx) {
    auto& app = ctx.machine().user<CtxApp>();
    const Word ops[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    ctx.send_eventv(ctx.evw_new(0, app.tick), ops, 8);
    ctx.yield_terminate();
  }
  void tick(Ctx& ctx) {
    EXPECT_EQ(ctx.nops(), 8u);
    EXPECT_EQ(ctx.op(7), 8u);
    ctx.machine().user<CtxApp>().arrivals.emplace_back(ctx.nops(), ctx.start_time());
    ctx.yield_terminate();
  }
};

TEST(Context, EightOperandMessages) {
  Machine m(MachineConfig::scaled(1));
  auto& app = m.emplace_user<CtxApp>();
  app.go = m.program().event("TMaxOps::go", &TMaxOps::go);
  app.tick = m.program().event("TMaxOps::tick", &TMaxOps::tick);
  m.send_from_host(evw::make_new(0, app.go), {});
  m.run();
  ASSERT_EQ(app.arrivals.size(), 1u);
}

struct TSpExhaust : ThreadState {
  void go(Ctx& ctx) {
    // Scratchpad allocation honors alignment and throws on exhaustion.
    const std::uint64_t a = ctx.sp_alloc(10, 8);
    const std::uint64_t b = ctx.sp_alloc(1, 64);
    EXPECT_EQ(a % 8, 0u);
    EXPECT_EQ(b % 64, 0u);
    EXPECT_GE(b, a + 10);
    EXPECT_THROW(ctx.sp_alloc(1ull << 40), std::runtime_error);
    const std::uint64_t mark = ctx.lane().sp_mark();
    ctx.sp_alloc(128);
    ctx.lane().sp_release(mark);
    EXPECT_EQ(ctx.lane().sp_mark(), mark);
    ctx.yield_terminate();
  }
};

TEST(Context, SpMallocAlignmentAndRelease) {
  Machine m(MachineConfig::scaled(1));
  auto& app = m.emplace_user<CtxApp>();
  app.go = m.program().event("TSpExhaust::go", &TSpExhaust::go);
  m.send_from_host(evw::make_new(0, app.go), {});
  m.run();
}

// A delayed send to a lane on another node would hold the sending node's
// injection bucket until its departure, so Ctx rejects it.
struct TCrossNodeDelay : ThreadState {
  void go(Ctx& ctx) {
    auto& app = ctx.machine().user<CtxApp>();
    const NetworkId other = ctx.machine().first_lane_of_node(1);
    ctx.send_event_delayed(ctx.evw_new(other, app.tick), {1}, IGNRCONT, 1000);
    ctx.yield_terminate();
  }
  void tick(Ctx& ctx) { ctx.yield_terminate(); }
};

TEST(Context, CrossNodeDelayedSendThrows) {
  Machine m(MachineConfig::scaled(2));
  auto& app = m.emplace_user<CtxApp>();
  app.go = m.program().event("TCrossNodeDelay::go", &TCrossNodeDelay::go);
  app.tick = m.program().event("TCrossNodeDelay::tick", &TCrossNodeDelay::tick);
  m.send_from_host(evw::make_new(0, app.go), {});
  EXPECT_THROW(m.run(), std::invalid_argument);
}

// Without the checker, a scratchpad word at or past the end throws instead
// of copying past the lane's backing store.
struct TSpPastEnd : ThreadState {
  void go(Ctx& ctx) {
    const std::uint64_t end = ctx.lane().scratchpad_bytes();
    ctx.sp_write(end - 8, 7);
    EXPECT_EQ(ctx.sp_read(end - 8), 7u);
    if (ctx.op(0) == 0) ctx.sp_write(end, 1);
    else ctx.sp_read(end - 4);
    ctx.yield_terminate();
  }
};

TEST(Context, UncheckedScratchpadPastEndThrows) {
  EnvGuard g("UD_CHECK", nullptr);
  for (const Word variant : {Word{0}, Word{1}}) {
    Machine m(MachineConfig::scaled(1));
    ASSERT_EQ(m.checker(), nullptr);
    auto& app = m.emplace_user<CtxApp>();
    app.go = m.program().event("TSpPastEnd::go", &TSpPastEnd::go);
    m.send_from_host(evw::make_new(0, app.go), {variant});
    EXPECT_THROW(m.run(), std::out_of_range) << "variant " << variant;
  }
}

TEST(Program, LabelLookupAndErrors) {
  Machine m(MachineConfig::scaled(1));
  struct T : ThreadState {
    void e(Ctx&) {}
  };
  const EventLabel l = m.program().event("unique::event", &T::e);
  EXPECT_EQ(m.program().label("unique::event"), l);
  EXPECT_THROW(m.program().label("missing"), std::out_of_range);
  EXPECT_THROW(m.program().def(0), std::out_of_range);  // label 0 reserved
  EXPECT_EQ(m.program().def(l).name, "unique::event");
}

TEST(Services, TypedRegistry) {
  Machine m(MachineConfig::scaled(1));
  struct SvcA {
    int x = 1;
  };
  struct SvcB {
    int x = 2;
  };
  EXPECT_FALSE(m.has_service<SvcA>());
  EXPECT_THROW(m.service<SvcA>(), std::logic_error);
  m.add_service<SvcA>();
  m.add_service<SvcB>();
  EXPECT_EQ(m.service<SvcA>().x, 1);
  EXPECT_EQ(m.service<SvcB>().x, 2);
  m.service<SvcA>().x = 42;
  EXPECT_EQ(m.service<SvcA>().x, 42);
}

TEST(Stats, LaneActivityImbalance) {
  std::vector<LaneStats> lanes(4);
  lanes[0].busy_cycles = 100;
  lanes[1].busy_cycles = 100;
  lanes[2].busy_cycles = 100;
  lanes[3].busy_cycles = 500;
  const LaneActivity a = LaneActivity::from(lanes);
  EXPECT_DOUBLE_EQ(a.mean_busy, 200.0);
  EXPECT_EQ(a.max_busy, 500u);
  EXPECT_EQ(a.min_busy, 100u);
  EXPECT_DOUBLE_EQ(a.imbalance(), 2.5);
  EXPECT_EQ(LaneActivity::from({}).imbalance(), 0.0);
}

}  // namespace
}  // namespace updown
