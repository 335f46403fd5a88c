// Seeded-violation tests for udcheck (src/check/): each test injects one
// bug class into a tiny program and asserts the checker catches it with the
// right kind and enough context (tick, lane, label, address) to locate it.
#include "check/checker.hpp"

#include <gtest/gtest.h>

#include <string>

#include "env_guard.hpp"
#include "udweave/context.hpp"

namespace updown {
namespace {

MachineConfig checked_config() {
  MachineConfig cfg = MachineConfig::scaled(1);
  cfg.check = true;
  return cfg;
}

const CheckDiagnostic* find_kind(Machine& m, CheckKind kind) {
  for (const CheckDiagnostic& d : m.checker()->diagnostics())
    if (d.kind == kind) return &d;
  return nullptr;
}

// ---------------------------------------------------------------------------
// 1. Data race: two threads, launched with no ordering between them, write
//    the same DRAM word.
// ---------------------------------------------------------------------------

struct RaceApp {
  EventLabel writer = 0;
  Addr va = 0;
};

struct TRaceWriter : ThreadState {
  void w(Ctx& ctx) {
    ctx.send_dram_write(ctx.machine().user<RaceApp>().va, {ctx.op(0)});
    ctx.yield_terminate();
  }
};

TEST(UdCheck, DetectsDramDataRace) {
  Machine m(checked_config());
  RaceApp& app = m.emplace_user<RaceApp>();
  app.writer = m.program().event("seed::race_w", &TRaceWriter::w);
  app.va = m.memory().dram_malloc_spread(256);
  // Two independent host launches on different lanes: neither write is
  // ordered before the other.
  m.send_from_host(evw::make_new(0, app.writer), {1});
  m.send_from_host(evw::make_new(1, app.writer), {2});
  m.run();

  const CheckSummary& c = m.stats().check;
  EXPECT_TRUE(c.enabled);
  EXPECT_GE(c.data_races, 1u);
  EXPECT_FALSE(c.clean());
  const CheckDiagnostic* d = find_kind(m, CheckKind::kDataRace);
  ASSERT_NE(d, nullptr);
  EXPECT_TRUE(d->error);
  EXPECT_EQ(d->va, app.va);
  EXPECT_GT(d->tick, 0u);
  EXPECT_NE(d->message.find("seed::race_w"), std::string::npos);
}

// The same seeded race with UD_SHARDS=4 on a 4-node machine, writers on the
// first and the last node: a checked run uses the serial engine whatever
// shard count was asked for, so it merges no cross-shard mail (at 4 shards
// the far writer's DRAM request would cross shards), and the race is
// reported exactly once, naming both writers.
TEST(UdCheck, ShardedRequestRunsSeriallyAndReportsRaceOnce) {
  EnvGuard g("UD_SHARDS", "4");
  MachineConfig cfg = MachineConfig::scaled(4);
  cfg.check = true;
  Machine m(cfg);
  EXPECT_EQ(m.shards(), 1u);
  RaceApp& app = m.emplace_user<RaceApp>();
  app.writer = m.program().event("seed::race_w", &TRaceWriter::w);
  app.va = m.memory().dram_malloc_spread(256);
  const std::uint32_t far_lane = 3 * cfg.lanes_per_node();
  m.send_from_host(evw::make_new(0, app.writer), {1});
  m.send_from_host(evw::make_new(far_lane, app.writer), {2});
  m.run();

  EXPECT_EQ(m.engine_stats().shards, 1u);
  EXPECT_EQ(m.engine_stats().mailbox_messages, 0u);
  const CheckSummary& c = m.stats().check;
  EXPECT_TRUE(c.enabled);
  EXPECT_EQ(c.data_races, 1u);
  const CheckDiagnostic* d = find_kind(m, CheckKind::kDataRace);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->va, app.va);
  EXPECT_NE(d->message.find("[NWID 0][TID"), std::string::npos) << d->message;
  EXPECT_NE(d->message.find("[NWID " + std::to_string(far_lane) + "][TID"),
            std::string::npos)
      << d->message;
}

// ---------------------------------------------------------------------------
// 2. Use-after-free: a task reads a region the host already dram_free'd.
// ---------------------------------------------------------------------------

struct UafApp {
  EventLabel read = 0, got = 0;
};

struct TUafReader : ThreadState {
  void read(Ctx& ctx) {
    ctx.send_dram_read(static_cast<Addr>(ctx.op(0)), 1,
                       ctx.machine().user<UafApp>().got);
  }
  void got(Ctx& ctx) { ctx.yield_terminate(); }
};

TEST(UdCheck, DetectsUseAfterFree) {
  Machine m(checked_config());
  UafApp& app = m.emplace_user<UafApp>();
  app.read = m.program().event("seed::uaf_read", &TUafReader::read);
  app.got = m.program().event("seed::uaf_got", &TUafReader::got);
  const Addr va = m.memory().dram_malloc_spread(256);
  m.memory().dram_free(va);
  m.send_from_host(evw::make_new(0, app.read), {va});
  m.run();

  const CheckSummary& c = m.stats().check;
  EXPECT_GE(c.use_after_free, 1u);
  EXPECT_FALSE(c.clean());
  const CheckDiagnostic* d = find_kind(m, CheckKind::kUseAfterFree);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->va, va);
  EXPECT_GT(d->alloc_seq, 0u);  // points at the retired allocation site
  EXPECT_NE(d->message.find("freed"), std::string::npos);
}

// ---------------------------------------------------------------------------
// 3. Send to a dead thread: a victim hands out its event word, terminates,
//    and a peer then addresses the dead context.
// ---------------------------------------------------------------------------

struct DeadSendApp {
  EventLabel spawn = 0, victim = 0, got = 0, nop = 0;
};

struct TDeadSpawner : ThreadState {
  void spawn(Ctx& ctx) {
    DeadSendApp& app = ctx.machine().user<DeadSendApp>();
    ctx.send_event(ctx.evw_new(ctx.nwid(), app.victim), {},
                   ctx.evw_update_event(ctx.cevnt(), app.got));
  }
  void got(Ctx& ctx) {
    // op(0) is the victim's event word; the victim terminated after replying.
    DeadSendApp& app = ctx.machine().user<DeadSendApp>();
    ctx.send_event(evw::update_event(static_cast<Word>(ctx.op(0)), app.nop), {});
    ctx.yield_terminate();
  }
  void nop(Ctx& ctx) { ctx.yield_terminate(); }
};

struct TDeadVictim : ThreadState {
  void v(Ctx& ctx) {
    ctx.send_reply({ctx.cevnt()});
    ctx.yield_terminate();
  }
};

TEST(UdCheck, DetectsSendToDeadThread) {
  Machine m(checked_config());
  DeadSendApp& app = m.emplace_user<DeadSendApp>();
  app.spawn = m.program().event("seed::dead_spawn", &TDeadSpawner::spawn);
  app.got = m.program().event("seed::dead_got", &TDeadSpawner::got);
  app.nop = m.program().event("seed::dead_nop", &TDeadSpawner::nop);
  app.victim = m.program().event("seed::dead_victim", &TDeadVictim::v);
  m.send_from_host(evw::make_new(0, app.spawn), {});
  m.run();

  const CheckSummary& c = m.stats().check;
  EXPECT_GE(c.dead_thread_sends, 1u);
  EXPECT_FALSE(c.clean());
  const CheckDiagnostic* d = find_kind(m, CheckKind::kSendToDeadThread);
  ASSERT_NE(d, nullptr);
  EXPECT_NE(d->message.find("seed::dead_nop"), std::string::npos);
  EXPECT_NE(d->message.find("seed::dead_got"), std::string::npos);  // the sender
}

// ---------------------------------------------------------------------------
// 4. Leaked thread: a handler returns (implicit yield) and nothing ever
//    addresses the context again — surfaced at drain.
// ---------------------------------------------------------------------------

struct LeakApp {
  EventLabel leak = 0;
};

struct TLeaker : ThreadState {
  void leak(Ctx&) {}  // returns without yield_terminate: context stays live
};

TEST(UdCheck, DetectsLeakedThreadAtDrain) {
  Machine m(checked_config());
  LeakApp& app = m.emplace_user<LeakApp>();
  app.leak = m.program().event("seed::leak", &TLeaker::leak);
  m.send_from_host(evw::make_new(0, app.leak), {});
  m.run();

  const CheckSummary& c = m.stats().check;
  EXPECT_EQ(c.leaked_threads, 1u);
  EXPECT_FALSE(c.clean());
  const CheckDiagnostic* d = find_kind(m, CheckKind::kLeakedThread);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->lane, 0u);
  // Thread lifetimes carry an alloc-site sequence number (creation #N), the
  // same idea as dram_malloc's alloc #N, so the leak points at its spawn.
  EXPECT_GT(d->alloc_seq, 0u);
  EXPECT_NE(d->message.find("creation #"), std::string::npos);
  EXPECT_NE(d->message.find("seed::leak"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Supporting classes: out-of-bounds, bad free, unfired continuation.
// ---------------------------------------------------------------------------

TEST(UdCheck, DetectsOutOfBoundsDramAccess) {
  Machine m(checked_config());
  UafApp& app = m.emplace_user<UafApp>();
  app.read = m.program().event("seed::oob_read", &TUafReader::read);
  app.got = m.program().event("seed::oob_got", &TUafReader::got);
  m.send_from_host(evw::make_new(0, app.read), {0x100});  // below the VA brk
  m.run();

  EXPECT_GE(m.stats().check.out_of_bounds, 1u);
  const CheckDiagnostic* d = find_kind(m, CheckKind::kOutOfBounds);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->va, 0x100u);
}

TEST(UdCheck, RecordsDoubleFree) {
  Machine m(checked_config());
  const Addr va = m.memory().dram_malloc_spread(256);
  m.memory().dram_free(va);
  EXPECT_THROW(m.memory().dram_free(va), BadFreeError);
  m.run();  // empty queue: report immediately
  EXPECT_GE(m.stats().check.bad_frees, 1u);
  EXPECT_NE(find_kind(m, CheckKind::kBadFree), nullptr);
}

struct TDropCont : ThreadState {
  void drop(Ctx& ctx) { ctx.yield_terminate(); }  // never fires ccont()
};

TEST(UdCheck, WarnsOnUnfiredContinuation) {
  Machine m(checked_config());
  LeakApp& app = m.emplace_user<LeakApp>();
  app.leak = m.program().event("seed::drop_cont", &TDropCont::drop);
  const EventLabel sink = m.program().event("seed::cont_sink", &TDropCont::drop);
  m.send_from_host(evw::make_new(0, app.leak), {}, evw::make_new(0, sink));
  m.run();

  const CheckSummary& c = m.stats().check;
  EXPECT_GE(c.unfired_continuations, 1u);
  EXPECT_EQ(c.errors(), 0u);  // a warning: clean() still holds
  EXPECT_TRUE(c.clean());
  const CheckDiagnostic* d = find_kind(m, CheckKind::kUnfiredContinuation);
  ASSERT_NE(d, nullptr);
  EXPECT_FALSE(d->error);
  EXPECT_NE(d->message.find("seed::cont_sink"), std::string::npos);
}

}  // namespace
}  // namespace updown
