// Unit tests for the statistics structs: the traffic-summary underflow
// clamp, MachineStats::merge counter-vs-gauge semantics, and the
// LaneActivity aggregate edges.
#include "sim/stats.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

namespace updown {
namespace {

std::string read_all(std::FILE* f) {
  std::rewind(f);
  std::string out;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
  return out;
}

TEST(MachineStatsTest, TrafficSummaryPrintsShuffleSplit) {
  MachineStats s;
  s.messages_sent = 100;
  s.message_bytes = 4000;
  s.cross_node_messages = 60;
  s.shuffle.messages = 30;
  s.shuffle.bytes = 1500;
  s.shuffle.tuples_emitted = 90;
  std::FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  s.print_traffic_summary(f);
  const std::string out = read_all(f);
  std::fclose(f);
  EXPECT_NE(out.find("total"), std::string::npos);
  EXPECT_NE(out.find("100 msgs"), std::string::npos);
  EXPECT_NE(out.find("30 msgs"), std::string::npos);
  EXPECT_NE(out.find("70 msgs"), std::string::npos);  // 100 - 30 other traffic
  EXPECT_NE(out.find("2500 bytes"), std::string::npos);  // 4000 - 1500
}

// Regression: shuffle counters larger than the machine totals (an unmerged
// per-shard delta block — emit-side vs route-side accounting land on
// different shards) used to underflow the unsigned subtraction and print
// absurd "other traffic" rows. Debug builds now assert on the misuse;
// release builds clamp to zero.
TEST(MachineStatsTest, TrafficSummaryUnmergedDeltaUnderflow) {
  MachineStats s;
  s.messages_sent = 2;
  s.message_bytes = 100;
  s.shuffle.messages = 5;
  s.shuffle.bytes = 500;
#ifdef NDEBUG
  std::FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  s.print_traffic_summary(f);
  const std::string out = read_all(f);
  std::fclose(f);
  EXPECT_NE(out.find("map/control/replies"), std::string::npos);
  // Clamped, not wrapped: no 18-quintillion message counts.
  EXPECT_EQ(out.find("18446744073"), std::string::npos) << out;
  EXPECT_NE(out.find(" 0 msgs"), std::string::npos) << out;
#else
  EXPECT_DEATH(s.print_traffic_summary(stderr),
               "shuffle counters exceed machine totals");
#endif
}

TEST(MachineStatsTest, MergeAddsCountersAndMaxesGauges) {
  MachineStats total, a, b;
  a.events_executed = 10;
  a.charged_cycles = 100;
  a.messages_sent = 5;
  a.message_bytes = 200;
  a.cross_node_messages = 2;
  a.dram_reads = 3;
  a.dram_writes = 1;
  a.dram_bytes = 64;
  a.remote_dram_accesses = 1;
  a.threads_created = 4;
  a.threads_destroyed = 4;
  a.max_live_threads = 7;
  a.max_queue_depth = 50;
  a.shuffle.tuples_emitted = 11;

  b.events_executed = 1;
  b.max_live_threads = 3;   // below a's peak: must not add
  b.max_queue_depth = 80;   // above a's peak: must win
  b.shuffle.tuples_emitted = 9;

  total.merge(a);
  total.merge(b);
  EXPECT_EQ(total.events_executed, 11u);
  EXPECT_EQ(total.charged_cycles, 100u);
  EXPECT_EQ(total.messages_sent, 5u);
  EXPECT_EQ(total.message_bytes, 200u);
  EXPECT_EQ(total.cross_node_messages, 2u);
  EXPECT_EQ(total.dram_reads, 3u);
  EXPECT_EQ(total.dram_writes, 1u);
  EXPECT_EQ(total.dram_bytes, 64u);
  EXPECT_EQ(total.remote_dram_accesses, 1u);
  EXPECT_EQ(total.threads_created, 4u);
  EXPECT_EQ(total.threads_destroyed, 4u);
  // Gauges combine by max (peak any single shard observed), not by sum.
  EXPECT_EQ(total.max_live_threads, 7u);
  EXPECT_EQ(total.max_queue_depth, 80u);
  EXPECT_EQ(total.shuffle.tuples_emitted, 20u);
}

TEST(MachineStatsTest, MergeLeavesCheckSummaryAlone) {
  // The checker is serial-only and writes into the machine total directly;
  // folding shard deltas must not zero or double its summary.
  MachineStats total;
  total.check.enabled = true;
  total.check.data_races = 3;
  MachineStats delta;
  delta.events_executed = 1;
  total.merge(delta);
  EXPECT_TRUE(total.check.enabled);
  EXPECT_EQ(total.check.data_races, 3u);
}

TEST(LaneActivityTest, EmptyLanesYieldZeroes) {
  const LaneActivity a = LaneActivity::from({});
  EXPECT_DOUBLE_EQ(a.mean_busy, 0.0);
  EXPECT_EQ(a.max_busy, 0u);
  EXPECT_EQ(a.min_busy, 0u);
  EXPECT_DOUBLE_EQ(a.imbalance(), 0.0);  // no division by the zero mean
}

TEST(LaneActivityTest, AllIdleLanesYieldZeroImbalance) {
  const std::vector<LaneStats> lanes(4);
  const LaneActivity a = LaneActivity::from(lanes);
  EXPECT_DOUBLE_EQ(a.mean_busy, 0.0);
  EXPECT_DOUBLE_EQ(a.imbalance(), 0.0);
}

TEST(LaneActivityTest, AggregatesMeanMaxMin) {
  std::vector<LaneStats> lanes(4);
  lanes[0].busy_cycles = 10;
  lanes[1].busy_cycles = 20;
  lanes[2].busy_cycles = 30;
  lanes[3].busy_cycles = 40;
  const LaneActivity a = LaneActivity::from(lanes);
  EXPECT_DOUBLE_EQ(a.mean_busy, 25.0);
  EXPECT_EQ(a.max_busy, 40u);
  EXPECT_EQ(a.min_busy, 10u);
  EXPECT_DOUBLE_EQ(a.imbalance(), 40.0 / 25.0);
}

}  // namespace
}  // namespace updown
