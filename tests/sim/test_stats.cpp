// Unit tests for the statistics structs: MachineStats::merge
// counter-vs-gauge semantics and the LaneActivity aggregate edges.
#include "sim/stats.hpp"

#include <gtest/gtest.h>

namespace updown {
namespace {

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
