// Computation-location naming: networkID <-> (node, accelerator, lane)
// round trips, configuration validity, machine-shape properties.
#include <gtest/gtest.h>

#include "env_guard.hpp"
#include "sim/machine.hpp"

namespace updown {
namespace {

class Topology : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::uint32_t,
                                                            std::uint32_t>> {};

TEST_P(Topology, NwidRoundTrips) {
  const auto [nodes, accels, lanes] = GetParam();
  Machine m(MachineConfig::scaled(nodes, accels, lanes));
  for (std::uint32_t node = 0; node < nodes; ++node)
    for (std::uint32_t accel = 0; accel < accels; ++accel)
      for (std::uint32_t lane = 0; lane < lanes; ++lane) {
        const NetworkId id = m.nwid_of(node, accel, lane);
        EXPECT_EQ(m.node_of(id), node);
        EXPECT_EQ(m.accel_of(id), accel);
        EXPECT_EQ(m.lane_in_accel(id), lane % lanes);
      }
}

TEST_P(Topology, NwidsAreDenseAndUnique) {
  const auto [nodes, accels, lanes] = GetParam();
  Machine m(MachineConfig::scaled(nodes, accels, lanes));
  std::vector<bool> seen(m.config().total_lanes(), false);
  for (std::uint32_t node = 0; node < nodes; ++node)
    for (std::uint32_t accel = 0; accel < accels; ++accel)
      for (std::uint32_t lane = 0; lane < lanes; ++lane) {
        const NetworkId id = m.nwid_of(node, accel, lane);
        ASSERT_LT(id, seen.size());
        EXPECT_FALSE(seen[id]);
        seen[id] = true;
      }
}

INSTANTIATE_TEST_SUITE_P(Shapes, Topology,
                         ::testing::Values(std::make_tuple(1u, 1u, 1u),
                                           std::make_tuple(1u, 4u, 8u),
                                           std::make_tuple(4u, 2u, 4u),
                                           std::make_tuple(8u, 4u, 8u)));

TEST(TopologyConfig, PaperNodeShape) {
  const MachineConfig cfg = MachineConfig::paper_node(2);
  EXPECT_EQ(cfg.lanes_per_node(), 2048u);  // 32 accelerators x 64 lanes
  EXPECT_EQ(cfg.total_lanes(), 4096u);
  EXPECT_TRUE(cfg.valid());
}

TEST(TopologyConfig, FullPaperMachineIs33MLanes) {
  const MachineConfig cfg = MachineConfig::paper_node(16384);
  EXPECT_EQ(cfg.total_lanes(), 33'554'432u);  // "33 million lanes"
  EXPECT_TRUE(cfg.valid());
}

TEST(TopologyConfig, RejectsNonPowerOfTwoNodes) {
  MachineConfig cfg = MachineConfig::scaled(3);
  EXPECT_FALSE(cfg.valid());
  EXPECT_THROW(Machine{cfg}, std::invalid_argument);
}

// The engine runs lookahead windows [W, W + min_cross_node_latency()) at
// every shard count, so a zero cross-node latency is invalid even serially:
// the window would be empty and the loop would never advance.
TEST(TopologyConfig, RejectsZeroCrossNodeLatency) {
  EnvGuard g("UD_SHARDS", "1");
  MachineConfig cfg = MachineConfig::scaled(2);
  cfg.lat_intra_node = 0;
  cfg.lat_hop = 0;
  EXPECT_FALSE(cfg.valid());
  EXPECT_THROW(Machine{cfg}, std::invalid_argument);
  cfg.lat_hop = 1;
  EXPECT_TRUE(cfg.valid());
}

TEST(TopologyConfig, FirstLaneOfNode) {
  Machine m(MachineConfig::scaled(4));
  for (std::uint32_t n = 0; n < 4; ++n) {
    EXPECT_EQ(m.first_lane_of_node(n), n * m.config().lanes_per_node());
    EXPECT_EQ(m.node_of(m.first_lane_of_node(n)), n);
  }
}

TEST(TopologyConfig, SendBeyondMachineThrows) {
  Machine m(MachineConfig::scaled(1));
  struct T : ThreadState {
    void e(Ctx&) {}
  };
  const EventLabel l = m.program().event("T::e", &T::e);
  if (m.checker()) {
    // Checked mode (ambient UD_CHECK=1): the bad route is reported and the
    // send dropped instead of throwing.
    m.send_from_host(evw::make_new(9999, l), {});
    m.run();
    EXPECT_GE(m.stats().check.bad_event_words, 1u);
  } else {
    EXPECT_THROW(m.send_from_host(evw::make_new(9999, l), {}), std::out_of_range);
  }
}

}  // namespace
}  // namespace updown
