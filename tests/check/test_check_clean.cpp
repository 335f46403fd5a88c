// Clean-run guarantees of udcheck: the shipped applications report zero
// errors under checking, and a checked run reproduces the unchecked run's
// statistics bit-for-bit (the checker observes, it never perturbs).
#include <gtest/gtest.h>

#include "apps/bfs.hpp"
#include "apps/pagerank.hpp"
#include "apps/tc.hpp"
#include "check/checker.hpp"
#include "graph/generators.hpp"

namespace updown {
namespace {

MachineConfig config(std::uint32_t nodes, bool check) {
  MachineConfig cfg = MachineConfig::scaled(nodes);
  cfg.check = check;
  return cfg;
}

struct Counts {
  Tick done = 0;
  std::uint64_t events = 0, messages = 0, dram_reads = 0, dram_writes = 0,
                threads = 0, charged = 0;
  bool operator==(const Counts&) const = default;
};

Counts counts_of(const Machine& m, Tick done) {
  const MachineStats& s = m.stats();
  return {done,          s.events_executed, s.messages_sent, s.dram_reads,
          s.dram_writes, s.threads_created, s.charged_cycles};
}

Counts run_pagerank(bool check, CheckSummary* out = nullptr) {
  Machine m(config(2, check));
  Graph g = rmat(8, {}, 77);
  SplitGraph sg = split_vertices(g, 32);
  DeviceGraph dg = upload_split_graph(m, sg);
  pr::Result r = pr::App::install(m, dg, sg, {.iterations = 2}).run();
  if (out) *out = m.stats().check;
  return counts_of(m, r.done_tick);
}

Counts run_bfs(bool check, CheckSummary* out = nullptr) {
  Machine m(config(2, check));
  Graph g = rmat(8, {.symmetrize = true}, 13);
  DeviceGraph dg = upload_graph(m, g);
  bfs::Result r = bfs::App::install(m, dg, {.root = 1}).run();
  if (out) *out = m.stats().check;
  return counts_of(m, r.done_tick);
}

Counts run_tc(bool check, CheckSummary* out = nullptr) {
  Machine m(config(2, check));
  Graph g = rmat(7, {.symmetrize = true}, 5);
  DeviceGraph dg = upload_graph(m, g);
  tc::Result r = tc::App::install(m, dg, {}).run();
  if (out) *out = m.stats().check;
  return counts_of(m, r.done_tick);
}

TEST(UdCheckClean, PageRankIsCleanAndCountsUnchanged) {
  CheckSummary c;
  const Counts checked = run_pagerank(true, &c);
  EXPECT_TRUE(c.enabled);
  EXPECT_EQ(c.errors(), 0u) << "PageRank must run clean under UD_CHECK";
  EXPECT_TRUE(c.clean());
  EXPECT_EQ(checked, run_pagerank(false));
}

TEST(UdCheckClean, BfsIsCleanAndCountsUnchanged) {
  CheckSummary c;
  const Counts checked = run_bfs(true, &c);
  EXPECT_EQ(c.errors(), 0u) << "BFS must run clean under UD_CHECK";
  EXPECT_TRUE(c.clean());
  EXPECT_EQ(checked, run_bfs(false));
}

TEST(UdCheckClean, TriangleCountIsCleanAndCountsUnchanged) {
  CheckSummary c;
  const Counts checked = run_tc(true, &c);
  EXPECT_EQ(c.errors(), 0u) << "TC must run clean under UD_CHECK";
  EXPECT_TRUE(c.clean());
  EXPECT_EQ(checked, run_tc(false));
}

}  // namespace
}  // namespace updown
