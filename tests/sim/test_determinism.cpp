// The simulator is deterministic: identical inputs produce identical event
// orders, final ticks, and statistics — the property that makes the paper's
// simulated timing results reproducible at all.
//
// With the host-parallel engine this hardens into a stronger claim, asserted
// by the matrix below: the (tick, sending entity, sender seq) total order
// makes every fingerprint bit-identical for ANY shard count, including the
// drain/quiescence path each KVMSR round crosses. A checked run (udcheck)
// always uses the serial engine, whatever UD_SHARDS asks for, and must match
// the unchecked fingerprint exactly.
#include <gtest/gtest.h>

#include <string>

#include "apps/bfs.hpp"
#include "apps/pagerank.hpp"
#include "apps/tc.hpp"
#include "env_guard.hpp"
#include "graph/generators.hpp"
#include "serve/query_engine.hpp"

namespace updown {
namespace {

struct RunFingerprint {
  Tick done = 0;
  std::uint64_t events = 0, messages = 0, message_bytes = 0, cross_node = 0;
  std::uint64_t dram_reads = 0, dram_writes = 0, dram_bytes = 0, remote_dram = 0;
  std::uint64_t threads_created = 0, threads_destroyed = 0, charged = 0;
  std::uint64_t result = 0;  ///< an application-level answer (ranks, triangles...)
  bool operator==(const RunFingerprint&) const = default;
};

RunFingerprint fingerprint(Machine& m, Tick done, std::uint64_t result) {
  // Deliberately excludes the engine gauges (max_queue_depth,
  // max_live_threads): those describe per-shard queues, not the simulation.
  EXPECT_TRUE(m.idle());  // quiescent drain: nothing left in queues/mailboxes
  const MachineStats& s = m.stats();
  return {done,
          s.events_executed,
          s.messages_sent,
          s.message_bytes,
          s.cross_node_messages,
          s.dram_reads,
          s.dram_writes,
          s.dram_bytes,
          s.remote_dram_accesses,
          s.threads_created,
          s.threads_destroyed,
          s.charged_cycles,
          result};
}

RunFingerprint run_pr(std::uint32_t nodes, std::uint32_t shards = 1, bool check = false) {
  EnvGuard g1("UD_SHARDS", std::to_string(shards).c_str());
  EnvGuard g2("UD_CHECK", check ? "1" : "0");
  Machine m(MachineConfig::scaled(nodes));
  Graph g = rmat(9, {}, 77);
  SplitGraph sg = split_vertices(g, 32);
  DeviceGraph dg = upload_split_graph(m, sg);
  pr::Result r = pr::App::install(m, dg, sg, {.iterations = 2}).run();
  // Unchecked runs really shard; checked runs are serial and clean.
  if (check) {
    EXPECT_EQ(m.shards(), 1u);
    EXPECT_TRUE(m.stats().check.enabled);
    EXPECT_EQ(m.stats().check.errors(), 0u);
  } else {
    EXPECT_EQ(m.shards(), shards);
  }
  return fingerprint(m, r.done_tick, r.edge_updates);
}

RunFingerprint run_bfs(std::uint32_t nodes, std::uint32_t shards = 1, bool check = false) {
  EnvGuard g1("UD_SHARDS", std::to_string(shards).c_str());
  EnvGuard g2("UD_CHECK", check ? "1" : "0");
  Machine m(MachineConfig::scaled(nodes));
  Graph g = rmat(9, {.symmetrize = true}, 13);
  DeviceGraph dg = upload_graph(m, g);
  bfs::Result r = bfs::App::install(m, dg, {.root = 1}).run();
  // A BFS is one diffusing KVMSR job whose reduces emit, so its termination
  // takes the two-wave gather, whose polls cross the drain path; a
  // multi-level run keeps tuples in flight while the gather polls.
  EXPECT_GE(r.rounds, 2u);
  // rmat(9)'s 9,514 edges are at most 32 a lane from 16 nodes (512 lanes)
  // up, so the sender filter is on and drops tuples: fewer than one per
  // traversed edge. Below, it is off, and every reached vertex's last
  // expand emits its whole list.
  if (nodes >= 16) {
    EXPECT_LT(m.stats().shuffle.tuples_emitted, r.traversed_edges);
  } else {
    EXPECT_GE(m.stats().shuffle.tuples_emitted, r.traversed_edges);
  }
  if (check) {
    EXPECT_EQ(m.shards(), 1u);
    EXPECT_TRUE(m.stats().check.enabled);
    EXPECT_EQ(m.stats().check.errors(), 0u);
  }
  return fingerprint(m, r.done_tick, r.traversed_edges);
}

RunFingerprint run_tc(std::uint32_t shards = 1) {
  EnvGuard g1("UD_SHARDS", std::to_string(shards).c_str());
  EnvGuard g2("UD_CHECK", "0");
  Machine m(MachineConfig::scaled(2));
  Graph g = rmat(8, {.symmetrize = true}, 5);
  DeviceGraph dg = upload_graph(m, g);
  tc::Result r = tc::App::install(m, dg, {}).run();
  return fingerprint(m, r.done_tick, r.triangles);
}

TEST(Determinism, PageRankRunsAreBitIdentical) {
  const RunFingerprint a = run_pr(4), b = run_pr(4);
  EXPECT_EQ(a, b);
  EXPECT_GT(a.events, 0u);
}

TEST(Determinism, DifferentMachinesDiffer) {
  EXPECT_NE(run_pr(1).done, run_pr(4).done);
}

TEST(Determinism, TriangleCountRunsAreBitIdentical) {
  EXPECT_EQ(run_tc(), run_tc());
}

// ---------------------------------------------------------------------------
// The shard matrix: every fingerprint bit-identical across shards 1/2/4/8,
// with and without UD_CHECK=1 (checked runs ask for 1/2/4 and run serially). An 8-node machine so all four shard counts
// are distinct partitions (shards are clamped to the node count).
// ---------------------------------------------------------------------------

TEST(DeterminismMatrix, PageRankIdenticalAcrossShardCounts) {
  const RunFingerprint serial = run_pr(8, 1);
  for (std::uint32_t shards : {2u, 4u, 8u})
    EXPECT_EQ(run_pr(8, shards), serial) << "shards=" << shards;
}

TEST(DeterminismMatrix, PageRankIdenticalUnderCheck) {
  const RunFingerprint serial = run_pr(8, 1);
  // A checked run uses the serial engine at any requested shard count, and
  // must match the unchecked fingerprint exactly — checking never perturbs
  // the simulation. run_pr also asserts the check came back clean and the
  // run used one shard.
  for (std::uint32_t shards : {1u, 2u, 4u})
    EXPECT_EQ(run_pr(8, shards, /*check=*/true), serial) << "shards=" << shards;
}

TEST(DeterminismMatrix, BfsIdenticalAcrossShardCounts) {
  const RunFingerprint serial = run_bfs(8, 1);
  for (std::uint32_t shards : {2u, 4u, 8u})
    EXPECT_EQ(run_bfs(8, shards), serial) << "shards=" << shards;
}

TEST(DeterminismMatrix, BfsIdenticalUnderCheck) {
  const RunFingerprint serial = run_bfs(8, 1);
  for (std::uint32_t shards : {1u, 2u, 4u})
    EXPECT_EQ(run_bfs(8, shards, /*check=*/true), serial) << "shards=" << shards;
}

// The same rows on 16 nodes, where BFS runs its sender filter. Its table is
// lane-owned state: each shard writes only its own lanes' slices.
TEST(DeterminismMatrix, FilteredBfsIdenticalAcrossShardCounts) {
  const RunFingerprint serial = run_bfs(16, 1);
  for (std::uint32_t shards : {2u, 4u, 8u})
    EXPECT_EQ(run_bfs(16, shards), serial) << "shards=" << shards;
}

TEST(DeterminismMatrix, FilteredBfsIdenticalUnderCheck) {
  const RunFingerprint serial = run_bfs(16, 1);
  for (std::uint32_t shards : {1u, 2u, 4u})
    EXPECT_EQ(run_bfs(16, shards, /*check=*/true), serial) << "shards=" << shards;
}

TEST(DeterminismMatrix, TriangleCountIdenticalAcrossShardCounts) {
  const RunFingerprint serial = run_tc(1);
  EXPECT_EQ(run_tc(2), serial);  // 2-node machine: 2 is the max useful count
}

// ---------------------------------------------------------------------------
// Concurrent serve-layer jobs: two tenants (a partitioned PageRank and a
// partitioned BFS) resident at once, launched together and driven to global
// drain. The whole-machine fingerprint AND the per-job quantities folded into
// `result` (each tenant's completion tick, shuffle volume, and BFS levels)
// must be bit-identical across shard counts, with and without UD_CHECK —
// multi-tenancy adds no nondeterminism.
// ---------------------------------------------------------------------------

RunFingerprint run_concurrent(std::uint32_t shards, bool check = false) {
  EnvGuard g1("UD_SHARDS", std::to_string(shards).c_str());
  EnvGuard g2("UD_CHECK", check ? "1" : "0");
  Machine m(MachineConfig::scaled(4));
  auto& eng = serve::QueryEngine::install(m);
  const auto lanes_per_node =
      static_cast<std::uint32_t>(m.config().total_lanes() / m.config().nodes);

  Graph ga = rmat(8, {}, 41);
  const GraphPlacement pa{0, 2, 32 * 1024};
  DeviceGraph dga = upload_graph(m, ga, pa);
  serve::QuerySpec sa;
  sa.kind = serve::QueryKind::kPageRank;
  sa.graph = &dga;
  sa.lanes = {0, 2 * lanes_per_node};
  sa.values = pa;
  sa.iterations = 2;
  sa.name = "det.pr";

  Graph gb = rmat(8, {.symmetrize = true}, 42);
  const GraphPlacement pb{2, 2, 32 * 1024};
  DeviceGraph dgb = upload_graph(m, gb, pb);
  serve::QuerySpec sb;
  sb.kind = serve::QueryKind::kBfs;
  sb.graph = &dgb;
  sb.lanes = {2 * lanes_per_node, 2 * lanes_per_node};
  sb.values = pb;
  sb.root = 1;
  sb.name = "det.bfs";

  const serve::QueryId qa = eng.add_query(sa);
  const serve::QueryId qb = eng.add_query(sb);
  eng.launch(qa);
  eng.launch(qb);
  m.run();
  EXPECT_TRUE(eng.done(qa) && eng.done(qb));
  if (check) {
    EXPECT_EQ(m.shards(), 1u);
    EXPECT_TRUE(m.stats().check.enabled);
    EXPECT_EQ(m.stats().check.errors(), 0u);
  }
  const serve::QueryResult ra = eng.collect(qa);
  const serve::QueryResult rb = eng.collect(qb);
  // Fold the per-job stats into the fingerprint so a run that redistributes
  // work between tenants (same totals, different split) still fails.
  std::uint64_t per_job = ra.done_tick;
  per_job = per_job * 1000003 + ra.emitted;
  per_job = per_job * 1000003 + rb.done_tick;
  per_job = per_job * 1000003 + rb.emitted;
  per_job = per_job * 1000003 + rb.rounds;
  return fingerprint(m, std::max(ra.done_tick, rb.done_tick), per_job);
}

TEST(DeterminismMatrix, ConcurrentJobsIdenticalAcrossShardCounts) {
  const RunFingerprint serial = run_concurrent(1);
  EXPECT_GT(serial.events, 0u);
  for (std::uint32_t shards : {2u, 4u})
    EXPECT_EQ(run_concurrent(shards), serial) << "shards=" << shards;
}

TEST(DeterminismMatrix, ConcurrentJobsIdenticalUnderCheck) {
  const RunFingerprint serial = run_concurrent(1);
  for (std::uint32_t shards : {1u, 2u, 4u})
    EXPECT_EQ(run_concurrent(shards, /*check=*/true), serial) << "shards=" << shards;
}

// ---------------------------------------------------------------------------
// Golden fingerprints. The host-parallel engine re-keyed the event order to
// (tick, sending entity, sender seq) — sender-local, no global counter — and
// split the bisection token bucket per source node (a per-node share of
// bisection bandwidth, required for lock-free sharded routing). Both change
// tie-breaks and cross-node queuing, so these goldens were regenerated from
// the serial engine at that point; the sharded engine must reproduce them
// exactly for every shard count (see the matrix above). Update only with a
// side-by-side run against the previous engine showing both produce the new
// numbers.
// ---------------------------------------------------------------------------

TEST(Determinism, PageRankGoldenCounts) {
  EnvGuard g1("UD_SHARDS", nullptr);
  EnvGuard g2("UD_CHECK", "0");
  Machine m(MachineConfig::scaled(4));
  Graph g = rmat(9, {}, 77);
  SplitGraph sg = split_vertices(g, 32);
  DeviceGraph dg = upload_split_graph(m, sg);
  pr::Result r = pr::App::install(m, dg, sg, {.iterations = 2}).run();
  const MachineStats& s = m.stats();
  // The KVMSR control tree moved done_tick (37626 -> 37254), events and
  // messages (27893 -> 27941), threads (14657 -> 14673), charged cycles
  // (187382 -> 187526) and message bytes (991976 -> 984424): the kBlock
  // launch, the termination poll and the flush go through one relay per
  // node, which folds its lanes' replies into one. DRAM traffic, and so the
  // computation, did not move.
  // The Hash binding then moved to hash64(key + 1), so key 0 no longer lands
  // on the set's first lane (which also runs the master and node 0's relay):
  // done_tick 37254 -> 37252. Nothing else moved.
  EXPECT_EQ(r.done_tick, 37252u);
  EXPECT_EQ(s.events_executed, 27941u);
  EXPECT_EQ(s.messages_sent, 27941u);
  EXPECT_EQ(s.dram_reads, 7012u);
  EXPECT_EQ(s.dram_writes, 3010u);
  EXPECT_EQ(s.threads_created, 14673u);
  EXPECT_EQ(s.charged_cycles, 187526u);
  // Before the control tree: 991968 -> 991976 when pr::App became a wrapper
  // around the serve layer's PageRank query, whose driver's start message
  // carries the query id (one 8-byte operand).
  EXPECT_EQ(s.message_bytes, 984424u);
}

TEST(Determinism, BfsGoldenCounts) {
  EnvGuard g1("UD_SHARDS", nullptr);
  EnvGuard g2("UD_CHECK", "0");
  Machine m(MachineConfig::scaled(4));
  Graph g = rmat(9, {.symmetrize = true}, 13);
  DeviceGraph dg = upload_graph(m, g);
  bfs::Result r = bfs::App::install(m, dg, {.root = 1}).run();
  const MachineStats& s = m.stats();
  // done_tick moved 30025 -> 30026 when the network token buckets switched
  // from double accumulators to 1/256-cycle integer fixed-point: the final
  // ceil() now rounds one fractional bucket boundary up instead of landing
  // exactly on it.
  // The KVMSR control tree and the per-node BFS launch then moved done_tick
  // (30026 -> 31624), events and messages (16153 -> 16370), threads
  // (11325 -> 11433) and charged cycles (122984 -> 125866): each round's
  // termination poll goes through one relay per node, and each round maps one
  // task per node, which fans out to the node's 32 lanes. On this small graph
  // the serial fan-out lands one round's map-done just late enough for one
  // more backed-off re-poll, which is most of the done_tick move. DRAM
  // traffic, rounds and traversed edges did not move.
  // BFS rounds then became kBlock jobs with one key per lane, whose node
  // relays send the scans themselves. No number here moved (31624 ticks,
  // 16370 events, 125866 cycles before and after): on 4 nodes the control
  // tree is one relay per node, and a relay's scan sends and folds replace
  // the per-node BFS master's one for one, at the same charges.
  // The kernel then moved into the serve layer's kBfs query, where an expand
  // reads its vertex's level from the reduce side's lane-owned level mirror
  // instead of the round counter: one 1-cycle load per expanded vertex moved
  // charged cycles 125866 -> 126326 (+460) and done_tick 31624 -> 31628.
  // Events, messages, threads, DRAM traffic, rounds and traversed edges did
  // not move.
  // Two changes then moved every count. The Hash binding became
  // hash64(key + 1), which moves every vertex's owner lane: done_tick
  // 31628 -> 31445, events and messages 16370 -> 16111, DRAM reads 2098 ->
  // 2104, threads 11433 -> 11301 and charged cycles 126326 -> 124914 (DRAM
  // writes unchanged). The kernel then became one diffusing KVMSR job, whose
  // reduce expands an improved vertex at once instead of appending it to a
  // frontier slice for the next round: done_tick 31445 -> 18685 (four
  // launches and termination gathers became one), events and messages
  // 16111 -> 14726, DRAM reads 2104 -> 1928 and writes 918 -> 472 (no slice
  // writes or scans), threads 11301 -> 10922 and charged cycles 124914 ->
  // 121042. Levels (4) and traversed edges (9514), now computed from the
  // result, did not move.
  EXPECT_EQ(r.done_tick, 18685u);
  EXPECT_EQ(s.events_executed, 14726u);
  EXPECT_EQ(s.messages_sent, 14726u);
  EXPECT_EQ(s.dram_reads, 1928u);
  EXPECT_EQ(s.dram_writes, 472u);
  EXPECT_EQ(s.threads_created, 10922u);
  EXPECT_EQ(s.charged_cycles, 121042u);
  EXPECT_EQ(r.rounds, 4u);
  EXPECT_EQ(r.traversed_edges, 9514u);
}

}  // namespace
}  // namespace updown
