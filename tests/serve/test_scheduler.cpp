// Multi-tenant serving battery: query kernels vs CPU oracles, concurrent
// jobs with per-job quiescence, admission/QoS policy, drain-to-cancel, and
// the bit-identity-vs-running-alone guarantee for partition-isolated jobs.
#include "serve/scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <string>
#include <utility>
#include <vector>

#include "baseline/baseline.hpp"
#include "bfs_tree.hpp"
#include "env_guard.hpp"
#include "graph/generators.hpp"
#include "serve/query_engine.hpp"

namespace updown::serve {
namespace {

/// Run a single query on a fresh machine to completion via the engine's
/// run_until predicate (no scheduler) and return its result.
QueryResult run_single(Machine& m, const DeviceGraph& dg, QuerySpec spec) {
  auto& eng = QueryEngine::install(m);
  spec.graph = &dg;
  const QueryId q = eng.add_query(std::move(spec));
  eng.launch(q);
  const bool stopped = m.run_until([&] { return eng.done(q); });
  EXPECT_TRUE(eng.done(q));
  if (stopped) m.run();  // drain the tail (gather acks) for idle()
  EXPECT_TRUE(m.idle());
  return eng.collect(q);
}

// ---------------------------------------------------------------------------
// Query kernels vs CPU oracles (single-tenant sanity before concurrency).
// ---------------------------------------------------------------------------

TEST(ServeQueries, PageRankMatchesOracle) {
  Graph g = rmat(7, {}, 21);
  const auto oracle = baseline::pagerank(g, 3);
  // Unsplit, and vertex-split so hub contributions spread over slots.
  for (const bool split : {false, true}) {
    Machine m(MachineConfig::scaled(2));
    DeviceGraph dg =
        split ? upload_split_graph(m, split_vertices(g, 8)) : upload_graph(m, g);
    if (split) {
      ASSERT_GT(dg.num_vertices, dg.num_original);
    }
    QuerySpec s;
    s.kind = QueryKind::kPageRank;
    s.iterations = 3;
    s.name = "pr";
    const QueryResult r = run_single(m, dg, std::move(s));
    ASSERT_EQ(r.rank.size(), oracle.size()) << "split=" << split;
    for (VertexId v = 0; v < g.num_vertices(); ++v)
      EXPECT_NEAR(r.rank[v], oracle[v], 1e-9) << "vertex " << v << " split=" << split;
    EXPECT_EQ(r.rounds, 3u);
    EXPECT_GT(r.done_tick, r.launch_tick);
  }
}

TEST(ServeQueries, BfsMatchesOracle) {
  Machine m(MachineConfig::scaled(2));
  Graph g = rmat(8, {.symmetrize = true}, 13);
  DeviceGraph dg = upload_graph(m, g);
  QuerySpec s;
  s.kind = QueryKind::kBfs;
  s.root = 1;
  s.name = "bfs";
  const QueryResult r = run_single(m, dg, std::move(s));
  const auto oracle = baseline::bfs(g, 1);
  ASSERT_EQ(r.dist.size(), oracle.dist.size());
  for (VertexId v = 0; v < g.num_vertices(); ++v)
    EXPECT_EQ(r.dist[v], oracle.dist[v]) << "vertex " << v;
  expect_bfs_tree(g, 1, r.dist, r.parent);
  EXPECT_GE(r.rounds, 2u);
}

TEST(ServeQueries, BfsOnMidNodeLanesStaysOnThem) {
  // Lanes [19, 19 + count) start and end mid-node (32 lanes a node), and the
  // hub's 700 neighbors fan out in chunks: seeds, expands, reducers and
  // chunks must all stay on the query's lanes. The sender filter is on when
  // the graph has at most 32 edges a lane. On 58 lanes (1,400 <= 1,856) each
  // leaf's reduce hears from the hub, and the leaf's expand, on the same
  // lane, does not send the hub its level back. On 40 lanes (1,400 > 1,280)
  // the filter is off and every leaf echoes.
  const Graph g = star_graph(700);
  for (const auto& [count, emitted] : {std::pair{58u, 700u}, std::pair{40u, 1400u}}) {
    Machine m(MachineConfig::scaled(4));
    DeviceGraph dg = upload_graph(m, g);
    QuerySpec s;
    s.kind = QueryKind::kBfs;
    s.lanes = {19, count};
    s.name = "bfs";
    const QueryResult r = run_single(m, dg, std::move(s));
    EXPECT_EQ(r.dist, baseline::bfs(g, 0).dist);
    expect_bfs_tree(g, 0, r.dist, r.parent);
    EXPECT_EQ(r.emitted, emitted) << count << " lanes";
    const std::vector<LaneStats> lanes = m.lane_stats();
    for (NetworkId l = 0; l < lanes.size(); ++l) {
      if (l < 19 || l >= 19 + count) {
        EXPECT_EQ(lanes[l].events_executed, 0u) << "lane " << l;
      }
    }
  }
}

TEST(ServeQueries, PathCountMatchesOracle) {
  Machine m(MachineConfig::scaled(2));
  Graph g = rmat(7, {}, 5);
  DeviceGraph dg = upload_graph(m, g);
  QuerySpec s;
  s.kind = QueryKind::kPathCount;
  s.name = "pc";
  const QueryResult r = run_single(m, dg, std::move(s));
  EXPECT_EQ(r.count, cpu_path_count(g));
  EXPECT_GT(r.count, 0u);
}

TEST(ServeQueries, TrianglesMatchOracle) {
  Machine m(MachineConfig::scaled(2));
  Graph g = rmat(7, {.symmetrize = true}, 5);
  DeviceGraph dg = upload_graph(m, g);
  QuerySpec s;
  s.kind = QueryKind::kTriangles;
  s.name = "tc";
  const QueryResult r = run_single(m, dg, std::move(s));
  EXPECT_EQ(r.count, baseline::triangle_count(g));
  EXPECT_GT(r.count, 0u);
}

TEST(ServeQueries, ZeroIterationPageRankAndEdgelessGraphs) {
  // Degenerate tenants must terminate cleanly: a 0-sweep PageRank finishes
  // without launching a job; path/triangle queries over an edgeless graph
  // count zero.
  Machine m(MachineConfig::scaled(1));
  Graph g = Graph::from_edges(4, {}, false);
  DeviceGraph dg = upload_graph(m, g);
  auto& eng = QueryEngine::install(m);
  QuerySpec pr;
  pr.kind = QueryKind::kPageRank;
  pr.iterations = 0;
  pr.graph = &dg;
  pr.name = "pr0";
  QuerySpec pc;
  pc.kind = QueryKind::kPathCount;
  pc.graph = &dg;
  pc.name = "pc0";
  QuerySpec tc;
  tc.kind = QueryKind::kTriangles;
  tc.graph = &dg;
  tc.name = "tc0";
  const QueryId q0 = eng.add_query(std::move(pr));
  const QueryId q1 = eng.add_query(std::move(pc));
  const QueryId q2 = eng.add_query(std::move(tc));
  eng.launch(q0);
  eng.launch(q1);
  eng.launch(q2);
  m.run();
  EXPECT_TRUE(eng.done(q0) && eng.done(q1) && eng.done(q2));
  EXPECT_EQ(eng.collect(q0).rounds, 0u);
  EXPECT_EQ(eng.collect(q1).count, 0u);
  EXPECT_EQ(eng.collect(q2).count, 0u);
}

TEST(ServeQueries, SpecValidationRejectsBadInput) {
  Machine m(MachineConfig::scaled(1));
  Graph g = rmat(6, {}, 3);
  DeviceGraph dg = upload_graph(m, g);
  auto& eng = QueryEngine::install(m);
  QuerySpec s;
  s.graph = nullptr;
  EXPECT_THROW(eng.add_query(s), std::invalid_argument);
  s.graph = &dg;
  s.kind = QueryKind::kBfs;
  s.root = g.num_vertices();  // out of range
  EXPECT_THROW(eng.add_query(s), std::invalid_argument);
  s.root = 0;
  s.lanes = {0, static_cast<std::uint32_t>(m.config().total_lanes()) + 1};
  EXPECT_THROW(eng.add_query(s), std::invalid_argument);

  // A split upload serves PageRank only: every other kernel reads vertex
  // ids, not owners and accumulator slots.
  const DeviceGraph split = upload_split_graph(m, split_vertices(g, 4));
  ASSERT_GT(split.num_vertices, split.num_original);
  const auto rejects_split = [&](QueryKind k) {
    QuerySpec q;
    q.kind = k;
    q.graph = &split;
    try {
      eng.add_query(q);
    } catch (const std::invalid_argument& e) {
      return std::string(e.what()).find("unsplit") != std::string::npos;
    }
    return false;
  };
  for (const QueryKind k : {QueryKind::kBfs, QueryKind::kPathCount, QueryKind::kTriangles,
                            QueryKind::kIncPageRank, QueryKind::kIncBfs})
    EXPECT_TRUE(rejects_split(k)) << kind_name(k);
  EXPECT_FALSE(rejects_split(QueryKind::kPageRank));
}

// ---------------------------------------------------------------------------
// Concurrent jobs: disjoint key-spaces, per-job quiescence, isolation.
// ---------------------------------------------------------------------------

/// Upload a per-query graph copy confined to one node partition and build a
/// spec whose lanes and value arrays live on the same nodes — the isolation
/// recipe under which concurrent results must be bit-identical to solo runs.
struct Tenant {
  Graph g;
  DeviceGraph dg;
  QuerySpec spec;
};

/// `split_degree` > 0 uploads the graph vertex-split to that maximum degree.
Tenant make_tenant(Machine& m, QueryKind kind, Graph graph, std::uint32_t first_node,
                   std::uint32_t nr_nodes, const std::string& name,
                   std::uint64_t split_degree = 0) {
  Tenant t{std::move(graph), {}, {}};
  const GraphPlacement place{first_node, nr_nodes, 32 * 1024};
  t.dg = split_degree ? upload_split_graph(m, split_vertices(t.g, split_degree), place)
                      : upload_graph(m, t.g, place);
  const auto lanes_per_node =
      static_cast<std::uint32_t>(m.config().total_lanes() / m.config().nodes);
  t.spec.kind = kind;
  t.spec.lanes = {first_node * lanes_per_node, nr_nodes * lanes_per_node};
  t.spec.values = place;
  t.spec.name = name;
  if (kind == QueryKind::kBfs) t.spec.root = 1;
  if (kind == QueryKind::kPageRank) t.spec.iterations = 2;
  return t;
}

TEST(ServeConcurrent, DisjointPartitionsMatchOraclesAndOverlap) {
  Machine m(MachineConfig::scaled(4));
  auto& eng = QueryEngine::install(m);
  Tenant a = make_tenant(m, QueryKind::kPageRank, rmat(8, {}, 41), 0, 1, "A.pr");
  Tenant b = make_tenant(m, QueryKind::kBfs, rmat(8, {.symmetrize = true}, 42), 1, 1, "B.bfs");
  Tenant c = make_tenant(m, QueryKind::kTriangles, rmat(7, {.symmetrize = true}, 43), 2, 1, "C.tc");
  Tenant d = make_tenant(m, QueryKind::kPathCount, rmat(7, {}, 44), 3, 1, "D.pc");
  a.spec.graph = &a.dg;
  b.spec.graph = &b.dg;
  c.spec.graph = &c.dg;
  d.spec.graph = &d.dg;
  const QueryId qa = eng.add_query(a.spec);
  const QueryId qb = eng.add_query(b.spec);
  const QueryId qc = eng.add_query(c.spec);
  const QueryId qd = eng.add_query(d.spec);
  for (QueryId q : {qa, qb, qc, qd}) eng.launch(q);
  m.run();
  for (QueryId q : {qa, qb, qc, qd}) EXPECT_TRUE(eng.done(q));

  const auto pr_oracle = baseline::pagerank(a.g, 2);
  const QueryResult ra = eng.collect(qa);
  for (VertexId v = 0; v < a.g.num_vertices(); ++v)
    EXPECT_NEAR(ra.rank[v], pr_oracle[v], 1e-9);
  const auto bfs_oracle = baseline::bfs(b.g, 1);
  const QueryResult rb = eng.collect(qb);
  for (VertexId v = 0; v < b.g.num_vertices(); ++v)
    EXPECT_EQ(rb.dist[v], bfs_oracle.dist[v]);
  EXPECT_EQ(eng.collect(qc).count, baseline::triangle_count(c.g));
  EXPECT_EQ(eng.collect(qd).count, cpu_path_count(d.g));

  // True multi-tenancy: every query's [launch, done] window overlaps every
  // other's — they ran simultaneously, not serialized.
  const QueryResult rc = eng.collect(qc);
  const QueryResult rd = eng.collect(qd);
  const QueryResult* all[] = {&ra, &rb, &rc, &rd};
  for (const QueryResult* x : all)
    for (const QueryResult* y : all) {
      EXPECT_LT(x->launch_tick, y->done_tick);
    }
}

/// One shard/check configuration of the bit-identity experiment: build the
/// SAME machine and queries, launch `launch_both ? both : only the first`,
/// and fingerprint query A.
struct SoloVsShared {
  Tick done = 0;
  std::vector<double> rank;
  std::uint64_t emitted = 0;
};

/// g plus an edge each way between vertex 0 and every other vertex.
Graph with_hub(const Graph& g) {
  std::vector<Edge> es;
  for (VertexId u = 0; u < g.num_vertices(); ++u)
    for (const VertexId v : g.neighbors_of(u)) es.emplace_back(u, v);
  for (VertexId v = 1; v < g.num_vertices(); ++v) es.emplace_back(0, v);
  return Graph::from_edges(g.num_vertices(), std::move(es), /*symmetrize=*/true);
}

SoloVsShared run_partitioned(std::uint32_t shards, bool check, bool launch_both,
                             bool split = false) {
  EnvGuard g1("UD_SHARDS", std::to_string(shards).c_str());
  EnvGuard g2("UD_CHECK", check ? "1" : "0");
  Machine m(MachineConfig::scaled(4));
  auto& eng = QueryEngine::install(m);
  Tenant a = make_tenant(m, QueryKind::kPageRank, rmat(8, {}, 41), 0, 2, "A.pr",
                         split ? 8 : 0);
  // B's hub expands in chunks, which must stay on B's lanes.
  Tenant b = make_tenant(m, QueryKind::kBfs, with_hub(rmat(9, {.symmetrize = true}, 42)), 2,
                         2, "B.bfs");
  a.spec.graph = &a.dg;
  b.spec.graph = &b.dg;
  const QueryId qa = eng.add_query(a.spec);
  const QueryId qb = eng.add_query(b.spec);
  eng.launch(qa);
  if (launch_both) eng.launch(qb);
  m.run();
  EXPECT_TRUE(eng.done(qa));
  if (check) {
    EXPECT_TRUE(m.stats().check.enabled);
    EXPECT_EQ(m.stats().check.errors(), 0u);
  }
  const QueryResult r = eng.collect(qa);
  return {r.done_tick, r.rank, r.emitted};
}

TEST(ServeConcurrent, PartitionedJobIsBitIdenticalToRunningAlone) {
  // The acceptance property: with per-job graph copies, value arrays, and
  // lane partitions confined to disjoint node sets, a job's results AND its
  // per-job completion tick are bit-identical whether or not another job is
  // resident — for any shard count, checked or not, on an unsplit or a
  // vertex-split PageRank graph.
  for (const bool split : {false, true}) {
    const SoloVsShared solo = run_partitioned(1, false, false, split);
    ASSERT_FALSE(solo.rank.empty());
    for (std::uint32_t shards : {1u, 2u, 4u}) {
      for (bool check : {false, true}) {
        const SoloVsShared shared = run_partitioned(shards, check, true, split);
        EXPECT_EQ(shared.done, solo.done)
            << "shards=" << shards << " check=" << check << " split=" << split;
        EXPECT_EQ(shared.emitted, solo.emitted);
        ASSERT_EQ(shared.rank.size(), solo.rank.size());
        for (std::size_t v = 0; v < solo.rank.size(); ++v)
          EXPECT_EQ(std::bit_cast<Word>(shared.rank[v]), std::bit_cast<Word>(solo.rank[v]))
              << "vertex " << v << " shards=" << shards << " check=" << check
              << " split=" << split;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Scheduler policy: admission, QoS, cancellation, diagnostics.
// ---------------------------------------------------------------------------

QuerySpec quick_pr(const DeviceGraph& dg, const std::string& name, std::uint32_t iters = 2) {
  QuerySpec s;
  s.kind = QueryKind::kPageRank;
  s.graph = &dg;
  s.iterations = iters;
  s.name = name;
  return s;
}

TEST(ServeScheduler, AdmissionQueueOverflowRejects) {
  Machine m(MachineConfig::scaled(2));
  auto& eng = QueryEngine::install(m);
  Graph g = rmat(7, {}, 9);
  DeviceGraph dg = upload_graph(m, g);
  SchedOptions opt;
  opt.max_concurrent = 1;
  opt.max_queue = 1;
  Scheduler sched(eng, opt);
  const TicketId t0 = sched.submit(quick_pr(dg, "q0"), QoS::kNormal, 0);
  const TicketId t1 = sched.submit(quick_pr(dg, "q1"), QoS::kNormal, 0);
  const TicketId t2 = sched.submit(quick_pr(dg, "q2"), QoS::kNormal, 0);
  sched.drain();
  EXPECT_EQ(sched.ticket(t0).status, TicketStatus::kDone);
  EXPECT_EQ(sched.ticket(t1).status, TicketStatus::kDone);
  EXPECT_EQ(sched.ticket(t2).status, TicketStatus::kRejected);
  EXPECT_EQ(sched.rejected(), 1u);
  // The queued ticket waited for the running one.
  EXPECT_GE(sched.ticket(t1).queue_wait(), 1u);
  EXPECT_GE(sched.ticket(t1).dispatch, sched.ticket(t0).done);
}

TEST(ServeScheduler, HighQosLeapfrogsLowQosBacklog) {
  Machine m(MachineConfig::scaled(2));
  auto& eng = QueryEngine::install(m);
  Graph g = rmat(7, {}, 9);
  DeviceGraph dg = upload_graph(m, g);
  SchedOptions opt;
  opt.max_concurrent = 1;
  opt.max_queue = 16;
  Scheduler sched(eng, opt);
  // A low-QoS flood arrives first; the high-QoS query arrives last but must
  // dispatch as soon as the running slot frees — bounding its latency by one
  // low job, not the whole backlog.
  const TicketId l0 = sched.submit(quick_pr(dg, "low0"), QoS::kLow, 0);
  std::vector<TicketId> lows;
  for (int i = 1; i <= 4; ++i)
    lows.push_back(sched.submit(quick_pr(dg, "low" + std::to_string(i)), QoS::kLow, 0));
  const TicketId hi = sched.submit(quick_pr(dg, "hi"), QoS::kHigh, 10);
  sched.drain();
  EXPECT_EQ(sched.ticket(hi).status, TicketStatus::kDone);
  EXPECT_GE(sched.ticket(hi).dispatch, sched.ticket(l0).done);
  for (TicketId l : lows) {
    EXPECT_EQ(sched.ticket(l).status, TicketStatus::kDone);
    EXPECT_GT(sched.ticket(l).dispatch, sched.ticket(hi).done)
        << "low ticket dispatched before the high-QoS one finished";
  }
}

TEST(ServeScheduler, AgingUnstarvesBatchTierUnderSaturatedHighQos) {
  // PR 9 follow-up: with strict (qos, arrival) order, a continuously-arriving
  // high-QoS stream holds the single slot forever and the batch ticket never
  // dispatches until the stream dries up. With aging_quantum set, the batch
  // ticket's effective class improves as it waits (ties break by arrival, so
  // the aged early arrival beats fresher high-QoS tickets) and it dispatches
  // in the middle of the stream.
  const auto run = [](Tick quantum) {
    Machine m(MachineConfig::scaled(2));
    auto& eng = QueryEngine::install(m);
    Graph g = rmat(7, {}, 9);
    DeviceGraph dg = upload_graph(m, g);
    SchedOptions opt;
    opt.max_concurrent = 1;
    opt.max_queue = 32;
    opt.aging_quantum = quantum;
    Scheduler sched(eng, opt);
    // The first high is submitted before the batch ticket so it wins the
    // free slot at tick 0; the rest of the stream keeps the slot contested.
    std::vector<TicketId> highs;
    highs.push_back(sched.submit(quick_pr(dg, "hi0"), QoS::kHigh, 0));
    const TicketId batch = sched.submit(quick_pr(dg, "batch"), QoS::kLow, 0);
    for (int i = 1; i < 6; ++i)
      highs.push_back(sched.submit(quick_pr(dg, "hi" + std::to_string(i)),
                                   QoS::kHigh, static_cast<Tick>(i) * 1000));
    sched.drain();
    EXPECT_EQ(sched.ticket(batch).status, TicketStatus::kDone);
    for (const TicketId h : highs) EXPECT_EQ(sched.ticket(h).status, TicketStatus::kDone);
    return std::pair{sched.ticket(batch).dispatch, sched.ticket(highs.back()).dispatch};
  };
  // Aging off (the default): the whole high backlog dispatches first —
  // starvation, and exactly the pre-aging schedule.
  const auto [starved, last_high_off] = run(0);
  EXPECT_GT(starved, last_high_off);
  // Aging on: the batch ticket is promoted a class per quantum waited and
  // leapfrogs the remaining highs well before the stream ends.
  const auto [aged, last_high_on] = run(2000);
  EXPECT_LT(aged, last_high_on);
}

TEST(ServeScheduler, MidFlightCancellationDrainsCleanUnderCheck) {
  EnvGuard g1("UD_CHECK", "1");
  EnvGuard g2("UD_SHARDS", "1");
  Machine m(MachineConfig::scaled(2));
  auto& eng = QueryEngine::install(m);
  Graph g = rmat(8, {}, 17);
  DeviceGraph dg = upload_graph(m, g);
  Scheduler sched(eng, {.max_concurrent = 2, .max_queue = 4});
  // Many sweeps, cancelled long before they can finish.
  const TicketId t = sched.submit(quick_pr(dg, "longpr", 64), QoS::kNormal, 0);
  const TicketId bystander = sched.submit(quick_pr(dg, "short", 1), QoS::kNormal, 0);
  sched.request_cancel(t, 20000);
  sched.drain();
  EXPECT_EQ(sched.ticket(t).status, TicketStatus::kCancelled);
  EXPECT_EQ(sched.ticket(bystander).status, TicketStatus::kDone);
  const QueryResult r = eng.collect(sched.ticket(t).query);
  EXPECT_TRUE(r.cancelled);
  EXPECT_LT(r.rounds, 64u);  // truncated well short of the requested sweeps
  // Drain-to-cancel means a clean machine: no leaked threads, no unfired
  // continuations, no races — and nothing left in flight.
  EXPECT_TRUE(m.idle());
  EXPECT_TRUE(m.stats().check.enabled);
  EXPECT_EQ(m.stats().check.errors(), 0u);
}

// A BFS is one diffusing KVMSR job, so a cancel lands mid-traversal: its
// reduces stop spawning expands and the job drains through the stamped
// one-wave termination test. The cancelled ticket must finish before the same BFS
// run to the end, report cancelled, and leave no live thread or checker
// error behind.
TEST(ServeScheduler, MidTraversalBfsCancelDrainsCleanUnderCheck) {
  EnvGuard g1("UD_CHECK", "1");
  Graph g = rmat(11, {.symmetrize = true}, 23);
  const auto run = [&](Tick cancel_at) {
    Machine m(MachineConfig::scaled(2));
    auto& eng = QueryEngine::install(m);
    DeviceGraph dg = upload_graph(m, g);
    Scheduler sched(eng, {.max_concurrent = 1, .max_queue = 1});
    QuerySpec s;
    s.kind = QueryKind::kBfs;
    s.graph = &dg;
    s.root = 1;
    s.name = "bfs";
    const TicketId t = sched.submit(s, QoS::kNormal, 0);
    if (cancel_at) sched.request_cancel(t, cancel_at);
    sched.drain();
    EXPECT_TRUE(m.idle());
    EXPECT_EQ(m.stats().threads_created, m.stats().threads_destroyed);
    EXPECT_TRUE(m.stats().check.enabled);
    EXPECT_EQ(m.stats().check.errors(), 0u);
    return std::pair{sched.ticket(t).status, eng.collect(sched.ticket(t).query)};
  };
  const auto [full_status, full] = run(0);
  ASSERT_EQ(full_status, TicketStatus::kDone);
  EXPECT_FALSE(full.cancelled);
  EXPECT_EQ(full.dist, baseline::bfs(g, 1).dist);
  const auto [status, cut] = run(full.launch_tick + full.duration() / 3);
  EXPECT_EQ(status, TicketStatus::kCancelled);
  EXPECT_TRUE(cut.cancelled);
  EXPECT_LT(cut.done_tick, full.done_tick);
  EXPECT_LT(cut.emitted, full.emitted);
}

// A drain session pauses the engine with run_until at every host-attention
// point, where the checker skips its drain report. Staggered PageRank, BFS
// and path-count tickets, one timed cancel and one marker mutation (which
// holds the later tickets out of dispatch until its not_before tick) must
// resolve the same at any shard count, with and without checking: statuses,
// dispatch and done ticks, the mutation's apply tick, results and the
// machine's event, message and DRAM counts. The engine tests the pause
// predicate only at lookahead-window boundaries, which the events alone
// decide, so no pause point moves with UD_SHARDS. Checked runs use the
// serial engine at any requested shard count, and must come back clean.
struct SessionRun {
  std::vector<TicketStatus> status;
  std::vector<Tick> dispatch, done;
  Tick applied = 0;                       ///< the mutation's apply tick
  std::vector<std::vector<Word>> answer;  ///< per ticket: scalars, then arrays
  std::uint64_t events = 0, messages = 0, dram_reads = 0, dram_writes = 0;
  bool operator==(const SessionRun&) const = default;
};

SessionRun run_session(const char* shards, bool check) {
  EnvGuard g1("UD_SHARDS", shards);
  EnvGuard g2("UD_CHECK", check ? "1" : "0");
  Machine m(MachineConfig::scaled(4));
  auto& eng = QueryEngine::install(m);
  Graph gd = rmat(7, {}, 5);
  Graph gs = rmat(7, {.symmetrize = true}, 13);
  DeviceGraph dd = upload_graph(m, gd);
  DeviceGraph ds = upload_graph(m, gs);
  Scheduler sched(eng, {.max_concurrent = 2, .max_queue = 8});
  QuerySpec bfs;
  bfs.kind = QueryKind::kBfs;
  bfs.graph = &ds;
  bfs.root = 1;
  bfs.name = "bfs";
  QuerySpec pc;
  pc.kind = QueryKind::kPathCount;
  pc.graph = &dd;
  pc.name = "pc";
  std::vector<TicketId> ts;
  ts.push_back(sched.submit(quick_pr(dd, "pr"), QoS::kNormal, 0));
  ts.push_back(sched.submit(bfs, QoS::kNormal, 3000));
  ts.push_back(sched.submit(pc, QoS::kHigh, 6000));
  Mutation marker;  // no device phase, no apply: it only gates and pauses
  marker.arrival = 7500;
  marker.not_before = 50000;
  const MutationId mu = sched.add_mutation(std::move(marker));
  const TicketId longpr = sched.submit(quick_pr(dd, "longpr", 64), QoS::kLow, 9000);
  ts.push_back(longpr);
  bfs.root = 2;
  ts.push_back(sched.submit(bfs, QoS::kNormal, 12000));
  sched.request_cancel(longpr, 60000);
  sched.drain();

  EXPECT_TRUE(m.idle());
  if (check) {
    EXPECT_EQ(m.shards(), 1u);
    EXPECT_TRUE(m.stats().check.enabled);
    EXPECT_EQ(m.stats().check.errors(), 0u);
  } else {
    EXPECT_EQ(m.shards(), std::min<std::uint32_t>(std::stoul(shards), m.config().nodes));
  }
  EXPECT_TRUE(sched.mutation_applied(mu));
  SessionRun out;
  out.applied = sched.mutation_applied_tick(mu);
  for (const TicketId t : ts) {
    const Ticket& tk = sched.ticket(t);
    out.status.push_back(tk.status);
    out.dispatch.push_back(tk.dispatch);
    out.done.push_back(tk.done);
    std::vector<Word> a;
    if (tk.dispatched) {
      const QueryResult r = eng.collect(tk.query);
      a = {r.done_tick, r.rounds, r.emitted, r.count, r.cancelled ? 1u : 0u};
      for (const double x : r.rank) a.push_back(std::bit_cast<Word>(x));
      a.insert(a.end(), r.dist.begin(), r.dist.end());
      a.insert(a.end(), r.parent.begin(), r.parent.end());
    }
    out.answer.push_back(std::move(a));
  }
  const MachineStats& st = m.stats();
  out.events = st.events_executed;
  out.messages = st.messages_sent;
  out.dram_reads = st.dram_reads;
  out.dram_writes = st.dram_writes;
  return out;
}

TEST(ServeScheduler, DrainSessionIdenticalAtAnyShardCountCheckedOrNot) {
  const SessionRun plain = run_session("1", false);
  ASSERT_EQ(plain.status.size(), 5u);
  EXPECT_EQ(plain.status[3], TicketStatus::kCancelled);  // the timed cancel
  for (const std::size_t i : {0u, 1u, 2u, 4u})
    EXPECT_EQ(plain.status[i], TicketStatus::kDone) << "ticket " << i;
  // The mutation held the two later tickets until its not_before tick, which
  // came after the three earlier tickets had finished.
  EXPECT_GE(plain.applied, 50000u);
  for (const std::size_t i : {0u, 1u, 2u}) EXPECT_LT(plain.done[i], plain.applied);
  for (const std::size_t i : {3u, 4u}) EXPECT_GE(plain.dispatch[i], plain.applied);
  // UD_SHARDS=8 clamps to the machine's 4 nodes.
  for (const char* shards : {"2", "4", "8"})
    EXPECT_EQ(run_session(shards, false), plain) << "UD_SHARDS=" << shards;
  EXPECT_EQ(run_session("1", true), plain);
  EXPECT_EQ(run_session("4", true), plain);
}

TEST(ServeScheduler, CancelBeforeArrivalAndWhileQueued) {
  Machine m(MachineConfig::scaled(2));
  auto& eng = QueryEngine::install(m);
  Graph g = rmat(7, {}, 9);
  DeviceGraph dg = upload_graph(m, g);
  Scheduler sched(eng, {.max_concurrent = 1, .max_queue = 4});
  const TicketId running = sched.submit(quick_pr(dg, "run"), QoS::kNormal, 0);
  const TicketId queued = sched.submit(quick_pr(dg, "queued"), QoS::kNormal, 0);
  const TicketId never = sched.submit(quick_pr(dg, "never"), QoS::kNormal, 1u << 20);
  sched.request_cancel(queued, 100);
  sched.request_cancel(never, 50);  // cancelled before it ever arrives
  sched.drain();
  EXPECT_EQ(sched.ticket(running).status, TicketStatus::kDone);
  EXPECT_EQ(sched.ticket(queued).status, TicketStatus::kCancelled);
  EXPECT_FALSE(sched.ticket(queued).dispatched);
  EXPECT_EQ(sched.ticket(never).status, TicketStatus::kCancelled);
}

TEST(ServeScheduler, PartitionModeConfinesInterleavedQueries) {
  Machine m(MachineConfig::scaled(4));
  auto& eng = QueryEngine::install(m);
  Graph g = rmat(7, {}, 9);
  DeviceGraph dg = upload_graph(m, g);
  SchedOptions opt;
  opt.max_concurrent = 4;
  opt.partition_lanes = true;
  Scheduler sched(eng, opt);
  std::vector<TicketId> ts;
  for (int i = 0; i < 4; ++i)
    ts.push_back(sched.submit(quick_pr(dg, "p" + std::to_string(i), 1), QoS::kNormal, 0));
  sched.drain();
  const auto per = static_cast<std::uint32_t>(m.config().total_lanes() / 4);
  for (int i = 0; i < 4; ++i) {
    const Ticket& tk = sched.ticket(ts[static_cast<std::size_t>(i)]);
    EXPECT_EQ(tk.status, TicketStatus::kDone);
    const kvmsr::LaneSet ls = eng.lanes(tk.query);
    EXPECT_EQ(ls.count, per);
    EXPECT_EQ(ls.first % per, 0u);
  }
  // All four ran concurrently in their slots.
  for (const TicketId x : ts)
    for (const TicketId y : ts)
      EXPECT_LT(sched.ticket(x).dispatch, sched.ticket(y).done);
}

TEST(ServeScheduler, PerTicketStatsAreWindowCounters) {
  Machine m(MachineConfig::scaled(2));
  auto& eng = QueryEngine::install(m);
  Graph g = rmat(7, {}, 9);
  DeviceGraph dg = upload_graph(m, g);
  Scheduler sched(eng, {.max_concurrent = 1, .max_queue = 4});
  const TicketId t0 = sched.submit(quick_pr(dg, "s0"), QoS::kNormal, 0);
  const TicketId t1 = sched.submit(quick_pr(dg, "s1"), QoS::kNormal, 0);
  sched.drain();
  // Serialized by the single slot, each window captures its own job's events;
  // both must have executed a meaningful number and the sum cannot exceed
  // the machine total.
  const auto& s0 = sched.ticket(t0).stats;
  const auto& s1 = sched.ticket(t1).stats;
  EXPECT_GT(s0.events_executed, 100u);
  EXPECT_GT(s1.events_executed, 100u);
  EXPECT_LE(s0.events_executed + s1.events_executed, m.stats().events_executed);
  EXPECT_GT(s0.messages_sent, 0u);
  EXPECT_GT(s1.dram_reads, 0u);
}

TEST(ServeScheduler, OffersLoadInArrivalOrderAcrossTime) {
  // Arrivals spread over simulated time: the scheduler must idle-jump to
  // each arrival tick (timer events), and latency = done - ARRIVAL even when
  // the machine sat idle before the query arrived.
  Machine m(MachineConfig::scaled(2));
  auto& eng = QueryEngine::install(m);
  Graph g = rmat(7, {}, 9);
  DeviceGraph dg = upload_graph(m, g);
  Scheduler sched(eng, {.max_concurrent = 2, .max_queue = 4});
  const TicketId t0 = sched.submit(quick_pr(dg, "a0", 1), QoS::kNormal, 1000);
  const TicketId t1 = sched.submit(quick_pr(dg, "a1", 1), QoS::kNormal, 500000);
  sched.drain();
  EXPECT_EQ(sched.ticket(t0).status, TicketStatus::kDone);
  EXPECT_EQ(sched.ticket(t1).status, TicketStatus::kDone);
  EXPECT_GE(sched.ticket(t0).dispatch, 1000u);
  EXPECT_GE(sched.ticket(t1).dispatch, 500000u);
  EXPECT_GT(sched.ticket(t1).dispatch, sched.ticket(t0).done);
  // No queueing beyond the host->lane timer delivery latency.
  EXPECT_LE(sched.ticket(t1).queue_wait(), 100u);
}

// ---------------------------------------------------------------------------
// run_to_completion exclusivity diagnostic.
// ---------------------------------------------------------------------------

TEST(ServeScheduler, RunToCompletionRefusesWhileOtherJobsResident) {
  Machine m(MachineConfig::scaled(1));
  auto& eng = QueryEngine::install(m);
  auto& lib = eng.kvmsr_lib();
  Graph g = rmat(7, {}, 9);
  DeviceGraph dg = upload_graph(m, g);
  QuerySpec a = quick_pr(dg, "resident", 8);
  QuerySpec b = quick_pr(dg, "latecomer", 1);
  const QueryId qa = eng.add_query(a);
  eng.add_query(b);
  eng.launch(qa);
  // Park the machine with query A's job mid-flight.
  const bool stopped = m.run_until([&] { return lib.any_running(); });
  ASSERT_TRUE(stopped);
  // Find an idle job to drive single-tenant style — the engine's second
  // query registered one. run_to_completion must refuse: a global drain
  // would steal query A's quiescence.
  kvmsr::JobId idle_job = 0;
  bool found = false;
  for (kvmsr::JobId j = 0; j < static_cast<kvmsr::JobId>(lib.num_jobs()); ++j)
    if (!lib.state(j).running) {
      idle_job = j;
      found = true;
      break;
    }
  ASSERT_TRUE(found);
#ifdef NDEBUG
  EXPECT_THROW(lib.run_to_completion(idle_job, 0, 1), std::runtime_error);
#else
  EXPECT_DEATH(lib.run_to_completion(idle_job, 0, 1), "another job is resident");
#endif
  // The machine is still resumable: finish query A normally.
  m.run();
  EXPECT_TRUE(eng.done(qa));
}

}  // namespace
}  // namespace updown::serve
