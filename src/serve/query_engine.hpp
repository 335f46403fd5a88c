// Query kernels for job serving: the one home of this repo's PageRank, BFS,
// triangle-count and path-count kernels.
//
// A query is a self-contained KVMSR job bundle with per-query device arrays,
// a per-query device-side driver thread, and a host-visible completion flag,
// so any number of them can be resident at once, each on its own lane
// partition (or interleaved over the whole machine) with its own value
// placement (the paper's fig12 `nr_nodes`-style knob). The single-tenant
// apps pr::App, bfs::App and tc::App are thin wrappers that submit one query
// on all lanes; binding, split-vertex slots and placement are query inputs,
// so one kernel serves every machine size and every tier.
//
// Per-query quiescence: a query is done when its driver thread sets
// Query::finished — the predicate handed to Machine::run_until. Nothing here
// waits for global drain; the host scheduler (serve/scheduler.hpp) resumes
// the engine while other queries stay in flight.
//
// Query kinds:
//   kPageRank  — push PageRank (paper Section 4.1), `iterations` synchronous
//                sweeps: a propagate job with f64 combining plus an apply job
//                per sweep, chained by the driver. The only kind that also
//                runs on a split graph (upload_split_graph): the map pushes
//                the owner's rank over its slice of the owner's edges, and
//                the apply sums each vertex's accumulator slots. Kernel in
//                serve/pagerank.cpp.
//   kBfs       — push BFS from `root` (paper Section 4.2) as one diffusing
//                KVMSR job: a reduce that lowers a level expands the vertex
//                at once, with no per-level rounds; levels and parents land
//                in the query's own {level, parent} array. Kernel in
//                serve/bfs.cpp.
//   kPathCount — 2-hop path count (#{(a,b,c): a->b->c}), the PartialMatch
//                stand-in: a two-edge pattern-matching query in one
//                map+reduce pass (cf. apps/partial_match).
//   kTriangles — triangle count (paper Section 4.3): pair-enumeration map,
//                stream-intersect reduce. Kernel in serve/triangles.cpp.
//   kIncPageRank — incremental PageRank refresh over a streaming ResidentState
//                (src/stream/): re-ranks only the delta-affected frontier, one
//                pull sweep per round against the resident rank history, each
//                round's affected set expanded host-side by the driver. Writes
//                land in the SAME rank_hist arrays a from-scratch pull sweep
//                would produce, so results are bit-equal to full recomputation.
//   kIncBfs    — the kBfs kernel on the session's resident {level, parent}
//                array: seeded from delta-touched sources, it lowers levels
//                until no vertex improves. With Seeds::kAll it recomputes the
//                array from the root, which warms the resident state.
//
// Results are value-deterministic for a fixed machine at any shard count;
// queries whose lane partition, graph copy, and value arrays are confined to a
// disjoint node partition are bit-identical to running alone (asserted in
// tests/serve/).
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "graph/layout.hpp"
#include "kvmsr/combining_cache.hpp"
#include "kvmsr/kvmsr.hpp"
#include "sim/machine.hpp"

namespace updown::serve {

using QueryId = std::uint32_t;

enum class QueryKind : std::uint8_t {
  kPageRank,
  kBfs,
  kPathCount,
  kTriangles,
  kIncPageRank,
  kIncBfs,
};

const char* kind_name(QueryKind k);

/// Device + host state an incremental query refreshes in place, owned by the
/// streaming session (stream::StreamEngine) and outliving any single query.
/// The serve layer takes it by pointer so serve/ does not depend on stream/.
struct ResidentState {
  const DeviceGraph* fwd = nullptr;  ///< post-epoch forward upload
  const DeviceGraph* rev = nullptr;  ///< post-epoch reverse upload
  const Graph* csr = nullptr;        ///< host mirror of fwd (affected-set expansion)
  /// PageRank rank history: rank_hist[k] = device f64 array of ranks after
  /// sweep k. Sweep k of a refresh reads rank_hist[k-1] (k==0 reads the
  /// uniform 1/n inline), so a partial re-rank reproduces the from-scratch
  /// Jacobi values bit-for-bit.
  std::vector<Addr> rank_hist;
  /// BFS {level, parent} pair per vertex (device), placed like fwd's vertex
  /// array (alloc_vertex_pairs).
  Addr bfs_base = 0;
  /// Lane-owned mirror of the levels in bfs_base: dist[w] is read and
  /// written only on w's owner lane (the refresh job's reduce lane for w).
  std::vector<Word> dist;
  /// Dirty sets accumulated at compaction, consumed by the next refresh query
  /// with Seeds::kPending: pr_dirty = vertices whose in-edges or in-neighbor
  /// outdegrees changed; bfs_dirty = finite-dist sources with new out-edges.
  std::vector<VertexId> pr_dirty;
  std::vector<VertexId> bfs_dirty;
};

struct QuerySpec {
  QueryKind kind = QueryKind::kPageRank;
  /// Device graph the query reads (resident shared copy, or a per-query
  /// partition-local copy when bit-exact isolation is required). Must be an
  /// unsplit upload, except for kPageRank, which also takes a split one.
  const DeviceGraph* graph = nullptr;
  /// Lane partition the query's KVMSR jobs, driver, and reducers run on.
  /// count 0 = interleaved over the whole machine.
  kvmsr::LaneSet lanes;
  /// Computation binding of the query's main map job (PageRank propagate,
  /// triangle pairs, ...); the paper compares Block and PBMW.
  kvmsr::MapBinding map_binding = kvmsr::MapBinding::kBlock;
  /// Placement of the query's own value arrays (rank and count cells, the
  /// kBfs {level, parent} array) — the fig12 placement knob. nr_nodes 0 =
  /// spread over the whole machine; a kBfs array then sits beside the
  /// graph's vertex records (alloc_vertex_pairs).
  GraphPlacement values;
  std::uint32_t iterations = 2;  ///< PageRank sweeps (0 = no-op query)
  double damping = 0.85;         ///< PageRank damping factor
  VertexId root = 0;             ///< BFS root
  /// kIncPageRank / kIncBfs only: the streaming session state the query
  /// refreshes. When set and `graph` is null, the engine fills graph from it
  /// (rev for kIncPageRank, fwd for kIncBfs). `iterations` must equal
  /// rank_hist.size() for kIncPageRank.
  ResidentState* resident = nullptr;
  /// Incremental seed policy. kPending consumes (moves and clears) the
  /// resident dirty set at add_query — so register the refresh query AFTER
  /// the epoch's compaction has run. kAll seeds every vertex (kIncPageRank)
  /// or just `root` with dist reset (kIncBfs) — the warm-up / full-recompute
  /// mode.
  enum class Seeds : std::uint8_t { kPending, kAll };
  Seeds seeds = Seeds::kPending;
  /// Query name; keep unique per query — it prefixes the KVMSR job names, so
  /// udtrace phase spans and diagnostics attribute work to this query.
  std::string name = "query";
};

struct QueryResult {
  Tick launch_tick = 0;
  Tick done_tick = 0;
  std::uint64_t rounds = 0;   ///< PR sweeps run / BFS levels reached / 1
  std::uint64_t emitted = 0;  ///< shuffle tuples over all of the query's jobs
  std::uint64_t count = 0;    ///< kPathCount paths / kTriangles triangles
  bool cancelled = false;     ///< drained early via cancel()
  std::vector<double> rank;   ///< kPageRank, per original vertex
  std::vector<Word> dist;     ///< kBfs / kIncBfs levels (kInfDist = unreachable)
  std::vector<Word> parent;   ///< kBfs / kIncBfs tree (kNoParent = unreachable)

  Tick duration() const { return done_tick - launch_tick; }
};

class QueryEngine {
 public:
  /// Register the engine (and its KVMSR/CombiningCache dependencies) on `m`.
  /// Call once, before Machine::run.
  static QueryEngine& install(Machine& m);

  explicit QueryEngine(Machine& m);

  /// Register a query: allocates its device arrays (per QuerySpec::values)
  /// and its KVMSR jobs. Does not launch.
  QueryId add_query(QuerySpec spec);

  /// Inject the query's driver start from the host, departing at simulated
  /// tick max(at, now). Host-side only (engine paused).
  void launch(QueryId q, Tick at = 0);

  bool launched(QueryId q) const { return queries_.at(q)->launched; }
  /// Host-visible completion flag — the run_until predicate for this query.
  bool done(QueryId q) const { return queries_.at(q)->finished; }

  /// Drain-to-cancel: the query stops starting new rounds (a BFS stops
  /// spawning expands), its in-flight KVMSR launch forfeits unissued map
  /// tasks (Library::request_cancel), and the driver finishes through the
  /// normal termination path — no leaked threads, udcheck-clean. Host-side
  /// only.
  void cancel(QueryId q);

  /// Read back results; valid once done(q). kIncPageRank / kIncBfs results
  /// are read from the LIVE resident arrays the query refreshed — collect
  /// them before a later epoch's refresh overwrites that state.
  QueryResult collect(QueryId q) const;

  /// Completion tick / cancellation flag without the array copies of
  /// collect(); valid once done(q).
  Tick done_tick(QueryId q) const { return queries_.at(q)->done_tick; }
  bool was_cancelled(QueryId q) const { return queries_.at(q)->cancel; }

  const QuerySpec& spec(QueryId q) const { return queries_.at(q)->spec; }
  /// Resolved lane partition of the query.
  kvmsr::LaneSet lanes(QueryId q) const;
  std::size_t num_queries() const { return queries_.size(); }

  /// Name of the LAUNCHED-and-unfinished query whose lane partition contains
  /// `lane`, or "" — the checker's leak-attribution annotator. Partition
  /// queries only (interleaved queries own no lane exclusively).
  std::string owner_of_lane(NetworkId lane) const;

  Machine& machine() { return m_; }
  kvmsr::Library& kvmsr_lib() { return *lib_; }

  // ---- Host-timer support for the scheduler ---------------------------------
  /// A `tick_label` event carrying {tick} publishes that tick to tick_seen()
  /// and terminates. The scheduler injects one per host-attention time
  /// (arrival, timed cancel) so a run_until predicate can stop the engine at
  /// a simulated time without peeking at mid-run engine state.
  EventLabel tick_label() const { return tick_; }
  Tick tick_seen() const {
    return static_cast<Tick>(tick_seen_.load(std::memory_order_acquire));
  }

 private:
  friend struct SqTick;
  friend struct SqDriver;
  friend struct SqPrMap;
  friend struct SqPrReduce;
  friend struct SqPrApply;
  friend struct SqPcMap;
  friend struct SqPcReduce;
  friend struct SqTcMap;
  friend struct SqTcReduce;
  friend struct SqIprMap;
  friend struct SqBfsExpand;
  friend struct SqBfsReduce;

  static constexpr QueryId kNoQuery = ~QueryId{0};

  struct Query {
    QuerySpec spec;
    QueryId id = 0;
    kvmsr::JobId job = 0;        ///< propagate / round / single-pass job
    kvmsr::JobId apply_job = 0;  ///< kPageRank only
    kvmsr::LaneSet rlanes;       ///< spec.lanes with count 0 resolved
    // Per-query device arrays.
    Addr rank_base = 0;   ///< PR ranks (f64 per original vertex)
    Addr acc_base = 0;    ///< PR accumulators (f64 per vertex / split slot)
    Addr cells_base = 0;  ///< PC/TC per-partition-lane count cells
    // BFS: the {level, parent} device array and the lane-owned level mirror
    // (the kBfs query's own, or the resident ones a kIncBfs query repairs),
    // and queued[w] (an expand of w is pending), lane-owned scratchpad state
    // modeled host-side on w's owner lane.
    Addr bfs_base = 0;
    std::vector<Word>* dist = nullptr;
    std::vector<Word> own_dist;  ///< kBfs: the storage behind `dist`
    std::vector<std::uint8_t> queued;
    // BFS sender filter: each lane of rlanes keeps kHeardSlots senders its
    // reduces heard from, direct-mapped by a hash of the sender, each with a
    // level the sender has reached (256 B of the lane's scratchpad, modeled
    // host-side like `queued`). Empty, so off, unless the graph has at most
    // kHeardSlots edges per lane; released when the query finishes.
    struct Heard {
      std::uint32_t vertex = 0;
      std::uint32_t level = ~0u;  ///< ~0u: an empty slot, which filters nothing
    };
    static constexpr std::uint32_t kHeardSlots = 32;
    std::vector<Heard> heard;
    Heard& heard_slot(NetworkId lane, Word u) {
      // The top 5 bits of a multiplicative hash pick one of the 32 slots:
      // RMAT's hubs have power-of-two ids, which `u % 32` puts in one slot.
      static_assert(kHeardSlots == 32);
      return heard[std::size_t{lane - rlanes.first} * kHeardSlots +
                   ((u * 0x9e3779b97f4a7c15ULL) >> 59)];
    }
    // kIncPageRank affected flags, plus the same set as a compact ascending
    // list. The sweep job launches keys [0, alist.size()) and maps key ->
    // alist[key], so a sweep's KVMSR cost scales with the affected set, not
    // num_vertices. `joining` is the driver's expansion scratch. A BFS job
    // maps its seeds the same way.
    std::vector<char> visited;
    std::vector<char> joining;
    std::vector<VertexId> alist;
    std::uint64_t seeded = 0;  ///< kIncPageRank: initial affected-set size
    // Driver-owned progress (host-visible once published at a pause point).
    std::uint64_t round = 0;
    std::uint64_t emitted = 0;
    Tick launch_tick = 0;
    Tick done_tick = 0;
    bool launched = false;
    bool finished = false;
    bool cancel = false;  ///< host set; read by drivers and BFS reduces
  };

  /// Handlers run once per event: a vector index, no hash lookup.
  Query& query_of_job(kvmsr::JobId j) {
    assert(j < job2query_.size() && job2query_[j] != kNoQuery);
    return *queries_[job2query_[j]];
  }
  void bind_job(kvmsr::JobId j, QueryId q);
  Addr place(const QuerySpec& spec, std::uint64_t bytes);
  /// Kernel label registration, defined next to each kernel.
  void register_pagerank(Program& p);   // serve/pagerank.cpp
  void register_triangles(Program& p);  // serve/triangles.cpp
  void register_bfs(Program& p);        // serve/bfs.cpp
  /// kBfs / kIncBfs setup: result arrays, queued flags and seeds.
  void add_bfs(Query& q, bool from_root);  // serve/bfs.cpp

  Machine& m_;
  kvmsr::Library* lib_ = nullptr;
  kvmsr::CombiningCache* cc_ = nullptr;
  std::vector<std::unique_ptr<Query>> queries_;
  std::vector<QueryId> job2query_;  ///< JobId -> QueryId (kNoQuery: not ours)

  // Event labels (registered once; per-query state rides in job ids).
  EventLabel d_start_ = 0;
  EventLabel tick_ = 0;
  std::atomic<std::uint64_t> tick_seen_{0};  ///< max fired tick time
  struct Labels {
    EventLabel d_pr_prop_done = 0;
    EventLabel d_pr_apply_done = 0;
    EventLabel d_pass_done = 0;  ///< kPathCount / kTriangles / BFS single job
    EventLabel d_ipr_round_done = 0;
    EventLabel pr_map = 0;
    EventLabel pr_reduce = 0;
    EventLabel pr_apply = 0;
    EventLabel pr_rec = 0;
    EventLabel pr_rank = 0;
    EventLabel pr_nbrs = 0;
    EventLabel pr_acc = 0;
    EventLabel pr_slots = 0;
    EventLabel pr_slot_acc = 0;
    EventLabel pr_written = 0;
    EventLabel pc_map = 0;
    EventLabel pc_reduce = 0;
    EventLabel pc_rec = 0;
    EventLabel pc_nbrs = 0;
    EventLabel pc_deg = 0;
    EventLabel tc_map = 0;
    EventLabel tc_reduce = 0;
    EventLabel tc_rec = 0;
    EventLabel tc_nbrs = 0;
    EventLabel tc_rrec = 0;
    EventLabel tc_xchunk = 0;
    EventLabel tc_ychunk = 0;
    EventLabel ipr_map = 0;
    EventLabel ipr_rrec = 0;
    EventLabel ipr_ids = 0;
    EventLabel ipr_deg = 0;
    EventLabel ipr_rank = 0;
    EventLabel ipr_written = 0;
    EventLabel bfs_seed = 0;
    EventLabel bfs_expand = 0;
    EventLabel bfs_chunk = 0;
    EventLabel bfs_rec = 0;
    EventLabel bfs_nbrs = 0;
    EventLabel bfs_chunk_done = 0;
    EventLabel bfs_reduce = 0;
    EventLabel bfs_settled = 0;
  } lb_;
};

// ---- CPU oracles (host-side, for tests/benches) -----------------------------

/// #{(a,b,c) : a->b and b->c} = sum_a sum_{b in N(a)} outdeg(b) — the
/// kPathCount ground truth.
std::uint64_t cpu_path_count(const Graph& g);

}  // namespace updown::serve
