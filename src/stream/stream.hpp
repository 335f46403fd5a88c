// Streaming graph session (ROADMAP item 3): a DeltaGraph wrapping the
// resident CSR, a TFORM/KVMSR ingestion front-end that parses edge-record
// streams into staged delta batches while queries run, and incremental
// analytics (kIncPageRank / kIncBfs) that refresh resident device arrays
// after each compaction epoch.
//
// Lifecycle:
//   1. install(m, base)  — upload forward + reverse CSR, allocate the
//      resident rank history and BFS {level, parent} array.
//   2. warm()            — full PageRank + BFS populate the resident state.
//   3. per delta batch: ingest_async() launches a KVMSR parse job (device
//      path) or stage() appends host-side; compact() merges every ingested
//      batch into fresh CSR arrays at an epoch boundary, patches the device
//      graphs, and accumulates the dirty sets; refresh() re-runs only the
//      delta-affected frontier.
//   4. submit() packages steps 3 as a serve::Scheduler Mutation: ingestion
//      starts at the batch's arrival tick, compaction applies at the next
//      UD_STREAM_EPOCH boundary once the engine is quiescent, and queries
//      arriving after the batch are held until it applies.
//
// Determinism: compaction is a pure function of the staged edge set
// (DeltaGraph), incremental PageRank is a map-only pull kernel (no shuffle
// FP ordering), and incremental BFS relaxes monotonically — so results and
// completion ticks are bit-identical across UD_SHARDS / UD_CHECK and across
// delta-before/after orderings of unrelated partition-confined jobs
// (asserted in tests/stream/).
//
// Epoch garbage: patching a touched vertex allocates a fresh neighbor-list
// slice and drops the old one — the simulator has no free(), so superseded
// slices are leaked by design, bounded by (touched edges) per epoch.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/delta.hpp"
#include "graph/layout.hpp"
#include "serve/query_engine.hpp"
#include "serve/scheduler.hpp"
#include "tform/fst.hpp"
#include "tform/stream_gen.hpp"

namespace updown::stream {

struct StreamOptions {
  std::uint32_t pr_iterations = 2;  ///< resident rank-history depth
  double damping = 0.85;
  VertexId bfs_root = 0;
  /// Lane partition for ingest jobs and refresh queries (count 0 = whole
  /// machine).
  kvmsr::LaneSet lanes;
  /// Placement of the session's graphs, record buffers, and value arrays —
  /// partition-confined placement keeps the session bit-independent of
  /// unrelated jobs on other nodes.
  GraphPlacement values;
  std::uint64_t block_bytes = 1000;   ///< ingest parse-block size (UD_STREAM_BLOCK)
  std::uint32_t coalesce_tuples = 1;  ///< forwarded to ingest shuffle
  /// Compaction tick grid (UD_STREAM_EPOCH): a submitted batch becomes
  /// visible at the next multiple of `epoch` at/after its arrival. 0 =
  /// apply as soon as the engine is quiescent.
  Tick epoch = 0;

  /// Defaults overridden by UD_STREAM_EPOCH / UD_STREAM_BLOCK.
  static StreamOptions from_env();
};

struct RefreshResult {
  serve::QueryResult pr;
  serve::QueryResult bfs;
};

class StreamEngine {
 public:
  /// Register the session on `m`. One session per machine — throws if one
  /// is already installed.
  static StreamEngine& install(Machine& m, Graph base,
                               StreamOptions opt = StreamOptions::from_env());
  StreamEngine(Machine& m, Graph base, StreamOptions opt);

  DeltaGraph& graph() { return dg_; }
  serve::ResidentState& resident() { return rs_; }
  const StreamOptions& options() const { return opt_; }
  kvmsr::LaneSet lanes() const { return rlanes_; }
  Tick last_epoch_tick() const { return last_epoch_tick_; }

  /// Full PageRank + BFS (Seeds::kAll) populating the resident state. Runs
  /// the machine to quiescence — call with nothing else in flight.
  RefreshResult warm();

  /// Host-direct staging of a delta batch (no device ingestion): the unit
  /// path for tests and benches. Returns the batch id.
  std::uint64_t stage(const std::vector<tform::EdgeRecord>& recs);

  /// Device-path ingestion: encode `recs` as 64-byte records in global
  /// memory and launch the TFORM/KVMSR parse job departing at tick
  /// max(at, now). Parsed edges land in per-lane staging buffers, drained
  /// into the overlay at compact(). Returns the batch id; does NOT run the
  /// machine.
  std::uint64_t ingest_async(const std::vector<tform::EdgeRecord>& recs, Tick at);

  /// Device-side ingestion of `batch` has completed (vacuously true for
  /// host-direct batches). Host-side only.
  bool ingested(std::uint64_t batch) const;

  /// Epoch boundary: drain every ingested batch's staging into the overlay,
  /// merge into fresh forward/reverse CSRs, patch the device graphs, and
  /// accumulate the incremental dirty sets. Host-side only; the engine must
  /// be quiescent. `visible_at` stamps last_epoch_tick().
  DeltaGraph::CompactionResult compact(Tick visible_at);

  /// Incremental PageRank + BFS over the pending dirty sets (Seeds::
  /// kPending). Runs the machine to quiescence — call with nothing else in
  /// flight; under a scheduler, submit the specs as queries instead.
  RefreshResult refresh();

  // Query specs bound to this session's resident state, for submission to a
  // QueryEngine or serve::Scheduler. Names are unique per call.
  serve::QuerySpec inc_pagerank_spec();
  serve::QuerySpec inc_bfs_spec();
  serve::QuerySpec full_pagerank_spec();
  serve::QuerySpec full_bfs_spec();

  /// Package a delta batch as a scheduler Mutation: device ingestion starts
  /// at `arrival`, compaction applies at the next epoch boundary (see
  /// StreamOptions::epoch) once quiescent. Queries submitted with arrival
  /// >= `arrival` dispatch only after the batch is visible.
  serve::MutationId submit(serve::Scheduler& sched,
                           std::vector<tform::EdgeRecord> recs, Tick arrival);

  std::uint64_t num_batches() const { return batches_.size(); }

 private:
  friend struct StIngestSource;
  friend struct StIngestReduce;

  struct Batch {
    kvmsr::JobId job = 0;
    Addr data_base = 0;
    std::uint64_t data_bytes = 0;
    std::uint64_t blocks = 0;
    bool device = false;   ///< went through ingest_async
    bool drained = false;  ///< staging moved into the overlay
    /// Reduce-side staging, one buffer per partition lane: lane handlers
    /// are serialized per lane, so appends never race.
    std::vector<std::vector<Edge>> per_lane;
  };

  Addr place(std::uint64_t bytes);
  serve::QuerySpec base_spec(serve::QueryKind k, const char* nm);
  void run_query(serve::QuerySpec spec, serve::QueryResult& out);
  void refresh_device(const DeltaGraph::CompactionResult& cr);

  Machine& m_;
  kvmsr::Library* lib_ = nullptr;
  serve::QueryEngine* qe_ = nullptr;
  StreamOptions opt_;
  DeltaGraph dg_;
  kvmsr::LaneSet rlanes_;  ///< opt_.lanes with count 0 resolved
  DeviceGraph fwd_;
  DeviceGraph rev_;
  serve::ResidentState rs_;
  std::vector<Batch> batches_;  ///< index == DeltaGraph batch id
  std::uint64_t queries_ = 0;   ///< unique query-name counter
  Tick last_epoch_tick_ = 0;
  struct Labels {
    EventLabel kv_map = 0;
    EventLabel m_chunk = 0;
    EventLabel kv_reduce = 0;
  } lb_;
};

}  // namespace updown::stream
