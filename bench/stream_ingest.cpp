// Streaming ingestion + incremental refresh bench (ROADMAP item 3's
// deliverable). A resident session is warmed with a full PageRank + BFS,
// then takes a small delta batch (<= 1% of the edge set) through the
// device-side TFORM/KVMSR parse path, compacts it, and refreshes
// incrementally. The refresh is cross-checked bit-for-bit against the
// from-scratch CPU baselines on the post-delta graph, and its simulated cost
// is compared to a full device-side recomputation of the same state: under
// UD_BENCH_ENFORCE the incremental PageRank must be >= 3x cheaper and the
// incremental BFS >= 2x cheaper.
//
// The incremental pass runs BEFORE the full recomputation so the comparison
// cannot be flattered by re-ranking an already-converged state.
//
// Writes BENCH_stream_ingest.json. All quantities are simulated ticks —
// deterministic for a fixed machine/shard count; wall-clock plays no part.
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "baseline/baseline.hpp"
#include "bench/bench_util.hpp"
#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "stream/stream.hpp"

namespace updown {
namespace {

std::vector<tform::EdgeRecord> make_delta(VertexId n, std::uint64_t count,
                                          std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<tform::EdgeRecord> recs;
  for (std::uint64_t i = 0; i < count; ++i)
    recs.push_back({rng.below(n), rng.below(n), i % 4});
  return recs;
}

Graph apply_delta(const Graph& g, const std::vector<tform::EdgeRecord>& recs) {
  std::vector<Edge> es;
  for (VertexId u = 0; u < g.num_vertices(); ++u)
    for (const VertexId v : g.neighbors_of(u)) es.emplace_back(u, v);
  for (const tform::EdgeRecord& r : recs) es.emplace_back(r.src, r.dst);
  return Graph::from_edges(g.num_vertices(), std::move(es), false);
}

bool bits_equal(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (std::bit_cast<Word>(a[i]) != std::bit_cast<Word>(b[i])) return false;
  return true;
}

}  // namespace
}  // namespace updown

int main() {
  using namespace updown;
  // Sparse ER: the incremental frontier is the K-hop out-neighborhood of
  // the touched vertices, so average degree bounds its growth per sweep.
  const std::uint32_t scale = bench::graph_scale(14);
  const Graph base = erdos_renyi(scale, 4, 7);
  const VertexId n = base.num_vertices();

  Machine m(MachineConfig::scaled(2));
  stream::StreamOptions opt;
  opt.pr_iterations = 2;
  auto& se = stream::StreamEngine::install(m, base, opt);

  // Warm: full PageRank + BFS populate the resident state.
  const stream::RefreshResult warm = se.warm();
  std::printf("warm: full pagerank %llu ticks, full bfs %llu ticks (%llu vertices, %llu edges)\n",
              static_cast<unsigned long long>(warm.pr.duration()),
              static_cast<unsigned long long>(warm.bfs.duration()),
              static_cast<unsigned long long>(n),
              static_cast<unsigned long long>(base.num_edges()));

  // Delta batch: 0.2% of the resident edge set through the device parse path.
  const std::uint64_t nrec = std::max<std::uint64_t>(8, base.num_edges() / 512);
  const auto recs = make_delta(n, nrec, 0x5EED);
  const double delta_pct =
      100.0 * static_cast<double>(nrec) / static_cast<double>(base.num_edges());
  const Tick t0 = m.now();
  const std::uint64_t b = se.ingest_async(recs, t0);
  m.run();
  const Tick ingest_ticks = m.now() - t0;
  if (!se.ingested(b)) {
    std::fprintf(stderr, "FAIL: device ingestion did not complete\n");
    return 1;
  }
  se.compact(m.now());
  const double recs_per_ktick = static_cast<double>(nrec) * 1e3 /
                                static_cast<double>(std::max<Tick>(1, ingest_ticks));
  std::printf("ingest: %llu records (%.2f%% of edges) in %llu ticks — %.2f records/ktick\n",
              static_cast<unsigned long long>(nrec), delta_pct,
              static_cast<unsigned long long>(ingest_ticks), recs_per_ktick);

  // Incremental refresh first, then the full recomputation it is measured
  // against (both device-side, same machine, same resident arrays).
  const stream::RefreshResult inc = se.refresh();
  const Graph post = apply_delta(base, recs);
  const bool pr_exact = bits_equal(inc.pr.rank, baseline::pagerank(post, opt.pr_iterations));
  const bool bfs_exact = inc.bfs.dist == baseline::bfs(post, opt.bfs_root).dist;
  const stream::RefreshResult full = se.warm();

  const double pr_speedup = static_cast<double>(full.pr.duration()) /
                            static_cast<double>(std::max<Tick>(1, inc.pr.duration()));
  const double bfs_speedup = static_cast<double>(full.bfs.duration()) /
                             static_cast<double>(std::max<Tick>(1, inc.bfs.duration()));
  std::printf("refresh: inc pagerank %llu ticks vs full %llu — %.2fx; "
              "inc bfs %llu ticks vs full %llu — %.2fx\n",
              static_cast<unsigned long long>(inc.pr.duration()),
              static_cast<unsigned long long>(full.pr.duration()), pr_speedup,
              static_cast<unsigned long long>(inc.bfs.duration()),
              static_cast<unsigned long long>(full.bfs.duration()), bfs_speedup);
  std::printf("bit-exact vs post-delta baselines: pagerank %s, bfs %s\n",
              pr_exact ? "yes" : "NO", bfs_exact ? "yes" : "NO");

  bench::Json j("BENCH_stream_ingest.json");
  j.str("bench", "stream_ingest");
  j.u64("graph_scale", scale);
  j.u64("vertices", n);
  j.u64("edges", base.num_edges());
  j.u64("delta_records", nrec);
  j.num("delta_pct", delta_pct);
  j.u64("ingest_ticks", ingest_ticks);
  j.num("records_per_ktick", recs_per_ktick);
  j.u64("warm_pagerank_ticks", warm.pr.duration());
  j.u64("warm_bfs_ticks", warm.bfs.duration());
  j.u64("inc_pagerank_ticks", inc.pr.duration());
  j.u64("inc_bfs_ticks", inc.bfs.duration());
  j.u64("full_pagerank_ticks", full.pr.duration());
  j.u64("full_bfs_ticks", full.bfs.duration());
  j.num("pagerank_speedup", pr_speedup);
  j.num("bfs_speedup", bfs_speedup);
  j.boolean("pagerank_bit_exact", pr_exact);
  j.boolean("bfs_bit_exact", bfs_exact);
  j.close();

  // Bit-exactness is the correctness contract — enforced always.
  if (!pr_exact || !bfs_exact) {
    std::fprintf(stderr, "FAIL: incremental refresh diverged from post-delta baselines\n");
    return 1;
  }
  // The cost claim: re-ranking the delta frontier, and repairing levels from
  // the delta's sources, must be materially cheaper than a full recompute
  // for a <= 1% batch.
  if (std::getenv("UD_BENCH_ENFORCE")) {
    if (pr_speedup < 3.0) {
      std::fprintf(stderr,
                   "FAIL: incremental pagerank only %.2fx cheaper than full (floor 3x)\n",
                   pr_speedup);
      return 1;
    }
    if (bfs_speedup < 2.0) {
      std::fprintf(stderr, "FAIL: incremental bfs only %.2fx cheaper than full (floor 2x)\n",
                   bfs_speedup);
      return 1;
    }
  }
  return 0;
}
