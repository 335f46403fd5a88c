#include "apps/bfs.hpp"

#include <stdexcept>

namespace updown::bfs {

App& App::install(Machine& m, const DeviceGraph& dg, const Options& opt) {
  return m.emplace_user<App>(m, dg, opt);
}

App::App(Machine& m, const DeviceGraph& dg, const Options& opt)
    : eng_(serve::QueryEngine::install(m)), dg_(dg) {
  serve::QuerySpec s;
  s.kind = serve::QueryKind::kBfs;
  s.graph = &dg_;
  s.root = opt.root;
  s.values.nr_nodes = opt.result_mem_nodes;
  s.name = "bfs";
  query_ = eng_.add_query(std::move(s));
}

Result App::run() {
  eng_.launch(query_);
  eng_.machine().run();
  if (!eng_.done(query_)) throw std::runtime_error("bfs: driver did not finish");
  serve::QueryResult q = eng_.collect(query_);
  Result r;
  r.dist = std::move(q.dist);
  r.parent = std::move(q.parent);
  // A vertex can be expanded more than once, so the tuples emitted
  // (q.emitted) can exceed the edges the BFS tree traverses.
  GlobalMemory& mem = eng_.machine().memory();
  for (VertexId v = 0; v < r.dist.size(); ++v)
    if (r.dist[v] != kInfDist)
      r.traversed_edges += mem.host_load<Word>(dg_.field_addr(v, DeviceGraph::kDegree));
  r.rounds = q.rounds;
  r.start_tick = q.launch_tick;
  r.done_tick = q.done_tick;
  return r;
}

}  // namespace updown::bfs
