#include "apps/pagerank.hpp"

#include <stdexcept>

namespace updown::pr {

App& App::install(Machine& m, const DeviceGraph& dg, const SplitGraph& sg,
                  const Options& opt) {
  return m.emplace_user<App>(m, dg, sg, opt);
}

App::App(Machine& m, const DeviceGraph& dg, const SplitGraph& sg, const Options& opt)
    : eng_(serve::QueryEngine::install(m)), dg_(dg) {
  if (opt.coalesce_tuples != 1)
    throw std::invalid_argument(
        "pagerank: Options::coalesce_tuples is no longer supported (KVMSR's packed "
        "shuffle was removed; every tuple is one message)");
  if (!dg.split() || dg.num_vertices != sg.num_sub() || dg.num_original != sg.num_original)
    throw std::invalid_argument("pagerank: dg is not the device image of sg");
  serve::QuerySpec s;
  s.kind = serve::QueryKind::kPageRank;
  s.graph = &dg_;
  s.values = opt.value_placement;
  s.map_binding = opt.map_binding;
  s.iterations = opt.iterations;
  s.damping = opt.damping;
  s.name = "pr";
  query_ = eng_.add_query(std::move(s));
}

Result App::run() {
  eng_.launch(query_);
  eng_.machine().run();
  if (!eng_.done(query_)) throw std::runtime_error("pagerank: driver did not finish");
  serve::QueryResult q = eng_.collect(query_);
  Result r;
  r.rank = std::move(q.rank);
  r.start_tick = q.launch_tick;
  r.done_tick = q.done_tick;
  r.edge_updates = q.emitted;
  r.iterations = eng_.spec(query_).iterations;
  return r;
}

}  // namespace updown::pr
