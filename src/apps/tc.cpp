#include "apps/tc.hpp"

#include <stdexcept>

namespace updown::tc {

App& App::install(Machine& m, const DeviceGraph& dg, const Options& opt) {
  return m.emplace_user<App>(m, dg, opt);
}

App::App(Machine& m, const DeviceGraph& dg, const Options& opt)
    : eng_(serve::QueryEngine::install(m)), dg_(dg) {
  serve::QuerySpec s;
  s.kind = serve::QueryKind::kTriangles;
  s.graph = &dg_;
  // One count cell per lane, spread over the machine in 4 KiB blocks.
  s.values = {0, 0, 4096};
  s.map_binding = opt.map_binding;
  s.coalesce_tuples = opt.coalesce_tuples;
  s.name = "tc";
  query_ = eng_.add_query(std::move(s));
}

Result App::run() {
  eng_.launch(query_);
  eng_.machine().run();
  if (!eng_.done(query_)) throw std::runtime_error("tc: driver did not finish");
  const serve::QueryResult q = eng_.collect(query_);
  Result r;
  r.triangles = q.count;
  r.pairs = q.emitted;
  r.start_tick = q.launch_tick;
  r.done_tick = q.done_tick;
  return r;
}

}  // namespace updown::tc
