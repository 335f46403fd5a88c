#include "apps/bfs.hpp"

#include <algorithm>
#include <stdexcept>

namespace updown::bfs {

// ---------------------------------------------------------------------------
// Scan: the kv_map task of a BFS round, one key per lane. Reads this lane's
// slice of the current frontier and spawns one expand task per frontier
// vertex (all on this lane).
// ---------------------------------------------------------------------------
struct BfsScan : kvmsr::MapTask {
  Word job = 0;
  std::uint32_t count = 0;
  std::uint32_t spawned = 0;
  std::uint32_t expands_done = 0;

  void kv_map(Ctx& ctx) {
    kvmsr_begin(ctx);
    auto& app = ctx.machine().user<App>();
    job = kvmsr::Library::map_job(ctx);
    ctx.charge(1);  // scratchpad slice-count load
    count = app.cur_count_[ctx.nwid()];
    if (count == 0) {
      app.lib_->map_return(ctx, kvmsr_cont);
      return;
    }
    const Addr slice = app.slice_addr(app.cur_buf_, ctx.nwid());
    for (std::uint32_t i = 0; i < count; i += 8) {
      const unsigned n = std::min<std::uint32_t>(8, count - i);
      ctx.charge(2);
      ctx.send_dram_read(slice + i * 8, n, app.lb_.s_slice_loaded);
    }
  }

  void s_slice_loaded(Ctx& ctx) {
    auto& app = ctx.machine().user<App>();
    for (unsigned i = 0; i < ctx.nops(); ++i) {
      ctx.charge(1);
      ctx.send_event(ctx.evw_new(ctx.nwid(), app.expand_start_), {ctx.op(i), job},
                     ctx.evw_update_event(ctx.cevnt(), app.lb_.s_expand_done));
      ++spawned;
    }
    maybe_finish(ctx);
  }

  void s_expand_done(Ctx& ctx) {
    ++expands_done;
    maybe_finish(ctx);
  }

 private:
  void maybe_finish(Ctx& ctx) {
    if (spawned == count && expands_done == count)
      ctx.machine().user<App>().lib_->map_return(ctx, kvmsr_cont);
  }
};

// ---------------------------------------------------------------------------
// Expand one frontier vertex: read its record, stream its neighbor list, and
// emit <neighbor, dist, parent> tuples into the intermediate map.
// ---------------------------------------------------------------------------
struct BfsExpand : ThreadState {
  /// Above this degree an expand fans chunk subtasks out to other lanes: the
  /// equivalent of the artifact's max-degree-4096 split for BFS, realized as
  /// dynamic parallelism instead of a preprocessing transform. Without it a
  /// hub's emit loop serializes one lane for tens of thousands of cycles.
  static constexpr Word kSplitDegree = 256;

  Word u = 0, job = 0;
  Word degree = 0;
  Word loaded = 0;
  Word chunks_pending = 0;
  Word done_cont = IGNRCONT;

  void e_start(Ctx& ctx) {
    auto& app = ctx.machine().user<App>();
    u = ctx.op(0);
    job = ctx.op(1);
    done_cont = ctx.ccont();
    ctx.send_dram_read(app.dg_.vertex_addr(u), 8, app.lb_.e_rec_loaded);
  }

  void e_rec_loaded(Ctx& ctx) {
    auto& app = ctx.machine().user<App>();
    degree = ctx.op(DeviceGraph::kDegree);
    const Word nbr_ptr = ctx.op(DeviceGraph::kNbrPtr);
    ctx.charge(2);
    if (degree == 0) {
      ctx.send_event(done_cont, {});
      ctx.yield_terminate();
      return;
    }
    if (degree > kSplitDegree) {
      // Fan the adjacency list out in kSplitDegree chunks, striped across the
      // machine's lanes; each chunk task streams and emits from its own lane.
      const std::uint64_t lanes = ctx.machine().config().total_lanes();
      Word i = 0;
      for (Word off = 0; off < degree; off += kSplitDegree, ++i) {
        const Word len = std::min<Word>(kSplitDegree, degree - off);
        const NetworkId lane = static_cast<NetworkId>((ctx.nwid() + 1 + i * 97) % lanes);
        ctx.charge(2);
        ctx.send_event(ctx.evw_new(lane, app.expand_chunk_), {nbr_ptr + off * 8, len, u, job},
                       ctx.evw_update_event(ctx.cevnt(), app.lb_.e_chunk_done));
        ++chunks_pending;
      }
      return;
    }
    for (Word i = 0; i < degree; i += 8) {
      const unsigned n = static_cast<unsigned>(std::min<Word>(8, degree - i));
      ctx.charge(2);
      ctx.send_dram_read(nbr_ptr + i * 8, n, app.lb_.e_nbrs_loaded);
    }
  }

  void e_nbrs_loaded(Ctx& ctx) {
    auto& app = ctx.machine().user<App>();
    for (unsigned i = 0; i < ctx.nops(); ++i) {
      ctx.charge(1);
      app.lib_->emit2(ctx, static_cast<kvmsr::JobId>(job), ctx.op(i), app.round_ + 1, u);
    }
    loaded += ctx.nops();
    if (loaded == degree) {
      // This explorer is the only emitter the runtime sees retire on this
      // lane; ship its partial buffers now instead of at the next poll.
      app.lib_->flush_hint(ctx, static_cast<kvmsr::JobId>(job));
      ctx.send_event(done_cont, {});
      ctx.yield_terminate();
    }
  }

  void e_chunk_done(Ctx& ctx) {
    if (--chunks_pending == 0) {
      ctx.send_event(done_cont, {});
      ctx.yield_terminate();
    }
  }
};

/// One chunk of a fanned-out hub expansion: stream <= kSplitDegree neighbors
/// from this lane and emit them.
struct BfsExpandChunk : ThreadState {
  Word base = 0, len = 0, u = 0, job = 0;
  Word loaded = 0;
  Word done_cont = IGNRCONT;

  void c_start(Ctx& ctx) {
    auto& app = ctx.machine().user<App>();
    base = ctx.op(0);
    len = ctx.op(1);
    u = ctx.op(2);
    job = ctx.op(3);
    done_cont = ctx.ccont();
    for (Word i = 0; i < len; i += 8) {
      const unsigned n = static_cast<unsigned>(std::min<Word>(8, len - i));
      ctx.charge(2);
      ctx.send_dram_read(base + i * 8, n, app.lb_.c_nbrs_loaded);
    }
  }

  void c_nbrs_loaded(Ctx& ctx) {
    auto& app = ctx.machine().user<App>();
    for (unsigned i = 0; i < ctx.nops(); ++i) {
      ctx.charge(1);
      app.lib_->emit2(ctx, static_cast<kvmsr::JobId>(job), ctx.op(i), app.round_ + 1, u);
    }
    loaded += ctx.nops();
    if (loaded == len) {
      app.lib_->flush_hint(ctx, static_cast<kvmsr::JobId>(job));
      ctx.send_event(done_cont, {});
      ctx.yield_terminate();
    }
  }
};

// ---------------------------------------------------------------------------
// Reduce: hash-bound test-and-set + frontier append. Writes are acked so the
// next round cannot observe a partially written slice or record.
// ---------------------------------------------------------------------------
struct BfsReduce : ThreadState {
  Word job = 0;
  unsigned acks = 0;

  void kv_reduce(Ctx& ctx) {
    auto& app = ctx.machine().user<App>();
    auto& lib = *app.lib_;
    job = kvmsr::Library::reduce_job(ctx);
    const Word v = kvmsr::Library::reduce_key(ctx);
    const Word dist = kvmsr::Library::reduce_val(ctx, 0);
    const Word parent = kvmsr::Library::reduce_val(ctx, 1);

    ctx.charge(2);  // scratchpad visited-flag test-and-set
    if (app.visited_[v]) {
      lib.reduce_return(ctx, static_cast<kvmsr::JobId>(job));
      return;
    }
    app.visited_[v] = 1;
    app.added_++;
    std::uint32_t& fill = app.nxt_count_[ctx.nwid()];
    if (fill >= app.slice_cap_)
      throw std::runtime_error("bfs: next-frontier slice overflow; raise Options::slice_cap");
    const Addr entry = app.slice_addr(app.cur_buf_ ^ 1, ctx.nwid()) + fill * 8;
    fill++;
    ctx.charge(2);  // slice fill counter update
    ctx.send_dram_write(entry, {v}, app.lb_.r_written);
    const Word dp[2] = {dist, parent};
    ctx.send_dram_writev(app.dg_.field_addr(v, DeviceGraph::kDist), dp, 2,
                         ctx.evw_update_event(ctx.cevnt(), app.lb_.r_written));
  }

  void r_written(Ctx& ctx) {
    if (++acks == 2)
      ctx.machine().user<App>().lib_->reduce_return(ctx, static_cast<kvmsr::JobId>(job));
  }
};

// ---------------------------------------------------------------------------
// Driver: one KVMSR invocation per round, chained by continuation.
// ---------------------------------------------------------------------------
struct BfsDriver : ThreadState {
  void d_start(Ctx& ctx) {
    auto& app = ctx.machine().user<App>();
    app.start_tick_ = ctx.start_time();
    ctx.log("[bfs] BFS Start");
    launch_round(ctx);
  }

  void d_round_done(Ctx& ctx) {
    auto& app = ctx.machine().user<App>();
    ctx.trace_phase_end("bfs.round");
    app.traversed_edges_ += ctx.op(0);
    app.rounds_++;
    ctx.log("[bfs] [Itera %llu]: add queue %llu traversed edges %llu",
            static_cast<unsigned long long>(app.round_),
            static_cast<unsigned long long>(app.added_),
            static_cast<unsigned long long>(ctx.op(0)));
    if (app.added_ == 0) {
      app.done_tick_ = ctx.now();
      app.finished_ = true;
      ctx.log("[bfs] BFS finish");
      ctx.yield_terminate();
      return;
    }
    // Swap frontier roles for the next round.
    std::swap(app.cur_count_, app.nxt_count_);
    std::fill(app.nxt_count_.begin(), app.nxt_count_.end(), 0);
    app.added_ = 0;
    app.cur_buf_ ^= 1;
    app.round_++;
    launch_round(ctx);
  }

 private:
  void launch_round(Ctx& ctx) {
    auto& app = ctx.machine().user<App>();
    // udtrace superstep span: one "bfs.round" per frontier expansion.
    ctx.trace_phase_begin("bfs.round");
    app.lib_->launch(ctx, app.job_, 0, ctx.machine().config().total_lanes(),
                     ctx.evw_update_event(ctx.cevnt(), app.lb_.d_round_done));
  }
};

// ---------------------------------------------------------------------------

App& App::install(Machine& m, const DeviceGraph& dg, const Options& opt) {
  return m.emplace_user<App>(m, dg, opt);
}

App::App(Machine& m, const DeviceGraph& dg, const Options& opt) : m_(m), dg_(dg), opt_(opt) {
  lib_ = &kvmsr::Library::install(m);
  Program& p = m.program();

  lb_.d_round_done = p.event("bfs::d_round_done", &BfsDriver::d_round_done);
  lb_.s_slice_loaded = p.event("bfs::s_slice_loaded", &BfsScan::s_slice_loaded);
  lb_.s_expand_done = p.event("bfs::s_expand_done", &BfsScan::s_expand_done);
  expand_start_ = p.event("bfs::e_start", &BfsExpand::e_start);
  lb_.e_rec_loaded = p.event("bfs::e_rec_loaded", &BfsExpand::e_rec_loaded);
  lb_.e_nbrs_loaded = p.event("bfs::e_nbrs_loaded", &BfsExpand::e_nbrs_loaded);
  lb_.e_chunk_done = p.event("bfs::e_chunk_done", &BfsExpand::e_chunk_done);
  expand_chunk_ = p.event("bfs::c_start", &BfsExpandChunk::c_start);
  lb_.c_nbrs_loaded = p.event("bfs::c_nbrs_loaded", &BfsExpandChunk::c_nbrs_loaded);
  lb_.r_written = p.event("bfs::r_written", &BfsReduce::r_written);
  driver_start_ = p.event("bfs::d_start", &BfsDriver::d_start);

  const std::uint64_t lanes = m.config().total_lanes();
  slice_cap_ = opt.slice_cap;
  if (slice_cap_ == 0) {
    // Headroom over the uniform expectation n/lanes; hash spreads vertices
    // evenly, 8x absorbs the tail at our scales.
    slice_cap_ = std::max<std::uint64_t>(64, next_pow2(8 * dg.num_vertices / lanes + 1));
  }
  slice_cap_ = next_pow2(slice_cap_);

  // Per-node-local frontier: contiguous block per node (the paper's
  // DRAMmalloc(size, 0, NRnodes, size/NRnodes) idiom). The Figure 12 sweep
  // overrides the node count.
  const std::uint32_t fr_nodes =
      opt.frontier_mem_nodes ? opt.frontier_mem_nodes : m.config().nodes;
  const std::uint64_t total = lanes * slice_cap_ * 8;
  for (auto& base : frontier_)
    base = m.memory().dram_malloc(total, 0, fr_nodes, total / fr_nodes);

  cur_count_.assign(lanes, 0);
  nxt_count_.assign(lanes, 0);
  visited_.assign(dg.num_vertices, 0);

  kvmsr::JobSpec spec;
  spec.kv_map = p.event("bfs::kv_map", &BfsScan::kv_map);
  spec.kv_reduce = p.event("bfs::kv_reduce", &BfsReduce::kv_reduce);
  spec.name = "bfs.round";
  job_ = lib_->add_job(spec);

  // Seed the frontier with the root on its hash-owner lane.
  if (opt.root >= dg.num_vertices) throw std::invalid_argument("bfs: root out of range");
  const NetworkId seed_lane = static_cast<NetworkId>(hash64(opt.root) % lanes);
  cur_count_[seed_lane] = 1;
  m.memory().host_store<Word>(slice_addr(0, seed_lane), opt.root);
  visited_[opt.root] = 1;
  m.memory().host_store<Word>(dg_.field_addr(opt.root, DeviceGraph::kDist), 0);
  m.memory().host_store<Word>(dg_.field_addr(opt.root, DeviceGraph::kParent), opt.root);
}

Result App::run() {
  m_.send_from_host(evw::make_new(0, driver_start_), {});
  m_.run();
  if (!finished_) throw std::runtime_error("bfs: driver did not finish");

  Result r;
  r.start_tick = start_tick_;
  r.done_tick = done_tick_;
  r.traversed_edges = traversed_edges_;
  r.rounds = rounds_;
  r.dist.resize(dg_.num_vertices);
  r.parent.resize(dg_.num_vertices);
  for (VertexId v = 0; v < dg_.num_vertices; ++v) {
    r.dist[v] = m_.memory().host_load<Word>(dg_.field_addr(v, DeviceGraph::kDist));
    r.parent[v] = m_.memory().host_load<Word>(dg_.field_addr(v, DeviceGraph::kParent));
  }
  return r;
}

}  // namespace updown::bfs
