// Lane state in struct-of-arrays form. A lane is one of the machine's 2 GHz
// MIMD compute engines: it executes one event at a time (events are atomic),
// owns a table of thread contexts and a scratchpad memory, and tracks its
// busy time for utilization and load-balance statistics.
//
// The paper's machine is 16,384 nodes x 2,048 lanes (~33M lanes); an engine
// that eagerly heap-allocates a zero-filled scratchpad plus context tables
// per lane cannot be constructed at that scale. The LaneTable therefore
// splits lane state by temperature:
//
//   - Hot, always-present words live in flat arrays indexed by NetworkId:
//     free_at (next tick the lane can start an event), send_seq (the
//     sender-private counter behind the deterministic (tick, src, seq)
//     queue order), and sp_brk (the scratchpad bump pointer). A configured
//     but idle lane costs these few words plus one null pointer.
//
//   - Cold, bulky state (thread-context table, stats, the scratchpad
//     backing store) lives in a LaneCore that is materialized on first
//     touch — and, within a core, the scratchpad backing is deferred
//     further until the first actual scratchpad access (sp_alloc alone is
//     bookkeeping), because most lanes that run threads never touch their
//     scratchpad: KVMSR keeps its per-lane counters in host-side arrays
//     (charged as scratchpad accesses), and only handlers that call Ctx's
//     scratchpad intrinsics ever materialize a backing.
//
// First-touch materialization: under the sharded engine a core is
// allocated by the owning shard's host thread, so the backing pages land
// where the OS placed that thread when it first touched them.
//
// `Lane` is a cheap value handle (table pointer + lane id + cached core
// pointer) with the same method surface the old fat object had; Machine
// hands them out by value.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "sim/stats.hpp"
#include "udweave/thread.hpp"

namespace updown {

/// The cold per-lane block, materialized on first touch (thread allocation,
/// stats write, or scratchpad access). See LaneTable.
struct LaneCore {
  std::vector<std::unique_ptr<ThreadState>> threads;
  std::vector<ThreadId> free_tids;
  std::uint32_t live_threads = 0;
  /// Scratchpad backing store; empty until the first scratchpad access
  /// (sp_alloc alone never allocates it — the bump pointer lives in the
  /// LaneTable and checks against the configured capacity).
  std::vector<std::uint8_t> scratchpad;
  LaneStats stats;
};

/// Terminated thread states, one free list per thread class, recycled by
/// the next thread of that class on any lane. The engine keeps one pool per
/// shard, so a pool is only touched by the host thread that owns its lanes;
/// a handful of states per class serves a whole shard, where per-lane caches
/// would each keep their own.
class StatePool {
 public:
  /// A state for `def`'s thread class: a recycled one, reconstructed in
  /// place (value-identical to a fresh factory() call), or a new one.
  std::unique_ptr<ThreadState> take(const EventDef& def) {
    if (def.type_id < free_.size() && !free_[def.type_id].empty()) {
      std::unique_ptr<ThreadState> st = std::move(free_[def.type_id].back());
      free_[def.type_id].pop_back();
      def.reinit(*st);
      st->ud_class_id = def.type_id;
      return st;
    }
    return def.factory();
  }

  void give(std::unique_ptr<ThreadState> st) {
    if (!st) return;
    const std::uint32_t cls = st->ud_class_id;
    if (cls >= free_.size()) free_.resize(cls + 1);
    free_[cls].push_back(std::move(st));
  }

 private:
  std::vector<std::vector<std::unique_ptr<ThreadState>>> free_;  ///< by class id
};

/// Machine-wide lane storage: hot per-lane words in flat arrays, cold blocks
/// behind lazily-filled pointers.
class LaneTable {
 public:
  LaneTable(std::uint64_t nlanes, std::uint32_t max_threads, std::uint64_t scratchpad_bytes)
      : free_at(nlanes, 0),
        send_seq(nlanes, 0),
        sp_brk(nlanes, 0),
        max_threads_(max_threads),
        scratchpad_bytes_(scratchpad_bytes),
        cores_(nlanes) {}

  // Hot flat arrays, indexed by NetworkId. free_at: next tick the lane can
  // start an event. send_seq: sender-private counter stamped into every queue
  // entry this lane originates — with the nwid it forms the deterministic
  // (tick, src, seq) tie-break (see sim/event_queue.hpp). sp_brk: scratchpad
  // bump-allocator break.
  std::vector<Tick> free_at;
  std::vector<std::uint32_t> send_seq;
  std::vector<std::uint64_t> sp_brk;

  std::uint64_t size() const { return cores_.size(); }
  std::uint32_t max_threads() const { return max_threads_; }
  std::uint64_t scratchpad_bytes() const { return scratchpad_bytes_; }

  /// The lane's core if materialized, else nullptr (read-only paths:
  /// lane_stats, laziness tests).
  const LaneCore* core_if(NetworkId id) const { return cores_[id].get(); }

  /// The lane's core, materialized now if this is the first touch. Called
  /// only from the shard that owns the lane's node (or from the host while
  /// the engine is idle), so no two threads ever race on one slot.
  LaneCore& core(NetworkId id) {
    std::unique_ptr<LaneCore>& slot = cores_[id];
    if (!slot) slot = std::make_unique<LaneCore>();
    return *slot;
  }

  /// Scratchpad backing of lane `id`, zero-filled on first access.
  std::uint8_t* scratchpad(NetworkId id) {
    LaneCore& c = core(id);
    if (c.scratchpad.size() < scratchpad_bytes_) c.scratchpad.assign(scratchpad_bytes_, 0);
    return c.scratchpad.data();
  }

  std::uint64_t materialized_cores() const {
    std::uint64_t n = 0;
    for (const auto& p : cores_)
      if (p) ++n;
    return n;
  }

  /// Force every core and scratchpad into existence — the old eager layout,
  /// kept for the bench that demonstrates the lazy layout's memory win.
  void materialize_all() {
    for (NetworkId id = 0; id < cores_.size(); ++id) scratchpad(id);
  }

 private:
  std::uint32_t max_threads_;
  std::uint64_t scratchpad_bytes_;
  std::vector<std::unique_ptr<LaneCore>> cores_;
};

/// Value handle over one LaneTable row; the engine and Ctx pass these around
/// where a `Lane&` used to flow. Copies are cheap (two words + a cached core
/// pointer).
class Lane {
 public:
  Lane(LaneTable& table, NetworkId id) : t_(&table), id_(id) {}

  NetworkId id() const { return id_; }

  // ---- Hot words (flat-array backed) ----------------------------------------
  Tick free_at() const { return t_->free_at[id_]; }
  void set_free_at(Tick t) { t_->free_at[id_] = t; }
  /// Post-increment this lane's sender-private send counter.
  std::uint32_t next_seq() { return t_->send_seq[id_]++; }

  LaneStats& stats() { return core().stats; }

  // ---- Thread contexts ------------------------------------------------------
  ThreadId allocate_thread(std::unique_ptr<ThreadState> state) {
    LaneCore& c = core();
    const ThreadId tid = acquire_tid(c);
    c.threads[tid] = std::move(state);
    ++c.live_threads;
    return tid;
  }

  ThreadState& thread(ThreadId tid) {
    LaneCore& c = core();
    if (tid >= c.threads.size() || !c.threads[tid])
      throw std::runtime_error("event addressed a dead thread context");
    return *c.threads[tid];
  }

  /// True while `tid` names a live thread context (no-throw lookup).
  bool alive(ThreadId tid) const {
    const LaneCore* c = t_->core_if(id_);
    return c && tid < c->threads.size() && c->threads[tid] != nullptr;
  }

  /// Free `tid` and hand its state back (the engine recycles it through its
  /// shard's StatePool).
  std::unique_ptr<ThreadState> deallocate_thread(ThreadId tid) {
    LaneCore& c = core();
#ifndef NDEBUG
    // Hot path: Release builds index unchecked (the engine only deallocates
    // tids it allocated); Debug keeps the out-of-range throw.
    if (tid >= c.threads.size())
      throw std::out_of_range("Lane::deallocate_thread: thread id beyond context table");
#endif
    std::unique_ptr<ThreadState> st = std::move(c.threads[tid]);
    c.free_tids.push_back(tid);
    --c.live_threads;
    return st;
  }

  std::uint32_t live_threads() const {
    const LaneCore* c = t_->core_if(id_);
    return c ? c->live_threads : 0;
  }

  // ---- Scratchpad (lane-private; paper: 64 lanes can pool within an
  // accelerator, pooling is done in software via messages) -------------------
  std::uint8_t* scratchpad() { return t_->scratchpad(id_); }
  std::uint64_t scratchpad_bytes() const { return t_->scratchpad_bytes(); }

  /// spMalloc: bump allocation in the lane scratchpad. Pure bookkeeping
  /// against the configured capacity — the backing store is not touched (it
  /// materializes at the first sp_read/sp_write/scratch).
  std::uint64_t sp_alloc(std::uint64_t bytes, std::uint64_t align = 8) {
    std::uint64_t& brk = t_->sp_brk[id_];
    const std::uint64_t off = (brk + align - 1) & ~(align - 1);
    if (off + bytes > t_->scratchpad_bytes())
      throw std::runtime_error("spMalloc: lane scratchpad exhausted (lane " +
                               std::to_string(id_) + ")");
    brk = off + bytes;
    return off;
  }
  std::uint64_t sp_mark() const { return t_->sp_brk[id_]; }
  void sp_release(std::uint64_t mark) {
#ifndef NDEBUG
    // A mark above the current break is stale (taken before allocations that
    // were already released past it, or from another lane): restoring it
    // would silently "un-free" later allocations.
    if (mark > t_->sp_brk[id_])
      throw std::logic_error("sp_release: mark is above the current break (stale mark)");
#endif
    t_->sp_brk[id_] = mark;
  }

 private:
  LaneCore& core() {
    if (!core_) core_ = &t_->core(id_);
    return *core_;
  }

  ThreadId acquire_tid(LaneCore& c) {
    if (!c.free_tids.empty()) {
      const ThreadId tid = c.free_tids.back();
      c.free_tids.pop_back();
      return tid;
    }
    if (c.threads.size() >= t_->max_threads())
      throw std::runtime_error("lane out of thread contexts");
    c.threads.emplace_back();
    return static_cast<ThreadId>(c.threads.size() - 1);
  }

  LaneTable* t_;
  NetworkId id_;
  LaneCore* core_ = nullptr;  ///< cached after the first cold-state touch
};

}  // namespace updown
