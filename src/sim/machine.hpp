// The UpDown machine: nodes of accelerators of lanes, a global address
// space, and the discrete-event engine that executes UDWeave events.
//
// This is the repository's "Fastsim" equivalent: events are C++ handlers
// that charge cycle costs through the intrinsic API (paper Table 2), while
// DRAM and the network use streamlined latency/bandwidth models — the same
// modeling split the paper describes for Fastsim.
//
// Host-parallel execution (UD_SHARDS / MachineConfig::shards): the engine
// can shard the machine's nodes round-robin across host threads. Each shard
// owns a calendar queue, payload pools, and a stats block, and all shards run
// in lock-step windows one minimum cross-node latency wide — the classic
// conservative-PDES lookahead, which UpDown's node-local event semantics
// provide for free. Cross-shard sends travel through per-(src,dst) mailboxes
// merged at window boundaries. Because every queue entry is ordered by
// (tick, sending entity, sender-private seq) — no globally shared counter —
// the merged schedule is bit-identical for any shard count. The serial
// engine is the same window loop with one shard, run on the caller's thread.
// See DESIGN.md "Host-parallel execution" for the full argument.
// Checked runs (udcheck) always use the serial engine: its analysis state is
// engine-global, so the constructor clamps the shard count to 1.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <stdexcept>
#include <typeinfo>
#include <vector>

#include "common/types.hpp"
#include "mem/global_memory.hpp"
#include "sim/config.hpp"
#include "sim/dram.hpp"
#include "sim/event_queue.hpp"
#include "sim/lane.hpp"
#include "sim/message.hpp"
#include "sim/network.hpp"
#include "sim/stats.hpp"
#include "udweave/thread.hpp"

namespace updown {

class Ctx;
class Checker;
class Tracer;
struct TraceShard;

/// Reusable spin barrier (generation-counting). The window protocol crosses
/// it twice per round; rounds are short (one lookahead window of events), so
/// spinning with a yield fallback beats futex-based synchronization. With one
/// party it returns at once, so a one-shard window costs no synchronization.
class SpinBarrier {
 public:
  explicit SpinBarrier(std::uint32_t n) : n_(n) {}

  /// Set the participant count. Only valid while no thread is waiting.
  void set_parties(std::uint32_t n) { n_ = n; }

  void arrive_and_wait();

 private:
  std::uint32_t n_;
  std::atomic<std::uint32_t> count_{0};
  std::atomic<std::uint32_t> generation_{0};
};

/// Everything one host thread owns when the engine is sharded: the calendar
/// queue, payload pools and thread-state pool for the nodes assigned to it,
/// a stats delta block (folded into Machine::stats_ lazily), outgoing
/// mailboxes (one per destination shard, drained by the destination at the
/// next window boundary), and a private snapshot of the DRAM descriptor
/// table. The serial engine is simply shard 0 used alone.
struct EngineShard {
  /// An event in flight between shards: the queue-entry key (arrival tick,
  /// sending entity, sender seq) plus the payload by value. The destination
  /// re-pools the payload when it merges its inbox.
  struct MailMsg {
    Tick t;
    std::uint32_t ent, seq;
    Message m;
    std::vector<Word> bulk;  ///< bulk payload by value (m.bulk is re-pooled
                             ///< by the destination shard at merge time)
  };
  struct MailDram {
    Tick t;
    std::uint32_t ent, seq;
    DramRequest r;
  };
  struct MailBox {
    std::vector<MailMsg> msgs;
    std::vector<MailDram> drams;
  };

  CalendarEventQueue queue;
  SlabPool<Message> msg_pool;
  SlabPool<DramRequest> dram_pool;
  SlabPool<BulkPayload> bulk_pool;  ///< out-of-line payloads of packed messages
  StatePool states;  ///< terminated thread states of this shard's lanes, by class
  MachineStats stats;  ///< delta since the last flush into Machine::stats_
  Tick now = 0;
  std::uint64_t live_threads = 0;
  std::uint64_t mail_received = 0;  ///< events merged in from other shards
  std::vector<MailBox> outbox;      ///< indexed by destination shard
  DescriptorSnapshot mem_snap;      ///< refreshed at every window boundary
  std::exception_ptr eptr;          ///< first exception thrown on this shard
  TraceShard* trace = nullptr;      ///< this shard's udtrace buffers (null = off)
};

class Machine {
 public:
  explicit Machine(MachineConfig cfg);
  ~Machine();  // out of line: Checker is incomplete here

  const MachineConfig& config() const { return cfg_; }
  Program& program() { return program_; }
  GlobalMemory& memory() { return memory_; }
  const GlobalMemory& memory() const { return memory_; }

  // ---- Topology / computation-location naming ------------------------------
  // node_of/accel_of run on every routed message; the dividers are cached at
  // construction and reduce to shifts for power-of-two lane counts.
  NetworkId nwid_of(std::uint32_t node, std::uint32_t accel, std::uint32_t lane) const {
    return node * cfg_.lanes_per_node() + accel * cfg_.lanes_per_accel + lane;
  }
  std::uint32_t node_of(NetworkId nwid) const { return lpn_div_.div(nwid); }
  std::uint32_t accel_of(NetworkId nwid) const {
    return lpa_div_.div(lpn_div_.mod(nwid));
  }
  std::uint32_t lane_in_accel(NetworkId nwid) const { return lpa_div_.mod(nwid); }
  NetworkId first_lane_of_node(std::uint32_t node) const {
    return node * cfg_.lanes_per_node();
  }
  /// The network timing model; KVMSR reads its topology groups.
  const NetworkModel& network() const { return network_; }
  /// Handle over one lane's state (hot path: Release builds index unchecked;
  /// Debug keeps the out-of-range throw the fat-object .at() used to give).
  Lane lane(NetworkId nwid) {
#ifndef NDEBUG
    if (nwid >= lanes_.size())
      throw std::out_of_range("Machine::lane: networkID beyond machine lanes");
#endif
    return Lane(lanes_, nwid);
  }
  /// The machine-wide SoA lane storage (benches and tests inspect laziness).
  LaneTable& lane_table() { return lanes_; }
  const LaneTable& lane_table() const { return lanes_; }

  // ---- Sharding -------------------------------------------------------------
  /// Host threads the engine runs on (resolved from UD_SHARDS /
  /// MachineConfig::shards, clamped to the node count). Checked runs always
  /// resolve to 1: udcheck runs on the serial engine.
  std::uint32_t shards() const { return nshards_; }
  /// Owning shard of `node`: the round-robin partition (node % shards),
  /// fixed for the machine's whole life.
  std::uint32_t shard_of(std::uint32_t node) const {
    return nshards_ == 1 ? 0 : owner_[node];
  }

  // ---- Host (TOP core) interface --------------------------------------------
  /// Inject an event from the host; it is delivered to the target lane with
  /// intra-node latency from node 0. At most kMaxOperands operands: more
  /// throw std::invalid_argument.
  void send_from_host(Word event_word, std::initializer_list<Word> ops,
                      Word cont = IGNRCONT);
  void send_from_host(Word event_word, const Word* ops, std::size_t nops,
                      Word cont = IGNRCONT);
  /// Inject an event from the host departing at simulated tick
  /// `max(depart, now())` instead of now(). This is how a paused host driver
  /// (between run_until calls) models requests that arrive at a future
  /// simulated time: the event simply waits in the queue until the engine
  /// reaches its tick. Only callable while the engine is paused, like
  /// send_from_host.
  void send_from_host_at(Tick depart, Word event_word, std::initializer_list<Word> ops,
                         Word cont = IGNRCONT);

  /// Run the simulation until the event queue drains (quiescence). Shard 0
  /// runs on the caller's thread; with shards > 1, the other shards run on
  /// worker threads spawned for the duration of the run. An exception thrown
  /// by any shard stops all shards at the next window boundary and is
  /// rethrown here (lowest shard index wins when several shards fault in the
  /// same window).
  void run();
  /// Run until `stop()` returns true or the queue drains; returns true when
  /// the stop predicate fired (the machine is PAUSED: events remain queued
  /// and a later run()/run_until() resumes exactly where this one stopped),
  /// false on a full drain. This is the per-job quiescence entry point: the
  /// predicate typically tests a host-visible job flag (e.g. KVMSR
  /// JobState::running) so one job's completion hands control back to the
  /// host scheduler while other jobs stay in flight.
  ///
  /// The predicate is evaluated on shard 0 between lock-step windows (when
  /// no shard is executing and every exec-phase write is barrier-published),
  /// so all shards pause at the same window boundary. A window is
  /// [W, W + min_cross_node_latency()) with W the global minimum tick, a grid
  /// the events alone decide: the pause points, and every tick after them,
  /// are the same at any shard count. The predicate only ever observes
  /// quiescent host-side state, and now() advances only when a run returns.
  /// The checker report, its drain-era barrier, and trace serialization are
  /// *clean-drain* finalizations: a stopped run skips them, and the final
  /// draining run performs them for the whole simulation.
  bool run_until(const std::function<bool()>& stop);
  bool idle() const;
  /// Host-side gauges of the event engine (queue/pool/shard behavior).
  EngineStats engine_stats() const;

  Tick now() const { return now_; }

  /// The udcheck analysis subsystem (src/check/), or nullptr when off.
  /// Enabled via MachineConfig::check or the UD_CHECK environment variable,
  /// which also selects the serial engine; hook sites pay one null test when
  /// disabled.
  Checker* checker() { return checker_.get(); }

  /// The udtrace timeline/profiling subsystem (src/trace/), or nullptr when
  /// off. Enabled via MachineConfig::trace or the UD_TRACE environment
  /// variable; same one-null-test hook discipline as the checker, but unlike
  /// udcheck it runs under any shard count (see trace/trace.hpp).
  Tracer* tracer() { return tracer_.get(); }

  // ---- Statistics ------------------------------------------------------------
  // Execution accumulates into per-shard delta blocks; the accessors fold
  // outstanding deltas into the machine total first. Host-side use only (not
  // concurrent with run()).
  MachineStats& stats() {
    flush_stats();
    return stats_;
  }
  const MachineStats& stats() const {
    const_cast<Machine*>(this)->flush_stats();
    return stats_;
  }
  std::vector<LaneStats> lane_stats() const;
  LaneActivity lane_activity() const;

  // ---- Application payload ---------------------------------------------------
  /// Applications stash a context object (labels, base addresses, result
  /// fields) here so that event handlers can reach it; the analog of global
  /// program state in a real UDWeave binary.
  template <typename T, typename... Args>
  T& emplace_user(Args&&... args) {
    user_ = std::make_shared<T>(std::forward<Args>(args)...);
    user_ptr_ = user_.get();
    return *static_cast<T*>(user_ptr_);
  }
  template <typename T>
  T& user() {
    return *static_cast<T*>(user_ptr_);
  }

  /// Library services (KVMSR, SHT, ...) register themselves here, keyed by
  /// type, so their event handlers can find their state without going
  /// through the application's user struct. Handlers look a service up on
  /// every event, so each type gets a dense slot index (assigned on first
  /// use, process-wide) into a vector instead of a hash-map key.
  template <typename T, typename... Args>
  T& add_service(Args&&... args) {
    auto ptr = std::make_shared<T>(std::forward<Args>(args)...);
    T& ref = *ptr;
    const std::size_t s = service_slot<T>();
    if (s >= services_.size()) services_.resize(s + 1);
    services_[s] = std::move(ptr);
    return ref;
  }
  template <typename T>
  T& service() {
    const std::size_t s = service_slot<T>();
    if (s >= services_.size() || !services_[s])
      throw std::logic_error("Machine: service not registered: " + std::string(typeid(T).name()));
    return *static_cast<T*>(services_[s].get());
  }
  template <typename T>
  bool has_service() const {
    const std::size_t s = service_slot<T>();
    return s < services_.size() && services_[s] != nullptr;
  }

 private:
  friend class Ctx;
  friend class Checker;

  enum Kind : std::uint8_t { kMsg, kDram };

  // ---- Sender entity ids ----------------------------------------------------
  // Every queue entry carries the id of the entity that produced it plus that
  // entity's private send counter: lanes use their nwid and Lane::send_seq,
  // each node's DRAM port and the host get ids above the lane space.
  std::uint32_t dram_entity(std::uint32_t node) const {
    return static_cast<std::uint32_t>(cfg_.total_lanes()) + node;
  }
  std::uint32_t host_entity() const {
    return static_cast<std::uint32_t>(cfg_.total_lanes()) + cfg_.nodes;
  }

  // Internal send paths, used by Ctx and by the host interface. Payloads are
  // parked in the slab pools of the *destination* shard; same-shard sends
  // pool directly, cross-shard sends ride the mailbox until the window
  // boundary. `sh` is the shard doing the sending (it owns the network
  // token buckets of the sending node and takes the stats deltas).
  /// `bulk` must point at m.bulk_words valid words when m.bulk_words > 0 (the
  /// words are copied into the destination shard's bulk pool, or by value
  /// into the mailbox for cross-shard sends).
  void route_message(EngineShard& sh, std::uint32_t ent, std::uint32_t seq,
                     Message&& m, Tick depart, const Word* bulk = nullptr);
  void route_dram(EngineShard& sh, std::uint32_t ent, std::uint32_t seq,
                  DramRequest&& r, Tick depart);
  /// The one path of every host injection, departing at `depart`.
  void host_send(Tick depart, Word event_word, const Word* ops, std::size_t nops,
                 Word cont);
  /// Pop `sh`'s next queue entry, execute it, and release its payload.
  void exec_next(EngineShard& sh);
  void exec_message(EngineShard& sh, const QEntry& e);
  void exec_dram(EngineShard& sh, const QEntry& e);
  /// Run `m`'s handler synchronously on the current lane, bypassing the
  /// network and the event queue — the KVMSR packet unpacker spawning one
  /// reduce thread per packed tuple. The event word must address the lane the
  /// caller is executing on. Returns the cycles the inline event consumed
  /// (handler charges + the thread yield/deallocate cycle); the caller
  /// absorbs them into its own charge so lane timing stays exact. Counted in
  /// events_executed/threads_* but not messages_sent (no message exists).
  std::uint64_t deliver_inline(EngineShard& sh, Message&& m, Tick start);
  void push(EngineShard& sh, const QEntry& e);
  /// Release a message's bulk-pool slot, if it holds one. Call exactly once
  /// per pooled message, right before msg_pool.release.
  void release_bulk(EngineShard& sh, std::uint32_t pool_index) {
    Message& m = sh.msg_pool[pool_index];
    if (m.bulk != kNoBulk) {
      sh.bulk_pool.release(m.bulk);
      m.bulk = kNoBulk;
      m.bulk_words = 0;
    }
  }

  /// One shard's part of the window protocol (the body of run_until, on
  /// the caller's thread for shard 0 and on a worker for every other shard).
  void run_shard(std::uint32_t my, Tick lookahead);
  /// Merge every mailbox addressed to shard `my` into its queue.
  void merge_inbox(EngineShard& sh, std::uint32_t my);
  /// Fold all shards' stats deltas into stats_ and zero the deltas.
  void flush_stats();

  EngineShard& shard0() { return *shards_[0]; }  ///< host sends, checker

  MachineConfig cfg_;
  Program program_;
  GlobalMemory memory_;
  NetworkModel network_;
  DramModel dram_;
  LaneTable lanes_;  ///< SoA lane state: hot flat arrays + lazy cold cores
  FastDiv lpn_div_;  ///< by lanes_per_node()
  FastDiv lpa_div_;  ///< by lanes_per_accel
  std::uint32_t nshards_ = 1;
  std::vector<std::unique_ptr<EngineShard>> shards_;
  std::vector<std::uint32_t> dram_seq_;  ///< per-node DRAM-port send counters
  std::uint32_t host_seq_ = 0;           ///< host send counter
  SpinBarrier barrier_;
  std::vector<Tick> local_min_;  ///< per-shard queue minimum, valid at barrier A
  std::atomic<bool> abort_{false};
  /// run_until stop protocol: shard 0 evaluates the predicate between
  /// barrier B and barrier A (no shard executing) and publishes here, pre-A,
  /// exactly like abort_ — so every shard breaks at the same window boundary.
  std::atomic<bool> stop_{false};
  const std::function<bool()>* stop_pred_ = nullptr;  ///< valid during run_until
  std::uint64_t windows_ = 0;  ///< lock-step windows executed (shard 0 counts)
  std::vector<std::uint32_t> owner_;  ///< node -> owning shard (node % shards)
  Tick now_ = 0;
  MachineStats stats_;
  std::unique_ptr<Checker> checker_;  ///< null unless checking is enabled
  std::unique_ptr<Tracer> tracer_;    ///< null unless tracing is enabled
  std::shared_ptr<void> user_;
  void* user_ptr_ = nullptr;
  std::vector<std::shared_ptr<void>> services_;  ///< indexed by service_slot<T>()

  static std::size_t next_service_slot() {
    static std::atomic<std::size_t> next{0};
    return next.fetch_add(1, std::memory_order_relaxed);
  }
  template <typename T>
  static std::size_t service_slot() {
    static const std::size_t slot = next_service_slot();
    return slot;
  }
};

}  // namespace updown
