// udcheck: dynamic analysis of the *simulated* UpDown machine.
//
// Because every DRAM word, scratchpad slot, allocation, thread context and
// message already flows through Machine/Ctx/GlobalMemory, the checker sees
// the complete message graph and the complete access stream — a TSan-style
// detector with total visibility on mediated state. Three analyses run
// together (see DESIGN.md "udcheck internals"):
//
//   1. Happens-before race detector. Each thread-context lifetime carries a
//      FastTrack-style clock: a single (lifetime, epoch) pair covers the
//      common same-lifetime chain, and a small sorted epoch vector is kept
//      only for the cross-lifetime knowledge a task actually acquires.
//      Lifetime ids come from a compact recycling allocator, so the id space
//      — and with it every clock entry and shadow stamp — stays dense.
//      Send->receive edges (messages, DRAM round trips, thread creation)
//      join clocks; each accessed DRAM word keeps a shadow cell (last writer
//      + readers since) in page-granular flat shadow arrays materialized on
//      first touch. Scratchpad accesses are lane-serialized by construction
//      and only race-checked under UD_CHECK_SP_STRICT.
//
//   2. Memory-lifetime sanitizer. dram_malloc/dram_free lifecycles come in
//      through the MemoryObserver interface; every DRAM request is validated
//      word-by-word against the live descriptor table, classifying misses as
//      use-after-free (freed-region hit) or out-of-bounds.
//
//   3. Event-protocol linter. Sends to dead or recycled thread contexts,
//      invalid event words, operand-count overflow, continuation words that
//      are never fired, and non-quiescent drains (leaked threads, leaked
//      allocations, undelivered messages).
//
// The checker is opt-in (UD_CHECK=1 or MachineConfig::check); when off, the
// simulator pays one null-pointer test per hook site. When on, clean runs
// keep golden determinism counts bit-identical: the checker never alters
// timing, routing, or statistics unless a violation is found (violating
// accesses/deliveries are suppressed so the simulation can continue and
// report instead of corrupting host memory or crashing).
//
// Checked runs use the serial engine: with checking on, Machine resolves to
// one shard whatever UD_SHARDS asks for, so every hook runs inline, on the
// engine's one thread, in the (tick, sending entity, sender seq) order that
// every shard count reproduces. A checked run therefore reports the same
// diagnostics at any UD_SHARDS, and its simulated results equal the
// unchecked run's at any shard count.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"
#include "mem/global_memory.hpp"
#include "sim/message.hpp"
#include "sim/stats.hpp"

namespace updown {

class Machine;

enum class CheckKind : std::uint8_t {
  kDataRace,           ///< unordered DRAM write-write / read-write pair
  kSpRace,             ///< strict mode: HB-concurrent scratchpad conflict
  kOutOfBounds,        ///< access to a VA no descriptor covers
  kUseAfterFree,       ///< access to a retired (freed) region
  kBadFree,            ///< double free / free of a non-region address
  kSendToDeadThread,   ///< event addressed a dead thread context
  kStaleDelivery,      ///< thread context recycled between send and delivery
  kBadEventWord,       ///< invalid label / lane, or thread-class mismatch
  kOperandOverflow,    ///< >6 operands on a non-DRAM-reply message
  kLeakedThread,       ///< thread context still live at drain
  kUndeliveredMessages,///< queue not quiescent at report time
  kLeakedAllocation,   ///< live DRAM region at drain (warning)
  kUnfiredContinuation ///< delivered continuation word never sent (warning)
};

const char* check_kind_name(CheckKind k);

/// One structured violation record: enough context to locate the bug in the
/// event graph (tick, lane, event label, thread, address, allocation site).
struct CheckDiagnostic {
  CheckKind kind{};
  bool error = true;  ///< false: warning (does not affect CheckSummary::clean)
  Tick tick = 0;
  NetworkId lane = 0;
  ThreadId tid = 0;
  EventLabel label = 0;     ///< event executing (or sending) at detection
  Addr va = 0;              ///< faulting address (DRAM VA or scratchpad offset)
  std::uint64_t alloc_seq = 0;  ///< allocation site, when one is known
  std::string message;          ///< fully formatted human-readable report
};

class Checker final : public MemoryObserver {
 public:
  Checker(Machine& m, bool sp_strict);
  ~Checker() override;

  Checker(const Checker&) = delete;
  Checker& operator=(const Checker&) = delete;

  bool sp_strict() const { return sp_strict_; }

  // ---- Routing hooks -------------------------------------------------------
  /// The host (TOP core) is about to inject a message.
  void on_host_send() { origin_ = Origin::kHost; }
  /// A message landed in pool slot `idx`; stamp it with the sender's clock
  /// and lint the send (target liveness, operand count, obligations).
  void on_route_message(std::uint32_t idx, Tick depart);
  /// A DRAM request landed in pool slot `idx`. `addr_mapped` is false when
  /// routing could not translate the base address (checked mode routes such
  /// requests to node 0 instead of throwing).
  void on_route_dram(std::uint32_t idx, bool addr_mapped, Tick depart);
  /// Event word addressed a lane beyond the machine: reported here, and the
  /// engine drops the send.
  void on_bad_route(Word evw, Tick depart);

  // ---- Delivery / execution hooks -----------------------------------------
  /// Validate delivery of pooled message `idx`; false => suppress (the
  /// violation has been recorded; the payload is dropped).
  bool on_pre_deliver(std::uint32_t idx, Tick start);
  /// An existing-thread delivery found a thread of another class.
  void on_class_mismatch(std::uint32_t idx, NetworkId lane, ThreadId tid, Tick start);
  /// A handler is about to run: join the receiver's clock with the message
  /// stamp, register continuation obligations, open the task scope.
  void on_task_begin(std::uint32_t idx, NetworkId lane, ThreadId tid, EventLabel label,
                     Tick start, bool new_thread);
  /// The handler returned; closes the task scope and retires the lifetime
  /// when the thread yielded-terminate.
  void on_task_end(NetworkId lane, ThreadId tid, bool terminated);

  /// A DRAM request is being serviced: sanitize the address range and race-
  /// check each word at the requester's send-time clock. Returns false when
  /// the physical access must be suppressed (reads are zero-filled).
  bool on_dram_exec(std::uint32_t idx, Tick now);
  /// The serviced request is about to emit its reply message.
  void begin_dram_reply(std::uint32_t idx);
  /// Service complete (reply routed, if any); releases the in-flight stamp.
  void on_dram_done(std::uint32_t idx);

  /// Scratchpad access from a running handler. Returns false when the access
  /// is out of bounds and must be suppressed (reads return 0); under
  /// sp_strict, race-checks the word too.
  bool on_sp_access(NetworkId lane, std::uint64_t offset, std::size_t bytes,
                    bool is_write, Tick now);

  /// Lane-local synchronization cells (Ctx::sync_release / sync_acquire):
  /// an atomic scratchpad counter or flag is a real happens-before edge the
  /// message graph cannot see — e.g. the KVMSR termination gather, where a
  /// reduce task bumps its lane's received counter and terminates without
  /// sending, and a later poll task on the same lane reads the counter and
  /// reports to the master. Release merges the running task's clock into the
  /// cell; acquire merges the cell into the running task.
  void on_sync_release(NetworkId lane, std::uint64_t slot);
  void on_sync_acquire(NetworkId lane, std::uint64_t slot);

  /// Save / restore the scoped message origin around an inline delivery
  /// (Machine::deliver_inline): the nested task's begin/end hooks overwrite
  /// the origin, and the caller's later sends must stamp with the caller's
  /// clock again. Push before the nested on_route_message, pop after the
  /// nested on_task_end. Nesting depth follows the inline call depth.
  void push_origin();
  void pop_origin();

  // ---- MemoryObserver (allocation lifecycle) ------------------------------
  void on_alloc(const SwizzleDescriptor& d) override;
  void on_free(const SwizzleDescriptor& d, std::uint64_t free_seq) override;
  void on_bad_free(Addr base, bool double_free, const std::string& detail) override;

  // ---- Reporting -----------------------------------------------------------
  /// Called by Machine::run() at quiescence: computes drain-state checks
  /// (leaked threads/allocations, unfired continuations), folds all counters
  /// into MachineStats::check, prints newly found diagnostics, and opens a
  /// new era (everything before a full drain happens-before everything
  /// after, so cross-phase host driving cannot produce false races).
  void report();

  /// Multi-tenant leak attribution: a host scheduler may install a callback
  /// mapping a lane to the name of the job whose partition owns it (empty =
  /// unowned). Leaked-thread diagnostics append the owner, so a leak in a
  /// concurrent-job run names the offending job instead of just a lane
  /// number. Host-side only (set while the engine is paused); purely a
  /// diagnostic decoration — counters and eras are unaffected.
  void set_lane_annotator(std::function<std::string(NetworkId)> fn) {
    lane_annotator_ = std::move(fn);
  }

  const std::vector<CheckDiagnostic>& diagnostics() const { return diags_; }

 private:
  // ---- Vector clocks -------------------------------------------------------
  // Lifetime ids are recycled through a free list, so the live id space stays
  // compact at any machine scale. Correctness of recycling rests on two
  // rules: (1) anything that must keep a lifetime's *identity* (shadow
  // stamps, in-flight message/DRAM metadata) holds a refcount, and an id is
  // only recycled once dead and unreferenced; (2) epoch counters continue
  // across occupancies and `base_epoch` records the boundary, so an un-
  // refcounted clock entry from an earlier occupancy is recognizably stale
  // (its epoch is below base_epoch) and can never falsely order against the
  // current occupant.
  using LifetimeId = std::uint32_t;
  static constexpr LifetimeId kHostLifetime = 0;
  static constexpr LifetimeId kNoLifetime = 0xFFFFFFFFu;

  struct VCEntry {
    LifetimeId lt;
    std::uint32_t epoch;
  };
  using VC = std::vector<VCEntry>;  ///< sorted by lt
  static constexpr VCEntry kNoEntry{kNoLifetime, 0};

  /// The inline portion of an effective clock: the two most recently acquired
  /// entries, held outside the pool. Two slots because the dominant delivery
  /// shape (a task spawned by a task that was itself just spawned) hands the
  /// receiver its parent's stamp plus the parent's own inline knowledge — the
  /// grandparent. One slot would spill to the pooled clock on roughly every
  /// other hop of a spawn chain, and a single spill is contagious: every
  /// descendant then inherits a non-empty snapshot and pays the merge scan.
  /// e0 is older than e1; spills evict e0.
  struct InlineVC {
    VCEntry e0 = kNoEntry;
    VCEntry e1 = kNoEntry;
  };

  // ---- Snapshot pool -------------------------------------------------------
  // Clocks are immutable, refcounted VCs held in a pooled slab and addressed
  // by index. A lifetime's clock, the snapshots pinned to in-flight messages
  // and DRAM requests, and the DRAM-reply origin state all share slots, so a
  // send is a refcount bump (no copy) and a join builds its result in a
  // recycled buffer — the message hot path allocates nothing in steady state.
  // kNoSnap denotes the empty clock.
  using SnapId = std::uint32_t;
  static constexpr SnapId kNoSnap = 0xFFFFFFFFu;
  struct SnapSlot {
    VC vc;
    std::uint32_t refs = 0;
  };

  /// One thread-context lifetime (allocate_thread .. deallocate_thread).
  /// Same-lifetime events are serialized by the lane, so a lifetime is one
  /// chain in the happens-before chain decomposition; its own position is the
  /// implicit (id, epoch) FastTrack pair and `clock` holds only acquired
  /// cross-lifetime knowledge.
  struct Lifetime {
    SnapId clock = kNoSnap;  ///< knowledge of *other* lifetimes (self implicit)
    /// FastTrack fast path: the most recently acquired stamps, held inline.
    /// The dominant deliveries (fresh thread, repeat sender, spawn chain)
    /// absorb the sender's knowledge here without touching the pool; only
    /// genuine fan-in (a third concurrent edge) spills into the pooled clock.
    /// The effective clock is snap_vc(clock) ∪ last ∪ {(host, host_ep)}.
    InlineVC last;
    /// Knowledge of the host chain, hoisted out of the VCs. The host lifetime
    /// never dies, so a (host, e) entry would never prune — one immortal
    /// entry in every clock would force the slow merge path on every hop.
    std::uint32_t host_ep = 0;
    std::uint32_t epoch = 1;       ///< bumped after every send (release)
    std::uint32_t base_epoch = 0;  ///< first epoch of the current occupancy
    std::uint32_t refs = 0;        ///< shadow stamps + in-flight metadata
    bool alive = true;
    bool retired = false;  ///< id parked on the free list
    NetworkId nwid = 0;
    ThreadId tid = 0;
    EventLabel create_label = 0;
    Tick created_at = 0;
    std::uint64_t create_seq = 0;  ///< global thread-creation order (1-based)
  };

  /// A clock reading attached to a message / DRAM request / shadow cell.
  struct Stamp {
    LifetimeId lt = kNoLifetime;
    std::uint32_t epoch = 0;
    std::uint32_t era = 0;
    EventLabel label = 0;      ///< event that produced the stamp (diagnostics)
    Tick tick = 0;
  };

  struct MsgMeta {
    Stamp stamp;
    SnapId snap = kNoSnap;  ///< sender's pooled clock at send time (one pool ref)
    InlineVC ext;           ///< sender's inline `last` entries (un-refcounted)
    std::uint32_t host_ep = 0;  ///< sender's host-chain knowledge
    LifetimeId target = kNoLifetime;  ///< expected lifetime of an existing target
    bool from_dram = false;
    bool cont_pending = false;  ///< cont word is a live obligation in transit
    bool suppress = false;      ///< reported at send; drop silently on arrival
    bool holds_refs = false;    ///< stamp.lt / target are refcount-pinned
  };

  struct DramMeta {
    Stamp stamp;
    SnapId snap = kNoSnap;  ///< requester's pooled clock at issue (one pool ref)
    InlineVC ext;           ///< requester's inline `last` entries (un-refcounted)
    std::uint32_t host_ep = 0;  ///< requester's host-chain knowledge
    bool addr_mapped = true;
    bool cont_pending = false;
    bool holds_ref = false;  ///< we incref'd stamp.lt for the flight
  };

  // ---- Shadow memory -------------------------------------------------------
  // Flat page-granular shadow arrays, materialized on first touch (the same
  // discipline LaneTable uses for lane cores): a DRAM word's cell is two
  // array indexations instead of a hash probe, and a multi-word request
  // resolves its page once per crossing instead of hashing per word. The
  // common cell holds its readers inline (one slot); genuinely contended
  // cells promote to a pooled overflow list.
  struct ShadowCell {
    Stamp write;
    Stamp read0;  ///< inline reader slot (lt == kNoLifetime => empty)
    std::uint32_t overflow = 0xFFFFFFFFu;  ///< reader_pool_ index, or none
  };
  static constexpr std::uint32_t kNoOverflow = 0xFFFFFFFFu;
  static constexpr unsigned kShadowPageShift = 9;  ///< 512 words (4 KiB VA) per page
  static constexpr std::size_t kShadowPageWords = 1u << kShadowPageShift;
  struct ShadowPage {
    ShadowCell cells[kShadowPageWords];
  };
  static constexpr std::size_t kMaxReaders = 8;

  struct PendingCont {
    std::uint32_t count = 0;
    Tick first_tick = 0;
    NetworkId lane = 0;  ///< lane that received the obligation first
    EventLabel label = 0;
  };

  // Clock algebra.
  static std::uint32_t vc_get(const VC& vc, LifetimeId lt);
  bool prunable(LifetimeId lt) const;
  /// A clock entry that can never order anything again: its lifetime is dead
  /// and unreferenced, or the entry predates the id's current occupancy.
  bool dead_entry(const VCEntry& e) const;
  /// Would a pointwise-max merge of `src` into `dst` (skipping `self`,
  /// pruning dead/stale entries) change `dst`? Scan-only, allocates nothing.
  bool merge_would_change(const VC& dst, const VC& src, LifetimeId self) const;
  /// Append the merged (pointwise max, `self` skipped, dead entries pruned)
  /// clock of `dst` and `src` to `out`. `out` must not alias either input.
  void merge_build(VC& out, const VC& dst, const VC& src, LifetimeId self) const;
  /// Sorted merge of `src` into `dst` via the scratch buffer; returns whether
  /// `dst` changed. Used for the mutable sync-cell clocks only — lifetime
  /// clocks are immutable pool snapshots rebuilt by clock_join.
  bool merge_vc(VC& dst, const VC& src, LifetimeId self);
  /// Raise `vc[lt]` to at least `epoch`; returns whether `vc` changed.
  static bool vc_upsert(VC& vc, LifetimeId lt, std::uint32_t epoch);

  // Snapshot pool plumbing. snap_ref/snap_unref accept kNoSnap (no-ops); a
  // slot whose refcount hits zero parks on the free list with its buffer
  // intact, so steady-state joins recycle capacity instead of calling malloc.
  const VC& snap_vc(SnapId id) const;
  void snap_ref(SnapId id);
  void snap_unref(SnapId id);
  SnapId snap_new();  ///< fresh slot, refs = 1, empty (capacity-retaining) vc
  void snap_clear(SnapId& slot);                ///< unref + reset to kNoSnap
  void snap_assign(SnapId& slot, SnapId v);     ///< ref-maintaining overwrite
  /// Rebuild `lt`'s immutable pooled clock as clock ∪ src (∪ {stamp} if
  /// non-null), if that changes it; the old clock is released to the pool.
  void clock_join(LifetimeId lt, const VC& src, const Stamp* stamp);
  /// Absorb one clock entry into `dst`'s effective clock, preferring the
  /// inline `last` slots (no pool op); genuine fan-in beyond two live edges
  /// spills the oldest slot into the pooled clock.
  void absorb(LifetimeId dst, VCEntry e);
  /// Drop dead/stale entries from `vc` in place (exclusive slots only).
  void prune_dead(VC& vc) const;
  /// Join a message's clock view into `dst`. `snap` is OWNED: the caller's
  /// pool ref transfers in (adopted by a fresh receiver, or released).
  void join_into(LifetimeId dst, SnapId snap, const InlineVC& ext,
                 std::uint32_t host_ep, const Stamp& src);
  /// The sender's current pooled clock as a pool reference (caller owns one
  /// ref); the inline remainder of the effective clock is its `last` pair.
  SnapId clock_snapshot(LifetimeId lt);
  /// A borrowed view of an effective clock: pooled VC ∪ ext ∪ {(host,
  /// host_ep)}. Built on the stack from a lifetime or in-flight metadata.
  struct ClockView {
    const VC* vc;
    InlineVC ext;
    std::uint32_t host_ep;
  };

  /// Is stamp `a` ordered before an observer whose effective clock is
  /// (`lt`, `view`)?
  bool ordered(const Stamp& a, LifetimeId lt, const ClockView& view) const;

  void stamp_ref(LifetimeId lt);
  void stamp_unref(LifetimeId lt);
  void set_stamp(Stamp& slot, const Stamp& s);   ///< ref-maintaining overwrite
  void add_reader(ShadowCell& cell, const Stamp& s, const ClockView& view);
  void clear_readers(ShadowCell& cell);

  LifetimeId new_lifetime(NetworkId nwid, ThreadId tid, EventLabel label, Tick t);
  /// Park a dead, unreferenced lifetime's id on the free list; records the
  /// occupancy boundary (base_epoch) and releases the thread-slot mapping.
  void retire(LifetimeId lt);
  void maybe_retire(LifetimeId lt);
  LifetimeId& slot_lifetime(NetworkId nwid, ThreadId tid);
  bool slot_alive(NetworkId nwid, ThreadId tid) const;

  // Shadow cell addressing (first-touch materialization).
  ShadowPage& dram_page(std::uint64_t page);
  ShadowCell& sp_cell(NetworkId lane, std::uint64_t word);
  void note_shadow_bytes(std::uint64_t bytes);

  /// Race-check + update one shadow cell; `cur`'s effective clock is
  /// (`cur.lt`, `view`).
  void check_access(ShadowCell& cell, const Stamp& cur, const ClockView& view,
                    bool is_write, bool is_sp, Addr va);

  // Meta lifecycle. Message metadata pins both the sender's lifetime (so
  // diagnostics after delivery still name the true sender) and the expected
  // target lifetime (so an id recycled while the message is in flight cannot
  // alias the staleness check). Release is idempotent.
  void acquire_msg_refs(MsgMeta& meta);
  void release_msg_meta(MsgMeta& meta);

  // Continuation obligations.
  void register_cont(Word cont, NetworkId lane, Tick t);
  bool discharge_cont(Word w);

  // Diagnostics.
  void diag(CheckDiagnostic d);
  std::string ev_name(EventLabel label) const;
  std::string where(const Stamp& s) const;

  MsgMeta& msg_meta(std::uint32_t idx);
  DramMeta& dram_meta(std::uint32_t idx);

  Machine& m_;
  const bool sp_strict_;

  std::vector<Lifetime> lifetimes_;  ///< index = LifetimeId; [0] is the host
  std::vector<LifetimeId> free_ids_; ///< retired ids awaiting reuse
  std::uint64_t create_seq_ = 0;     ///< thread-creation counter (leak diags)
  std::vector<std::vector<LifetimeId>> slot_lt_;  ///< per lane, per tid (lazy rows)
  std::uint32_t era_ = 1;  ///< bumped at every full drain (report)

  // Origin of the message/request currently being routed. Checked runs are
  // serial, so one scoped origin per Machine suffices.
  enum class Origin : std::uint8_t { kNone, kHost, kTask, kDramReply };
  Origin origin_ = Origin::kNone;
  Stamp origin_stamp_;       ///< valid for kTask (current task's lifetime)
  SnapId origin_snap_ = kNoSnap;  ///< valid for kDramReply (one pool ref)
  InlineVC origin_ext_;      ///< valid for kDramReply (inline entries)
  std::uint32_t origin_host_ep_ = 0;  ///< valid for kDramReply
  bool origin_cont_pending_ = false;  ///< valid for kDramReply

  /// Saved origins for nested inline deliveries (Machine::deliver_inline).
  /// Stamp carries no refcount; the snap slot's pool ref moves with the save.
  struct SavedOrigin {
    Origin origin;
    Stamp stamp;
    SnapId snap;
    InlineVC ext;
    std::uint32_t host_ep;
    bool cont_pending;
  };
  std::vector<SavedOrigin> origin_stack_;

  std::vector<MsgMeta> msg_meta_;
  std::vector<DramMeta> dram_meta_;

  // Snapshot pool (see SnapSlot above) and the shared merge scratch buffer.
  std::vector<SnapSlot> snap_pool_;
  std::vector<SnapId> snap_free_;
  VC scratch_vc_;
  VC sync_scratch_vc_;  ///< host-stripped sync-cell clock (acquire slow path)

  // Flat shadow directories (first-touch pages; see ShadowPage above).
  std::vector<std::unique_ptr<ShadowPage>> dram_shadow_;  ///< [va >> 3 >> 9]
  std::vector<std::unique_ptr<std::vector<ShadowCell>>> sp_shadow_;  ///< per lane
  std::vector<std::vector<Stamp>> reader_pool_;  ///< overflow reader lists
  std::vector<std::uint32_t> reader_pool_free_;
  std::uint64_t shadow_bytes_ = 0;       ///< resident shadow bytes right now
  std::uint64_t shadow_peak_bytes_ = 0;  ///< high-water mark across the run

  std::unordered_map<std::uint64_t, VC> sync_clocks_;  ///< (lane<<32)|slot

  std::unordered_map<Word, PendingCont> pending_conts_;

  CheckSummary counts_;
  std::vector<CheckDiagnostic> diags_;
  std::function<std::string(NetworkId)> lane_annotator_;  ///< lane -> owning job
  std::vector<LifetimeId> leak_reported_;  ///< leaked threads already flagged
  std::vector<Word> cont_reported_;        ///< unfired conts already flagged
  static constexpr std::size_t kMaxStoredDiags = 256;
  std::uint64_t dropped_diags_ = 0;
};

}  // namespace updown
