#include "check/checker.hpp"

#include <algorithm>
#include <cstdio>

#include "common/strfmt.hpp"
#include "sim/machine.hpp"

namespace updown {

namespace {
constexpr unsigned kPlainMessageOperands = 6;  ///< 64B msg: evw + cont + 6 words
}  // namespace

const char* check_kind_name(CheckKind k) {
  switch (k) {
    case CheckKind::kDataRace: return "data-race";
    case CheckKind::kSpRace: return "sp-race";
    case CheckKind::kOutOfBounds: return "out-of-bounds";
    case CheckKind::kUseAfterFree: return "use-after-free";
    case CheckKind::kBadFree: return "bad-free";
    case CheckKind::kSendToDeadThread: return "send-to-dead-thread";
    case CheckKind::kStaleDelivery: return "stale-delivery";
    case CheckKind::kBadEventWord: return "bad-event-word";
    case CheckKind::kOperandOverflow: return "operand-overflow";
    case CheckKind::kLeakedThread: return "leaked-thread";
    case CheckKind::kUndeliveredMessages: return "undelivered-messages";
    case CheckKind::kLeakedAllocation: return "leaked-allocation";
    case CheckKind::kUnfiredContinuation: return "unfired-continuation";
  }
  return "unknown";
}

Checker::Checker(Machine& m, bool sp_strict) : m_(m), sp_strict_(sp_strict) {
  // slot_lt_ / sp_shadow_ grow on demand (see slot_lifetime, sp_cell): like
  // the engine's lane table, the shadow state is index-addressed but
  // materializes only for lanes that actually run threads.
  lifetimes_.emplace_back();  // [0] = the host (TOP core), alive forever
}

Checker::~Checker() = default;

// ---- Clock algebra ---------------------------------------------------------

std::uint32_t Checker::vc_get(const VC& vc, LifetimeId lt) {
  auto it = std::lower_bound(vc.begin(), vc.end(), lt,
                             [](const VCEntry& e, LifetimeId v) { return e.lt < v; });
  return (it != vc.end() && it->lt == lt) ? it->epoch : 0;
}

bool Checker::prunable(LifetimeId lt) const {
  if (lt == kHostLifetime) return false;
  const Lifetime& l = lifetimes_[lt];
  return !l.alive && l.refs == 0;
}

bool Checker::dead_entry(const VCEntry& e) const {
  if (e.lt == kHostLifetime) return false;
  const Lifetime& l = lifetimes_[e.lt];
  // Dead+unreferenced: no stamp of this occupancy can ever be compared again
  // (stamps hold refs). Below base_epoch: the entry belongs to an earlier
  // occupancy of a recycled id, and every stamp of the current occupancy has
  // an epoch at or above base_epoch — the entry can only under-order, so
  // dropping it is sound (conservative).
  return (!l.alive && l.refs == 0) || e.epoch < l.base_epoch;
}

bool Checker::ordered(const Stamp& a, LifetimeId lt, const ClockView& view) const {
  if (a.era < era_) return true;  // a full drain is a global barrier
  if (a.lt == lt) return true;    // same lifetime: lane-serialized chain
  // Host-chain knowledge lives in a dedicated scalar (VCs never hold host
  // entries — see Lifetime::host_ep).
  if (a.lt == kHostLifetime) return view.host_ep >= a.epoch;
  // The FastTrack inline entries next: the observer's most recent acquires
  // are by far the likeliest entries to order against. A stale inline entry
  // (an earlier occupancy of a recycled id) cannot falsely order: any
  // comparable stamp of the current occupancy sits at or above base_epoch,
  // which exceeds the stale epoch.
  if (view.ext.e1.lt == a.lt && view.ext.e1.epoch >= a.epoch) return true;
  if (view.ext.e0.lt == a.lt && view.ext.e0.epoch >= a.epoch) return true;
  return vc_get(*view.vc, a.lt) >= a.epoch;
}

bool Checker::merge_would_change(const VC& dst, const VC& src, LifetimeId self) const {
  // Scan-only (no allocation): would the merge change dst at all? Clocks on
  // the hot path are 1-3 entries and usually already absorbed, so the common
  // case is a short scan and an early return.
  auto i = dst.cbegin();
  auto j = src.cbegin();
  while (i != dst.cend() || j != src.cend()) {
    if (j == src.cend() || (i != dst.cend() && i->lt < j->lt)) {
      if (dead_entry(*i)) return true;
      ++i;
    } else if (i == dst.cend() || j->lt < i->lt) {
      if (j->lt != self && !dead_entry(*j)) return true;
      ++j;
    } else {
      if (dead_entry(*i) || j->epoch > i->epoch) return true;
      ++i;
      ++j;
    }
  }
  return false;
}

void Checker::merge_build(VC& out, const VC& dst, const VC& src, LifetimeId self) const {
  auto i = dst.cbegin();
  auto j = src.cbegin();
  while (i != dst.cend() || j != src.cend()) {
    if (j == src.cend() || (i != dst.cend() && i->lt < j->lt)) {
      // Merges double as the pruning pass: dead/stale entries can never be
      // compared again.
      if (!dead_entry(*i)) out.push_back(*i);
      ++i;
    } else if (i == dst.cend() || j->lt < i->lt) {
      if (j->lt != self && !dead_entry(*j)) out.push_back(*j);
      ++j;
    } else {
      // Deadness is per-entry, not per-id: a recycled id can pair a stale
      // old-occupancy entry (epoch < base_epoch) in dst with a live
      // current-occupancy entry in src. Judge the max-epoch winner, so a
      // stale loser never drags a live entry down with it.
      VCEntry e = *i;
      if (j->epoch > e.epoch) e.epoch = j->epoch;
      if (!dead_entry(e)) out.push_back(e);
      ++i;
      ++j;
    }
  }
}

bool Checker::merge_vc(VC& dst, const VC& src, LifetimeId self) {
  if (!merge_would_change(dst, src, self)) return false;
  scratch_vc_.clear();
  scratch_vc_.reserve(dst.size() + src.size());
  merge_build(scratch_vc_, dst, src, self);
  dst.swap(scratch_vc_);  // dst keeps the result; scratch keeps dst's buffer
  return true;
}

bool Checker::vc_upsert(VC& vc, LifetimeId lt, std::uint32_t epoch) {
  auto it = std::lower_bound(vc.begin(), vc.end(), lt,
                             [](const VCEntry& e, LifetimeId v) { return e.lt < v; });
  if (it == vc.end() || it->lt != lt) {
    vc.insert(it, VCEntry{lt, epoch});
    return true;
  }
  if (it->epoch < epoch) {
    it->epoch = epoch;
    return true;
  }
  return false;
}

// ---- Snapshot pool ---------------------------------------------------------

const Checker::VC& Checker::snap_vc(SnapId id) const {
  static const VC kEmptyVC;
  return id == kNoSnap ? kEmptyVC : snap_pool_[id].vc;
}

void Checker::snap_ref(SnapId id) {
  if (id != kNoSnap) ++snap_pool_[id].refs;
}

void Checker::snap_unref(SnapId id) {
  if (id == kNoSnap) return;
  SnapSlot& s = snap_pool_[id];
  if (s.refs > 0 && --s.refs == 0) {
    s.vc.clear();  // capacity is retained for the slot's next tenancy
    snap_free_.push_back(id);
  }
}

Checker::SnapId Checker::snap_new() {
  if (!snap_free_.empty()) {
    const SnapId id = snap_free_.back();
    snap_free_.pop_back();
    snap_pool_[id].refs = 1;
    return id;
  }
  snap_pool_.emplace_back();
  snap_pool_.back().refs = 1;
  return static_cast<SnapId>(snap_pool_.size() - 1);
}

void Checker::snap_clear(SnapId& slot) {
  snap_unref(slot);
  slot = kNoSnap;
}

void Checker::snap_assign(SnapId& slot, SnapId v) {
  snap_ref(v);
  snap_unref(slot);
  slot = v;
}

void Checker::clock_join(LifetimeId lt_id, const VC& src, const Stamp* stamp) {
  Lifetime& l = lifetimes_[lt_id];
  const VC& cur = snap_vc(l.clock);
  const bool up = stamp != nullptr && stamp->lt != lt_id && stamp->lt != kNoLifetime &&
                  !prunable(stamp->lt) && vc_get(cur, stamp->lt) < stamp->epoch;
  if (!up && !merge_would_change(cur, src, lt_id)) return;
  // Build the merged clock in the scratch buffer *before* snap_new: `cur` and
  // `src` may point into snap_pool_, which snap_new can reallocate.
  scratch_vc_.clear();
  scratch_vc_.reserve(cur.size() + src.size() + 1);
  merge_build(scratch_vc_, cur, src, lt_id);
  if (up) vc_upsert(scratch_vc_, stamp->lt, stamp->epoch);
  const SnapId ns = snap_new();
  snap_pool_[ns].vc.swap(scratch_vc_);  // scratch inherits the slot's old buffer
  snap_unref(l.clock);
  l.clock = ns;
}

void Checker::absorb(LifetimeId dst_id, VCEntry e) {
  if (e.lt == dst_id || e.lt == kNoLifetime) return;
  Lifetime& l = lifetimes_[dst_id];
  if (e.lt == kHostLifetime) {  // host chain: the dedicated scalar, never a VC
    if (e.epoch > l.host_ep) l.host_ep = e.epoch;
    return;
  }
  if (dead_entry(e)) return;
  if (l.last.e1.lt == e.lt) {  // repeat sender: bump the inline entry in place
    if (e.epoch > l.last.e1.epoch) l.last.e1.epoch = e.epoch;
    return;
  }
  if (l.last.e0.lt == e.lt) {
    if (e.epoch > l.last.e0.epoch) l.last.e0.epoch = e.epoch;
    return;
  }
  if (l.last.e1.lt == kNoLifetime || dead_entry(l.last.e1)) {
    l.last.e1 = e;
    return;
  }
  if (l.last.e0.lt == kNoLifetime || dead_entry(l.last.e0)) {
    // Keep recency order: e1 is the newer acquire, so the incoming entry
    // takes e1 and the survivor moves down to e0.
    l.last.e0 = l.last.e1;
    l.last.e1 = e;
    return;
  }
  if (vc_get(snap_vc(l.clock), e.lt) >= e.epoch) return;  // already known
  // Genuine fan-in: a third live concurrent edge. Spill the oldest inline
  // entry into the pooled clock and keep the two most recent inline (the
  // most recent acquires are the likeliest to repeat).
  const VCEntry spill = l.last.e0;
  l.last.e0 = l.last.e1;
  l.last.e1 = e;
  if (l.clock != kNoSnap && snap_pool_[l.clock].refs == 1) {
    // The slot is exclusively ours (no snapshot pinned): upsert in place
    // instead of rebuilding. A chain of single-successor threads then reuses
    // one slot for its whole length, one sorted insert per spill. Dead-entry
    // pruning (a rebuild side effect) is amortized explicitly.
    VC& vc = snap_pool_[l.clock].vc;
    // Prune exactly when the buffer is about to grow: amortized O(1) per
    // spill, and a successful prune avoids the reallocation outright.
    if (vc.size() == vc.capacity() && !vc.empty()) prune_dead(vc);
    vc_upsert(vc, spill.lt, spill.epoch);
    return;
  }
  Stamp s;
  s.lt = spill.lt;
  s.epoch = spill.epoch;
  clock_join(dst_id, snap_vc(kNoSnap), &s);
}

void Checker::prune_dead(VC& vc) const {
  vc.erase(std::remove_if(vc.begin(), vc.end(),
                          [this](const VCEntry& e) { return dead_entry(e); }),
           vc.end());
}

void Checker::join_into(LifetimeId dst_id, SnapId snap, const InlineVC& ext,
                        std::uint32_t host_ep, const Stamp& src) {
  // `snap` arrives OWNED: the caller's pool ref transfers here, and this
  // function either keeps it (adoption) or releases it.
  Lifetime& l = lifetimes_[dst_id];
  const bool fresh = l.clock == kNoSnap && l.last.e1.lt == kNoLifetime;
  const VC& sv = snap_vc(snap);
  if (sv.empty() || snap == l.clock) {
    snap_unref(snap);  // nothing to learn (or a self round trip)
  } else if (l.clock == kNoSnap) {
    // Fresh receiver (the dominant case: a task spawned into a brand-new
    // thread context): adopt the sender's snapshot, inheriting the caller's
    // ref. No scan, no copy, no allocation — and if no other snapshot pins
    // the slot, later spills may extend it in place (see absorb).
    l.clock = snap;
  } else {
    clock_join(dst_id, sv, nullptr);
    snap_unref(snap);
  }
  if (host_ep > l.host_ep) l.host_ep = host_ep;
  if (fresh) {
    // A never-written inline window can take the sender's verbatim: it is
    // already deduped and host-free (absorb maintains both invariants), and
    // every claim in it transfers transitively through this message. Stale
    // entries it may carry are vacuous (epoch < that slot's base_epoch), so
    // skipping the per-entry deadness probe here trades two random Lifetime
    // loads per message for nothing but slot hygiene.
    l.last = ext;
  } else {
    // Oldest to newest, so absorb's spill policy keeps the freshest inline.
    if (ext.e0.lt != kNoLifetime) absorb(dst_id, ext.e0);
    if (ext.e1.lt != kNoLifetime) absorb(dst_id, ext.e1);
  }
  if (src.lt != kNoLifetime && !prunable(src.lt))
    absorb(dst_id, VCEntry{src.lt, src.epoch});
}

Checker::SnapId Checker::clock_snapshot(LifetimeId lt) {
  // Clocks are immutable pool slots, so "snapshotting" a sender's clock for a
  // message in flight is a refcount bump — no copy, no allocation.
  const SnapId id = lifetimes_[lt].clock;
  snap_ref(id);
  return id;
}

void Checker::stamp_ref(LifetimeId lt) {
  if (lt != kHostLifetime && lt != kNoLifetime) ++lifetimes_[lt].refs;
}

void Checker::stamp_unref(LifetimeId lt) {
  if (lt == kHostLifetime || lt == kNoLifetime) return;
  Lifetime& l = lifetimes_[lt];
  if (l.refs > 0 && --l.refs == 0 && !l.alive && !l.retired)
    retire(lt);
}

void Checker::set_stamp(Stamp& slot, const Stamp& s) {
  stamp_ref(s.lt);
  stamp_unref(slot.lt);
  slot = s;
}

void Checker::add_reader(ShadowCell& cell, const Stamp& s, const ClockView& view) {
  if (cell.read0.lt == s.lt) {  // same chain: the newer epoch supersedes
    cell.read0 = s;
    return;
  }
  if (cell.read0.lt == kNoLifetime) {
    stamp_ref(s.lt);
    cell.read0 = s;
    return;
  }
  if (cell.overflow == kNoOverflow) {
    // If the resident reader happens-before the new one, the new reader
    // supersedes it: any later write ordered after the new reader is ordered
    // after the old one too (transitivity), so no race is lost.
    if (ordered(cell.read0, s.lt, view)) {
      set_stamp(cell.read0, s);
      return;
    }
    // Genuinely concurrent second reader: promote to a pooled overflow list.
    std::uint32_t slot;
    if (!reader_pool_free_.empty()) {
      slot = reader_pool_free_.back();
      reader_pool_free_.pop_back();
    } else {
      slot = static_cast<std::uint32_t>(reader_pool_.size());
      reader_pool_.emplace_back();
      note_shadow_bytes(kMaxReaders * sizeof(Stamp));
    }
    cell.overflow = slot;
    auto& rs = reader_pool_[slot];
    rs.clear();
    stamp_ref(s.lt);
    rs.push_back(s);
    return;
  }
  auto& rs = reader_pool_[cell.overflow];
  for (Stamp& r : rs) {
    if (r.lt == s.lt) {
      r = s;
      return;
    }
  }
  if (1 + rs.size() >= kMaxReaders) {
    stamp_unref(rs.front().lt);
    rs.erase(rs.begin());
  }
  stamp_ref(s.lt);
  rs.push_back(s);
}

void Checker::clear_readers(ShadowCell& cell) {
  if (cell.read0.lt != kNoLifetime) {
    stamp_unref(cell.read0.lt);
    cell.read0.lt = kNoLifetime;
  }
  if (cell.overflow != kNoOverflow) {
    auto& rs = reader_pool_[cell.overflow];
    for (const Stamp& r : rs) stamp_unref(r.lt);
    rs.clear();
    reader_pool_free_.push_back(cell.overflow);
    cell.overflow = kNoOverflow;
  }
}

// ---- Lifetimes -------------------------------------------------------------

Checker::LifetimeId Checker::new_lifetime(NetworkId nwid, ThreadId tid, EventLabel label,
                                          Tick t) {
  LifetimeId id;
  if (!free_ids_.empty()) {
    id = free_ids_.back();
    free_ids_.pop_back();
  } else {
    lifetimes_.emplace_back();
    id = static_cast<LifetimeId>(lifetimes_.size() - 1);
  }
  Lifetime& l = lifetimes_[id];
  // epoch and base_epoch continue across occupancies: every stamp of this
  // occupancy sits at or above base_epoch, which is what keeps un-refcounted
  // clock entries from earlier occupancies recognizably stale.
  snap_clear(l.clock);
  l.last = InlineVC{};
  l.host_ep = 0;
  l.refs = 0;
  l.alive = true;
  l.retired = false;
  l.nwid = nwid;
  l.tid = tid;
  l.create_label = label;
  l.created_at = t;
  l.create_seq = ++create_seq_;
  return id;
}

void Checker::retire(LifetimeId lt) {
  Lifetime& l = lifetimes_[lt];
  l.base_epoch = l.epoch;
  snap_clear(l.clock);
  if (l.nwid < slot_lt_.size()) {
    auto& v = slot_lt_[l.nwid];
    if (l.tid < v.size() && v[l.tid] == lt) v[l.tid] = kNoLifetime;
  }
  l.retired = true;
  free_ids_.push_back(lt);
}

void Checker::maybe_retire(LifetimeId lt) {
  if (lt == kHostLifetime || lt == kNoLifetime) return;
  Lifetime& l = lifetimes_[lt];
  if (!l.alive && l.refs == 0 && !l.retired) retire(lt);
}

Checker::LifetimeId& Checker::slot_lifetime(NetworkId nwid, ThreadId tid) {
  if (nwid >= slot_lt_.size()) slot_lt_.resize(static_cast<std::size_t>(nwid) + 1);
  auto& v = slot_lt_[nwid];
  if (tid >= v.size()) v.resize(static_cast<std::size_t>(tid) + 1, kNoLifetime);
  return v[tid];
}

bool Checker::slot_alive(NetworkId nwid, ThreadId tid) const {
  if (nwid >= slot_lt_.size()) return false;
  const auto& v = slot_lt_[nwid];
  if (tid >= v.size()) return false;
  const LifetimeId lt = v[tid];
  return lt != kNoLifetime && lifetimes_[lt].alive;
}

// ---- Shadow memory ---------------------------------------------------------

void Checker::note_shadow_bytes(std::uint64_t bytes) {
  shadow_bytes_ += bytes;
  if (shadow_bytes_ > shadow_peak_bytes_) shadow_peak_bytes_ = shadow_bytes_;
}

Checker::ShadowPage& Checker::dram_page(std::uint64_t page) {
  if (page >= dram_shadow_.size()) dram_shadow_.resize(page + 1);
  auto& p = dram_shadow_[page];
  if (!p) {
    p = std::make_unique<ShadowPage>();
    note_shadow_bytes(sizeof(ShadowPage));
  }
  return *p;
}

Checker::ShadowCell& Checker::sp_cell(NetworkId lane, std::uint64_t word) {
  if (lane >= sp_shadow_.size()) sp_shadow_.resize(static_cast<std::size_t>(lane) + 1);
  auto& v = sp_shadow_[lane];
  if (!v) {
    const std::size_t nwords =
        static_cast<std::size_t>(m_.config().scratchpad_bytes / 8);
    v = std::make_unique<std::vector<ShadowCell>>(nwords);
    note_shadow_bytes(nwords * sizeof(ShadowCell));
  }
  return (*v)[word];
}

// ---- Diagnostics -----------------------------------------------------------

std::string Checker::ev_name(EventLabel label) const {
  if (label == 0 || label > m_.program().size()) return strfmt("<label %u>", label);
  return m_.program().def(label).name;
}

std::string Checker::where(const Stamp& s) const {
  if (s.lt == kHostLifetime)
    return strfmt("host send @%llu", static_cast<unsigned long long>(s.tick));
  const Lifetime& l = lifetimes_[s.lt];
  return strfmt("[NWID %u][TID %u] %s @%llu", l.nwid, l.tid, ev_name(s.label).c_str(),
                static_cast<unsigned long long>(s.tick));
}

void Checker::diag(CheckDiagnostic d) {
  if (diags_.size() >= kMaxStoredDiags) {
    ++dropped_diags_;
    return;
  }
  std::fprintf(stderr, "[UDCHECK] %s %s: %s\n", d.error ? "ERROR" : "warning",
               check_kind_name(d.kind), d.message.c_str());
  diags_.push_back(std::move(d));
}

Checker::MsgMeta& Checker::msg_meta(std::uint32_t idx) {
  if (idx >= msg_meta_.size()) msg_meta_.resize(static_cast<std::size_t>(idx) + 1);
  return msg_meta_[idx];
}

Checker::DramMeta& Checker::dram_meta(std::uint32_t idx) {
  if (idx >= dram_meta_.size()) dram_meta_.resize(static_cast<std::size_t>(idx) + 1);
  return dram_meta_[idx];
}

// ---- Meta lifecycle --------------------------------------------------------

void Checker::acquire_msg_refs(MsgMeta& meta) {
  stamp_ref(meta.stamp.lt);
  stamp_ref(meta.target);
  meta.holds_refs = true;
}

void Checker::release_msg_meta(MsgMeta& meta) {
  if (meta.holds_refs) {
    meta.holds_refs = false;
    stamp_unref(meta.stamp.lt);
    stamp_unref(meta.target);
  }
  snap_clear(meta.snap);
}

// ---- Continuation obligations ----------------------------------------------

void Checker::register_cont(Word cont, NetworkId lane, Tick t) {
  PendingCont& p = pending_conts_[cont];
  if (p.count == 0) {
    p.first_tick = t;
    p.lane = lane;
    p.label = evw::label(cont);
  }
  ++p.count;
}

bool Checker::discharge_cont(Word w) {
  if (pending_conts_.empty()) return false;  // hot path: no obligations open
  auto it = pending_conts_.find(w);
  if (it == pending_conts_.end()) return false;
  if (--it->second.count == 0) pending_conts_.erase(it);
  return true;
}

// ---- Routing hooks ---------------------------------------------------------

void Checker::on_bad_route(Word evw_word, Tick depart) {
  ++counts_.bad_event_words;
  Stamp s = origin_stamp_;
  s.tick = depart;
  diag({CheckKind::kBadEventWord, true, depart,
        origin_ == Origin::kTask ? lifetimes_[s.lt].nwid : NetworkId{0},
        origin_ == Origin::kTask ? lifetimes_[s.lt].tid : ThreadId{0},
        evw::label(evw_word), 0, 0,
        strfmt("event word 0x%llx addresses NWID %u beyond the machine's %llu lanes "
               "(sent by %s); message dropped",
               static_cast<unsigned long long>(evw_word), evw::nwid(evw_word),
               static_cast<unsigned long long>(m_.config().total_lanes()),
               origin_ == Origin::kHost ? "the host" : where(s).c_str())});
}

void Checker::on_route_message(std::uint32_t idx, Tick depart) {
  MsgMeta& meta = msg_meta(idx);
  const Message& m = m_.shard0().msg_pool[idx];
  // A fresh assignment (not a full release) on purpose: a stale slot left
  // over from an aborted run may claim lifetime refs that were already
  // reconciled — those leak conservatively until the next idle report instead
  // of underflowing. Snap slots reconcile nowhere else, so drop theirs here.
  snap_unref(meta.snap);
  meta = MsgMeta{};

  switch (origin_) {
    case Origin::kDramReply:
      meta.stamp = origin_stamp_;
      snap_assign(meta.snap, origin_snap_);
      meta.ext = origin_ext_;
      meta.host_ep = origin_host_ep_;
      meta.from_dram = true;
      meta.cont_pending = origin_cont_pending_;
      break;
    case Origin::kTask: {
      Lifetime& l = lifetimes_[origin_stamp_.lt];
      meta.stamp = origin_stamp_;
      meta.stamp.epoch = l.epoch;
      meta.stamp.era = era_;
      meta.stamp.tick = depart;
      meta.snap = clock_snapshot(origin_stamp_.lt);
      meta.ext = l.last;
      meta.host_ep = l.host_ep;
      ++l.epoch;  // release: later accesses in this task are not covered
      break;
    }
    case Origin::kHost:
    case Origin::kNone:
    default: {
      Lifetime& h = lifetimes_[kHostLifetime];
      meta.stamp = Stamp{kHostLifetime, h.epoch, era_, 0, depart};
      meta.snap = clock_snapshot(kHostLifetime);
      ++h.epoch;
      break;
    }
  }

  if (!meta.from_dram) {
    // Sending to a continuation word fires the obligation; passing a pending
    // continuation along as this message's cont transfers it (the receiver
    // re-registers it at delivery).
    discharge_cont(m.evw);
    if (m.cont != IGNRCONT) discharge_cont(m.cont);

    if (m.nops > kPlainMessageOperands) {
      ++counts_.operand_overflows;
      diag({CheckKind::kOperandOverflow, true, depart, evw::nwid(m.evw), evw::tid(m.evw),
            evw::label(m.evw), 0, 0,
            strfmt("message to %s carries %u operands; plain messages are 64 bytes "
                   "(6 operands max, only DRAM replies carry 8) — sent by %s",
                   ev_name(evw::label(m.evw)).c_str(), m.nops, where(meta.stamp).c_str())});
    }
  }

  if (!evw::is_new_thread(m.evw)) {
    const NetworkId dst = evw::nwid(m.evw);
    const ThreadId tid = evw::tid(m.evw);
    if (!slot_alive(dst, tid)) {
      ++counts_.dead_thread_sends;
      diag({CheckKind::kSendToDeadThread, true, depart, dst, tid, evw::label(m.evw), 0, 0,
            strfmt("event %s addressed to dead thread context [NWID %u][TID %u] "
                   "(sent by %s); delivery suppressed",
                   ev_name(evw::label(m.evw)).c_str(), dst, tid,
                   where(meta.stamp).c_str())});
      meta.suppress = true;
    } else {
      meta.target = slot_lt_[dst][tid];
    }
  }
  acquire_msg_refs(meta);
}

void Checker::on_route_dram(std::uint32_t idx, bool addr_mapped, Tick depart) {
  DramMeta& meta = dram_meta(idx);
  const DramRequest& r = m_.shard0().dram_pool[idx];
  snap_unref(meta.snap);  // see on_route_message: stale-slot conservatism
  meta = DramMeta{};
  switch (origin_) {
    case Origin::kTask: {
      Lifetime& l = lifetimes_[origin_stamp_.lt];
      meta.stamp = origin_stamp_;
      meta.stamp.epoch = l.epoch;
      meta.stamp.era = era_;
      meta.stamp.tick = depart;
      meta.snap = clock_snapshot(origin_stamp_.lt);
      meta.ext = l.last;
      meta.host_ep = l.host_ep;
      ++l.epoch;
      break;
    }
    default: {  // DRAM traffic normally originates in tasks; host is the fallback
      Lifetime& h = lifetimes_[kHostLifetime];
      meta.stamp = Stamp{kHostLifetime, h.epoch, era_, 0, depart};
      meta.snap = clock_snapshot(kHostLifetime);
      ++h.epoch;
      break;
    }
  }
  meta.addr_mapped = addr_mapped;
  meta.cont_pending =
      r.reply_evw != 0 && r.reply_cont != IGNRCONT && discharge_cont(r.reply_cont);
  // The in-flight request pins the requester's lifetime: its clock entries in
  // other threads must survive until the access is stamped into shadow state,
  // or a prune would turn an ordered access into a false race.
  stamp_ref(meta.stamp.lt);
  meta.holds_ref = true;
}

// ---- Delivery / execution hooks --------------------------------------------

bool Checker::on_pre_deliver(std::uint32_t idx, Tick start) {
  MsgMeta& meta = msg_meta(idx);
  const Message& m = m_.shard0().msg_pool[idx];
  if (meta.suppress) {
    release_msg_meta(meta);
    return false;
  }
  const EventLabel label = evw::label(m.evw);
  if (label == 0 || label > m_.program().size()) {
    ++counts_.bad_event_words;
    diag({CheckKind::kBadEventWord, true, start, evw::nwid(m.evw), evw::tid(m.evw), label,
          0, 0,
          strfmt("event word 0x%llx carries invalid label %u (program has %zu events); "
                 "sent by %s",
                 static_cast<unsigned long long>(m.evw), label, m_.program().size(),
                 where(meta.stamp).c_str())});
    release_msg_meta(meta);
    return false;
  }
  if (!evw::is_new_thread(m.evw)) {
    const NetworkId lane = evw::nwid(m.evw);
    const ThreadId tid = evw::tid(m.evw);
    if (!slot_alive(lane, tid)) {
      ++counts_.dead_thread_sends;
      diag({CheckKind::kSendToDeadThread, true, start, lane, tid, label, 0, 0,
            strfmt("event %s delivered to [NWID %u][TID %u], but the thread "
                   "terminated while the message was in flight (sent by %s)",
                   ev_name(label).c_str(), lane, tid, where(meta.stamp).c_str())});
      release_msg_meta(meta);
      return false;
    }
    if (meta.target != kNoLifetime && slot_lt_[lane][tid] != meta.target) {
      const Lifetime& cur = lifetimes_[slot_lt_[lane][tid]];
      ++counts_.stale_deliveries;
      diag({CheckKind::kStaleDelivery, true, start, lane, tid, label, 0, 0,
            strfmt("stale delivery of %s to [NWID %u][TID %u]: the addressed thread "
                   "died and its context was recycled (now a %s thread created @%llu); "
                   "sent by %s",
                   ev_name(label).c_str(), lane, tid, ev_name(cur.create_label).c_str(),
                   static_cast<unsigned long long>(cur.created_at),
                   where(meta.stamp).c_str())});
      release_msg_meta(meta);
      return false;
    }
  }
  return true;
}

void Checker::on_class_mismatch(std::uint32_t idx, NetworkId lane, ThreadId tid,
                                Tick start) {
  MsgMeta& meta = msg_meta(idx);
  const EventLabel label = evw::label(m_.shard0().msg_pool[idx].evw);
  ++counts_.bad_event_words;
  diag({CheckKind::kBadEventWord, true, start, lane, tid, label, 0, 0,
        strfmt("event %s delivered to [NWID %u][TID %u], a thread of another class; "
               "sent by %s — delivery suppressed",
               ev_name(label).c_str(), lane, tid, where(meta.stamp).c_str())});
  release_msg_meta(meta);
}

void Checker::on_task_begin(std::uint32_t idx, NetworkId lane, ThreadId tid,
                            EventLabel label, Tick start, bool new_thread) {
  MsgMeta& meta = msg_meta(idx);
  const Word cont = m_.shard0().msg_pool[idx].cont;
  LifetimeId lt;
  if (new_thread) {
    lt = new_lifetime(lane, tid, label, start);
    slot_lifetime(lane, tid) = lt;
  } else {
    lt = slot_lifetime(lane, tid);
  }
  const SnapId snap = meta.snap;
  meta.snap = kNoSnap;  // the meta's pool ref transfers to join_into
  join_into(lt, snap, meta.ext, meta.host_ep, meta.stamp);

  if (cont != IGNRCONT && (!meta.from_dram || meta.cont_pending))
    register_cont(cont, lane, start);

  origin_ = Origin::kTask;
  origin_stamp_ = Stamp{lt, lifetimes_[lt].epoch, era_, label, start};
  snap_clear(origin_snap_);
  release_msg_meta(meta);
}

void Checker::on_task_end(NetworkId lane, ThreadId tid, bool terminated) {
  if (terminated) {
    const LifetimeId lt = slot_lifetime(lane, tid);
    Lifetime& l = lifetimes_[lt];
    l.alive = false;
    snap_clear(l.clock);  // free the clock; outstanding stamps keep epoch/refs
    maybe_retire(lt);  // no stamps outstanding: recycle the id immediately
  }
  origin_ = Origin::kNone;
}

bool Checker::on_dram_exec(std::uint32_t idx, Tick now) {
  DramMeta& meta = dram_meta(idx);
  const DramRequest& r = m_.shard0().dram_pool[idx];
  const GlobalMemory& mem = m_.memory();

  // 1. Lifetime sanitize: every word of the request must fall in a live
  //    region (a request may legally span two adjacent regions only if both
  //    are live). The common whole-request-in-one-region case is one lookup.
  //    One diagnostic per request; the whole access is suppressed.
  const SwizzleDescriptor* d = mem.find_live(r.addr);
  const Addr end = r.addr + 8ull * r.nwords;
  if (!(d && end <= d->end())) {
    for (unsigned i = 0; i < r.nwords; ++i) {
      const Addr va = r.addr + 8ull * i;
      if (mem.find_live(va)) continue;
      const Stamp& s = meta.stamp;
      const char* op = r.is_write ? "write" : "read";
      const NetworkId nw = s.lt == kHostLifetime ? NetworkId{0} : lifetimes_[s.lt].nwid;
      const ThreadId td = s.lt == kHostLifetime ? ThreadId{0} : lifetimes_[s.lt].tid;
      if (const FreedRegion* freed = mem.find_freed(va)) {
        ++counts_.use_after_free;
        diag({CheckKind::kUseAfterFree, true, now, nw, td, s.label, va, freed->alloc_seq,
              strfmt("use-after-free: DRAM %s of %u word(s) at va=0x%llx hits freed "
                     "region alloc #%llu [0x%llx, 0x%llx) retired by free #%llu; "
                     "requested by %s — access suppressed",
                     op, r.nwords, static_cast<unsigned long long>(va),
                     static_cast<unsigned long long>(freed->alloc_seq),
                     static_cast<unsigned long long>(freed->base),
                     static_cast<unsigned long long>(freed->base + freed->size),
                     static_cast<unsigned long long>(freed->free_seq), where(s).c_str())});
      } else {
        ++counts_.out_of_bounds;
        diag({CheckKind::kOutOfBounds, true, now, nw, td, s.label, va, 0,
              strfmt("out-of-bounds DRAM %s of %u word(s) at va=0x%llx: no live "
                     "translation descriptor covers it; requested by %s — access "
                     "suppressed",
                     op, r.nwords, static_cast<unsigned long long>(va), where(s).c_str())});
      }
      return false;
    }
  }

  // 2. Race-check each word at the requester's send-time clock. Resolve the
  //    shadow page once per crossing: an 8-word run touches one, at most
  //    two, pages instead of paying a hash probe per word.
  Stamp cur = meta.stamp;
  cur.tick = now;
  const ClockView view{&snap_vc(meta.snap), meta.ext, meta.host_ep};
  std::uint64_t w = r.addr >> 3;
  std::uint64_t curp = ~std::uint64_t{0};
  ShadowPage* pg = nullptr;
  for (unsigned i = 0; i < r.nwords; ++i, ++w) {
    const std::uint64_t p = w >> kShadowPageShift;
    if (p != curp) {
      pg = &dram_page(p);
      curp = p;
    }
    check_access(pg->cells[w & (kShadowPageWords - 1)], cur, view, r.is_write, false,
                 r.addr + 8ull * i);
  }
  return true;
}

void Checker::begin_dram_reply(std::uint32_t idx) {
  const DramMeta& meta = dram_meta(idx);
  origin_ = Origin::kDramReply;
  origin_stamp_ = meta.stamp;
  snap_assign(origin_snap_, meta.snap);
  origin_ext_ = meta.ext;
  origin_host_ep_ = meta.host_ep;
  origin_cont_pending_ = meta.cont_pending;
}

void Checker::on_dram_done(std::uint32_t idx) {
  DramMeta& meta = dram_meta(idx);
  if (meta.holds_ref) {
    meta.holds_ref = false;
    stamp_unref(meta.stamp.lt);
  }
  snap_clear(meta.snap);
  meta.ext = InlineVC{};
  meta.host_ep = 0;
  origin_ = Origin::kNone;
  snap_clear(origin_snap_);
  origin_ext_ = InlineVC{};
  origin_host_ep_ = 0;
}

bool Checker::on_sp_access(NetworkId lane, std::uint64_t offset, std::size_t bytes,
                           bool is_write, Tick now) {
  if (offset + bytes > m_.config().scratchpad_bytes) {
    ++counts_.out_of_bounds;
    const NetworkId nw = origin_ == Origin::kTask ? lifetimes_[origin_stamp_.lt].nwid : lane;
    const ThreadId td = origin_ == Origin::kTask ? lifetimes_[origin_stamp_.lt].tid : ThreadId{0};
    diag({CheckKind::kOutOfBounds, true, now, nw, td, origin_stamp_.label, offset, 0,
          strfmt("scratchpad %s at offset 0x%llx (+%zu) beyond the lane's %llu-byte "
                 "scratchpad, in %s — access suppressed",
                 is_write ? "write" : "read", static_cast<unsigned long long>(offset),
                 bytes, static_cast<unsigned long long>(m_.config().scratchpad_bytes),
                 where(origin_stamp_).c_str())});
    return false;
  }
  if (sp_strict_ && origin_ == Origin::kTask) {
    Stamp cur = origin_stamp_;
    cur.epoch = lifetimes_[cur.lt].epoch;
    cur.era = era_;
    cur.tick = now;
    const Lifetime& l = lifetimes_[cur.lt];
    const ClockView view{&snap_vc(l.clock), l.last, l.host_ep};
    check_access(sp_cell(lane, offset >> 3), cur, view, is_write, true, offset);
  }
  return true;
}

void Checker::on_sync_release(NetworkId lane, std::uint64_t slot) {
  if (origin_ != Origin::kTask) return;
  VC& cell = sync_clocks_[(static_cast<std::uint64_t>(lane) << 32) | slot];
  Lifetime& l = lifetimes_[origin_stamp_.lt];
  merge_vc(cell, snap_vc(l.clock), kNoLifetime);
  if (l.last.e0.lt != kNoLifetime && !dead_entry(l.last.e0))
    vc_upsert(cell, l.last.e0.lt, l.last.e0.epoch);
  if (l.last.e1.lt != kNoLifetime && !dead_entry(l.last.e1))
    vc_upsert(cell, l.last.e1.lt, l.last.e1.epoch);
  // The host chain lives in a scalar on the lifetime, not in its clock; a
  // sync cell is a plain VC, so publish it as an ordinary (host, ep) entry.
  if (l.host_ep != 0) vc_upsert(cell, kHostLifetime, l.host_ep);
  vc_upsert(cell, origin_stamp_.lt, l.epoch);
  ++l.epoch;  // release: later accesses are not published through this cell
}

void Checker::on_sync_acquire(NetworkId lane, std::uint64_t slot) {
  if (origin_ != Origin::kTask) return;
  const auto it = sync_clocks_.find((static_cast<std::uint64_t>(lane) << 32) | slot);
  if (it == sync_clocks_.end()) return;
  // Strip the (host, ep) entry back out into the acquirer's scalar: lifetime
  // clocks never carry host entries (that would poison every empty-clock fast
  // path). The cell VC is sorted by lifetime id and host is id 0, so it can
  // only sit at the front.
  const VC& cv = it->second;
  Lifetime& l = lifetimes_[origin_stamp_.lt];
  std::size_t off = 0;
  if (!cv.empty() && cv[0].lt == kHostLifetime) {
    if (cv[0].epoch > l.host_ep) l.host_ep = cv[0].epoch;
    off = 1;
  }
  if (off < cv.size()) {
    // clock_join scans its src while building into scratch_vc_, so the
    // stripped copy needs its own scratch buffer.
    sync_scratch_vc_.assign(cv.begin() + off, cv.end());
    clock_join(origin_stamp_.lt, sync_scratch_vc_, nullptr);
  }
}

void Checker::check_access(ShadowCell& cell, const Stamp& cur, const ClockView& view,
                           bool is_write, bool is_sp, Addr va) {
  const auto racy = [&](const Stamp& prev) {
    return prev.lt != kNoLifetime && !ordered(prev, cur.lt, view);
  };
  const Stamp* conflict = nullptr;
  bool conflict_write = false;
  if (racy(cell.write)) {
    conflict = &cell.write;
    conflict_write = true;
  } else if (is_write) {
    if (racy(cell.read0)) {
      conflict = &cell.read0;
    } else if (cell.overflow != kNoOverflow) {
      for (const Stamp& r : reader_pool_[cell.overflow]) {
        if (racy(r)) {
          conflict = &r;
          break;
        }
      }
    }
  }
  if (conflict) {
    std::uint64_t& counter = is_sp ? counts_.sp_races : counts_.data_races;
    ++counter;
    const Lifetime& l = lifetimes_[cur.lt];
    diag({is_sp ? CheckKind::kSpRace : CheckKind::kDataRace, true, cur.tick, l.nwid,
          l.tid, cur.label, va, 0,
          strfmt("%s on %s %s=0x%llx: %s by %s is unordered with %s by %s",
                 is_sp ? "ordering hazard" : "data race",
                 is_sp ? "scratchpad" : "DRAM", is_sp ? "offset" : "va",
                 static_cast<unsigned long long>(va), is_write ? "write" : "read",
                 where(cur).c_str(), conflict_write ? "write" : "read",
                 where(*conflict).c_str())});
  }
  if (is_write) {
    set_stamp(cell.write, cur);
    clear_readers(cell);
  } else {
    add_reader(cell, cur, view);
  }
}

// ---- MemoryObserver ---------------------------------------------------------

void Checker::on_alloc(const SwizzleDescriptor&) {}

void Checker::on_free(const SwizzleDescriptor&, std::uint64_t) {
  // Freed VAs are never re-allocated (the VA brk only grows), so stale shadow
  // cells in the region are harmless: any later touch is flagged as a
  // use-after-free before the race check runs.
}

void Checker::on_bad_free(Addr base, bool double_free, const std::string& detail) {
  const std::string head = detail.substr(0, detail.find('\n'));
  ++counts_.bad_frees;
  diag({CheckKind::kBadFree, true, m_.now(), 0, 0, 0, base, 0,
        double_free ? head : head + " (never a dram_malloc result)"});
}

// ---- Reporting --------------------------------------------------------------

void Checker::report() {
  // Leaked threads: in this DSL a handler return is an implicit yield that
  // keeps the context allocated; a thread nothing ever terminates surfaces
  // here as a quiescence leak. The creation sequence number is the thread's
  // alloc-site id, same idea as dram_malloc's alloc #N.
  for (NetworkId nw = 0; nw < slot_lt_.size(); ++nw) {
    for (ThreadId tid = 0; tid < slot_lt_[nw].size(); ++tid) {
      const LifetimeId lt = slot_lt_[nw][tid];
      if (lt == kNoLifetime || !lifetimes_[lt].alive) continue;
      if (std::find(leak_reported_.begin(), leak_reported_.end(), lt) !=
          leak_reported_.end())
        continue;
      leak_reported_.push_back(lt);
      ++counts_.leaked_threads;
      const Lifetime& l = lifetimes_[lt];
      std::string msg =
          strfmt("thread context [NWID %u][TID %u] (%s thread, creation #%llu "
                 "@%llu on lane %u) is still live at drain: some handler returned "
                 "without yield_terminate and nothing will ever address it again",
                 nw, tid, ev_name(l.create_label).c_str(),
                 static_cast<unsigned long long>(l.create_seq),
                 static_cast<unsigned long long>(l.created_at), l.nwid);
      // Multi-tenant attribution: name the job whose lane partition leaked.
      if (lane_annotator_) {
        const std::string owner = lane_annotator_(l.nwid);
        if (!owner.empty()) msg += " [job: " + owner + "]";
      }
      diag({CheckKind::kLeakedThread, true, m_.now(), nw, tid, l.create_label,
            0, l.create_seq, std::move(msg)});
    }
  }

  // Fresh drain-state gauges (recomputed each report, not accumulated).
  counts_.undelivered_messages = m_.shard0().queue.size();
  if (counts_.undelivered_messages) {
    diag({CheckKind::kUndeliveredMessages, true, m_.now(), 0, 0, 0, 0, 0,
          strfmt("report with %llu message(s) still queued: the machine is not "
                 "quiescent",
                 static_cast<unsigned long long>(counts_.undelivered_messages))});
  }
  counts_.leaked_allocations = m_.memory().live_descriptors().size();
  counts_.unfired_continuations = 0;
  for (const auto& [w, p] : pending_conts_) {
    counts_.unfired_continuations += p.count;
    if (std::find(cont_reported_.begin(), cont_reported_.end(), w) !=
        cont_reported_.end())
      continue;
    cont_reported_.push_back(w);
    diag({CheckKind::kUnfiredContinuation, false, m_.now(), p.lane, 0, p.label, 0, 0,
          strfmt("continuation word 0x%llx (-> %s) first delivered @%llu on NWID %u "
                 "was never fired (%u obligation(s)): the caller's return event "
                 "will not run",
                 static_cast<unsigned long long>(w), ev_name(p.label).c_str(),
                 static_cast<unsigned long long>(p.first_tick), p.lane, p.count)});
  }

  counts_.enabled = true;
  counts_.sp_strict = sp_strict_;
  counts_.shadow_peak_bytes = shadow_peak_bytes_;
  m_.stats_.check = counts_;

  if (counts_.errors() || dropped_diags_) {
    std::fprintf(stderr,
                 "[UDCHECK] summary: %llu error(s), %llu warning(s)%s\n",
                 static_cast<unsigned long long>(counts_.errors()),
                 static_cast<unsigned long long>(counts_.warnings()),
                 dropped_diags_ ? strfmt(" (%llu diagnostics dropped)",
                                         static_cast<unsigned long long>(dropped_diags_))
                                      .c_str()
                                : "");
  }

  // A full drain is a global barrier: everything executed before it
  // happens-before everything after, so cross-phase host driving can never
  // race with the previous phase. Sync cells carry no cross-era information.
  ++era_;
  sync_clocks_.clear();

  if (m_.idle()) {
    // Full shadow wipe at quiescence. Every pre-drain stamp is ordered before
    // everything the next era runs (the era check in ordered()), so the
    // shadow carries no information forward — drop it, release the refcounts
    // it held (at idle, shadow stamps and leftover metadata slots are the
    // only holders), and retire every dead lifetime so the id space is
    // compact again for the next phase.
    dram_shadow_.clear();
    for (auto& v : sp_shadow_) v.reset();
    reader_pool_.clear();
    reader_pool_free_.clear();
    shadow_bytes_ = 0;  // the peak gauge survives
    // The snapshot pool is dropped wholesale (clocks carry no cross-era
    // information: the era check already orders everything pre-drain before
    // everything after), so every SnapId holder must be nulled first.
    for (auto& mm : msg_meta_) {
      mm.snap = kNoSnap;
      mm.ext = InlineVC{};
      mm.host_ep = 0;
      mm.holds_refs = false;
    }
    for (auto& dm : dram_meta_) {
      dm.snap = kNoSnap;
      dm.ext = InlineVC{};
      dm.host_ep = 0;
      dm.holds_ref = false;
    }
    origin_snap_ = kNoSnap;
    origin_ext_ = InlineVC{};
    origin_host_ep_ = 0;
    for (Lifetime& l : lifetimes_) {
      l.clock = kNoSnap;
      l.last = InlineVC{};
      l.host_ep = 0;
    }
    snap_pool_.clear();
    snap_free_.clear();
    for (LifetimeId i = 1; i < lifetimes_.size(); ++i) {
      Lifetime& l = lifetimes_[i];
      l.refs = 0;
      if (!l.alive && !l.retired) retire(i);
    }
  }
}

}  // namespace updown
