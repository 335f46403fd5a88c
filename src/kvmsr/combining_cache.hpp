// Combining cache: the paper's software fetch&add (footnote 1: "implemented
// in UDWeave; it is not a hardware primitive. The implementation caches the
// value in the scratchpad for high performance and provides atomicity").
//
// Additions for a global address accumulate in a lane-local (scratchpad)
// table; atomicity follows from lane event atomicity plus the Hash reduce
// binding, which routes every tuple for a given key to the same lane. The
// flush event — designed to plug into JobSpec::flush — drains the table with
// windowed read-modify-write chains through the simulated DRAM and replies to
// the KVMSR master when its lane is clean.
//
// This is the one place KVMSR jobs aggregate: on the RECEIVING lane, after
// the per-tuple shuffle, across the whole job. Nothing merges tuples before
// they ship.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "sim/machine.hpp"
#include "udweave/context.hpp"

namespace updown::kvmsr {

class CombiningCache {
 public:
  static CombiningCache& install(Machine& m);

  explicit CombiningCache(Machine& m);

  /// Slot owner tag for single-tenant use: untagged slots are drained by ANY
  /// job's flush (the pre-multi-tenant behavior, and still the right choice
  /// when one job owns the machine).
  static constexpr Word kUntagged = ~0ull;

  /// fetch&add for f64 accumulators (PageRank contributions). `tag` scopes
  /// the slot to one KVMSR job: the flush phase of job J drains only slots
  /// tagged J (or untagged), so with concurrent jobs sharing a lane, job A's
  /// flush cannot commit job B's pending adds — B's accumulator writes stay
  /// ordered behind B's own flush->master->continuation chain, which is what
  /// keeps checked multi-tenant runs race-free. Callers owning the whole
  /// machine may keep the default.
  void add_f64(Ctx& ctx, Addr addr, double delta, Word tag = kUntagged);
  /// fetch&add for u64 counters (triangle counts, histogram bins).
  void add_u64(Ctx& ctx, Addr addr, Word delta, Word tag = kUntagged);

  /// Event label of the per-lane flush thread; pass as JobSpec::flush.
  EventLabel flush_label() const { return flush_; }

  std::size_t entries(NetworkId lane) const { return per_lane_.at(lane).size(); }
  std::uint64_t total_flushed() const { return total_flushed_; }

 private:
  friend struct CacheFlushThread;

  struct Slot {
    Word bits = 0;       ///< accumulated value (f64 or u64 bit pattern)
    Word tag = kUntagged;///< owning KVMSR job (kUntagged = any flush drains)
    bool is_f64 = false;
  };
  using LaneMap = std::unordered_map<Addr, Slot>;

  std::vector<LaneMap> per_lane_;
  EventLabel flush_ = 0;
  EventLabel loaded_ = 0;
  EventLabel written_ = 0;
  // Bumped by flush threads on every lane (= many shards); read host-side
  // after drain.
  std::atomic<std::uint64_t> total_flushed_{0};
};

}  // namespace updown::kvmsr
