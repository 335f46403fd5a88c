// The discrete-event engine's data structures: recycling slab pools for
// event payloads and a two-level calendar queue over slim 24-byte entries.
//
// The original engine kept a binary heap of fat QItems (a full Message plus a
// full DramRequest, ~220 bytes each), so every push/pop percolation moved
// hundreds of bytes and `top()` was copied out wholesale. The overhauled
// engine queues only {tick, seq, pool index, kind} and parks the payload in a
// slab pool until execution:
//
//   - SlabPool<T> hands out stable 32-bit indices into chunked slabs. Slabs
//     are never moved or freed, so references obtained from the pool stay
//     valid while handlers enqueue new work (which may grow the pool).
//     Released indices are recycled LIFO, keeping the working set hot.
//
//   - CalendarEventQueue orders entries by (tick, src, seq): ties at a tick
//     break by the sending entity (lane, per-node DRAM port, or host) and
//     then by that entity's private send counter. Both tie-break components
//     are computed by the sender alone, which is what lets the host-parallel
//     sharded engine (sim/machine.cpp) reproduce the exact same total order
//     for any shard count: no globally-shared sequence counter exists.
//     Near-future events (the overwhelming majority: lane latencies are
//     tens-to-hundreds of ticks) go into a ring of bucket vectors indexed by
//     tick; far-future events (bandwidth-queued DRAM under heavy contention)
//     overflow into a small binary heap that is drained lazily as the
//     calendar window advances. A bucket is sorted once, when the cursor
//     reaches it; entries pushed into it while it drains go to a side
//     min-heap, and a drained bucket hands back storage above a fixed cap.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <memory>
#include <queue>
#include <vector>

#include "common/types.hpp"

namespace updown {

/// Recycling slab allocator with stable storage and 32-bit handles.
template <typename T, unsigned kSlabLog2 = 9>
class SlabPool {
 public:
  static constexpr std::uint32_t kSlabSize = 1u << kSlabLog2;

  /// Take a slot; the object retains whatever state the previous user left
  /// (callers overwrite every field they later read).
  std::uint32_t acquire() {
    if (free_.empty()) grow();
    const std::uint32_t idx = free_.back();
    free_.pop_back();
    ++live_;
#ifndef NDEBUG
    freed_[idx] = false;
#endif
    return idx;
  }

  // A double or out-of-range release would plant a duplicate/bogus index in
  // the free list, and the corruption only surfaces much later as two live
  // payloads sharing a slot. Debug builds keep a freed-bitmap so the bad
  // release itself asserts; release builds stay at zero overhead.
  void release(std::uint32_t idx) {
    assert(live_ > 0);
    assert(idx < capacity() && "SlabPool::release: index out of range");
    assert(!freed_[idx] && "SlabPool::release: double release");
#ifndef NDEBUG
    freed_[idx] = true;
#endif
    free_.push_back(idx);
    --live_;
  }

  T& operator[](std::uint32_t idx) {
    return slabs_[idx >> kSlabLog2][idx & (kSlabSize - 1)];
  }
  const T& operator[](std::uint32_t idx) const {
    return slabs_[idx >> kSlabLog2][idx & (kSlabSize - 1)];
  }

  std::uint32_t live() const { return live_; }
  std::uint32_t capacity() const {
    return static_cast<std::uint32_t>(slabs_.size()) * kSlabSize;
  }

 private:
  void grow() {
    const std::uint32_t base = capacity();
    slabs_.push_back(std::make_unique<T[]>(kSlabSize));
    free_.reserve(free_.size() + kSlabSize);
    // Push in reverse so fresh slabs hand out ascending indices.
    for (std::uint32_t i = kSlabSize; i-- > 0;) free_.push_back(base + i);
#ifndef NDEBUG
    freed_.resize(capacity(), true);  // fresh slots start on the free list
#endif
  }

  std::vector<std::unique_ptr<T[]>> slabs_;
  std::vector<std::uint32_t> free_;
  std::uint32_t live_ = 0;
#ifndef NDEBUG
  std::vector<bool> freed_;  ///< mirrors free-list membership (debug only)
#endif
};

/// A queued event: when it fires, who sent it (entity id + that entity's
/// send counter — the deterministic tie-break), what kind of payload, and
/// where the payload lives in its pool. 24 bytes.
struct QEntry {
  Tick t = 0;
  std::uint32_t src = 0;   ///< sending entity (lane nwid / DRAM port / host)
  std::uint32_t seq = 0;   ///< sender-private send counter
  std::uint32_t index = 0;
  std::uint8_t kind = 0;
};
static_assert(sizeof(QEntry) <= 24, "queue entries must stay slim");

/// Two-level calendar queue ordered by (t, src, seq); ties impossible since
/// (src, seq) is unique per sender.
class CalendarEventQueue {
 public:
  /// @param bucket_width_log2  ticks per bucket (log2)
  /// @param nbuckets_log2      buckets in the calendar ring (log2)
  explicit CalendarEventQueue(unsigned bucket_width_log2 = 4, unsigned nbuckets_log2 = 10)
      : wshift_(bucket_width_log2),
        nbuckets_(1u << nbuckets_log2),
        mask_(nbuckets_ - 1),
        buckets_(nbuckets_) {}

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  void push(const QEntry& e) {
    ++size_;
    std::uint64_t vidx = e.t >> wshift_;
    if (vidx < cur_vidx_) vidx = cur_vidx_;  // past-due events fire immediately
    if (vidx - cur_vidx_ >= nbuckets_) {     // beyond the calendar window
      far_.push(e);
      ++stats_.far_events;
      return;
    }
    ++near_count_;
    if (vidx == cur_vidx_ && cur_sorted_) {
      // The bucket under the cursor is sorted and being drained: the entry
      // joins the side heap, and pop takes the smaller of the two minima.
      side_.push_back(e);
      std::push_heap(side_.begin(), side_.end(), Later{});
      return;
    }
    buckets_[vidx & mask_].push_back(e);
  }

  /// Remove and return the minimum-(t, src, seq) entry. Precondition: !empty().
  QEntry pop() {
    assert(size_ > 0);
    --size_;
    auto& b = advance_to_min();
    --near_count_;
    QEntry e;
    if (side_first(b)) {
      std::pop_heap(side_.begin(), side_.end(), Later{});
      e = side_.back();
      side_.pop_back();
    } else {
      e = b.back();
      b.pop_back();
    }
    if (b.empty() && side_.empty()) {
      cur_sorted_ = false;
      trim(b);
      trim(side_);
    }
    return e;
  }

  /// Tick of the minimum entry without removing it. Precondition: !empty().
  /// The sharded engine uses this to drain a shard only up to the end of the
  /// current lookahead window.
  Tick peek_tick() {
    assert(size_ > 0);
    auto& b = advance_to_min();
    return side_first(b) ? side_.front().t : b.back().t;
  }

  struct Stats {
    std::uint64_t far_events = 0;   ///< pushes that overflowed to the far heap
    std::uint64_t bucket_sorts = 0; ///< lazy bucket sorts performed
  };
  const Stats& stats() const { return stats_; }

  /// Storage a drained bucket keeps, in entries. A burst (every lane of a
  /// large machine starting within a few buckets) grows single buckets to
  /// thousands of entries; without a cap the ring would keep each bucket's
  /// peak for the rest of the run.
  static constexpr std::size_t kKeptEntries = 1024;

  /// Entry slots the ring's buckets and the side heap hold allocated.
  std::size_t capacity() const {
    std::size_t n = side_.capacity();
    for (const auto& b : buckets_) n += b.capacity();
    return n;
  }

 private:
  /// a fires after b: descending order for the sorted buckets (the minimum
  /// sits at the back) and the comparator of the min-heaps.
  struct Later {
    bool operator()(const QEntry& a, const QEntry& b) const {
      if (a.t != b.t) return a.t > b.t;
      if (a.src != b.src) return a.src > b.src;
      return a.seq > b.seq;
    }
  };

  /// Is the current bucket's minimum in the side heap rather than at the
  /// back of the sorted bucket `b`?
  bool side_first(const std::vector<QEntry>& b) const {
    return !side_.empty() && (b.empty() || Later{}(b.back(), side_.front()));
  }

  static void trim(std::vector<QEntry>& v) {
    if (v.capacity() > kKeptEntries) {
      std::vector<QEntry> kept;
      kept.reserve(kKeptEntries);
      v.swap(kept);
    }
  }

  /// Advance the cursor to the first non-empty bucket and return it sorted
  /// (descending, so the minimum entry is at the back). Pushes into it while
  /// it drains wait in the side heap, so the returned bucket may be empty
  /// while the side heap is not. Precondition: the queue holds at least one
  /// entry.
  std::vector<QEntry>& advance_to_min() {
    for (;;) {
      auto& b = buckets_[cur_vidx_ & mask_];
      if (!b.empty() || !side_.empty()) {
        if (!cur_sorted_) {  // the side heap is empty whenever the bucket is unsorted
          if (b.size() > 1) {
            std::sort(b.begin(), b.end(), Later{});
            ++stats_.bucket_sorts;
          }
          cur_sorted_ = true;
        }
        return b;
      }
      cur_sorted_ = false;
      if (near_count_ == 0) {
        // Nothing in the window: jump the calendar straight to the overflow
        // heap's minimum instead of stepping bucket by bucket.
        assert(!far_.empty());
        cur_vidx_ = far_.top().t >> wshift_;
      } else {
        ++cur_vidx_;
      }
      drain_far();
    }
  }

  void drain_far() {
    const Tick limit = (cur_vidx_ + nbuckets_) << wshift_;
    while (!far_.empty() && far_.top().t < limit) {
      const QEntry e = far_.top();
      far_.pop();
      buckets_[(e.t >> wshift_) & mask_].push_back(e);
      ++near_count_;
    }
  }

  unsigned wshift_;
  std::uint64_t nbuckets_;
  std::uint64_t mask_;
  std::vector<std::vector<QEntry>> buckets_;
  /// Min-heap of entries pushed into the bucket under the cursor after it
  /// was sorted. A mid-vector insert would cost O(bucket) per push.
  std::vector<QEntry> side_;
  std::priority_queue<QEntry, std::vector<QEntry>, Later> far_;
  std::uint64_t cur_vidx_ = 0;    ///< virtual bucket index the cursor is on
  bool cur_sorted_ = false;       ///< current bucket sorted descending?
  std::size_t near_count_ = 0;    ///< entries resident in the ring and side heap
  std::size_t size_ = 0;
  Stats stats_;
};

}  // namespace updown
