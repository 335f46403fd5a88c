// The global shared address space: DRAMmalloc allocation, translation
// descriptors, and the per-node physical backing store.
//
// DRAMmalloc (paper Section 2.4):
//   void* DRAMmalloc(size, 1stNode, NRNodes, BS)
// returns a contiguous virtual region laid out block-cyclically over
// NRNodes physical node memories starting at 1stNode, in blocks of BS bytes.
// Each allocation is encoded in a single translation descriptor; the paper
// notes typical programs need only 2-4 descriptors.
//
// Host-side (TOP core) accessors read/write the backing store directly with
// zero simulated cost: they model the data-loading phase that the paper's
// timing methodology excludes (timings start at the first UpDown event).
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/bits.hpp"
#include "common/types.hpp"
#include "mem/swizzle.hpp"

namespace updown {

/// Translation miss: a virtual address not covered by any live descriptor.
/// Derives from std::out_of_range so pre-existing catch sites keep working;
/// carries the faulting VA and a descriptor-table dump in what().
class UnmappedAddressError : public std::out_of_range {
 public:
  UnmappedAddressError(Addr va, const std::string& what_arg)
      : std::out_of_range(what_arg), va_(va) {}
  Addr va() const { return va_; }

 private:
  Addr va_;
};

/// dram_free of an address that is not a live region base: either a double
/// free (the base was freed before) or a pointer that never came from
/// dram_malloc. Derives from std::invalid_argument for compatibility.
class BadFreeError : public std::invalid_argument {
 public:
  BadFreeError(Addr va, bool double_free, const std::string& what_arg)
      : std::invalid_argument(what_arg), va_(va), double_free_(double_free) {}
  Addr va() const { return va_; }
  bool double_free() const { return double_free_; }

 private:
  Addr va_;
  bool double_free_;
};

/// Record of a retired allocation, kept so use-after-free and double-free
/// faults can name the original region.
struct FreedRegion {
  Addr base = 0;
  std::uint64_t size = 0;
  std::uint64_t alloc_seq = 0;  ///< dram_malloc order (1-based)
  std::uint64_t free_seq = 0;   ///< dram_free order (1-based)

  bool contains(Addr va) const { return va >= base && va < base + size; }
};

/// Allocation-lifecycle hook, implemented by the udcheck sanitizer. All
/// methods are no-ops by default so GlobalMemory pays nothing when no
/// observer is attached.
class MemoryObserver {
 public:
  virtual ~MemoryObserver() = default;
  virtual void on_alloc(const SwizzleDescriptor& d) { (void)d; }
  virtual void on_free(const SwizzleDescriptor& d, std::uint64_t free_seq) {
    (void)d;
    (void)free_seq;
  }
  virtual void on_bad_free(Addr base, bool double_free, const std::string& detail) {
    (void)base;
    (void)double_free;
    (void)detail;
  }
};

/// A shard-private copy of the live descriptor table, validated against the
/// authoritative table by version number. The sharded engine keeps one per
/// host thread and refreshes it at window boundaries (and on lookup miss), so
/// steady-state translation never takes the GlobalMemory mutex. Causality
/// makes window-boundary refresh sufficient: a shard can only learn a virtual
/// address from a cross-shard message, which arrives at least one full
/// lookahead window after the dram_malloc that mapped it.
struct DescriptorSnapshot {
  std::uint64_t version = ~0ull;  ///< never matches a real version initially
  std::vector<SwizzleDescriptor> descs;
};

class GlobalMemory {
 public:
  explicit GlobalMemory(std::uint32_t nodes)
      : nodes_(nodes), backing_(nodes), node_brk_(nodes, 0) {}

  std::uint32_t nodes() const { return nodes_; }

  /// DRAMmalloc. `block_size` must be a power of two (the hardware descriptor
  /// encodes it as a shift); `nr_nodes` a power of two with
  /// first_node + nr_nodes <= machine nodes.
  Addr dram_malloc(std::uint64_t size, std::uint32_t first_node, std::uint32_t nr_nodes,
                   std::uint64_t block_size);

  /// Convenience: spread an allocation over the whole machine with the given
  /// block size (the paper's default DRAMmalloc(size, 0, NRnodes, 32KB)).
  Addr dram_malloc_spread(std::uint64_t size, std::uint64_t block_size = 32 * 1024) {
    return dram_malloc(size, 0, nodes_, block_size);
  }

  /// Release a region previously returned by dram_malloc. Physical node
  /// memory is not compacted (matching a bump-allocated translation table);
  /// the descriptor is retired so its VA range can be reused.
  void dram_free(Addr base);

  std::size_t descriptor_count() const { return descriptors_.size(); }
  const SwizzleDescriptor& descriptor_for(Addr va) const { return find(va); }

  /// Hardware translation of a virtual address.
  PhysLoc translate(Addr va) const { return find(va).translate(va); }

  /// Translation through a shard-private snapshot (refreshed on miss).
  PhysLoc translate(Addr va, DescriptorSnapshot& snap) const {
    return find(va, &snap).translate(va);
  }

  /// Bring `snap` up to date with the authoritative table if any
  /// dram_malloc/dram_free happened since its last refresh.
  void refresh(DescriptorSnapshot& snap) const {
    const std::uint64_t v = version_.load(std::memory_order_acquire);
    if (snap.version == v) return;
    std::lock_guard<std::mutex> lk(mu_);
    snap.descs = descriptors_;
    snap.version = version_.load(std::memory_order_relaxed);
  }

  // ---- Physical access (used by the DRAM timing model at service time) ----
  Word read_word_phys(const PhysLoc& loc) const;
  void write_word_phys(const PhysLoc& loc, Word value);

  /// Word-run access for DRAM requests: translate the base once and walk
  /// contiguous words within each distribution block instead of re-translating
  /// every `addr + 8*i`. Semantically identical to a per-word
  /// read_word_phys(translate(...)) loop, including words that straddle a
  /// block boundary at unaligned addresses.
  /// The optional snapshot routes descriptor lookups through a shard-private
  /// copy of the table (see DescriptorSnapshot); pass nullptr for the
  /// authoritative table (serial engine, host side).
  void read_words(Addr va, Word* out, std::size_t nwords,
                  DescriptorSnapshot* snap = nullptr) const;
  void write_words(Addr va, const Word* in, std::size_t nwords,
                   DescriptorSnapshot* snap = nullptr);

  // ---- Host-side direct access (no simulated cost) -------------------------
  void host_write(Addr va, const void* data, std::size_t bytes);
  void host_read(Addr va, void* out, std::size_t bytes) const;

  template <typename T>
  T host_load(Addr va) const {
    static_assert(std::is_trivially_copyable_v<T>);
    T v{};
    host_read(va, &v, sizeof(T));
    return v;
  }

  template <typename T>
  void host_store(Addr va, const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    host_write(va, &v, sizeof(T));
  }

  void host_fill(Addr va, std::uint8_t byte, std::size_t bytes);

  /// Total physical bytes currently reserved on `node`.
  std::uint64_t node_bytes(std::uint32_t node) const { return node_brk_[node]; }

  // ---- Introspection / checker support ------------------------------------
  /// No-throw lookup: the live descriptor covering `va`, or nullptr.
  const SwizzleDescriptor* find_live(Addr va) const;
  /// The most recently freed region covering `va`, or nullptr.
  const FreedRegion* find_freed(Addr va) const;
  const std::vector<SwizzleDescriptor>& live_descriptors() const { return descriptors_; }
  const std::vector<FreedRegion>& freed_regions() const { return freed_; }
  /// Human-readable dump of the live descriptor table (+ freed regions),
  /// appended to translation/free fault messages.
  std::string describe() const;

  /// Attach an allocation-lifecycle observer (udcheck). Not owned; pass
  /// nullptr to detach.
  void set_observer(MemoryObserver* obs) { observer_ = obs; }

 private:
  const SwizzleDescriptor& find(Addr va, DescriptorSnapshot* snap = nullptr) const;
  std::uint8_t* phys_ptr(const PhysLoc& loc, std::size_t bytes);
  const std::uint8_t* phys_ptr(const PhysLoc& loc, std::size_t bytes) const;

  std::uint32_t nodes_;
  std::vector<SwizzleDescriptor> descriptors_;
  std::vector<FreedRegion> freed_;  ///< retired regions, in free order
  // Backing is fully materialized at dram_malloc time (under mu_), so
  // phys_ptr's on-demand growth only ever fires for host accesses outside the
  // parallel region; during sharded execution every mapped byte is resident
  // and pointer-stable.
  mutable std::vector<std::vector<std::uint8_t>> backing_;
  std::vector<std::uint64_t> node_brk_;  ///< per-node physical bump pointer
  Addr va_brk_ = 0x10000;                ///< VA 0 reserved (null)
  std::uint64_t alloc_seq_ = 0;          ///< dram_malloc counter (1-based)
  std::uint64_t free_seq_ = 0;           ///< dram_free counter (1-based)
  MemoryObserver* observer_ = nullptr;
  /// Serializes descriptor-table mutations against snapshot refreshes.
  /// Introspection helpers (describe, live_descriptors, find_live) read the
  /// authoritative table unlocked: they are host-side/error-path only.
  mutable std::mutex mu_;
  std::atomic<std::uint64_t> version_{0};  ///< bumped on every table mutation
};

}  // namespace updown
