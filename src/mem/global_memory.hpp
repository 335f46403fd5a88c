// The global shared address space: DRAMmalloc allocation, translation
// descriptors, and the per-node physical backing store.
//
// DRAMmalloc (paper Section 2.4):
//   void* DRAMmalloc(size, 1stNode, NRNodes, BS)
// returns a contiguous virtual region laid out block-cyclically over
// NRNodes physical node memories starting at 1stNode, in blocks of BS bytes.
// Each allocation is encoded in a single translation descriptor. The paper
// notes typical programs need only 2-4 descriptors, but a serving session
// that re-patches neighbor lists and allocates per-read value arrays holds
// hundreds (perfbench's serve_stream_4n ends seed 1 with 870), so lookup is
// a binary search: the table is sorted by base with disjoint regions,
// because the VA break only grows and dram_free erases in place.
//
// The table is host state. dram_malloc/dram_free run only while the engine
// is paused; Machine::run_until freezes the table for the whole run, so
// every shard reads it in place without locks or copies.
//
// Host-side (TOP core) accessors read/write the backing store directly with
// zero simulated cost: they model the data-loading phase that the paper's
// timing methodology excludes (timings start at the first UpDown event).
#pragma once

#include <cstdint>
#include <cstring>
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
  /// the descriptor is retired and its VA range stays unmapped.
  void dram_free(Addr base);

  /// While frozen, dram_malloc and dram_free throw std::logic_error: the
  /// engine's shards read the table in place. Machine::run_until freezes it
  /// for the whole run.
  void set_frozen(bool frozen) { frozen_ = frozen; }

  std::size_t descriptor_count() const { return descriptors_.size(); }
  const SwizzleDescriptor& descriptor_for(Addr va) const { return find(va); }

  /// Hardware translation of a virtual address.
  PhysLoc translate(Addr va) const { return find(va).translate(va); }

  // ---- Physical access (used by the DRAM timing model at service time) ----
  Word read_word_phys(const PhysLoc& loc) const;
  void write_word_phys(const PhysLoc& loc, Word value);

  /// Word-run access for DRAM requests: translate the base once and walk
  /// contiguous words within each distribution block instead of re-translating
  /// every `addr + 8*i`. Semantically identical to a per-word
  /// read_word_phys(translate(...)) loop, including words that straddle a
  /// block boundary at unaligned addresses.
  void read_words(Addr va, Word* out, std::size_t nwords) const;
  void write_words(Addr va, const Word* in, std::size_t nwords);

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

  // ---- Introspection / checker support ------------------------------------
  /// No-throw lookup: the live descriptor covering `va`, or nullptr. The one
  /// lookup behind every translation: a binary search over the sorted table.
  const SwizzleDescriptor* find_live(Addr va) const;
  /// The most recently freed region covering `va`, or nullptr.
  const FreedRegion* find_freed(Addr va) const;
  const std::vector<SwizzleDescriptor>& live_descriptors() const { return descriptors_; }
  /// Human-readable dump of the live descriptor table (+ freed regions),
  /// appended to translation/free fault messages.
  std::string describe() const;

  /// Attach an allocation-lifecycle observer (udcheck). Not owned; pass
  /// nullptr to detach.
  void set_observer(MemoryObserver* obs) { observer_ = obs; }

 private:
  /// find_live, or throw UnmappedAddressError naming the table.
  const SwizzleDescriptor& find(Addr va) const;
  /// Call f(phys, done, chunk) over the `bytes` at `va`, one run per
  /// distribution block: runs of `granule` bytes (1, or 8 for DRAM words).
  /// A word that straddles a block boundary is one 8-byte run at the
  /// translation of its first byte.
  template <typename F>
  void walk(Addr va, std::size_t bytes, std::size_t granule, F&& f) const;
  std::uint8_t* phys_ptr(const PhysLoc& loc, std::size_t bytes) const;

  std::uint32_t nodes_;
  /// Live regions, sorted by base (bases only grow; frees erase in place).
  std::vector<SwizzleDescriptor> descriptors_;
  std::vector<FreedRegion> freed_;  ///< retired regions, in free order
  // Backing is fully materialized at dram_malloc time, so phys_ptr's
  // on-demand growth only ever fires for host accesses outside a run; while
  // the engine runs every mapped byte is resident and pointer-stable.
  mutable std::vector<std::vector<std::uint8_t>> backing_;
  std::vector<std::uint64_t> node_brk_;  ///< per-node physical bump pointer
  Addr va_brk_ = 0x10000;                ///< VA 0 reserved (null)
  std::uint64_t alloc_seq_ = 0;          ///< dram_malloc counter (1-based)
  std::uint64_t free_seq_ = 0;           ///< dram_free counter (1-based)
  MemoryObserver* observer_ = nullptr;
  bool frozen_ = false;  ///< set for the duration of Machine::run_until
};

}  // namespace updown
