#include "mem/global_memory.hpp"

#include <algorithm>
#include <iterator>

#include "common/strfmt.hpp"

namespace updown {

namespace {
void check_not_frozen(bool frozen, const char* op) {
  if (frozen)
    throw std::logic_error(std::string(op) +
                           ": the descriptor table is frozen while the machine runs; "
                           "allocate and free from the host between runs");
}
}  // namespace

Addr GlobalMemory::dram_malloc(std::uint64_t size, std::uint32_t first_node,
                               std::uint32_t nr_nodes, std::uint64_t block_size) {
  check_not_frozen(frozen_, "dram_malloc");
  if (size == 0) throw std::invalid_argument("DRAMmalloc: zero size");
  if (!is_pow2(nr_nodes)) throw std::invalid_argument("DRAMmalloc: NRNodes must be a power of 2");
  if (!is_pow2(block_size)) throw std::invalid_argument("DRAMmalloc: BS must be a power of 2");
  if (first_node + nr_nodes > nodes_)
    throw std::invalid_argument("DRAMmalloc: node range exceeds machine");

  // Physical placement: every participating node reserves the same number of
  // bytes for this region, starting at the maximum current brk across the
  // participating nodes so a single per-region node_base works for all.
  std::uint64_t node_base = 0;
  for (std::uint32_t n = first_node; n < first_node + nr_nodes; ++n)
    node_base = std::max(node_base, node_brk_[n]);

  const Addr base = (va_brk_ + block_size - 1) & ~(block_size - 1);
  SwizzleDescriptor d(base, size, first_node, nr_nodes, block_size, node_base);
  const std::uint64_t per_node = d.bytes_per_node();
  for (std::uint32_t n = first_node; n < first_node + nr_nodes; ++n) {
    node_brk_[n] = node_base + per_node;
    // Materialize the backing now so the pointer-unstable resize never runs
    // while shards access this region.
    auto& mem = backing_[n];
    if (mem.size() < node_brk_[n]) mem.resize(next_pow2(node_brk_[n]));
  }

  d.set_alloc_seq(++alloc_seq_);
  descriptors_.push_back(d);  // base >= every live end: the table stays sorted
  va_brk_ = base + size;
  if (observer_) observer_->on_alloc(d);
  return base;
}

void GlobalMemory::dram_free(Addr base) {
  check_not_frozen(frozen_, "dram_free");
  if (const SwizzleDescriptor* live = find_live(base); live && live->base() == base) {
    const SwizzleDescriptor d = *live;
    descriptors_.erase(descriptors_.begin() + (live - descriptors_.data()));
    freed_.push_back({d.base(), d.size(), d.alloc_seq(), ++free_seq_});
    if (observer_) observer_->on_free(d, free_seq_);
    return;
  }
  // Distinguish a double free (base matches a retired region) from a pointer
  // that never came from dram_malloc.
  const FreedRegion* f = nullptr;
  for (auto it = freed_.rbegin(); it != freed_.rend(); ++it)
    if (it->base == base) {
      f = &*it;
      break;
    }
  std::string msg =
      f ? strfmt("dram_free: double free of va=0x%llx (alloc #%llu, %llu bytes, "
                 "already freed as free #%llu)\n",
                 (unsigned long long)base, (unsigned long long)f->alloc_seq,
                 (unsigned long long)f->size, (unsigned long long)f->free_seq)
        : strfmt("dram_free: va=0x%llx is not the base of any live region\n",
                 (unsigned long long)base);
  msg += describe();
  if (observer_) observer_->on_bad_free(base, f != nullptr, msg);
  throw BadFreeError(base, f != nullptr, msg);
}

const SwizzleDescriptor* GlobalMemory::find_live(Addr va) const {
  // The last region whose base is <= va is the only one that can cover it.
  const auto it = std::upper_bound(
      descriptors_.begin(), descriptors_.end(), va,
      [](Addr v, const SwizzleDescriptor& d) { return v < d.base(); });
  if (it == descriptors_.begin() || !std::prev(it)->contains(va)) return nullptr;
  return &*std::prev(it);
}

const FreedRegion* GlobalMemory::find_freed(Addr va) const {
  for (auto it = freed_.rbegin(); it != freed_.rend(); ++it)
    if (it->contains(va)) return &*it;
  return nullptr;
}

std::string GlobalMemory::describe() const {
  std::string out =
      strfmt("descriptor table (%zu live region(s)):\n", descriptors_.size());
  for (const auto& d : descriptors_)
    out += strfmt("  alloc #%-3llu va=[0x%llx, 0x%llx) size=%llu nodes=[%u..%u) "
                  "bs=%llu\n",
                  (unsigned long long)d.alloc_seq(), (unsigned long long)d.base(),
                  (unsigned long long)d.end(), (unsigned long long)d.size(),
                  d.first_node(), d.first_node() + d.nr_nodes(),
                  (unsigned long long)d.block_size());
  if (!freed_.empty()) {
    out += strfmt("freed regions (%zu):\n", freed_.size());
    for (const auto& f : freed_)
      out += strfmt("  alloc #%-3llu va=[0x%llx, 0x%llx) size=%llu freed as "
                    "free #%llu\n",
                    (unsigned long long)f.alloc_seq, (unsigned long long)f.base,
                    (unsigned long long)(f.base + f.size),
                    (unsigned long long)f.size, (unsigned long long)f.free_seq);
  }
  return out;
}

const SwizzleDescriptor& GlobalMemory::find(Addr va) const {
  if (const SwizzleDescriptor* d = find_live(va)) return *d;
  std::string msg = strfmt(
      "GlobalMemory: va=0x%llx is not covered by any translation descriptor",
      (unsigned long long)va);
  if (const FreedRegion* f = find_freed(va)) {
    msg += strfmt(" — use-after-free: it falls in region alloc #%llu "
                  "[0x%llx, 0x%llx) retired by free #%llu",
                  (unsigned long long)f->alloc_seq, (unsigned long long)f->base,
                  (unsigned long long)(f->base + f->size),
                  (unsigned long long)f->free_seq);
  }
  msg += "\n" + describe();
  throw UnmappedAddressError(va, msg);
}

std::uint8_t* GlobalMemory::phys_ptr(const PhysLoc& loc, std::size_t bytes) const {
  auto& mem = backing_[loc.node];
  if (mem.size() < loc.offset + bytes) mem.resize(next_pow2(loc.offset + bytes));
  return mem.data() + loc.offset;
}

template <typename F>
void GlobalMemory::walk(Addr va, std::size_t bytes, std::size_t granule, F&& f) const {
  const SwizzleDescriptor* d = nullptr;
  for (std::size_t done = 0; done < bytes;) {
    const Addr at = va + done;
    if (!d || !d->contains(at)) d = &find(at);
    // Stay within one distribution block (contiguous physical bytes).
    const std::uint64_t room = d->block_size() - ((at - d->base()) & (d->block_size() - 1));
    const std::size_t chunk =
        std::max(granule, std::min<std::size_t>(bytes - done, room & ~(granule - 1)));
    f(phys_ptr(d->translate(at), chunk), done, chunk);
    done += chunk;
  }
}

Word GlobalMemory::read_word_phys(const PhysLoc& loc) const {
  Word v;
  std::memcpy(&v, phys_ptr(loc, sizeof(Word)), sizeof(Word));
  return v;
}

void GlobalMemory::write_word_phys(const PhysLoc& loc, Word value) {
  std::memcpy(phys_ptr(loc, sizeof(Word)), &value, sizeof(Word));
}

void GlobalMemory::read_words(Addr va, Word* out, std::size_t nwords) const {
  auto* dst = reinterpret_cast<std::uint8_t*>(out);
  walk(va, nwords * 8, 8, [dst](std::uint8_t* phys, std::size_t done, std::size_t n) {
    std::memcpy(dst + done, phys, n);
  });
}

void GlobalMemory::write_words(Addr va, const Word* in, std::size_t nwords) {
  const auto* src = reinterpret_cast<const std::uint8_t*>(in);
  walk(va, nwords * 8, 8, [src](std::uint8_t* phys, std::size_t done, std::size_t n) {
    std::memcpy(phys, src + done, n);
  });
}

void GlobalMemory::host_write(Addr va, const void* data, std::size_t bytes) {
  const auto* src = static_cast<const std::uint8_t*>(data);
  walk(va, bytes, 1, [src](std::uint8_t* phys, std::size_t done, std::size_t n) {
    std::memcpy(phys, src + done, n);
  });
}

void GlobalMemory::host_read(Addr va, void* out, std::size_t bytes) const {
  auto* dst = static_cast<std::uint8_t*>(out);
  walk(va, bytes, 1, [dst](std::uint8_t* phys, std::size_t done, std::size_t n) {
    std::memcpy(dst + done, phys, n);
  });
}

void GlobalMemory::host_fill(Addr va, std::uint8_t byte, std::size_t bytes) {
  walk(va, bytes, 1, [byte](std::uint8_t* phys, std::size_t, std::size_t n) {
    std::memset(phys, byte, n);
  });
}

}  // namespace updown
