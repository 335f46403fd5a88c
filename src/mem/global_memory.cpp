#include "mem/global_memory.hpp"

#include <algorithm>

#include "common/strfmt.hpp"

namespace updown {

Addr GlobalMemory::dram_malloc(std::uint64_t size, std::uint32_t first_node,
                               std::uint32_t nr_nodes, std::uint64_t block_size) {
  if (size == 0) throw std::invalid_argument("DRAMmalloc: zero size");
  if (!is_pow2(nr_nodes)) throw std::invalid_argument("DRAMmalloc: NRNodes must be a power of 2");
  if (!is_pow2(block_size)) throw std::invalid_argument("DRAMmalloc: BS must be a power of 2");
  if (first_node + nr_nodes > nodes_)
    throw std::invalid_argument("DRAMmalloc: node range exceeds machine");

  std::lock_guard<std::mutex> lk(mu_);

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
    // while shards access this region concurrently.
    auto& mem = backing_[n];
    if (mem.size() < node_brk_[n]) mem.resize(next_pow2(node_brk_[n]));
  }

  d.set_alloc_seq(++alloc_seq_);
  descriptors_.push_back(d);
  va_brk_ = base + size;
  version_.fetch_add(1, std::memory_order_release);
  if (observer_) observer_->on_alloc(d);
  return base;
}

void GlobalMemory::dram_free(Addr base) {
  std::lock_guard<std::mutex> lk(mu_);
  for (auto it = descriptors_.begin(); it != descriptors_.end(); ++it) {
    if (it->base() == base) {
      const SwizzleDescriptor d = *it;
      descriptors_.erase(it);
      freed_.push_back({d.base(), d.size(), d.alloc_seq(), ++free_seq_});
      version_.fetch_add(1, std::memory_order_release);
      if (observer_) observer_->on_free(d, free_seq_);
      return;
    }
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
  for (const auto& d : descriptors_)
    if (d.contains(va)) return &d;
  return nullptr;
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

const SwizzleDescriptor& GlobalMemory::find(Addr va, DescriptorSnapshot* snap) const {
  if (snap) {
    for (const auto& d : snap->descs)
      if (d.contains(va)) return d;
    // Miss: the table may have changed since the last window boundary (a
    // sim-time dram_malloc on another shard). Refresh once and retry before
    // declaring the address unmapped.
    const std::uint64_t before = snap->version;
    refresh(*snap);
    if (snap->version != before)
      for (const auto& d : snap->descs)
        if (d.contains(va)) return d;
  } else if (const SwizzleDescriptor* d = find_live(va)) {
    return *d;
  }
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

std::uint8_t* GlobalMemory::phys_ptr(const PhysLoc& loc, std::size_t bytes) {
  auto& mem = backing_[loc.node];
  if (mem.size() < loc.offset + bytes) mem.resize(next_pow2(loc.offset + bytes));
  return mem.data() + loc.offset;
}

const std::uint8_t* GlobalMemory::phys_ptr(const PhysLoc& loc, std::size_t bytes) const {
  auto& mem = backing_[loc.node];
  if (mem.size() < loc.offset + bytes) mem.resize(next_pow2(loc.offset + bytes));
  return mem.data() + loc.offset;
}

Word GlobalMemory::read_word_phys(const PhysLoc& loc) const {
  Word v;
  std::memcpy(&v, phys_ptr(loc, sizeof(Word)), sizeof(Word));
  return v;
}

void GlobalMemory::write_word_phys(const PhysLoc& loc, Word value) {
  std::memcpy(phys_ptr(loc, sizeof(Word)), &value, sizeof(Word));
}

void GlobalMemory::read_words(Addr va, Word* out, std::size_t nwords,
                              DescriptorSnapshot* snap) const {
  const SwizzleDescriptor* d = &find(va, snap);
  while (nwords > 0) {
    if (!d->contains(va)) d = &find(va, snap);
    const PhysLoc loc = d->translate(va);
    const std::uint64_t in_block = (va - d->base()) & (d->block_size() - 1);
    const std::size_t run =
        std::min<std::uint64_t>(nwords, (d->block_size() - in_block) >> 3);
    if (run == 0) {
      // Word straddles the block boundary: single-word physical access.
      *out++ = read_word_phys(loc);
      va += 8;
      --nwords;
      continue;
    }
    std::memcpy(out, phys_ptr(loc, run * 8), run * 8);
    out += run;
    va += run * 8;
    nwords -= run;
  }
}

void GlobalMemory::write_words(Addr va, const Word* in, std::size_t nwords,
                               DescriptorSnapshot* snap) {
  const SwizzleDescriptor* d = &find(va, snap);
  while (nwords > 0) {
    if (!d->contains(va)) d = &find(va, snap);
    const PhysLoc loc = d->translate(va);
    const std::uint64_t in_block = (va - d->base()) & (d->block_size() - 1);
    const std::size_t run =
        std::min<std::uint64_t>(nwords, (d->block_size() - in_block) >> 3);
    if (run == 0) {
      write_word_phys(loc, *in++);
      va += 8;
      --nwords;
      continue;
    }
    std::memcpy(phys_ptr(loc, run * 8), in, run * 8);
    in += run;
    va += run * 8;
    nwords -= run;
  }
}

void GlobalMemory::host_write(Addr va, const void* data, std::size_t bytes) {
  const auto* src = static_cast<const std::uint8_t*>(data);
  std::size_t done = 0;
  while (done < bytes) {
    const SwizzleDescriptor& d = find(va + done);
    const PhysLoc loc = d.translate(va + done);
    // Stay within one distribution block (contiguous physical bytes).
    const std::uint64_t in_block = (va + done - d.base()) & (d.block_size() - 1);
    const std::size_t chunk =
        std::min<std::size_t>(bytes - done, d.block_size() - in_block);
    std::memcpy(phys_ptr(loc, chunk), src + done, chunk);
    done += chunk;
  }
}

void GlobalMemory::host_read(Addr va, void* out, std::size_t bytes) const {
  auto* dst = static_cast<std::uint8_t*>(out);
  std::size_t done = 0;
  while (done < bytes) {
    const SwizzleDescriptor& d = find(va + done);
    const PhysLoc loc = d.translate(va + done);
    const std::uint64_t in_block = (va + done - d.base()) & (d.block_size() - 1);
    const std::size_t chunk =
        std::min<std::size_t>(bytes - done, d.block_size() - in_block);
    std::memcpy(dst + done, phys_ptr(loc, chunk), chunk);
    done += chunk;
  }
}

void GlobalMemory::host_fill(Addr va, std::uint8_t byte, std::size_t bytes) {
  std::size_t done = 0;
  while (done < bytes) {
    const SwizzleDescriptor& d = find(va + done);
    const PhysLoc loc = d.translate(va + done);
    const std::uint64_t in_block = (va + done - d.base()) & (d.block_size() - 1);
    const std::size_t chunk =
        std::min<std::size_t>(bytes - done, d.block_size() - in_block);
    std::memset(phys_ptr(loc, chunk), byte, chunk);
    done += chunk;
  }
}

}  // namespace updown
