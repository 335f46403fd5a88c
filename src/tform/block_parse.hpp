// Shared block-parse geometry, record loop and map task for KVMSR-over-byte-
// stream ingestion (apps/ingestion and the streaming delta front-end). One
// map task owns one fixed-size block; a record belongs to the block where it
// STARTS, and a task reads one byte before its block (record-boundary test)
// plus up to one full record past it, so boundary-spanning records parse
// exactly once — the cross-block access the paper contrasts with cloud
// map-reduce.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "kvmsr/kvmsr.hpp"
#include "tform/fst.hpp"
#include "tform/stream_gen.hpp"
#include "udweave/context.hpp"

namespace updown::tform {

struct BlockWindow {
  std::uint64_t start = 0, end = 0;  ///< byte range owned by this block
  std::uint64_t read_begin = 0, read_end = 0;  ///< fetched range (8-aligned)

  static BlockWindow of(std::uint64_t block, std::uint64_t block_bytes,
                        std::uint64_t data_bytes) {
    BlockWindow w;
    w.start = block * block_bytes;
    w.end = std::min(w.start + block_bytes, data_bytes);
    w.read_begin = (w.start == 0 ? 0 : (w.start - 1)) & ~7ull;
    w.read_end =
        std::min((w.end + kRecordBytes + 7) & ~7ull, (data_bytes + 7) & ~7ull);
    return w;
  }

  std::uint64_t bytes() const { return read_end - read_begin; }
};

/// Run the transducer over every record starting inside `w`, with the
/// window's bytes already fetched into `buf` (buf[0] = file offset
/// w.read_begin). Charges the lane for boundary-skip and parse work;
/// `emit(fields)` fires per record. Emits nothing when no record starts in
/// the block.
template <typename Ctx, typename Emit>
void parse_block(Ctx& ctx, const Fst& fst, const std::uint8_t* buf,
                 const BlockWindow& w, std::uint64_t data_bytes, Emit&& emit) {
  const auto byte_at = [&](std::uint64_t off) { return buf[off - w.read_begin]; };
  // Skip to the first record boundary at or after w.start.
  std::uint64_t pos = w.start;
  if (w.start != 0 && byte_at(w.start - 1) != '\n') {
    while (pos < w.end && byte_at(pos) != '\n') ++pos;
    ++pos;  // byte after the newline
    ctx.charge(parse_cost(pos - w.start));
  }
  if (pos >= w.end || pos >= data_bytes) return;
  // Parse up to the end of the record spanning w.end (exclusive search for
  // the first newline at or after end-1).
  std::uint64_t stop = std::min(w.end, data_bytes);
  while (stop < data_bytes && byte_at(stop - 1) != '\n') ++stop;
  ctx.charge(parse_cost(stop - pos));

  Fst::Cursor cur;
  fst.run({buf + (pos - w.read_begin), stop - pos}, cur, std::forward<Emit>(emit));
}

/// One ingestion job's byte stream: `bytes` bytes of CSV records at `base`,
/// parsed in blocks of `block_bytes`. `chunk` is the event its front-end
/// registered for BlockParseMap::m_chunk (the DRAM reads reply there).
struct BlockJob {
  Addr base = 0;
  std::uint64_t bytes = 0;
  std::uint64_t block_bytes = 0;
  EventLabel chunk = 0;
};

/// The map task both ingestion front-ends register: one task per block
/// fetches the block's window from DRAM, parses every record starting in the
/// block, and emits one (src, dst, type) tuple per record. `Src::block_job(
/// ctx, job)` supplies the running job's BlockJob; each front-end keeps its
/// own reduce.
template <class Src>
struct BlockParseMap : kvmsr::MapTask {
  kvmsr::JobId job = 0;
  BlockWindow w;
  std::vector<std::uint8_t> buf;
  std::uint64_t arrived = 0, expected = 0;

  void kv_map(Ctx& ctx) {
    kvmsr_begin(ctx);
    job = kvmsr::Library::map_job(ctx);
    const BlockJob bj = Src::block_job(ctx, job);
    w = BlockWindow::of(kvmsr::Library::map_key(ctx), bj.block_bytes, bj.bytes);
    buf.assign(w.bytes(), 0);
    for (std::uint64_t off = w.read_begin; off < w.read_end; off += 64) {
      const unsigned words =
          static_cast<unsigned>(std::min<std::uint64_t>(8, (w.read_end - off) / 8));
      ctx.charge(2);
      ctx.send_dram_read(bj.base + off, words, bj.chunk);
      ++expected;
    }
  }

  void m_chunk(Ctx& ctx) {
    const BlockJob bj = Src::block_job(ctx, job);
    const std::uint64_t off = ctx.ccont() - bj.base - w.read_begin;
    for (unsigned i = 0; i < ctx.nops(); ++i) {
      const Word word = ctx.op(i);
      std::memcpy(buf.data() + off + i * 8, &word, 8);
    }
    ctx.charge(ctx.nops());
    if (++arrived < expected) return;
    static const Fst csv = Fst::csv();
    auto& lib = ctx.machine().service<kvmsr::Library>();
    parse_block(ctx, csv, buf.data(), w, bj.bytes, [&](const std::vector<Word>& fields) {
      if (fields.size() != 3)
        throw std::runtime_error(lib.spec(job).name + ": malformed record");
      ctx.charge(1);
      lib.emit2(ctx, job, fields[0], fields[1], fields[2]);
    });
    lib.map_return(ctx, kvmsr_cont);
  }
};

}  // namespace updown::tform
