// Simulator message and DRAM-request records.
//
// UpDown messages are 64 bytes: an event word, a continuation word, and up to
// six 64-bit operands (DRAM read responses are the exception and carry up to
// eight words, matching the paper's PageRank listing where returnRead
// receives n0..n7). There is no out-of-line payload: every message, the
// KVMSR shuffle's one-tuple messages included, is one fixed-size record.
//
// In-flight payloads live in the Machine's recycling slab pools (see
// sim/event_queue.hpp) from enqueue until execution; the calendar queue holds
// only a slim {tick, seq, kind, pool index} entry. Pool slots are recycled
// without clearing, so senders must write every field a receiver reads (the
// operand/data arrays are only valid up to nops/nwords).
#pragma once

#include <array>
#include <cstdint>
#include <type_traits>

#include "common/types.hpp"
#include "sim/event_word.hpp"

namespace updown {

constexpr unsigned kMaxOperands = 8;

struct Message {
  Word evw = 0;          ///< destination event word
  Word cont = IGNRCONT;  ///< continuation word delivered to the handler
  std::array<Word, kMaxOperands> ops{};
  std::uint8_t nops = 0;
  NetworkId src = 0;  ///< sending lane (host sends use lane 0 of node 0)

  std::uint32_t payload_bytes(std::uint32_t header) const { return header + nops * 8u; }
};

struct DramRequest {
  Addr addr = 0;
  std::uint8_t nwords = 0;
  bool is_write = false;
  std::array<Word, kMaxOperands> data{};  ///< payload for writes
  Word reply_evw = 0;                     ///< 0 => no response (fire-and-forget write)
  Word reply_cont = IGNRCONT;             ///< continuation passed through to the reply
  NetworkId src = 0;                      ///< requesting lane
  std::uint32_t dst_node = 0;  ///< home node of addr; cached at routing time so
                               ///< service doesn't re-translate
};

// Pooled payloads are stored in raw slab arrays and assigned by value.
static_assert(std::is_trivially_copyable_v<Message>);
static_assert(std::is_trivially_copyable_v<DramRequest>);

}  // namespace updown
