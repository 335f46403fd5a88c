// Ctx: the execution context passed to every UDWeave event handler.
//
// It exposes the UpDown intrinsics (paper Section 2.1.2) — event-word
// construction, send_event with optional continuation, DRAM access,
// scratchpad access, yield/yield_terminate — and charges the lane-operation
// costs of paper Table 2 as they are used:
//
//   Thread Create 0 | Thread Yield 1 | Thread Deallocate 1 |
//   Scratchpad Load/Store 1 | Send Message 1-2 | Send DRAM 1-2
//
// Handler-local compute (ALU work, loop control) is charged explicitly with
// charge(); one cycle per simple operation keeps handlers honest about the
// paper's 10-100 instruction task granularity.
#pragma once

#include <cassert>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <initializer_list>

#include "check/checker.hpp"
#include "common/log.hpp"
#include "sim/machine.hpp"
#include "trace/trace.hpp"

namespace updown {

class Ctx {
 public:
  Ctx(Machine& m, EngineShard& sh, Lane lane, Message& msg, Tick start, ThreadId tid,
      Word cevnt, ThreadState& state)
      : m_(m),
        sh_(sh),
        lane_(lane),
        msg_(msg),
        start_(start),
        tid_(tid),
        cevnt_(cevnt),
        nwid_(evw::nwid(cevnt)),
        state_(state) {}

  Ctx(const Ctx&) = delete;
  Ctx& operator=(const Ctx&) = delete;

  // ---- Introspection ---------------------------------------------------------
  Machine& machine() { return m_; }
  GlobalMemory& memory() { return m_.memory(); }
  NetworkId nwid() const { return nwid_; }
  ThreadId tid() const { return tid_; }
  /// CEVNT: the event word of the currently executing event (existing-thread
  /// form, so evw_update_event(cevnt(), label) addresses this same thread).
  Word cevnt() const { return cevnt_; }
  /// CCONT: the continuation word that arrived with this message.
  Word ccont() const { return msg_.cont; }
  unsigned nops() const { return msg_.nops; }
  Word op(unsigned i) const {
    assert(i < msg_.nops);
    return msg_.ops[i];
  }
  /// Bulk payload of the current message (packed sends): valid words behind
  /// the plain operands. Zero for ordinary messages.
  unsigned bulk_words() const { return msg_.bulk_words; }
  Word bulk_op(unsigned i) const {
    assert(i < msg_.bulk_words && msg_.bulk != kNoBulk);
    return sh_.bulk_pool[msg_.bulk].w[i];
  }
  Tick start_time() const { return start_; }
  Tick now() const { return start_ + charged_; }
  std::uint64_t charged() const { return charged_; }

  template <typename T>
  T& state() {
    return static_cast<T&>(state_);
  }

  // ---- Event-word intrinsics -------------------------------------------------
  /// evw_new(networkID, eventLabel): event word for a NEW thread on `dst`.
  Word evw_new(NetworkId dst, EventLabel label) const { return evw::make_new(dst, label); }
  /// evw_update_event(oldEventWord, newEventLabel).
  Word evw_update_event(Word w, EventLabel label) const { return evw::update_event(w, label); }

  // ---- Messaging --------------------------------------------------------------
  /// send_event(eventWord, data..., continuationWord).
  void send_event(Word event_word, std::initializer_list<Word> ops, Word cont = IGNRCONT) {
    send_eventv(event_word, ops.begin(), ops.size(), cont);
  }

  void send_eventv(Word event_word, const Word* ops, std::size_t n, Word cont = IGNRCONT) {
    assert(n <= kMaxOperands);
    Message m;
    m.evw = event_word;
    m.cont = cont;
    m.nops = static_cast<std::uint8_t>(n);
    for (std::size_t i = 0; i < n; ++i) m.ops[i] = ops[i];
    m.src = nwid();
    charge(n > 3 ? 2 : 1);  // Send Message: 1-2 cycles
    lane_.stats().messages_sent++;
    m_.route_message(sh_, nwid_, lane_.next_seq(), std::move(m), now());
  }

  /// Bulk send: a message whose header carries up to 3 plain operands and
  /// whose payload streams `nwords` further words (<= kMaxBulkWords) — the
  /// KVMSR shuffle coalescer's packed-tuple transport. Table-2-faithful cost:
  /// the base Send Message charge covers the header and the first 8 payload
  /// words (the plain-message maximum), and each further 32-byte flit streams
  /// in one cycle. The receiver reads the payload with bulk_op().
  void send_event_bulk(Word event_word, std::initializer_list<Word> ops, const Word* words,
                       std::uint32_t nwords, Word cont = IGNRCONT) {
    assert(ops.size() <= 3 && nwords >= 1 && nwords <= kMaxBulkWords);
    Message m;
    m.evw = event_word;
    m.cont = cont;
    m.nops = static_cast<std::uint8_t>(ops.size());
    std::size_t i = 0;
    for (Word w : ops) m.ops[i++] = w;
    m.src = nwid();
    m.bulk_words = static_cast<std::uint16_t>(nwords);
    const std::uint32_t base = (nwords + m.nops) > 3 ? 2u : 1u;
    const std::uint32_t flits = nwords > 8 ? (nwords - 8 + 3) / 4 : 0u;
    charge(base + flits);
    lane_.stats().messages_sent++;
    m_.route_message(sh_, nwid_, lane_.next_seq(), std::move(m), now(), words);
  }

  /// Deliver an event to a thread on THIS lane synchronously, inside the
  /// current event's execution: no message, no queue round trip. The cycles
  /// the inline handler consumes (plus its yield) are charged to this
  /// context, so lane timing is identical to running the handler back to
  /// back on the lane. Used by the KVMSR packet unpacker to spawn one reduce
  /// thread per packed tuple with per-tuple cycle charging.
  void deliver_inline(Word event_word, const Word* ops, std::size_t n) {
    assert(n <= kMaxOperands);
    assert(evw::nwid(event_word) == nwid_ && "deliver_inline: same-lane only");
    Message m;
    m.evw = event_word;
    m.cont = IGNRCONT;
    m.nops = static_cast<std::uint8_t>(n);
    for (std::size_t i = 0; i < n; ++i) m.ops[i] = ops[i];
    m.src = nwid_;
    charge(m_.deliver_inline(sh_, std::move(m), now()));
  }

  /// KVMSR shuffle traffic counters of the executing shard (merged into
  /// MachineStats::shuffle at the next flush).
  ShuffleStats& shuffle_stats() { return sh_.stats.shuffle; }

  /// send_event after `delay` cycles (the lane timer: used for paced retry
  /// loops such as the KVMSR termination gather's backoff).
  void send_event_delayed(Word event_word, std::initializer_list<Word> ops, Word cont,
                          Tick delay) {
    Message m;
    m.evw = event_word;
    m.cont = cont;
    m.nops = static_cast<std::uint8_t>(ops.size());
    std::size_t i = 0;
    for (Word w : ops) m.ops[i++] = w;
    m.src = nwid();
    charge(1);
    lane_.stats().messages_sent++;
    m_.route_message(sh_, nwid_, lane_.next_seq(), std::move(m), now() + delay);
  }

  /// Reply along the received continuation (no-op when CCONT == IGNRCONT).
  void send_reply(std::initializer_list<Word> ops, Word cont = IGNRCONT) {
    if (msg_.cont == IGNRCONT) return;
    send_event(msg_.cont, ops, cont);
  }

  // ---- DRAM access --------------------------------------------------------------
  /// Read `nwords` (<= 8) 64-bit words starting at `addr`; the response is
  /// delivered to this thread's `return_label` event with the words as
  /// operands and the request address as the continuation word.
  void send_dram_read(Addr addr, unsigned nwords, EventLabel return_label) {
    send_dram_read_to(addr, nwords, evw::update_event(cevnt_, return_label), addr);
  }

  void send_dram_read_to(Addr addr, unsigned nwords, Word reply_evw, Word reply_cont) {
    assert(nwords >= 1 && nwords <= kMaxOperands);
    DramRequest r;
    r.addr = addr;
    r.nwords = static_cast<std::uint8_t>(nwords);
    r.is_write = false;
    r.reply_evw = reply_evw;
    r.reply_cont = reply_cont;
    r.src = nwid();
    charge(2);  // Send DRAM: 1-2 cycles
    m_.route_dram(sh_, nwid_, lane_.next_seq(), std::move(r), now());
  }

  /// Write words to DRAM; if `ack_label` != 0 an acknowledgement event is
  /// delivered to this thread once the write has been serviced.
  void send_dram_write(Addr addr, std::initializer_list<Word> words, EventLabel ack_label = 0) {
    send_dram_writev(addr, words.begin(), words.size(),
                     ack_label ? evw::update_event(cevnt_, ack_label) : 0, addr);
  }

  void send_dram_writev(Addr addr, const Word* words, std::size_t n, Word reply_evw = 0,
                        Word reply_cont = IGNRCONT) {
    assert(n >= 1 && n <= kMaxOperands);
    DramRequest r;
    r.addr = addr;
    r.nwords = static_cast<std::uint8_t>(n);
    r.is_write = true;
    for (std::size_t i = 0; i < n; ++i) r.data[i] = words[i];
    r.reply_evw = reply_evw;
    r.reply_cont = reply_cont;
    r.src = nwid();
    charge(2);
    m_.route_dram(sh_, nwid_, lane_.next_seq(), std::move(r), now());
  }

  // ---- Scratchpad ------------------------------------------------------------
  Word sp_read(std::uint64_t offset) {
    charge(1);
    if (Checker* ck = m_.checker()) {
      if (!ck->on_sp_access(nwid_, offset, sizeof(Word), /*is_write=*/false, now()))
        return 0;  // out-of-bounds access suppressed (reported by the checker)
    }
    Word v;
    std::memcpy(&v, lane_.scratchpad() + offset, sizeof(Word));
    return v;
  }
  void sp_write(std::uint64_t offset, Word v) {
    charge(1);
    if (Checker* ck = m_.checker()) {
      if (!ck->on_sp_access(nwid_, offset, sizeof(Word), /*is_write=*/true, now()))
        return;
    }
    std::memcpy(lane_.scratchpad() + offset, &v, sizeof(Word));
  }
  /// Raw scratchpad pointer for bulk operations; caller must charge()
  /// explicitly (1 cycle per word touched). Bypasses udcheck instrumentation.
  std::uint8_t* scratch() { return lane_.scratchpad(); }

  /// Declare a happens-before edge through a lane-local synchronization cell
  /// (an atomic scratchpad counter or flag identified by `slot`): a task that
  /// updates the cell calls sync_release; a later task on the same lane that
  /// reads it and acts on the value calls sync_acquire and inherits the
  /// releaser's causal history. The KVMSR termination gather is the canonical
  /// user: reduce tasks bump a per-lane received counter and terminate
  /// without sending, and the poll agent's read of that counter is the only
  /// ordering edge to the master's done decision. No-ops (one null test)
  /// unless udcheck is on; cycle costs are charged at the counter access.
  void sync_release(std::uint64_t slot) {
    if (Checker* ck = m_.checker()) ck->on_sync_release(nwid_, slot);
  }
  void sync_acquire(std::uint64_t slot) {
    if (Checker* ck = m_.checker()) ck->on_sync_acquire(nwid_, slot);
  }
  std::uint64_t sp_alloc(std::uint64_t bytes, std::uint64_t align = 8) {
    return lane_.sp_alloc(bytes, align);
  }
  Lane& lane() { return lane_; }

  // ---- Control ---------------------------------------------------------------
  /// Charge `cycles` of handler-local compute.
  void charge(std::uint64_t cycles) { charged_ += cycles; }

  /// Exit the event and deallocate this thread context (vs the implicit
  /// yield at handler return, which preserves it).
  void yield_terminate() {
    charge(1);  // Thread Deallocate: 1 cycle
    terminate_ = true;
  }
  bool terminated() const { return terminate_; }

  // ---- udtrace phase spans ---------------------------------------------------
  // Named begin/end markers on this lane's timeline (KVMSR map / drain /
  // flush, application supersteps). One null test when tracing is off; when
  // on, a record lands in the executing shard's trace buffer stamped with the
  // lane's private marker counter, so serialization orders markers
  // identically for any shard count. Spans on one lane nest LIFO in the
  // Chrome trace viewer; keep begin/end balanced per lane.
  void trace_phase_begin(std::string_view name) {
    if (Tracer* t = m_.tracer()) t->phase_begin(*sh_.trace, nwid_, now(), name);
  }
  void trace_phase_end(std::string_view name) {
    if (Tracer* t = m_.tracer()) t->phase_end(*sh_.trace, nwid_, now(), name);
  }

  /// Trace in the paper's [BASIM_PRINT]-style format (tick-prefixed).
  void log(const char* fmt, ...) const {
    if (!Logger::enabled(LogLevel::kInfo)) return;
    std::fprintf(stderr, "[UDSIM] %llu: [NWID %u][TID %u] ",
                 static_cast<unsigned long long>(now()), nwid(), tid_);
    va_list args;
    va_start(args, fmt);
    std::vfprintf(stderr, fmt, args);
    va_end(args);
    std::fputc('\n', stderr);
  }

 private:
  Machine& m_;
  EngineShard& sh_;  ///< the host thread's engine shard (stats, mailboxes)
  Lane lane_;        ///< value handle over this lane's LaneTable row
  Message& msg_;
  Tick start_;
  ThreadId tid_;
  Word cevnt_;
  NetworkId nwid_;
  ThreadState& state_;
  std::uint64_t charged_ = 0;
  bool terminate_ = false;
};

}  // namespace updown
