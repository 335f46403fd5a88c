// Ingestion workflow (paper Section 5.2.4, Figure 10; AGILE WF2 K1).
//
// "TFORM and KVMSR are used to load, parse a parallel file, and insert it
// into a graph data structure." The input byte stream lives in global
// memory; KVMSR maps over fixed-size blocks; each kv_map task streams its
// block's bytes from DRAM, runs the TFORM transducer, and emits one tuple
// per record; kv_reduce inserts the record into the Parallel Graph
// abstraction (two scalable hash tables) with scalable atomics.
//
// Records can span block boundaries: a task parses every record that STARTS
// inside its block, reading past the boundary into the next block's bytes —
// "such access would be impossible in a cloud map-reduce formulation".
#pragma once

#include <cstdint>
#include <string_view>

#include "abstractions/parallel_graph.hpp"
#include "kvmsr/kvmsr.hpp"

namespace updown::ingest {

struct Options {
  /// Parse-block size in bytes. Deliberately not a multiple of the 64-byte
  /// record so that records straddle block boundaries.
  std::uint64_t block_bytes = 1000;
  pgraph::Config graph{};
};

struct Result {
  std::uint64_t records = 0;
  Tick start_tick = 0;
  Tick done_tick = 0;

  Tick duration() const { return done_tick - start_tick; }
  double seconds() const { return ticks_to_seconds(duration()); }
  /// Records ingested per second (Figure 10 reports GigaRecords/s).
  double records_per_second() const {
    return seconds() > 0 ? static_cast<double>(records) / seconds() : 0.0;
  }
  double terabytes_per_second() const { return records_per_second() * 64 / 1e12; }
};

class App {
 public:
  static App& install(Machine& m, const Options& opt = {});
  App(Machine& m, const Options& opt);

  /// Load the byte stream into global memory (host-side, untimed) and run
  /// the parse+insert job to completion.
  Result run(std::string_view csv_bytes);

  pgraph::ParallelGraph& graph() { return *pg_; }

 private:
  friend struct IngestSource;
  friend struct IngestReduce;

  Machine& m_;
  kvmsr::Library* lib_;
  pgraph::ParallelGraph* pg_;
  Options opt_;

  Addr data_base_ = 0;
  std::uint64_t data_bytes_ = 0;

  kvmsr::JobId job_ = 0;
  struct Labels {
    EventLabel m_chunk = 0;
    EventLabel r_inserted = 0;
  } lb_;
};

}  // namespace updown::ingest
