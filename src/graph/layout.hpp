// Device graph layout: the paper's two global data structures — the vertex
// array and the neighbor-list array — placed in the simulated global address
// space with DRAMmalloc (default: spread over the machine in 32 KiB blocks,
// Section 4.1.1).
//
// Vertex record (8 words / 64 bytes):
//   [0] id            original vertex id (for split graphs: the owner)
//   [1] degree        out-degree of this (sub-)vertex
//   [2] nbr_ptr       VA of this vertex's slice of the neighbor list
//   [6] owner_degree  total out-degree of the original vertex (PR transform)
// Words 3, 4, 5 and 7 are unused (zero): kernels keep their per-vertex
// results in arrays of their own (alloc_vertex_pairs), so one graph serves
// any number of queries. The record stays 8 words, so a kernel still
// fetches it with one DRAM read.
#pragma once

#include <bit>
#include <cstdint>

#include "graph/split.hpp"
#include "sim/machine.hpp"

namespace updown {

constexpr Word kInfDist = ~0ull;
constexpr Word kNoParent = ~0ull;

struct DeviceGraph {
  Addr vtx_base = 0;
  Addr nbr_base = 0;
  std::uint64_t num_vertices = 0;
  std::uint64_t num_edges = 0;
  std::uint64_t num_original = 0;  ///< == num_vertices unless split
  /// Split graphs only: VA of the slot_offset table (num_original + 1 words),
  /// so original vertex v's accumulator slots are [slot[v], slot[v+1]).
  /// 0 for an unsplit upload.
  Addr slot_base = 0;

  static constexpr std::uint64_t kVertexWords = 8;
  static constexpr std::uint64_t kVertexBytes = 64;
  enum Field : std::uint64_t { kId = 0, kDegree = 1, kNbrPtr = 2, kOwnerDegree = 6 };

  Addr vertex_addr(VertexId v) const { return vtx_base + v * kVertexBytes; }
  Addr field_addr(VertexId v, Field f) const { return vertex_addr(v) + f * 8; }
  bool split() const { return slot_base != 0; }
};

struct GraphPlacement {
  std::uint32_t first_node = 0;
  std::uint32_t nr_nodes = 0;  ///< 0 = whole machine (the paper's default)
  std::uint64_t block_size = 32 * 1024;
};

/// Upload an (optionally split) graph into simulated global memory. Host-side
/// writes model the data-loading phase outside the timed region. A split
/// upload also places the split's slot_offset table (DeviceGraph::slot_base)
/// with the same placement.
DeviceGraph upload_graph(Machine& m, const Graph& g, const GraphPlacement& place = {},
                         const SplitGraph* split = nullptr);

/// A per-vertex array of 2-word entries (BFS {level, parent} pairs), placed
/// like g's vertex array at a quarter of its block size, so vertex v's pair
/// sits on the node of v's record. Uninitialized.
Addr alloc_vertex_pairs(Machine& m, const DeviceGraph& g);

inline DeviceGraph upload_split_graph(Machine& m, const SplitGraph& sg,
                                      const GraphPlacement& place = {}) {
  return upload_graph(m, sg.g, place, &sg);
}

}  // namespace updown
