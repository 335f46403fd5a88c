#include "graph/layout.hpp"

#include <algorithm>
#include <vector>

namespace updown {

DeviceGraph upload_graph(Machine& m, const Graph& g, const GraphPlacement& place,
                         const SplitGraph* split) {
  GlobalMemory& mem = m.memory();
  const std::uint32_t nr = place.nr_nodes == 0 ? m.config().nodes : place.nr_nodes;

  DeviceGraph dg;
  dg.num_vertices = g.num_vertices();
  dg.num_edges = g.num_edges();
  dg.num_original = split ? split->num_original : g.num_vertices();

  const std::uint64_t vtx_bytes = std::max<std::uint64_t>(1, dg.num_vertices) *
                                  DeviceGraph::kVertexBytes;
  const std::uint64_t nbr_bytes = std::max<std::uint64_t>(8, dg.num_edges * 8);
  dg.vtx_base = mem.dram_malloc(vtx_bytes, place.first_node, nr, place.block_size);
  dg.nbr_base = mem.dram_malloc(nbr_bytes, place.first_node, nr, place.block_size);

  // Neighbor list first (vertex records point into it).
  if (dg.num_edges > 0)
    mem.host_write(dg.nbr_base, g.neighbors().data(), dg.num_edges * 8);

  std::vector<Word> rec(DeviceGraph::kVertexWords, 0);
  for (VertexId v = 0; v < dg.num_vertices; ++v) {
    rec[DeviceGraph::kId] = split ? split->owner[v] : v;
    rec[DeviceGraph::kDegree] = g.degree(v);
    rec[DeviceGraph::kNbrPtr] = dg.nbr_base + g.offset(v) * 8;
    rec[DeviceGraph::kOwnerDegree] = split ? split->owner_degree[v] : g.degree(v);
    mem.host_write(dg.vertex_addr(v), rec.data(), DeviceGraph::kVertexBytes);
  }
  if (split) {
    const std::uint64_t slot_bytes = (dg.num_original + 1) * 8;
    dg.slot_base = mem.dram_malloc(slot_bytes, place.first_node, nr, place.block_size);
    mem.host_write(dg.slot_base, split->slot_offset.data(), slot_bytes);
  }
  return dg;
}

Addr alloc_vertex_pairs(Machine& m, const DeviceGraph& g) {
  const SwizzleDescriptor& d = m.memory().descriptor_for(g.vtx_base);
  return m.memory().dram_malloc(std::max<std::uint64_t>(1, g.num_vertices) * 16,
                                d.first_node(), d.nr_nodes(),
                                std::max<std::uint64_t>(16, d.block_size() / 4));
}

}  // namespace updown
