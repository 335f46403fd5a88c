// Network timing model.
//
// The real UpDown machine uses a PolarStar diameter-3 topology [Lakhotia et
// al.]. The evaluation only exercises (a) the 1-3 hop latency profile,
// (b) per-node injection bandwidth, and (c) bisection bandwidth, so we model
// exactly those: a three-level hierarchical grouping assigns each node pair a
// hop distance in {1,2,3}, and token-bucket "next free time" counters model
// injection and bisection bandwidth contention.
//
// All token buckets are keyed by the *source* node: injection naturally, and
// bisection as a per-node share of the machine-wide bisection capacity
// (bw_bisection_per_node). Source-keyed state is what lets the sharded engine
// (sim/machine.cpp) call arrival() concurrently from the shard that owns the
// sending node without locks and without any cross-shard ordering dependence.
//
// Bucket arithmetic is integer fixed-point in 1/256-cycle units: next-free
// times accumulate thousands of per-message charges over a run, and a double
// accumulator makes the final ceil() depend on the platform's FP contraction
// and libm — the determinism goldens must be reproducible across compilers.
// Per-message cost is ceil(bytes * 256 / bw) fixed-point units with the
// bandwidths rounded to integer bytes/cycle (all shipped configs are
// integral), so every arrival() is exact integer math.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/bits.hpp"
#include "sim/config.hpp"

namespace updown {

class NetworkModel {
 public:
  explicit NetworkModel(const MachineConfig& cfg)
      : cfg_(cfg),
        lpn_div_(cfg.lanes_per_node()),
        lpa_div_(cfg.lanes_per_accel),
        inject_bw_(std::max<std::uint64_t>(1, std::llround(cfg.bw_inject_node))),
        bisection_bw_(std::max<std::uint64_t>(1, std::llround(cfg.bw_bisection_per_node))),
        inject_free_(cfg.nodes, 0),
        bisection_free_(cfg.nodes, 0) {
    // Pick group shifts so that nodes are split into ~cube-root-sized tiers:
    // same L1 group => 1 hop, same L2 group => 2 hops, else 3 hops.
    const unsigned bits = cfg.nodes > 1 ? log2_exact(next_pow2(cfg.nodes)) : 0;
    l1_shift_ = bits / 3;
    l2_shift_ = (2 * bits) / 3;
    if (l1_shift_ == 0 && bits > 0) l1_shift_ = 1;
    if (l2_shift_ <= l1_shift_) l2_shift_ = l1_shift_ + 1;
  }

  unsigned hops(std::uint32_t node_a, std::uint32_t node_b) const {
    if (node_a == node_b) return 0;
    if ((node_a >> l1_shift_) == (node_b >> l1_shift_)) return 1;
    if ((node_a >> l2_shift_) == (node_b >> l2_shift_)) return 2;
    return 3;
  }

  /// Nodes per L1 group (1 hop apart) and per L2 group (at most 2 hops
  /// apart), both aligned powers of two: the topology tiers that KVMSR's
  /// control tree hangs its group relays on.
  std::uint32_t l1_group_nodes() const { return 1u << l1_shift_; }
  std::uint32_t l2_group_nodes() const { return 1u << l2_shift_; }

  bool crosses_bisection(std::uint32_t node_a, std::uint32_t node_b) const {
    const std::uint32_t half = cfg_.nodes / 2;
    return half > 0 && (node_a < half) != (node_b < half);
  }

  /// Latency and bandwidth-queued arrival time of a message of `bytes` sent
  /// at `depart` from lane `src` to lane `dst` (both global lane ids).
  Tick arrival(Tick depart, NetworkId src, NetworkId dst, std::uint32_t bytes) {
    const std::uint32_t node_s = lpn_div_.div(src);
    const std::uint32_t node_d = lpn_div_.div(dst);
    if (node_s == node_d) {
      if (src == dst) return depart + cfg_.lat_same_lane;
      const std::uint32_t accel_s = lpa_div_.div(src);
      const std::uint32_t accel_d = lpa_div_.div(dst);
      return depart + (accel_s == accel_d ? cfg_.lat_intra_accel : cfg_.lat_intra_node);
    }
    // Cross-node: injection token bucket at the source node, optional
    // bisection bucket, then per-hop latency. Fixed-point 1/256-cycle units
    // throughout — see the header comment.
    std::uint64_t t = static_cast<std::uint64_t>(depart) << kFpShift;
    std::uint64_t& inj = inject_free_[node_s];
    inj = std::max(t, inj) + fp_cost(bytes, inject_bw_);
    t = inj;
    if (crosses_bisection(node_s, node_d)) {
      std::uint64_t& bis = bisection_free_[node_s];
      bis = std::max(t, bis) + fp_cost(bytes, bisection_bw_);
      t = bis;
    }
    const Tick lat = cfg_.lat_intra_node + cfg_.lat_hop * hops(node_s, node_d);
    return static_cast<Tick>((t + kFpOne - 1) >> kFpShift) + lat;
  }

  /// Injection-port backlog of `node` at `now`: how many cycles of already
  /// accepted traffic are still queued ahead of a fresh send (0 when the
  /// bucket has drained). A simulated quantity derived from the node's own
  /// token bucket, so it is shard-owned exactly like arrival() — udtrace
  /// samples it per send for the queue-depth time series.
  Tick inject_backlog(std::uint32_t node, Tick now) const {
    const std::uint64_t t = static_cast<std::uint64_t>(now) << kFpShift;
    const std::uint64_t inj = inject_free_[node];
    return inj > t ? static_cast<Tick>((inj - t) >> kFpShift) : 0;
  }

  void reset() {
    std::fill(inject_free_.begin(), inject_free_.end(), 0);
    std::fill(bisection_free_.begin(), bisection_free_.end(), 0);
  }

 private:
  static constexpr unsigned kFpShift = 8;  ///< 1/256-cycle fixed-point units
  static constexpr std::uint64_t kFpOne = 1ull << kFpShift;

  /// Bucket charge of `bytes` at `bw` bytes/cycle, rounded up to a fixed-point
  /// unit (never undercharges the link).
  static std::uint64_t fp_cost(std::uint64_t bytes, std::uint64_t bw) {
    return ((bytes << kFpShift) + bw - 1) / bw;
  }

  const MachineConfig& cfg_;
  FastDiv lpn_div_;  ///< by lanes_per_node(): node of a global lane id
  FastDiv lpa_div_;  ///< by lanes_per_accel: accelerator of a global lane id
  std::uint64_t inject_bw_;     ///< integer bytes/cycle (rounded from config)
  std::uint64_t bisection_bw_;  ///< integer bytes/cycle per-node share
  std::vector<std::uint64_t> inject_free_;  ///< per-node injection next-free time (fp)
  std::vector<std::uint64_t> bisection_free_;  ///< per-src-node bisection next-free (fp)
  unsigned l1_shift_ = 0, l2_shift_ = 1;
};

}  // namespace updown
