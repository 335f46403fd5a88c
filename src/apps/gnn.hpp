// GNN feature generation (paper Table 3: "GNN (genFeatures) — doAll using
// kvmap"; cf. Xu's vertex-centric GNN aggregation [46]).
//
// One KVMSR pass aggregates neighbor features: each vertex pushes its
// feature vector along its out-edges; reducers accumulate per-dimension
// through the combining cache; the output is the neighborhood feature sum
// per vertex (mean normalization is a host-side epilogue in this kernel, as
// in the aggregate-then-combine formulation).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/layout.hpp"
#include "kvmsr/combining_cache.hpp"
#include "kvmsr/kvmsr.hpp"

namespace updown::gnn {

constexpr unsigned kDims = 4;  ///< feature dimensions (one emit per dim)

struct Result {
  /// out[v * kDims + d] = sum over in-neighbors u of feature[u][d].
  std::vector<double> aggregated;
  Tick start_tick = 0;
  Tick done_tick = 0;
  Tick duration() const { return done_tick - start_tick; }
};

class App {
 public:
  /// `features[v * kDims + d]` are the input per-vertex features.
  static App& install(Machine& m, const DeviceGraph& dg, const std::vector<double>& features);
  App(Machine& m, const DeviceGraph& dg, const std::vector<double>& features);

  Result run();

 private:
  friend struct GnnMap;
  friend struct GnnReduce;

  Machine& m_;
  kvmsr::Library* lib_;
  kvmsr::CombiningCache* cc_;
  DeviceGraph dg_;
  Addr feat_base_ = 0;  ///< input features, kDims f64 words per vertex
  Addr out_base_ = 0;   ///< aggregated output, kDims f64 words per vertex
  kvmsr::JobId job_ = 0;
  struct Labels {
    EventLabel m_rec = 0, m_feat = 0, m_nbrs = 0;
  } lb_;
};

/// Key encoding for the per-dimension reduction.
constexpr Word dim_key(Word v, unsigned d) { return v * kDims + d; }

}  // namespace updown::gnn
