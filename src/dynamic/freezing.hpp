// Layer-freezing engine (paper §2.3, §4.2.3) — Egeria-style.
//
// Per-layer convergence is modeled by a plateau signal: layer ℓ's training
// contribution decays with a depth-dependent time constant (earlier layers
// converge first, as Egeria observes), and a layer freezes when its
// loss-delta rate drops under the convergence criterion.  Frozen layers
// keep running forward but skip backward and gradient exchange — which is
// what makes the front of the pipeline light and the back heavy.
//
// The engine also models Egeria's own bookkeeping cost (periodic reference
// model sync on the CPU), which grows with layer count — the paper's
// explanation for DynMo's widening advantage at 48 layers.
#pragma once

#include <vector>

#include "dynamic/dynamism.hpp"

namespace dynmo::dynamic {

struct FreezingEngineConfig {
  std::int64_t check_interval = 300;  ///< freezing decision cadence
  /// Iteration by which the earliest layer plateaus / the last prunable
  /// layer would plateau (layers interpolate between them).
  std::int64_t first_layer_converge_iter = 1000;
  std::int64_t last_layer_converge_iter = 20000;
  /// Depth exponent: >1 keeps late layers unfrozen much longer.
  double depth_exponent = 1.6;
  /// Fraction of layers that never freeze (the final ones + LM head).
  double never_freeze_tail = 0.2;
  double plateau_noise = 0.1;  ///< jitter on per-layer convergence time
  std::uint64_t seed = 0x5eed;
};

class FreezingEngine final : public DynamismEngine {
 public:
  FreezingEngine(const model::ModelDesc& model, FreezingEngineConfig cfg);

  std::string name() const override { return "layer_freezing"; }
  bool is_dynamism_point(std::int64_t iter) const override {
    return iter > 0 && iter % cfg_.check_interval == 0;
  }
  void step(std::int64_t iter, std::span<model::LayerState> states) override;
  std::int64_t recommended_rebalance_interval() const override {
    return cfg_.check_interval;
  }

  /// Modeled per-check overhead of the Egeria baseline itself (reference
  /// model maintenance scales with layer count); DynMo's own overhead is
  /// tracked by balance::Rebalancer instead.
  static double egeria_check_overhead_s(std::size_t num_layers) {
    return 2e-4 * static_cast<double>(num_layers);  // CPU-side model sync
  }

 private:
  const model::ModelDesc* model_;
  FreezingEngineConfig cfg_;
  std::vector<std::int64_t> freeze_at_;
};

}  // namespace dynmo::dynamic
