// Mixture-of-Experts routing engine (paper §2.1, §4.2.1).
//
// Simulates token→expert routing at every iteration and converts the
// resulting per-expert token counts into a per-layer load factor (the
// bottleneck expert's relative load — in expert-parallel execution the
// slowest expert gates the layer).  Three routing schemes:
//   AuxLoss      — Mixtral-style gating with an auxiliary load-balancing
//                  loss that slowly pulls expert popularity toward uniform
//                  but never removes skew (~25% steady-state imbalance).
//   SBase        — S-BASE: an assignment (auction) step equalizes expert
//                  loads up to capacity rounding (small residual imbalance).
//   ExpertChoice — experts pick their top tokens: perfectly balanced by
//                  construction (used by the MoD engine's underlying MoE).
#pragma once

#include <vector>

#include "core/rng.hpp"
#include "dynamic/dynamism.hpp"

namespace dynmo::dynamic {

enum class MoeRouting { AuxLoss, SBase, ExpertChoice };

const char* to_string(MoeRouting r);

struct MoeEngineConfig {
  MoeRouting routing = MoeRouting::AuxLoss;
  std::size_t tokens_per_microbatch = 4096;  ///< sampled routing population
  int num_microbatches = 4;
  double popularity_zipf_s = 1.15;  ///< token→expert affinity skew
  /// Routers collapse to different degrees per layer (well documented for
  /// aux-loss gating): each layer's effective Zipf exponent is
  /// popularity_zipf_s·lognormal(0, layer_skew_spread), persistent across
  /// training.  This between-layer variance is what DynMo's layer moves
  /// absorb; the within-iteration microbatch noise is not fixable by any
  /// placement and shows up as DynMo's residual bubble (~8%, Fig. 3).
  double layer_skew_spread = 0.45;
  double popularity_drift = 0.02;   ///< per-iteration popularity evolution
  double aux_loss_pull = 0.01;      ///< per-iteration pull toward uniform
  std::uint64_t seed = 0x5eed;
};

class MoeEngine final : public DynamismEngine {
 public:
  MoeEngine(const model::ModelDesc& model, MoeEngineConfig cfg);

  std::string name() const override;
  bool is_dynamism_point(std::int64_t iter) const override {
    (void)iter;
    return true;  // routing changes every iteration
  }
  void step(std::int64_t iter, std::span<model::LayerState> states) override;
  pipeline::MicrobatchScaleFn microbatch_scale(std::int64_t iter) override;
  std::int64_t recommended_rebalance_interval() const override { return 1; }

  /// Per-expert token histogram for one (layer, microbatch) routing draw —
  /// exposed for tests and the imbalance characterization bench.  Throws
  /// dynmo::Error unless `layer` is an MoE block of the model.
  std::vector<std::size_t> route_tokens(std::size_t layer, std::int64_t iter,
                                        int microbatch) const;

  /// Bottleneck factor max_e(tokens_e) / mean_e(tokens_e) for a histogram.
  static double bottleneck_factor(std::span<const std::size_t> per_expert);

 private:
  /// One layer's gate weights at one iteration (positive by construction,
  /// as Rng::categorical(w, total) requires) and their left-to-right sum;
  /// every microbatch of that (layer, iter) draws from it.
  struct Gate {
    std::vector<double> weights;  ///< empty under ExpertChoice
    double total = 0.0;
  };
  /// Load factors of one MoE layer at the cached iteration.
  struct LayerLoad {
    std::vector<double> per_mb;  ///< bottleneck factor per microbatch
    double mean = 0.0;           ///< their mean, summed in microbatch order
  };

  std::vector<double> expert_popularity(std::size_t layer,
                                        std::int64_t iter) const;
  Gate gate(std::size_t layer, std::int64_t iter) const;
  /// Routes one (layer, microbatch) pair into `counts` (one slot per
  /// expert, overwritten).  Reads only const state, so pairs may run
  /// concurrently.
  void route(std::size_t layer, std::int64_t iter, int microbatch,
             const Gate& gate, std::span<std::size_t> counts) const;

  const model::ModelDesc* model_;
  MoeEngineConfig cfg_;
  std::vector<std::size_t> moe_layers_;  ///< indices of MoE blocks, ascending
  std::vector<LayerLoad> loads_;  ///< [layer], refreshed in step()
  std::int64_t cached_iter_ = -1;
};

}  // namespace dynmo::dynamic
