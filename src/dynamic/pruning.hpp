// Gradual global magnitude pruning engine (paper §2.2, §3.2.1, §4.2.2).
//
// Follows the Zhu–Gupta cubic schedule (Eq. 3):
//   S_t = S_f + (S_i − S_f)(1 − (t − t0)/(nΔt))³
// applied at t0, t0+Δt, ..., t0+nΔt.
//
// Layer weight-magnitude scales differ across depth (observed empirically:
// early/late layers carry larger-magnitude weights), so a *global* magnitude
// threshold retains very different fractions per layer — this non-uniform
// retention is precisely the load imbalance source of the paper's pruning
// experiment.  We model layer ℓ's weights as N(0, σ_ℓ²); the retained
// fraction under global threshold τ is erfc(τ / (σ_ℓ√2)), and τ is solved
// by bisection so that the *global* retention matches the schedule.  The
// exact distributed Algorithm 1 over real tensors lives in
// dynamic/distributed_pruning.hpp; this engine is its closed-form
// population-level counterpart (identical math, no giant tensors).
#pragma once

#include <vector>

#include "dynamic/dynamism.hpp"

namespace dynmo::dynamic {

struct PruningSchedule {
  double initial_sparsity = 0.0;  ///< S_i
  double final_sparsity = 0.9;    ///< S_f
  std::int64_t start_iter = 3000; ///< t0
  std::int64_t frequency = 1000;  ///< Δt
  int num_steps = 4;              ///< n

  /// Target sparsity at iteration t (Eq. 3); clamps outside the window.
  double sparsity_at(std::int64_t t) const;
  std::int64_t end_iter() const { return start_iter + frequency * num_steps; }
};

struct PruningEngineConfig {
  PruningSchedule schedule;
  /// Per-layer weight-magnitude spread: σ_ℓ drawn log-uniform in
  /// [sigma_min, sigma_max], deterministic per seed.  Wider spread → more
  /// skewed retention → more imbalance.
  double sigma_min = 0.4;
  double sigma_max = 2.5;
  /// Embedding / LM head are excluded from pruning (standard practice).
  bool prune_embeddings = false;
  std::uint64_t seed = 0x5eed;
};

class PruningEngine final : public DynamismEngine {
 public:
  PruningEngine(const model::ModelDesc& model, PruningEngineConfig cfg);

  std::string name() const override { return "gradual_pruning"; }
  /// The pruning steps: every `frequency` iterations of the schedule.
  bool is_dynamism_point(std::int64_t iter) const override {
    const PruningSchedule& s = cfg_.schedule;
    return iter >= s.start_iter && iter <= s.end_iter() &&
           (iter - s.start_iter) % s.frequency == 0;
  }
  void step(std::int64_t iter, std::span<model::LayerState> states) override;
  std::int64_t recommended_rebalance_interval() const override {
    return cfg_.schedule.frequency;
  }

  /// Retained fraction per layer at global sparsity `s` (the imbalance
  /// source); exposed for tests and benches.
  std::vector<double> retention_at_sparsity(double s) const;

  /// The global magnitude threshold achieving sparsity `s` for this model's
  /// σ profile (bisection on the Gaussian tail mass).
  double global_threshold(double s) const;

  const std::vector<double>& layer_sigma() const { return sigma_; }

 private:
  const model::ModelDesc* model_;
  PruningEngineConfig cfg_;
  std::vector<double> sigma_;     ///< per layer; 0 for excluded layers
  std::vector<double> weight_n_;  ///< prunable parameter count per layer
};

}  // namespace dynmo::dynamic
