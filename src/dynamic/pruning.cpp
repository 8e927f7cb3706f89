#include "dynamic/pruning.hpp"

#include <algorithm>
#include <cmath>

#include "core/error.hpp"
#include "core/rng.hpp"

namespace dynmo::dynamic {

double PruningSchedule::sparsity_at(std::int64_t t) const {
  if (t < start_iter) return initial_sparsity;
  const std::int64_t end = end_iter();
  if (t >= end) return final_sparsity;
  const double frac = static_cast<double>(t - start_iter) /
                      static_cast<double>(frequency * num_steps);
  const double cubic = (1.0 - frac) * (1.0 - frac) * (1.0 - frac);
  return final_sparsity + (initial_sparsity - final_sparsity) * cubic;
}

namespace {
/// P(|X| >= tau) for X ~ N(0, sigma^2).
double gaussian_retention(double tau, double sigma) {
  if (sigma <= 0.0) return 0.0;
  return std::erfc(tau / (sigma * std::numbers::sqrt2));
}
}  // namespace

PruningEngine::PruningEngine(const model::ModelDesc& model,
                             PruningEngineConfig cfg)
    : model_(&model), cfg_(cfg) {
  DYNMO_CHECK(cfg.schedule.final_sparsity >= cfg.schedule.initial_sparsity,
              "final sparsity below initial");
  DYNMO_CHECK(cfg.schedule.final_sparsity < 1.0, "cannot prune everything");
  sigma_.resize(model.num_layers(), 0.0);
  weight_n_.resize(model.num_layers(), 0.0);
  Rng rng(hash_mix(cfg.seed, 0x9121e));
  const double lo = std::log(cfg.sigma_min);
  const double hi = std::log(cfg.sigma_max);
  for (std::size_t l = 0; l < model.num_layers(); ++l) {
    const auto& d = model.layers[l];
    const bool prunable =
        d.kind == model::LayerKind::TransformerBlock ||
        d.kind == model::LayerKind::MoeTransformerBlock ||
        (cfg.prune_embeddings && (d.kind == model::LayerKind::Embedding ||
                                  d.kind == model::LayerKind::LmHead));
    if (!prunable) continue;
    // Depth profile: U-shaped σ (first and last blocks hold larger weights)
    // plus a per-layer random factor.
    const double depth = static_cast<double>(l) /
                         std::max<std::size_t>(1, model.num_layers() - 1);
    const double u_shape = 0.5 + 2.0 * (depth - 0.5) * (depth - 0.5);
    const double rand_factor = std::exp(rng.uniform(lo, hi)) / cfg.sigma_max;
    sigma_[l] = u_shape * (0.5 + rand_factor);
    weight_n_[l] = static_cast<double>(d.params);
  }
}

double PruningEngine::global_threshold(double s) const {
  DYNMO_CHECK(s >= 0.0 && s < 1.0, "sparsity out of range: " << s);
  if (s == 0.0) return 0.0;
  double total_n = 0.0;
  for (std::size_t l = 0; l < sigma_.size(); ++l) {
    if (sigma_[l] > 0.0) total_n += weight_n_[l];
  }
  if (total_n <= 0.0) return 0.0;
  const double target_keep = (1.0 - s) * total_n;
  double lo = 0.0;
  double hi = 10.0 * *std::max_element(sigma_.begin(), sigma_.end());
  for (int it = 0; it < 200; ++it) {
    const double mid = 0.5 * (lo + hi);
    double kept = 0.0;
    for (std::size_t l = 0; l < sigma_.size(); ++l) {
      if (sigma_[l] > 0.0) {
        kept += weight_n_[l] * gaussian_retention(mid, sigma_[l]);
      }
    }
    if (kept > target_keep) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

std::vector<double> PruningEngine::retention_at_sparsity(double s) const {
  const double tau = global_threshold(s);
  std::vector<double> keep(sigma_.size(), 1.0);
  for (std::size_t l = 0; l < sigma_.size(); ++l) {
    if (sigma_[l] > 0.0) {
      keep[l] = s == 0.0 ? 1.0 : gaussian_retention(tau, sigma_[l]);
    }
  }
  return keep;
}

void PruningEngine::step(std::int64_t iter,
                         std::span<model::LayerState> states) {
  DYNMO_CHECK(states.size() == model_->num_layers(), "state size mismatch");
  const double s = cfg_.schedule.sparsity_at(iter);
  const auto keep = retention_at_sparsity(s);
  for (std::size_t l = 0; l < states.size(); ++l) {
    if (sigma_[l] <= 0.0) continue;  // excluded from pruning
    states[l].weight_density = std::clamp(keep[l], 0.0, 1.0);
    // Backend selection at the Sputnik/dense crossover (§4.2.2): Sputnik
    // wins once density < its relative efficiency vs dense tensor cores.
    states[l].spmm_backend =
        states[l].weight_density < hw::KernelCostModel::kSputnikRelEff
            ? hw::SpmmBackend::Sputnik
            : hw::SpmmBackend::DenseCublas;
  }
}

}  // namespace dynmo::dynamic
