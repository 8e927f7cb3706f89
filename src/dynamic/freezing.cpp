#include "dynamic/freezing.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/error.hpp"
#include "core/rng.hpp"

namespace dynmo::dynamic {

FreezingEngine::FreezingEngine(const model::ModelDesc& model,
                               FreezingEngineConfig cfg)
    : model_(&model), cfg_(cfg) {
  DYNMO_CHECK(cfg.check_interval > 0, "check interval must be positive");
  freeze_at_.assign(model.num_layers(),
                    std::numeric_limits<std::int64_t>::max());
  Rng rng(hash_mix(cfg.seed, 0xf7ee2e));
  const std::size_t n = model.num_layers();
  const auto tail_start = static_cast<std::size_t>(
      static_cast<double>(n) * (1.0 - cfg.never_freeze_tail));
  for (std::size_t l = 0; l < n; ++l) {
    const auto kind = model.layers[l].kind;
    const bool freezable = (kind == model::LayerKind::TransformerBlock ||
                            kind == model::LayerKind::MoeTransformerBlock ||
                            kind == model::LayerKind::Embedding) &&
                           l < tail_start;
    if (!freezable) continue;
    const double depth =
        static_cast<double>(l) / std::max<std::size_t>(1, n - 1);
    const double frac = std::pow(depth, cfg.depth_exponent);
    const double base =
        static_cast<double>(cfg.first_layer_converge_iter) +
        frac * static_cast<double>(cfg.last_layer_converge_iter -
                                   cfg.first_layer_converge_iter);
    const double jitter = 1.0 + rng.normal(0.0, cfg.plateau_noise);
    const auto at = static_cast<std::int64_t>(
        std::max(1.0, base * std::max(0.2, jitter)));
    // Freezing decisions only land on check boundaries (Egeria evaluates
    // the plateau criterion every check_interval iterations).
    freeze_at_[l] =
        ((at + cfg.check_interval - 1) / cfg.check_interval) *
        cfg.check_interval;
  }
}

void FreezingEngine::step(std::int64_t iter,
                          std::span<model::LayerState> states) {
  DYNMO_CHECK(states.size() == model_->num_layers(), "state size mismatch");
  for (std::size_t l = 0; l < states.size(); ++l) {
    states[l].frozen = iter >= freeze_at_[l];
  }
}

}  // namespace dynmo::dynamic
