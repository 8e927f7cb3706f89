#include "dynamic/sparse_attn.hpp"

#include <algorithm>
#include <cmath>

#include "core/error.hpp"

namespace dynmo::dynamic {

namespace {

// The hash functions are re-drawn every kEpochIters iterations.
constexpr std::int64_t kEpochIters = 25;

bool has_attention(model::LayerKind kind) {
  return kind == model::LayerKind::TransformerBlock ||
         kind == model::LayerKind::MoeTransformerBlock;
}

}  // namespace

SparseAttnEngine::SparseAttnEngine(const model::ModelDesc& model,
                                   SparseAttnEngineConfig cfg)
    : model_(&model), cfg_(cfg) {
  DYNMO_CHECK(cfg.num_buckets > 1, "need at least two hash buckets");
  DYNMO_CHECK(cfg.blocks_per_seq > 0,
              "blocks_per_seq " << cfg.blocks_per_seq << " is not positive");
  DYNMO_CHECK(cfg.min_density > 0.0 && cfg.min_density <= 0.5,
              "min_density " << cfg.min_density << " is outside (0, 0.5]");
  DYNMO_CHECK(Rng::zipf_exponent_ok(cfg.bucket_zipf_s),
              "bucket_zipf_s " << cfg.bucket_zipf_s
                               << " is not finite, <= 0 or > 1");
  Rng rng(hash_mix(cfg.seed, 0x5a77));
  layer_bias_.resize(model.num_layers(), 0.0);
  for (std::size_t l = 0; l < model.num_layers(); ++l) {
    layer_bias_[l] = rng.normal(0.0, cfg.layer_spread);
  }
  epochs_.resize(model.num_layers());
}

SparseAttnEngine::HashEpoch SparseAttnEngine::epoch_draw(
    std::size_t layer, std::int64_t epoch) const {
  // Simulate bucket assignment of the flash tiles: tile b gets a bucket by
  // Zipf popularity; two causal tiles attend iff same bucket.  Density =
  // same-bucket causal pairs / all causal pairs.  The hash functions are
  // re-drawn as activations drift — every ~25 iterations in continual
  // training — so the block structure is strongly correlated across
  // consecutive iterations (what makes per-iteration rebalancing
  // worthwhile) with a small white-noise term on top.
  Rng rng(hash_mix(cfg_.seed ^ 0xa77e, layer,
                   static_cast<std::uint64_t>(epoch)));
  const int B = cfg_.blocks_per_seq;
  std::vector<int> bucket(static_cast<std::size_t>(B));
  for (auto& b : bucket) {
    b = static_cast<int>(
        rng.zipf(static_cast<std::uint64_t>(cfg_.num_buckets),
                 cfg_.bucket_zipf_s));
  }
  std::int64_t same = 0;
  std::int64_t total = 0;
  for (int q = 0; q < B; ++q) {
    for (int k = 0; k <= q; ++k) {
      ++total;
      if (bucket[static_cast<std::size_t>(q)] ==
          bucket[static_cast<std::size_t>(k)]) {
        ++same;
      }
    }
  }
  HashEpoch e;
  e.epoch = epoch;
  e.causal_frac = static_cast<double>(same) / static_cast<double>(total);
  e.slow = rng.normal(0.0, cfg_.iteration_jitter);
  return e;
}

double SparseAttnEngine::compose(std::size_t layer, std::int64_t iter,
                                 const HashEpoch& e) const {
  // Layer bias + slow jitter (tied to the hash epoch) + fast white noise.
  Rng fast(hash_mix(cfg_.seed ^ 0xfa50, layer,
                    static_cast<std::uint64_t>(iter)));
  const double jitter =
      std::exp(e.slow + layer_bias_[layer] + fast.normal(0.0, 0.05));
  const double density = 0.5 * e.causal_frac * jitter;
  return std::clamp(density, cfg_.min_density, 0.5);
}

double SparseAttnEngine::layer_density(std::size_t layer,
                                       std::int64_t iter) const {
  DYNMO_CHECK(layer < model_->num_layers(), "layer out of range");
  if (!has_attention(model_->layers[layer].kind)) {
    return 0.5;  // non-attention layers: dense causal convention
  }
  return compose(layer, iter, epoch_draw(layer, iter / kEpochIters));
}

void SparseAttnEngine::step(std::int64_t iter,
                            std::span<model::LayerState> states) {
  DYNMO_CHECK(states.size() == model_->num_layers(), "state size mismatch");
  const std::int64_t epoch = iter / kEpochIters;
  for (std::size_t l = 0; l < states.size(); ++l) {
    if (!has_attention(model_->layers[l].kind)) continue;
    HashEpoch& e = epochs_[l];
    if (e.epoch != epoch) e = epoch_draw(l, epoch);
    // Paper §2.4 models the layer load as s_i(k)·c_i — the sparsity factor
    // scales the whole layer (the target regime is long sequences where
    // attention dominates block time).  density/0.5 normalizes so that a
    // dense causal mask means scale 1.
    states[l].compute_scale = compose(l, iter, e) / 0.5;
  }
}

}  // namespace dynmo::dynamic
