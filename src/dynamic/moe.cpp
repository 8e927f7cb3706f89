#include "dynamic/moe.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "core/error.hpp"
#include "core/thread_pool.hpp"

namespace dynmo::dynamic {

const char* to_string(MoeRouting r) {
  switch (r) {
    case MoeRouting::AuxLoss: return "aux_loss";
    case MoeRouting::SBase: return "s-base";
    case MoeRouting::ExpertChoice: return "expert_choice";
  }
  return "?";
}

MoeEngine::MoeEngine(const model::ModelDesc& model, MoeEngineConfig cfg)
    : model_(&model), cfg_(cfg) {
  for (std::size_t l = 0; l < model.layers.size(); ++l) {
    if (model.layers[l].kind == model::LayerKind::MoeTransformerBlock) {
      moe_layers_.push_back(l);
    }
  }
  DYNMO_CHECK(!moe_layers_.empty(), "MoeEngine needs MoE blocks in the model");
  for (std::size_t l : moe_layers_) {
    DYNMO_CHECK(model.layers[l].num_experts > 0,
                "MoE block " << l << " of " << model.name << " has no experts");
  }
  DYNMO_CHECK(cfg_.num_microbatches > 0,
              "MoeEngine needs num_microbatches > 0, got "
                  << cfg_.num_microbatches);
}

std::string MoeEngine::name() const {
  return std::string("moe/") + to_string(cfg_.routing);
}

std::vector<double> MoeEngine::expert_popularity(std::size_t layer,
                                                 std::int64_t iter) const {
  const auto& desc = model_->layers[layer];
  const std::size_t E = desc.num_experts;
  // Base popularity: deterministic per-layer Zipf permutation, drifting
  // slowly with the iteration (token distribution shifts over training).
  Rng rng(hash_mix(cfg_.seed, layer, 0xdecade));
  const double layer_s =
      cfg_.popularity_zipf_s * std::exp(rng.normal(0.0, cfg_.layer_skew_spread));
  std::vector<double> pop(E);
  for (std::size_t e = 0; e < E; ++e) {
    pop[e] = 1.0 / std::pow(static_cast<double>(e) + 1.0, layer_s);
  }
  // Random expert order per layer so skew doesn't always hit expert 0.
  for (std::size_t e = E; e > 1; --e) {
    std::swap(pop[e - 1], pop[rng.uniform_int(e)]);
  }
  // Drift: popularity slowly rotates over iterations.
  Rng drift(hash_mix(cfg_.seed, layer,
                     static_cast<std::uint64_t>(iter / 50)));
  for (double& p : pop) {
    p *= std::exp(drift.normal(0.0, cfg_.popularity_drift * 10.0));
  }
  // Auxiliary-loss pull: over training, popularity relaxes toward uniform
  // but saturates (the paper observes persistent ~25% imbalance).
  const double pull =
      1.0 - std::exp(-cfg_.aux_loss_pull * static_cast<double>(iter % 10000));
  double total = 0.0;
  for (double p : pop) total += p;
  const double uni = total / static_cast<double>(E);
  const double relax = (cfg_.routing == MoeRouting::AuxLoss) ? 0.6 * pull : 0.0;
  for (double& p : pop) p = p * (1.0 - relax) + uni * relax;
  return pop;
}

MoeEngine::Gate MoeEngine::gate(std::size_t layer, std::int64_t iter) const {
  Gate g;
  if (cfg_.routing == MoeRouting::ExpertChoice) return g;  // no token choice
  g.weights = expert_popularity(layer, iter);
  for (double w : g.weights) g.total += w;
  DYNMO_CHECK(g.total > 0.0, "MoE layer " << layer << " gate weights sum to "
                                 << g.total << " at iteration " << iter);
  return g;
}

void MoeEngine::route(std::size_t layer, std::int64_t iter, int microbatch,
                      const Gate& gate, std::span<std::size_t> counts) const {
  const std::size_t E = counts.size();
  const std::size_t k = std::max<std::size_t>(1, model_->layers[layer].top_k);

  if (cfg_.routing == MoeRouting::ExpertChoice) {
    // Experts pick equal-size token sets: perfectly balanced.
    std::ranges::fill(counts, cfg_.tokens_per_microbatch * k / E);
    return;
  }

  std::ranges::fill(counts, 0);
  Rng rng(hash_mix(cfg_.seed ^ 0xab1e, layer,
                   static_cast<std::uint64_t>(iter) * 131 +
                       static_cast<std::uint64_t>(microbatch)));
  for (std::size_t t = 0; t < cfg_.tokens_per_microbatch; ++t) {
    // Token-choice: draw k distinct experts by popularity-weighted gating.
    std::size_t first = rng.categorical(gate.weights, gate.total);
    ++counts[first];
    for (std::size_t j = 1; j < k; ++j) {
      std::size_t e = rng.categorical(gate.weights, gate.total);
      while (e == first) e = rng.categorical(gate.weights, gate.total);
      ++counts[e];
    }
  }

  if (cfg_.routing == MoeRouting::SBase) {
    // S-BASE reassigns overflow tokens via an auction so each expert ends
    // within one capacity unit of the mean; residual imbalance comes from
    // rounding and the stochastic auction order.
    const std::size_t total = cfg_.tokens_per_microbatch * k;
    const std::size_t cap = (total + E - 1) / E;
    std::size_t overflow = 0;
    for (auto& c : counts) {
      if (c > cap) {
        overflow += c - cap;
        c = cap;
      }
    }
    for (std::size_t e = 0; overflow > 0; e = (e + 1) % E) {
      if (counts[e] < cap) {
        ++counts[e];
        --overflow;
      }
    }
  }
}

std::vector<std::size_t> MoeEngine::route_tokens(std::size_t layer,
                                                 std::int64_t iter,
                                                 int microbatch) const {
  DYNMO_CHECK(std::ranges::binary_search(moe_layers_, layer),
              "route_tokens: layer " << layer << " is not an MoE block (model "
                                     << model_->name << " has "
                                     << model_->num_layers() << " layers)");
  std::vector<std::size_t> counts(model_->layers[layer].num_experts);
  route(layer, iter, microbatch, gate(layer, iter), counts);
  return counts;
}

double MoeEngine::bottleneck_factor(std::span<const std::size_t> per_expert) {
  if (per_expert.empty()) return 1.0;
  double total = 0.0;
  std::size_t mx = 0;
  for (std::size_t c : per_expert) {
    total += static_cast<double>(c);
    mx = std::max(mx, c);
  }
  const double mean = total / static_cast<double>(per_expert.size());
  return mean > 0.0 ? static_cast<double>(mx) / mean : 1.0;
}

void MoeEngine::step(std::int64_t iter,
                     std::span<model::LayerState> states) {
  DYNMO_CHECK(states.size() == model_->num_layers(), "state size mismatch");
  const auto M = static_cast<std::size_t>(cfg_.num_microbatches);
  loads_.assign(model_->num_layers(), {});
  std::vector<Gate> gates;
  gates.reserve(moe_layers_.size());
  for (std::size_t l : moe_layers_) {
    gates.push_back(gate(l, iter));
    loads_[l].per_mb.resize(M);
  }
  // Each (MoE layer, microbatch) pair seeds its own Rng stream and writes
  // only its own slot, so the loads do not depend on thread count or on
  // which worker takes which pair; the means below are summed serially in
  // microbatch order.  Workers claim one pair at a time, so a worker that
  // loses its core delays the step by one pair rather than a whole chunk.
  auto& pool = ThreadPool::global();
  const std::size_t pairs = moe_layers_.size() * M;
  std::atomic<std::size_t> next{0};
  pool.parallel_for(0, pool.size(), [&](std::size_t, std::size_t) {
    std::vector<std::size_t> counts;
    for (std::size_t p = next++; p < pairs; p = next++) {
      const std::size_t i = p / M;
      const std::size_t mb = p % M;
      const std::size_t l = moe_layers_[i];
      counts.resize(model_->layers[l].num_experts);
      route(l, iter, static_cast<int>(mb), gates[i], counts);
      loads_[l].per_mb[mb] = bottleneck_factor(counts);
    }
  });
  for (std::size_t l : moe_layers_) {
    auto& load = loads_[l];
    for (double v : load.per_mb) load.mean += v;
    load.mean /= static_cast<double>(M);
    states[l].moe_load = load.mean;
  }
  cached_iter_ = iter;
}

pipeline::MicrobatchScaleFn MoeEngine::microbatch_scale(std::int64_t iter) {
  DYNMO_CHECK(iter == cached_iter_, "call step() before microbatch_scale()");
  // Scale relative to the layer's mean load (the mean is already folded
  // into LayerState::moe_load).
  return [this](std::size_t layer, int mb) -> double {
    if (layer >= loads_.size() || loads_[layer].per_mb.empty()) return 1.0;
    const auto& load = loads_[layer];
    if (load.mean <= 0.0) return 1.0;
    return load.per_mb[static_cast<std::size_t>(mb) % load.per_mb.size()] /
           load.mean;
  };
}

}  // namespace dynmo::dynamic
