// Unit tests for the six dynamism engines: schedules, monotonicity,
// determinism, and the statistical properties the paper relies on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/error.hpp"
#include "core/rng.hpp"
#include "core/stats.hpp"
#include "dynamic/early_exit.hpp"
#include "dynamic/freezing.hpp"
#include "dynamic/mod.hpp"
#include "dynamic/moe.hpp"
#include "dynamic/pruning.hpp"
#include "dynamic/sparse_attn.hpp"

namespace dynmo::dynamic {
namespace {

model::ModelDesc gpt(std::size_t blocks) {
  return model::make_gpt({.num_blocks = blocks,
                          .include_embedding = false,
                          .include_lm_head = false});
}

// ---------------------------------------------------------------- pruning

TEST(PruningSchedule, ZhuGuptaCheckpoints) {
  // Paper §5.1: with t0=3000, Δt=1000, n=4, S_f=0.9, sparsity after each
  // step is 52%, 79%, 90% (and 90% at the end).
  PruningSchedule s;
  EXPECT_DOUBLE_EQ(s.sparsity_at(0), 0.0);
  EXPECT_DOUBLE_EQ(s.sparsity_at(2999), 0.0);
  EXPECT_NEAR(s.sparsity_at(4000), 0.52, 0.01);
  EXPECT_NEAR(s.sparsity_at(5000), 0.79, 0.01);
  EXPECT_NEAR(s.sparsity_at(6000), 0.876, 0.01);
  EXPECT_DOUBLE_EQ(s.sparsity_at(7000), 0.9);
  EXPECT_DOUBLE_EQ(s.sparsity_at(100000), 0.9);
}

TEST(PruningEngine, DynamismPointsAreThePruningSteps) {
  const auto m = gpt(8);
  const PruningEngine eng(m, {});
  EXPECT_TRUE(eng.is_dynamism_point(3000));
  EXPECT_TRUE(eng.is_dynamism_point(5000));
  EXPECT_TRUE(eng.is_dynamism_point(7000));
  EXPECT_FALSE(eng.is_dynamism_point(3500));
  EXPECT_FALSE(eng.is_dynamism_point(8000));
  EXPECT_FALSE(eng.is_dynamism_point(0));
}

TEST(PruningEngine, GlobalRetentionMatchesTarget) {
  const auto m = gpt(24);
  PruningEngine eng(m, {});
  for (double s : {0.3, 0.6, 0.9}) {
    const auto keep = eng.retention_at_sparsity(s);
    // Weighted average retention across prunable layers ≈ 1 - s.
    double kept_params = 0.0;
    double total_params = 0.0;
    for (std::size_t l = 0; l < m.num_layers(); ++l) {
      kept_params += keep[l] * static_cast<double>(m.layers[l].params);
      total_params += static_cast<double>(m.layers[l].params);
    }
    EXPECT_NEAR(kept_params / total_params, 1.0 - s, 0.01) << s;
  }
}

TEST(PruningEngine, RetentionSkewAcrossLayers) {
  // The load-imbalance source: at 90% sparsity some layers retain much
  // more than others.
  const auto m = gpt(24);
  PruningEngine eng(m, {});
  const auto keep = eng.retention_at_sparsity(0.9);
  const double lo = *std::min_element(keep.begin(), keep.end());
  const double hi = *std::max_element(keep.begin(), keep.end());
  EXPECT_GT(hi / std::max(lo, 1e-9), 2.0);
}

TEST(PruningEngine, StepSetsDensityAndBackend) {
  const auto m = gpt(8);
  PruningEngine eng(m, {});
  std::vector<model::LayerState> st(m.num_layers());
  eng.step(7000, st);  // final sparsity 0.9
  int sputnik = 0;
  for (const auto& s : st) {
    EXPECT_LE(s.weight_density, 1.0);
    if (s.spmm_backend == hw::SpmmBackend::Sputnik) {
      ++sputnik;
      EXPECT_LT(s.weight_density, hw::KernelCostModel::kSputnikRelEff);
    }
  }
  EXPECT_GT(sputnik, 0);  // most layers cross the Sputnik threshold at 90%
}

TEST(PruningEngine, MonotoneSparsityMonotoneDensity) {
  const auto m = gpt(8);
  PruningEngine eng(m, {});
  std::vector<model::LayerState> early(m.num_layers()), late(m.num_layers());
  eng.step(4000, early);
  eng.step(7000, late);
  for (std::size_t l = 0; l < m.num_layers(); ++l) {
    EXPECT_LE(late[l].weight_density, early[l].weight_density + 1e-12);
  }
}

// --------------------------------------------------------------- freezing

/// Per layer, whether step() reports it frozen at iteration `it`.
std::vector<bool> frozen_at(FreezingEngine& eng, const model::ModelDesc& m,
                            std::int64_t it) {
  std::vector<model::LayerState> st(m.num_layers());
  eng.step(it, st);
  std::vector<bool> frozen;
  for (const auto& s : st) frozen.push_back(s.frozen);
  return frozen;
}

TEST(FreezingEngine, FrontBiasAndMonotonicity) {
  const auto m = gpt(24);
  FreezingEngine eng(m, {});
  constexpr auto kNever = std::numeric_limits<std::int64_t>::max();
  std::vector<std::int64_t> first_frozen(m.num_layers(), kNever);
  // Freezing never reverses.
  std::size_t prev = 0;
  for (std::int64_t it = 0; it <= 20000; it += 300) {
    const auto frozen = frozen_at(eng, m, it);
    const auto now =
        static_cast<std::size_t>(std::count(frozen.begin(), frozen.end(), true));
    EXPECT_GE(now, prev);
    prev = now;
    for (std::size_t l = 0; l < frozen.size(); ++l) {
      if (frozen[l] && first_frozen[l] == kNever) first_frozen[l] = it;
    }
  }
  // Early layers freeze earlier on average than late prunable layers.
  EXPECT_LE(first_frozen[1], first_frozen[17]);
}

TEST(FreezingEngine, TailNeverFreezes) {
  const auto m = gpt(20);
  FreezingEngineConfig cfg;
  cfg.never_freeze_tail = 0.25;
  FreezingEngine eng(m, cfg);
  std::vector<model::LayerState> st(m.num_layers());
  eng.step(1'000'000'000, st);
  for (std::size_t l = 15; l < 20; ++l) EXPECT_FALSE(st[l].frozen) << l;
  // But a substantial prefix is frozen by then.
  EXPECT_TRUE(st[0].frozen);
}

TEST(FreezingEngine, DecisionsLandOnCheckBoundaries) {
  const auto m = gpt(16);
  FreezingEngineConfig cfg;
  cfg.check_interval = 300;
  FreezingEngine eng(m, cfg);
  auto prev = frozen_at(eng, m, 0);
  for (std::int64_t it = 1; it <= 6000; ++it) {
    const auto now = frozen_at(eng, m, it);
    if (now != prev) {
      EXPECT_EQ(it % 300, 0) << it;
    }
    prev = now;
  }
}

TEST(FreezingEngine, EgeriaOverheadGrowsWithDepth) {
  EXPECT_GT(FreezingEngine::egeria_check_overhead_s(48),
            FreezingEngine::egeria_check_overhead_s(24));
}

// ------------------------------------------------------------ sparse attn

TEST(SparseAttn, DensityBounds) {
  const auto m = gpt(16);
  SparseAttnEngine eng(m, {});
  for (std::int64_t it : {0, 17, 500, 9999}) {
    for (std::size_t l = 0; l < m.num_layers(); ++l) {
      const double d = eng.layer_density(l, it);
      EXPECT_GE(d, 0.02);
      EXPECT_LE(d, 0.5);
    }
  }
}

TEST(SparseAttn, TemporallyCorrelatedWithinHashEpoch) {
  const auto m = gpt(16);
  SparseAttnEngine eng(m, {});
  // Same hash epoch (iter/25): densities nearly equal; different epochs
  // decorrelate.
  double same_delta = 0.0;
  double cross_delta = 0.0;
  for (std::size_t l = 0; l < m.num_layers(); ++l) {
    same_delta += std::abs(eng.layer_density(l, 100) -
                           eng.layer_density(l, 101));
    cross_delta += std::abs(eng.layer_density(l, 100) -
                            eng.layer_density(l, 300));
  }
  EXPECT_LT(same_delta, cross_delta);
}

TEST(SparseAttn, StepWritesComputeScale) {
  const auto m = gpt(8);
  SparseAttnEngine eng(m, {});
  std::vector<model::LayerState> st(m.num_layers());
  eng.step(42, st);
  for (const auto& s : st) {
    EXPECT_GT(s.compute_scale, 0.0);
    EXPECT_LE(s.compute_scale, 1.0);  // density <= 0.5 → scale <= 1
  }
  // Mean reduction is substantial (that's the point of sparsifying).
  double mean = 0.0;
  for (const auto& s : st) mean += s.compute_scale;
  mean /= static_cast<double>(st.size());
  EXPECT_LT(mean, 0.8);
}

// The density as first written: every (layer, iter) re-draws its epoch's
// tiles and counts same-bucket causal pairs one by one.
double density_oracle(const model::ModelDesc& m,
                      const SparseAttnEngineConfig& cfg, std::size_t layer,
                      std::int64_t iter) {
  const auto kind = m.layers[layer].kind;
  if (kind != model::LayerKind::TransformerBlock &&
      kind != model::LayerKind::MoeTransformerBlock) {
    return 0.5;
  }
  Rng bias_rng(hash_mix(cfg.seed, 0x5a77));
  double bias = 0.0;
  for (std::size_t l = 0; l <= layer; ++l) {
    bias = bias_rng.normal(0.0, cfg.layer_spread);
  }
  Rng rng(hash_mix(cfg.seed ^ 0xa77e, layer,
                   static_cast<std::uint64_t>(iter / 25)));
  std::vector<int> bucket(static_cast<std::size_t>(cfg.blocks_per_seq));
  for (auto& b : bucket) {
    b = static_cast<int>(rng.zipf(static_cast<std::uint64_t>(cfg.num_buckets),
                                  cfg.bucket_zipf_s));
  }
  std::int64_t same = 0;
  std::int64_t total = 0;
  for (std::size_t q = 0; q < bucket.size(); ++q) {
    for (std::size_t k = 0; k <= q; ++k) {
      ++total;
      if (bucket[q] == bucket[k]) ++same;
    }
  }
  const double causal_frac =
      static_cast<double>(same) / static_cast<double>(total);
  Rng fast(hash_mix(cfg.seed ^ 0xfa50, layer,
                    static_cast<std::uint64_t>(iter)));
  const double jitter = std::exp(rng.normal(0.0, cfg.iteration_jitter) +
                                 bias + fast.normal(0.0, 0.05));
  return std::clamp(0.5 * causal_frac * jitter, cfg.min_density, 0.5);
}

TEST(SparseAttn, CachedStepMatchesLayerDensityAndOracle) {
  // Embedding and head are non-attention layers step() leaves alone.
  const auto m = model::make_gpt({.num_blocks = 12});
  SparseAttnEngineConfig cfg;
  cfg.blocks_per_seq = 37;
  SparseAttnEngine eng(m, cfg);
  std::vector<std::int64_t> iters;
  for (std::int64_t it = 0; it <= 130; ++it) iters.push_back(it);
  // Backward jumps, within and across epochs, and revisits.
  for (std::int64_t it : {130, 126, 124, 99, 100, 25, 24, 0, 75, 74, 130}) {
    iters.push_back(it);
  }
  std::vector<model::LayerState> st(m.num_layers());
  for (std::int64_t it : iters) {
    for (auto& s : st) s.compute_scale = -1.0;
    eng.step(it, st);
    for (std::size_t l = 0; l < m.num_layers(); ++l) {
      const double d = eng.layer_density(l, it);
      EXPECT_EQ(d, density_oracle(m, cfg, l, it)) << "layer " << l
                                                   << " iter " << it;
      const auto kind = m.layers[l].kind;
      if (kind == model::LayerKind::TransformerBlock) {
        EXPECT_EQ(st[l].compute_scale, d / 0.5) << "layer " << l << " iter "
                                                << it;
      } else {
        EXPECT_EQ(st[l].compute_scale, -1.0) << "layer " << l;
      }
    }
  }
}

TEST(SparseAttn, RejectsConfigsItCannotSimulate) {
  const auto m = gpt(4);
  const auto with = [](auto edit) {
    SparseAttnEngineConfig cfg;
    edit(cfg);
    return cfg;
  };
  const std::vector<SparseAttnEngineConfig> bad = {
      with([](auto& c) { c.num_buckets = 1; }),
      with([](auto& c) { c.blocks_per_seq = 0; }),
      with([](auto& c) { c.blocks_per_seq = -3; }),
      with([](auto& c) { c.min_density = 0.0; }),
      with([](auto& c) { c.min_density = -0.1; }),
      with([](auto& c) { c.min_density = 0.6; }),
      with([](auto& c) { c.min_density = std::nan(""); }),
      with([](auto& c) { c.bucket_zipf_s = 1.0; }),
      with([](auto& c) { c.bucket_zipf_s = 0.5; }),
      with([](auto& c) { c.bucket_zipf_s = std::nan(""); }),
      with([](auto& c) { c.bucket_zipf_s = HUGE_VAL; }),
  };
  for (std::size_t i = 0; i < bad.size(); ++i) {
    EXPECT_THROW({ SparseAttnEngine eng(m, bad[i]); }, Error) << "config " << i;
  }
  // Boundary values that stay valid: uniform buckets and a dense floor.
  for (const auto& cfg : {with([](auto& c) { c.bucket_zipf_s = 0.0; }),
                          with([](auto& c) { c.bucket_zipf_s = -1.0; }),
                          with([](auto& c) { c.min_density = 0.5; }),
                          with([](auto& c) { c.blocks_per_seq = 1; })}) {
    SparseAttnEngine eng(m, cfg);
    const double d = eng.layer_density(0, 7);
    EXPECT_GE(d, cfg.min_density);
    EXPECT_LE(d, 0.5);
  }
}

// ------------------------------------------------------------- early exit

TEST(EarlyExit, SurvivalMonotoneInDepth) {
  const auto m = gpt(32);
  EarlyExitEngine eng(m, {});
  std::vector<model::LayerState> st(m.num_layers());
  eng.step(10000, st);
  for (std::size_t l = 1; l < st.size(); ++l) {
    EXPECT_LE(st[l].token_fraction, st[l - 1].token_fraction + 1e-12);
  }
  EXPECT_DOUBLE_EQ(st[0].token_fraction, 1.0);  // warm prefix
  EXPECT_LT(st.back().token_fraction, 0.2);     // deep tail exits
}

TEST(EarlyExit, ConfidenceRampsOverTraining) {
  const auto m = gpt(32);
  EarlyExitEngine eng(m, {});
  // Later in training, more tokens exit (deep layers lighter).
  EXPECT_GT(eng.survival(30, 100), eng.survival(30, 10000));
  EXPECT_NEAR(eng.survival(30, 0), 1.0, 0.15);
}

TEST(EarlyExit, HeadAndEmbeddingExempt) {
  const auto m = model::make_gpt({.num_blocks = 8});  // with emb + head
  EarlyExitEngine eng(m, {});
  std::vector<model::LayerState> st(m.num_layers());
  eng.step(10000, st);
  EXPECT_DOUBLE_EQ(st.front().token_fraction, 1.0);  // embedding
  EXPECT_DOUBLE_EQ(st.back().token_fraction, 1.0);   // lm head
}

TEST(EarlyExit, DeeperModelsSaveRelativelyMore) {
  EarlyExitEngineConfig cfg;
  const auto shallow = gpt(24);
  const auto deep = gpt(48);
  EarlyExitEngine e24(shallow, cfg), e48(deep, cfg);
  std::vector<model::LayerState> s24(24), s48(48);
  e24.step(10000, s24);
  e48.step(10000, s48);
  const auto frac = [](std::span<const model::LayerState> st) {
    double acc = 0.0;
    for (const auto& s : st) acc += s.token_fraction;
    return acc / static_cast<double>(st.size());
  };
  EXPECT_LT(frac(s48), frac(s24));
}

// -------------------------------------------------------------------- MoE

TEST(Moe, RouteCountsConserveTokens) {
  const auto m = model::make_moe(model::mixtral_8x7b_config(), "m");
  MoeEngineConfig cfg;
  cfg.tokens_per_microbatch = 1024;
  MoeEngine eng(m, cfg);
  const auto counts = eng.route_tokens(1, 7, 0);
  std::size_t total = 0;
  for (auto c : counts) total += c;
  EXPECT_EQ(total, 1024u * m.layers[1].top_k);
}

TEST(Moe, ExpertChoicePerfectlyBalanced) {
  const auto m = model::make_moe(model::mixtral_8x7b_config(), "m");
  MoeEngineConfig cfg;
  cfg.routing = MoeRouting::ExpertChoice;
  MoeEngine eng(m, cfg);
  const auto counts = eng.route_tokens(1, 7, 0);
  EXPECT_NEAR(MoeEngine::bottleneck_factor(counts), 1.0, 1e-9);
}

TEST(Moe, SBaseNearlyBalanced) {
  const auto m = model::make_moe(model::mixtral_8x7b_config(), "m");
  MoeEngineConfig aux, sbase;
  sbase.routing = MoeRouting::SBase;
  MoeEngine e_aux(m, aux), e_sbase(m, sbase);
  double aux_f = 0.0, sbase_f = 0.0;
  for (int it = 0; it < 20; ++it) {
    aux_f += MoeEngine::bottleneck_factor(e_aux.route_tokens(1, it, 0));
    sbase_f += MoeEngine::bottleneck_factor(e_sbase.route_tokens(1, it, 0));
  }
  // S-BASE's auction caps expert load at capacity: strictly tighter.
  EXPECT_LT(sbase_f, aux_f);
  EXPECT_NEAR(sbase_f / 20.0, 1.0, 0.05);
  // Aux-loss routing keeps a persistent hotspot.
  EXPECT_GT(aux_f / 20.0, 1.1);
}

TEST(Moe, StepSetsLoadsOnlyOnMoeBlocks) {
  const auto m = model::make_moe(model::llama_moe_3_5b_config(), "m");
  MoeEngineConfig cfg;
  cfg.tokens_per_microbatch = 512;
  cfg.num_microbatches = 2;
  MoeEngine eng(m, cfg);
  std::vector<model::LayerState> st(m.num_layers());
  eng.step(3, st);
  EXPECT_DOUBLE_EQ(st.front().moe_load, 1.0);  // embedding untouched
  bool any = false;
  for (std::size_t l = 0; l < st.size(); ++l) {
    if (m.layers[l].kind == model::LayerKind::MoeTransformerBlock) {
      EXPECT_GT(st[l].moe_load, 0.9);
      any = true;
    }
  }
  EXPECT_TRUE(any);
  // Microbatch scale hook is available and positive.
  const auto scale = eng.microbatch_scale(3);
  ASSERT_TRUE(static_cast<bool>(scale));
  EXPECT_GT(scale(1, 0), 0.0);
}

TEST(Moe, RejectsNonMoeLayersAndEmptyConfigs) {
  const auto m = model::make_moe(model::mixtral_8x7b_config(), "m");
  ASSERT_EQ(m.layers.front().kind, model::LayerKind::Embedding);
  for (MoeRouting r : {MoeRouting::AuxLoss, MoeRouting::SBase,
                       MoeRouting::ExpertChoice}) {
    MoeEngineConfig cfg;
    cfg.routing = r;
    MoeEngine eng(m, cfg);
    EXPECT_THROW((void)eng.route_tokens(0, 1, 0), Error) << to_string(r);
    EXPECT_THROW((void)eng.route_tokens(m.num_layers(), 1, 0), Error)
        << to_string(r);
  }
  MoeEngineConfig no_mbs;
  no_mbs.num_microbatches = 0;
  EXPECT_THROW(MoeEngine(m, no_mbs), Error);
  auto no_experts_cfg = model::mixtral_8x7b_config();
  no_experts_cfg.num_experts = 0;
  const auto no_experts = model::make_moe(no_experts_cfg, "no-experts");
  EXPECT_THROW(MoeEngine(no_experts, {}), Error);
}

// The serial routing loop MoeEngine replaced: popularity recomputed for
// every (layer, microbatch) and every token drawn with the summing
// Rng::categorical(w).  The engine's hoisted gate and parallel pairs must
// reproduce it bit for bit.
namespace oracle {

std::vector<double> expert_popularity(const model::ModelDesc& m,
                                      const MoeEngineConfig& cfg,
                                      std::size_t layer, std::int64_t iter) {
  const std::size_t E = m.layers[layer].num_experts;
  Rng rng(hash_mix(cfg.seed, layer, 0xdecade));
  const double layer_s =
      cfg.popularity_zipf_s * std::exp(rng.normal(0.0, cfg.layer_skew_spread));
  std::vector<double> pop(E);
  for (std::size_t e = 0; e < E; ++e) {
    pop[e] = 1.0 / std::pow(static_cast<double>(e) + 1.0, layer_s);
  }
  for (std::size_t e = E; e > 1; --e) {
    std::swap(pop[e - 1], pop[rng.uniform_int(e)]);
  }
  Rng drift(hash_mix(cfg.seed, layer, static_cast<std::uint64_t>(iter / 50)));
  for (double& p : pop) {
    p *= std::exp(drift.normal(0.0, cfg.popularity_drift * 10.0));
  }
  const double pull =
      1.0 - std::exp(-cfg.aux_loss_pull * static_cast<double>(iter % 10000));
  double total = 0.0;
  for (double p : pop) total += p;
  const double uni = total / static_cast<double>(E);
  const double relax = (cfg.routing == MoeRouting::AuxLoss) ? 0.6 * pull : 0.0;
  for (double& p : pop) p = p * (1.0 - relax) + uni * relax;
  return pop;
}

std::vector<std::size_t> route_tokens(const model::ModelDesc& m,
                                      const MoeEngineConfig& cfg,
                                      std::size_t layer, std::int64_t iter,
                                      int microbatch) {
  const std::size_t E = m.layers[layer].num_experts;
  const std::size_t k = std::max<std::size_t>(1, m.layers[layer].top_k);
  std::vector<std::size_t> counts(E, 0);
  if (cfg.routing == MoeRouting::ExpertChoice) {
    counts.assign(E, cfg.tokens_per_microbatch * k / E);
    return counts;
  }
  const auto gate = expert_popularity(m, cfg, layer, iter);
  Rng rng(hash_mix(cfg.seed ^ 0xab1e, layer,
                   static_cast<std::uint64_t>(iter) * 131 +
                       static_cast<std::uint64_t>(microbatch)));
  double total = 0.0;
  for (const double w : gate) total += w;
  for (std::size_t t = 0; t < cfg.tokens_per_microbatch; ++t) {
    std::size_t first = rng.categorical(gate, total);
    ++counts[first];
    for (std::size_t j = 1; j < k; ++j) {
      std::size_t e = rng.categorical(gate, total);
      while (e == first) e = rng.categorical(gate, total);
      ++counts[e];
    }
  }
  if (cfg.routing == MoeRouting::SBase) {
    const std::size_t total = cfg.tokens_per_microbatch * k;
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
  return counts;
}

/// Per-microbatch load factors of every layer (empty for non-MoE layers).
std::vector<std::vector<double>> step(const model::ModelDesc& m,
                                      const MoeEngineConfig& cfg,
                                      std::int64_t iter) {
  std::vector<std::vector<double>> per_mb(m.num_layers());
  for (std::size_t l = 0; l < m.num_layers(); ++l) {
    if (m.layers[l].kind != model::LayerKind::MoeTransformerBlock) continue;
    for (int mb = 0; mb < cfg.num_microbatches; ++mb) {
      per_mb[l].push_back(MoeEngine::bottleneck_factor(
          route_tokens(m, cfg, l, iter, mb)));
    }
  }
  return per_mb;
}

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double microbatch_scale(const std::vector<double>& per_mb, int mb) {
  if (per_mb.empty()) return 1.0;
  const double mu = mean(per_mb);
  if (mu <= 0.0) return 1.0;
  return per_mb[static_cast<std::size_t>(mb) % per_mb.size()] / mu;
}

}  // namespace oracle

TEST(Moe, HoistedParallelRoutingMatchesSerialOracle) {
  const std::vector<model::ModelDesc> models = {
      model::make_moe(model::mixtral_8x7b_config(), "mixtral"),  // E=8, k=2
      model::make_moe(model::llama_moe_3_5b_config(), "llama-moe")};  // 16, 4
  // Crosses the iter/50 drift boundary and the iter%10000 pull wrap.
  const std::int64_t iters[] = {0, 49, 50, 9999, 10000, 10051};
  for (const auto& m : models) {
    for (MoeRouting r : {MoeRouting::AuxLoss, MoeRouting::SBase,
                         MoeRouting::ExpertChoice}) {
      MoeEngineConfig cfg;
      cfg.routing = r;
      cfg.tokens_per_microbatch = 96;
      cfg.num_microbatches = 5;  // not a power of two: exercises the
                                 // pair index → (layer, mb) decoding
      MoeEngine eng(m, cfg);
      for (std::int64_t it : iters) {
        SCOPED_TRACE(m.name + " " + to_string(r) + " iter " +
                     std::to_string(it));
        const auto want = oracle::step(m, cfg, it);
        std::vector<model::LayerState> st(m.num_layers());
        eng.step(it, st);
        const auto scale = eng.microbatch_scale(it);
        std::vector<double> scales;
        for (std::size_t l = 0; l < m.num_layers(); ++l) {
          EXPECT_EQ(st[l].moe_load, want[l].empty()
                                        ? model::LayerState{}.moe_load
                                        : oracle::mean(want[l]));
          for (int mb = 0; mb < cfg.num_microbatches; ++mb) {
            EXPECT_EQ(scale(l, mb), oracle::microbatch_scale(want[l], mb));
            scales.push_back(scale(l, mb));
            if (!want[l].empty()) {
              EXPECT_EQ(eng.route_tokens(l, it, mb),
                        oracle::route_tokens(m, cfg, l, it, mb));
            }
          }
        }
        // Stepping the same iteration again reproduces every value.
        std::vector<model::LayerState> again(m.num_layers());
        eng.step(it, again);
        const auto scale_again = eng.microbatch_scale(it);
        std::size_t i = 0;
        for (std::size_t l = 0; l < m.num_layers(); ++l) {
          EXPECT_EQ(again[l].moe_load, st[l].moe_load);
          for (int mb = 0; mb < cfg.num_microbatches; ++mb) {
            EXPECT_EQ(scale_again(l, mb), scales[i++]);
          }
        }
      }
    }
  }
}

// -------------------------------------------------------------------- MoD

TEST(Mod, OnlyAlternateBlocksRoute) {
  const auto m = gpt(8);
  ModEngine eng(m, {});
  // route_every=2: blocks 1,3,5,7 are MoD blocks.
  EXPECT_FALSE(eng.is_mod_block(0));
  EXPECT_TRUE(eng.is_mod_block(1));
  EXPECT_FALSE(eng.is_mod_block(2));
  EXPECT_TRUE(eng.is_mod_block(7));
}

TEST(Mod, RoutedFractionBounds) {
  const auto m = gpt(16);
  ModEngine eng(m, {});
  for (std::int64_t it : {0, 1, 99, 5000}) {
    for (std::size_t l = 0; l < 16; ++l) {
      const double f = eng.routed_fraction(l, it);
      EXPECT_GE(f, 0.05);
      EXPECT_LE(f, 1.0);
      if (!eng.is_mod_block(l)) EXPECT_DOUBLE_EQ(f, 1.0);
    }
  }
}

TEST(Mod, PersistentPerLayerCapacity) {
  const auto m = gpt(16);
  ModEngine eng(m, {});
  // Same layer, adjacent iterations within a drift block: highly similar.
  const double a = eng.routed_fraction(1, 500);
  const double b = eng.routed_fraction(1, 501);
  EXPECT_NEAR(a, b, 0.25 * a);
  // Different layers differ systematically.
  double spread = 0.0;
  for (std::size_t l = 1; l < 16; l += 2) {
    spread = std::max(spread, std::abs(eng.routed_fraction(l, 500) -
                                       eng.routed_fraction(1, 500)));
  }
  EXPECT_GT(spread, 0.05);
}

TEST(Mod, ImbalanceMagnitudeMatchesPaper) {
  // Static stage loads should show roughly the paper's ~18% MoD imbalance
  // (Eq. 2) on a 48-layer model over 8 stages.
  const auto m = gpt(48);
  ModEngine eng(m, {});
  std::vector<model::LayerState> st(m.num_layers());
  model::LayerCostModel costs{};
  RunningStats imb;
  for (std::int64_t it = 0; it < 200; it += 10) {
    eng.step(it, st);
    std::vector<double> times;
    for (std::size_t l = 0; l < st.size(); ++l) {
      times.push_back(costs.layer_times(m.layers[l], st[l], 2).total_s());
    }
    const auto map = pipeline::StageMap::uniform(st.size(), 8);
    imb.add(load_imbalance(map.stage_loads(times)));
  }
  EXPECT_GT(imb.mean(), 0.08);
  EXPECT_LT(imb.mean(), 0.45);
}

// -------------------------------------------------------------- generic

TEST(Engines, ComputeFractionReflectsSavings) {
  const auto m = gpt(32);
  EarlyExitEngine eng(m, {});
  std::vector<model::LayerState> st(m.num_layers());
  eng.step(10000, st);
  const double frac = eng.compute_fraction(st);
  EXPECT_LT(frac, 0.7);
  EXPECT_GT(frac, 0.05);
}

TEST(Engines, DeterministicAcrossInstances) {
  const auto m = gpt(16);
  SparseAttnEngine a(m, {}), b(m, {});
  std::vector<model::LayerState> sa(16), sb(16);
  a.step(123, sa);
  b.step(123, sb);
  for (std::size_t l = 0; l < 16; ++l) {
    EXPECT_DOUBLE_EQ(sa[l].compute_scale, sb[l].compute_scale);
  }
}

}  // namespace
}  // namespace dynmo::dynamic
