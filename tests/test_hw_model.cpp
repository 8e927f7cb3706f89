// Unit tests for hw/ and model/: kernel cost models (incl. the Sputnik /
// cuSPARSE / dense crossover), memory model, model builders, and the
// per-layer dynamic cost semantics.
#include <gtest/gtest.h>

#include "core/error.hpp"
#include "hw/kernel_cost.hpp"
#include "hw/memory_model.hpp"
#include "model/layer.hpp"
#include "model/layer_cost.hpp"

namespace dynmo {
namespace {

/// Count of transformer (block) layers, excluding embedding / head.
std::size_t num_blocks(const model::ModelDesc& m) {
  std::size_t n = 0;
  for (const auto& l : m.layers) {
    n += l.kind == model::LayerKind::TransformerBlock ||
         l.kind == model::LayerKind::MoeTransformerBlock;
  }
  return n;
}

using hw::KernelCostModel;
using hw::SpmmBackend;

TEST(KernelCost, GemmScalesWithFlops) {
  KernelCostModel k;
  EXPECT_GT(k.gemm(4096, 4096, 4096), k.gemm(1024, 1024, 1024));
  EXPECT_GT(k.gemm(1, 1, 1), 0.0);  // launch overhead floor
}

TEST(KernelCost, AttentionQuadraticInSequence) {
  KernelCostModel k;
  const double s1 = k.flash_attention(2, 32, 1024, 32);
  const double s2 = k.flash_attention(2, 32, 4096, 32);
  EXPECT_GT(s2, 8.0 * s1);  // 16x flops, minus launch overhead
}

TEST(KernelCost, AttentionDensityScales) {
  KernelCostModel k;
  const double dense = k.flash_attention(2, 32, 2048, 32, 0.5);
  const double sparse = k.flash_attention(2, 32, 2048, 32, 0.05);
  EXPECT_LT(sparse, dense);
}

TEST(KernelCost, SputnikCrossoverNear75PercentSparsity) {
  KernelCostModel k;
  // Below the crossover density, Sputnik beats dense; above, dense wins.
  const std::size_t m = 4096, n = 4096, kk = 1024;
  const double at_10 = k.spmm(m, n, kk, 0.10, SpmmBackend::Sputnik);
  const double at_40 = k.spmm(m, n, kk, 0.40, SpmmBackend::Sputnik);
  const double dense = k.spmm(m, n, kk, 0.10, SpmmBackend::DenseCublas);
  EXPECT_LT(at_10, dense);
  EXPECT_GT(at_40, dense);
  EXPECT_EQ(k.best_spmm_backend(m, n, kk, 0.10), SpmmBackend::Sputnik);
  EXPECT_EQ(k.best_spmm_backend(m, n, kk, 0.60), SpmmBackend::DenseCublas);
}

TEST(KernelCost, CusparseOnlyWinsAtExtremeSparsity) {
  KernelCostModel k;
  // cuSPARSE is tuned for HPC-style >99% sparsity.
  EXPECT_GT(k.spmm(4096, 4096, 1024, 0.10, SpmmBackend::Cusparse),
            k.spmm(4096, 4096, 1024, 0.10, SpmmBackend::Sputnik));
  EXPECT_EQ(k.best_spmm_backend(4096, 4096, 1024, 0.001),
            SpmmBackend::Sputnik);  // Sputnik still >= cuSPARSE for DL shapes
}

TEST(KernelCost, DenseBackendIgnoresSparsity) {
  KernelCostModel k;
  EXPECT_DOUBLE_EQ(k.spmm(128, 128, 128, 0.1, SpmmBackend::DenseCublas),
                   k.spmm(128, 128, 128, 0.9, SpmmBackend::DenseCublas));
}

TEST(MemoryModel, FrozenLayersKeepOnlyWeights) {
  hw::MemoryModel m;
  const double active = m.layer_state_bytes(1000, false);
  const double frozen = m.layer_state_bytes(1000, true);
  EXPECT_DOUBLE_EQ(active, 16000.0);
  EXPECT_DOUBLE_EQ(frozen, 2000.0);
}

TEST(MemoryModel, PrunedLayersCarryIndexOverhead) {
  hw::MemoryModel m;
  const double dense = m.layer_state_bytes(1000, false, 1.0);
  const double half = m.layer_state_bytes(1000, false, 0.5);
  EXPECT_LT(half, dense);
  EXPECT_GT(half, 0.5 * dense);  // CSR index overhead on top of values
}

TEST(ModelBuilder, GptLayerCounts) {
  const auto m = model::make_gpt({.num_blocks = 24});
  EXPECT_EQ(m.num_layers(), 26u);  // embedding + 24 blocks + head
  EXPECT_EQ(num_blocks(m), 24u);
  const auto bare = model::make_gpt({.num_blocks = 24,
                                     .include_embedding = false,
                                     .include_lm_head = false});
  EXPECT_EQ(bare.num_layers(), 24u);
}

TEST(ModelBuilder, GptParamCountPlausible) {
  // GPT-2-medium-like: 24 blocks, hidden 1024 → ~300M in blocks.
  const auto m = model::make_gpt({.num_blocks = 24,
                                  .include_embedding = false,
                                  .include_lm_head = false});
  const double params = static_cast<double>(m.total_params());
  EXPECT_GT(params, 250e6);
  EXPECT_LT(params, 350e6);
}

TEST(ModelBuilder, RejectsBadConfig) {
  model::GptConfig no_blocks;
  no_blocks.num_blocks = 0;
  EXPECT_THROW((void)model::make_gpt(no_blocks), Error);
  model::GptConfig bad_heads;
  bad_heads.hidden = 100;
  bad_heads.heads = 32;
  EXPECT_THROW((void)model::make_gpt(bad_heads), Error);
}

TEST(ModelBuilder, MoePresets) {
  const auto mixtral =
      model::make_moe(model::mixtral_8x7b_config(), "mixtral");
  EXPECT_EQ(num_blocks(mixtral), 32u);
  // 8-expert Mixtral: tens of billions of parameters.
  EXPECT_GT(static_cast<double>(mixtral.total_params()), 20e9);
  const auto llama = model::make_moe(model::llama_moe_3_5b_config(), "lm");
  EXPECT_LT(llama.total_params(), mixtral.total_params());
}

class LayerCostSemantics : public ::testing::Test {
 protected:
  model::ModelDesc m = model::make_gpt({.num_blocks = 4,
                                        .include_embedding = false,
                                        .include_lm_head = false});
  model::LayerCostModel costs{};
};

TEST_F(LayerCostSemantics, BackwardIsTwiceForward) {
  model::LayerState s;
  const auto t = costs.layer_times(m.layers[0], s, 2);
  EXPECT_NEAR(t.backward_s(), 2.0 * t.forward_s, 1e-12);
  EXPECT_GT(t.forward_s, 0.0);
}

TEST_F(LayerCostSemantics, FrozenSkipsBackwardOnly) {
  model::LayerState s;
  s.frozen = true;
  const auto t = costs.layer_times(m.layers[0], s, 2);
  EXPECT_GT(t.forward_s, 0.0);
  EXPECT_EQ(t.backward_s(), 0.0);
}

TEST_F(LayerCostSemantics, TokenFractionShrinksCost) {
  model::LayerState full, half;
  half.token_fraction = 0.5;
  const auto tf = costs.layer_times(m.layers[0], full, 2);
  const auto th = costs.layer_times(m.layers[0], half, 2);
  EXPECT_LT(th.forward_s, tf.forward_s);
  EXPECT_GT(th.forward_s, 0.25 * tf.forward_s);
}

TEST_F(LayerCostSemantics, ComputeScaleIsWholeLayer) {
  model::LayerState s;
  s.compute_scale = 0.25;
  const auto t1 = costs.layer_times(m.layers[0], model::LayerState{}, 2);
  const auto t2 = costs.layer_times(m.layers[0], s, 2);
  EXPECT_NEAR(t2.forward_s, 0.25 * t1.forward_s, 1e-12);
}

TEST_F(LayerCostSemantics, SparsePruningCheaperOnSputnik) {
  model::LayerState dense, pruned;
  pruned.weight_density = 0.05;
  pruned.spmm_backend = hw::SpmmBackend::Sputnik;
  const auto td = costs.layer_times(m.layers[0], dense, 2);
  const auto tp = costs.layer_times(m.layers[0], pruned, 2);
  EXPECT_LT(tp.forward_s, td.forward_s);
}

TEST_F(LayerCostSemantics, MemoryScalesWithResidency) {
  model::LayerState s;
  const double m1 = costs.layer_memory_bytes(m.layers[0], s, 2, 1);
  const double m4 = costs.layer_memory_bytes(m.layers[0], s, 2, 4);
  EXPECT_GT(m4, m1);
  EXPECT_LT(m4, 4.0 * m1);  // parameter state does not replicate
}

TEST_F(LayerCostSemantics, ActivationMessageScalesWithTokens) {
  model::LayerState s;
  const double full = costs.activation_message_bytes(m.layers[0], s, 2);
  s.token_fraction = 0.25;
  const double quarter = costs.activation_message_bytes(m.layers[0], s, 2);
  EXPECT_NEAR(quarter, 0.25 * full, 1e-9);
}

TEST(MoeLayerCost, LoadFactorScalesFfn) {
  const auto m = model::make_moe(model::llama_moe_3_5b_config(), "m");
  model::LayerCostModel costs{};
  model::LayerState balanced, skewed;
  skewed.moe_load = 1.5;
  const auto& block = m.layers[1];
  ASSERT_EQ(block.kind, model::LayerKind::MoeTransformerBlock);
  EXPECT_GT(costs.layer_times(block, skewed, 2).forward_s,
            costs.layer_times(block, balanced, 2).forward_s);
}

}  // namespace
}  // namespace dynmo
