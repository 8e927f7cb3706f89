// Tests for the pipeline cost builder and the dynmo:: facade.
#include <gtest/gtest.h>

#include "core/error.hpp"
#include "core/rng.hpp"
#include "cost_oracles.hpp"
#include "dynmo/dynmo.hpp"
#include "pipeline/cost_builder.hpp"

namespace dynmo {
namespace {

pipeline::CostBuilder make_builder(const model::ModelDesc& m,
                                   std::size_t micro_batch = 2,
                                   int microbatches = 4) {
  return pipeline::CostBuilder(
      m, model::LayerCostModel{}, comm::CostModel{},
      pipeline::CostBuilderConfig{micro_batch, microbatches});
}

TEST(CostBuilder, LayerTimesMatchModel) {
  const auto m = model::make_gpt({.num_blocks = 8,
                                  .include_embedding = false,
                                  .include_lm_head = false});
  const auto builder = make_builder(m);
  std::vector<model::LayerState> states(m.num_layers());
  const auto times = builder.layer_times(states);
  ASSERT_EQ(times.size(), 8u);
  model::LayerCostModel lc{};
  for (std::size_t l = 0; l < 8; ++l) {
    EXPECT_DOUBLE_EQ(times[l].forward_s,
                     lc.layer_times(m.layers[l], states[l], 2).forward_s);
  }
  const auto totals = builder.layer_total_seconds(states);
  for (std::size_t l = 0; l < 8; ++l) {
    EXPECT_DOUBLE_EQ(totals[l], times[l].total_s());
  }
}

TEST(CostBuilder, StageCostsSumLayerTimes) {
  const auto m = model::make_gpt({.num_blocks = 8,
                                  .include_embedding = false,
                                  .include_lm_head = false});
  const auto builder = make_builder(m);
  std::vector<model::LayerState> states(m.num_layers());
  const auto map = pipeline::StageMap::uniform(8, 4);
  const auto costs = builder.build(states, map);
  const auto times = builder.layer_times(states);
  for (int s = 0; s < 4; ++s) {
    double fwd = 0.0;
    for (std::size_t l = map.stage_begin(s); l < map.stage_end(s); ++l) {
      fwd += times[l].forward_s;
    }
    EXPECT_NEAR(costs.fwd(s, 0), fwd, 1e-12);
  }
  // Send costs populated for all internal boundaries.
  for (int s = 0; s + 1 < 4; ++s) EXPECT_GT(costs.send(s), 0.0);
}

TEST(CostBuilder, MicrobatchScaleHookApplies) {
  const auto m = model::make_gpt({.num_blocks = 4,
                                  .include_embedding = false,
                                  .include_lm_head = false});
  const auto builder = make_builder(m);
  std::vector<model::LayerState> states(m.num_layers());
  const auto map = pipeline::StageMap::uniform(4, 2);
  const auto costs = builder.build(
      states, map, [](std::size_t, int mb) { return mb == 0 ? 2.0 : 1.0; });
  EXPECT_NEAR(costs.fwd(0, 0), 2.0 * costs.fwd(0, 1), 1e-12);
}

TEST(CostBuilder, MemoryScalesWithStageDepth) {
  const auto m = model::make_gpt({.num_blocks = 8,
                                  .include_embedding = false,
                                  .include_lm_head = false});
  const auto builder = make_builder(m, 2, 16);
  std::vector<model::LayerState> states(m.num_layers());
  const auto map = pipeline::StageMap::uniform(8, 4);
  const auto mem = builder.layer_memory_bytes(states, map);
  // Earlier stages keep more in-flight microbatches resident under 1F1B.
  EXPECT_GT(mem[0], mem[7]);
}

TEST(CostBuilder, StageToRankPricesBoundarySends) {
  // 2 nodes x 2 GPUs; a placement that puts the stage-1/2 boundary across
  // the fabric must charge that send the InfiniBand price while the
  // intra-node boundaries stay on NVLink.
  const auto m = model::make_gpt({.num_blocks = 8,
                                  .include_embedding = false,
                                  .include_lm_head = false});
  const auto dep = cluster::Deployment::make(
      cluster::Topology::make_homogeneous(
          2, 2, hw::GpuSpec::h100_sxm5(),
          cluster::default_link(cluster::LinkType::NvLink),
          cluster::default_link(cluster::LinkType::InfiniBand)),
      {0, 1, 2, 3});
  pipeline::CostBuilderConfig cfg{2, 4};
  cfg.stage_to_rank.assign(dep.stage_to_rank().begin(),
                           dep.stage_to_rank().end());
  pipeline::CostBuilder builder(m, model::LayerCostModel{},
                                dep.make_cost_model(), cfg);
  EXPECT_EQ(builder.rank_of_stage(2), 2);
  std::vector<model::LayerState> states(m.num_layers());
  const auto map = pipeline::StageMap::uniform(8, 4);
  const auto costs = builder.build(states, map);
  // Boundary 1→2 crosses nodes: far slower than the NVLink boundaries.
  EXPECT_GT(costs.send(1), 5.0 * costs.send(0));
  EXPECT_GT(costs.send(1), 5.0 * costs.send(2));
}

TEST(CostBuilder, PerStageGpusChargeEachStageItsOwnHardware) {
  const auto m = model::make_gpt({.num_blocks = 8,
                                  .include_embedding = false,
                                  .include_lm_head = false});
  const std::vector<hw::GpuSpec> gpus{hw::GpuSpec::h100_sxm5(),
                                      hw::GpuSpec::a100_sxm4()};
  model::StageCostModels stage_costs(
      model::LayerCostModel(hw::GpuSpec::h100_sxm5()), gpus);
  EXPECT_TRUE(stage_costs.per_stage());
  pipeline::CostBuilder builder(m, stage_costs, comm::CostModel{},
                                pipeline::CostBuilderConfig{2, 4});
  std::vector<model::LayerState> states(m.num_layers());
  const auto map = pipeline::StageMap::uniform(8, 2);  // 4 layers each
  const auto costs = builder.build(states, map);
  // Same layer count per stage, but stage 1 runs on the A100: slower.
  EXPECT_GT(costs.fwd(1, 0), 1.5 * costs.fwd(0, 0));
  // The balancer-facing profile stays in reference (H100) seconds.
  const auto ref_times = builder.layer_total_seconds(states);
  model::LayerCostModel h100{hw::GpuSpec::h100_sxm5()};
  EXPECT_DOUBLE_EQ(ref_times[7],
                   h100.layer_times(m.layers[7], states[7], 2).total_s());
}

TEST(CostBuilder, BuildMatchesPerLayerMicrobatchOracle) {
  // build() sums a stage's layers once without a scale, and per
  // microbatch with one; both must equal the (layer, microbatch) loop bit
  // for bit, on uniform and on per-stage hardware.
  const auto m = model::make_gpt({.num_blocks = 12});
  const std::size_t L = m.num_layers();
  Rng rng(17);
  for (int trial = 0; trial < 60; ++trial) {
    const int S = 1 + static_cast<int>(rng.uniform_int(8));
    const int mbs = 1 + static_cast<int>(rng.uniform_int(8));
    std::vector<model::LayerState> states(L);
    for (auto& st : states) {
      st.weight_density = rng.uniform(0.2, 1.0);
      st.frozen = rng.bernoulli(0.2);
      st.attn_density = rng.uniform(0.05, 0.5);
      st.token_fraction = rng.uniform(0.3, 1.0);
      st.compute_scale = rng.uniform(0.5, 2.0);
    }
    // Random boundaries; some stages come out empty.
    std::vector<std::size_t> b{0};
    for (int s = 1; s < S; ++s) b.push_back(rng.uniform_int(L + 1));
    b.push_back(L);
    std::sort(b.begin(), b.end());
    const auto map = pipeline::StageMap::from_boundaries(b);
    std::vector<hw::GpuSpec> gpus;
    for (int s = 0; s < S; ++s) {
      gpus.push_back(rng.bernoulli(0.5) ? hw::GpuSpec::h100_sxm5()
                                        : hw::GpuSpec::a100_sxm4());
    }
    const std::vector<model::StageCostModels> hardware{
        model::LayerCostModel{},
        model::StageCostModels(model::LayerCostModel{}, gpus)};
    const auto scale = [](std::size_t l, int mb) {
      return 0.25 * static_cast<double>((l * 7 + 3 * mb) % 9) - 0.5;
    };
    for (const auto& hw : hardware) {
      const pipeline::CostBuilder builder(
          m, hw, comm::CostModel{}, pipeline::CostBuilderConfig{2, mbs});
      for (const bool scaled : {false, true}) {
        SCOPED_TRACE(::testing::Message()
                     << "trial " << trial << ", S " << S << ", m " << mbs
                     << ", per-stage " << hw.per_stage() << ", scaled "
                     << scaled);
        const pipeline::MicrobatchScaleFn fn =
            scaled ? pipeline::MicrobatchScaleFn(scale) : nullptr;
        const auto got = builder.build(states, map, fn);
        const auto want = testing::build_per_layer_microbatch(
            m, hw, 2, mbs, states, map, fn);
        for (int s = 0; s < S; ++s) {
          // Only a scaled stage with layers expands its row.
          EXPECT_EQ(got.row(s).mb_stride,
                    scaled && map.stage_size(s) > 0 ? 1u : 0u);
          for (int mb = 0; mb < mbs; ++mb) {
            ASSERT_EQ(got.fwd(s, mb), want.fwd(s, mb)) << s << ' ' << mb;
            ASSERT_EQ(got.bwd_input(s, mb), want.bwd_input(s, mb));
            ASSERT_EQ(got.bwd_weight(s, mb), want.bwd_weight(s, mb));
          }
        }
      }
    }
  }
}

TEST(CostBuilder, RejectsMismatchedStates) {
  const auto m = model::make_gpt({.num_blocks = 8,
                                  .include_embedding = false,
                                  .include_lm_head = false});
  const auto builder = make_builder(m);
  std::vector<model::LayerState> wrong(3);
  EXPECT_THROW((void)builder.layer_times(wrong), Error);
}

TEST(Facade, MakeEngineCoversAllCases) {
  const auto gpt = model::make_gpt({.num_blocks = 8,
                                    .include_embedding = false,
                                    .include_lm_head = false});
  const auto moe = model::make_moe(model::llama_moe_3_5b_config(), "m");
  Options opt;
  EXPECT_EQ(make_engine(UseCase::Static, gpt, opt), nullptr);
  for (UseCase uc : {UseCase::GradualPruning, UseCase::LayerFreezing,
                     UseCase::SparseAttention, UseCase::EarlyExit,
                     UseCase::MixtureOfDepths}) {
    const auto engine = make_engine(uc, gpt, opt);
    ASSERT_NE(engine, nullptr) << to_string(uc);
    EXPECT_FALSE(engine->name().empty());
    EXPECT_GE(engine->recommended_rebalance_interval(), 1);
  }
  EXPECT_NE(make_engine(UseCase::Moe, moe, opt), nullptr);
}

TEST(Facade, ToStringRoundTrip) {
  EXPECT_STREQ(to_string(UseCase::Moe), "moe");
  EXPECT_STREQ(to_string(UseCase::EarlyExit), "early_exit");
  EXPECT_STREQ(runtime::to_string(runtime::BalancingMode::DynMo), "dynmo");
  EXPECT_STREQ(balance::to_string(balance::Algorithm::Partition),
               "partition");
  EXPECT_STREQ(balance::to_string(balance::BalanceBy::Time), "by_time");
}

TEST(Facade, SessionRunsEveryUseCaseEndToEnd) {
  Options opt;
  opt.session.pipeline_stages = 4;
  opt.session.num_microbatches = 8;
  opt.session.iterations = 100;
  opt.session.sim_stride = 20;
  opt.session.rebalance_interval = 20;
  opt.session.mode = runtime::BalancingMode::DynMo;
  opt.moe.tokens_per_microbatch = 256;
  for (UseCase uc : {UseCase::Static, UseCase::GradualPruning,
                     UseCase::LayerFreezing, UseCase::SparseAttention,
                     UseCase::EarlyExit, UseCase::MixtureOfDepths}) {
    const auto m = model::make_gpt({.num_blocks = 8,
                                    .include_embedding = false,
                                    .include_lm_head = false});
    Session s(m, uc, opt);
    const auto r = s.run();
    EXPECT_GT(r.tokens_per_sec, 0.0) << to_string(uc);
  }
  const auto moe = model::make_moe(model::llama_moe_3_5b_config(), "m");
  Session s(moe, UseCase::Moe, opt);
  EXPECT_GT(s.run().tokens_per_sec, 0.0);
}

}  // namespace
}  // namespace dynmo
