// Tests for the rebalance orchestrator: profile plumbing, imbalance
// accounting (paper Eq. 2), overhead breakdown, and by-param vs by-time.
#include <gtest/gtest.h>

#include "balance/rebalancer.hpp"
#include "core/error.hpp"

namespace dynmo::balance {
namespace {

LayerProfile skewed_profile() {
  LayerProfile p;
  // 12 layers: heavy head, light tail — early-exit-like.
  for (int i = 0; i < 12; ++i) {
    p.time_s.push_back(i < 4 ? 1.0 : 0.1);
    p.memory_bytes.push_back(100.0);
    p.params.push_back(50.0);  // uniform params
  }
  return p;
}

TEST(Profile, WeightsSelectors) {
  const auto p = skewed_profile();
  EXPECT_EQ(balance_weights(p, BalanceBy::Time), p.time_s);
  EXPECT_EQ(balance_weights(p, BalanceBy::Param), p.params);
}

TEST(Profile, NoiseKeepsPositive) {
  auto p = skewed_profile();
  Rng rng(3);
  add_measurement_noise(p, rng, 0.5);
  for (double t : p.time_s) EXPECT_GT(t, 0.0);
}

TEST(Rebalancer, ReducesTimeImbalance) {
  Rebalancer reb({Algorithm::Partition, BalanceBy::Time, 0.0, 0.0},
                 comm::CostModel{});
  const auto start = pipeline::StageMap::uniform(12, 4);
  const auto out = reb.rebalance(skewed_profile(), start);
  EXPECT_GT(out.imbalance_before, 0.5);
  EXPECT_LT(out.imbalance_after, out.imbalance_before);
  EXPECT_EQ(out.map.num_stages(), 4);
}

TEST(Rebalancer, ByParamIgnoresTimeSkew) {
  Rebalancer reb({Algorithm::Partition, BalanceBy::Param, 0.0, 0.0},
                 comm::CostModel{});
  const auto start = pipeline::StageMap::uniform(12, 4);
  const auto out = reb.rebalance(skewed_profile(), start);
  // Params are uniform: by-param sees nothing to fix.
  EXPECT_EQ(out.map, start);
  EXPECT_TRUE(out.migration.empty());
}

TEST(Rebalancer, DiffusionOutcomeCarriesConvergenceData) {
  Rebalancer reb({Algorithm::Diffusion, BalanceBy::Time, 0.0, 0.0},
                 comm::CostModel{});
  const auto start = pipeline::StageMap::uniform(12, 4);
  const auto out = reb.rebalance(skewed_profile(), start);
  ASSERT_TRUE(out.diffusion.has_value());
  EXPECT_GT(out.diffusion->rounds, 0);
  EXPECT_FALSE(out.diffusion->phi_history.empty());
  // Rounds x stages at the calibrated per-stage-round cost.
  EXPECT_EQ(out.overhead.decide_s,
            kDiffusionStageRoundS * out.diffusion->rounds * 4.0);
}

TEST(Rebalancer, OverheadBreakdownPopulated) {
  Rebalancer reb({Algorithm::Partition, BalanceBy::Time, 0.0, 0.0},
                 comm::CostModel{});
  const auto start = pipeline::StageMap::uniform(12, 4);
  const auto out = reb.rebalance(skewed_profile(), start);
  EXPECT_GT(out.overhead.profile_s, 0.0);
  // Probes x layers at the calibrated per-layer-probe cost.
  const auto p = skewed_profile();
  const int probes = PartitionBalancer{}
                         .balance({.weights = p.time_s,
                                   .memory_bytes = p.memory_bytes,
                                   .num_stages = 4})
                         .probes;
  EXPECT_GT(probes, 3);
  EXPECT_EQ(out.overhead.decide_s, kPartitionLayerProbeS * probes * 12.0);
  EXPECT_GE(out.overhead.migrate_s, 0.0);
  EXPECT_NEAR(out.overhead.total_s(),
              out.overhead.profile_s + out.overhead.decide_s +
                  out.overhead.migrate_s,
              1e-15);
  if (!out.migration.empty()) EXPECT_GT(out.overhead.migrate_s, 0.0);
}

TEST(Rebalancer, MemoryCapacityForwarded) {
  // Pure by-time balancing would lump all 8 light layers (800 bytes)
  // together; a 500-byte capacity forbids that.
  RebalanceConfig cfg{Algorithm::Partition, BalanceBy::Time, 500.0, 0.0};
  Rebalancer reb(cfg, comm::CostModel{});
  const auto start = pipeline::StageMap::uniform(12, 4);
  const auto out = reb.rebalance(skewed_profile(), start);
  const auto p = skewed_profile();
  const auto mem = out.map.stage_loads(p.memory_bytes);
  for (double m : mem) EXPECT_LE(m, 500.0 + 1e-9);
}

TEST(Rebalancer, RejectsInconsistentProfile) {
  Rebalancer reb({}, comm::CostModel{});
  LayerProfile bad;
  bad.time_s = {1.0, 2.0};
  bad.memory_bytes = {1.0};
  bad.params = {1.0, 1.0};
  const auto start = pipeline::StageMap::uniform(2, 2);
  EXPECT_THROW((void)reb.rebalance(bad, start), Error);
}

TEST(Rebalancer, HierarchicalDeciderIsInjected) {
  RebalanceConfig cfg{Algorithm::HierarchicalDiffusion, BalanceBy::Time,
                      0.0, 0.0};
  bool invoked = false;
  cfg.hierarchical_decider = [&](const DiffusionRequest& req,
                                 const pipeline::StageMap& current) {
    invoked = true;
    EXPECT_EQ(req.weights.size(), current.num_layers());
    // Hand back the optimal contiguous split — what the real
    // cluster::HierarchicalBalancer would converge to on one node — and
    // the rounds it took.
    DiffusionResult r;
    r.map = pipeline::StageMap::greedy_by_weight(req.weights,
                                                 current.num_stages());
    r.rounds = 7;
    return r;
  };
  Rebalancer reb(cfg, comm::CostModel{});
  const auto start = pipeline::StageMap::uniform(12, 4);
  const auto out = reb.rebalance(skewed_profile(), start);
  EXPECT_TRUE(invoked);
  EXPECT_LT(out.imbalance_after, out.imbalance_before);
  EXPECT_FALSE(out.diffusion.has_value());
  // The decider's rounds are charged like flat diffusion rounds.
  EXPECT_EQ(out.overhead.decide_s, kDiffusionStageRoundS * 7 * 4.0);
}

TEST(Rebalancer, HierarchicalWithoutDeciderFallsBackToDiffusion) {
  RebalanceConfig cfg{Algorithm::HierarchicalDiffusion, BalanceBy::Time,
                      0.0, 0.0};
  Rebalancer reb(cfg, comm::CostModel{});
  const auto start = pipeline::StageMap::uniform(12, 4);
  const auto out = reb.rebalance(skewed_profile(), start);
  ASSERT_TRUE(out.diffusion.has_value());
  EXPECT_LT(out.imbalance_after, out.imbalance_before);
}

TEST(Rebalancer, AlgorithmToString) {
  EXPECT_STREQ(to_string(Algorithm::Partition), "partition");
  EXPECT_STREQ(to_string(Algorithm::Diffusion), "diffusion");
  EXPECT_STREQ(to_string(Algorithm::HierarchicalDiffusion),
               "hier_diffusion");
}

TEST(OverheadBreakdown, Accumulates) {
  OverheadBreakdown a{1.0, 2.0, 3.0};
  const OverheadBreakdown b{0.5, 0.5, 0.5};
  a += b;
  EXPECT_DOUBLE_EQ(a.profile_s, 1.5);
  EXPECT_DOUBLE_EQ(a.total_s(), 7.5);
}

}  // namespace
}  // namespace dynmo::balance
