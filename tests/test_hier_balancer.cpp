// Two-level hierarchical diffusion: intra-node-only convergence, the
// inter-node escalation path, capacity-aware (heterogeneous) balancing,
// fewer inter-node migration bytes than flat diffusion, and topology-aware
// migration pricing.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "balance/diffusion.hpp"
#include "balance/migration.hpp"
#include "cluster/hier_balancer.hpp"
#include "cluster/placement.hpp"
#include "cluster/topology.hpp"
#include "core/error.hpp"
#include "core/stats.hpp"

namespace dynmo::cluster {
namespace {

/// Per-node-local exponential decay: heavy layers at the front of each
/// node's half, node totals equal — an imbalance NVLink alone can fix.
std::vector<double> intra_node_skew(std::size_t layers, std::size_t per_node) {
  std::vector<double> w(layers);
  for (std::size_t l = 0; l < layers; ++l) {
    const auto i = static_cast<double>(l % per_node);
    w[l] = 0.25 + 4.0 * std::exp(-0.35 * i) + 0.13 * static_cast<double>(l % 3);
  }
  return w;
}

double stage_range_load(const pipeline::StageMap& m,
                        std::span<const double> w, int s_begin, int s_end) {
  const auto loads = m.stage_loads(w);
  double acc = 0.0;
  for (int s = s_begin; s < s_end; ++s) {
    acc += loads[static_cast<std::size_t>(s)];
  }
  return acc;
}

TEST(HierBalancer, IntraNodeSkewNeverCrossesNodes) {
  const auto topo = Topology::make_dgx_h100(2);
  const auto start = pipeline::StageMap::uniform(64, 16);
  balance::DiffusionRequest req;
  req.weights = intra_node_skew(64, 32);

  const HierarchicalBalancer hier(topo);
  const auto res = hier.balance(req, start);

  EXPECT_LT(res.imbalance_after, res.imbalance_before);
  EXPECT_EQ(res.inter_node_moves, 0);
  EXPECT_FALSE(res.used_inter_node);
  EXPECT_GT(res.intra_node_moves, 0);
  EXPECT_TRUE(res.converged);
}

TEST(HierBalancer, NodeLevelSkewEscalatesToInterNode) {
  const auto topo = Topology::make_dgx_h100(2);
  const auto start = pipeline::StageMap::uniform(64, 16);
  balance::DiffusionRequest req;
  req.weights.assign(64, 0.5);
  for (std::size_t l = 0; l < 32; ++l) req.weights[l] = 2.0;

  const HierarchicalBalancer hier(topo);
  const auto res = hier.balance(req, start);

  EXPECT_TRUE(res.used_inter_node);
  EXPECT_GT(res.inter_node_moves, 0);
  EXPECT_LT(res.imbalance_after, 0.5 * res.imbalance_before);
  // Node totals end near 50/50.
  const double node0 = stage_range_load(res.map, req.weights, 0, 8);
  const double node1 = stage_range_load(res.map, req.weights, 8, 16);
  EXPECT_NEAR(node0 / (node0 + node1), 0.5, 0.08);
}

TEST(HierBalancer, FewerInterNodeBytesThanFlatDiffusion) {
  const auto topo = Topology::make_dgx_h100(2);
  const auto start = pipeline::StageMap::uniform(64, 16);
  balance::DiffusionRequest req;
  req.weights = intra_node_skew(64, 32);
  std::vector<double> state_bytes(64, 1e9);

  const auto hier_res = HierarchicalBalancer(topo).balance(req, start);
  const auto flat_res = balance::DiffusionBalancer{}.balance(req, start);

  const auto hier_plan =
      balance::plan_migration(start, hier_res.map, state_bytes);
  const auto flat_plan =
      balance::plan_migration(start, flat_res.map, state_bytes);
  const auto hier_split = classify_migration(hier_plan, topo);
  const auto flat_split = classify_migration(flat_plan, topo);

  EXPECT_EQ(hier_split.inter_node_bytes, 0.0);
  EXPECT_LE(hier_split.inter_node_bytes, flat_split.inter_node_bytes);

  // ...at equal-or-better final balance (small tolerance: both end within
  // layer granularity of flat).
  const auto hier_imb = load_imbalance(hier_res.map.stage_loads(req.weights));
  const auto flat_imb = load_imbalance(flat_res.map.stage_loads(req.weights));
  EXPECT_LE(hier_imb, flat_imb + 0.05);
}

TEST(HierBalancer, HeterogeneousNodesLoadProportionalToSpeed) {
  NodeDesc h100;
  h100.gpus.assign(8, hw::GpuSpec::h100_sxm5());
  NodeDesc a100;
  a100.gpus.assign(8, hw::GpuSpec::a100_sxm4());
  const auto topo = Topology::make_hetero(
      {h100, a100}, default_link(LinkType::InfiniBand));

  const auto start = pipeline::StageMap::uniform(96, 16);
  balance::DiffusionRequest req;
  req.weights.assign(96, 1.0);

  const auto res = HierarchicalBalancer(topo).balance(req, start);

  EXPECT_TRUE(res.used_inter_node);
  const double fast = stage_range_load(res.map, req.weights, 0, 8);
  const double slow = stage_range_load(res.map, req.weights, 8, 16);
  // H100 ranks are ~3.4x the achievable GEMM throughput of A100 ranks;
  // the capacity-aware protocol shifts load toward them.
  EXPECT_GT(fast, 2.0 * slow);
  EXPECT_LT(res.imbalance_after, res.imbalance_before);
}

TEST(HierBalancer, RejectsNonContiguousPlacements) {
  const auto topo = Topology::make_dgx_h100(2);
  const auto start = pipeline::StageMap::uniform(64, 16);
  balance::DiffusionRequest req;
  req.weights.assign(64, 1.0);
  // Stages dealt across the two nodes like cards: 0, 8, 1, 9, ...
  std::vector<int> rr;
  for (int i = 0; i < 8; ++i) {
    rr.push_back(i);
    rr.push_back(8 + i);
  }
  EXPECT_THROW(HierarchicalBalancer(topo).balance(req, start, rr), Error);
}

TEST(DiffusionCapacities, EmptyCapacitiesMatchLegacyBehavior) {
  balance::DiffusionRequest plain;
  plain.weights = intra_node_skew(32, 32);
  auto with_caps = plain;
  with_caps.capacities.assign(8, 3.7);  // uniform scale is a no-op

  const auto start = pipeline::StageMap::uniform(32, 8);
  const auto a = balance::DiffusionBalancer{}.balance(plain, start);
  const auto b = balance::DiffusionBalancer{}.balance(with_caps, start);
  EXPECT_EQ(a.map, b.map);
}

TEST(DiffusionCapacities, LoadsConvergeProportionalToCapacity) {
  balance::DiffusionRequest req;
  req.weights.assign(60, 1.0);
  req.capacities = {2.0, 1.0};
  const auto start = pipeline::StageMap::uniform(60, 2);
  const auto res = balance::DiffusionBalancer{}.balance(req, start);
  const auto loads = res.map.stage_loads(req.weights);
  EXPECT_NEAR(loads[0] / loads[1], 2.0, 0.15);
}

TEST(Migration, TopologyPricingChargesTheActualLink) {
  const auto topo = Topology::make_dgx_h100(2);
  const auto net = topo.make_cost_model();
  std::vector<int> stage_to_rank(16);
  std::iota(stage_to_rank.begin(), stage_to_rank.end(), 0);

  balance::MigrationPlan intra;
  intra.transfers.push_back({0, 0, 7, 1e9});  // stays on node 0
  balance::MigrationPlan inter;
  inter.transfers.push_back({0, 0, 8, 1e9});  // crosses to node 1

  const double t_intra =
      intra.estimated_time_s(net, stage_to_rank);
  const double t_inter =
      inter.estimated_time_s(net, stage_to_rank);
  // NVLink vs InfiniBand: ~18x bandwidth gap on the same payload.
  EXPECT_GT(t_inter, 10.0 * t_intra);
  // And the explicit-rank overload agrees with the identity default.
  EXPECT_DOUBLE_EQ(t_intra, intra.estimated_time_s(net));
}

TEST(Migration, ClassifySplitsByNodeBoundary) {
  const auto topo = Topology::make_dgx_h100(2);
  balance::MigrationPlan plan;
  plan.transfers.push_back({0, 0, 3, 100.0});
  plan.transfers.push_back({1, 2, 12, 40.0});
  plan.transfers.push_back({2, 9, 15, 60.0});
  const auto split = classify_migration(plan, topo);
  EXPECT_DOUBLE_EQ(split.intra_node_bytes, 160.0);
  EXPECT_DOUBLE_EQ(split.inter_node_bytes, 40.0);
  EXPECT_DOUBLE_EQ(split.total_bytes(), 200.0);
}

}  // namespace
}  // namespace dynmo::cluster
