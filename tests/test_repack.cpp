// Unit tests for re-packing (paper Algorithm 2) and the elastic manager
// (ECK-mock release protocol).
#include <gtest/gtest.h>

#include <algorithm>

#include "balance/migration.hpp"
#include "core/error.hpp"
#include "repack/elastic.hpp"
#include "repack/repack.hpp"

namespace dynmo::repack {
namespace {

int active_workers(const FirstFitResult& res) {
  return static_cast<int>(std::count(res.active.begin(), res.active.end(), true));
}

TEST(FirstFit, MergesPairsUnderCapacity) {
  // Four workers at 30 units each, capacity 100: pairs merge.
  const auto res = repack_first_fit({30, 30, 30, 30}, {2, 2, 2, 2},
                                    /*max_mem=*/100, /*target=*/1);
  EXPECT_LT(active_workers(res), 4);
  // Every transfer's source must be deactivated.
  for (const auto& t : res.transfers) {
    EXPECT_FALSE(res.active[static_cast<std::size_t>(t.src_worker)]);
  }
  // Memory conserved.
  double total = 0.0;
  for (double m : res.mem_usage) total += m;
  EXPECT_DOUBLE_EQ(total, 120.0);
  // No active worker exceeds capacity.
  for (std::size_t i = 0; i < res.active.size(); ++i) {
    if (res.active[i]) EXPECT_LT(res.mem_usage[i], 100.0);
  }
}

TEST(FirstFit, RespectsTargetFloor) {
  const auto res =
      repack_first_fit({10, 10, 10, 10}, {1, 1, 1, 1}, 100, /*target=*/3);
  EXPECT_GE(active_workers(res), 3);
}

TEST(FirstFit, NothingFitsNothingMoves) {
  const auto res = repack_first_fit({80, 80, 80}, {4, 4, 4}, 100, 1);
  EXPECT_EQ(active_workers(res), 3);
  EXPECT_TRUE(res.transfers.empty());
}

TEST(FirstFit, TransfersEnumerateSourceLayers) {
  const auto res = repack_first_fit({10, 10}, {3, 2}, 100, 1);
  EXPECT_EQ(active_workers(res), 1);
  ASSERT_EQ(res.transfers.size(), 3u);  // all of worker 0's layers
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(res.transfers[i].src_worker, 0);
    EXPECT_EQ(res.transfers[i].dst_worker, 1);
    EXPECT_EQ(res.transfers[i].layer_index, i);
  }
  EXPECT_EQ(res.num_layers[1], 5u);
}

TEST(FirstFit, InputValidation) {
  EXPECT_THROW((void)repack_first_fit({1}, {1, 2}, 10, 1), Error);
  EXPECT_THROW((void)repack_first_fit({1}, {1}, 0, 1), Error);
}

TEST(ContiguousRepack, PacksToFewestWorkers) {
  ContiguousRepackRequest req;
  req.memory_bytes = std::vector<double>(8, 10.0);  // 80 total
  req.mem_capacity = 50.0;
  req.fill_fraction = 1.0;
  const auto res = repack_contiguous(req, 8);
  EXPECT_TRUE(res.feasible);
  EXPECT_EQ(res.active_workers, 2);  // 40 + 40
  EXPECT_EQ(res.map.num_stages(), 8);
  EXPECT_TRUE(res.map.stage_empty(7));
  // Memory within budget per active stage.
  const auto mem = res.map.stage_loads(req.memory_bytes);
  for (double m : mem) EXPECT_LE(m, 50.0);
}

TEST(ContiguousRepack, HonorsTargetWorkers) {
  ContiguousRepackRequest req;
  req.memory_bytes = std::vector<double>(8, 10.0);
  req.mem_capacity = 1000.0;  // everything would fit on one
  req.target_workers = 4;
  const auto res = repack_contiguous(req, 8);
  EXPECT_TRUE(res.feasible);
  EXPECT_EQ(res.active_workers, 4);
}

TEST(ContiguousRepack, FlagsOversizedLayer) {
  ContiguousRepackRequest req;
  req.memory_bytes = {10.0, 200.0, 10.0};
  req.mem_capacity = 50.0;
  const auto res = repack_contiguous(req, 3);
  EXPECT_FALSE(res.feasible);
}

TEST(ContiguousRepack, InfeasibleWhenTooFewWorkers) {
  ContiguousRepackRequest req;
  req.memory_bytes = std::vector<double>(8, 10.0);
  req.mem_capacity = 11.0;  // one layer per worker
  req.fill_fraction = 1.0;
  const auto res = repack_contiguous(req, 4);
  EXPECT_FALSE(res.feasible);
}

TEST(Eck, ReleaseAccounting) {
  MockEckCluster cluster;
  JobManagerClient client(&cluster, "train-pod", 8);
  EXPECT_EQ(cluster.free_gpus(), 0);
  EXPECT_TRUE(client.resize_gpu_claim(5));
  EXPECT_EQ(cluster.free_gpus(), 3);
  EXPECT_EQ(client.claimed_gpus(), 5);
  // A pending job picks up the freed GPUs.
  EXPECT_EQ(cluster.schedule_pending_job(4), 3);
  EXPECT_EQ(cluster.free_gpus(), 0);
}

TEST(Eck, RejectsMalformedPatch) {
  MockEckCluster cluster;
  JobManagerClient client(&cluster, "p", 4);
  EXPECT_EQ(cluster.patch_pod(PatchRequest{"p", 2, 3}), 422);
  EXPECT_EQ(cluster.patch_pod(PatchRequest{"p", -1, -1}), 422);
}

TEST(Eck, RejectsGrowthBeyondFree) {
  MockEckCluster cluster;
  JobManagerClient client(&cluster, "p", 4);
  EXPECT_FALSE(client.resize_gpu_claim(40));
  EXPECT_EQ(client.claimed_gpus(), 4);
  // Shrinking then regrowing within the freed pool is fine.
  EXPECT_TRUE(client.resize_gpu_claim(2));
  EXPECT_TRUE(client.resize_gpu_claim(4));
}

TEST(Migration, PlanAndCost) {
  const auto before = pipeline::StageMap::from_boundaries({0, 2, 4});
  const auto after = pipeline::StageMap::from_boundaries({0, 3, 4});
  const std::vector<double> bytes = {100, 100, 100, 100};
  const auto plan = balance::plan_migration(before, after, bytes);
  ASSERT_EQ(plan.transfers.size(), 1u);
  EXPECT_EQ(plan.transfers[0].layer, 2u);
  EXPECT_EQ(plan.transfers[0].src_stage, 1);
  EXPECT_EQ(plan.transfers[0].dst_stage, 0);
  EXPECT_DOUBLE_EQ(plan.total_bytes(), 100.0);
  comm::CostModel net;
  EXPECT_GT(plan.estimated_time_s(net), 0.0);

  const auto none = balance::plan_migration(before, before, bytes);
  EXPECT_TRUE(none.empty());
  EXPECT_DOUBLE_EQ(none.estimated_time_s(net), 0.0);
}

}  // namespace
}  // namespace dynmo::repack
