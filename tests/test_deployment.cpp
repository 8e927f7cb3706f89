// Tests for cluster::Deployment — the one object every cost surface
// consumes — and for the surfaces it feeds: hierarchical collective
// pricing, deployment-aware re-packing, and the session-level
// HierarchicalDiffusion mode.
#include <gtest/gtest.h>

#include <numeric>

#include "core/error.hpp"
#include "dynmo/dynmo.hpp"
#include "repack/repack.hpp"

namespace dynmo {
namespace {

/// Stage s → rank s.
cluster::Deployment linear(cluster::Topology topo, int num_stages) {
  std::vector<int> ranks(static_cast<std::size_t>(num_stages));
  std::iota(ranks.begin(), ranks.end(), 0);
  return cluster::Deployment::make(std::move(topo), std::move(ranks));
}

cluster::Deployment two_dgx_h100(int num_stages = 16) {
  return cluster::Deployment::make_topology_aware(
      cluster::Topology::make_dgx_h100(2), num_stages);
}

cluster::Deployment hetero_pod(int num_stages = 16) {
  cluster::NodeDesc h100;
  h100.gpus.assign(8, hw::GpuSpec::h100_sxm5());
  cluster::NodeDesc a100;
  a100.gpus.assign(8, hw::GpuSpec::a100_sxm4());
  a100.intra = cluster::LinkSpec{cluster::LinkType::NvLink, 250e9, 2.5e-6};
  return cluster::Deployment::make_topology_aware(
      cluster::Topology::make_hetero(
          {h100, a100}, cluster::default_link(cluster::LinkType::InfiniBand)),
      num_stages);
}

TEST(Deployment, FactoriesAndAccessors) {
  const auto dep = two_dgx_h100();
  EXPECT_EQ(dep.num_stages(), 16);
  EXPECT_EQ(dep.topology().num_ranks(), 16);
  // Topology-aware placement on a homogeneous pod keeps node runs
  // contiguous: stages 0..7 on one node, 8..15 on the other.
  for (int s = 1; s < 8; ++s) EXPECT_EQ(dep.node(s), dep.node(0));
  for (int s = 9; s < 16; ++s) EXPECT_EQ(dep.node(s), dep.node(8));
  EXPECT_NE(dep.node(0), dep.node(8));
  EXPECT_EQ(dep.gpu(0).name, "H100-SXM5-80GB");
  EXPECT_DOUBLE_EQ(dep.min_mem_capacity(), hw::GpuSpec::h100_sxm5().mem_capacity);

  EXPECT_EQ(linear(cluster::Topology::make_dgx_h100(2), 4).rank(3), 3);
}

TEST(Deployment, MakeValidatesPlacement) {
  auto topo = cluster::Topology::make_dgx_h100(1);
  EXPECT_THROW((void)cluster::Deployment::make(topo, {0, 1, 99}), Error);
  EXPECT_THROW((void)cluster::Deployment::make(topo, {0, 1, 1}), Error);
  EXPECT_THROW((void)cluster::Deployment::make(topo, {}), Error);
  EXPECT_THROW((void)cluster::Deployment::make_topology_aware(topo, 9), Error);
}

TEST(Deployment, LinkReflectsTheActualFabric) {
  const auto dep = two_dgx_h100();
  const auto nv = dep.link(0, 1);    // same node: NVLink clique
  const auto ib = dep.link(7, 8);    // node boundary: InfiniBand rail+hops
  EXPECT_GT(nv.beta_bytes_s, 10.0 * ib.beta_bytes_s);
  EXPECT_LT(nv.alpha_s, ib.alpha_s);
  // A stage to itself is free.
  const auto self = dep.link(3, 3);
  EXPECT_EQ(self.alpha_s, 0.0);
}

TEST(Deployment, GroupIsNodeGrouped) {
  const auto dep = two_dgx_h100();
  const auto g = dep.stage_group();
  ASSERT_EQ(g.num_nodes(), 2);
  EXPECT_EQ(g.max_node_size(), 8);
  EXPECT_EQ(g.total_ranks(), 16);
  // Links come from the topology, not the tier table.
  EXPECT_DOUBLE_EQ(g.intra.beta_bytes_s, 450e9);
  EXPECT_LT(g.inter.beta_bytes_s, 30e9);
}

TEST(Deployment, StageCapacitiesTrackGpuThroughput) {
  const auto hetero = hetero_pod();
  const auto cap = hetero.stage_capacities();
  // The topology-aware placement starts on the H100 node; A100 stages get
  // proportionally lower capacity.
  EXPECT_DOUBLE_EQ(cap[0], 1.0);
  const double a100_ratio =
      (312.0 * 0.58) / (989.0 * 0.62);  // peak * gemm_efficiency
  EXPECT_NEAR(cap[15], a100_ratio, 1e-9);
}

TEST(Deployment, CostModelMembershipIgnoresGpusPerNode) {
  // The config's uniform node-size guess disagrees with the topology (4 vs
  // 8); the deployment-backed model must believe the topology.
  const auto dep = two_dgx_h100();
  comm::CostModelConfig base;
  base.gpus_per_node = 4;
  const auto net = dep.make_cost_model(base);
  EXPECT_TRUE(net.has_node_resolver());
  EXPECT_EQ(net.node_of(7), 0);
  EXPECT_EQ(net.node_of(8), 1);
  EXPECT_EQ(net.tier(4, 7), comm::LinkTier::NvLink);  // flat rule says IB
  const auto g = dep.group(std::vector<int>{0, 4, 7, 8, 12});
  ASSERT_EQ(g.num_nodes(), 2);
  EXPECT_EQ(g.node_sizes[0], 3);
  EXPECT_EQ(g.node_sizes[1], 2);
}

TEST(Deployment, SessionConsumesExplicitDeployment) {
  const auto m = model::make_gpt({.num_blocks = 32,
                                  .include_embedding = false,
                                  .include_lm_head = false});
  Options opt;
  opt.session.pipeline_stages = 16;
  opt.session.num_microbatches = 16;
  opt.session.iterations = 100;
  opt.session.sim_stride = 20;
  opt.session.rebalance_interval = 20;
  opt.session.deployment = cluster::Deployment::make_topology_aware(
      cluster::Topology::make_dgx_h100(2), 16);
  Session s(m, UseCase::EarlyExit, opt);
  EXPECT_GT(s.run().tokens_per_sec, 0.0);
}

TEST(Deployment, SessionRejectsMismatchedDeployment) {
  const auto m = model::make_gpt({.num_blocks = 32,
                                  .include_embedding = false,
                                  .include_lm_head = false});
  Options opt;
  opt.session.pipeline_stages = 8;
  opt.session.deployment = two_dgx_h100(16);  // 16 stages != 8
  EXPECT_THROW((void)Session(m, UseCase::Static, opt).run(), Error);
}

cluster::Deployment three_by_four() {
  return linear(cluster::Topology::make_homogeneous(
                    3, 4, hw::GpuSpec::h100_sxm5(),
                    cluster::default_link(cluster::LinkType::NvLink),
                    cluster::default_link(cluster::LinkType::InfiniBand)),
                12);
}

TEST(RepackDeployment, ContiguousSnapsToNodeBoundary) {
  // 3 nodes x 4 GPUs, 12 workers; memory fits into 6 workers, but 6 leaves
  // node 1 half-occupied — the aligned count is 8, so the release is
  // exactly one whole node.
  const auto dep = three_by_four();
  repack::ContiguousRepackRequest req;
  req.memory_bytes = std::vector<double>(12, 10.0);  // 120 total
  req.mem_capacity = 20.0;
  req.fill_fraction = 1.0;

  const auto plain = repack::repack_contiguous(req, 12);
  EXPECT_EQ(plain.active_workers, 6);

  req.target_workers = repack::node_aligned_workers(dep, 6, 12);
  EXPECT_EQ(req.target_workers, 8);
  const auto aware = repack::repack_contiguous(req, 12);
  EXPECT_TRUE(aware.feasible);
  EXPECT_EQ(aware.active_workers, 8);
  // Survivor map is still memory-feasible.
  const auto mem = aware.map.stage_loads(req.memory_bytes);
  for (int s = 0; s < 8; ++s) {
    EXPECT_LE(mem[static_cast<std::size_t>(s)], req.mem_capacity + 1e-9);
  }
}

TEST(RepackDeployment, ContiguousHonorsExplicitTargetExactly) {
  // Forced Fig-4 sweeps pin the worker count: the packer delivers it
  // verbatim even mid-node, where alignment would have chosen 8.  (The
  // session never aligns an explicit target; SessionAlignsOnlyItsOwnCount
  // pins that end to end.)
  const auto dep = three_by_four();
  repack::ContiguousRepackRequest req;
  req.memory_bytes = std::vector<double>(12, 10.0);
  req.mem_capacity = 30.0;
  req.fill_fraction = 1.0;
  req.target_workers = 5;  // mid-node on purpose
  const auto res = repack::repack_contiguous(req, 12);
  EXPECT_TRUE(res.feasible);
  EXPECT_EQ(res.active_workers, 5);
  EXPECT_EQ(repack::node_aligned_workers(dep, 5, 12), 8);
}

TEST(RepackDeployment, ContiguousKeepsPartialReleaseWhenNoNodeFrees) {
  // 2 nodes x 4: packing to 5 frees 3 GPUs of node 1 but no whole node;
  // snapping up would free nothing, so the memory-minimal count is kept.
  const auto dep = linear(
      cluster::Topology::make_homogeneous(
          2, 4, hw::GpuSpec::h100_sxm5(),
          cluster::default_link(cluster::LinkType::NvLink),
          cluster::default_link(cluster::LinkType::InfiniBand)),
      8);
  repack::ContiguousRepackRequest req;
  req.memory_bytes = std::vector<double>(10, 10.0);  // 100 total
  req.mem_capacity = 20.0;
  req.fill_fraction = 1.0;
  const auto plain = repack::repack_contiguous(req, 8);
  EXPECT_EQ(plain.active_workers, 5);
  EXPECT_EQ(repack::node_aligned_workers(dep, plain.active_workers, 8), 5);
  // Already on a boundary, or nothing left to release: unchanged.
  EXPECT_EQ(repack::node_aligned_workers(dep, 4, 8), 4);
  EXPECT_EQ(repack::node_aligned_workers(dep, 8, 8), 8);
}

// A session that re-packs with MemoryFirstFit and no explicit target
// chooses the memory-minimal count itself — 7 of 12 workers here, mid-way
// through node 1 — and on a deployment aligns it up to the node boundary
// at 8, so node 2 is released whole.  An explicit target of 7 is honored.
TEST(RepackDeployment, SessionAlignsOnlyItsOwnCount) {
  const auto m = model::make_gpt({.num_blocks = 24,
                                  .hidden = 8192,
                                  .include_embedding = false,
                                  .include_lm_head = false});
  const auto dep = three_by_four();
  Options opt;
  opt.session.pipeline_stages = 12;
  opt.session.num_microbatches = 12;
  opt.session.micro_batch = 1;
  opt.session.iterations = 200;  // one re-pack point, at iteration 100
  opt.session.sim_stride = 50;
  opt.session.rebalance_interval = 100;
  opt.session.mode = runtime::BalancingMode::DynMo;
  opt.session.repack = true;
  opt.session.repack_interval = 100;
  opt.session.repack_policy =
      runtime::SessionConfig::RepackPolicy::MemoryFirstFit;

  const auto flat = Session(m, UseCase::Static, opt).run();
  EXPECT_EQ(flat.repack_count, 1);
  EXPECT_EQ(flat.final_map.num_stages(), 7);

  opt.session.deployment = dep;
  const auto aligned = Session(m, UseCase::Static, opt).run();
  EXPECT_FALSE(aligned.oom);
  EXPECT_EQ(aligned.repack_count, 1);
  ASSERT_EQ(aligned.final_map.num_stages(), 8);
  EXPECT_NE(dep.node(7), dep.node(8));
  EXPECT_EQ(aligned.final_map.boundaries(),
            (std::vector<std::size_t>{0, 3, 6, 9, 12, 15, 18, 21, 24}));
  EXPECT_EQ(aligned.avg_active_workers, 10.0);  // 12 for 100 iters, then 8

  opt.session.repack_target_workers = 7;
  const auto forced = Session(m, UseCase::Static, opt).run();
  EXPECT_FALSE(forced.oom);
  EXPECT_EQ(forced.final_map.num_stages(), 7);
}

// The acceptance test of the whole API move: the session runs
// HierarchicalDiffusion end-to-end through the dynmo::Session facade, and
// on a multi-node deployment it generates less inter-node migration
// traffic than flat DynMo diffusion at comparable throughput.  8 nodes of
// 2 GPUs put a node boundary between most stage pairs, so topology-blind
// diffusion leaks hundreds of GiB across the fabric chasing MoE routing
// noise; the hierarchical balancer absorbs the same noise with NVLink
// moves and refuses inter-node migrations that do not pay for themselves.
TEST(Deployment, SessionHierarchicalDiffusionReducesInterNodeBytes) {
  const auto m = model::make_moe(model::llama_moe_3_5b_config(), "m");
  Options opt;
  opt.session.pipeline_stages = 16;
  opt.session.num_microbatches = 32;
  opt.session.iterations = 300;
  opt.session.sim_stride = 10;
  opt.session.rebalance_interval = 1;
  opt.moe.tokens_per_microbatch = 512;
  opt.session.mode = runtime::BalancingMode::DynMo;
  opt.session.deployment = cluster::Deployment::make_topology_aware(
      cluster::Topology::make_homogeneous(
          8, 2, hw::GpuSpec::h100_sxm5(),
          cluster::default_link(cluster::LinkType::NvLink),
          cluster::default_link(cluster::LinkType::InfiniBand)),
      16);

  const auto run_algo = [&](balance::Algorithm algo) {
    Options o = opt;
    o.session.algorithm = algo;
    Session s(m, UseCase::Moe, o);
    return s.run();
  };
  const auto flat = run_algo(balance::Algorithm::Diffusion);
  const auto hier = run_algo(balance::Algorithm::HierarchicalDiffusion);

  EXPECT_GT(flat.rebalance_count, 0);
  EXPECT_GT(hier.rebalance_count, 0);
  EXPECT_GT(hier.intra_node_migration_bytes, 0.0);
  // Flat diffusion leaks across the fabric; the hierarchy must cut that
  // traffic by at least half (in practice it issues none here).
  EXPECT_GT(flat.inter_node_migration_bytes, 0.0);
  EXPECT_LT(hier.inter_node_migration_bytes,
            0.5 * flat.inter_node_migration_bytes);
  // Comparable end-to-end throughput: the hierarchy is not buying fabric
  // savings with a much slower pipeline.
  EXPECT_GT(hier.tokens_per_sec, 0.9 * flat.tokens_per_sec);
}

// ------------------------------------------------------------ DP×PP grids

cluster::Topology rails_cluster(int nodes, int gpus_per_node) {
  return cluster::Topology::make_homogeneous(
      nodes, gpus_per_node, hw::GpuSpec::h100_sxm5(),
      cluster::default_link(cluster::LinkType::NvLink),
      cluster::default_link(cluster::LinkType::InfiniBand));
}

TEST(GridDeployment, FactoriesAndAccessors) {
  const auto dep = cluster::Deployment::make_grid_topology_aware(
      rails_cluster(4, 4), /*data_parallel=*/4, /*num_stages=*/4,
      cluster::GridOrientation::DpInner);
  EXPECT_EQ(dep.data_parallel(), 4);
  EXPECT_EQ(dep.num_stages(), 4);
  EXPECT_EQ(static_cast<int>(dep.grid_to_rank().size()), 16);
  // rank(stage) is the dp = 0 view.
  for (int s = 0; s < 4; ++s) EXPECT_EQ(dep.rank(s), dep.rank(0, s));
  // Each replica's pipeline placement is its slice of the grid.
  for (int d = 0; d < 4; ++d) {
    for (int s = 0; s < 4; ++s) {
      EXPECT_EQ(dep.stage_to_rank(d)[static_cast<std::size_t>(s)],
                dep.rank(d, s));
    }
  }
  // DpInner: a stage's peers share one node; PpInner: they all sit apart.
  for (int s = 0; s < 4; ++s) {
    EXPECT_EQ(dep.dp_group(s).num_nodes(), 1) << "stage " << s;
  }
  const auto pp_inner = cluster::Deployment::make_grid_topology_aware(
      rails_cluster(4, 4), 4, 4, cluster::GridOrientation::PpInner);
  for (int s = 0; s < 4; ++s) {
    EXPECT_EQ(pp_inner.dp_group(s).num_nodes(), 4) << "stage " << s;
  }
}

TEST(GridDeployment, MakeGridValidatesShapeAndRanks) {
  auto topo = rails_cluster(2, 4);
  // Grid size must divide into replicas.
  EXPECT_THROW((void)cluster::Deployment::make_grid(topo, 3, {0, 1, 2, 3}),
               Error);
  // Ranks distinct across the whole grid, not just within a replica.
  EXPECT_THROW((void)cluster::Deployment::make_grid(topo, 2, {0, 1, 1, 2}),
               Error);
  EXPECT_THROW((void)cluster::Deployment::make_grid(topo, 2, {0, 1, 2, 99}),
               Error);
  EXPECT_THROW((void)cluster::Deployment::make_grid(topo, 0, {0, 1}), Error);
  // A legal explicit grid round-trips.
  const auto dep =
      cluster::Deployment::make_grid(topo, 2, {0, 1, 4, 5});
  EXPECT_EQ(dep.rank(1, 0), 4);
  EXPECT_EQ(dep.dp_group(0).num_nodes(), 2);
}

// Property: when all of a stage's DP peers share one node, the dp_group
// allreduce is *exactly* the flat intra-node ring formula — the
// hierarchical pricing introduces no artificial discount.
TEST(GridDeployment, DpGroupAllreduceEqualsFlatWhenPeersShareOneNode) {
  const auto dep = cluster::Deployment::make_grid_topology_aware(
      rails_cluster(4, 4), 4, 4, cluster::GridOrientation::DpInner);
  const auto net = dep.make_cost_model();
  const std::size_t bytes = 96u << 20;
  for (int s = 0; s < 4; ++s) {
    const auto g = dep.dp_group(s);
    ASSERT_EQ(g.num_nodes(), 1);
    EXPECT_DOUBLE_EQ(net.allreduce_time(g, bytes),
                     net.allreduce_time(4, bytes, /*crosses_nodes=*/false));
  }
}

// Property: whenever any two DP peers share a node, the node-grouped
// pricing is strictly cheaper than the old singleton-node hack (every
// gradient byte charged at the fabric tier).
TEST(GridDeployment, DpGroupBeatsSingletonPricingWheneverPeersShareANode) {
  // 2-GPU nodes, dp = 4: each stage's peers split 2+2 across two nodes.
  const auto dep = cluster::Deployment::make_grid_topology_aware(
      rails_cluster(4, 2), 4, 2, cluster::GridOrientation::DpInner);
  const auto net = dep.make_cost_model();
  const std::size_t bytes = 96u << 20;
  comm::RankGroup singleton;
  singleton.node_sizes.assign(4, 1);
  singleton.intra = net.params(comm::LinkTier::NvLink);
  singleton.inter = net.params(comm::LinkTier::InfiniBand);
  for (int s = 0; s < 2; ++s) {
    const auto g = dep.dp_group(s);
    ASSERT_EQ(g.num_nodes(), 2);
    EXPECT_GT(g.max_node_size(), 1);
    EXPECT_LT(net.allreduce_time(g, bytes),
              net.allreduce_time(singleton, bytes));
  }
}

TEST(GridDeployment, SessionRejectsMismatchedDpWidth) {
  const auto m = model::make_gpt({.num_blocks = 16,
                                  .include_embedding = false,
                                  .include_lm_head = false});
  Options opt;
  opt.session.pipeline_stages = 4;
  opt.session.data_parallel = 4;  // grid says 2
  opt.session.deployment = cluster::Deployment::make_grid_topology_aware(
      rails_cluster(2, 4), 2, 4, cluster::GridOrientation::DpInner);
  EXPECT_THROW((void)Session(m, UseCase::Static, opt).run(), Error);
}

// Session-level property: orientation moves the DP allreduce traffic the
// way the topology says it must.  DpInner keeps every gradient byte inside
// a node (zero fabric traffic); PpInner pays the fabric for all of it.
TEST(GridDeployment, OrientationMovesInterNodeDpBytesInTheExpectedDirection) {
  const auto m = model::make_gpt({.num_blocks = 16,
                                  .include_embedding = false,
                                  .include_lm_head = false});
  Options opt;
  opt.session.pipeline_stages = 4;
  opt.session.data_parallel = 4;
  opt.session.num_microbatches = 8;
  opt.session.iterations = 50;
  opt.session.sim_stride = 10;

  const auto run_orientation = [&](cluster::GridOrientation o) {
    Options local = opt;
    local.session.deployment = cluster::Deployment::make_grid_topology_aware(
        rails_cluster(4, 4), 4, 4, o);
    Session s(m, UseCase::Static, local);
    return s.run();
  };
  const auto dp_inner = run_orientation(cluster::GridOrientation::DpInner);
  const auto pp_inner = run_orientation(cluster::GridOrientation::PpInner);

  EXPECT_GT(dp_inner.intra_node_dp_bytes, 0.0);
  EXPECT_DOUBLE_EQ(dp_inner.inter_node_dp_bytes, 0.0);
  EXPECT_GT(pp_inner.inter_node_dp_bytes, 0.0);
  EXPECT_LT(dp_inner.inter_node_dp_bytes, pp_inner.inter_node_dp_bytes);
}

// The synthetic (deployment-less) DP path groups replicas by
// net.gpus_per_node instead of all-singleton nodes: when several replica
// pipelines tile into one node, part of the exchange stays intra-node and
// the allreduce gets cheaper, so throughput must not drop.
TEST(GridDeployment, SyntheticDpPathGroupsReplicasByNodeSize) {
  const auto m = model::make_gpt({.num_blocks = 16,
                                  .include_embedding = false,
                                  .include_lm_head = false});
  Options opt;
  opt.session.pipeline_stages = 2;
  opt.session.data_parallel = 4;
  opt.session.num_microbatches = 8;
  opt.session.iterations = 50;
  opt.session.sim_stride = 10;

  const auto run_with_node_size = [&](int gpus_per_node) {
    Options local = opt;
    local.session.net.gpus_per_node = gpus_per_node;
    Session s(m, UseCase::Static, local);
    return s.run();
  };
  // 8-GPU nodes: all four 2-stage replicas share one node — no fabric DP
  // traffic at all.  1-GPU nodes: the old singleton regime.
  const auto wide = run_with_node_size(8);
  const auto singleton = run_with_node_size(1);
  EXPECT_GT(wide.intra_node_dp_bytes, 0.0);
  EXPECT_DOUBLE_EQ(wide.inter_node_dp_bytes, 0.0);
  EXPECT_DOUBLE_EQ(singleton.intra_node_dp_bytes, 0.0);
  EXPECT_GT(singleton.inter_node_dp_bytes, 0.0);
  EXPECT_GE(wide.tokens_per_sec, singleton.tokens_per_sec);
}

TEST(GridDeployment, MigrationBytesAreMirroredAcrossReplicas) {
  // The same MoE run on one replica vs. a 2-wide grid whose replica 0 has
  // the identical placement: every layer move is mirrored, so the grid
  // must report about twice the migration traffic (the second replica
  // straddles the same node boundaries by symmetry).
  const auto m = model::make_moe(model::llama_moe_3_5b_config(), "m");
  Options opt;
  opt.session.pipeline_stages = 8;
  opt.session.num_microbatches = 16;
  opt.session.iterations = 60;
  opt.session.sim_stride = 10;
  opt.session.rebalance_interval = 1;
  opt.moe.tokens_per_microbatch = 512;

  const auto topo = [] { return rails_cluster(4, 4); };
  const auto grid = cluster::Deployment::make_grid_topology_aware(
      topo(), 2, 8, cluster::GridOrientation::PpInner);

  Options single_opt = opt;
  single_opt.session.data_parallel = 1;
  single_opt.session.deployment =
      cluster::Deployment::make(topo(), std::vector<int>(
          grid.stage_to_rank(0).begin(), grid.stage_to_rank(0).end()));
  Options grid_opt = opt;
  grid_opt.session.data_parallel = 2;
  grid_opt.session.deployment = grid;

  const auto single = Session(m, UseCase::Moe, single_opt).run();
  const auto doubled = Session(m, UseCase::Moe, grid_opt).run();
  const double single_total = single.intra_node_migration_bytes +
                              single.inter_node_migration_bytes;
  const double grid_total = doubled.intra_node_migration_bytes +
                            doubled.inter_node_migration_bytes;
  EXPECT_GT(single_total, 0.0);
  EXPECT_NEAR(grid_total, 2.0 * single_total, 0.5 * single_total);
}

TEST(Deployment, SessionHierarchicalNeedsDeployment) {
  const auto m = model::make_gpt({.num_blocks = 16,
                                  .include_embedding = false,
                                  .include_lm_head = false});
  Options opt;
  opt.session.pipeline_stages = 8;
  opt.session.algorithm = balance::Algorithm::HierarchicalDiffusion;
  EXPECT_THROW((void)Session(m, UseCase::Static, opt).run(), Error);
}

}  // namespace
}  // namespace dynmo
