// Cluster topology: construction, presets, shortest-path effective
// bandwidth, the CostModel adapter, and topology-aware placement.
#include <gtest/gtest.h>

#include <limits>
#include <numeric>

#include "cluster/placement.hpp"
#include "cluster/topology.hpp"
#include "core/error.hpp"
#include "core/units.hpp"

namespace dynmo::cluster {
namespace {

TEST(Topology, DgxH100PresetShape) {
  const auto topo = Topology::make_dgx_h100(2);
  EXPECT_EQ(topo.num_nodes(), 2);
  EXPECT_EQ(topo.num_ranks(), 16);
  EXPECT_EQ(topo.node_of(0), 0);
  EXPECT_EQ(topo.node_of(7), 0);
  EXPECT_EQ(topo.node_of(8), 1);
  EXPECT_EQ(topo.local_rank(11), 3);
  EXPECT_EQ(topo.first_rank(1), 8);
  EXPECT_EQ(topo.node_size(1), 8);
  EXPECT_TRUE(topo.same_node(0, 7));
  EXPECT_FALSE(topo.same_node(7, 8));
  EXPECT_EQ(topo.gpu(3).name, "H100-SXM5-80GB");
}

TEST(Topology, IntraNodeBandwidthIsNvLink) {
  const auto topo = Topology::make_dgx_h100(2);
  const auto nv = default_link(LinkType::NvLink);
  const auto path = topo.best_path(0, 7);
  EXPECT_DOUBLE_EQ(path.bandwidth_bytes_s, nv.bandwidth_bytes_s);
  ASSERT_EQ(path.hops.size(), 2u);  // direct clique edge
  EXPECT_DOUBLE_EQ(path.latency_s, nv.latency_s);
}

TEST(Topology, SameRailCrossNodeIsOneInfiniBandHop) {
  const auto topo = Topology::make_dgx_h100(2);
  const auto ib = default_link(LinkType::InfiniBand);
  // Rank 3 and rank 11 share rail 3.
  const auto path = topo.best_path(3, 11);
  ASSERT_EQ(path.hops.size(), 2u);
  EXPECT_DOUBLE_EQ(path.bandwidth_bytes_s, ib.bandwidth_bytes_s);
}

TEST(Topology, OffRailCrossNodeHopsOverTheClique) {
  const auto topo = Topology::make_dgx_h100(2);
  const auto ib = default_link(LinkType::InfiniBand);
  const auto nv = default_link(LinkType::NvLink);
  // Rank 0 → rank 13 (rail 5): one NVLink hop plus one rail hop.
  const auto path = topo.best_path(0, 13);
  ASSERT_EQ(path.hops.size(), 3u);
  EXPECT_DOUBLE_EQ(path.bandwidth_bytes_s, ib.bandwidth_bytes_s);
  EXPECT_DOUBLE_EQ(path.latency_s, ib.latency_s + nv.latency_s);
  // It is still strictly slower than the same-rail route.
  EXPECT_GT(topo.p2p_time(0, 13, 1 << 20), topo.p2p_time(3, 11, 1 << 20));
}

TEST(Topology, SelfPathIsFree) {
  const auto topo = Topology::make_dgx_h100(1);
  EXPECT_EQ(topo.p2p_time(2, 2, 1 << 30), 0.0);
}

TEST(Topology, CustomGraphRoutesThroughBridge) {
  // Two 2-GPU nodes joined by a single Ethernet uplink on rank 0 ↔ 2:
  // rank 1 → rank 3 must cross three hops (clique, uplink, clique).
  Topology topo;
  NodeDesc node;
  node.gpus = {hw::GpuSpec::a100_sxm4(), hw::GpuSpec::a100_sxm4()};
  topo.add_node(node);
  topo.add_node(node);
  topo.add_link(0, 2, default_link(LinkType::Ethernet));
  const auto path = topo.best_path(1, 3);
  ASSERT_EQ(path.hops.size(), 4u);
  EXPECT_DOUBLE_EQ(path.bandwidth_bytes_s,
                   default_link(LinkType::Ethernet).bandwidth_bytes_s);
}

TEST(Topology, DisconnectedRanksAreReported) {
  Topology topo;
  NodeDesc node;
  node.gpus = {hw::GpuSpec::a100_sxm4()};
  topo.add_node(node);
  topo.add_node(node);
  EXPECT_FALSE(topo.best_path(0, 1).reachable());
  EXPECT_THROW(topo.p2p_time(0, 1, 1024), Error);
  EXPECT_THROW(topo.make_cost_model(), Error);
}

TEST(Topology, HeteroRailsSpanTheSmallestNode) {
  NodeDesc big;
  big.gpus.assign(4, hw::GpuSpec::h100_sxm5());
  NodeDesc small;
  small.gpus.assign(2, hw::GpuSpec::a100_sxm4());
  const auto topo = Topology::make_hetero(
      {big, small}, default_link(LinkType::InfiniBand));
  EXPECT_EQ(topo.num_ranks(), 6);
  // Rails exist on local ranks 0 and 1 only; local rank 3 of the big node
  // reaches the small node through its clique.
  EXPECT_EQ(topo.best_path(0, 4).hops.size(), 2u);
  EXPECT_EQ(topo.best_path(3, 5).hops.size(), 3u);
}

TEST(Topology, CostModelAdapterMatchesTopologyPricing) {
  const auto topo = Topology::make_dgx_h100(2);
  const auto net = topo.make_cost_model();
  ASSERT_TRUE(net.has_link_resolver());
  for (const auto& [a, b] : {std::pair{0, 5}, {2, 9}, {0, 8}, {7, 15}}) {
    EXPECT_NEAR(net.p2p_time(a, b, 64 << 20),
                topo.p2p_time(a, b, 64 << 20), 1e-12)
        << "pair (" << a << "," << b << ")";
  }
  // The snapshot covers exactly the topology's ranks.
  EXPECT_THROW(net.p2p_time(0, 16, 1024), Error);
}

TEST(Topology, CostModelWithoutResolverKeepsTierRule) {
  comm::CostModel net{};
  EXPECT_FALSE(net.has_link_resolver());
  const auto same = net.p2p_time(0, 1, 1 << 20);
  const auto cross = net.p2p_time(0, 4, 1 << 20);
  EXPECT_LT(same, cross);
}

TEST(Placement, TopologyAwareNoWorseThanLinearOnHomogeneousPods) {
  const auto topo = Topology::make_dgx_h100(2);
  const auto aware = place_topology_aware(topo, 12);
  std::vector<int> linear(12);
  std::iota(linear.begin(), linear.end(), 0);
  // Aware can beat linear by crossing nodes on a shared rail (one IB hop)
  // where the rank-order fill pays NVLink + IB.
  EXPECT_LE(aware.boundary_time_s, placement_cost_s(topo, linear));
  // Stages on one node stay contiguous.
  for (std::size_t s = 0; s + 1 < aware.stage_to_rank.size(); ++s) {
    EXPECT_LE(topo.node_of(aware.stage_to_rank[s]),
              topo.node_of(aware.stage_to_rank[s + 1]));
  }
}

TEST(Placement, TopologyAwareSeedsOnTheFastestNode) {
  NodeDesc slow;
  slow.gpus.assign(8, hw::GpuSpec::a100_sxm4());
  NodeDesc fast;
  fast.gpus.assign(8, hw::GpuSpec::h100_sxm5());
  const auto topo = Topology::make_hetero(
      {slow, fast}, default_link(LinkType::InfiniBand));
  const auto aware = place_topology_aware(topo, 8);
  // All eight stages fit on the H100 node (ranks 8..15): no boundary
  // leaves the clique.
  for (const int r : aware.stage_to_rank) EXPECT_EQ(topo.node_of(r), 1);
  EXPECT_DOUBLE_EQ(
      aware.boundary_time_s,
      7.0 * topo.p2p_time(8, 9, kDefaultActivationBytes));
}

TEST(Placement, RejectsMoreStagesThanRanks) {
  const auto topo = Topology::make_dgx_h100(1);
  EXPECT_THROW(place_topology_aware(topo, 9), Error);
}

TEST(GridPlacement, DpInnerPacksAStagesPeersIntoOneNode) {
  // 4 nodes x 4 GPUs, 4x4 grid: DP width equals the node size, so every
  // stage's four peers land on a single node — the orientation that keeps
  // the gradient allreduce on NVLink.
  const auto topo = Topology::make_homogeneous(
      4, 4, hw::GpuSpec::h100_sxm5(), default_link(LinkType::NvLink),
      default_link(LinkType::InfiniBand));
  const auto g = place_grid(topo, 4, 4, GridOrientation::DpInner);
  ASSERT_EQ(static_cast<int>(g.grid_to_rank.size()), 16);
  for (int s = 0; s < 4; ++s) {
    const int node = topo.node_of(g.grid_to_rank[static_cast<std::size_t>(s)]);
    for (int d = 1; d < 4; ++d) {
      EXPECT_EQ(topo.node_of(
                    g.grid_to_rank[static_cast<std::size_t>(d * 4 + s)]),
                node)
          << "stage " << s << " replica " << d;
    }
  }
}

TEST(GridPlacement, PpInnerPacksAReplicasPipelineIntoOneNode) {
  const auto topo = Topology::make_homogeneous(
      4, 4, hw::GpuSpec::h100_sxm5(), default_link(LinkType::NvLink),
      default_link(LinkType::InfiniBand));
  const auto g = place_grid(topo, 4, 4, GridOrientation::PpInner);
  for (int d = 0; d < 4; ++d) {
    const int node = topo.node_of(g.grid_to_rank[static_cast<std::size_t>(d * 4)]);
    for (int s = 1; s < 4; ++s) {
      EXPECT_EQ(topo.node_of(
                    g.grid_to_rank[static_cast<std::size_t>(d * 4 + s)]),
                node)
          << "replica " << d << " stage " << s;
    }
  }
  // Activations never leave a node under PpInner, so its summed boundary
  // time must undercut DpInner's (whose boundaries all cross the fabric).
  const auto dp_inner = place_grid(topo, 4, 4, GridOrientation::DpInner);
  EXPECT_LT(g.boundary_time_s, dp_inner.boundary_time_s);
}

TEST(GridPlacement, CoversDistinctRanksAndRejectsOversizedGrids) {
  const auto topo = Topology::make_dgx_h100(2);
  const auto g = place_grid(topo, 2, 8, GridOrientation::PpInner);
  std::vector<bool> seen(16, false);
  for (int r : g.grid_to_rank) {
    EXPECT_FALSE(seen[static_cast<std::size_t>(r)]);
    seen[static_cast<std::size_t>(r)] = true;
  }
  EXPECT_THROW(place_grid(topo, 3, 8, GridOrientation::DpInner), Error);
  EXPECT_THROW(place_grid(topo, 0, 8, GridOrientation::DpInner), Error);
}

}  // namespace
}  // namespace dynmo::cluster
