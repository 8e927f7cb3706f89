#include "cluster/deployment.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <utility>

#include "core/error.hpp"

namespace dynmo::cluster {

namespace {

void check_grid_ranks(const Topology& topo, std::span<const int> grid) {
  std::vector<bool> used(static_cast<std::size_t>(topo.num_ranks()), false);
  for (int r : grid) {
    DYNMO_CHECK(r >= 0 && r < topo.num_ranks(),
                "placement rank " << r << " outside the topology's "
                                  << topo.num_ranks() << " ranks");
    DYNMO_CHECK(!used[static_cast<std::size_t>(r)],
                "rank " << r << " hosts two grid cells");
    used[static_cast<std::size_t>(r)] = true;
  }
}

}  // namespace

Deployment::Deployment(std::shared_ptr<const Topology> topo, int data_parallel,
                       std::vector<int> grid_to_rank)
    : topo_(std::move(topo)),
      dp_(data_parallel),
      pp_(static_cast<int>(grid_to_rank.size()) / data_parallel),
      grid_(std::move(grid_to_rank)) {}

Deployment Deployment::make(Topology topo, std::vector<int> stage_to_rank) {
  return make_grid(std::move(topo), 1, std::move(stage_to_rank));
}

Deployment Deployment::make_grid(Topology topo, int data_parallel,
                                 std::vector<int> grid_to_rank) {
  DYNMO_CHECK(data_parallel > 0, "a grid needs at least one DP replica");
  DYNMO_CHECK(!grid_to_rank.empty(), "a deployment needs at least one stage");
  DYNMO_CHECK(grid_to_rank.size() % static_cast<std::size_t>(data_parallel) ==
                  0,
              "grid of " << grid_to_rank.size() << " cells does not divide "
                         << "into " << data_parallel << " replicas");
  check_grid_ranks(topo, grid_to_rank);
  return Deployment(std::make_shared<const Topology>(std::move(topo)),
                    data_parallel, std::move(grid_to_rank));
}

Deployment Deployment::make_topology_aware(Topology topo, int num_stages,
                                           std::size_t activation_bytes) {
  DYNMO_CHECK(num_stages > 0, "a deployment needs at least one stage");
  DYNMO_CHECK(topo.num_ranks() >= num_stages,
              "topology has " << topo.num_ranks() << " ranks, deployment "
                              << "needs " << num_stages);
  auto placement =
      place_topology_aware(topo, num_stages, activation_bytes);
  return make(std::move(topo), std::move(placement.stage_to_rank));
}

Deployment Deployment::make_grid_topology_aware(Topology topo,
                                                int data_parallel,
                                                int num_stages,
                                                GridOrientation orientation,
                                                std::size_t activation_bytes) {
  auto placement = place_grid(topo, data_parallel, num_stages, orientation,
                              activation_bytes);
  return make_grid(std::move(topo), data_parallel,
                   std::move(placement.grid_to_rank));
}

int Deployment::rank(int dp, int stage) const {
  DYNMO_CHECK(dp >= 0 && dp < dp_,
              "bad DP replica " << dp << " (deployment has " << dp_ << ")");
  DYNMO_CHECK(stage >= 0 && stage < pp_,
              "bad stage " << stage << " (deployment has " << pp_ << ")");
  return grid_[static_cast<std::size_t>(dp * pp_ + stage)];
}

std::span<const int> Deployment::stage_to_rank(int dp) const {
  DYNMO_CHECK(dp >= 0 && dp < dp_,
              "bad DP replica " << dp << " (deployment has " << dp_ << ")");
  return std::span<const int>(grid_).subspan(
      static_cast<std::size_t>(dp * pp_), static_cast<std::size_t>(pp_));
}

Deployment Deployment::prefix(int num_stages) const {
  DYNMO_CHECK(num_stages > 0 && num_stages <= pp_,
              "prefix of " << num_stages << " stages from a " << pp_
                           << "-stage deployment");
  std::vector<int> grid;
  grid.reserve(static_cast<std::size_t>(dp_ * num_stages));
  for (int d = 0; d < dp_; ++d) {
    const auto view = stage_to_rank(d);
    grid.insert(grid.end(), view.begin(),
                view.begin() + static_cast<std::ptrdiff_t>(num_stages));
  }
  return Deployment(topo_, dp_, std::move(grid));
}

const hw::GpuSpec& Deployment::gpu(int stage) const {
  return topo_->gpu(rank(stage));
}

const hw::GpuSpec& Deployment::gpu(int dp, int stage) const {
  return topo_->gpu(rank(dp, stage));
}

int Deployment::node(int stage) const { return topo_->node_of(rank(stage)); }

comm::LinkParams Deployment::link(int stage_a, int stage_b) const {
  const int a = rank(stage_a);
  const int b = rank(stage_b);
  if (a == b) return {0.0, std::numeric_limits<double>::infinity()};
  const PathInfo p = topo_->best_path(a, b);
  DYNMO_CHECK(p.reachable(),
              "stages " << stage_a << " and " << stage_b
                        << " are hosted on disconnected ranks");
  return {p.latency_s, p.bandwidth_bytes_s};
}

comm::RankGroup Deployment::group(std::span<const int> ranks) const {
  comm::RankGroup g;
  g.intra = default_link(LinkType::NvLink).params();
  g.inter = default_link(LinkType::InfiniBand).params();
  std::map<int, std::vector<int>> by_node;  // ordered → deterministic
  for (int r : ranks) by_node[topo_->node_of(r)].push_back(r);
  g.node_sizes.reserve(by_node.size());
  bool have_intra = false;
  for (const auto& [n, members] : by_node) {
    g.node_sizes.push_back(static_cast<int>(members.size()));
    if (members.size() > 1) {
      const comm::LinkParams lp = topo_->node(n).intra.params();
      if (!have_intra || link_ref_time(lp) > link_ref_time(g.intra)) {
        g.intra = lp;
        have_intra = true;
      }
    }
  }
  bool have_inter = false;
  for (auto a = by_node.begin(); a != by_node.end(); ++a) {
    for (auto b = std::next(a); b != by_node.end(); ++b) {
      const PathInfo p =
          topo_->best_path(a->second.front(), b->second.front());
      DYNMO_CHECK(p.reachable(), "group spans disconnected nodes");
      const comm::LinkParams lp{p.latency_s, p.bandwidth_bytes_s};
      if (!have_inter || link_ref_time(lp) > link_ref_time(g.inter)) {
        g.inter = lp;
        have_inter = true;
      }
    }
  }
  return g;
}

comm::RankGroup Deployment::stage_group() const {
  return group(stage_to_rank());
}

comm::RankGroup Deployment::dp_group(int stage) const {
  std::vector<int> peers;
  peers.reserve(static_cast<std::size_t>(dp_));
  for (int d = 0; d < dp_; ++d) peers.push_back(rank(d, stage));
  return group(peers);
}

std::vector<double> Deployment::stage_capacities() const {
  const auto s2r = stage_to_rank();
  std::vector<double> cap(s2r.size(), 1.0);
  double max_speed = 0.0;
  for (int r : s2r) {
    max_speed = std::max(max_speed, topo_->relative_speed(r));
  }
  if (max_speed <= 0.0) return cap;
  for (std::size_t s = 0; s < s2r.size(); ++s) {
    cap[s] = topo_->relative_speed(s2r[s]) / max_speed;
  }
  return cap;
}

double Deployment::min_mem_capacity() const {
  double cap = std::numeric_limits<double>::infinity();
  for (int r : grid_) {
    cap = std::min(cap, topo_->gpu(r).mem_capacity);
  }
  return cap;
}

comm::CostModel Deployment::make_cost_model(comm::CostModelConfig base) const {
  return topo_->make_cost_model(base);
}

}  // namespace dynmo::cluster
