#include "cluster/placement.hpp"

#include <algorithm>
#include <limits>

#include "core/error.hpp"

namespace dynmo::cluster {

double placement_cost_s(const Topology& topo,
                        std::span<const int> stage_to_rank,
                        std::size_t activation_bytes) {
  double acc = 0.0;
  for (std::size_t s = 0; s + 1 < stage_to_rank.size(); ++s) {
    acc += topo.p2p_time(stage_to_rank[s], stage_to_rank[s + 1],
                         activation_bytes);
  }
  return acc;
}

namespace {

Placement finish(const Topology& topo, std::vector<int> ranks,
                 std::size_t activation_bytes) {
  Placement p;
  p.stage_to_rank = std::move(ranks);
  p.boundary_time_s =
      placement_cost_s(topo, p.stage_to_rank, activation_bytes);
  return p;
}

/// The greedy fast-link chain shared by place_topology_aware and
/// place_grid: seed on the highest-aggregate-throughput node, then
/// repeatedly append the unused rank with the cheapest link from the
/// previous pick (ties toward faster GPUs, then lower rank).
std::vector<int> greedy_chain(const Topology& topo, int count,
                              std::size_t activation_bytes) {
  int seed_node = 0;
  double best_throughput = -1.0;
  for (int n = 0; n < topo.num_nodes(); ++n) {
    double acc = 0.0;
    for (int i = 0; i < topo.node_size(n); ++i) {
      acc += topo.relative_speed(topo.first_rank(n) + i);
    }
    if (acc > best_throughput) {
      best_throughput = acc;
      seed_node = n;
    }
  }

  std::vector<bool> used(static_cast<std::size_t>(topo.num_ranks()), false);
  std::vector<int> ranks;
  ranks.reserve(static_cast<std::size_t>(count));
  int prev = topo.first_rank(seed_node);
  used[static_cast<std::size_t>(prev)] = true;
  ranks.push_back(prev);
  while (static_cast<int>(ranks.size()) < count) {
    int best = -1;
    double best_time = std::numeric_limits<double>::infinity();
    double best_speed = -1.0;
    const auto paths = topo.best_paths_from(prev);  // one Dijkstra per step
    for (int r = 0; r < topo.num_ranks(); ++r) {
      if (used[static_cast<std::size_t>(r)]) continue;
      const PathInfo& p = paths[static_cast<std::size_t>(r)];
      DYNMO_CHECK(p.reachable(),
                  "ranks " << prev << " and " << r << " are disconnected");
      const double t = p.time_s(activation_bytes);
      const double speed = topo.relative_speed(r);
      // Cheapest link wins; among equal links prefer the faster GPU,
      // then the lower rank (keeps fills deterministic and contiguous).
      constexpr double kTimeEps = 1e-12;
      if (t < best_time - kTimeEps ||
          (t < best_time + kTimeEps && speed > best_speed)) {
        best = r;
        best_time = t;
        best_speed = speed;
      }
    }
    used[static_cast<std::size_t>(best)] = true;
    ranks.push_back(best);
    prev = best;
  }
  return ranks;
}

}  // namespace

Placement place_topology_aware(const Topology& topo, int num_stages,
                               std::size_t activation_bytes) {
  DYNMO_CHECK(num_stages > 0 && num_stages <= topo.num_ranks(),
              num_stages << " stages on " << topo.num_ranks() << " ranks");
  return finish(topo, greedy_chain(topo, num_stages, activation_bytes),
                activation_bytes);
}

const char* to_string(GridOrientation o) {
  switch (o) {
    case GridOrientation::DpInner: return "dp_inner";
    case GridOrientation::PpInner: return "pp_inner";
  }
  return "?";
}

GridPlacement place_grid(const Topology& topo, int data_parallel,
                         int num_stages, GridOrientation orientation,
                         std::size_t activation_bytes) {
  DYNMO_CHECK(data_parallel > 0, "grid needs at least one DP replica");
  DYNMO_CHECK(num_stages > 0, "grid needs at least one stage");
  const int total = data_parallel * num_stages;
  DYNMO_CHECK(total <= topo.num_ranks(),
              data_parallel << "x" << num_stages << " grid on "
                            << topo.num_ranks() << " ranks");
  const auto chain = greedy_chain(topo, total, activation_bytes);

  GridPlacement g;
  g.data_parallel = data_parallel;
  g.num_stages = num_stages;
  g.grid_to_rank.resize(static_cast<std::size_t>(total));
  for (int d = 0; d < data_parallel; ++d) {
    for (int s = 0; s < num_stages; ++s) {
      // Chain position of (d, s) under the orientation's traversal:
      // DpInner hands out a stage's DP peers consecutively, PpInner a
      // replica's stages.
      const int pos = orientation == GridOrientation::DpInner
                          ? s * data_parallel + d
                          : d * num_stages + s;
      g.grid_to_rank[static_cast<std::size_t>(d * num_stages + s)] =
          chain[static_cast<std::size_t>(pos)];
    }
  }
  for (int d = 0; d < data_parallel; ++d) {
    g.boundary_time_s += placement_cost_s(
        topo,
        std::span<const int>(g.grid_to_rank)
            .subspan(static_cast<std::size_t>(d * num_stages),
                     static_cast<std::size_t>(num_stages)),
        activation_bytes);
  }
  return g;
}

}  // namespace dynmo::cluster
