#include "cluster/hier_balancer.hpp"

#include <algorithm>
#include <map>
#include <numeric>

#include "balance/partition.hpp"
#include "core/error.hpp"
#include "core/stats.hpp"

namespace dynmo::cluster {

namespace {

/// Enter the inter-node level only when the imbalance of the
/// capacity-normalized *node totals* — the gap intra-node moves cannot
/// close by construction — exceeds this ((max−min)/mean, Eq. 2).
constexpr double kInterNodeTrigger = 0.05;
/// Adopt the inter-node result only when it improves the
/// capacity-normalized bottleneck over the intra-only map by at least this
/// fraction.  Inter-node moves ride the fabric, so they must pay for
/// themselves; without this guard an every-iteration cadence chases
/// node-total noise across InfiniBand (churn flat diffusion's local moves
/// never exhibit).
constexpr double kInterNodeGain = 0.05;

/// A maximal run of consecutive stages hosted by one node.
struct StageGroup {
  int node = 0;
  int stage_begin = 0;
  int stage_end = 0;  ///< exclusive
  int size() const { return stage_end - stage_begin; }
};

std::vector<StageGroup> group_stages(const Topology& topo,
                                     std::span<const int> stage_to_rank) {
  std::vector<StageGroup> groups;
  std::vector<bool> seen(static_cast<std::size_t>(topo.num_nodes()), false);
  for (int s = 0; s < static_cast<int>(stage_to_rank.size()); ++s) {
    const int node = topo.node_of(stage_to_rank[static_cast<std::size_t>(s)]);
    if (groups.empty() || groups.back().node != node) {
      DYNMO_CHECK(!seen[static_cast<std::size_t>(node)],
                  "stages on node " << node
                                    << " are not contiguous; use a "
                                       "cluster::place_* placement");
      seen[static_cast<std::size_t>(node)] = true;
      groups.push_back({node, s, s + 1});
    } else {
      groups.back().stage_end = s + 1;
    }
  }
  return groups;
}

std::vector<double> slice(std::span<const double> v, std::size_t lo,
                          std::size_t hi) {
  if (v.empty()) return {};
  return {v.begin() + static_cast<std::ptrdiff_t>(lo),
          v.begin() + static_cast<std::ptrdiff_t>(hi)};
}

/// Per-rank serialized wall-clock of a plan priced by the topology's
/// shortest-path links — the same serialization rule as
/// balance::MigrationPlan::estimated_time_s without snapshotting a
/// CostModel for every balance() call.
double topo_migration_time(const balance::MigrationPlan& plan,
                           const Topology& topo,
                           std::span<const int> stage_to_rank) {
  std::map<int, double> rank_time;
  // Topology::p2p_time runs a full single-source shortest-path per call;
  // transfers cluster on few source ranks, so memoize each source's row
  // (best_paths_from) and price every transfer from the cached PathInfo —
  // the identical object p2p_time would have read, so identical times.
  std::map<int, std::vector<PathInfo>> paths_from;
  const auto p2p = [&](int src, int dst, std::size_t bytes) {
    if (src == dst) return 0.0;
    auto it = paths_from.find(src);
    if (it == paths_from.end()) {
      it = paths_from.emplace(src, topo.best_paths_from(src)).first;
    }
    const PathInfo& p = it->second[static_cast<std::size_t>(dst)];
    DYNMO_CHECK(p.reachable(),
                "ranks " << src << " and " << dst << " are disconnected");
    return p.time_s(bytes);
  };
  for (const auto& t : plan.transfers) {
    const int src = stage_to_rank[static_cast<std::size_t>(t.src_stage)];
    const int dst = stage_to_rank[static_cast<std::size_t>(t.dst_stage)];
    const double s = p2p(src, dst, static_cast<std::size_t>(t.bytes));
    rank_time[src] += s;
    rank_time[dst] += s;
  }
  double worst = 0.0;
  for (const auto& [rank, s] : rank_time) worst = std::max(worst, s);
  return worst;
}

}  // namespace

HierResult HierarchicalBalancer::balance(
    const balance::DiffusionRequest& req, const pipeline::StageMap& start,
    std::span<const int> stage_to_rank) const {
  const int S = start.num_stages();
  DYNMO_CHECK(S > 0, "empty stage map");
  DYNMO_CHECK(S <= topo_->num_ranks(),
              S << " stages need " << S << " ranks, topology has "
                << topo_->num_ranks());
  std::vector<int> identity;
  if (stage_to_rank.empty()) {
    identity.resize(static_cast<std::size_t>(S));
    std::iota(identity.begin(), identity.end(), 0);
    stage_to_rank = identity;
  }
  DYNMO_CHECK(stage_to_rank.size() == static_cast<std::size_t>(S),
              "stage_to_rank covers " << stage_to_rank.size()
                                      << " stages, map has " << S);

  // Per-stage capacity: the request's override, else the ranks' GPU
  // throughput relative to the fastest.
  std::vector<double> cap(static_cast<std::size_t>(S), 1.0);
  if (!req.capacities.empty()) {
    DYNMO_CHECK(req.capacities.size() == static_cast<std::size_t>(S),
                "capacity vector size mismatch");
    cap = req.capacities;
  } else {
    double max_speed = 0.0;
    for (int s = 0; s < S; ++s) {
      max_speed = std::max(
          max_speed,
          topo_->relative_speed(stage_to_rank[static_cast<std::size_t>(s)]));
    }
    for (int s = 0; s < S; ++s) {
      cap[static_cast<std::size_t>(s)] =
          topo_->relative_speed(stage_to_rank[static_cast<std::size_t>(s)]) /
          max_speed;
    }
  }

  const std::span<const double> w(req.weights);
  const auto groups = group_stages(*topo_, stage_to_rank);

  const auto normalized_imbalance = [&](const pipeline::StageMap& m) {
    auto loads = m.stage_loads(w);
    for (int s = 0; s < S; ++s) {
      loads[static_cast<std::size_t>(s)] /= cap[static_cast<std::size_t>(s)];
    }
    return load_imbalance(loads);
  };

  const double total_x = [&] {
    auto loads = start.stage_loads(w);
    double acc = 0.0;
    for (int s = 0; s < S; ++s) {
      acc += loads[static_cast<std::size_t>(s)] /
             cap[static_cast<std::size_t>(s)];
    }
    return acc;
  }();

  HierResult res;
  res.imbalance_before = normalized_imbalance(start);

  const balance::DiffusionBalancer diffusion;

  // Level 1: diffusion within each node's run of stages.  The group's
  // layer range is fixed; only NVLink-priced moves happen here.
  const auto intra_pass = [&](const pipeline::StageMap& m, bool& converged) {
    std::vector<std::size_t> bounds = m.boundaries();
    for (const StageGroup& g : groups) {
      if (g.size() <= 1) continue;
      const std::size_t lo = m.stage_begin(g.stage_begin);
      const std::size_t hi = m.stage_end(g.stage_end - 1);
      if (hi - lo <= 1) continue;  // nothing to exchange
      balance::DiffusionRequest sub;
      sub.weights = slice(w, lo, hi);
      sub.memory_bytes = slice(req.memory_bytes, lo, hi);
      sub.capacities = slice(cap, static_cast<std::size_t>(g.stage_begin),
                             static_cast<std::size_t>(g.stage_end));
      sub.mem_capacity = req.mem_capacity;
      if (req.gamma > 0.0) {
        // Split γ by the group's share of the capacity-normalized load —
        // the units φ and γ are measured in.
        const auto loads = m.stage_loads(w);
        double group_x = 0.0;
        for (int s = g.stage_begin; s < g.stage_end; ++s) {
          group_x += loads[static_cast<std::size_t>(s)] /
                     cap[static_cast<std::size_t>(s)];
        }
        sub.gamma = req.gamma * (total_x > 0.0 ? group_x / total_x : 1.0);
      }
      std::vector<std::size_t> sub_bounds(
          m.boundaries().begin() + g.stage_begin,
          m.boundaries().begin() + g.stage_end + 1);
      for (auto& b : sub_bounds) b -= lo;
      auto seed = pipeline::StageMap::from_boundaries(std::move(sub_bounds));
      // Intra-node moves ride NVLink, so extra local movement is cheap:
      // seed with the greedy prefix split when it has the lower bottleneck
      // (diffusion's best-map tracking only improves on its own start).
      // Skip under memory pressure or per-GPU capacity skew, where the
      // greedy split is blind to the constraints diffusion enforces.
      const bool uniform_caps =
          std::all_of(sub.capacities.begin(), sub.capacities.end(),
                      [&](double c) { return c == sub.capacities.front(); });
      if (req.mem_capacity <= 0.0 && uniform_caps) {
        const auto greedy =
            pipeline::StageMap::greedy_by_weight(sub.weights, g.size());
        const auto bn = [&](const pipeline::StageMap& sm) {
          const auto loads = sm.stage_loads(sub.weights);
          return *std::max_element(loads.begin(), loads.end());
        };
        if (bn(greedy) < bn(seed)) seed = greedy;
      }
      const auto sub_res = diffusion.balance(sub, seed);
      res.rounds += sub_res.rounds;
      converged = converged && sub_res.converged;
      for (int s = g.stage_begin; s <= g.stage_end; ++s) {
        bounds[static_cast<std::size_t>(s)] =
            lo + sub_res.map.boundaries()[static_cast<std::size_t>(
                     s - g.stage_begin)];
      }
    }
    return pipeline::StageMap::from_boundaries(std::move(bounds));
  };

  bool converged = true;
  pipeline::StageMap map = intra_pass(start, converged);
  res.imbalance_after_intra = normalized_imbalance(map);

  // Intra-node moves can never change a node's total load, so the gap
  // that justifies paying inter-node prices is the imbalance of the
  // capacity-normalized *node* aggregates.
  const double node_gap = [&] {
    const auto loads = map.stage_loads(w);
    std::vector<double> node_x;
    node_x.reserve(groups.size());
    for (const StageGroup& g : groups) {
      double load = 0.0;
      double node_cap = 0.0;
      for (int s = g.stage_begin; s < g.stage_end; ++s) {
        load += loads[static_cast<std::size_t>(s)];
        node_cap += cap[static_cast<std::size_t>(s)];
      }
      node_x.push_back(load / node_cap);
    }
    return load_imbalance(node_x);
  }();

  if (groups.size() > 1 && node_gap > kInterNodeTrigger) {
    // Level 2: same protocol, one super-stage per node, capacity = the
    // node's aggregate throughput.  Only the node-boundary cuts move.
    balance::DiffusionRequest super;
    super.weights = req.weights;
    super.memory_bytes = req.memory_bytes;
    super.gamma = req.gamma;
    // Per-node memory cap: a node absorbs up to its stage count's worth.
    if (req.mem_capacity > 0.0) {
      int min_size = groups.front().size();
      for (const StageGroup& g : groups) min_size = std::min(min_size, g.size());
      super.mem_capacity = req.mem_capacity * min_size;
    }
    std::vector<std::size_t> super_bounds;
    super_bounds.reserve(groups.size() + 1);
    for (const StageGroup& g : groups) {
      super_bounds.push_back(map.stage_begin(g.stage_begin));
      double node_cap = 0.0;
      for (int s = g.stage_begin; s < g.stage_end; ++s) {
        node_cap += cap[static_cast<std::size_t>(s)];
      }
      super.capacities.push_back(node_cap);
    }
    super_bounds.push_back(map.num_layers());
    const auto super_res = diffusion.balance(
        super, pipeline::StageMap::from_boundaries(std::move(super_bounds)));
    res.rounds += super_res.rounds;
    converged = converged && super_res.converged;

    // Re-split each node's *shifted* layer range over its stages, then
    // polish with another intra pass.  Nodes whose range did not move keep
    // their current (already intra-polished) cuts — re-splitting them from
    // scratch would churn layers for no balance gain.
    std::vector<std::size_t> bounds(static_cast<std::size_t>(S) + 1, 0);
    bounds.back() = map.num_layers();
    for (std::size_t gi = 0; gi < groups.size(); ++gi) {
      const StageGroup& g = groups[gi];
      const std::size_t lo =
          super_res.map.stage_begin(static_cast<int>(gi));
      const std::size_t hi = super_res.map.stage_end(static_cast<int>(gi));
      std::vector<std::size_t> sub_bounds;
      if (hi == lo) {
        sub_bounds.assign(static_cast<std::size_t>(g.size()) + 1, 0);
      } else if (lo == map.stage_begin(g.stage_begin) &&
                 hi == map.stage_end(g.stage_end - 1)) {
        sub_bounds.assign(
            map.boundaries().begin() + g.stage_begin,
            map.boundaries().begin() + g.stage_end + 1);
        for (auto& b : sub_bounds) b -= lo;
      } else {
        // Partition (not greedy) so the re-split seed respects the
        // per-stage memory cap; the intra polish only blocks *new*
        // violations, it cannot repair an infeasible seed.
        balance::PartitionRequest part;
        part.weights = slice(w, lo, hi);
        part.memory_bytes = slice(req.memory_bytes, lo, hi);
        part.mem_capacity = req.mem_capacity;
        part.num_stages = g.size();
        sub_bounds =
            balance::PartitionBalancer{}.balance(part).map.boundaries();
      }
      for (int s = g.stage_begin; s <= g.stage_end; ++s) {
        bounds[static_cast<std::size_t>(s)] =
            lo + sub_bounds[static_cast<std::size_t>(s - g.stage_begin)];
      }
    }
    bool inter_converged = converged;
    const pipeline::StageMap inter_map = intra_pass(
        pipeline::StageMap::from_boundaries(std::move(bounds)),
        inter_converged);

    // Inter-node moves must pay for themselves: adopt the level-2 result
    // only when it beats the intra-only bottleneck by the configured
    // margin (capacity-normalized max load — what gates the pipeline).
    const auto normalized_bottleneck = [&](const pipeline::StageMap& m) {
      auto loads = m.stage_loads(w);
      double worst = 0.0;
      for (int s = 0; s < S; ++s) {
        worst = std::max(worst, loads[static_cast<std::size_t>(s)] /
                                    cap[static_cast<std::size_t>(s)]);
      }
      return worst;
    };
    // Each bottleneck is an O(L + S) rescan — evaluate the two maps once
    // and reuse (pure function of (map, w, cap), so values are identical
    // to re-evaluating at each use).
    const double nb_intra = normalized_bottleneck(map);
    const double nb_inter = normalized_bottleneck(inter_map);
    if (nb_inter < nb_intra * (1.0 - kInterNodeGain)) {
      // Payoff window: the inter map's bottleneck gain (per iteration, in
      // the weights' units — seconds under time balancing) must also cover
      // the *extra* exposed transfer cost it pays over the intra-only map,
      // both plans priced from `start` over the topology's actual links.
      bool pays_off = true;
      if (cfg_.payoff_window_iters > 0.0 &&
          req.memory_bytes.size() == start.num_layers()) {
        const double gain = nb_intra - nb_inter;
        const auto to_inter =
            balance::plan_migration(start, inter_map, req.memory_bytes);
        const auto to_intra =
            balance::plan_migration(start, map, req.memory_bytes);
        res.inter_exposed_cost_s =
            std::max(0.0,
                     topo_migration_time(to_inter, *topo_, stage_to_rank) -
                         topo_migration_time(to_intra, *topo_,
                                             stage_to_rank)) *
            cfg_.migration_cost_multiplier;
        if (!balance::amortizes(gain, cfg_.payoff_window_iters,
                                res.inter_exposed_cost_s)) {
          pays_off = false;
          res.inter_rejected_by_payoff = true;
        }
      }
      if (pays_off) {
        res.used_inter_node = true;
        converged = inter_converged;
        map = inter_map;
      }
    }
  }

  res.imbalance_after = normalized_imbalance(map);
  res.converged = converged;

  // Net per-layer moves, classified by whether they cross a node boundary.
  for (std::size_t l = 0; l < start.num_layers(); ++l) {
    const int src = start.stage_of(l);
    const int dst = map.stage_of(l);
    if (src == dst) continue;
    const int src_node =
        topo_->node_of(stage_to_rank[static_cast<std::size_t>(src)]);
    const int dst_node =
        topo_->node_of(stage_to_rank[static_cast<std::size_t>(dst)]);
    if (src_node == dst_node) {
      ++res.intra_node_moves;
    } else {
      ++res.inter_node_moves;
    }
  }
  res.map = std::move(map);
  return res;
}

MigrationSplit classify_migration(const balance::MigrationPlan& plan,
                                  const Topology& topo,
                                  std::span<const int> stage_to_rank) {
  MigrationSplit split;
  for (const auto& t : plan.transfers) {
    const int src = stage_to_rank.empty()
                        ? t.src_stage
                        : stage_to_rank[static_cast<std::size_t>(t.src_stage)];
    const int dst = stage_to_rank.empty()
                        ? t.dst_stage
                        : stage_to_rank[static_cast<std::size_t>(t.dst_stage)];
    if (topo.same_node(src, dst)) {
      split.intra_node_bytes += t.bytes;
    } else {
      split.inter_node_bytes += t.bytes;
    }
  }
  return split;
}

}  // namespace dynmo::cluster
