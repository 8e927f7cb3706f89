#include "balance/rebalancer.hpp"

#include <algorithm>

#include "core/error.hpp"
#include "core/stats.hpp"

namespace dynmo::balance {

namespace {

/// Profiling cost charged per rebalance (timer reads + CUDA memory stats
/// query), seconds per layer and per worker.
constexpr double kProfileCostPerLayerS = 2e-6;
constexpr double kProfileCostPerWorkerS = 10e-6;

double profile_cost_s(std::size_t layers, int stages) {
  return kProfileCostPerLayerS * static_cast<double>(layers) +
         kProfileCostPerWorkerS * static_cast<double>(stages);
}

}  // namespace

const char* to_string(Algorithm a) {
  switch (a) {
    case Algorithm::Partition: return "partition";
    case Algorithm::Diffusion: return "diffusion";
    case Algorithm::HierarchicalDiffusion: return "hier_diffusion";
  }
  return "?";
}

double modeled_decide_s(Algorithm algorithm, int work, int stages,
                        std::size_t layers) {
  return algorithm == Algorithm::Partition
             ? kPartitionLayerProbeS * work * static_cast<double>(layers)
             : kDiffusionStageRoundS * work * stages;
}

const char* to_string(MapDecision d) {
  switch (d) {
    case MapDecision::Accepted: return "accepted";
    case MapDecision::RejectedBottleneck: return "rejected_bottleneck";
    case MapDecision::RejectedPayoff: return "rejected_payoff";
  }
  return "?";
}

RebalanceOutcome Rebalancer::rebalance(
    const LayerProfile& profile, const pipeline::StageMap& current) const {
  if (cfg_.incremental) return rebalance_incremental(profile, current);
  last_touched_ = 0;
  return rebalance_full_rescan(profile, current);
}

RebalanceOutcome Rebalancer::rebalance_full_rescan(
    const LayerProfile& profile, const pipeline::StageMap& current) const {
  DYNMO_CHECK(profile.consistent(), "inconsistent profile");
  DYNMO_CHECK(profile.num_layers() == current.num_layers(),
              "profile covers " << profile.num_layers()
                                << " layers, map covers "
                                << current.num_layers());
  const int S = current.num_stages();
  const auto weights = balance_weights(profile, cfg_.by);

  RebalanceOutcome out;
  {
    const auto loads = current.stage_loads(weights);
    out.imbalance_before = load_imbalance(loads);
  }

  propose(weights, profile, current, out);

  // Capacity-normalized per-stage bottleneck — what actually gates a
  // (possibly heterogeneous) pipeline.
  const auto normalized_max = [&](const pipeline::StageMap& m,
                                  std::span<const double> per_layer) {
    auto loads = m.stage_loads(per_layer);
    if (!cfg_.capacities.empty()) {
      DYNMO_CHECK(cfg_.capacities.size() == loads.size(),
                  "capacity vector covers " << cfg_.capacities.size()
                                            << " stages, map has "
                                            << loads.size());
      for (std::size_t s = 0; s < loads.size(); ++s) {
        loads[s] /= std::max(1e-12, cfg_.capacities[s]);
      }
    }
    return *std::max_element(loads.begin(), loads.end());
  };

  // Acceptance, step 1 — hysteresis: a new placement must promise a real
  // bottleneck improvement (in the balancing weights' units), or we keep
  // the current one.
  const MigrationPlan candidate =
      plan_migration(current, out.map, profile.memory_bytes);
  out.candidate_bytes = candidate.total_bytes();
  if (!candidate.empty() &&
      normalized_max(out.map, weights) >
          normalized_max(current, weights) *
              (1.0 - cfg_.min_bottleneck_gain)) {
    out.map = current;
    out.decision = MapDecision::RejectedBottleneck;
  }

  // Acceptance, step 2 — payoff window: the improvement must also amortize
  // the migration's exposed transfer cost within the configured number of
  // iterations.  The gain is measured on the profile's *time* loads
  // (seconds even when balancing by parameters); the cost is the plan's
  // per-rank bottleneck over the actual deployment links, mirrored across
  // DP replicas and discounted by backprop overlap.
  if (out.decision == MapDecision::Accepted && !candidate.empty()) {
    out.projected_gain_s = normalized_max(current, profile.time_s) -
                           normalized_max(out.map, profile.time_s);
    const MigrationCost priced =
        candidate.exposed_cost(net_, cfg_.stage_to_rank);
    out.exposed_cost_s = priced.time_s * cfg_.migration_cost_multiplier *
                         cfg_.migration_exposed_fraction;
    if (cfg_.payoff_window_iters > 0.0 &&
        out.projected_gain_s * cfg_.payoff_window_iters <
            out.exposed_cost_s) {
      out.map = current;
      out.decision = MapDecision::RejectedPayoff;
    }
  }

  out.overhead.profile_s = profile_cost_s(profile.num_layers(), S);

  out.migration =
      out.decision == MapDecision::Accepted ? candidate : MigrationPlan{};
  out.overhead.migrate_s =
      cfg_.stage_to_rank.empty()
          ? out.migration.estimated_time_s(net_)
          : out.migration.estimated_time_s(net_, cfg_.stage_to_rank);

  {
    const auto loads = out.map.stage_loads(weights);
    out.imbalance_after = load_imbalance(loads);
  }
  return out;
}

void Rebalancer::propose(std::span<const double> weights,
                         const LayerProfile& profile,
                         const pipeline::StageMap& current,
                         RebalanceOutcome& out) const {
  const int S = current.num_stages();
  int work = 0;  // partition probes or diffusion rounds
  if (cfg_.algorithm == Algorithm::Partition) {
    PartitionRequest req;
    req.weights.assign(weights.begin(), weights.end());
    req.memory_bytes = profile.memory_bytes;
    req.mem_capacity = cfg_.mem_capacity;
    req.num_stages = S;
    req.capacities = cfg_.capacities;
    PartitionResult r = PartitionBalancer{}.balance(req);
    out.map = std::move(r.map);
    work = r.probes;
  } else {
    DiffusionRequest req;
    req.weights.assign(weights.begin(), weights.end());
    req.memory_bytes = profile.memory_bytes;
    req.mem_capacity = cfg_.mem_capacity;
    req.gamma = cfg_.gamma;
    req.capacities = cfg_.capacities;
    if (cfg_.algorithm == Algorithm::HierarchicalDiffusion &&
        cfg_.hierarchical_decider) {
      DiffusionResult r = cfg_.hierarchical_decider(req, current);
      out.map = std::move(r.map);
      work = r.rounds;
    } else {
      out.diffusion = DiffusionBalancer{}.balance(req, current);
      out.map = out.diffusion->map;
      work = out.diffusion->rounds;
    }
  }
  out.overhead.decide_s =
      modeled_decide_s(cfg_.algorithm, work, S, weights.size());
}

RebalanceOutcome Rebalancer::rebalance_incremental(
    const LayerProfile& profile, const pipeline::StageMap& current) const {
  DYNMO_CHECK(profile.consistent(), "inconsistent profile");
  DYNMO_CHECK(profile.num_layers() == current.num_layers(),
              "profile covers " << profile.num_layers()
                                << " layers, map covers "
                                << current.num_layers());
  const int S = current.num_stages();
  const auto weights = balance_weights(profile, cfg_.by);

  // Absorb the new snapshot: only stages hosting a changed layer are
  // re-summed (a full reset when the map or capacities moved underneath
  // us — re-packs, elastic transitions, straggler capacity refreshes).
  last_touched_ = surface_.sync(current, weights, profile.time_s,
                                profile.memory_bytes, cfg_.capacities);

  RebalanceOutcome out;
  out.imbalance_before = load_imbalance(surface_.stage_loads_w());

  propose(weights, profile, current, out);

  // Acceptance on the cached surface: the candidate is priced by
  // re-summing only the stages its boundary moves touch, the bottlenecks
  // are O(1) tournament-tree roots, and the migration diff scans only the
  // boundary-difference intervals.  Values are bit-identical to the
  // rescan path (see RebalanceConfig::incremental).
  SurfaceEval ev = surface_.evaluate(out.map);
  last_touched_ += ev.touched_stages;
  out.candidate_bytes = ev.plan.total_bytes();
  if (!ev.plan.empty() &&
      ev.norm_w_after >
          ev.norm_w_before * (1.0 - cfg_.min_bottleneck_gain)) {
    out.map = current;
    out.decision = MapDecision::RejectedBottleneck;
  }

  if (out.decision == MapDecision::Accepted && !ev.plan.empty()) {
    out.projected_gain_s = ev.norm_t_before - ev.norm_t_after;
    const MigrationCost priced =
        ev.plan.exposed_cost(net_, cfg_.stage_to_rank);
    out.exposed_cost_s = priced.time_s * cfg_.migration_cost_multiplier *
                         cfg_.migration_exposed_fraction;
    if (cfg_.payoff_window_iters > 0.0 &&
        out.projected_gain_s * cfg_.payoff_window_iters <
            out.exposed_cost_s) {
      out.map = current;
      out.decision = MapDecision::RejectedPayoff;
    }
  }

  out.overhead.profile_s = profile_cost_s(profile.num_layers(), S);

  out.migration =
      out.decision == MapDecision::Accepted ? ev.plan : MigrationPlan{};
  out.overhead.migrate_s =
      cfg_.stage_to_rank.empty()
          ? out.migration.estimated_time_s(net_)
          : out.migration.estimated_time_s(net_, cfg_.stage_to_rank);

  if (out.decision == MapDecision::Accepted) {
    surface_.commit();
  } else {
    surface_.rollback();
  }
  out.imbalance_after = load_imbalance(surface_.stage_loads_w());
  return out;
}

}  // namespace dynmo::balance
