#include "balance/rebalancer.hpp"

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
  if (!cfg_.incremental) return rebalance_full_rescan(profile, current);
  return decide(profile, current, true);
}

RebalanceOutcome Rebalancer::rebalance_full_rescan(
    const LayerProfile& profile, const pipeline::StageMap& current) const {
  return decide(profile, current, false);
}

RebalanceOutcome Rebalancer::decide(const LayerProfile& profile,
                                    const pipeline::StageMap& current,
                                    bool incremental) const {
  DYNMO_CHECK(profile.consistent(), "inconsistent profile");
  DYNMO_CHECK(profile.num_layers() == current.num_layers(),
              "profile covers " << profile.num_layers()
                                << " layers, map covers "
                                << current.num_layers());
  const auto weights = balance_weights(profile, cfg_.by);

  RebalanceOutcome out;
  out.imbalance_before = load_imbalance(current.stage_loads(weights));
  out.overhead.profile_s =
      profile_cost_s(profile.num_layers(), current.num_stages());

  propose(weights, profile, current, out);

  // Evaluation is the only difference between the two decision paths.
  // The cached path absorbs the new snapshot (re-summing only stages that
  // host a changed layer; a full reset when the map or capacities moved
  // underneath it), then prices the candidate by re-summing only the
  // stages its boundary moves touch.  The naive path re-prices every
  // stage.  Both produce bit-identical values (see
  // RebalanceConfig::incremental).
  last_touched_ = 0;
  SurfaceEval ev;
  if (incremental) {
    last_touched_ = surface_.sync(current, weights, profile.time_s,
                                  profile.memory_bytes, cfg_.capacities);
    ev = surface_.evaluate(out.map);
    last_touched_ += ev.touched_stages;
  } else {
    ev = evaluate_full_rescan(current, out.map, weights, profile.time_s,
                              profile.memory_bytes, cfg_.capacities);
  }
  accept(ev, current, out);
  if (incremental) {
    if (out.decision == MapDecision::Accepted) {
      surface_.commit();
    } else {
      surface_.rollback();
    }
  }

  out.imbalance_after = load_imbalance(out.map.stage_loads(weights));
  return out;
}

void Rebalancer::accept(SurfaceEval& ev, const pipeline::StageMap& current,
                        RebalanceOutcome& out) const {
  out.candidate_bytes = ev.plan.total_bytes();
  if (ev.plan.empty()) return;  // the candidate is the current map

  // Step 1 — hysteresis: a new placement must promise a real bottleneck
  // improvement (capacity-normalized, in the balancing weights' units),
  // or we keep the current one.
  if (ev.norm_w_after > ev.norm_w_before * (1.0 - cfg_.min_bottleneck_gain)) {
    out.map = current;
    out.decision = MapDecision::RejectedBottleneck;
    return;
  }

  // Step 2 — payoff window: the improvement must also amortize the
  // migration's exposed transfer cost within the configured number of
  // iterations.  The gain is measured on the profile's *time* loads
  // (seconds even when balancing by parameters); the cost is the plan's
  // per-rank bottleneck over the actual deployment links, mirrored across
  // DP replicas and discounted by backprop overlap.
  out.projected_gain_s = ev.norm_t_before - ev.norm_t_after;
  const double migrate_s =
      ev.plan.exposed_cost(net_, cfg_.stage_to_rank).time_s;
  out.exposed_cost_s = migrate_s * cfg_.migration_cost_multiplier *
                       cfg_.migration_exposed_fraction;
  if (!amortizes(out.projected_gain_s, cfg_.payoff_window_iters,
                 out.exposed_cost_s)) {
    out.map = current;
    out.decision = MapDecision::RejectedPayoff;
    return;
  }
  out.migration = std::move(ev.plan);
  out.overhead.migrate_s = migrate_s;
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

}  // namespace dynmo::balance
