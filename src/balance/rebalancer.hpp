// Rebalance orchestrator: profile → decide → migrate (paper Fig. 2, steps
// 3–4), with the overhead accounting behind the paper's Figure 4 table.
//
// All three overheads are modeled, so an outcome is a pure function of its
// inputs: profiling and migration are charged from the calibrated models
// (in the real system they are timer reads and NCCL P2P transfers), and the
// decision from the balancing algorithm's own work counter through
// modeled_decide_s (docs/COST_MODEL.md "Decide cost").
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "balance/diffusion.hpp"
#include "balance/incremental.hpp"
#include "balance/migration.hpp"
#include "balance/partition.hpp"
#include "balance/profile.hpp"
#include "comm/cost_model.hpp"

namespace dynmo::balance {

enum class Algorithm {
  Partition,
  Diffusion,
  /// Two-level diffusion over a cluster::Deployment: intra-node first,
  /// inter-node only when the node totals are out of balance.  The
  /// balancer itself lives in cluster/ (above this layer), so the runtime
  /// injects it through RebalanceConfig::hierarchical_decider; without a
  /// decider this arm falls back to flat Diffusion.
  HierarchicalDiffusion,
};

const char* to_string(Algorithm a);

/// Seconds one diffusion round costs per pipeline stage, and one greedy
/// partition probe per layer: calibrated on a 4-vCPU Intel Xeon (g++ 12.2,
/// Release) in docs/COST_MODEL.md "Decide cost".
inline constexpr double kDiffusionStageRoundS = 22e-9;
inline constexpr double kPartitionLayerProbeS = 8e-9;

/// The modeled wall time of one balancing decision, from the work counter
/// its algorithm reports: `work` diffusion rounds over `stages` stages
/// (Diffusion, HierarchicalDiffusion), or `work` partition probes over
/// `layers` layers (Partition).  The one place a decide cost comes from.
double modeled_decide_s(Algorithm algorithm, int work, int stages,
                        std::size_t layers);

struct RebalanceConfig {
  Algorithm algorithm = Algorithm::Diffusion;
  BalanceBy by = BalanceBy::Time;
  double mem_capacity = 0.0;  ///< per-worker bytes; <=0 → unconstrained
  double gamma = 0.0;         ///< diffusion threshold; <=0 → auto
  /// Hysteresis: keep the current map unless the new one improves the
  /// projected bottleneck by at least this fraction.  Prevents migration
  /// churn from chasing profiling noise at every-iteration cadences.
  double min_bottleneck_gain = 0.02;
  /// Payoff-window acceptance (paper §3.3: a migration only pays off when
  /// its exposed transfer cost is amortized before the load shifts again).
  /// A candidate map that passes the bottleneck hysteresis is adopted only
  /// when
  ///   projected_gain_per_iter_s * payoff_window_iters
  ///       >= exposed_migration_cost_s
  /// where the gain is the capacity-normalized bottleneck improvement on
  /// the profile's *time* loads (seconds, whatever BalanceBy drives the
  /// balancer) and the cost is the plan's per-rank bottleneck priced over
  /// `stage_to_rank`'s links, scaled by the two factors below.  <= 0
  /// disables the rule (bottleneck-only hysteresis).
  double payoff_window_iters = 0.0;
  /// Replicas mirroring every move (a DP grid migrates each layer in all
  /// `data_parallel` replicas, and the transfers contend for the same
  /// fabric) — multiplies the priced migration cost.
  double migration_cost_multiplier = 1.0;
  /// Fraction of the priced migration time actually exposed (the runtime
  /// hides most of it under backward compute at every-iteration cadences).
  double migration_exposed_fraction = 1.0;
  /// Stage s runs on rank stage_to_rank[s] (a deployment's placement);
  /// empty → stage s is rank s.  Migration costs are priced over these
  /// ranks, so a Deployment-backed cost model charges each move the link
  /// it actually crosses.
  std::vector<int> stage_to_rank{};
  /// Per-stage relative compute capacity (heterogeneous deployments);
  /// empty → uniform.  Diffusion converges loads proportional to capacity
  /// and the hysteresis compares capacity-normalized bottlenecks.
  std::vector<double> capacities{};
  /// Decider for Algorithm::HierarchicalDiffusion, wired by the runtime to
  /// cluster::HierarchicalBalancer over the session's Deployment.  Returns
  /// the map and the diffusion rounds it ran (summed over both levels; the
  /// decide cost is charged from them); the other fields are not read.
  std::function<DiffusionResult(const DiffusionRequest&,
                                const pipeline::StageMap&)>
      hierarchical_decider{};
  /// Incremental decision path (default): the acceptance math — per-stage
  /// load sums, capacity-normalized bottlenecks, migration diff — is
  /// served from a balance::CostSurface that re-sums only the stages a
  /// profile change or candidate move touches, instead of re-pricing the
  /// whole grid per decision.  Proven *bit-identical* to the naive full
  /// rescan (Rebalancer::rebalance_full_rescan) by the differential suite
  /// in tests/test_incremental_cost.cpp, including session-level telemetry
  /// byte-equality; false forces the reference path.
  bool incremental = true;
};

struct OverheadBreakdown {
  double profile_s = 0.0;
  double decide_s = 0.0;
  double migrate_s = 0.0;
  double total_s() const { return profile_s + decide_s + migrate_s; }
  bool operator==(const OverheadBreakdown&) const = default;

  OverheadBreakdown& operator+=(const OverheadBreakdown& o) {
    profile_s += o.profile_s;
    decide_s += o.decide_s;
    migrate_s += o.migrate_s;
    return *this;
  }
};

/// What happened to the candidate map the balancing algorithm proposed.
enum class MapDecision {
  Accepted,            ///< adopted (possibly identical to the current map)
  RejectedBottleneck,  ///< hysteresis: gain below min_bottleneck_gain
  RejectedPayoff,      ///< gain x window does not cover the exposed cost
};

const char* to_string(MapDecision d);

struct RebalanceOutcome {
  pipeline::StageMap map;
  OverheadBreakdown overhead;
  MigrationPlan migration;
  double imbalance_before = 0.0;  ///< paper Eq. (2) on stage loads
  double imbalance_after = 0.0;
  std::optional<DiffusionResult> diffusion;  ///< set for Algorithm::Diffusion
  MapDecision decision = MapDecision::Accepted;
  /// Projected per-iteration bottleneck gain of the candidate, in seconds
  /// (capacity-normalized time loads; 0 when the candidate equals current).
  double projected_gain_s = 0.0;
  /// Priced exposed cost of the candidate's migration (after multiplier
  /// and exposure scaling) — what the payoff rule compared against.
  double exposed_cost_s = 0.0;
  /// Bytes the candidate would have moved; equals migration.total_bytes()
  /// when accepted, the avoided traffic when rejected.
  double candidate_bytes = 0.0;
};

class Rebalancer {
 public:
  Rebalancer(RebalanceConfig cfg, comm::CostModel net)
      : cfg_(cfg), net_(net) {}

  /// Decide a new stage map from the profile; compute migration plan and
  /// overheads relative to `current`.  Dispatches on
  /// RebalanceConfig::incremental: the cached decision path by default,
  /// the naive rescan otherwise — with identical outcomes either way.
  RebalanceOutcome rebalance(const LayerProfile& profile,
                             const pipeline::StageMap& current) const;

  /// Reference twin: the naive decision path that re-prices every stage
  /// from scratch (full stage_loads + std::max_element + O(L) migration
  /// diff per decision).  Kept alive under test as the differential
  /// oracle for the incremental path.
  RebalanceOutcome rebalance_full_rescan(
      const LayerProfile& profile, const pipeline::StageMap& current) const;

  const RebalanceConfig& config() const { return cfg_; }

  /// Stages the cached decision path re-summed at the last rebalance()
  /// (profile sync + candidate evaluation) — observability for the
  /// bench_scale work counters; 0 after a full-rescan dispatch.
  std::size_t last_touched_stages() const { return last_touched_; }

 private:
  RebalanceOutcome rebalance_incremental(
      const LayerProfile& profile, const pipeline::StageMap& current) const;
  /// Candidate generation (the configured balancing algorithm), shared by
  /// both decision paths so they evaluate the identical candidate map.
  /// Sets out.map, out.overhead.decide_s and, for Diffusion, out.diffusion.
  void propose(std::span<const double> weights, const LayerProfile& profile,
               const pipeline::StageMap& current, RebalanceOutcome& out) const;

  RebalanceConfig cfg_;
  comm::CostModel net_;
  /// Decision-path cache, carried across rebalance() calls (the whole
  /// point: stage sums survive from one decision to the next and only
  /// touched stages are re-summed).  Mutable because rebalance() is
  /// logically const — the cache never changes an outcome, only its cost.
  mutable CostSurface surface_;
  mutable std::size_t last_touched_ = 0;
};

}  // namespace dynmo::balance
