// Elastic lifecycle controller: checkpoint-coordinated shrink *and* expand
// (paper §3.4.2, completed; docs/RUNTIME.md "Elastic lifecycle").
//
// repack:: can release GPUs back to the (mock) ECK control plane, and
// runtime::Checkpoint can reshard a training state onto a different worker
// count — this controller closes the loop.  At every evaluation point it
// chooses one of three actions against the cluster queue:
//
//   Shrink — today's loads concentrate onto fewer workers without raising
//            the bottleneck (the ThroughputPreserving rule), the pack is
//            memory-feasible, and the freed GPU-time amortizes the restart
//            stall within the payoff window.
//   Expand — freed capacity is available in the queue, reclaiming it cuts
//            the projected bottleneck by at least `expand_min_gain`, and
//            that per-iteration gain amortizes the restart stall within the
//            payoff window (the *same* pricing rule migrations use,
//            docs/COST_MODEL.md "Restart-stall pricing").
//   Hold   — neither transition pays for itself.
//
// The controller only decides and talks to the control plane; executing
// the transition — serialize a Checkpoint, re-pack / reshard the stage map,
// rebuild the communicator, resume — is the runtime's job
// (runtime::TrainingSession for the simulated clock,
// runtime::ThreadedPipeline's restart phases for real threads).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>

#include "comm/cost_model.hpp"
#include "pipeline/stage_map.hpp"
#include "repack/elastic.hpp"

namespace dynmo::runtime {

enum class ElasticAction { Hold, Shrink, Expand };

const char* to_string(ElasticAction a);

struct ElasticConfig {
  /// Session switch: false leaves the elastic path entirely inert.
  bool enabled = false;
  /// Evaluation cadence (iterations).  Must land on rebalance points to
  /// fire (the decision consumes the fresh profile): make it a multiple of
  /// the session's rebalance interval and sim_stride.
  std::int64_t interval = 1000;
  int min_workers = 1;
  /// Footprint ceiling the controller may expand to; 0 → the initial
  /// worker count.  A job may start below its ceiling and grow into
  /// capacity other jobs free.  Sessions leave this 0: their cost
  /// surfaces are sized to `pipeline_stages`.
  int max_workers = 0;
  /// Shrink rule (mirrors SessionConfig::RepackPolicy::ThroughputPreserving):
  /// release workers while the optimal contiguous bottleneck at the reduced
  /// count stays within this factor of the full-count optimum.
  double shrink_tolerance = 1.05;
  /// Expand rule: reclaim freed GPUs only when the projected bottleneck
  /// gain is at least this fraction of the current bottleneck (hysteresis
  /// against breathing on noise).
  double expand_min_gain = 0.02;
  /// Iterations the restart stall must amortize within (the migration
  /// payoff rule applied to restarts).  <= 0 → inherit the session's
  /// payoff_window_iters; if that is also 0 the gates are disabled and
  /// every wanted transition executes.
  double payoff_window_iters = 0.0;

  // --- restart stall model (docs/COST_MODEL.md "Restart-stall pricing") --
  /// Job-manager round-trip + process respawn, once per restart.
  double restart_alpha_s = 2.0;
  /// Per-worker checkpoint shard write/read bandwidth (parallel FS).
  double checkpoint_bw = 4.0 * 1024.0 * 1024.0 * 1024.0;

  /// External control plane to shrink into / expand from — a
  /// repack::MockEckCluster or a fleet::Arbiter (docs/FLEET.md); null →
  /// the controller owns a private MockEckCluster sized to `max_workers`
  /// (the job can then only reclaim GPUs it released itself).
  repack::ControlPlane* cluster = nullptr;
  std::string pod = "dynmo-train";
};

/// The restart stall, itemized (docs/COST_MODEL.md "Restart-stall
/// pricing") — telemetry records each term so a trace shows *where* a
/// transition's cost went, not just its total.
struct RestartStall {
  double alpha_s = 0.0;       ///< job-manager round-trip + respawn
  double bootstrap_s = 0.0;   ///< binomial communicator bootstrap
  double ckpt_write_s = 0.0;  ///< busiest shard, pre-restart map
  double ckpt_read_s = 0.0;   ///< busiest shard, post-restart map
  double total_s() const {
    return alpha_s + bootstrap_s + ckpt_write_s + ckpt_read_s;
  }
};

struct ElasticDecision {
  ElasticAction action = ElasticAction::Hold;
  int target_workers = 0;
  /// Per-iteration projected bottleneck gain (Expand) or freed GPU-time
  /// per iteration, freed_workers * bottleneck_s (Shrink).
  double projected_gain_s = 0.0;
  /// Modeled restart stall the transition charges (0 for Hold).
  double restart_stall_s = 0.0;
  /// The same stall itemized; stall.total_s() == restart_stall_s.
  RestartStall stall{};
  /// A transition was wanted but its stall did not amortize within the
  /// payoff window — the session counts these in maps_rejected_payoff.
  bool rejected_by_payoff = false;
};

/// Resolves the link the communicator bootstrap of a `workers`-sized group
/// rides on (the session hands in the deployment-prefix's worst inter-node
/// leader link; tests may return a constant).
using BootstrapLinkFn = std::function<comm::LinkParams(int workers)>;

class ElasticController {
 public:
  /// `initial_workers` is the job's starting (and maximum) footprint; the
  /// first PATCH establishes that baseline claim with the control plane.
  ElasticController(ElasticConfig cfg, int initial_workers,
                    BootstrapLinkFn bootstrap_link);

  /// Decide shrink / hold / expand for the current profile.  `layer_time_s`
  /// and `state_bytes` are per-layer; `map` spans the active workers.
  /// Pure decision — nothing is claimed or released until commit().
  ElasticDecision decide(const pipeline::StageMap& map,
                         std::span<const double> layer_time_s,
                         std::span<const double> state_bytes,
                         double mem_capacity, int active_workers);

  /// Execute the decision against the control plane (PATCH the pod's GPU
  /// claim).  Returns false when the API server rejected the transition —
  /// e.g. another job claimed the freed capacity between decide() and
  /// commit() — in which case the runtime must stay on the current map.
  bool commit(const ElasticDecision& d);

  /// Modeled wall-clock of a checkpoint-coordinated restart from `before`
  /// onto `after` (docs/COST_MODEL.md "Restart-stall pricing"): respawn
  /// alpha + binomial communicator bootstrap over the new group's link +
  /// busiest-shard checkpoint write and reload.
  RestartStall restart_stall(const pipeline::StageMap& before,
                             const pipeline::StageMap& after,
                             std::span<const double> state_bytes) const;
  double restart_stall_s(const pipeline::StageMap& before,
                         const pipeline::StageMap& after,
                         std::span<const double> state_bytes) const {
    return restart_stall(before, after, state_bytes).total_s();
  }

  const repack::ControlPlane& cluster() const { return *cluster_; }
  int claimed_workers() const { return job_.claimed_gpus(); }
  int min_workers() const { return cfg_.min_workers; }
  int max_workers() const { return max_workers_; }

 private:
  ElasticConfig cfg_;
  int max_workers_;
  BootstrapLinkFn bootstrap_link_;
  std::optional<repack::MockEckCluster> owned_cluster_;
  repack::ControlPlane* cluster_;
  repack::JobManagerClient job_;
};

}  // namespace dynmo::runtime
