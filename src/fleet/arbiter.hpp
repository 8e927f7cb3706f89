// Multi-tenant fleet arbiter: N elastic jobs competing for one GPU pool
// (docs/FLEET.md has the state machine, fairness formula, and preemption
// pricing in full).
//
// The arbiter owns the pool and is itself the repack::ControlPlane the
// jobs' ElasticControllers PATCH against — the same JobManagerClient
// handshake that talks to MockEckCluster in single-job runs, now mediated
// by policy instead of trust:
//
//   admit    a job arrives; its grant is its weighted max-min fair share
//            clamped to [min_gpus, max_gpus] and to what the pool can
//            actually free.
//   grant /  a running job's expand PATCH; granted from unreserved free
//   deny     capacity when fairness (or work-conserving slack) allows and
//            the fleet-payoff rule prices it profitable, else 409.
//   release  a shrink PATCH; releasing capacity is never refused.
//   preempt  an arriving job that cannot get its minimum forces running
//            jobs through the checkpoint-coordinated shrink path
//            (TrainingSession::request_shrink): equal-priority victims
//            give back only what they hold above fair share, strictly
//            lower-priority victims can be dug down to their minimum.
//            Every preemption is priced with the payoff-window rule in
//            fleet GPU-seconds before anything is forced.
//   finish   a session completes; its allocation returns to the pool.
//
// Every verdict is appended to FleetResult::decisions and — when a trace
// directory is configured — to the schema-versioned fleet_decisions
// telemetry table (docs/TELEMETRY.md).
#pragma once

#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "fleet/clock.hpp"
#include "fleet/fairness.hpp"
#include "fleet/job.hpp"
#include "repack/elastic.hpp"
#include "telemetry/trace_writer.hpp"

namespace dynmo::fleet {

struct ArbiterConfig {
  int total_gpus = 16;
  /// Iterations a preemption's (or priced grow's) exposed cost must
  /// amortize within — the session's migration/restart payoff rule lifted
  /// to fleet GPU-seconds.  <= 0 disables the pricing gates (every wanted
  /// transition executes; capacity and fairness still gate).
  double payoff_window_iters = 50.0;
  /// false → arriving jobs wait for capacity instead of forcing running
  /// jobs to shrink.
  bool allow_preemption = true;
  /// Work conservation: a grow above fair share is still granted when the
  /// unreserved pool has the capacity (nobody below share is asking).
  /// false → strict fairness, grows are capped at the share.
  bool work_conserving = true;
  /// Set `telemetry.dir` to stream the fleet_decisions table (plus
  /// catalog.json) to a trace directory; decisions are always collected
  /// in FleetResult::decisions either way.
  telemetry::TelemetryConfig telemetry{};
};

struct FleetResult {
  double makespan_s = 0.0;   ///< fleet clock when the last job finished
  /// Integral of (active workers x wall-clock) over every session window.
  double busy_gpu_s = 0.0;
  double utilization = 0.0;  ///< busy_gpu_s / (total_gpus * makespan_s)
  /// Sum over jobs of total tokens trained, divided by the makespan —
  /// the fleet-level throughput the bench compares against static
  /// equal-split partitioning.
  double aggregate_tokens_per_sec = 0.0;
  double gpu_hours_saved = 0.0;  ///< summed over all sessions
  int admits = 0;
  int grants = 0;
  int denies = 0;
  int releases = 0;     ///< voluntary shrink PATCHes (preemptions excluded)
  int preemptions = 0;  ///< executed forced shrinks (per victim)
  std::vector<JobOutcome> jobs;  ///< submission order
  std::vector<telemetry::FleetDecisionRow> decisions;
};

class Arbiter : public repack::ControlPlane {
 public:
  explicit Arbiter(ArbiterConfig cfg);
  ~Arbiter() override;

  /// Register a job; every submit() must precede run().  Throws on a
  /// duplicate name, min_gpus > total_gpus, or a malformed spec.
  void submit(JobSpec spec);

  /// Drive every submitted job from arrival to completion under the fleet
  /// clock.  Throws if a job can never be admitted (its minimum exceeds
  /// what the pool could ever free).
  FleetResult run();

  // --- repack::ControlPlane ----------------------------------------------
  // The jobs' ElasticControllers call these re-entrantly from inside
  // step(): baseline claims at start(), grow/shrink PATCHes at elastic
  // evaluation points, and the forced-shrink commits of preemptions.
  int patch_pod(const repack::PatchRequest& req) override;
  /// Unreserved free capacity: pool minus allocations minus what pending
  /// preemption grants have already spoken for.
  int free_gpus() const override;

 private:
  struct Job {
    JobSpec spec;
    JobPhase phase = JobPhase::Pending;
    std::unique_ptr<runtime::TrainingSession> session;
    int alloc = 0;          ///< GPUs currently claimed via PATCH
    int reserved = 0;       ///< freed-by-preemption GPUs earmarked for it
    int pending_grant = 0;  ///< admission grant awaiting its baseline PATCH
    bool baseline_seen = false;
    /// A preemption's request_shrink is queued but its shrink PATCH has
    /// not landed yet; the job is skipped as a further victim and its
    /// landing PATCH does not count as a voluntary release.
    bool shrink_pending = false;
    /// The job's arrival event has been popped (or superseded by an
    /// earlier admission); a job admitted from try_admit_pending() must
    /// not be stepped by its now-stale arrival event.
    bool arrival_consumed = false;
    double admitted_s = 0.0;
    double finished_s = 0.0;
    int preemptions = 0;
  };

  /// Weighted max-min shares over the running jobs, plus `extra_job` when
  /// >= 0 (an admission candidate).  Indexed by job table index; jobs not
  /// included get share -1.
  std::vector<int> fair_shares(int extra_job) const;
  int available_for(const Job& j) const;  ///< free minus others' reservations

  /// Try to admit a pending job; `record_defer` emits the denied admit row
  /// (arrival only — retries stay silent).  May plan a preemption.
  void try_admit(int idx, bool record_defer);
  void try_admit_pending();
  void step_job(int idx);
  void finish_job(int idx, double end_s);

  void emit(const telemetry::FleetDecisionRow& row);

  ArbiterConfig cfg_;
  mutable std::mutex mu_;  ///< guards pool accounting (ControlPlane calls)
  std::vector<Job> jobs_;
  int free_pool_;      ///< GPUs not claimed by any pod
  int reserved_total_ = 0;
  EventClock clock_;
  std::optional<telemetry::TraceWriter> trace_;
  FleetResult result_;
  bool ran_ = false;
};

}  // namespace dynmo::fleet
