// End-to-end training session on the simulated cluster clock.
//
// Implements the paper's Figure-2 loop: train → dynamism → profile →
// balance → (optionally) re-pack → train, over hybrid data + pipeline
// parallelism.  The session charges every cost through the calibrated
// hardware models (kernel roofline, alpha-beta network, memory) and
// *measures* bubbles and idleness from the simulated pipeline timeline.
//
// Baseline modes reproduce the paper's comparators:
//   StaticUniform — Megatron-LM: equal layer counts per stage, fixed.
//   StaticParam   — DeepSpeed: equal parameter counts per stage, fixed.
//   Egeria        — freezing-specific: static map + Egeria's own per-check
//                   reference-model overhead (grows with depth).
//   Tutel         — MoE-specific: adaptive expert parallelism that removes
//                   part of the routing imbalance but never moves layers.
//   DynMo         — the real thing: Partition or Diffusion, by time or by
//                   params, optional re-packing.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "balance/rebalancer.hpp"
#include "cluster/deployment.hpp"
#include "fault/plan.hpp"
#include "cluster/hier_balancer.hpp"
#include "cluster/topology.hpp"
#include "comm/cost_model.hpp"
#include "dynamic/dynamism.hpp"
#include "hw/gpu_spec.hpp"
#include "model/layer_cost.hpp"
#include "pipeline/cost_builder.hpp"
#include "pipeline/schedule.hpp"
#include "pipeline/stage_map.hpp"
#include "repack/repack.hpp"
#include "runtime/elastic.hpp"
#include "telemetry/trace_writer.hpp"

namespace dynmo::runtime {

enum class BalancingMode {
  StaticUniform,
  StaticParam,
  Egeria,
  Tutel,
  DynMo,
};

const char* to_string(BalancingMode m);

struct SessionConfig {
  int pipeline_stages = 8;
  int data_parallel = 1;
  std::size_t micro_batch = 2;
  int num_microbatches = 4;
  pipeline::ScheduleKind schedule = pipeline::ScheduleKind::ZbH1;
  /// Reference GPU for synthetic (deployment-less) runs.  With a
  /// deployment, every stage is priced on the GPU actually hosting it and
  /// this field is ignored.
  hw::GpuSpec gpu = hw::GpuSpec::h100_sxm5();
  comm::CostModelConfig net{};
  /// Where the training run actually lives: topology + DP×PP grid
  /// placement + per-rank hardware, consumed by every cost surface —
  /// boundary activation sends and layer migrations are priced over the
  /// links the hosting ranks share, per-stage compute on each stage's own
  /// GPU, balancing is capacity-weighted, re-packing prefers vacating
  /// whole nodes, and the deployment's node membership drives hierarchical
  /// collective pricing.  The deployment must cover exactly
  /// `pipeline_stages` stages; a grid deployment
  /// (Deployment::data_parallel() > 1) must also match `data_parallel`,
  /// and then each stage's gradient allreduce is priced over its actual
  /// DP peer group (Deployment::dp_group) while layer migrations are
  /// mirrored across every replica.  A dp = 1 deployment with
  /// `data_parallel` > 1 prices the DP exchange synthetically (replicas
  /// tiled over `net.gpus_per_node`-sized nodes), as do deployment-less
  /// runs (stage s is rank s, `gpu` everywhere, `net`'s flat two-tier
  /// rule).
  std::optional<cluster::Deployment> deployment;

  BalancingMode mode = BalancingMode::DynMo;
  balance::Algorithm algorithm = balance::Algorithm::Diffusion;
  balance::BalanceBy balance_by = balance::BalanceBy::Time;
  /// 0 → the engine's recommended cadence.
  std::int64_t rebalance_interval = 0;
  /// Bottleneck hysteresis: keep the current map unless a candidate
  /// improves the capacity-normalized projected bottleneck by at least
  /// this fraction (balance::RebalanceConfig::min_bottleneck_gain).
  double min_bottleneck_gain = 0.02;
  /// Payoff-window map acceptance (docs/COST_MODEL.md): a candidate
  /// placement must recoup its exposed migration cost — priced over the
  /// deployment's links, mirrored across all DP replicas, discounted by
  /// `migration_overlap` at every-iteration cadences — within this many
  /// iterations of projected bottleneck gain, or the rebalance keeps the
  /// current map (counted in SessionResult::maps_rejected_payoff, the
  /// avoided traffic in migration_bytes_avoided).  The same window gates
  /// re-packing: a pack must free enough GPU-time within the window to
  /// cover the transfer stall.  0 → bottleneck-only hysteresis (the
  /// pre-payoff behavior).
  double payoff_window_iters = 0.0;
  /// Route rebalance decisions through the incremental cost surface
  /// (balance::RebalanceConfig::incremental): cached per-stage terms plus
  /// an indexed max replace the O(stages) rescans at each decision point.
  /// Contract: decisions, bottlenecks, priced costs and telemetry are
  /// bit-identical either way (tests/test_incremental_cost.cpp proves it),
  /// so this is a pure performance switch and is deliberately *not*
  /// recorded in the telemetry catalog — traces from both paths must stay
  /// byte-equal (tools/check_golden_trace.sh gates it).
  bool incremental_decisions = true;
  /// Two-level balancer knobs for Algorithm::HierarchicalDiffusion.  When
  /// its payoff fields are left at their defaults, the session fills them
  /// in from `payoff_window_iters` (time balancing only — the hier gain is
  /// in weight units) and multiplies the cost by `data_parallel`.
  cluster::HierConfig hier{};

  bool repack = false;
  /// ThroughputPreserving — release only workers whose load fits into the
  ///   remaining ones without raising the current bottleneck (paper §3.4's
  ///   "without sacrificing training throughput"; used in Fig. 3).
  /// MemoryFirstFit — the paper's Algorithm 2: consolidate as far as memory
  ///   capacity allows, accepting slower iterations (Fig. 4 sweeps).
  enum class RepackPolicy { ThroughputPreserving, MemoryFirstFit };
  RepackPolicy repack_policy = RepackPolicy::ThroughputPreserving;
  /// 0 → policy decides (on a `deployment`, snapped up to a node boundary
  /// by repack::node_aligned_workers); otherwise pack to exactly this many
  /// workers (Fig. 4 sweeps 8/6/4/2).
  int repack_target_workers = 0;
  std::int64_t repack_interval = 1000;

  /// Elastic lifecycle (docs/RUNTIME.md): with `elastic.enabled`, a
  /// runtime::ElasticController decides shrink / hold / expand against the
  /// (mock) ECK control plane at every `elastic.interval` that lands on a
  /// rebalance point, and the session executes the transition as a
  /// checkpoint-coordinated restart — serialize a Checkpoint, re-pack /
  /// reshard the stage map onto the new worker count, charge the modeled
  /// restart stall (checkpoint write + communicator re-creation + shard
  /// reload, docs/COST_MODEL.md "Restart-stall pricing"), and resume.
  /// Unlike `repack`, the footprint can also *grow* back when freed
  /// capacity reappears and the projected bottleneck gain passes the
  /// migration payoff rule.  Mutually exclusive with `repack` (the elastic
  /// path subsumes it); `elastic.payoff_window_iters <= 0` inherits
  /// `payoff_window_iters`.
  ElasticConfig elastic{};

  /// Workers the session actually *starts* on; 0 → `pipeline_stages`.
  /// A fleet job admitted below its ceiling begins on a packed map over
  /// this many workers and grows into capacity other jobs free through the
  /// normal elastic expand path — so a value below `pipeline_stages`
  /// requires `elastic.enabled` (and the controller's baseline claim is
  /// this count, not the ceiling).  The cost surfaces stay sized to
  /// `pipeline_stages`, exactly as after a voluntary shrink.
  int initial_active_workers = 0;

  std::int64_t iterations = 1000;
  /// Simulate every `sim_stride`-th iteration and extrapolate (the paper's
  /// 10k-iteration runs are steady-state; stride must divide the dynamism
  /// cadence to not skip dynamism points).
  std::int64_t sim_stride = 1;

  /// Fraction of layer-migration time hidden under backward compute when
  /// rebalancing every iteration (the paper couples migration with the
  /// gradient flow, §3.3.1 / §4.2.1); infrequent rebalances (pruning,
  /// freezing) run migrations in the open but are rare enough not to
  /// matter.
  double migration_overlap = 0.85;

  std::uint64_t seed = 0x5eed;

  /// Fault & straggler injection (docs/FAULT.md).  A non-empty plan is
  /// compiled by a fault::Injector on an Rng::fork()'d substream — the
  /// event schedule is a pure function of (plan, seed, initial workers)
  /// and never perturbs the session's measurement-noise stream.  Worker
  /// losses are recovered as an involuntary checkpoint-coordinated shrink
  /// onto the surviving prefix, priced as the restart stall *plus the
  /// work lost since the last checkpoint* — so they require
  /// `elastic.enabled` (the release PATCHes the control plane like any
  /// shrink).  Stragglers degrade the affected stage's capacity at
  /// rebalance points (the balancers route around them) and stretch its
  /// simulated compute for as long as the window lasts; they work in any
  /// mode.  A loss the survivors cannot absorb (below elastic.min_workers
  /// or memory-infeasible) fails the run: done() turns true and
  /// SessionResult::failed is set.
  fault::FaultPlan fault{};
  /// Periodic checkpoint cadence in iterations (0 → no periodic
  /// checkpoints; a worker loss then rolls back to the last restart, or to
  /// iteration 0).  Each checkpoint charges the busiest shard's write at
  /// `elastic.checkpoint_bw` into the clock (docs/COST_MODEL.md
  /// "Checkpoint-cadence pricing") — the knob bench_fault sweeps against
  /// MTBF for the classic sqrt-of-MTBF optimum.  Must be a multiple of
  /// sim_stride.
  std::int64_t checkpoint_interval_iters = 0;

  /// Structured trace emission (docs/TELEMETRY.md): set `telemetry.dir` to
  /// stream every simulated iteration's per-stage loads, every rebalance
  /// decision, every migration, and every elastic transition to a queryable
  /// trace directory (catalog.json + one JSONL file per table).  Default —
  /// an empty dir — disables emission entirely and costs nothing: the
  /// session takes the exact same decisions with and without a trace
  /// attached (the simulated clock never sees the writer).
  telemetry::TelemetryConfig telemetry{};
};

struct IterationSample {
  std::int64_t iter = 0;
  double time_s = 0.0;
  double idleness = 0.0;
  double bubble_ratio = 0.0;
  int active_workers = 0;
  double compute_fraction = 1.0;
  /// A rebalance point fired at this iteration (the map may still be
  /// unchanged — see the decision counters for what happened to it).
  bool rebalanced = false;
  /// One-off stall charged at this iteration on top of `time_s`:
  /// rebalance/migration overhead, re-pack transfers, restart stalls.
  double stall_s = 0.0;

  bool operator==(const IterationSample&) const = default;
};

/// Every field is modeled: two runs of one (scenario, seed) compare equal.
struct SessionResult {
  double total_time_s = 0.0;
  double tokens_per_sec = 0.0;        ///< aggregate over DP replicas
  double avg_idleness = 0.0;          ///< paper Fig. 1 metric
  double avg_bubble_ratio = 0.0;
  double avg_active_workers = 0.0;    ///< paper Fig. 4 metric
  double peak_stage_memory = 0.0;
  bool oom = false;                   ///< some stage exceeded GPU memory
  int rebalance_count = 0;
  int repack_count = 0;
  /// Migration traffic split by node boundary (deployment runs only;
  /// mirrored over every DP replica on a grid deployment) — inter-node
  /// bytes are the expensive fabric traffic hierarchical balancing exists
  /// to minimize.
  double intra_node_migration_bytes = 0.0;
  double inter_node_migration_bytes = 0.0;
  /// Gradient-allreduce wire traffic over the whole run, split by node
  /// boundary (data_parallel > 1 only).  Grid deployments price each
  /// stage's DP peer group; DpInner orientations keep this traffic on
  /// intra-node links, PpInner pushes it across the fabric.
  double intra_node_dp_bytes = 0.0;
  double inter_node_dp_bytes = 0.0;
  /// Map-acceptance accounting: rebalance events whose candidate map was
  /// adopted with a non-empty migration, vs. rejected by the bottleneck
  /// hysteresis or the payoff window (re-packs the window refused count as
  /// payoff rejections too).  `migration_bytes_avoided` is the transfer
  /// traffic the rejections skipped, counted in *every* run — the
  /// acceptance rule needs no topology — and mirrored across all replicas
  /// of a grid deployment; the issued-byte counters above additionally
  /// need a deployment for the node-boundary classification and stay 0
  /// without one.
  int maps_accepted = 0;
  int maps_rejected_bottleneck = 0;
  int maps_rejected_payoff = 0;
  double migration_bytes_avoided = 0.0;
  /// Elastic lifecycle accounting (SessionConfig::elastic).  Restarts move
  /// no migration bytes — weights arrive via checkpoint reload — so their
  /// cost shows up here as stall seconds, not in the byte counters; payoff
  /// rejections of wanted transitions count in maps_rejected_payoff.
  int expands = 0;
  int shrinks = 0;
  /// Externally-initiated (fleet::Arbiter preemption) shrinks executed via
  /// request_shrink() — same checkpoint-coordinated path, counted apart
  /// from the voluntary `shrinks` the controller chose itself.
  int forced_shrinks = 0;
  /// Fault-injection accounting (SessionConfig::fault, docs/FAULT.md).
  /// Worker-loss recoveries charge into restart_stall_s like any other
  /// restart, with the lost-work share additionally broken out in
  /// lost_work_s; periodic checkpoint writes are *not* stall (they are the
  /// steady-state premium the cadence pays) and accumulate separately.
  int worker_losses = 0;
  int straggler_events = 0;  ///< onset + recovery events fired
  double lost_work_s = 0.0;  ///< re-done compute since the last checkpoint
  double checkpoint_write_s = 0.0;  ///< periodic checkpoint-write cost
  int checkpoints_written = 0;
  /// An unrecoverable worker loss ended the run early (survivors below
  /// elastic.min_workers or memory-infeasible); throughput metrics then
  /// cover the iterations actually completed.
  bool failed = false;
  double restart_stall_s = 0.0;       ///< total stall charged to the clock
  /// GPU-hours not spent versus never shrinking, over all DP replicas:
  /// Σ (initial_workers − active) · dp · dt.  Accumulated for elastic *and*
  /// plain re-pack runs.
  double gpu_hours_saved = 0.0;
  balance::OverheadBreakdown overhead;       ///< DynMo's own total overhead
  double baseline_overhead_s = 0.0;          ///< e.g. Egeria's bookkeeping
  double overhead_fraction = 0.0;            ///< overhead / total time
  pipeline::StageMap final_map;
  std::vector<IterationSample> samples;

  bool operator==(const SessionResult&) const = default;
};

/// Priced preview of an externally-initiated elastic transition: what a
/// checkpoint-coordinated restart onto `workers_after` would stall, and
/// the iteration time the session projects on each side.  The
/// fleet::Arbiter quotes both sides of a preemption with these before
/// forcing anything (docs/FLEET.md "Preemption pricing").
struct TransitionQuote {
  bool feasible = false;
  int workers_before = 0;
  int workers_after = 0;
  /// Modeled restart stall of the transition (docs/COST_MODEL.md
  /// "Restart-stall pricing").
  double restart_stall_s = 0.0;
  /// Projected iteration seconds on today's map (bottleneck stage times
  /// the microbatch count — wall-clock currency, not the balancers'
  /// per-microbatch one).
  double iter_s_before = 0.0;
  /// Projected iteration seconds on the balanced map at `workers_after`.
  double iter_s_after = 0.0;
};

class TrainingSession {
 public:
  /// `engine` may be null (fully static model, e.g. the dense-attention or
  /// no-early-exit baselines).  The session owns neither the model nor the
  /// engine.
  TrainingSession(const model::ModelDesc& model, SessionConfig cfg,
                  dynamic::DynamismEngine* engine);
  ~TrainingSession();

  SessionResult run();

  // --- stepping API ------------------------------------------------------
  // run() is exactly start(); while (!done()) step(); finish() — the fleet
  // arbiter (docs/FLEET.md) interleaves N sessions by driving each one a
  // sim_stride window at a time under its event clock, injecting
  // request_shrink() between windows when a preemption fires.

  /// Materialize the run state (initial map, rebalancer, controller —
  /// including the baseline GPU claim against `elastic.cluster`).
  void start();
  bool started() const { return run_ != nullptr; }
  bool done() const;
  /// Simulate the next sim_stride window; returns the wall-clock seconds
  /// it covered (iteration time × stride + one-off event stalls).
  double step();
  /// Finalize telemetry and aggregate the result; only valid once done().
  SessionResult finish();
  std::int64_t current_iter() const;
  /// Workers the session currently runs on (between start() and finish()).
  int active_workers() const;

  /// Queue an externally-initiated shrink to `target_workers`, executed at
  /// the start of the next step() through the session's one checkpoint-
  /// coordinated restart — the path elastic shrink/expand and worker-loss
  /// recovery take too (serialize → re-pack → reshard → stall → polish
  /// rebalance, docs/RUNTIME.md); counted in SessionResult::forced_shrinks
  /// and traced as an elastic_transitions row with kind "preempt".
  /// Requires elastic.enabled; `target_workers` must respect
  /// elastic.min_workers; at or above the current footprint it is a no-op.
  void request_shrink(int target_workers);

  /// Price a shrink/expand to `target_workers` on the current state
  /// without executing anything (const — repeated quotes are free).
  TransitionQuote quote_shrink(int target_workers) const;
  TransitionQuote quote_expand(int target_workers) const;

  /// Tokens processed per iteration across all DP replicas.
  double tokens_per_iteration() const;

 private:
  struct DpAllreduceCost {
    double exposed_s = 0.0;    ///< slowest stage group, minus the overlap
    double intra_bytes = 0.0;  ///< wire bytes inside nodes, all stages
    double inter_bytes = 0.0;  ///< wire bytes across the fabric, all stages
  };

  std::int64_t effective_rebalance_interval() const;
  /// Per-iteration gradient allreduce: every stage's DP peer group runs
  /// concurrently, so the slowest group gates; bytes are summed over all
  /// stages.  Grid deployments use Deployment::dp_group(stage), everything
  /// else the synthetic replica tiling (groups precomputed in dp_groups_).
  DpAllreduceCost dp_allreduce_cost(
      const pipeline::StageMap& map,
      std::span<const model::LayerState> states) const;
  /// Synthetic DP peer group of a stage: replica pipelines tiled rank
  /// s → d * pipeline_stages + s over cfg.net.gpus_per_node-sized nodes.
  comm::RankGroup synthetic_dp_group(int stage) const;
  void apply_tutel_mitigation(std::span<model::LayerState> states) const;
  /// Device memory of the GPU hosting a stage (min across DP replicas on
  /// a grid; cfg.gpu when synthetic).
  double stage_mem_capacity(int stage) const;
  int resolved_initial_workers() const;
  balance::Rebalancer make_rebalancer(int stages) const;
  void emit_migration_rows(std::int64_t iter, const char* trigger,
                           const balance::MigrationPlan& plan);
  void record_migration_split(const balance::MigrationPlan& plan,
                              double scale);
  void account_outcome(const balance::RebalanceOutcome& outcome, double scale,
                       std::int64_t iter, const char* trigger);
  /// Right after a pack or restart: rebuild the rebalancer over the new
  /// worker count, rebalance on `profile` and adopt the result; profiling
  /// is not re-charged.
  void polish(const balance::LayerProfile& profile, const char* trigger,
              double& event_time);
  /// The checkpoint-coordinated restart every trigger shares (elastic
  /// shrink/expand, preemption, worker loss — docs/RUNTIME.md): round-trip
  /// the state through a serialized Checkpoint, resume on `packed` over
  /// `workers`, charge `charged_s` of stall, then polish on
  /// `polish_profile`.
  void restart_onto(const pipeline::StageMap& packed, int workers,
                    double charged_s,
                    const balance::LayerProfile& polish_profile,
                    double& event_time, double& iter_restart_stall);
  /// Price and commit an involuntary release onto `packed` over `target`
  /// workers (preemption, worker loss).
  ElasticDecision commit_release(int target, const pipeline::StageMap& packed,
                                 std::span<const double> mem);
  /// Noise-free profile of the given per-layer seconds and memory.
  balance::LayerProfile raw_profile(std::span<const double> layer_seconds,
                                    std::span<const double> mem) const;
  /// Contiguous re-pack of layers with memory `mem` onto `target` workers
  /// (0 → as few as memory allows) as a map over `stages` stages: a
  /// restart reshards onto exactly `target`, the periodic re-pack keeps
  /// the running count with the released stages left empty.
  repack::ContiguousRepackResult pack(std::span<const double> mem, int target,
                                      int stages) const;
  /// One elastic_transitions row at the current iteration and footprint.
  void emit_transition(const char* kind, bool accepted,
                       const ElasticDecision& d, double migrated_bytes = 0.0);
  /// quote_shrink / quote_expand: one pricing path for both directions.
  TransitionQuote quote(int target_workers, bool expand) const;
  /// Execute a queued request_shrink() (no-op without one); stall and
  /// polish overhead are charged into the current step's accumulators.
  void execute_forced_shrink(double& event_time, double& iter_restart_stall);
  /// Recover from an injected loss of `victim`: involuntary shrink onto
  /// the surviving prefix, priced as restart stall + lost work since the
  /// last checkpoint.  Marks the run failed when the survivors cannot
  /// absorb the model.
  void execute_worker_loss(int victim, double& event_time,
                           double& iter_restart_stall);
  /// Refresh rb_cfg.capacities from the injector's straggler multipliers
  /// at `iter` (rebuilding the rebalancer only when the effective
  /// capacities changed).
  void refresh_capacities(std::int64_t iter);
  /// Busiest-shard periodic checkpoint write at elastic.checkpoint_bw.
  double checkpoint_write_seconds(const pipeline::StageMap& map,
                                  std::span<const double> state_bytes) const;

  const model::ModelDesc* model_;
  SessionConfig cfg_;
  dynamic::DynamismEngine* engine_;
  std::optional<cluster::Deployment> deployment_;
  model::StageCostModels stage_costs_;
  comm::CostModel net_;
  pipeline::CostBuilder builder_;
  /// Per-stage DP peer groups (data_parallel > 1 only) — the deployment
  /// and the synthetic tiling are both immutable, so the node grouping is
  /// computed once here, not per simulated iteration.
  std::vector<comm::RankGroup> dp_groups_;
  /// Live run state between start() and finish() (defined in session.cpp;
  /// run() keeps its exact pre-stepping behavior by looping over it).
  struct Run;
  std::unique_ptr<Run> run_;
};

}  // namespace dynmo::runtime
