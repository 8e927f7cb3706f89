#include "runtime/session.hpp"

#include <algorithm>
#include <cmath>

#include "balance/partition.hpp"
#include "cluster/hier_balancer.hpp"
#include "core/error.hpp"
#include "core/log.hpp"
#include "core/rng.hpp"
#include "core/stats.hpp"
#include "dynamic/freezing.hpp"
#include "fault/injector.hpp"
#include "runtime/checkpoint.hpp"

namespace dynmo::runtime {

namespace {

/// Fraction of the DP gradient allreduce hidden under backward compute.
constexpr double kDpOverlap = 0.7;

/// Validate the session's Deployment against the configured DP×PP shape.
std::optional<cluster::Deployment> resolve_deployment(
    const SessionConfig& cfg) {
  DYNMO_CHECK(cfg.pipeline_stages > 0, "need at least one stage");
  DYNMO_CHECK(cfg.data_parallel > 0, "need at least one DP replica");
  if (!cfg.deployment) return std::nullopt;
  DYNMO_CHECK(cfg.deployment->num_stages() == cfg.pipeline_stages,
              "deployment covers " << cfg.deployment->num_stages()
                                   << " stages, pipeline needs "
                                   << cfg.pipeline_stages);
  // A dp = 1 deployment under data_parallel > 1 is allowed (the DP
  // exchange falls back to the synthetic tiling); an actual grid must
  // match the session's DP width exactly.
  DYNMO_CHECK(cfg.deployment->data_parallel() == 1 ||
                  cfg.deployment->data_parallel() == cfg.data_parallel,
              "deployment grid has " << cfg.deployment->data_parallel()
                                     << " DP replicas, session runs "
                                     << cfg.data_parallel);
  return cfg.deployment;
}

/// Per-stage cost models: each stage priced on its own GPU, balancer
/// weights on the fastest stage GPU (capacities normalize against it).
model::StageCostModels make_stage_costs(
    const SessionConfig& cfg,
    const std::optional<cluster::Deployment>& dep) {
  if (!dep) return model::LayerCostModel(cfg.gpu);
  std::vector<hw::GpuSpec> gpus;
  gpus.reserve(static_cast<std::size_t>(dep->num_stages()));
  int fastest = 0;
  for (int s = 0; s < dep->num_stages(); ++s) {
    gpus.push_back(dep->gpu(s));
    if (dep->topology().relative_speed(dep->rank(s)) >
        dep->topology().relative_speed(dep->rank(fastest))) {
      fastest = s;
    }
  }
  return model::StageCostModels(
      model::LayerCostModel(gpus[static_cast<std::size_t>(fastest)]), gpus);
}

pipeline::CostBuilderConfig make_builder_config(
    const SessionConfig& cfg,
    const std::optional<cluster::Deployment>& dep) {
  pipeline::CostBuilderConfig bc;
  bc.micro_batch = cfg.micro_batch;
  bc.num_microbatches = cfg.num_microbatches;
  if (dep) {
    bc.stage_to_rank.assign(dep->stage_to_rank().begin(),
                            dep->stage_to_rank().end());
  }
  return bc;
}

/// Load of the busiest stage when `map` sums `per_layer` (0 for no stages).
double bottleneck(const pipeline::StageMap& map,
                  std::span<const double> per_layer) {
  const auto loads = map.stage_loads(per_layer);
  return loads.empty() ? 0.0 : *std::max_element(loads.begin(), loads.end());
}

/// Per-iteration layer seconds: a stage processes every microbatch, while
/// the balancers' profile is in per-microbatch currency.  Restart stalls
/// are wall-clock seconds, so they weigh against these.
std::vector<double> per_iteration(std::vector<double> layer_s,
                                  int microbatches) {
  for (double& x : layer_s) x *= static_cast<double>(microbatches);
  return layer_s;
}

}  // namespace

const char* to_string(BalancingMode m) {
  switch (m) {
    case BalancingMode::StaticUniform: return "static_megatron";
    case BalancingMode::StaticParam: return "static_deepspeed";
    case BalancingMode::Egeria: return "egeria";
    case BalancingMode::Tutel: return "tutel";
    case BalancingMode::DynMo: return "dynmo";
  }
  return "?";
}

/// Everything run() used to keep as loop locals, so the session can be
/// advanced one sim_stride window at a time (the fleet arbiter interleaves
/// N sessions this way).  run() loops over the same state, so a solo run
/// behaves exactly as before the stepping split.
struct TrainingSession::Run {
  std::vector<model::LayerState> states;
  pipeline::StageMap map;
  int active = 0;
  int initial_workers = 0;  ///< gpu_hours_saved baseline (W0)
  std::int64_t interval = 0;
  double mem_capacity = 0.0;
  double replica_mirror = 1.0;
  balance::RebalanceConfig rb_cfg;
  std::optional<balance::Rebalancer> rebalancer;
  std::optional<telemetry::TraceWriter> trace;
  std::optional<ElasticController> elastic;
  std::optional<fault::Injector> injector;
  /// Healthy per-stage capacities (S0-sized; empty → uniform) — the base
  /// straggler degradation multiplies into at rebalance points.
  std::vector<double> base_capacities;
  bool capacities_degraded = false;
  std::int64_t last_ckpt_iter = 0;  ///< iteration of the newest checkpoint
  double since_ckpt_s = 0.0;  ///< compute seconds a loss would re-do
  bool failed = false;        ///< unrecoverable loss; done() turns true
  Rng noise_rng;
  SessionResult res;
  RunningStats idleness_stats;
  RunningStats bubble_stats;
  RunningStats workers_stats;
  std::int64_t iter = 0;
  int pending_shrink = 0;  ///< request_shrink() target; 0 → none queued
};

TrainingSession::TrainingSession(const model::ModelDesc& model,
                                 SessionConfig cfg,
                                 dynamic::DynamismEngine* engine)
    : model_(&model), cfg_(cfg), engine_(engine),
      deployment_(resolve_deployment(cfg)),
      stage_costs_(make_stage_costs(cfg, deployment_)),
      net_(deployment_ ? deployment_->make_cost_model(cfg.net)
                       : comm::CostModel(cfg.net)),
      builder_(model, stage_costs_, net_,
               make_builder_config(cfg, deployment_)) {
  DYNMO_CHECK(cfg.iterations > 0, "need at least one iteration");
  DYNMO_CHECK(cfg.sim_stride > 0, "stride must be positive");
  DYNMO_CHECK(cfg.mode != BalancingMode::DynMo ||
                  cfg.algorithm != balance::Algorithm::HierarchicalDiffusion ||
                  deployment_,
              "HierarchicalDiffusion needs a deployment (or topology)");
  DYNMO_CHECK(static_cast<std::size_t>(cfg.pipeline_stages) <=
                  model.num_layers(),
              "more stages than layers");
  DYNMO_CHECK(!(cfg.repack && cfg.elastic.enabled),
              "repack and elastic are mutually exclusive (elastic subsumes "
              "re-packing and adds the expand path)");
  DYNMO_CHECK(!cfg.elastic.enabled || cfg.mode == BalancingMode::DynMo,
              "elastic decisions consume the rebalance-point profile and "
              "need mode == DynMo");
  DYNMO_CHECK(cfg.elastic.max_workers == 0 ||
                  cfg.elastic.max_workers == cfg.pipeline_stages,
              "the session's cost surfaces are sized to pipeline_stages; "
              "elastic.max_workers must stay 0 (or equal)");
  DYNMO_CHECK(cfg.initial_active_workers >= 0 &&
                  cfg.initial_active_workers <= cfg.pipeline_stages,
              "initial_active_workers " << cfg.initial_active_workers
                                        << " outside [0, "
                                        << cfg.pipeline_stages << "]");
  DYNMO_CHECK(cfg.initial_active_workers == 0 ||
                  cfg.initial_active_workers == cfg.pipeline_stages ||
                  cfg.elastic.enabled,
              "a session starting below pipeline_stages needs "
              "elastic.enabled to grow back");
  if (cfg.elastic.enabled) {
    // The elastic step consumes the rebalance-point profile, so its
    // cadence must land on simulated rebalance points — otherwise the
    // controller would silently never (or rarely) fire.
    const std::int64_t cadence = effective_rebalance_interval();
    DYNMO_CHECK(cadence > 0,
                "elastic needs a rebalance cadence (set rebalance_interval "
                "or use an engine with a recommended one)");
    DYNMO_CHECK(cfg.elastic.interval > 0 &&
                    cfg.elastic.interval % cadence == 0 &&
                    cfg.elastic.interval % cfg.sim_stride == 0,
                "elastic.interval " << cfg.elastic.interval
                                    << " must be a positive multiple of the "
                                    << "rebalance interval (" << cadence
                                    << ") and sim_stride ("
                                    << cfg.sim_stride << ")");
  }
  DYNMO_CHECK(cfg.checkpoint_interval_iters >= 0 &&
                  cfg.checkpoint_interval_iters % cfg.sim_stride == 0,
              "checkpoint_interval_iters must be a non-negative multiple of "
              "sim_stride");
  DYNMO_CHECK((cfg.fault.losses.empty() && !(cfg.fault.mtbf_iters > 0.0)) ||
                  cfg.elastic.enabled,
              "worker-loss injection recovers through the elastic shrink "
              "path; the fault plan's losses/mtbf need elastic.enabled "
              "(straggler-only plans work anywhere)");
  if (cfg_.data_parallel > 1) {
    const bool grid = deployment_ && deployment_->data_parallel() > 1;
    dp_groups_.reserve(static_cast<std::size_t>(cfg_.pipeline_stages));
    for (int s = 0; s < cfg_.pipeline_stages; ++s) {
      dp_groups_.push_back(grid ? deployment_->dp_group(s)
                                : synthetic_dp_group(s));
    }
  }
}

TrainingSession::~TrainingSession() = default;

double TrainingSession::stage_mem_capacity(int stage) const {
  if (!deployment_) return cfg_.gpu.mem_capacity;
  // A stage's layers live on every replica; the smallest hosting GPU gates.
  double cap = deployment_->gpu(stage).mem_capacity;
  for (int d = 1; d < deployment_->data_parallel(); ++d) {
    cap = std::min(cap, deployment_->gpu(d, stage).mem_capacity);
  }
  return cap;
}

double TrainingSession::tokens_per_iteration() const {
  const std::size_t seq = model_->layers.front().seq_len;
  return static_cast<double>(cfg_.micro_batch) *
         static_cast<double>(cfg_.num_microbatches) *
         static_cast<double>(seq) * static_cast<double>(cfg_.data_parallel);
}

std::int64_t TrainingSession::effective_rebalance_interval() const {
  if (cfg_.rebalance_interval > 0) return cfg_.rebalance_interval;
  if (engine_ != nullptr) return engine_->recommended_rebalance_interval();
  return 0;
}

int TrainingSession::resolved_initial_workers() const {
  return cfg_.initial_active_workers > 0 ? cfg_.initial_active_workers
                                         : cfg_.pipeline_stages;
}

comm::RankGroup TrainingSession::synthetic_dp_group(int stage) const {
  // Without a grid deployment, replica pipelines are assumed tiled
  // linearly over the cluster: replica d's stage s sits at global rank
  // d * pipeline_stages + s, nodes hold cfg.net.gpus_per_node ranks.  DP
  // peers that land inside one node (short pipelines, wide nodes) exchange
  // over the intra tier; only the rest crosses the fabric.
  const int g = std::max(1, cfg_.net.gpus_per_node);
  comm::RankGroup group;
  group.intra = net_.params(comm::LinkTier::NvLink);
  group.inter = net_.params(comm::LinkTier::InfiniBand);
  int run = 0;       // peers accumulated on the current node
  int prev_node = -1;
  for (int d = 0; d < cfg_.data_parallel; ++d) {
    const int node = (d * cfg_.pipeline_stages + stage) / g;
    if (node == prev_node) {
      ++run;
    } else {
      if (run > 0) group.node_sizes.push_back(run);
      run = 1;
      prev_node = node;
    }
  }
  if (run > 0) group.node_sizes.push_back(run);
  return group;
}

TrainingSession::DpAllreduceCost TrainingSession::dp_allreduce_cost(
    const pipeline::StageMap& map,
    std::span<const model::LayerState> states) const {
  DpAllreduceCost cost;
  if (cfg_.data_parallel <= 1) return cost;
  // Every stage's DP peer group reduces its own gradients concurrently on
  // disjoint ranks, so the slowest group gates the iteration; frozen
  // layers drop out of the exchange entirely (Egeria semantics).
  double worst_s = 0.0;
  for (int s = 0; s < map.num_stages(); ++s) {
    double bytes = 0.0;
    for (std::size_t l = map.stage_begin(s); l < map.stage_end(s); ++l) {
      if (states[l].frozen) continue;
      bytes += static_cast<double>(model_->layers[l].params) * 2.0 *
               std::clamp(states[l].weight_density, 0.0, 1.0);
    }
    if (bytes <= 0.0) continue;
    const comm::RankGroup& group = dp_groups_[static_cast<std::size_t>(s)];
    const auto payload = static_cast<std::size_t>(bytes);
    worst_s = std::max(worst_s, net_.allreduce_time(group, payload));
    const auto split = comm::allreduce_bytes(group, payload);
    cost.intra_bytes += split.intra_node;
    cost.inter_bytes += split.inter_node;
  }
  cost.exposed_s = worst_s * (1.0 - kDpOverlap);
  return cost;
}

void TrainingSession::apply_tutel_mitigation(
    std::span<model::LayerState> states) const {
  // Tutel's adaptive parallelism + 2D all_to_all remove part of the routing
  // hotspot without moving layers: it reclaims roughly half of the skew
  // (emulation; Hwang et al. report similar bubble reductions).
  constexpr double kSkewRetained = 0.55;
  for (auto& s : states) {
    s.moe_load = 1.0 + (s.moe_load - 1.0) * kSkewRetained;
    s.token_fraction = 1.0 + (s.token_fraction - 1.0) * kSkewRetained;
  }
}

balance::Rebalancer TrainingSession::make_rebalancer(int stages) const {
  // Re-packing shrinks the pipeline to its leading stages, so the
  // per-stage vectors are truncated to the surviving count (a fresh
  // orchestrator is cheap — the cost model is shared state).
  balance::RebalanceConfig c = run_->rb_cfg;
  if (!c.stage_to_rank.empty()) {
    c.stage_to_rank.resize(static_cast<std::size_t>(stages));
  }
  if (!c.capacities.empty()) {
    c.capacities.resize(static_cast<std::size_t>(stages));
  }
  return balance::Rebalancer(c, net_);
}

void TrainingSession::emit_migration_rows(std::int64_t iter,
                                          const char* trigger,
                                          const balance::MigrationPlan& plan) {
  auto& trace = run_->trace;
  if (!trace) return;
  for (const auto& t : plan.transfers) {
    telemetry::MigrationRow row;
    row.iter = iter;
    row.trigger = trigger;
    row.layer = static_cast<std::int64_t>(t.layer);
    row.from_stage = t.src_stage;
    row.to_stage = t.dst_stage;
    row.bytes = t.bytes;
    trace->write(row);
  }
}

void TrainingSession::record_migration_split(
    const balance::MigrationPlan& plan, double scale) {
  if (!deployment_ || plan.empty()) return;
  // A layer move is mirrored in every DP replica (each replica holds the
  // same layers and migrates them between its own stages), and replicas
  // may straddle node boundaries differently — classify each one.
  auto& res = run_->res;
  for (int d = 0; d < deployment_->data_parallel(); ++d) {
    const auto split = cluster::classify_migration(
        plan, deployment_->topology(), deployment_->stage_to_rank(d));
    res.intra_node_migration_bytes += split.intra_node_bytes * scale;
    res.inter_node_migration_bytes += split.inter_node_bytes * scale;
  }
}

// Every rebalance outcome — the periodic one and the post-pack polish —
// flows through the same accounting: issued bytes into the node-split
// counters, the accept/reject decision into the map counters, rejected
// candidates' traffic into migration_bytes_avoided.
void TrainingSession::account_outcome(const balance::RebalanceOutcome& outcome,
                                      double scale, std::int64_t iter,
                                      const char* trigger) {
  auto& R = *run_;
  record_migration_split(outcome.migration, scale);
  switch (outcome.decision) {
    case balance::MapDecision::Accepted:
      if (!outcome.migration.empty()) ++R.res.maps_accepted;
      break;
    case balance::MapDecision::RejectedBottleneck:
      ++R.res.maps_rejected_bottleneck;
      R.res.migration_bytes_avoided +=
          outcome.candidate_bytes * R.replica_mirror * scale;
      break;
    case balance::MapDecision::RejectedPayoff:
      ++R.res.maps_rejected_payoff;
      R.res.migration_bytes_avoided +=
          outcome.candidate_bytes * R.replica_mirror * scale;
      break;
  }
  if (R.trace) {
    telemetry::RebalanceDecisionRow row;
    row.iter = iter;
    row.trigger = trigger;
    row.algorithm = balance::to_string(R.rb_cfg.algorithm);
    row.balance_by = balance::to_string(R.rb_cfg.by);
    row.decision = balance::to_string(outcome.decision);
    row.projected_gain_s = outcome.projected_gain_s;
    row.exposed_cost_s = outcome.exposed_cost_s;
    row.candidate_bytes = outcome.candidate_bytes;
    row.migrated_bytes = outcome.migration.total_bytes();
    row.migrated_layers =
        static_cast<std::int64_t>(outcome.migration.transfers.size());
    row.imbalance_before = outcome.imbalance_before;
    row.imbalance_after = outcome.imbalance_after;
    row.decide_s = outcome.overhead.decide_s;
    R.trace->write(row);
    emit_migration_rows(iter, trigger, outcome.migration);
  }
}

void TrainingSession::polish(const balance::LayerProfile& profile,
                             const char* trigger, double& event_time) {
  auto& R = *run_;
  R.rebalancer.emplace(make_rebalancer(R.active));
  const auto rb = R.rebalancer->rebalance(profile, R.map);
  R.map = rb.map;
  account_outcome(rb, 1.0, R.iter, trigger);
  // A one-off event accounted like any other rebalance, except profiling:
  // the polish reuses a profile that is already paid for.
  balance::OverheadBreakdown overhead = rb.overhead;
  overhead.profile_s = 0.0;
  R.res.overhead += overhead;
  event_time += overhead.total_s();
}

balance::LayerProfile TrainingSession::raw_profile(
    std::span<const double> layer_seconds,
    std::span<const double> mem) const {
  balance::LayerProfile profile;
  profile.time_s.assign(layer_seconds.begin(), layer_seconds.end());
  profile.memory_bytes.assign(mem.begin(), mem.end());
  profile.params.reserve(model_->num_layers());
  for (const auto& l : model_->layers) {
    profile.params.push_back(static_cast<double>(l.params));
  }
  return profile;
}

repack::ContiguousRepackResult TrainingSession::pack(
    std::span<const double> mem, int target, int stages) const {
  repack::ContiguousRepackRequest req;
  req.memory_bytes.assign(mem.begin(), mem.end());
  req.mem_capacity = run_->mem_capacity;
  req.target_workers = target;
  return repack::repack_contiguous(req, stages);
}

void TrainingSession::emit_transition(const char* kind, bool accepted,
                                      const ElasticDecision& d,
                                      double migrated_bytes) {
  auto& R = *run_;
  if (!R.trace) return;
  telemetry::ElasticTransitionRow row;
  row.iter = R.iter;
  row.kind = kind;
  row.accepted = accepted;
  row.workers_before = R.active;
  row.workers_after = d.target_workers;
  row.stall_s = d.restart_stall_s;
  row.alpha_s = d.stall.alpha_s;
  row.bootstrap_s = d.stall.bootstrap_s;
  row.ckpt_write_s = d.stall.ckpt_write_s;
  row.ckpt_read_s = d.stall.ckpt_read_s;
  row.projected_gain_s = d.projected_gain_s;
  row.migrated_bytes = migrated_bytes;
  R.trace->write(row);
}

ElasticDecision TrainingSession::commit_release(
    int target, const pipeline::StageMap& packed,
    std::span<const double> mem) {
  auto& R = *run_;
  ElasticDecision d;
  d.action = ElasticAction::Shrink;
  d.target_workers = target;
  d.stall = R.elastic->restart_stall(R.map, packed, mem);
  d.restart_stall_s = d.stall.total_s();
  // Releases always succeed (ControlPlane contract) — a refusal here means
  // the arbiter and the session disagree about the claim, a real bug.
  DYNMO_CHECK(R.elastic->commit(d), "control plane refused a release");
  return d;
}

void TrainingSession::restart_onto(const pipeline::StageMap& packed,
                                   int workers, double charged_s,
                                   const balance::LayerProfile& polish_profile,
                                   double& event_time,
                                   double& iter_restart_stall) {
  auto& R = *run_;
  // Serialize the training state through the real binary format, swap in
  // the re-packed map over the new worker count, and resume from the
  // restored checkpoint.  Weights arrive via reload, so no migration bytes
  // are issued; the transition is charged as `charged_s` of stall instead.
  Checkpoint ckpt;
  ckpt.iteration = R.iter;
  ckpt.stage_map = R.map;
  ckpt.layer_states.assign(R.states.begin(), R.states.end());
  auto restored = Checkpoint::deserialize(ckpt.serialize());
  R.map = packed;
  R.states = std::move(restored.layer_states);
  R.active = workers;
  event_time += charged_s;
  R.res.restart_stall_s += charged_s;
  iter_restart_stall += charged_s;
  // Resharding "comes for free" on reload (§3.4.2), but the pack is
  // memory-driven: polish with a time rebalance over the new worker count.
  polish(polish_profile, "post_restart", event_time);
}

void TrainingSession::start() {
  DYNMO_CHECK(run_ == nullptr, "session already started");
  run_ = std::make_unique<Run>();
  auto& R = *run_;
  const int S0 = cfg_.pipeline_stages;
  const int W0 = resolved_initial_workers();
  R.initial_workers = W0;
  // Conservative per-worker cap: the smallest stage GPU gates feasibility
  // of maps the balancers and the packer may produce.
  R.mem_capacity =
      deployment_ ? deployment_->min_mem_capacity() : cfg_.gpu.mem_capacity;

  R.states.assign(model_->num_layers(), model::LayerState{});

  // Initial static placement (over the starting footprint — W0 < S0 only
  // under elastic, where the map grows back exactly as after a shrink).
  switch (cfg_.mode) {
    case BalancingMode::StaticParam: {
      std::vector<double> params;
      params.reserve(model_->num_layers());
      for (const auto& l : model_->layers) {
        params.push_back(static_cast<double>(l.params));
      }
      R.map = pipeline::StageMap::greedy_by_weight(params, W0);
      break;
    }
    default:
      R.map = pipeline::StageMap::uniform(model_->num_layers(), W0);
      break;
  }
  R.active = W0;

  R.interval = effective_rebalance_interval();
  // Migration traffic (issued or avoided) is mirrored in every DP replica
  // of a grid deployment — same rule as record_migration_split.
  R.replica_mirror =
      deployment_ ? static_cast<double>(deployment_->data_parallel()) : 1.0;

  balance::RebalanceConfig& rb_cfg = R.rb_cfg;
  rb_cfg.algorithm = cfg_.algorithm;
  rb_cfg.by = cfg_.balance_by;
  rb_cfg.mem_capacity = R.mem_capacity;
  rb_cfg.min_bottleneck_gain = cfg_.min_bottleneck_gain;
  rb_cfg.payoff_window_iters = cfg_.payoff_window_iters;
  rb_cfg.incremental = cfg_.incremental_decisions;
  // Every replica transfers its own copy of a migrated layer and the
  // copies contend for the same links, so the priced cost scales with the
  // DP width; every-iteration cadences hide most of the transfer under
  // backprop (§3.3.1) and only the remainder weighs against the gain.
  rb_cfg.migration_cost_multiplier = static_cast<double>(cfg_.data_parallel);
  if (R.interval == 1) {
    rb_cfg.migration_exposed_fraction =
        1.0 - std::clamp(cfg_.migration_overlap, 0.0, 1.0);
  }
  if (deployment_) {
    // The deployment's placement prices migrations over the ranks they
    // actually connect, and its capacities make heterogeneous stages
    // converge to loads proportional to their GPUs' throughput.
    rb_cfg.stage_to_rank.assign(deployment_->stage_to_rank().begin(),
                                deployment_->stage_to_rank().end());
    rb_cfg.capacities = deployment_->stage_capacities();
    if (cfg_.algorithm == balance::Algorithm::HierarchicalDiffusion) {
      // Inject the two-level balancer (cluster/ sits above balance/, so
      // the orchestrator cannot reach it itself).  Its inter-node payoff
      // gate takes the session window only under time balancing — the
      // hier gain is in weight units, and only seconds compare against
      // migration seconds.
      cluster::HierConfig hier_cfg;
      if (cfg_.balance_by == balance::BalanceBy::Time) {
        hier_cfg.payoff_window_iters = cfg_.payoff_window_iters;
      }
      // Same cost scaling as the flat gate: DP replicas mirror every
      // move, and every-iteration cadences expose only the non-overlapped
      // remainder of the transfer.
      hier_cfg.migration_cost_multiplier =
          static_cast<double>(cfg_.data_parallel);
      if (R.interval == 1) {
        hier_cfg.migration_cost_multiplier *=
            1.0 - std::clamp(cfg_.migration_overlap, 0.0, 1.0);
      }
      rb_cfg.hierarchical_decider =
          [this, hier_cfg](const balance::DiffusionRequest& req,
                           const pipeline::StageMap& current) {
            // Re-packing may have shrunk the pipeline; survivors are
            // always the leading stages, so the placement prefix is
            // their stage_to_rank.
            const auto ranks = deployment_->stage_to_rank().first(
                static_cast<std::size_t>(current.num_stages()));
            auto r = cluster::HierarchicalBalancer(deployment_->topology(),
                                                   hier_cfg)
                         .balance(req, current, ranks);
            balance::DiffusionResult d;
            d.map = std::move(r.map);
            d.rounds = r.rounds;
            return d;
          };
    }
  }
  R.rebalancer.emplace(make_rebalancer(W0));

  // Structured trace emission (docs/TELEMETRY.md).  The writer observes the
  // run and never feeds back into it: every decision below is taken on the
  // same values with or without a trace attached.
  if (cfg_.telemetry.enabled()) {
    telemetry::RunInfo info;
    info.producer = "session";
    info.iterations = cfg_.iterations;
    info.sim_stride = cfg_.sim_stride;
    // Non-DynMo modes never rebalance; recording 0 keeps offline replay of
    // their traces on the static-map path.
    info.rebalance_interval =
        cfg_.mode == BalancingMode::DynMo ? R.interval : 0;
    info.pipeline_stages = cfg_.pipeline_stages;
    info.data_parallel = cfg_.data_parallel;
    info.seed = cfg_.seed;
    info.mode = to_string(cfg_.mode);
    info.algorithm = balance::to_string(cfg_.algorithm);
    info.balance_by = balance::to_string(cfg_.balance_by);
    info.mem_capacity = rb_cfg.mem_capacity;
    info.min_bottleneck_gain = rb_cfg.min_bottleneck_gain;
    info.payoff_window_iters = rb_cfg.payoff_window_iters;
    info.migration_cost_multiplier = rb_cfg.migration_cost_multiplier;
    info.migration_exposed_fraction = rb_cfg.migration_exposed_fraction;
    info.gamma = rb_cfg.gamma;
    info.stage_to_rank = rb_cfg.stage_to_rank;
    info.capacities = rb_cfg.capacities;
    info.layer_params.reserve(model_->num_layers());
    for (const auto& l : model_->layers) {
      info.layer_params.push_back(static_cast<double>(l.params));
    }
    R.trace.emplace(cfg_.telemetry, std::move(info));
  }

  // Elastic lifecycle: the controller decides shrink / hold / expand at
  // re-pack points; the session executes transitions as checkpoint-
  // coordinated restarts (docs/RUNTIME.md "Elastic lifecycle").  The
  // communicator bootstrap of the post-restart group is priced over the
  // surviving/acquired ranks' deployment — a prefix of the placement, since
  // packing releases trailing stages and expansion reclaims them.
  if (cfg_.elastic.enabled) {
    ElasticConfig ec = cfg_.elastic;
    if (ec.payoff_window_iters <= 0.0) {
      ec.payoff_window_iters = cfg_.payoff_window_iters;
    }
    // The ceiling stays the full pipeline even when the job starts below
    // it (W0 < S0): the cost surfaces are sized to S0 and expansion may
    // grow into them.
    ec.max_workers = S0;
    R.elastic.emplace(ec, W0, [this](int workers) {
      if (deployment_) {
        return deployment_->prefix(workers).stage_group().inter;
      }
      return net_.params(comm::LinkTier::InfiniBand);
    });
  }

  // Fault injection (docs/FAULT.md): the injector draws from its own
  // Rng::fork() substream of the session seed, so enabling a plan leaves
  // the measurement-noise stream below bit-identical.
  if (!cfg_.fault.empty()) {
    fault::FaultPlan plan = cfg_.fault;
    if (plan.mtbf_iters > 0.0 && plan.horizon_iters <= 0) {
      plan.horizon_iters = static_cast<int>(cfg_.iterations);
    }
    R.injector.emplace(plan, W0, Rng(cfg_.seed));
  }
  R.base_capacities = rb_cfg.capacities;

  R.noise_rng = Rng(hash_mix(cfg_.seed, 0x7e55));
}

bool TrainingSession::done() const {
  DYNMO_CHECK(run_ != nullptr, "done() before start()");
  return run_->failed || run_->iter >= cfg_.iterations;
}

std::int64_t TrainingSession::current_iter() const {
  DYNMO_CHECK(run_ != nullptr, "current_iter() before start()");
  return run_->iter;
}

int TrainingSession::active_workers() const {
  if (run_ != nullptr) return run_->active;
  return resolved_initial_workers();
}

void TrainingSession::request_shrink(int target_workers) {
  DYNMO_CHECK(run_ != nullptr, "request_shrink() before start()");
  auto& R = *run_;
  DYNMO_CHECK(R.elastic.has_value(),
              "externally-initiated shrink needs elastic.enabled");
  DYNMO_CHECK(target_workers >= R.elastic->min_workers(),
              "forced shrink target " << target_workers
                                      << " below elastic.min_workers "
                                      << R.elastic->min_workers());
  if (target_workers >= R.active) return;  // nothing to release
  R.pending_shrink = target_workers;
}

TransitionQuote TrainingSession::quote(int target_workers, bool expand) const {
  DYNMO_CHECK(run_ != nullptr && run_->elastic.has_value(),
              "quotes need a started session with elastic.enabled");
  const auto& R = *run_;
  TransitionQuote q;
  q.workers_before = R.active;
  q.workers_after = target_workers;
  const auto iter_layer_s = per_iteration(
      builder_.layer_total_seconds(R.states), cfg_.num_microbatches);
  q.iter_s_before = bottleneck(R.map, iter_layer_s);
  const bool in_range =
      expand ? target_workers > R.active &&
                   target_workers <= R.elastic->max_workers()
             : target_workers >= R.elastic->min_workers() &&
                   target_workers < R.active;
  if (!in_range) return q;
  const auto mem = builder_.layer_memory_bytes(R.states, R.map);
  pipeline::StageMap after;
  if (expand) {
    // The post-restart map is the balanced partition at the grown count —
    // exactly what reshard-on-reload produces (ElasticController::decide).
    balance::PartitionRequest preq;
    preq.weights = iter_layer_s;
    preq.num_stages = target_workers;
    after = balance::PartitionBalancer{}.balance(preq).map;
  } else {
    auto rp = pack(mem, target_workers, target_workers);
    if (!rp.feasible) return q;  // the model does not fit that tight
    after = std::move(rp.map);
  }
  q.restart_stall_s = R.elastic->restart_stall_s(R.map, after, mem);
  q.iter_s_after = balance::PartitionBalancer::optimal_bottleneck(
      iter_layer_s, target_workers);
  q.feasible = true;
  return q;
}

TransitionQuote TrainingSession::quote_shrink(int target_workers) const {
  return quote(target_workers, /*expand=*/false);
}

TransitionQuote TrainingSession::quote_expand(int target_workers) const {
  return quote(target_workers, /*expand=*/true);
}

void TrainingSession::execute_forced_shrink(double& event_time,
                                            double& iter_restart_stall) {
  auto& R = *run_;
  const int target = R.pending_shrink;
  R.pending_shrink = 0;
  if (target <= 0 || !R.elastic || target >= R.active) return;
  const auto mem = builder_.layer_memory_bytes(R.states, R.map);
  const auto layer_seconds = builder_.layer_total_seconds(R.states);
  const auto rp = pack(mem, target, target);
  if (!rp.feasible) {
    // quote_shrink would have said so; an arbiter that forces anyway keeps
    // the victim at its current footprint rather than OOM it.
    DYNMO_LOG(Warn) << "forced shrink to " << target
                    << " workers is memory-infeasible; keeping " << R.active;
    return;
  }
  ElasticDecision d = commit_release(target, rp.map, mem);
  d.projected_gain_s = static_cast<double>(R.active - target) *
                       bottleneck(R.map, layer_seconds);
  emit_transition("preempt", true, d);
  ++R.res.forced_shrinks;
  // Polish with a *raw* profile: a preemption fires between rebalance
  // points, and drawing measurement noise here would shift the noise
  // stream every later rebalance consumes — the determinism contract
  // (docs/RUNTIME.md) forbids that.
  restart_onto(rp.map, target, d.restart_stall_s,
               raw_profile(layer_seconds, mem), event_time,
               iter_restart_stall);
}

void TrainingSession::execute_worker_loss(int victim, double& event_time,
                                          double& iter_restart_stall) {
  auto& R = *run_;
  auto& res = R.res;
  const std::int64_t iter = R.iter;
  const int target = R.active - 1;
  const auto mem = builder_.layer_memory_bytes(R.states, R.map);
  const auto layer_seconds = builder_.layer_total_seconds(R.states);
  const double lost_work = R.since_ckpt_s;
  const std::int64_t lost_iters = iter - R.last_ckpt_iter;

  const auto emit_fault_row = [&](int workers_after, const RestartStall& st,
                                  double total_stall) {
    if (!R.trace) return;
    telemetry::FaultEventRow row;
    row.iter = iter;
    row.kind = "worker_loss";
    row.worker = victim;
    row.workers_before = R.active;
    row.workers_after = workers_after;
    row.stall_s = total_stall;
    row.alpha_s = st.alpha_s;
    row.bootstrap_s = st.bootstrap_s;
    row.ckpt_write_s = st.ckpt_write_s;
    row.ckpt_read_s = st.ckpt_read_s;
    row.lost_work_s = lost_work;
    row.lost_iters = lost_iters;
    R.trace->write(row);
  };

  const auto rp = pack(mem, std::max(target, 1), std::max(target, 1));
  if (target < 1 || !R.elastic || target < R.elastic->min_workers() ||
      !rp.feasible) {
    // Unrecoverable: the survivors cannot absorb the model (or none
    // remain).  The run ends here; nothing further is charged to the
    // clock — the wasted GPU-time is the fleet layer's ledger, which gets
    // the failed SessionResult and returns the allocation to the pool.
    DYNMO_LOG(Warn) << "worker " << victim << " lost at iteration " << iter
                    << "; survivors cannot continue — failing the run";
    emit_fault_row(/*workers_after=*/0, RestartStall{}, /*total_stall=*/0.0);
    ++res.worker_losses;
    R.failed = true;
    res.failed = true;
    return;
  }

  // The dead GPU leaves the job's claim; the control plane (pool) owns the
  // repair loop from here.
  const ElasticDecision d = commit_release(target, rp.map, mem);
  const double total = d.restart_stall_s + lost_work;
  emit_fault_row(target, d.stall, total);

  res.lost_work_s += lost_work;
  ++res.worker_losses;
  // The restart writes a fresh checkpoint as part of its stall.
  R.last_ckpt_iter = iter;
  R.since_ckpt_s = 0.0;
  // Recovery is the same checkpoint-coordinated restart a voluntary
  // shrink takes, except the state comes from the *last periodic
  // checkpoint* — everything since is re-done, charged as lost work on
  // top of the restart stall (docs/COST_MODEL.md "Lost-work pricing").
  // The simulated clock prices the redo without rewinding the iteration
  // counter: the dynamism trajectory is deterministic, so re-running
  // [last_ckpt, iter) reproduces the states the session already holds.
  // Raw-profile polish, exactly like a forced shrink: a loss fires
  // between rebalance points and must not shift the noise stream.
  restart_onto(rp.map, target, total, raw_profile(layer_seconds, mem),
               event_time, iter_restart_stall);
}

void TrainingSession::refresh_capacities(std::int64_t iter) {
  auto& R = *run_;
  std::vector<double> caps = R.base_capacities;
  if (caps.empty()) {
    caps.assign(static_cast<std::size_t>(cfg_.pipeline_stages), 1.0);
  }
  bool degraded = false;
  for (int s = 0; s < cfg_.pipeline_stages; ++s) {
    const double m = R.injector->multiplier(s, static_cast<int>(iter));
    if (m != 1.0) {
      caps[static_cast<std::size_t>(s)] *= m;
      degraded = true;
    }
  }
  if (!degraded && !R.capacities_degraded) return;  // healthy, and was
  // Restore the *exact* base vector on full recovery (an all-ones vector
  // is semantically identical but would differ from the fault-free run's
  // config, and determinism comparisons check configs too).
  R.rb_cfg.capacities = degraded ? std::move(caps) : R.base_capacities;
  R.capacities_degraded = degraded;
  R.rebalancer.emplace(make_rebalancer(R.active));
}

double TrainingSession::checkpoint_write_seconds(
    const pipeline::StageMap& map, std::span<const double> state_bytes) const {
  // Every worker writes its shard in parallel; the busiest gates — the
  // same rule ElasticController::restart_stall prices, at the same
  // bandwidth knob (meaningful with or without elastic.enabled).
  return bottleneck(map, state_bytes) / cfg_.elastic.checkpoint_bw;
}

double TrainingSession::step() {
  DYNMO_CHECK(run_ != nullptr, "step() before start()");
  DYNMO_CHECK(!done(), "step() past the configured iterations");
  auto& R = *run_;
  const int S0 = cfg_.pipeline_stages;
  const std::int64_t iter = R.iter;
  auto& states = R.states;
  auto& map = R.map;
  auto& res = R.res;

  // Per-real-iteration compute time (repeated sim_stride times) vs.
  // one-off event time (rebalance decisions, migrations) — the latter is
  // charged per *event*, scaled by how many events the stride window
  // covers.
  double iter_time = 0.0;
  double event_time = 0.0;
  double iter_restart_stall = 0.0;

  // An arbiter-forced shrink executes before the window's dynamism step,
  // on the state the quote priced.
  if (R.pending_shrink > 0) {
    execute_forced_shrink(event_time, iter_restart_stall);
  }

  // Injected faults fire at the window boundary, on the state the last
  // checkpoint could have captured (docs/FAULT.md).
  if (R.injector) {
    std::vector<bool> alive(static_cast<std::size_t>(R.active), true);
    const auto events = R.injector->poll(
        static_cast<int>(iter + cfg_.sim_stride - 1), alive);
    for (const auto& e : events) {
      if (e.kind == fault::EventKind::WorkerLoss) {
        execute_worker_loss(e.worker, event_time, iter_restart_stall);
        if (R.failed) break;
        alive.assign(static_cast<std::size_t>(R.active), true);
      } else {
        ++res.straggler_events;
        if (R.trace) {
          telemetry::FaultEventRow row;
          row.iter = iter;
          row.kind = fault::to_string(e.kind);
          row.worker = e.worker;
          row.multiplier = e.multiplier;
          row.workers_before = R.active;
          row.workers_after = R.active;
          R.trace->write(row);
        }
      }
    }
    if (R.failed) {
      // The run ends mid-window: account what the window charged (the
      // fatal event itself charges nothing) and stop stepping.
      res.total_time_s += event_time;
      return event_time;
    }
  }

  if (engine_ != nullptr) engine_->step(iter, states);
  if (cfg_.mode == BalancingMode::Tutel) apply_tutel_mitigation(states);

  const auto mb_scale =
      engine_ != nullptr ? engine_->microbatch_scale(iter)
                         : pipeline::MicrobatchScaleFn{};

  const double events_per_window =
      (R.interval > 0 && R.interval <= cfg_.sim_stride)
          ? static_cast<double>(cfg_.sim_stride) /
                static_cast<double>(R.interval)
          : 1.0;

  const auto mem = builder_.layer_memory_bytes(states, map);

  // Periodic checkpoint (docs/FAULT.md): cut one at every cadence point
  // and charge the busiest shard's write.  Skipped when a restart already
  // left a fresh checkpoint at this very iteration.
  if (cfg_.checkpoint_interval_iters > 0 && iter > 0 &&
      iter % cfg_.checkpoint_interval_iters == 0 && iter > R.last_ckpt_iter) {
    const double write_s = checkpoint_write_seconds(map, mem);
    event_time += write_s;
    res.checkpoint_write_s += write_s;
    ++res.checkpoints_written;
    R.last_ckpt_iter = iter;
    R.since_ckpt_s = 0.0;
  }

  const bool rebalance_point = cfg_.mode == BalancingMode::DynMo &&
                               R.interval > 0 && iter % R.interval == 0;
  // Raw (pre-noise) per-layer fwd+bwd seconds: the profile's time loads
  // at rebalance points, and what the stage_loads table records — replay
  // re-derives the measurement noise from the seed, so recording the raw
  // values keeps the trace exact.
  std::vector<double> layer_seconds;
  if (R.trace || rebalance_point) {
    layer_seconds = builder_.layer_total_seconds(states);
  }

  // --- DynMo: rebalance / re-pack --------------------------------------
  // Rebalancing happens *inside* the iteration: for every-iteration
  // cadences (MoE / MoD / sparse attention) the forward pass measures the
  // routing loads and the backward pass migrates layers accordingly
  // (§3.3.1), so the new map takes effect for the very loads that were
  // measured.  For slow cadences (pruning / freezing / early exit) this
  // merely skips the single imbalanced profiling iteration, which is
  // negligible at those intervals.
  // Stragglers enter the decision path here: the rebalance point sees the
  // degraded capacities, so diffusion/partition route load away from the
  // slow stage — and back when it recovers (the payoff gate keeps the
  // return migration from thrashing).
  if (rebalance_point && R.injector && R.injector->any_degradation()) {
    refresh_capacities(iter);
  }

  if (rebalance_point) {
    balance::LayerProfile profile = raw_profile(layer_seconds, mem);
    balance::add_measurement_noise(profile, R.noise_rng);

    const auto outcome = R.rebalancer->rebalance(profile, map);
    map = outcome.map;
    account_outcome(outcome, events_per_window, iter, "periodic");
    balance::OverheadBreakdown scaled = outcome.overhead;
    // Every-iteration rebalancing couples migration with backprop; only
    // the non-overlapped remainder is exposed.
    if (R.interval == 1) {
      scaled.migrate_s *=
          1.0 - std::clamp(cfg_.migration_overlap, 0.0, 1.0);
    }
    scaled.profile_s *= events_per_window;
    scaled.decide_s *= events_per_window;
    scaled.migrate_s *= events_per_window;
    res.overhead += scaled;
    event_time += scaled.total_s();
    ++res.rebalance_count;

    if (cfg_.repack && iter > 0 && iter % cfg_.repack_interval == 0) {
      int target = cfg_.repack_target_workers;
      if (target <= 0 &&
          cfg_.repack_policy ==
              SessionConfig::RepackPolicy::ThroughputPreserving) {
        // Release workers only while the *optimal contiguous bottleneck*
        // at the reduced count stays within tolerance of what the full
        // worker count could achieve on today's loads.  The reference is
        // recomputed from the current profile but always at the original
        // stage count, so repeated re-packs cannot ratchet the pipeline
        // slower and slower.  The fewest such workers is one greedy probe
        // (the optimal bottleneck is non-increasing in the worker count).
        constexpr double kTolerance = 1.05;
        const double ref_bottleneck =
            balance::PartitionBalancer::optimal_bottleneck(profile.time_s,
                                                           S0);
        target = std::min(R.active,
                          balance::PartitionBalancer::min_stages(
                              profile.time_s, ref_bottleneck * kTolerance));
        // On a deployment, release whole nodes (keeping extra workers can
        // only help the bottleneck).
        if (deployment_) {
          target =
              repack::node_aligned_workers(*deployment_, target, R.active);
        }
      }
      auto rp = pack(mem, target, R.active);
      if (target <= 0 && deployment_ && rp.feasible) {
        // MemoryFirstFit chose the memory-minimal count: align it the same
        // way and re-pack at the aligned count.
        const int aligned = repack::node_aligned_workers(
            *deployment_, rp.active_workers, R.active);
        if (aligned != rp.active_workers) rp = pack(mem, aligned, R.active);
      }
      if (!rp.feasible && cfg_.repack_target_workers > 0) {
        res.oom = true;  // forced pack does not fit (Fig. 4 OOM cells)
      } else if (rp.feasible && rp.active_workers < R.active) {
        // Adopt the consolidated map: trailing stages become empty and
        // their workers are released; the pipeline continues on a
        // compacted map over the survivors.
        std::vector<std::size_t> b(
            rp.map.boundaries().begin(),
            rp.map.boundaries().begin() + rp.active_workers + 1);
        const auto packed = pipeline::StageMap::from_boundaries(b);
        const auto migration = balance::plan_migration(map, packed, mem);
        const double migrate_s =
            migration.estimated_time_s(net_, R.rb_cfg.stage_to_rank);
        // Payoff gate for packing: the transfer stalls all `active`
        // workers for migrate_s once, and its payoff is the GPU-time of
        // the released workers — one bottleneck-iteration per window
        // iteration each.  A pack that cannot amortize within the window
        // is skipped (and retried at the next repack point, when the
        // model may have shrunk further).
        ElasticDecision t;  // the transition, priced for the trace row
        t.target_workers = rp.active_workers;
        t.restart_stall_s = migrate_s;
        t.projected_gain_s =
            static_cast<double>(R.active - rp.active_workers) *
            bottleneck(map, profile.time_s);
        const bool pays_off = balance::amortizes(
            t.projected_gain_s, cfg_.payoff_window_iters,
            migrate_s * static_cast<double>(R.active));
        emit_transition("repack", pays_off, t, migration.total_bytes());
        if (!pays_off) {
          ++res.maps_rejected_payoff;
          res.migration_bytes_avoided +=
              migration.total_bytes() * R.replica_mirror;
        } else {
          record_migration_split(migration, 1.0);
          emit_migration_rows(iter, "repack", migration);
          event_time += migrate_s;
          res.overhead.migrate_s += migrate_s;
          map = packed;
          R.active = rp.active_workers;
          ++res.repack_count;
          polish(profile, "post_pack", event_time);
        }
      }
    }

    // --- elastic lifecycle: shrink / hold / expand ---------------------
    if (R.elastic && iter > 0 && iter % cfg_.elastic.interval == 0) {
      // The restart stall is wall-clock seconds, so the controller weighs
      // it against per-iteration layer seconds.
      const auto d = R.elastic->decide(
          map, per_iteration(profile.time_s, cfg_.num_microbatches), mem,
          R.mem_capacity, R.active);
      // The row's kind is the target's direction: a payoff-rejected
      // decision keeps action == Hold but still names what it wanted.
      const char* kind = d.target_workers < R.active ? "shrink" : "expand";
      if (d.rejected_by_payoff) {
        // A transition was wanted but its restart stall does not
        // amortize within the payoff window — same ledger as rejected
        // migrations (no bytes though: restarts move none).
        ++res.maps_rejected_payoff;
        emit_transition(kind, false, d);
      } else if (d.action != ElasticAction::Hold && R.elastic->commit(d)) {
        emit_transition(kind, true, d);
        const auto rp = pack(mem, d.target_workers, d.target_workers);
        DYNMO_CHECK(rp.feasible,
                    "controller committed a memory-infeasible target");
        ++(d.action == ElasticAction::Expand ? res.expands : res.shrinks);
        restart_onto(rp.map, d.target_workers, d.restart_stall_s, profile,
                     event_time, iter_restart_stall);
      }
    }
  }

  // --- execute one iteration on the (possibly rebalanced) map ----------
  auto costs = builder_.build(states, map, mb_scale);
  // A straggling GPU really is slower: stretch its stage's compute by the
  // injector's multiplier so the simulated timeline (and the bubbles the
  // healthy stages suffer waiting on it) reflect the degradation the
  // balancer is routing around.
  if (R.injector && R.injector->any_degradation()) {
    for (int s = 0; s < costs.num_stages(); ++s) {
      const double m = R.injector->multiplier(s, static_cast<int>(iter));
      if (m == 1.0) continue;
      // A row still at one value per kind is divided once, and stays so.
      if (const auto row = costs.row(s); row.mb_stride == 0) {
        costs.set_stage(s, row.fwd(0) / m, row.bwd_input(0) / m,
                        row.bwd_weight(0) / m);
        continue;
      }
      for (int mb = 0; mb < costs.num_microbatches(); ++mb) {
        costs.fwd(s, mb) /= m;
        costs.bwd_input(s, mb) /= m;
        costs.bwd_weight(s, mb) /= m;
      }
    }
  }
  const auto pipe = pipeline::simulate(cfg_.schedule, costs);
  const auto dp_cost = dp_allreduce_cost(map, states);
  iter_time += pipe.makespan_s + dp_cost.exposed_s;
  res.intra_node_dp_bytes +=
      dp_cost.intra_bytes * static_cast<double>(cfg_.sim_stride);
  res.inter_node_dp_bytes +=
      dp_cost.inter_bytes * static_cast<double>(cfg_.sim_stride);

  // Memory accounting (for OOM detection and Fig. 4): every stage is
  // checked against the capacity of the GPU actually hosting it.
  {
    const auto stage_mem = map.stage_loads(mem);
    for (int s = 0; s < map.num_stages(); ++s) {
      const double used = stage_mem[static_cast<std::size_t>(s)];
      res.peak_stage_memory = std::max(res.peak_stage_memory, used);
      if (used > stage_mem_capacity(s)) res.oom = true;
    }
  }

  // Baseline-specific per-iteration overheads.
  if (cfg_.mode == BalancingMode::Egeria && engine_ != nullptr &&
      engine_->is_dynamism_point(iter)) {
    const double oh = dynamic::FreezingEngine::egeria_check_overhead_s(
        model_->num_layers());
    iter_time += oh;
    res.baseline_overhead_s += oh;
  }
  if (cfg_.mode == BalancingMode::Tutel) {
    const double oh = 5e-5;  // adaptive dispatch bookkeeping
    iter_time += oh;
    res.baseline_overhead_s += oh;
  }

  // --- bookkeeping ------------------------------------------------------
  const double step_s =
      iter_time * static_cast<double>(cfg_.sim_stride) + event_time;
  res.total_time_s += step_s;
  // GPU-hours the release gave back (elastic or plain re-pack): every
  // DP replica frees the same (W0 - active) workers for this step —
  // measured against the *starting* footprint, so a fleet job admitted
  // small does not book its whole unexpanded ceiling as savings.
  res.gpu_hours_saved += static_cast<double>(R.initial_workers - R.active) *
                         static_cast<double>(cfg_.data_parallel) * step_s /
                         3600.0;
  R.idleness_stats.add(pipe.avg_idleness());
  R.bubble_stats.add(pipe.bubble_ratio());
  R.workers_stats.add(static_cast<double>(R.active));
  // Work a loss at the *next* boundary would have to re-do: the compute
  // since the last checkpoint (event stalls are not re-done).
  R.since_ckpt_s += iter_time * static_cast<double>(cfg_.sim_stride);

  IterationSample sample;
  sample.iter = iter;
  sample.time_s = iter_time;
  sample.idleness = pipe.avg_idleness();
  sample.bubble_ratio = pipe.bubble_ratio();
  sample.active_workers = R.active;
  sample.compute_fraction =
      engine_ != nullptr ? engine_->compute_fraction(states) : 1.0;
  sample.rebalanced = rebalance_point;
  sample.stall_s = event_time;
  res.samples.push_back(sample);

  if (R.trace) {
    // Stage rows use the map in effect *after* this iteration's events —
    // the map the recorded loads actually ran under.  Concatenating the
    // per-layer arrays across stages reconstructs the full layer vectors
    // regardless of where the boundaries sit.
    const auto stage_s = map.stage_loads(layer_seconds);
    const auto stage_mem = map.stage_loads(mem);
    for (int s = 0; s < map.num_stages(); ++s) {
      const auto si = static_cast<std::size_t>(s);
      telemetry::StageLoadRow row;
      row.iter = iter;
      row.stage = s;
      row.rank = deployment_ ? deployment_->rank(s) : s;
      row.layer_begin = static_cast<std::int64_t>(map.stage_begin(s));
      row.layer_end = static_cast<std::int64_t>(map.stage_end(s));
      row.load_s = stage_s[si];
      row.mem_bytes = stage_mem[si];
      if (cfg_.telemetry.per_layer) {
        row.layer_s.assign(layer_seconds.begin() + row.layer_begin,
                           layer_seconds.begin() + row.layer_end);
        row.layer_mem.assign(mem.begin() + row.layer_begin,
                             mem.begin() + row.layer_end);
      }
      R.trace->write(row);
    }
    telemetry::IterationRow irow;
    irow.iter = iter;
    irow.time_s = iter_time;
    irow.event_s = event_time;
    irow.bottleneck_s = *std::max_element(stage_s.begin(), stage_s.end());
    irow.idleness = sample.idleness;
    irow.bubble_ratio = sample.bubble_ratio;
    irow.active_workers = R.active;
    irow.compute_fraction = sample.compute_fraction;
    irow.rebalanced = rebalance_point;
    irow.stall_s = iter_restart_stall;
    R.trace->write(irow);
  }

  R.iter += cfg_.sim_stride;
  return step_s;
}

SessionResult TrainingSession::finish() {
  DYNMO_CHECK(run_ != nullptr, "finish() before start()");
  DYNMO_CHECK(done(), "finish() before the configured iterations ran");
  auto& R = *run_;
  if (R.trace) R.trace->finalize();

  SessionResult res = std::move(R.res);
  // A failed run ended early: throughput covers what actually completed.
  const double iters = static_cast<double>(res.failed ? R.iter
                                                      : cfg_.iterations);
  res.tokens_per_sec =
      res.total_time_s > 0.0
          ? tokens_per_iteration() * iters / res.total_time_s
          : 0.0;
  res.avg_idleness = R.idleness_stats.mean();
  res.avg_bubble_ratio = R.bubble_stats.mean();
  res.avg_active_workers = R.workers_stats.mean();
  res.overhead_fraction =
      res.overhead.total_s() / std::max(1e-12, res.total_time_s);
  res.final_map = R.map;
  run_.reset();
  return res;
}

SessionResult TrainingSession::run() {
  start();
  while (!done()) step();
  return finish();
}

}  // namespace dynmo::runtime
