#include "trace.hpp"

#include <algorithm>
#include <stdexcept>

#include "balance/diffusion.hpp"
#include "balance/partition.hpp"
#include "pipeline/schedule.hpp"
#include "repack/repack.hpp"
#include "runtime/checkpoint.hpp"

namespace perfbench {

void TimedEngine::step(std::int64_t iter,
                       std::span<dm::model::LayerState> states) {
  const auto t0 = Clock::now();
  inner_->step(iter, states);
  stats_->engine_step_s.push_back(seconds_since(t0));
  states_.assign(states.begin(), states.end());
}

dm::pipeline::MicrobatchScaleFn TimedEngine::microbatch_scale(
    std::int64_t iter) {
  scale_ = inner_->microbatch_scale(iter);
  if (!scale_) return {};
  return [this](std::size_t layer, int mb) {
    const auto t0 = Clock::now();
    const double v = scale_(layer, mb);
    stats_->mb_scale_s += seconds_since(t0);
    ++stats_->mb_scale_calls;
    return v;
  };
}

namespace {

dm::pipeline::CostBuilderConfig builder_config(
    const dm::runtime::SessionConfig& cfg) {
  dm::pipeline::CostBuilderConfig bc;
  bc.micro_batch = cfg.micro_batch;
  bc.num_microbatches = cfg.num_microbatches;
  return bc;
}

/// Ops pipeline::simulate executes for these costs: F, B (and W under
/// ZB-H1) per microbatch on every stage.
std::int64_t simulated_ops(const dm::pipeline::StageCosts& costs,
                           dm::pipeline::ScheduleKind kind) {
  const std::int64_t per_mb = kind == dm::pipeline::ScheduleKind::ZbH1 ? 3 : 2;
  return per_mb * costs.num_stages() * costs.num_microbatches();
}

}  // namespace

Shadow::Shadow(const dm::model::ModelDesc& model,
               const dm::runtime::SessionConfig& cfg,
               const dm::dynamic::MoeEngine* moe, TraceStats& stats)
    : model_(&model), cfg_(cfg), moe_(moe),
      stats_(&stats), net_(cfg.net),
      builder_(model, dm::model::LayerCostModel(cfg.gpu), net_,
               builder_config(cfg)),
      map_(dm::pipeline::StageMap::uniform(model.num_layers(),
                                           cfg.pipeline_stages)),
      noise_(dm::hash_mix(cfg.seed, 0x7e55)) {
  if (cfg.deployment || cfg.initial_active_workers != 0 ||
      cfg.mode != dm::runtime::BalancingMode::DynMo ||
      cfg.rebalance_interval <= 0) {
    throw std::invalid_argument(
        "the shadow loop mirrors deployment-less DynMo sessions with an "
        "explicit rebalance_interval only");
  }
  // The same decision configuration TrainingSession::start() derives.
  rb_.algorithm = cfg.algorithm;
  rb_.by = cfg.balance_by;
  rb_.mem_capacity = cfg.gpu.mem_capacity;
  rb_.min_bottleneck_gain = cfg.min_bottleneck_gain;
  rb_.payoff_window_iters = cfg.payoff_window_iters;
  rb_.incremental = cfg.incremental_decisions;
  rb_.migration_cost_multiplier = static_cast<double>(cfg.data_parallel);
  if (cfg.rebalance_interval == 1) {
    rb_.migration_exposed_fraction =
        1.0 - std::clamp(cfg.migration_overlap, 0.0, 1.0);
  }
  rebalancer_.emplace(rb_, net_);
  if (!cfg.fault.empty()) {
    injector_.emplace(cfg.fault, cfg.pipeline_stages, dm::Rng(cfg.seed));
  }
  if (cfg.elastic.enabled) {
    dm::runtime::ElasticConfig ec = cfg.elastic;
    if (ec.payoff_window_iters <= 0.0) {
      ec.payoff_window_iters = cfg.payoff_window_iters;
    }
    ec.max_workers = cfg.pipeline_stages;
    elastic_.emplace(ec, cfg.pipeline_stages, [net = net_](int) {
      return net.params(dm::comm::LinkTier::InfiniBand);
    });
  }
  params_.reserve(model.num_layers());
  for (const auto& l : model.layers) {
    params_.push_back(static_cast<double>(l.params));
  }
}

void Shadow::window(std::int64_t iter,
                    std::span<const dm::model::LayerState> states,
                    const dm::pipeline::MicrobatchScaleFn& scale) {
  auto& st = *stats_;
  ++st.windows;
  if (moe_ != nullptr) sample_routing(iter);

  auto t0 = Clock::now();
  const auto mem = builder_.layer_memory_bytes(states, map_);
  const bool rebalance_point = iter % cfg_.rebalance_interval == 0;
  std::vector<double> layer_s;
  if (rebalance_point) layer_s = builder_.layer_total_seconds(states);
  st.layer_costs_s.push_back(seconds_since(t0));

  if (cfg_.checkpoint_interval_iters > 0 && iter > 0 &&
      iter % cfg_.checkpoint_interval_iters == 0) {
    time_checkpoint(iter, states);
  }

  if (rebalance_point) {
    if (injector_ && injector_->any_degradation()) refresh_capacities(iter);
    dm::balance::LayerProfile profile;
    profile.time_s = std::move(layer_s);
    profile.memory_bytes = mem;
    profile.params = params_;
    dm::balance::add_measurement_noise(profile, noise_);
    decide(profile, mem);
    if (elastic_ && iter > 0 && iter % cfg_.elastic.interval == 0) {
      time_elastic(profile, mem);
    }
  }

  t0 = Clock::now();
  auto costs = builder_.build(states, map_, scale);
  st.build_s.push_back(seconds_since(t0));
  if (injector_ && injector_->any_degradation()) {
    for (int s = 0; s < costs.num_stages(); ++s) {
      const double m = injector_->multiplier(s, static_cast<int>(iter));
      if (m == 1.0) continue;
      for (int mb = 0; mb < costs.num_microbatches(); ++mb) {
        costs.fwd(s, mb) /= m;
        costs.bwd_input(s, mb) /= m;
        costs.bwd_weight(s, mb) /= m;
      }
    }
  }
  t0 = Clock::now();
  const auto pipe = dm::pipeline::simulate(cfg_.schedule, costs);
  st.simulate_s.push_back(seconds_since(t0));
  st.sink += pipe.makespan_s;
  st.pipeline_ops += simulated_ops(costs, cfg_.schedule);
}

void Shadow::sample_routing(std::int64_t iter) {
  // One microbatch per window, rotating, keeps the shadow's routing cost a
  // small fraction of the engine's own.
  const int mb = static_cast<int>(stats_->windows % cfg_.num_microbatches);
  for (std::size_t l = 0; l < model_->num_layers(); ++l) {
    if (model_->layers[l].kind != dm::model::LayerKind::MoeTransformerBlock) {
      continue;
    }
    const auto t0 = Clock::now();
    const auto counts = moe_->route_tokens(l, iter, mb);
    stats_->route_s.push_back(seconds_since(t0));
    stats_->sink += static_cast<double>(counts.size());
  }
}

void Shadow::refresh_capacities(std::int64_t iter) {
  // TrainingSession::refresh_capacities without a deployment: the healthy
  // base is uniform, so recovery restores the empty capacity vector.
  std::vector<double> caps(static_cast<std::size_t>(cfg_.pipeline_stages),
                           1.0);
  bool degraded = false;
  for (int s = 0; s < cfg_.pipeline_stages; ++s) {
    const double m = injector_->multiplier(s, static_cast<int>(iter));
    if (m != 1.0) {
      caps[static_cast<std::size_t>(s)] *= m;
      degraded = true;
    }
  }
  if (!degraded && !degraded_) return;
  rb_.capacities = degraded ? std::move(caps) : std::vector<double>{};
  degraded_ = degraded;
  rebalancer_.emplace(rb_, net_);
}

dm::pipeline::StageMap Shadow::propose(
    std::span<const double> weights,
    const dm::balance::LayerProfile& profile) const {
  // The request Rebalancer::propose builds for the configured algorithm.
  if (rb_.algorithm == dm::balance::Algorithm::Partition) {
    dm::balance::PartitionRequest req;
    req.weights.assign(weights.begin(), weights.end());
    req.memory_bytes = profile.memory_bytes;
    req.mem_capacity = rb_.mem_capacity;
    req.num_stages = map_.num_stages();
    req.capacities = rb_.capacities;
    return dm::balance::PartitionBalancer{}.balance(req).map;
  }
  dm::balance::DiffusionRequest req;
  req.weights.assign(weights.begin(), weights.end());
  req.memory_bytes = profile.memory_bytes;
  req.mem_capacity = rb_.mem_capacity;
  req.gamma = rb_.gamma;
  req.capacities = rb_.capacities;
  return dm::balance::DiffusionBalancer{}.balance(req, map_).map;
}

void Shadow::decide(const dm::balance::LayerProfile& profile,
                    const std::vector<double>& mem) {
  auto& st = *stats_;
  const auto weights = dm::balance::balance_weights(profile, cfg_.balance_by);

  auto t0 = Clock::now();
  const auto candidate = propose(weights, profile);
  const double propose_s = seconds_since(t0);

  t0 = Clock::now();
  const auto plan = dm::balance::plan_migration(map_, candidate, mem);
  st.plan_migration_s.push_back(seconds_since(t0));
  st.sink += plan.total_bytes();

  t0 = Clock::now();
  const auto outcome = rebalancer_->rebalance(profile, map_);
  const double rebalance_s = seconds_since(t0);

  st.propose_s.push_back(propose_s);
  st.rebalance_s.push_back(rebalance_s);
  st.accept_s.push_back(rebalance_s - propose_s);
  ++st.decisions;
  if (outcome.decision == dm::balance::MapDecision::Accepted &&
      !outcome.migration.empty()) {
    ++st.accepted;
  }
  if (outcome.diffusion) {
    st.diffusion_rounds += outcome.diffusion->rounds;
    ++st.diffusion_decisions;
  }
  st.touched_stages += static_cast<double>(rebalancer_->last_touched_stages());
  map_ = outcome.map;
}

void Shadow::time_checkpoint(std::int64_t iter,
                             std::span<const dm::model::LayerState> states) {
  dm::runtime::Checkpoint ckpt;
  ckpt.iteration = iter;
  ckpt.stage_map = map_;
  ckpt.layer_states.assign(states.begin(), states.end());
  auto t0 = Clock::now();
  const auto bytes = ckpt.serialize();
  stats_->ckpt_serialize_s.push_back(seconds_since(t0));
  t0 = Clock::now();
  const auto restored = dm::runtime::Checkpoint::deserialize(bytes);
  stats_->ckpt_deserialize_s.push_back(seconds_since(t0));
  stats_->ckpt_bytes = static_cast<double>(bytes.size());
  if (!(restored == ckpt)) {
    throw std::runtime_error("checkpoint round trip changed the state");
  }
}

void Shadow::time_elastic(const dm::balance::LayerProfile& profile,
                          const std::vector<double>& mem) {
  // The controller prices per-iteration seconds, as the session feeds it.
  std::vector<double> iter_layer_s(profile.time_s);
  for (double& x : iter_layer_s) {
    x *= static_cast<double>(cfg_.num_microbatches);
  }
  auto t0 = Clock::now();
  const auto d = elastic_->decide(map_, iter_layer_s, mem, rb_.mem_capacity,
                                  map_.num_stages());
  stats_->elastic_decide_s.push_back(seconds_since(t0));
  stats_->sink += d.target_workers;

  // The pack a committed shrink would run, down to the deepest target the
  // controller may choose.  The shadow never commits a transition.
  dm::repack::ContiguousRepackRequest req;
  req.memory_bytes = mem;
  req.mem_capacity = rb_.mem_capacity;
  req.target_workers = cfg_.elastic.min_workers;
  t0 = Clock::now();
  const auto rp = dm::repack::repack_contiguous(req, req.target_workers);
  stats_->repack_s.push_back(seconds_since(t0));
  stats_->sink += rp.active_workers;
}

}  // namespace perfbench
