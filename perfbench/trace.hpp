// Outside-in tracing of a TrainingSession for the traced run.
//
// The dynamism layer is timed inside the real session, through a
// forwarding engine decorator and a wrapped MicrobatchScaleFn.  Every other
// layer is timed by a *shadow* loop.  After each real step() window it
// calls the public functions TrainingSession::step calls, in the same
// order and on the same engine states:
//   CostBuilder::layer_memory_bytes / layer_total_seconds,
//   Rebalancer::rebalance, plus the bare balancer on the identical request
//   and balance::plan_migration,
//   ElasticController::decide and repack::repack_contiguous at elastic
//   points, Checkpoint serialize/deserialize at checkpoint points,
//   CostBuilder::build and pipeline::simulate.
// The shadow keeps its own stage map, decided by its own Rebalancer on the
// session's noise stream.  So it follows the session's decisions exactly
// as long as no elastic restart fires; each traced run reports whether the
// two final maps agree.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "balance/rebalancer.hpp"
#include "dynamic/dynamism.hpp"
#include "dynamic/moe.hpp"
#include "fault/injector.hpp"
#include "pipeline/cost_builder.hpp"
#include "runtime/elastic.hpp"
#include "runtime/session.hpp"

namespace perfbench {

namespace dm = dynmo;

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Per-call samples (seconds) and counters gathered by the traced run.
struct TraceStats {
  std::vector<double> engine_step_s;  ///< DynamismEngine::step per window
  std::vector<double> route_s;        ///< sampled MoeEngine::route_tokens
  double mb_scale_s = 0.0;
  std::int64_t mb_scale_calls = 0;
  /// layer_memory_bytes + layer_total_seconds, per window.
  std::vector<double> layer_costs_s;
  std::vector<double> build_s;
  std::vector<double> simulate_s;
  std::int64_t pipeline_ops = 0;
  std::vector<double> rebalance_s;
  std::vector<double> propose_s;
  std::vector<double> accept_s;  ///< rebalance minus propose, per decision
  std::vector<double> plan_migration_s;
  std::int64_t decisions = 0;
  std::int64_t accepted = 0;  ///< decisions that adopted a moving map
  double diffusion_rounds = 0.0;
  std::int64_t diffusion_decisions = 0;
  double touched_stages = 0.0;
  std::vector<double> elastic_decide_s;
  std::vector<double> repack_s;
  std::vector<double> ckpt_serialize_s;
  std::vector<double> ckpt_deserialize_s;
  double ckpt_bytes = 0.0;
  std::int64_t windows = 0;
  /// Keeps the results of shadow calls observable to the optimizer.
  double sink = 0.0;
};

/// Forwards every call to the real engine; times step() and each call of
/// the returned MicrobatchScaleFn, and keeps the states step() produced so
/// the shadow loop can run on them.
class TimedEngine final : public dm::dynamic::DynamismEngine {
 public:
  TimedEngine(dm::dynamic::DynamismEngine& inner, TraceStats& stats)
      : inner_(&inner), stats_(&stats) {}

  std::string name() const override { return inner_->name(); }
  bool is_dynamism_point(std::int64_t iter) const override {
    return inner_->is_dynamism_point(iter);
  }
  void step(std::int64_t iter,
            std::span<dm::model::LayerState> states) override;
  dm::pipeline::MicrobatchScaleFn microbatch_scale(std::int64_t iter) override;
  std::int64_t recommended_rebalance_interval() const override {
    return inner_->recommended_rebalance_interval();
  }
  double compute_fraction(
      std::span<const dm::model::LayerState> states) const override {
    return inner_->compute_fraction(states);
  }

  /// States after the last step(), and the unwrapped scale function of the
  /// last microbatch_scale() call (valid until the next step()).
  std::span<const dm::model::LayerState> states() const { return states_; }
  const dm::pipeline::MicrobatchScaleFn& scale() const { return scale_; }

 private:
  dm::dynamic::DynamismEngine* inner_;
  TraceStats* stats_;
  std::vector<dm::model::LayerState> states_;
  dm::pipeline::MicrobatchScaleFn scale_;
};

/// Replays TrainingSession::step's calls into the non-dynamism layers.
/// Supports the deployment-less DynMo sessions with an explicit
/// rebalance_interval that the benchmark runs.
class Shadow {
 public:
  /// `moe` (may be null) is sampled with route_tokens once per MoE layer
  /// per window.
  Shadow(const dm::model::ModelDesc& model, const dm::runtime::SessionConfig& cfg,
         const dm::dynamic::MoeEngine* moe, TraceStats& stats);

  /// Mirror one step() window that started at `iter`.
  void window(std::int64_t iter, std::span<const dm::model::LayerState> states,
              const dm::pipeline::MicrobatchScaleFn& scale);

  const dm::pipeline::StageMap& map() const { return map_; }

 private:
  void sample_routing(std::int64_t iter);
  void refresh_capacities(std::int64_t iter);
  void decide(const dm::balance::LayerProfile& profile,
              const std::vector<double>& mem);
  dm::pipeline::StageMap propose(std::span<const double> weights,
                                 const dm::balance::LayerProfile& profile) const;
  void time_checkpoint(std::int64_t iter,
                       std::span<const dm::model::LayerState> states);
  void time_elastic(const dm::balance::LayerProfile& profile,
                    const std::vector<double>& mem);

  const dm::model::ModelDesc* model_;
  dm::runtime::SessionConfig cfg_;
  const dm::dynamic::MoeEngine* moe_;
  TraceStats* stats_;
  dm::comm::CostModel net_;
  dm::pipeline::CostBuilder builder_;
  dm::pipeline::StageMap map_;
  dm::Rng noise_;
  dm::balance::RebalanceConfig rb_;
  std::optional<dm::balance::Rebalancer> rebalancer_;
  std::optional<dm::fault::Injector> injector_;
  std::optional<dm::runtime::ElasticController> elastic_;
  bool degraded_ = false;
  std::vector<double> params_;
};


}  // namespace perfbench
