// Builds StageCosts for one iteration from the model description, the
// dynamic layer states, a stage map, and the hardware cost models.
//
// Cluster knowledge arrives through two deployment-derived inputs instead
// of the old `first_global_rank + stage` guess:
//   * `CostBuilderConfig::stage_to_rank` — stage s runs on that global
//     rank, so boundary activation sends are priced by the link the two
//     hosting ranks actually share (a cluster::Deployment-backed
//     comm::CostModel resolves it to the shortest-path effective link);
//   * `model::StageCostModels` — per-stage GPU specs, so a stage hosted by
//     a slower GPU is charged that GPU's compute time (heterogeneous
//     clusters), while balancing weights stay in reference-GPU seconds.
//
// An optional per-(layer, microbatch) scale hook lets dynamism engines whose
// load fluctuates *within* an iteration (MoE and MoD token routing differs
// per microbatch) perturb individual microbatches, which is exactly the
// fine-grained imbalance DynMo's every-iteration rebalancing targets.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "comm/cost_model.hpp"
#include "model/layer_cost.hpp"
#include "pipeline/schedule.hpp"
#include "pipeline/stage_map.hpp"

namespace dynmo::pipeline {

struct CostBuilderConfig {
  std::size_t micro_batch = 2;
  int num_microbatches = 4;
  /// Stage s runs on global rank stage_to_rank[s]; empty → stage s is rank
  /// s.  Boundary sends are priced over these ranks.
  std::vector<int> stage_to_rank{};
};

using MicrobatchScaleFn = std::function<double(std::size_t layer, int mb)>;

class CostBuilder {
 public:
  /// `stage_costs` may be a bare model::LayerCostModel (uniform hardware)
  /// or a full per-stage set from a heterogeneous deployment.
  CostBuilder(const model::ModelDesc& model, model::StageCostModels stage_costs,
              comm::CostModel comm_costs, CostBuilderConfig cfg)
      : model_(&model), stage_costs_(std::move(stage_costs)),
        comm_costs_(std::move(comm_costs)), cfg_(std::move(cfg)) {}

  /// Per-layer times for the current states (one microbatch) on the
  /// *reference* GPU — the profile currency the balancers consume.
  ///
  /// Memoized per layer on the LayerState: the roofline evaluation reruns
  /// only for layers whose dynamic state changed since the last call
  /// (dynamism typically perturbs a few layers per step; frozen and
  /// steady-state layers are cache hits returning the stored doubles —
  /// bit-identical by construction).  Invalidation rule: any field of the
  /// layer's LayerState differing from the cached snapshot
  /// (tests/cost_oracles.hpp re-evaluates every layer as the differential
  /// oracle).
  std::vector<model::LayerTimes> layer_times(
      std::span<const model::LayerState> states) const;

  /// Per-layer total (fwd+bwd) seconds — the balancers' by-time weights.
  std::vector<double> layer_total_seconds(
      std::span<const model::LayerState> states) const;

  /// Per-layer memory bytes under the given stage map (activation residency
  /// scales with in-flight microbatches = stage depth for 1F1B).  Memoized
  /// per layer on (LayerState, resident microbatches) — a layer re-prices
  /// only when its state or its stage-depth-derived residency changed.
  std::vector<double> layer_memory_bytes(
      std::span<const model::LayerState> states, const StageMap& map) const;

  /// Assemble the full StageCosts table for one iteration: compute per
  /// stage on the stage's own GPU, boundary sends over the stages' ranks.
  StageCosts build(std::span<const model::LayerState> states,
                   const StageMap& map,
                   const MicrobatchScaleFn& mb_scale = {}) const;

  /// Global rank hosting a stage (identity when no placement is set).
  int rank_of_stage(int stage) const;

  const CostBuilderConfig& config() const { return cfg_; }
  const model::LayerCostModel& layer_cost_model() const {
    return stage_costs_.reference();
  }
  const model::StageCostModels& stage_cost_models() const {
    return stage_costs_;
  }
  const comm::CostModel& comm_cost_model() const { return comm_costs_; }

 private:
  /// One memo slot per layer.  `state` is the snapshot the cached values
  /// were priced under; a slot is valid only while the layer's current
  /// LayerState equals it field-for-field.
  struct LayerMemo {
    model::LayerState state{};
    bool times_valid = false;
    model::LayerTimes times{};
    bool mem_valid = false;
    int mem_resident = -1;
    double mem_bytes = 0.0;
  };
  LayerMemo& memo_slot(std::size_t layer) const;
  /// Memoized reference-GPU times for one layer (the shared cache behind
  /// layer_times() and the homogeneous fast path of build()).
  const model::LayerTimes& ref_layer_times(
      std::size_t layer, const model::LayerState& state) const;

  const model::ModelDesc* model_;
  model::StageCostModels stage_costs_;
  comm::CostModel comm_costs_;
  CostBuilderConfig cfg_;
  /// Per-layer memo for layer_times / layer_memory_bytes (reference GPU).
  /// CostBuilder is consumed single-threaded (runtime session), so the
  /// mutable cache needs no lock.
  mutable std::vector<LayerMemo> memo_;
};

}  // namespace dynmo::pipeline
