// Full-rescan oracles for the cached paths of balance::MaxTree,
// pipeline::StageMap and pipeline::CostBuilder, built on public API only.
// The differential tests in test_incremental_cost.cpp and
// test_cost_builder.cpp compare the production answers against these with
// exact equality.
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "balance/incremental.hpp"
#include "model/layer.hpp"
#include "model/layer_cost.hpp"
#include "pipeline/cost_builder.hpp"
#include "pipeline/stage_map.hpp"

namespace dynmo::testing {

/// MaxTree::argmax as a linear scan over get(i), with std::max_element's
/// first-max tie rule.  The tree must not be empty.
inline std::size_t argmax_full_rescan(const balance::MaxTree& tree) {
  std::size_t best = 0;
  for (std::size_t i = 1; i < tree.size(); ++i) {
    if (tree.get(best) < tree.get(i)) best = i;
  }
  return best;
}

/// MaxTree::max_value as a linear scan over get(i).
inline double max_value_full_rescan(const balance::MaxTree& tree) {
  return tree.get(argmax_full_rescan(tree));
}

/// StageMap::stage_of as an O(S) scan: the first stage whose range holds
/// `layer` (empty stages never do).
inline int stage_of_full_rescan(const pipeline::StageMap& map,
                                std::size_t layer) {
  for (int s = 0; s < map.num_stages(); ++s) {
    if (layer >= map.stage_begin(s) && layer < map.stage_end(s)) return s;
  }
  return map.num_stages() - 1;  // unreachable for valid maps
}

/// CostBuilder::layer_times re-evaluated for every layer on `ref`.
inline std::vector<model::LayerTimes> layer_times_full_rescan(
    const model::ModelDesc& m, const model::LayerCostModel& ref,
    std::size_t micro_batch, std::span<const model::LayerState> states) {
  std::vector<model::LayerTimes> times;
  times.reserve(states.size());
  for (std::size_t l = 0; l < states.size(); ++l) {
    times.push_back(ref.layer_times(m.layers[l], states[l], micro_batch));
  }
  return times;
}

/// CostBuilder::layer_memory_bytes re-evaluated for every layer on `ref`:
/// 1F1B keeps min(microbatches, S − stage) activations resident.
inline std::vector<double> layer_memory_bytes_full_rescan(
    const model::ModelDesc& m, const model::LayerCostModel& ref,
    std::size_t micro_batch, int num_microbatches,
    std::span<const model::LayerState> states, const pipeline::StageMap& map) {
  std::vector<double> mem;
  mem.reserve(states.size());
  for (std::size_t l = 0; l < states.size(); ++l) {
    const int resident = std::min(num_microbatches,
                                  map.num_stages() - map.stage_of(l));
    mem.push_back(ref.layer_memory_bytes(
        m.layers[l], states[l], micro_batch,
        static_cast<std::size_t>(std::max(1, resident))));
  }
  return mem;
}

/// CostBuilder::build's compute costs as first written: for every layer
/// of a stage, in layer order, and every microbatch, add the layer's
/// times on the stage's own GPU scaled by max(0, mb_scale(layer, mb)), or
/// by 1.0 without a scale.  Sends are left at zero.
inline pipeline::StageCosts build_per_layer_microbatch(
    const model::ModelDesc& m, const model::StageCostModels& stage_costs,
    std::size_t micro_batch, int num_microbatches,
    std::span<const model::LayerState> states, const pipeline::StageMap& map,
    const pipeline::MicrobatchScaleFn& mb_scale = {}) {
  pipeline::StageCosts costs(map.num_stages(), num_microbatches);
  for (int s = 0; s < map.num_stages(); ++s) {
    const model::LayerCostModel& lc = stage_costs.stage(s);
    for (std::size_t l = map.stage_begin(s); l < map.stage_end(s); ++l) {
      const auto t = lc.layer_times(m.layers[l], states[l], micro_batch);
      for (int mb = 0; mb < num_microbatches; ++mb) {
        const double scale = mb_scale ? std::max(0.0, mb_scale(l, mb)) : 1.0;
        costs.fwd(s, mb) += t.forward_s * scale;
        costs.bwd_input(s, mb) += t.backward_input_s * scale;
        costs.bwd_weight(s, mb) += t.backward_weight_s * scale;
      }
    }
  }
  return costs;
}

}  // namespace dynmo::testing
