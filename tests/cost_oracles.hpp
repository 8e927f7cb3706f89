// Full-rescan oracles for the cached paths of pipeline::StageMap and
// pipeline::CostBuilder, built on public API only.  The differential tests
// in test_incremental_cost.cpp compare the production answers against
// these with exact equality.
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "model/layer.hpp"
#include "model/layer_cost.hpp"
#include "pipeline/stage_map.hpp"

namespace dynmo::testing {

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

}  // namespace dynmo::testing
