#include "pipeline/stage_map.hpp"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "core/error.hpp"

namespace dynmo::pipeline {

StageMap StageMap::from_boundaries(std::vector<std::size_t> boundaries) {
  DYNMO_CHECK(boundaries.size() >= 2, "stage map needs >= 1 stage");
  DYNMO_CHECK(boundaries.front() == 0, "first boundary must be 0");
  DYNMO_CHECK(std::is_sorted(boundaries.begin(), boundaries.end()),
              "boundaries must be non-decreasing");
  StageMap m;
  m.boundaries_ = std::move(boundaries);
  return m;
}

StageMap StageMap::uniform(std::size_t num_layers, int num_stages) {
  DYNMO_CHECK(num_stages > 0, "need at least one stage");
  std::vector<std::size_t> b(static_cast<std::size_t>(num_stages) + 1, 0);
  const std::size_t base = num_layers / static_cast<std::size_t>(num_stages);
  const std::size_t extra = num_layers % static_cast<std::size_t>(num_stages);
  for (int s = 0; s < num_stages; ++s) {
    b[static_cast<std::size_t>(s) + 1] =
        b[static_cast<std::size_t>(s)] + base +
        (static_cast<std::size_t>(s) < extra ? 1 : 0);
  }
  return from_boundaries(std::move(b));
}

StageMap StageMap::greedy_by_weight(std::span<const double> weights,
                                    int num_stages) {
  DYNMO_CHECK(num_stages > 0, "need at least one stage");
  const double total = std::accumulate(weights.begin(), weights.end(), 0.0);
  const double target = total / num_stages;
  std::vector<std::size_t> b;
  b.reserve(static_cast<std::size_t>(num_stages) + 1);
  b.push_back(0);
  double acc = 0.0;
  std::size_t layer = 0;
  for (int s = 0; s < num_stages - 1; ++s) {
    double stage_acc = 0.0;
    // Keep taking layers while adding the next keeps us closer to target
    // than stopping, but never starve the remaining stages of layers.
    const std::size_t layers_left_min =
        static_cast<std::size_t>(num_stages - 1 - s);
    while (layer < weights.size() &&
           weights.size() - layer > layers_left_min) {
      const double w = weights[layer];
      if (stage_acc > 0.0 &&
          std::abs(stage_acc + w - target) > std::abs(stage_acc - target)) {
        break;
      }
      stage_acc += w;
      acc += w;
      ++layer;
    }
    b.push_back(layer);
  }
  b.push_back(weights.size());
  (void)acc;
  return from_boundaries(std::move(b));
}

int StageMap::stage_of(std::size_t layer) const {
  DYNMO_CHECK(layer < num_layers(), "layer " << layer << " out of range");
  // The hosting stage is the last boundary <= layer: with duplicates
  // (empty stages) upper_bound lands past the *last* duplicate, which is
  // exactly the later-begun stage a linear scan selects.  Integer
  // comparisons only, so the answers are identical (asserted by
  // tests/test_incremental_cost.cpp against tests/cost_oracles.hpp).
  const auto it =
      std::upper_bound(boundaries_.begin(), boundaries_.end(), layer);
  return static_cast<int>(it - boundaries_.begin()) - 1;
}

std::vector<double> StageMap::stage_loads(
    std::span<const double> per_layer) const {
  DYNMO_CHECK(per_layer.size() == num_layers(),
              "per-layer vector size " << per_layer.size()
                                       << " != " << num_layers());
  std::vector<double> loads(static_cast<std::size_t>(num_stages()), 0.0);
  for (int s = 0; s < num_stages(); ++s) {
    for (std::size_t l = stage_begin(s); l < stage_end(s); ++l) {
      loads[static_cast<std::size_t>(s)] += per_layer[l];
    }
  }
  return loads;
}

int StageMap::active_stages() const {
  int n = 0;
  for (int s = 0; s < num_stages(); ++s) {
    if (!stage_empty(s)) ++n;
  }
  return n;
}

std::string StageMap::to_string() const {
  std::ostringstream oss;
  oss << '[';
  for (int s = 0; s < num_stages(); ++s) {
    if (s) oss << " | ";
    oss << stage_begin(s) << ".." << stage_end(s);
  }
  oss << ']';
  return oss.str();
}

}  // namespace dynmo::pipeline
