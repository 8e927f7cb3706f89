// StageMap: contiguous assignment of model layers to pipeline stages.
//
// Pipeline parallelism requires layers to stay in model order, so an
// assignment is fully described by S+1 boundaries.  All DynMo balancers
// produce StageMaps; the simulator and the threaded runtime consume them.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace dynmo::pipeline {

class StageMap {
 public:
  StageMap() = default;

  /// boundaries has num_stages()+1 entries, boundaries.front()==0,
  /// boundaries.back()==num_layers, non-decreasing.  Empty stages allowed
  /// (a fully re-packed-away worker hosts zero layers).
  static StageMap from_boundaries(std::vector<std::size_t> boundaries);

  /// Uniform split: layer counts differ by at most one (Megatron-LM style).
  static StageMap uniform(std::size_t num_layers, int num_stages);

  /// Split so that each stage's share of `weights` is as even as a greedy
  /// prefix scan can make it (DeepSpeed "param" method analogue).
  static StageMap greedy_by_weight(std::span<const double> weights,
                                   int num_stages);

  int num_stages() const {
    return boundaries_.empty() ? 0 : static_cast<int>(boundaries_.size()) - 1;
  }
  std::size_t num_layers() const {
    return boundaries_.empty() ? 0 : boundaries_.back();
  }
  std::size_t stage_begin(int s) const {
    return boundaries_[static_cast<std::size_t>(s)];
  }
  std::size_t stage_end(int s) const {
    return boundaries_[static_cast<std::size_t>(s) + 1];
  }
  std::size_t stage_size(int s) const { return stage_end(s) - stage_begin(s); }
  bool stage_empty(int s) const { return stage_size(s) == 0; }

  /// Stage hosting `layer` (layers on a boundary belong to the later-begun
  /// stage); empty stages are skipped naturally.  O(log S) binary search
  /// over the boundaries.
  int stage_of(std::size_t layer) const;

  /// Per-stage sums of an arbitrary per-layer quantity.
  std::vector<double> stage_loads(std::span<const double> per_layer) const;

  /// Number of stages hosting at least one layer.
  int active_stages() const;

  const std::vector<std::size_t>& boundaries() const { return boundaries_; }

  std::string to_string() const;

  bool operator==(const StageMap&) const = default;

 private:
  std::vector<std::size_t> boundaries_;
};

}  // namespace dynmo::pipeline
