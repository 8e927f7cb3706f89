#include "pipeline/cost_builder.hpp"

#include <algorithm>

#include "core/error.hpp"

namespace dynmo::pipeline {

namespace {

/// Field-for-field LayerState equality — the memo invalidation predicate.
/// Exact comparison is deliberate: a cache hit returns the very doubles the
/// full evaluation produced, so memoized results are bit-identical.
bool same_state(const model::LayerState& a, const model::LayerState& b) {
  return a.weight_density == b.weight_density && a.frozen == b.frozen &&
         a.attn_density == b.attn_density &&
         a.token_fraction == b.token_fraction && a.moe_load == b.moe_load &&
         a.compute_scale == b.compute_scale &&
         a.spmm_backend == b.spmm_backend;
}

}  // namespace

CostBuilder::LayerMemo& CostBuilder::memo_slot(std::size_t layer) const {
  if (memo_.size() != model_->num_layers()) {
    memo_.assign(model_->num_layers(), LayerMemo{});
  }
  return memo_[layer];
}

int CostBuilder::rank_of_stage(int stage) const {
  if (cfg_.stage_to_rank.empty()) return stage;
  DYNMO_CHECK(stage >= 0 &&
                  stage < static_cast<int>(cfg_.stage_to_rank.size()),
              "stage " << stage << " outside the placement's "
                       << cfg_.stage_to_rank.size() << " stages");
  return cfg_.stage_to_rank[static_cast<std::size_t>(stage)];
}

std::vector<model::LayerTimes> CostBuilder::layer_times(
    std::span<const model::LayerState> states) const {
  DYNMO_CHECK(states.size() == model_->num_layers(),
              "state count " << states.size() << " != layer count "
                             << model_->num_layers());
  std::vector<model::LayerTimes> times;
  times.reserve(states.size());
  for (std::size_t l = 0; l < states.size(); ++l) {
    times.push_back(ref_layer_times(l, states[l]));
  }
  return times;
}

const model::LayerTimes& CostBuilder::ref_layer_times(
    std::size_t layer, const model::LayerState& state) const {
  LayerMemo& slot = memo_slot(layer);
  if (!same_state(slot.state, state)) {
    slot.state = state;
    slot.times_valid = false;
    slot.mem_valid = false;  // memory was priced under the old state
  }
  if (!slot.times_valid) {
    slot.times = stage_costs_.reference().layer_times(
        model_->layers[layer], state, cfg_.micro_batch);
    slot.times_valid = true;
  }
  return slot.times;
}

std::vector<double> CostBuilder::layer_total_seconds(
    std::span<const model::LayerState> states) const {
  const auto times = layer_times(states);
  std::vector<double> totals;
  totals.reserve(times.size());
  for (const auto& t : times) totals.push_back(t.total_s());
  return totals;
}

std::vector<double> CostBuilder::layer_memory_bytes(
    std::span<const model::LayerState> states, const StageMap& map) const {
  DYNMO_CHECK(states.size() == model_->num_layers(), "state count mismatch");
  DYNMO_CHECK(map.num_layers() == model_->num_layers(), "map layer mismatch");
  const model::LayerCostModel& ref = stage_costs_.reference();
  std::vector<double> mem;
  mem.reserve(states.size());
  for (std::size_t l = 0; l < states.size(); ++l) {
    // 1F1B keeps up to (S − stage) microbatches of activations resident;
    // bound by the microbatch count.
    const int s = map.stage_of(l);
    const int resident =
        std::min(cfg_.num_microbatches, map.num_stages() - s);
    LayerMemo& slot = memo_slot(l);
    if (!same_state(slot.state, states[l])) {
      slot.state = states[l];
      slot.times_valid = false;
      slot.mem_valid = false;
    }
    if (!slot.mem_valid || slot.mem_resident != resident) {
      slot.mem_bytes = ref.layer_memory_bytes(
          model_->layers[l], states[l], cfg_.micro_batch,
          static_cast<std::size_t>(std::max(1, resident)));
      slot.mem_resident = resident;
      slot.mem_valid = true;
    }
    mem.push_back(slot.mem_bytes);
  }
  return mem;
}

StageCosts CostBuilder::build(std::span<const model::LayerState> states,
                              const StageMap& map,
                              const MicrobatchScaleFn& mb_scale) const {
  DYNMO_CHECK(states.size() == model_->num_layers(), "state count mismatch");
  const int S = map.num_stages();
  StageCosts costs(S, cfg_.num_microbatches);

  // Homogeneous hardware: every stage() is the reference model, so the
  // per-layer memo behind layer_times() answers directly (bit-identical —
  // it stores the very doubles the reference model produced).
  const bool homogeneous = !stage_costs_.per_stage();
  for (int s = 0; s < S; ++s) {
    // Each stage's compute is charged on the GPU actually hosting it.
    const model::LayerCostModel& lc = stage_costs_.stage(s);
    // Without a scale every microbatch costs the same: one left-to-right
    // sum per stage keeps the row at one value per kind.
    model::LayerTimes sum{};
    for (std::size_t l = map.stage_begin(s); l < map.stage_end(s); ++l) {
      const auto t =
          homogeneous
              ? ref_layer_times(l, states[l])
              : lc.layer_times(model_->layers[l], states[l], cfg_.micro_batch);
      if (!mb_scale) {
        sum.forward_s += t.forward_s;
        sum.backward_input_s += t.backward_input_s;
        sum.backward_weight_s += t.backward_weight_s;
        continue;
      }
      for (int mb = 0; mb < cfg_.num_microbatches; ++mb) {
        const double scale = std::max(0.0, mb_scale(l, mb));
        costs.fwd(s, mb) += t.forward_s * scale;
        costs.bwd_input(s, mb) += t.backward_input_s * scale;
        costs.bwd_weight(s, mb) += t.backward_weight_s * scale;
      }
    }
    if (!mb_scale) {
      costs.set_stage(s, sum.forward_s, sum.backward_input_s,
                      sum.backward_weight_s);
    }
  }

  // Inter-stage transfer: activations of the boundary layer, over the link
  // the two hosting ranks actually share.
  const model::LayerCostModel& ref = stage_costs_.reference();
  for (int s = 0; s + 1 < S; ++s) {
    double bytes = 0.0;
    if (map.stage_size(s) > 0) {
      const std::size_t boundary = map.stage_end(s) - 1;
      bytes = ref.activation_message_bytes(
          model_->layers[boundary], states[boundary], cfg_.micro_batch);
    } else if (map.num_layers() > 0) {
      // Empty stage forwards its input unchanged.
      const std::size_t prev = map.stage_begin(s) > 0 ? map.stage_begin(s) - 1 : 0;
      bytes = ref.activation_message_bytes(model_->layers[prev],
                                           states[prev],
                                           cfg_.micro_batch);
    }
    costs.send(s) = comm_costs_.p2p_time(rank_of_stage(s),
                                         rank_of_stage(s + 1),
                                         static_cast<std::size_t>(bytes));
  }
  return costs;
}

}  // namespace dynmo::pipeline
