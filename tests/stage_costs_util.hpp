// Test helpers for filling and summing pipeline::StageCosts.
#pragma once

#include "pipeline/schedule.hpp"

namespace dynmo::testing {

/// Fill all microbatches of stage `s` with constant costs.
inline void set_stage(pipeline::StageCosts& c, int s, double fwd_s,
                      double bwd_input_s, double bwd_weight_s) {
  for (int mb = 0; mb < c.num_microbatches(); ++mb) {
    c.fwd(s, mb) = fwd_s;
    c.bwd_input(s, mb) = bwd_input_s;
    c.bwd_weight(s, mb) = bwd_weight_s;
  }
}

/// Sum of every op duration across stages and microbatches.
inline double total_work(const pipeline::StageCosts& c) {
  double acc = 0.0;
  for (int s = 0; s < c.num_stages(); ++s) {
    for (int mb = 0; mb < c.num_microbatches(); ++mb) {
      acc += c.fwd(s, mb) + c.bwd_input(s, mb) + c.bwd_weight(s, mb);
    }
  }
  return acc;
}

}  // namespace dynmo::testing
