// Test helper for summing pipeline::StageCosts.
#pragma once

#include "pipeline/schedule.hpp"

namespace dynmo::testing {

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
