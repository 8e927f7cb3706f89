// Event-driven pipeline-schedule simulator.
//
// Given per-stage per-microbatch forward / backward-input / backward-weight
// times and inter-stage transfer times, this simulates one training
// iteration under GPipe, 1F1B, or an almost-zero-bubble (ZB-H1-like)
// schedule, and returns per-worker busy/idle accounting.  Bubble ratios and
// idleness percentages in the paper's Figures 1 and 3 are *measured* from
// these simulated timelines, exactly as the authors measure them from real
// pipeline executions.
//
// The ZB-H1 variant decouples weight-gradient work (W) from input-gradient
// work (B): W ops have no cross-stage consumer, so the scheduler slots them
// into what would otherwise be pipeline bubbles (Qi et al., ICLR'24).
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "core/error.hpp"

namespace dynmo::pipeline {

enum class ScheduleKind { GPipe, OneFOneB, ZbH1 };

/// Per-stage, per-microbatch costs for one iteration.
class StageCosts {
 public:
  StageCosts(int num_stages, int num_microbatches);

  int num_stages() const { return stages_; }
  int num_microbatches() const { return microbatches_; }

  double& fwd(int s, int mb) { return fwd_[index(s, mb)]; }
  double& bwd_input(int s, int mb) { return bwd_input_[index(s, mb)]; }
  double& bwd_weight(int s, int mb) { return bwd_weight_[index(s, mb)]; }
  double fwd(int s, int mb) const { return fwd_[index(s, mb)]; }
  double bwd_input(int s, int mb) const { return bwd_input_[index(s, mb)]; }
  double bwd_weight(int s, int mb) const { return bwd_weight_[index(s, mb)]; }

  /// Activation/gradient transfer time from stage s to s+1 (and back).
  double& send(int s) { return send_[static_cast<std::size_t>(s)]; }
  double send(int s) const { return send_[static_cast<std::size_t>(s)]; }

 private:
  std::size_t index(int s, int mb) const {
    DYNMO_ASSERT(s >= 0 && s < stages_ && mb >= 0 && mb < microbatches_,
                 "stage/microbatch out of range");
    return static_cast<std::size_t>(s) * static_cast<std::size_t>(microbatches_) +
           static_cast<std::size_t>(mb);
  }
  int stages_;
  int microbatches_;
  std::vector<double> fwd_, bwd_input_, bwd_weight_;
  std::vector<double> send_;
};

/// One simulated iteration's outcome.
struct PipelineResult {
  double makespan_s = 0.0;             ///< iteration wall-clock
  std::vector<double> busy_s;          ///< per-stage busy time
  std::vector<double> idle_s;          ///< per-stage idle time (makespan-busy)

  /// Mean over workers of idle/makespan — the paper's Fig. 1 metric.
  double avg_idleness() const;
  /// 1 − Σbusy / (S · makespan): fraction of the pipeline's GPU-seconds
  /// spent in bubbles.
  double bubble_ratio() const;
};

/// Optional per-op observer (used by pipeline::simulate_traced to build
/// Chrome traces): called once per executed op with its placement and
/// simulated timing.
using OpRecorder =
    std::function<void(int stage, int microbatch, char kind, double start_s,
                       double duration_s)>;

/// Simulate one iteration.  Stages with zero total cost (re-packed-away
/// workers) are skipped: they contribute neither work nor dependencies.
PipelineResult simulate(ScheduleKind kind, const StageCosts& costs,
                        const OpRecorder& recorder = {});

}  // namespace dynmo::pipeline
