// Dependency-driven pipeline-schedule simulator.
//
// Given per-stage per-microbatch forward / backward-input / backward-weight
// times and inter-stage transfer times, this simulates one training
// iteration under GPipe, 1F1B, or an almost-zero-bubble (ZB-H1-like)
// schedule, and returns per-worker busy/idle accounting.  Bubble ratios and
// idleness percentages in the paper's Figures 1 and 3 are *measured* from
// these simulated timelines, exactly as the authors measure them from real
// pipeline executions.
//
// Each stage runs its schedule's op order (kept as counters, not a list)
// as far as its cross-stage inputs have been simulated; a LIFO worklist
// revisits a stage only when a neighbour's F or B op unblocks it, so the
// number of stage visits is at most ops + 1.  Every op starts at
// max(stage clock, input arrival), so the timeline does not depend on the
// visiting order.
//
// The ZB-H1 variant decouples weight-gradient work (W) from input-gradient
// work (B): W ops have no cross-stage consumer, so the scheduler slots them
// into what would otherwise be pipeline bubbles (Qi et al., ICLR'24).
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "core/error.hpp"

namespace dynmo::pipeline {

enum class ScheduleKind { GPipe, OneFOneB, ZbH1 };

/// Per-stage, per-microbatch costs for one iteration.
///
/// A stage's row holds one value per op kind, shared by all microbatches,
/// until a caller takes a mutable per-microbatch reference (`fwd(s, mb)`
/// on a non-const object, and likewise for the other kinds).  That expands
/// the row to m values per kind, each a copy of the row's value.  A row's
/// m values are allocated once, on its first expansion, so a reference
/// returned by a mutable accessor stays valid for the life of the
/// StageCosts, whatever other rows do.  Const reads see exactly what was
/// written.  Callers whose costs are per stage use set_stage() and keep the
/// row at one value per kind.
class StageCosts {
 public:
  StageCosts(int num_stages, int num_microbatches);

  int num_stages() const { return stages_; }
  int num_microbatches() const { return microbatches_; }

  /// Set stage s's costs for every microbatch.  An expanded row stays
  /// expanded (its references stay valid) and takes the value in each
  /// microbatch.
  void set_stage(int s, double fwd, double bwd_input, double bwd_weight);

  /// Read-only view of one stage's row: kind k (0 fwd, 1 bwd_input,
  /// 2 bwd_weight) of microbatch mb is data[k * kind_stride + mb *
  /// mb_stride]; a row that was never expanded has mb_stride 0.
  struct RowView {
    const double* data;
    std::size_t kind_stride;
    std::size_t mb_stride;
    double at(std::size_t kind, int mb) const {
      return data[kind * kind_stride +
                  static_cast<std::size_t>(mb) * mb_stride];
    }
    double fwd(int mb) const { return at(0, mb); }
    double bwd_input(int mb) const { return at(1, mb); }
    double bwd_weight(int mb) const { return at(2, mb); }
  };
  RowView row(int s) const;

  double& fwd(int s, int mb) { return expanded(s, 0, mb); }
  double& bwd_input(int s, int mb) { return expanded(s, 1, mb); }
  double& bwd_weight(int s, int mb) { return expanded(s, 2, mb); }
  double fwd(int s, int mb) const { return read(s, 0, mb); }
  double bwd_input(int s, int mb) const { return read(s, 1, mb); }
  double bwd_weight(int s, int mb) const { return read(s, 2, mb); }

  /// Activation/gradient transfer time from stage s to s+1 (and back).
  double& send(int s) { return send_[static_cast<std::size_t>(s)]; }
  double send(int s) const { return send_[static_cast<std::size_t>(s)]; }

 private:
  struct Row {
    double value[3] = {0.0, 0.0, 0.0};  ///< fwd, bwd_input, bwd_weight
    /// Empty, or m fwd values, then m bwd_input, then m bwd_weight.
    std::vector<double> per_mb;
  };
  double read(int s, std::size_t kind, int mb) const {
    DYNMO_ASSERT(s >= 0 && s < stages_ && mb >= 0 && mb < microbatches_,
                 "stage/microbatch out of range");
    return row(s).at(kind, mb);
  }
  double& expanded(int s, std::size_t kind, int mb) {
    DYNMO_ASSERT(s >= 0 && s < stages_ && mb >= 0 && mb < microbatches_,
                 "stage/microbatch out of range");
    Row& r = rows_[static_cast<std::size_t>(s)];
    if (r.per_mb.empty()) expand(r);
    return r.per_mb[kind * static_cast<std::size_t>(microbatches_) +
                    static_cast<std::size_t>(mb)];
  }
  /// Allocate a row's m values per kind and fill them from its values.
  void expand(Row& r) const;
  /// Copy a row's values into each of its allocated microbatches.
  void spread(Row& r) const;

  int stages_;
  int microbatches_;
  std::vector<Row> rows_;
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
/// simulated timing.  Each stage's ops arrive in that stage's execution
/// order; ops of different stages may interleave in any order.
using OpRecorder =
    std::function<void(int stage, int microbatch, char kind, double start_s,
                       double duration_s)>;

/// Simulate one iteration.  Every stage runs its full schedule, including
/// stages with zero total cost (re-packed-away workers): such a stage
/// does no work, but it still relays each F and B op to its neighbours
/// through its send costs, and it counts as fully idle in avg_idleness()
/// and bubble_ratio().  Throws dynmo::Error if the schedule deadlocks.
PipelineResult simulate(ScheduleKind kind, const StageCosts& costs,
                        const OpRecorder& recorder = {});

}  // namespace dynmo::pipeline
