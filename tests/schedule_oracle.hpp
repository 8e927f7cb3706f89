// Sweep oracle for pipeline::simulate, on public API only.
//
// This is the simulator as first written: each stage gets an explicit op
// list, and every pass sweeps all S stages in order, running each as far
// as its cross-stage inputs allow, until a pass makes no progress.  ZB-H1
// keeps its deferred weight-gradient work in a queue.  The dependency-
// driven simulate() must agree with it bit for bit on the makespan, on
// every stage's busy and idle time, and on each stage's sequence of
// recorded ops (test_schedule.cpp).
#pragma once

#include <algorithm>
#include <cstddef>
#include <deque>
#include <vector>

#include "core/error.hpp"
#include "pipeline/schedule.hpp"

namespace dynmo::testing {

namespace sweep_detail {

enum class OpKind { F, B, W };

struct Op {
  OpKind kind;
  int mb;
};

/// Per-stage op order for the requested schedule.  For GPipe and 1F1B the
/// backward-weight work is fused into B; ZB-H1 defers it (W ops are not in
/// the program).
inline std::vector<Op> stage_program(pipeline::ScheduleKind kind, int s,
                                     int num_stages, int m) {
  std::vector<Op> ops;
  switch (kind) {
    case pipeline::ScheduleKind::GPipe: {
      for (int i = 0; i < m; ++i) ops.push_back({OpKind::F, i});
      for (int i = m - 1; i >= 0; --i) ops.push_back({OpKind::B, i});
      break;
    }
    case pipeline::ScheduleKind::OneFOneB:
    case pipeline::ScheduleKind::ZbH1: {
      const int warmup = std::min(m, num_stages - 1 - s);
      int f = 0;
      int b = 0;
      for (int i = 0; i < warmup; ++i) ops.push_back({OpKind::F, f++});
      while (f < m) {
        ops.push_back({OpKind::F, f++});
        ops.push_back({OpKind::B, b++});
      }
      while (b < m) ops.push_back({OpKind::B, b++});
      break;
    }
  }
  return ops;
}

}  // namespace sweep_detail

inline pipeline::PipelineResult simulate_sweep(
    pipeline::ScheduleKind kind, const pipeline::StageCosts& costs,
    const pipeline::OpRecorder& recorder = {}) {
  using sweep_detail::Op;
  using sweep_detail::OpKind;
  const int S = costs.num_stages();
  const int m = costs.num_microbatches();
  const bool split_wgrad = (kind == pipeline::ScheduleKind::ZbH1);

  // done[s][mb] for F and B; -1 = not yet executed.
  const auto idx = [m](int s, int mb) {
    return static_cast<std::size_t>(s) * static_cast<std::size_t>(m) +
           static_cast<std::size_t>(mb);
  };
  std::vector<double> f_done(static_cast<std::size_t>(S) * m, -1.0);
  std::vector<double> b_done(static_cast<std::size_t>(S) * m, -1.0);

  struct StageRun {
    std::vector<Op> program;
    std::size_t next = 0;
    double time = 0.0;
    double busy = 0.0;
    std::deque<int> pending_w;  // microbatches with deferred wgrad (ZB)
  };
  std::vector<StageRun> runs(static_cast<std::size_t>(S));
  for (int s = 0; s < S; ++s) {
    runs[static_cast<std::size_t>(s)].program =
        sweep_detail::stage_program(kind, s, S, m);
  }

  const double kNotReady = -1.0;
  // Earliest time the op may *start* on its stage; kNotReady if the
  // cross-stage dependency has not been simulated yet.
  const auto ready_time = [&](int s, const Op& op) -> double {
    switch (op.kind) {
      case OpKind::F: {
        if (s == 0) return 0.0;
        const double dep = f_done[idx(s - 1, op.mb)];
        return dep < 0.0 ? kNotReady : dep + costs.send(s - 1);
      }
      case OpKind::B: {
        if (s == S - 1) {
          const double dep = f_done[idx(s, op.mb)];
          return dep < 0.0 ? kNotReady : dep;
        }
        const double dep = b_done[idx(s + 1, op.mb)];
        return dep < 0.0 ? kNotReady : dep + costs.send(s);
      }
      case OpKind::W: return 0.0;  // same-stage order guarantees B done
    }
    return kNotReady;
  };

  const auto duration = [&](int s, const Op& op) -> double {
    switch (op.kind) {
      case OpKind::F: return costs.fwd(s, op.mb);
      case OpKind::B:
        return split_wgrad ? costs.bwd_input(s, op.mb)
                           : costs.bwd_input(s, op.mb) +
                                 costs.bwd_weight(s, op.mb);
      case OpKind::W: return costs.bwd_weight(s, op.mb);
    }
    return 0.0;
  };

  bool progress = true;
  while (progress) {
    progress = false;
    for (int s = 0; s < S; ++s) {
      auto& run = runs[static_cast<std::size_t>(s)];
      while (run.next < run.program.size()) {
        const Op op = run.program[run.next];
        const double ready = ready_time(s, op);
        if (ready == kNotReady) {
          break;  // dependency not simulated yet: revisit next pass
        }
        // ZB-H1: before stalling until `ready`, fill the bubble with any
        // deferred weight-gradient work that fits entirely inside it.
        if (split_wgrad && ready > run.time) {
          while (!run.pending_w.empty()) {
            const int wmb = run.pending_w.front();
            const double wdur = costs.bwd_weight(s, wmb);
            if (run.time + wdur > ready) break;
            if (recorder) recorder(s, wmb, 'W', run.time, wdur);
            run.time += wdur;
            run.busy += wdur;
            run.pending_w.pop_front();
          }
        }
        const double start = std::max(run.time, ready);
        const double dur = duration(s, op);
        if (recorder) {
          recorder(s, op.mb, op.kind == OpKind::F ? 'F' : 'B', start, dur);
        }
        run.time = start + dur;
        run.busy += dur;
        if (op.kind == OpKind::F) {
          f_done[idx(s, op.mb)] = run.time;
        } else if (op.kind == OpKind::B) {
          b_done[idx(s, op.mb)] = run.time;
          if (split_wgrad) run.pending_w.push_back(op.mb);
        }
        ++run.next;
        progress = true;
      }
    }
  }

  // Drain leftover weight-gradient work (must finish before the optimizer
  // step at iteration end).
  for (int s = 0; s < S; ++s) {
    auto& run = runs[static_cast<std::size_t>(s)];
    DYNMO_CHECK(run.next == run.program.size(),
                "pipeline deadlock at stage " << s << ": op " << run.next
                                              << '/' << run.program.size());
    while (!run.pending_w.empty()) {
      const double wdur = costs.bwd_weight(s, run.pending_w.front());
      if (recorder) recorder(s, run.pending_w.front(), 'W', run.time, wdur);
      run.time += wdur;
      run.busy += wdur;
      run.pending_w.pop_front();
    }
  }

  pipeline::PipelineResult res;
  for (const auto& run : runs) {
    res.makespan_s = std::max(res.makespan_s, run.time);
  }
  res.busy_s.reserve(runs.size());
  res.idle_s.reserve(runs.size());
  for (const auto& run : runs) {
    res.busy_s.push_back(run.busy);
    res.idle_s.push_back(res.makespan_s - run.busy);
  }
  return res;
}

}  // namespace dynmo::testing
