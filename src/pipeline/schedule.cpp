#include "pipeline/schedule.hpp"

#include <algorithm>
#include <memory>
#include <numeric>

namespace dynmo::pipeline {

StageCosts::StageCosts(int num_stages, int num_microbatches)
    : stages_(num_stages), microbatches_(num_microbatches) {
  DYNMO_CHECK(num_stages > 0 && num_microbatches > 0,
              "stages/microbatches must be positive");
  rows_.resize(static_cast<std::size_t>(num_stages));
  send_.assign(static_cast<std::size_t>(num_stages - 1), 0.0);
}

void StageCosts::set_stage(int s, double fwd, double bwd_input,
                           double bwd_weight) {
  DYNMO_ASSERT(s >= 0 && s < stages_, "stage out of range");
  Row& r = rows_[static_cast<std::size_t>(s)];
  r.value[0] = fwd;
  r.value[1] = bwd_input;
  r.value[2] = bwd_weight;
  if (!r.per_mb.empty()) spread(r);
}

StageCosts::RowView StageCosts::row(int s) const {
  const Row& r = rows_[static_cast<std::size_t>(s)];
  if (r.per_mb.empty()) return {r.value, 1, 0};
  return {r.per_mb.data(), static_cast<std::size_t>(microbatches_), 1};
}

void StageCosts::expand(Row& r) const {
  r.per_mb.resize(3 * static_cast<std::size_t>(microbatches_));
  spread(r);
}

void StageCosts::spread(Row& r) const {
  const auto m = static_cast<std::ptrdiff_t>(microbatches_);
  for (std::ptrdiff_t k = 0; k < 3; ++k) {
    std::fill_n(r.per_mb.begin() + k * m, m, r.value[k]);
  }
}

double PipelineResult::avg_idleness() const {
  if (busy_s.empty() || makespan_s <= 0.0) return 0.0;
  double acc = 0.0;
  for (double idle : idle_s) acc += idle / makespan_s;
  return acc / static_cast<double>(idle_s.size());
}

double PipelineResult::bubble_ratio() const {
  if (busy_s.empty() || makespan_s <= 0.0) return 0.0;
  const double busy_total =
      std::accumulate(busy_s.begin(), busy_s.end(), 0.0);
  return 1.0 - busy_total /
                   (makespan_s * static_cast<double>(busy_s.size()));
}

namespace {

/// simulate() with the recorder test resolved at compile time: without
/// calls in the op loop, its running times stay in registers.
template <bool kRecord>
PipelineResult simulate_ops(ScheduleKind kind, const StageCosts& costs,
                            const OpRecorder& recorder) {
  const int S = costs.num_stages();
  const int m = costs.num_microbatches();
  const bool gpipe = (kind == ScheduleKind::GPipe);
  const bool split_wgrad = (kind == ScheduleKind::ZbH1);

  // A stage's program is implicit in its counters.  It runs `warmup` F
  // ops, then alternates F and B until every F has run, then runs the
  // remaining Bs.  GPipe is warmup = m with its Bs in reverse microbatch
  // order; 1F1B and ZB-H1 run their Bs in microbatch order.  GPipe and
  // 1F1B fuse the weight-gradient work into B.  ZB-H1 defers it: the W ops
  // of microbatches [next_w, nb) wait to fill bubbles, in microbatch order.
  struct Stage {
    int nf = 0;  ///< F ops done; the next F is microbatch nf
    int nb = 0;  ///< B ops done
    int next_w = 0;
    bool queued = false;
    double time = 0.0;
    double busy = 0.0;
  };
  std::vector<Stage> st(static_cast<std::size_t>(S));

  // Finish times, by op index: stage s's i-th F at done[2ms + i], its i-th
  // B at done[2ms + m + i].  The k-th B of neighbouring stages is the same
  // microbatch in every schedule.  One uninitialized allocation: an entry
  // is read only after the counters show that it was written.
  const auto mu = static_cast<std::size_t>(m);
  const auto done = std::make_unique_for_overwrite<double[]>(
      2 * mu * static_cast<std::size_t>(S));
  const auto f_done = [&](int s) {
    return &done[2 * mu * static_cast<std::size_t>(s)];
  };
  const auto b_done = [&](int s) { return f_done(s) + mu; };

  // Only stage 0's first F has no cross-stage input; every other stage is
  // queued when a neighbour's op unblocks it.
  std::vector<int> work{0};
  work.reserve(static_cast<std::size_t>(S));
  st[0].queued = true;
  const auto wake = [&](int s) {
    if (!st[static_cast<std::size_t>(s)].queued) {
      st[static_cast<std::size_t>(s)].queued = true;
      work.push_back(s);
    }
  };

  while (!work.empty()) {
    const int s = work.back();
    work.pop_back();
    Stage& run = st[static_cast<std::size_t>(s)];
    run.queued = false;
    // A visit changes only this stage, so the inputs its neighbours have
    // produced are fixed for the whole visit: Fs [0, f_in) and Bs
    // [0, b_in).  Stage 0's Fs and the last stage's Bs have no
    // cross-stage input.
    const bool first = s == 0;
    const bool last = s == S - 1;
    const int f_in = first ? m : st[static_cast<std::size_t>(s - 1)].nf;
    const int b_in = last ? m : st[static_cast<std::size_t>(s + 1)].nb;
    const double* f_src = first ? nullptr : f_done(s - 1);
    const double* b_src = last ? nullptr : b_done(s + 1);
    const double f_send = first ? 0.0 : costs.send(s - 1);
    const double b_send = last ? 0.0 : costs.send(s);
    double* f_out = f_done(s);
    double* b_out = b_done(s);
    const StageCosts::RowView row = costs.row(s);
    const int warmup = gpipe ? m : std::min(m, S - 1 - s);
    int nf = run.nf;
    int nb = run.nb;
    int next_w = run.next_w;
    double time = run.time;
    double busy = run.busy;
    while (nb < m) {
      // Earliest start on this stage; stop if the input is not simulated.
      const bool is_f = nf < m && (nf < warmup || nf - warmup == nb);
      int mb;
      double ready;
      if (is_f) {
        if (nf >= f_in) break;
        mb = nf;
        ready = first ? 0.0 : f_src[mb] + f_send;
      } else {
        if (nb >= b_in) break;
        mb = gpipe ? m - 1 - nb : nb;
        // The last stage's B follows its own F of that microbatch.
        ready = last ? f_out[mb] : b_src[nb] + b_send;
      }
      // ZB-H1: before stalling until `ready`, fill the bubble with any
      // deferred weight-gradient work that fits entirely inside it.
      if (split_wgrad && ready > time) {
        for (; next_w < nb; ++next_w) {
          const double wdur = row.bwd_weight(next_w);
          if (time + wdur > ready) break;
          if constexpr (kRecord) recorder(s, next_w, 'W', time, wdur);
          time += wdur;
          busy += wdur;
        }
      }
      const double start = std::max(time, ready);
      const double dur = is_f          ? row.fwd(mb)
                         : split_wgrad ? row.bwd_input(mb)
                                       : row.bwd_input(mb) + row.bwd_weight(mb);
      if constexpr (kRecord) recorder(s, mb, is_f ? 'F' : 'B', start, dur);
      time = start + dur;
      busy += dur;
      if (is_f) {
        f_out[nf++] = time;
      } else {
        b_out[nb++] = time;
      }
    }
    // Finishing an F can unblock the next stage; finishing a B, the
    // previous one.
    const bool f_moved = nf > run.nf;
    const bool b_moved = nb > run.nb;
    run.nf = nf;
    run.nb = nb;
    run.next_w = next_w;
    run.time = time;
    run.busy = busy;
    if (!last && f_moved) wake(s + 1);
    if (!first && b_moved) wake(s - 1);
  }

  // Drain leftover weight-gradient work (must finish before the optimizer
  // step at iteration end).
  PipelineResult res;
  for (int s = 0; s < S; ++s) {
    auto& run = st[static_cast<std::size_t>(s)];
    DYNMO_CHECK(run.nb == m, "pipeline deadlock at stage "
                                 << s << ": op " << run.nf + run.nb << '/'
                                 << 2 * m);
    for (; split_wgrad && run.next_w < m; ++run.next_w) {
      const double wdur = costs.row(s).bwd_weight(run.next_w);
      if constexpr (kRecord) recorder(s, run.next_w, 'W', run.time, wdur);
      run.time += wdur;
      run.busy += wdur;
    }
    res.makespan_s = std::max(res.makespan_s, run.time);
  }
  res.busy_s.reserve(st.size());
  res.idle_s.reserve(st.size());
  for (const auto& run : st) {
    res.busy_s.push_back(run.busy);
    res.idle_s.push_back(res.makespan_s - run.busy);
  }
  return res;
}

}  // namespace

PipelineResult simulate(ScheduleKind kind, const StageCosts& costs,
                        const OpRecorder& recorder) {
  return recorder ? simulate_ops<true>(kind, costs, recorder)
                  : simulate_ops<false>(kind, costs, recorder);
}

}  // namespace dynmo::pipeline
