// Unit and property tests for the pipeline-schedule simulator.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <tuple>
#include <utility>
#include <vector>

#include "core/rng.hpp"
#include "pipeline/schedule.hpp"
#include "schedule_oracle.hpp"
#include "stage_costs_util.hpp"

namespace dynmo::pipeline {
namespace {

StageCosts uniform_costs(int stages, int microbatches, double fwd,
                         double bwd_in, double bwd_w, double send = 0.0) {
  StageCosts c(stages, microbatches);
  for (int s = 0; s < stages; ++s) c.set_stage(s, fwd, bwd_in, bwd_w);
  for (int s = 0; s + 1 < stages; ++s) c.send(s) = send;
  return c;
}

TEST(StageCosts, MutableWriteExpandsUniformRowWithItsValues) {
  StageCosts c(2, 4);
  c.set_stage(0, 1.0, 2.0, 3.0);
  c.set_stage(1, 4.0, 5.0, 6.0);
  EXPECT_EQ(c.row(0).mb_stride, 0u);
  c.fwd(0, 2) = 7.0;
  EXPECT_EQ(c.row(0).mb_stride, 1u);  // row 0 expanded ...
  EXPECT_EQ(c.row(1).mb_stride, 0u);  // ... row 1 did not
  const StageCosts& cc = c;
  for (int mb = 0; mb < 4; ++mb) {
    EXPECT_EQ(cc.fwd(0, mb), mb == 2 ? 7.0 : 1.0);
    EXPECT_EQ(cc.bwd_input(0, mb), 2.0);
    EXPECT_EQ(cc.bwd_weight(0, mb), 3.0);
    EXPECT_EQ(cc.fwd(1, mb), 4.0);
    EXPECT_EQ(cc.bwd_input(1, mb), 5.0);
    EXPECT_EQ(cc.bwd_weight(1, mb), 6.0);
  }
}

TEST(StageCosts, ReferencesStayValidWhileOtherRowsExpand) {
  StageCosts c(64, 8);
  double& ref = c.bwd_weight(3, 5);
  ref = 1.5;
  for (int s = 0; s < 64; ++s) c.fwd(s, s % 8) = s;  // expand every row
  c.set_stage(3, 9.0, 9.0, 9.0);  // keeps row 3's storage
  EXPECT_EQ(&ref, &c.bwd_weight(3, 5));
  EXPECT_EQ(ref, 9.0);
  ref = 2.5;
  const StageCosts& cc = c;
  EXPECT_EQ(cc.bwd_weight(3, 5), 2.5);
  EXPECT_EQ(cc.bwd_weight(3, 4), 9.0);
  EXPECT_EQ(cc.fwd(63, 7), 63.0);
}

TEST(StageCosts, ConstReadsAgreeWithWrites) {
  // Random set_stage calls and per-microbatch writes against a dense
  // shadow table.
  Rng rng(11);
  const int S = 9;
  const int m = 13;
  StageCosts c(S, m);
  std::vector<double> shadow(static_cast<std::size_t>(3 * S * m), 0.0);
  const auto at = [&](int kind, int s, int mb) -> double& {
    return shadow[static_cast<std::size_t>((kind * S + s) * m + mb)];
  };
  for (int i = 0; i < 400; ++i) {
    const auto s = static_cast<int>(rng.uniform_int(S));
    const double v = rng.uniform(0.0, 1.0);
    if (rng.bernoulli(0.2)) {
      c.set_stage(s, v, 2 * v, 3 * v);
      for (int mb = 0; mb < m; ++mb) {
        at(0, s, mb) = v;
        at(1, s, mb) = 2 * v;
        at(2, s, mb) = 3 * v;
      }
      continue;
    }
    const auto mb = static_cast<int>(rng.uniform_int(m));
    switch (rng.uniform_int(3)) {
      case 0: c.fwd(s, mb) = at(0, s, mb) = v; break;
      case 1: c.bwd_input(s, mb) = at(1, s, mb) = v; break;
      default: c.bwd_weight(s, mb) = at(2, s, mb) = v; break;
    }
    const StageCosts& cc = c;
    for (int t = 0; t < S; ++t) {
      for (int k = 0; k < m; ++k) {
        ASSERT_EQ(cc.fwd(t, k), at(0, t, k)) << i;
        ASSERT_EQ(cc.bwd_input(t, k), at(1, t, k)) << i;
        ASSERT_EQ(cc.bwd_weight(t, k), at(2, t, k)) << i;
        ASSERT_EQ(cc.row(t).bwd_input(k), at(1, t, k)) << i;
      }
    }
  }
}

TEST(Schedule, SingleStageIsSumOfWork) {
  const auto c = uniform_costs(1, 4, 1.0, 1.0, 1.0);
  for (auto kind : {ScheduleKind::GPipe, ScheduleKind::OneFOneB,
                    ScheduleKind::ZbH1}) {
    const auto r = simulate(kind, c);
    EXPECT_DOUBLE_EQ(r.makespan_s, 12.0) << static_cast<int>(kind);
    EXPECT_DOUBLE_EQ(r.busy_s[0], 12.0);
    EXPECT_DOUBLE_EQ(r.avg_idleness(), 0.0);
  }
}

TEST(Schedule, BusyEqualsTotalWork) {
  Rng rng(5);
  StageCosts c(4, 8);
  for (int s = 0; s < 4; ++s) {
    for (int mb = 0; mb < 8; ++mb) {
      c.fwd(s, mb) = rng.uniform(0.5, 2.0);
      c.bwd_input(s, mb) = rng.uniform(0.5, 2.0);
      c.bwd_weight(s, mb) = rng.uniform(0.5, 2.0);
    }
  }
  for (auto kind : {ScheduleKind::GPipe, ScheduleKind::OneFOneB,
                    ScheduleKind::ZbH1}) {
    const auto r = simulate(kind, c);
    const double busy =
        std::accumulate(r.busy_s.begin(), r.busy_s.end(), 0.0);
    EXPECT_NEAR(busy, testing::total_work(c), 1e-9) << static_cast<int>(kind);
    EXPECT_GE(r.makespan_s, testing::total_work(c) / 4.0);
  }
}

TEST(Schedule, BubbleOrderingGPipeWorst) {
  // Balanced stages, m = S: GPipe >= 1F1B >= ZB-H1 in bubble ratio.
  const auto c = uniform_costs(8, 8, 1.0, 1.0, 1.0, 0.0);
  const auto gpipe = simulate(ScheduleKind::GPipe, c);
  const auto f1b1 = simulate(ScheduleKind::OneFOneB, c);
  const auto zb = simulate(ScheduleKind::ZbH1, c);
  EXPECT_GE(gpipe.bubble_ratio(), f1b1.bubble_ratio() - 1e-9);
  EXPECT_GE(f1b1.bubble_ratio(), zb.bubble_ratio() - 1e-9);
  EXPECT_GT(zb.bubble_ratio(), 0.0);  // wind-up can never fully vanish
}

TEST(Schedule, ManyMicrobatchesShrinkBubble) {
  const auto small = simulate(ScheduleKind::OneFOneB,
                              uniform_costs(4, 4, 1, 1, 1));
  const auto large = simulate(ScheduleKind::OneFOneB,
                              uniform_costs(4, 64, 1, 1, 1));
  EXPECT_LT(large.bubble_ratio(), small.bubble_ratio());
  EXPECT_LT(large.bubble_ratio(), 0.10);
}

TEST(Schedule, ZeroBubbleFillsWithWeightGrad) {
  // With wgrad split out, ZB-H1 strictly beats 1F1B on the same costs.
  const auto c = uniform_costs(8, 16, 1.0, 1.0, 1.0);
  const auto f1b1 = simulate(ScheduleKind::OneFOneB, c);
  const auto zb = simulate(ScheduleKind::ZbH1, c);
  EXPECT_LT(zb.bubble_ratio(), f1b1.bubble_ratio());
}

TEST(Schedule, ImbalanceCreatesIdleness) {
  StageCosts c(4, 16);
  for (int s = 0; s < 4; ++s) c.set_stage(s, 1.0, 1.0, 1.0);
  c.set_stage(2, 3.0, 3.0, 3.0);  // hot stage
  const auto r = simulate(ScheduleKind::ZbH1, c);
  EXPECT_GT(r.avg_idleness(), 0.3);
  // The hot stage itself is the least idle.
  EXPECT_LT(r.idle_s[2], r.idle_s[0]);
  EXPECT_LT(r.idle_s[2], r.idle_s[3]);
}

TEST(Schedule, MakespanTracksBottleneck) {
  // With m >> S, makespan ≈ m * bottleneck stage time.
  StageCosts c(4, 128);
  for (int s = 0; s < 4; ++s) c.set_stage(s, 0.5, 0.5, 0.0);
  c.set_stage(1, 1.0, 1.0, 0.0);
  const auto r = simulate(ScheduleKind::OneFOneB, c);
  EXPECT_NEAR(r.makespan_s, 128.0 * 2.0, 0.1 * 128.0 * 2.0);
}

TEST(Schedule, CommDelayAddsToMakespan) {
  const auto base =
      simulate(ScheduleKind::OneFOneB, uniform_costs(4, 8, 1, 1, 1, 0.0));
  const auto slow =
      simulate(ScheduleKind::OneFOneB, uniform_costs(4, 8, 1, 1, 1, 0.5));
  EXPECT_GT(slow.makespan_s, base.makespan_s);
}

TEST(Schedule, EmptyLastStageStillRelaysOps) {
  // Stage 2 has no work, but its F and B ops still run (in zero time) and
  // relay through both sends.  By hand, 1F1B with F = 1, B+W = 2, send
  // 0.5: stage 1 finishes F0/F1 at 2.5/3.5, so stage 2 relays B0/B1 at
  // 3.0/4.0; stage 1 runs B0 3.5-5.5 and B1 5.5-7.5; stage 0 runs B0 6-8
  // and B1 8-10.
  StageCosts c(3, 2);
  c.set_stage(0, 1, 1, 1);
  c.set_stage(1, 1, 1, 1);
  c.send(0) = 0.5;
  c.send(1) = 0.5;
  const auto r = simulate(ScheduleKind::OneFOneB, c);
  EXPECT_EQ(r.makespan_s, 10.0);
  EXPECT_EQ(r.busy_s, (std::vector<double>{6.0, 6.0, 0.0}));
  EXPECT_EQ(r.idle_s, (std::vector<double>{4.0, 4.0, 10.0}));
  // The empty stage counts as a fully idle worker.
  EXPECT_DOUBLE_EQ(r.avg_idleness(), 0.6);
  EXPECT_DOUBLE_EQ(r.bubble_ratio(), 0.6);
}

TEST(Schedule, EmptyStagePassesThrough) {
  StageCosts c(3, 4);
  c.set_stage(0, 1, 1, 1);
  c.set_stage(1, 0, 0, 0);  // re-packed-away worker
  c.set_stage(2, 1, 1, 1);
  const auto r = simulate(ScheduleKind::OneFOneB, c);
  EXPECT_DOUBLE_EQ(r.busy_s[1], 0.0);
  // Work must still complete on the other stages.
  EXPECT_NEAR(r.busy_s[0], 4 * 3.0, 1e-9);
  EXPECT_NEAR(r.busy_s[2], 4 * 3.0, 1e-9);
}

TEST(Schedule, PerMicrobatchVariationHandled) {
  StageCosts c(2, 4);
  for (int mb = 0; mb < 4; ++mb) {
    c.fwd(0, mb) = 1.0 + mb;
    c.bwd_input(0, mb) = 1.0;
    c.fwd(1, mb) = 1.0;
    c.bwd_input(1, mb) = 1.0 + mb;
  }
  const auto r = simulate(ScheduleKind::OneFOneB, c);
  EXPECT_NEAR(std::accumulate(r.busy_s.begin(), r.busy_s.end(), 0.0),
              testing::total_work(c), 1e-9);
}

/// One recorded op, in the order its stage ran it.
struct Event {
  int mb;
  char kind;
  double start_s;
  double duration_s;
  bool operator==(const Event&) const = default;
};

using StageEvents = std::vector<std::vector<Event>>;

OpRecorder record_into(StageEvents& events) {
  return [&events](int s, int mb, char kind, double start, double dur) {
    events[static_cast<std::size_t>(s)].push_back({mb, kind, start, dur});
  };
}

/// A seeded corpus case: S and m log-uniform in [1, 256], each stage a
/// uniform row, a dense row, a uniform row with a few microbatches
/// rewritten, or an empty stage; sends all zero, all drawn, or mixed.
/// Half the cases draw costs from a coarse grid, so that an op's input
/// often arrives exactly when its stage frees up and a deferred W often
/// fits a bubble exactly.
StageCosts corpus_case(Rng& rng, int stages, int microbatches) {
  const bool coarse = rng.bernoulli(0.5);
  const auto cost = [&] {
    return coarse ? 0.5 * static_cast<double>(rng.uniform_int(5))
                  : rng.uniform(0.1, 1.0);
  };
  StageCosts c(stages, microbatches);
  for (int s = 0; s < stages; ++s) {
    switch (rng.uniform_int(4)) {
      case 0:  // uniform
        c.set_stage(s, cost(), cost(), cost());
        break;
      case 1:  // dense
        for (int mb = 0; mb < microbatches; ++mb) {
          c.fwd(s, mb) = cost();
          c.bwd_input(s, mb) = cost();
          c.bwd_weight(s, mb) = cost();
        }
        break;
      case 2: {  // mixed: a uniform row with a few microbatches rewritten
        c.set_stage(s, cost(), cost(), cost());
        const auto writes = 1 + rng.uniform_int(3);
        for (std::uint64_t i = 0; i < writes; ++i) {
          const auto mb = static_cast<int>(
              rng.uniform_int(static_cast<std::uint64_t>(microbatches)));
          c.fwd(s, mb) = cost();
          c.bwd_weight(s, mb) = cost();
        }
        break;
      }
      default:  // empty: a re-packed-away worker
        c.set_stage(s, 0.0, 0.0, 0.0);
        break;
    }
  }
  const auto sends = rng.uniform_int(3);  // 0 zero, 1 drawn, 2 mixed
  for (int s = 0; s + 1 < stages; ++s) {
    c.send(s) = sends == 0 || (sends == 2 && rng.bernoulli(0.5))
                    ? 0.0
                    : 0.1 * cost();
  }
  return c;
}

TEST(Schedule, MatchesSweepOracleOnSeededCorpus) {
  Rng rng(2026);
  const auto log_uniform_256 = [&] {
    return static_cast<int>(std::exp2(rng.uniform(0.0, 8.0)));
  };
  std::vector<std::pair<int, int>> shapes = {
      {1, 1}, {1, 256}, {256, 1}, {256, 256}, {2, 3}, {3, 2}};
  while (shapes.size() < 100) {
    shapes.emplace_back(log_uniform_256(), log_uniform_256());
  }
  int checked = 0;
  for (const auto& [stages, microbatches] : shapes) {
    const StageCosts c = corpus_case(rng, stages, microbatches);
    for (auto kind : {ScheduleKind::GPipe, ScheduleKind::OneFOneB,
                      ScheduleKind::ZbH1}) {
      SCOPED_TRACE(::testing::Message()
                   << "case " << checked << ": kind "
                   << static_cast<int>(kind) << ", S " << stages << ", m "
                   << microbatches);
      StageEvents got(static_cast<std::size_t>(stages));
      StageEvents want(static_cast<std::size_t>(stages));
      const auto r = simulate(kind, c, record_into(got));
      const auto o = testing::simulate_sweep(kind, c, record_into(want));
      EXPECT_EQ(r.makespan_s, o.makespan_s);
      EXPECT_EQ(r.busy_s, o.busy_s);
      EXPECT_EQ(r.idle_s, o.idle_s);
      for (int s = 0; s < stages; ++s) {
        ASSERT_EQ(got[static_cast<std::size_t>(s)],
                  want[static_cast<std::size_t>(s)])
            << "stage " << s;
      }
      // The recorder must not change the timeline.
      const auto plain = simulate(kind, c);
      EXPECT_EQ(plain.makespan_s, r.makespan_s);
      EXPECT_EQ(plain.busy_s, r.busy_s);
      ++checked;
    }
  }
  EXPECT_EQ(checked, 300);
}

class ScheduleSweep
    : public ::testing::TestWithParam<std::tuple<ScheduleKind, int, int>> {};

TEST_P(ScheduleSweep, NoDeadlockAndSaneAccounting) {
  const auto [kind, stages, microbatches] = GetParam();
  Rng rng(static_cast<std::uint64_t>(stages * 100 + microbatches));
  StageCosts c(stages, microbatches);
  for (int s = 0; s < stages; ++s) {
    for (int mb = 0; mb < microbatches; ++mb) {
      c.fwd(s, mb) = rng.uniform(0.1, 1.0);
      c.bwd_input(s, mb) = rng.uniform(0.1, 1.0);
      c.bwd_weight(s, mb) = rng.uniform(0.1, 1.0);
    }
  }
  for (int s = 0; s + 1 < stages; ++s) c.send(s) = rng.uniform(0.0, 0.05);
  const auto r = simulate(kind, c);
  EXPECT_GT(r.makespan_s, 0.0);
  EXPECT_EQ(static_cast<int>(r.busy_s.size()), stages);
  const double busy = std::accumulate(r.busy_s.begin(), r.busy_s.end(), 0.0);
  EXPECT_NEAR(busy, testing::total_work(c), 1e-6);
  for (int s = 0; s < stages; ++s) {
    EXPECT_GE(r.idle_s[static_cast<std::size_t>(s)], -1e-9);
    EXPECT_LE(r.busy_s[static_cast<std::size_t>(s)], r.makespan_s + 1e-9);
  }
  EXPECT_GE(r.bubble_ratio(), -1e-9);
  EXPECT_LT(r.bubble_ratio(), 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ScheduleSweep,
    ::testing::Combine(::testing::Values(ScheduleKind::GPipe,
                                         ScheduleKind::OneFOneB,
                                         ScheduleKind::ZbH1),
                       ::testing::Values(1, 2, 3, 8, 16),
                       ::testing::Values(1, 2, 8, 32)));

}  // namespace
}  // namespace dynmo::pipeline
