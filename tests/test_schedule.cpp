// Unit and property tests for the pipeline-schedule simulator.
#include <gtest/gtest.h>

#include <numeric>

#include "core/rng.hpp"
#include "pipeline/schedule.hpp"
#include "stage_costs_util.hpp"

namespace dynmo::pipeline {
namespace {

StageCosts uniform_costs(int stages, int microbatches, double fwd,
                         double bwd_in, double bwd_w, double send = 0.0) {
  StageCosts c(stages, microbatches);
  for (int s = 0; s < stages; ++s) testing::set_stage(c, s, fwd, bwd_in, bwd_w);
  for (int s = 0; s + 1 < stages; ++s) c.send(s) = send;
  return c;
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
  for (int s = 0; s < 4; ++s) testing::set_stage(c, s, 1.0, 1.0, 1.0);
  testing::set_stage(c, 2, 3.0, 3.0, 3.0);  // hot stage
  const auto r = simulate(ScheduleKind::ZbH1, c);
  EXPECT_GT(r.avg_idleness(), 0.3);
  // The hot stage itself is the least idle.
  EXPECT_LT(r.idle_s[2], r.idle_s[0]);
  EXPECT_LT(r.idle_s[2], r.idle_s[3]);
}

TEST(Schedule, MakespanTracksBottleneck) {
  // With m >> S, makespan ≈ m * bottleneck stage time.
  StageCosts c(4, 128);
  for (int s = 0; s < 4; ++s) testing::set_stage(c, s, 0.5, 0.5, 0.0);
  testing::set_stage(c, 1, 1.0, 1.0, 0.0);
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

TEST(Schedule, EmptyStagePassesThrough) {
  StageCosts c(3, 4);
  testing::set_stage(c, 0, 1, 1, 1);
  testing::set_stage(c, 1, 0, 0, 0);  // re-packed-away worker
  testing::set_stage(c, 2, 1, 1, 1);
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
