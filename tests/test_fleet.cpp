// Fleet arbiter (docs/FLEET.md): weighted max-min fairness, the
// deterministic event clock, the session stepping API the arbiter drives,
// and the full multi-tenant loop — admission to fair shares, priority
// preemption through the checkpoint-coordinated shrink path, and the
// fleet_decisions telemetry the verdicts leave behind.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>

#include "core/error.hpp"
#include "fleet/arbiter.hpp"
#include "fleet/clock.hpp"
#include "fleet/fairness.hpp"
#include "model/layer.hpp"
#include "runtime/session.hpp"
#include "telemetry/trace_reader.hpp"

namespace dynmo {
namespace {

// ---------------------------------------------------------------- fairness

TEST(FleetFairness, SplitsEvenlyWithEqualWeights) {
  const fleet::ShareClaim c{1.0, 2, 16};
  const std::vector<fleet::ShareClaim> claims = {c, c};
  const auto s = fleet::weighted_max_min_shares(16, claims);
  EXPECT_EQ(s[0], 8);
  EXPECT_EQ(s[1], 8);
}

TEST(FleetFairness, WeightsTiltTheWaterFilling) {
  const std::vector<fleet::ShareClaim> claims = {{2.0, 0, 12}, {1.0, 0, 12}};
  const auto s = fleet::weighted_max_min_shares(12, claims);
  EXPECT_EQ(s[0], 8);
  EXPECT_EQ(s[1], 4);
}

TEST(FleetFairness, CapsRedistributeAndLeftoverStaysFree) {
  // Job 0 caps at 3; job 1 absorbs the rest of its cap; the remainder
  // (everyone capped) stays free.
  const std::vector<fleet::ShareClaim> claims = {{1.0, 0, 3}, {1.0, 0, 5}};
  const auto s = fleet::weighted_max_min_shares(16, claims);
  EXPECT_EQ(s[0], 3);
  EXPECT_EQ(s[1], 5);
}

TEST(FleetFairness, FloorsGrantedFirstAndMustFit) {
  const std::vector<fleet::ShareClaim> claims = {{1.0, 6, 8}, {1.0, 1, 8}};
  const auto s = fleet::weighted_max_min_shares(8, claims);
  // Floors 6+1, then the last GPU water-fills to the lower share.
  EXPECT_EQ(s[0], 6);
  EXPECT_EQ(s[1], 2);
  const std::vector<fleet::ShareClaim> over = {{1.0, 6, 8}, {1.0, 6, 8}};
  EXPECT_THROW((void)fleet::weighted_max_min_shares(8, over), Error);
}

TEST(FleetFairness, TiesBreakToTheLowestIndex) {
  const std::vector<fleet::ShareClaim> claims = {{1.0, 0, 8}, {1.0, 0, 8}};
  const auto s = fleet::weighted_max_min_shares(3, claims);
  EXPECT_EQ(s[0], 2);  // the odd GPU lands on the first claim
  EXPECT_EQ(s[1], 1);
}

// ------------------------------------------------------------------- clock

TEST(FleetClock, OrdersByTimeThenInsertion) {
  fleet::EventClock clock;
  clock.push(5.0, 0);
  clock.push(1.0, 1);
  clock.push(5.0, 2);  // same instant as job 0, pushed later
  EXPECT_EQ(clock.pop().job, 1);
  EXPECT_DOUBLE_EQ(clock.now(), 1.0);
  EXPECT_EQ(clock.pop().job, 0);
  EXPECT_EQ(clock.pop().job, 2);
  EXPECT_DOUBLE_EQ(clock.now(), 5.0);
  EXPECT_TRUE(clock.empty());
  EXPECT_THROW(clock.push(4.0, 3), Error);  // scheduling into the past
  EXPECT_THROW((void)clock.pop(), Error);
}

// ------------------------------------------------------- session stepping

model::ModelDesc fleet_model(int blocks) {
  return model::make_gpt({.num_blocks = static_cast<std::size_t>(blocks),
                          .include_embedding = false,
                          .include_lm_head = false});
}

runtime::SessionConfig stepping_config() {
  runtime::SessionConfig cfg;
  cfg.pipeline_stages = 8;
  cfg.micro_batch = 2;
  cfg.num_microbatches = 8;
  cfg.iterations = 400;
  cfg.sim_stride = 10;
  cfg.rebalance_interval = 50;
  cfg.mode = runtime::BalancingMode::DynMo;
  cfg.algorithm = balance::Algorithm::Partition;
  return cfg;
}

TEST(FleetSession, RunEqualsStartStepFinish) {
  const auto m = fleet_model(24);
  const auto cfg = stepping_config();

  runtime::TrainingSession whole(m, cfg, nullptr);
  const auto a = whole.run();

  runtime::TrainingSession stepped(m, cfg, nullptr);
  EXPECT_FALSE(stepped.started());
  stepped.start();
  EXPECT_TRUE(stepped.started());
  int steps = 0;
  while (!stepped.done()) {
    EXPECT_EQ(stepped.current_iter(), steps * cfg.sim_stride);
    EXPECT_GT(stepped.step(), 0.0);
    ++steps;
  }
  EXPECT_EQ(steps, 40);  // 400 iterations at stride 10
  const auto b = stepped.finish();

  // The loop was moved, not reinterpreted: the whole result matches
  // bit for bit, the time totals included.
  EXPECT_EQ(a.total_time_s, b.total_time_s);
  EXPECT_EQ(a.tokens_per_sec, b.tokens_per_sec);
  EXPECT_TRUE(a == b);
}

TEST(FleetSession, StartBelowCeilingRequiresElastic) {
  const auto m = fleet_model(24);
  auto cfg = stepping_config();
  cfg.initial_active_workers = 4;  // below the 8-stage ceiling, no elastic
  EXPECT_THROW((void)runtime::TrainingSession(m, cfg, nullptr), Error);
  cfg.initial_active_workers = 9;  // above the ceiling
  EXPECT_THROW((void)runtime::TrainingSession(m, cfg, nullptr), Error);
}

TEST(FleetSession, StepAndFinishGuardTheLifecycle) {
  const auto m = fleet_model(24);
  runtime::TrainingSession s(m, stepping_config(), nullptr);
  EXPECT_THROW((void)s.step(), Error);
  EXPECT_THROW((void)s.finish(), Error);
  s.start();
  EXPECT_THROW(s.start(), Error);
  EXPECT_THROW((void)s.finish(), Error);  // before done()
  EXPECT_THROW(s.request_shrink(4), Error);  // elastic disabled
}

// ------------------------------------------------------------ the arbiter

/// A fleet job over a small GPT: `max_gpus` pipeline stages, elastic
/// lifecycle wired to the arbiter, fast restart path so short tests can
/// afford transitions.
fleet::JobSpec make_job(const std::string& name, int priority, double weight,
                        int min_gpus, int max_gpus, double arrival_s,
                        std::int64_t iterations, std::uint64_t seed) {
  fleet::JobSpec spec;
  spec.name = name;
  spec.priority = priority;
  spec.weight = weight;
  spec.min_gpus = min_gpus;
  spec.max_gpus = max_gpus;
  spec.arrival_s = arrival_s;
  // The mutable capture parks the owning model handle in the closure; the
  // arbiter keeps the factory alive until the job's session is destroyed.
  spec.factory = [name, min_gpus, max_gpus, iterations, seed,
                  model = std::shared_ptr<model::ModelDesc>()](
                     int initial, repack::ControlPlane* cluster) mutable {
    model = std::make_shared<model::ModelDesc>(fleet_model(3 * max_gpus));
    runtime::SessionConfig cfg;
    cfg.pipeline_stages = max_gpus;
    cfg.micro_batch = 2;
    cfg.num_microbatches = 8;
    cfg.iterations = iterations;
    cfg.sim_stride = 10;
    cfg.rebalance_interval = 50;
    cfg.mode = runtime::BalancingMode::DynMo;
    cfg.algorithm = balance::Algorithm::Partition;
    cfg.seed = seed;
    cfg.initial_active_workers = initial;
    cfg.elastic.enabled = true;
    cfg.elastic.interval = 100;
    cfg.elastic.min_workers = min_gpus;
    cfg.elastic.cluster = cluster;
    cfg.elastic.pod = name;
    cfg.elastic.restart_alpha_s = 0.5;
    cfg.elastic.checkpoint_bw = 16.0 * 1024 * 1024 * 1024;
    return std::make_unique<runtime::TrainingSession>(*model, cfg, nullptr);
  };
  return spec;
}

TEST(FleetArbiter, AdmitsWithinCapacityAndRunsToCompletion) {
  fleet::ArbiterConfig cfg;
  cfg.total_gpus = 8;
  cfg.payoff_window_iters = 0.0;  // pricing gates off: capacity rules only
  fleet::Arbiter arbiter(cfg);
  arbiter.submit(make_job("job-a", 0, 1.0, 2, 4, 0.0, 200, 1));
  arbiter.submit(make_job("job-b", 0, 1.0, 2, 4, 0.0, 200, 2));
  const auto r = arbiter.run();

  EXPECT_EQ(r.admits, 2);
  EXPECT_EQ(r.preemptions, 0);  // both ceilings fit side by side
  EXPECT_GT(r.makespan_s, 0.0);
  EXPECT_GT(r.busy_gpu_s, 0.0);
  EXPECT_GT(r.utilization, 0.0);
  EXPECT_LE(r.utilization, 1.0);
  EXPECT_GT(r.aggregate_tokens_per_sec, 0.0);
  ASSERT_EQ(r.jobs.size(), 2u);
  for (const auto& out : r.jobs) {
    EXPECT_EQ(out.admitted_gpus, 4);  // full ceiling: the pool had room
    EXPECT_GT(out.result.tokens_per_sec, 0.0);
    EXPECT_EQ(out.result.forced_shrinks, 0);
    EXPECT_GE(out.finished_s, out.admitted_s);
  }
  EXPECT_EQ(arbiter.free_gpus(), 8);  // everything returned to the pool
  // admit + finish verdicts at minimum, in fleet-clock order.
  EXPECT_GE(r.decisions.size(), 4u);
  for (std::size_t i = 1; i < r.decisions.size(); ++i) {
    EXPECT_LE(r.decisions[i - 1].time_s, r.decisions[i].time_s);
  }
}

TEST(FleetArbiter, HigherPriorityArrivalPreemptsByCheckpoint) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "dynmo_fleet_trace")
          .string();
  std::filesystem::remove_all(dir);

  fleet::ArbiterConfig cfg;
  cfg.total_gpus = 8;
  cfg.payoff_window_iters = 1e6;  // generous: the preemption must price in
  cfg.telemetry.dir = dir;
  fleet::Arbiter arbiter(cfg);
  // The low-priority job grabs the whole pool at t=0; the high-priority
  // one arrives mid-run needing 4 GPUs it can only get by force.
  arbiter.submit(make_job("low", 0, 1.0, 2, 8, 0.0, 800, 3));
  arbiter.submit(make_job("high", 5, 1.0, 4, 4, 1.0, 200, 4));
  const auto r = arbiter.run();

  EXPECT_EQ(r.admits, 2);
  EXPECT_GE(r.preemptions, 1);
  ASSERT_EQ(r.jobs.size(), 2u);
  const auto& low = r.jobs[0];
  const auto& high = r.jobs[1];
  EXPECT_EQ(low.admitted_gpus, 8);
  EXPECT_GE(low.preemptions, 1);
  EXPECT_GE(low.result.forced_shrinks, 1);  // the checkpoint-restart path
  EXPECT_GT(low.result.restart_stall_s, 0.0);
  EXPECT_EQ(high.admitted_gpus, 4);
  EXPECT_GE(high.admitted_s, 1.0);
  EXPECT_EQ(high.result.forced_shrinks, 0);

  // The preempt verdict carries its pricing and both parties.
  bool saw_preempt = false;
  for (const auto& d : r.decisions) {
    if (d.kind != "preempt" || !d.accepted) continue;
    saw_preempt = true;
    EXPECT_EQ(d.job, "high");
    EXPECT_EQ(d.victim, "low");
    EXPECT_EQ(d.priority, 5);
    EXPECT_LT(d.gpus_after, d.gpus_before);
    EXPECT_GT(d.projected_gain_gpu_s, 0.0);
    EXPECT_GT(d.exposed_cost_gpu_s, 0.0);
    EXPECT_GE(d.projected_gain_gpu_s, d.exposed_cost_gpu_s);
  }
  EXPECT_TRUE(saw_preempt);

  // The same verdicts landed in the fleet_decisions telemetry table.
  telemetry::TraceReader reader(dir);
  EXPECT_EQ(reader.run().producer, "fleet");
  const auto rows = reader.read<telemetry::FleetDecisionRow>();
  ASSERT_EQ(rows.size(), r.decisions.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i], r.decisions[i]);
  }
  std::filesystem::remove_all(dir);
}

TEST(FleetArbiter, EqualPriorityReclaimsOnlyDownToFairShare) {
  fleet::ArbiterConfig cfg;
  cfg.total_gpus = 8;
  cfg.payoff_window_iters = 0.0;
  fleet::Arbiter arbiter(cfg);
  // First job takes the whole pool; an equal-priority arrival reclaims
  // its fair half but cannot dig below it.
  arbiter.submit(make_job("first", 0, 1.0, 2, 8, 0.0, 800, 5));
  arbiter.submit(make_job("second", 0, 1.0, 2, 8, 1.0, 200, 6));
  const auto r = arbiter.run();

  EXPECT_EQ(r.admits, 2);
  EXPECT_GE(r.preemptions, 1);
  for (const auto& d : r.decisions) {
    if (d.kind == "preempt" && d.accepted) {
      EXPECT_EQ(d.victim, "first");
      EXPECT_GE(d.gpus_after, 4);  // never below the fair share
    }
  }
  ASSERT_EQ(r.jobs.size(), 2u);
  EXPECT_GE(r.jobs[1].admitted_gpus, 2);
  EXPECT_LE(r.jobs[1].admitted_gpus, 4);
}

TEST(FleetArbiter, RejectsMalformedAndUnknownPatches) {
  fleet::Arbiter arbiter({.total_gpus = 4});
  arbiter.submit(make_job("known", 0, 1.0, 1, 2, 0.0, 100, 7));
  EXPECT_EQ(arbiter.patch_pod({"", 1, 1}), 422);
  EXPECT_EQ(arbiter.patch_pod({"known", -1, -1}), 422);
  EXPECT_EQ(arbiter.patch_pod({"known", 2, 1}), 422);  // limit < request
  EXPECT_EQ(arbiter.patch_pod({"stranger", 2, 2}), 422);
  EXPECT_EQ(arbiter.free_gpus(), 4);
}

TEST(FleetArbiter, ValidatesSpecsAtSubmit) {
  fleet::Arbiter arbiter({.total_gpus = 4});
  auto ok = make_job("a", 0, 1.0, 1, 2, 0.0, 100, 8);
  arbiter.submit(ok);
  EXPECT_THROW(arbiter.submit(make_job("a", 0, 1.0, 1, 2, 0.0, 100, 8)),
               Error);  // duplicate name
  EXPECT_THROW(arbiter.submit(make_job("b", 0, 1.0, 8, 8, 0.0, 100, 8)),
               Error);  // minimum exceeds the pool
  EXPECT_THROW(arbiter.submit(make_job("c", 0, 1.0, 3, 2, 0.0, 100, 8)),
               Error);  // min > max
  EXPECT_THROW(arbiter.submit(make_job("d", 0, -1.0, 1, 2, 0.0, 100, 8)),
               Error);  // non-positive weight
}

}  // namespace
}  // namespace dynmo
