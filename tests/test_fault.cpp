// Fault & straggler injection (docs/FAULT.md): the deterministic
// injector, Rng::fork() substream isolation, worker-loss recovery priced
// as restart stall + lost work in the session, checkpoint-cadence
// accounting, degraded-GPU routing through the balancer, the stall
// ledger across elastic_transitions + fault_events, the threaded
// runtime's heartbeat-detected loss with bit-identical recovery, and a
// failed fleet job returning its GPUs to the pool.
#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <string>

#include "core/error.hpp"
#include "core/rng.hpp"
#include "fault/injector.hpp"
#include "fleet/arbiter.hpp"
#include "model/layer.hpp"
#include "repack/elastic.hpp"
#include "runtime/session.hpp"
#include "runtime/threaded.hpp"
#include "telemetry/trace_reader.hpp"

namespace dynmo {
namespace {

// ---------------------------------------------------------------- injector

TEST(FaultInjector, ScheduleIsAPureFunctionOfPlanSeedWorkers) {
  fault::FaultPlan plan;
  plan.losses = {{.iter = 40, .worker = -1}, {.iter = 10, .worker = 2}};
  plan.mtbf_iters = 80.0;
  plan.horizon_iters = 400;
  plan.stragglers = {{.worker = 1, .multiplier = 0.5, .from_iter = 5}};
  const fault::Injector a(plan, 8, Rng(7));
  const fault::Injector b(plan, 8, Rng(7));
  ASSERT_EQ(a.schedule().size(), b.schedule().size());
  for (std::size_t i = 0; i < a.schedule().size(); ++i) {
    EXPECT_EQ(a.schedule()[i].iter, b.schedule()[i].iter);
    EXPECT_EQ(a.schedule()[i].kind, b.schedule()[i].kind);
    EXPECT_EQ(a.schedule()[i].worker, b.schedule()[i].worker);
  }
  // Sorted by iteration, and the drawn victim lives in [1, workers).
  for (std::size_t i = 1; i < a.schedule().size(); ++i) {
    EXPECT_LE(a.schedule()[i - 1].iter, a.schedule()[i].iter);
  }
  for (const auto& e : a.schedule()) {
    if (e.kind == fault::EventKind::WorkerLoss) {
      EXPECT_GE(e.worker, 1);
      EXPECT_LT(e.worker, 8);
    }
  }
  // A different seed draws a different MTBF schedule.
  const fault::Injector c(plan, 8, Rng(8));
  bool any_diff = c.schedule().size() != a.schedule().size();
  for (std::size_t i = 0; !any_diff && i < a.schedule().size(); ++i) {
    any_diff = a.schedule()[i].iter != c.schedule()[i].iter ||
               a.schedule()[i].worker != c.schedule()[i].worker;
  }
  EXPECT_TRUE(any_diff);
}

TEST(FaultInjector, PollFiresEachEventOnceAndResolvesVictimsAgainstAlive) {
  fault::FaultPlan plan;
  plan.losses = {{.iter = 3, .worker = 2}, {.iter = 7, .worker = 2}};
  fault::Injector inj(plan, 4, Rng(1));
  std::vector<bool> alive(4, true);
  EXPECT_TRUE(inj.poll(2, alive).empty());
  auto ev = inj.poll(5, alive);
  ASSERT_EQ(ev.size(), 1u);
  EXPECT_EQ(ev[0].worker, 2);
  // Once fired, never again — and the second loss targeting the now-dead
  // rank 2 resolves to the next alive non-zero rank (3).
  alive[2] = false;
  EXPECT_TRUE(inj.poll(5, alive).empty());
  ev = inj.poll(10, alive);
  ASSERT_EQ(ev.size(), 1u);
  EXPECT_EQ(ev[0].worker, 3);
  // With only rank 0 left, a loss has no legal victim and is dropped.
  fault::Injector inj2(plan, 4, Rng(1));
  std::vector<bool> only0 = {true, false, false, false};
  EXPECT_TRUE(inj2.poll(100, only0).empty());
}

TEST(FaultInjector, MultiplierStacksCoveringWindows) {
  fault::FaultPlan plan;
  plan.stragglers = {{.worker = 1, .multiplier = 0.5, .from_iter = 10}};
  plan.slowdowns = {
      {.worker = 1, .multiplier = 0.5, .from_iter = 20, .until_iter = 30}};
  const fault::Injector inj(plan, 4, Rng(1));
  EXPECT_DOUBLE_EQ(inj.multiplier(1, 5), 1.0);
  EXPECT_DOUBLE_EQ(inj.multiplier(1, 15), 0.5);
  EXPECT_DOUBLE_EQ(inj.multiplier(1, 25), 0.25);  // both windows cover
  EXPECT_DOUBLE_EQ(inj.multiplier(1, 30), 0.5);   // until is exclusive
  EXPECT_DOUBLE_EQ(inj.multiplier(2, 25), 1.0);
  EXPECT_TRUE(inj.any_degradation());
}

TEST(FaultInjector, RejectsRankZeroAndBadWindows) {
  fault::FaultPlan kill0;
  kill0.losses = {{.iter = 1, .worker = 0}};
  EXPECT_THROW((void)fault::Injector(kill0, 4, Rng(1)), Error);
  fault::FaultPlan badmult;
  badmult.stragglers = {{.worker = 1, .multiplier = 0.0, .from_iter = 0}};
  EXPECT_THROW((void)fault::Injector(badmult, 4, Rng(1)), Error);
}

// ------------------------------------------------------------- Rng::fork

TEST(RngFork, DoesNotPerturbOrReadTheParentStream) {
  Rng a(42);
  Rng b(42);
  (void)b();  // advance b, then fork both
  const auto fa = a.fork(9);
  auto fb = b.fork(9);
  auto fa2 = fa;
  // Forks derive from the seed as-constructed: identical regardless of
  // how many draws happened on the parent in between.
  EXPECT_EQ(fa2(), fb());
  // And forking never advanced the parent: a (never drawn) continues in
  // lockstep with a fresh engine, b stays one draw ahead.
  Rng fresh(42);
  (void)fresh();
  EXPECT_EQ(a(), Rng(42)());
  EXPECT_EQ(b(), fresh());
  // Distinct stream ids are independent streams.
  Rng c(42);
  EXPECT_NE(c.fork(1)(), c.fork(2)());
}

// ----------------------------------------------------------- session loss

model::ModelDesc fault_model() {
  return model::make_gpt({.num_blocks = 24,
                          .include_embedding = false,
                          .include_lm_head = false});
}

runtime::SessionConfig fault_session_config() {
  runtime::SessionConfig cfg;
  cfg.pipeline_stages = 8;
  cfg.micro_batch = 2;
  cfg.num_microbatches = 16;
  cfg.iterations = 1000;
  cfg.sim_stride = 10;
  cfg.rebalance_interval = 100;
  cfg.mode = runtime::BalancingMode::DynMo;
  cfg.algorithm = balance::Algorithm::Partition;
  cfg.balance_by = balance::BalanceBy::Time;
  return cfg;
}

runtime::SessionConfig recoverable_loss_config(repack::ControlPlane* eck) {
  auto cfg = fault_session_config();
  cfg.elastic.enabled = true;
  cfg.elastic.interval = 500;
  cfg.elastic.min_workers = 2;
  cfg.elastic.payoff_window_iters = 1e-3;  // no voluntary transitions
  cfg.elastic.restart_alpha_s = 0.5;
  cfg.elastic.checkpoint_bw = 16.0 * 1024 * 1024 * 1024;
  cfg.elastic.cluster = eck;
  cfg.fault.losses = {{.iter = 450, .worker = 3}};
  return cfg;
}

TEST(SessionFault, WorkerLossShrinksToSurvivorsAndPricesLostWork) {
  const auto m = fault_model();
  repack::MockEckCluster eck;
  auto cfg = recoverable_loss_config(&eck);
  cfg.checkpoint_interval_iters = 200;  // last cut at 400, loss at 450
  runtime::TrainingSession session(m, cfg, nullptr);
  const auto r = session.run();

  EXPECT_FALSE(r.failed);
  EXPECT_EQ(r.worker_losses, 1);
  EXPECT_EQ(r.final_map.num_stages(), 7);
  EXPECT_EQ(eck.free_gpus(), 1);  // the dead GPU went back
  // The recovery stall includes respawn/bootstrap/checkpoint I/O *plus*
  // the re-done iterations since the cut at 400.
  EXPECT_GT(r.restart_stall_s, 0.0);
  EXPECT_GT(r.lost_work_s, 0.0);
  EXPECT_LT(r.lost_work_s, r.restart_stall_s);
  // Periodic checkpoints were written and priced separately from stall.
  EXPECT_GT(r.checkpoints_written, 0);
  EXPECT_GT(r.checkpoint_write_s, 0.0);

  // Identical run → bit-identical result.
  repack::MockEckCluster eck2;
  auto cfg2 = recoverable_loss_config(&eck2);
  cfg2.checkpoint_interval_iters = 200;
  runtime::TrainingSession session2(m, cfg2, nullptr);
  const auto r2 = session2.run();
  EXPECT_EQ(r.total_time_s, r2.total_time_s);
  EXPECT_TRUE(r == r2);
}

TEST(SessionFault, TighterCheckpointCadenceTradesWriteCostForLostWork) {
  const auto m = fault_model();
  const auto run_with_cadence = [&m](std::int64_t cadence) {
    repack::MockEckCluster eck;
    auto cfg = recoverable_loss_config(&eck);
    cfg.checkpoint_interval_iters = cadence;
    runtime::TrainingSession session(m, cfg, nullptr);
    return session.run();
  };
  const auto never = run_with_cadence(0);
  const auto tight = run_with_cadence(50);
  // Without periodic cuts every iteration since start is lost; a tight
  // cadence bounds the loss to <= 50 iterations but pays write costs.
  EXPECT_GT(never.lost_work_s, tight.lost_work_s);
  EXPECT_EQ(never.checkpoints_written, 0);
  EXPECT_DOUBLE_EQ(never.checkpoint_write_s, 0.0);
  EXPECT_GT(tight.checkpoints_written, 0);
  EXPECT_GT(tight.checkpoint_write_s, 0.0);
}

TEST(SessionFault, UnrecoverableLossFailsTheRunWithoutCharges) {
  const auto m = fault_model();
  repack::MockEckCluster eck;
  auto cfg = recoverable_loss_config(&eck);
  cfg.elastic.min_workers = 8;  // survivors below the floor → unrecoverable
  runtime::TrainingSession session(m, cfg, nullptr);
  const auto r = session.run();
  EXPECT_TRUE(r.failed);
  EXPECT_EQ(r.worker_losses, 1);
  EXPECT_DOUBLE_EQ(r.restart_stall_s, 0.0);
  EXPECT_DOUBLE_EQ(r.lost_work_s, 0.0);
  // The run stopped at the loss, not at cfg.iterations.
  EXPECT_LT(r.samples.size() * 10u, 1000u);
}

TEST(SessionFault, LossesRequireElasticAndCadenceRequiresStrideAlignment) {
  const auto m = fault_model();
  auto cfg = fault_session_config();
  cfg.fault.losses = {{.iter = 100, .worker = 1}};
  EXPECT_THROW((void)runtime::TrainingSession(m, cfg, nullptr), Error);
  auto cfg2 = fault_session_config();
  cfg2.checkpoint_interval_iters = 15;  // not a multiple of sim_stride 10
  EXPECT_THROW((void)runtime::TrainingSession(m, cfg2, nullptr), Error);
}

// ------------------------------------------------------ straggler routing

TEST(SessionFault, DynMoRoutesAroundAPersistentStraggler) {
  const auto m = fault_model();
  const auto run_mode = [&m](runtime::BalancingMode mode) {
    auto cfg = fault_session_config();
    cfg.mode = mode;
    cfg.fault.stragglers = {
        {.worker = 4, .multiplier = 0.5, .from_iter = 0}};
    runtime::TrainingSession session(m, cfg, nullptr);
    return session.run();
  };
  const auto statik = run_mode(runtime::BalancingMode::StaticUniform);
  const auto dynmo = run_mode(runtime::BalancingMode::DynMo);
  EXPECT_EQ(dynmo.straggler_events, 1);  // onset only, never recovers
  // Static eats the 2x slowdown on a full stage; DynMo shifts layers off
  // the degraded GPU until capacities balance.
  EXPECT_GT(dynmo.tokens_per_sec, 1.2 * statik.tokens_per_sec);
}

TEST(SessionFault, TransientSlowdownDoesNotThrashOnRecovery) {
  const auto m = fault_model();
  auto cfg = fault_session_config();
  cfg.iterations = 2000;
  cfg.fault.slowdowns = {
      {.worker = 4, .multiplier = 0.5, .from_iter = 400, .until_iter = 1000}};
  runtime::TrainingSession session(m, cfg, nullptr);
  const auto r = session.run();
  EXPECT_EQ(r.straggler_events, 2);  // onset + recovery
  // After recovery the balancer converges back instead of oscillating:
  // bounded migration traffic and a healthy final bottleneck.
  auto ref_cfg = fault_session_config();
  ref_cfg.iterations = 2000;
  runtime::TrainingSession ref_session(m, ref_cfg, nullptr);
  const auto ref = ref_session.run();
  ASSERT_FALSE(r.samples.empty());
  ASSERT_FALSE(ref.samples.empty());
  EXPECT_LE(r.samples.back().time_s, 1.05 * ref.samples.back().time_s);
}

TEST(SessionFault, UnityMultiplierPlanIsBitIdenticalToFaultFree) {
  // A plan whose windows never degrade (multiplier 1.0) exercises the
  // whole injector path — including the Rng::fork() — without touching
  // the run: proof the fault stream is isolated from the session's
  // measurement-noise stream.
  const auto m = fault_model();
  auto cfg = fault_session_config();
  cfg.fault.stragglers = {
      {.worker = 2, .multiplier = 1.0, .from_iter = 100}};
  runtime::TrainingSession session(m, cfg, nullptr);
  const auto r = session.run();
  auto ref_cfg = fault_session_config();
  runtime::TrainingSession ref_session(m, ref_cfg, nullptr);
  const auto ref = ref_session.run();
  EXPECT_EQ(r.straggler_events, 1);
  EXPECT_EQ(r.total_time_s, ref.total_time_s);
  EXPECT_EQ(r.final_map, ref.final_map);
  EXPECT_EQ(r.rebalance_count, ref.rebalance_count);
}

// ---------------------------------------------------------- stall ledger

TEST(SessionFault, RestartStallLedgerIsConsistentAcrossTables) {
  // A run with both an involuntary loss and a fleet-style forced shrink:
  // SessionResult::restart_stall_s must equal the sum of the stalls the
  // trace attributes to accepted elastic transitions (repacks excluded —
  // they are free) and worker-loss fault events.
  const auto m = fault_model();
  const auto dir =
      (std::filesystem::path(testing::TempDir()) / "fault_ledger").string();
  std::filesystem::remove_all(dir);
  repack::MockEckCluster eck;
  auto cfg = recoverable_loss_config(&eck);
  cfg.checkpoint_interval_iters = 200;
  cfg.telemetry.dir = dir;
  runtime::TrainingSession session(m, cfg, nullptr);
  session.start();
  for (int i = 0; i < 10; ++i) (void)session.step();
  session.request_shrink(7);  // forced preempt before the loss at 450
  while (!session.done()) (void)session.step();
  const auto r = session.finish();

  EXPECT_EQ(r.forced_shrinks, 1);
  EXPECT_EQ(r.worker_losses, 1);
  EXPECT_EQ(r.final_map.num_stages(), 6);

  telemetry::TraceReader reader(dir);
  double ledger = 0.0;
  for (const auto& row : reader.read<telemetry::ElasticTransitionRow>()) {
    if (row.accepted && row.kind != "repack") ledger += row.stall_s;
  }
  int loss_rows = 0;
  for (const auto& row : reader.read<telemetry::FaultEventRow>()) {
    if (row.kind == "worker_loss") {
      ++loss_rows;
      ledger += row.stall_s;
      EXPECT_GT(row.lost_work_s, 0.0);
      EXPECT_GT(row.lost_iters, 0);
      EXPECT_NEAR(row.stall_s,
                  row.alpha_s + row.bootstrap_s + row.ckpt_write_s +
                      row.ckpt_read_s + row.lost_work_s,
                  1e-9);
    }
  }
  EXPECT_EQ(loss_rows, 1);
  EXPECT_NEAR(ledger, r.restart_stall_s, 1e-9);
}

// -------------------------------------------------------- MTBF determinism

TEST(SessionFault, MtbfLossesAreDeterministicPerSeed) {
  const auto m = fault_model();
  const auto run_once = [&m]() {
    repack::MockEckCluster eck;
    auto cfg = fault_session_config();
    cfg.elastic.enabled = true;
    cfg.elastic.interval = 500;
    cfg.elastic.min_workers = 1;
    cfg.elastic.payoff_window_iters = 1e-3;
    cfg.elastic.restart_alpha_s = 0.5;
    cfg.elastic.checkpoint_bw = 16.0 * 1024 * 1024 * 1024;
    cfg.elastic.cluster = &eck;
    cfg.fault.mtbf_iters = 300.0;  // horizon defaults to cfg.iterations
    cfg.fault.max_mtbf_losses = 3;
    cfg.checkpoint_interval_iters = 100;
    runtime::TrainingSession session(m, cfg, nullptr);
    return session.run();
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_GE(a.worker_losses, 1);
  EXPECT_EQ(a.total_time_s, b.total_time_s);
  EXPECT_TRUE(a == b);
}

// ------------------------------------------------------- threaded runtime

runtime::ThreadedConfig threaded_fault_config() {
  runtime::ThreadedConfig cfg;
  cfg.workers = 3;
  cfg.num_layers = 6;
  cfg.hidden = 16;
  cfg.batch_rows = 2;
  cfg.microbatches = 4;
  cfg.apply_weight_update = true;
  cfg.seed = 0xfee1;
  cfg.heartbeat_timeout_s = 0.15;
  return cfg;
}

std::vector<runtime::PlanPhase> threaded_fault_plan(int iterations) {
  return {{.map = pipeline::StageMap::uniform(6, 3),
           .iterations = iterations}};
}

// The acceptance-criterion test (ISSUE 8): a threaded run that loses a
// worker mid-iteration recovers on the surviving prefix with checkpoint
// checksums intact — bit-identical output and weights versus both a
// fault-free run and a re-run of the same faulty scenario.
TEST(ThreadedFault, HeartbeatDetectedLossRecoversBitIdentically) {
  auto clean_cfg = threaded_fault_config();
  runtime::ThreadedPipeline clean(clean_cfg);
  const auto ref = clean.run(threaded_fault_plan(10));
  ASSERT_EQ(ref.worker_losses, 0);

  auto cfg = threaded_fault_config();
  cfg.checkpoint_interval_iters = 4;
  cfg.fault.losses = {{.iter = 6, .worker = 2}};
  runtime::ThreadedPipeline faulty(cfg);
  const auto a = faulty.run(threaded_fault_plan(10));

  EXPECT_EQ(a.worker_losses, 1);
  ASSERT_EQ(a.dead_workers.size(), 1u);
  EXPECT_EQ(a.dead_workers[0], 2);
  EXPECT_GE(a.restarts, 1);
  EXPECT_GT(a.bytes_checkpoint, 0u);
  // The recovery rolled back to the cut at iteration 4 and re-executed —
  // the math is exactly the fault-free run's.
  EXPECT_EQ(a.output_checksum, ref.output_checksum);
  ASSERT_EQ(a.weight_checksums.size(), ref.weight_checksums.size());
  for (std::size_t l = 0; l < ref.weight_checksums.size(); ++l) {
    EXPECT_EQ(a.weight_checksums[l], ref.weight_checksums[l]) << l;
  }

  // And the faulty scenario itself reproduces bit-for-bit.
  runtime::ThreadedPipeline faulty2(cfg);
  const auto b = faulty2.run(threaded_fault_plan(10));
  EXPECT_EQ(b.worker_losses, 1);
  EXPECT_EQ(a.output_checksum, b.output_checksum);
  EXPECT_EQ(a.weight_checksums, b.weight_checksums);
}

TEST(ThreadedFault, LossComposesWithAMigrationPhasePlan) {
  // Loss strikes in phase 1 (after a scripted migration); later phases
  // keep running on the recovery placement.
  auto cfg = threaded_fault_config();
  cfg.workers = 4;
  cfg.num_layers = 8;
  cfg.checkpoint_interval_iters = 0;  // phase-start cuts only
  cfg.fault.losses = {{.iter = 7, .worker = 1}};
  std::vector<runtime::PlanPhase> plan = {
      {.map = pipeline::StageMap::uniform(8, 4), .iterations = 5},
      {.map = pipeline::StageMap::from_boundaries({0, 3, 5, 7, 8}),
       .iterations = 5},
      {.map = pipeline::StageMap::uniform(8, 4), .iterations = 5}};
  runtime::ThreadedPipeline faulty(cfg);
  const auto a = faulty.run(plan);
  EXPECT_EQ(a.worker_losses, 1);
  ASSERT_EQ(a.dead_workers.size(), 1u);
  EXPECT_EQ(a.dead_workers[0], 1);

  auto clean_cfg = threaded_fault_config();
  clean_cfg.workers = 4;
  clean_cfg.num_layers = 8;
  runtime::ThreadedPipeline clean(clean_cfg);
  const auto ref = clean.run(plan);
  EXPECT_EQ(a.output_checksum, ref.output_checksum);
  EXPECT_EQ(a.weight_checksums, ref.weight_checksums);
}

TEST(ThreadedFault, StragglerSlowsWallClockButNeverTheMath) {
  auto cfg = threaded_fault_config();
  cfg.fault.stragglers = {
      {.worker = 1, .multiplier = 0.25, .from_iter = 2}};
  runtime::ThreadedPipeline slow(cfg);
  const auto a = slow.run(threaded_fault_plan(8));
  EXPECT_EQ(a.worker_losses, 0);
  auto clean_cfg = threaded_fault_config();
  runtime::ThreadedPipeline clean(clean_cfg);
  const auto ref = clean.run(threaded_fault_plan(8));
  EXPECT_EQ(a.output_checksum, ref.output_checksum);
  EXPECT_EQ(a.weight_checksums, ref.weight_checksums);
}

TEST(ThreadedFault, StragglerStretchLongerThanTheHeartbeatTimeoutIsNotALoss) {
  // One stretched compute slice (busy x 999, over 0.1 s for the ~0.1 ms
  // two-layer 16x128 matmul) outlasts the 50 ms heartbeat timeout: the
  // straggler must keep ticking through it, or the monitor declares a
  // live worker dead.
  auto cfg = threaded_fault_config();
  cfg.hidden = 128;
  cfg.batch_rows = 16;
  cfg.microbatches = 1;
  cfg.heartbeat_timeout_s = 0.05;
  auto slow_cfg = cfg;
  slow_cfg.fault.stragglers = {
      {.worker = 1, .multiplier = 1e-3, .from_iter = 1, .until_iter = 2}};
  runtime::ThreadedPipeline slow(slow_cfg);
  const auto a = slow.run(threaded_fault_plan(3));
  EXPECT_EQ(a.worker_losses, 0);
  EXPECT_TRUE(a.dead_workers.empty());
  EXPECT_GT(a.wall_s, cfg.heartbeat_timeout_s);
  runtime::ThreadedPipeline clean(cfg);
  const auto ref = clean.run(threaded_fault_plan(3));
  EXPECT_EQ(a.output_checksum, ref.output_checksum);
  EXPECT_EQ(a.weight_checksums, ref.weight_checksums);
}

TEST(ThreadedFault, FaultPlansRejectScriptedReleasesAndEmptyStages) {
  auto cfg = threaded_fault_config();
  cfg.fault.losses = {{.iter = 2, .worker = 1}};
  runtime::ThreadedPipeline p(cfg);
  std::vector<runtime::PlanPhase> release_plan = {
      {.map = pipeline::StageMap::uniform(6, 3), .iterations = 2},
      {.map = pipeline::StageMap::from_boundaries({0, 3, 6, 6}),
       .iterations = 2,
       .active = std::vector<bool>{true, true, false}}};
  EXPECT_THROW((void)p.run(release_plan), Error);
  std::vector<runtime::PlanPhase> empty_stage_plan = {
      {.map = pipeline::StageMap::from_boundaries({0, 3, 6, 6}),
       .iterations = 2}};
  EXPECT_THROW((void)p.run(empty_stage_plan), Error);
}

// ------------------------------------------------------------------ fleet

TEST(FleetFault, FailedJobReturnsItsGpusToThePool) {
  // Job B's worker loss is recoverable (its GPU goes straight back to the
  // pool via the shrink PATCH); job A dies outright below min_gpus — the
  // arbiter reaps the failed session and frees everything it held.
  fleet::ArbiterConfig fcfg;
  fcfg.total_gpus = 8;
  fcfg.payoff_window_iters = 0.0;
  auto make_faulty_job = [](const std::string& name, int min_gpus,
                            int loss_iter) {
    fleet::JobSpec spec;
    spec.name = name;
    spec.min_gpus = min_gpus;
    spec.max_gpus = 4;
    spec.factory = [name, min_gpus, loss_iter,
                    model = std::shared_ptr<model::ModelDesc>()](
                       int initial, repack::ControlPlane* cluster) mutable {
      model = std::make_shared<model::ModelDesc>(
          model::make_gpt({.num_blocks = 12,
                           .include_embedding = false,
                           .include_lm_head = false}));
      runtime::SessionConfig cfg;
      cfg.pipeline_stages = 4;
      cfg.micro_batch = 2;
      cfg.num_microbatches = 8;
      cfg.iterations = 400;
      cfg.sim_stride = 10;
      cfg.rebalance_interval = 50;
      cfg.mode = runtime::BalancingMode::DynMo;
      cfg.initial_active_workers = initial;
      cfg.elastic.enabled = true;
      cfg.elastic.interval = 100;
      cfg.elastic.min_workers = min_gpus;
      cfg.elastic.payoff_window_iters = 1e-3;
      cfg.elastic.cluster = cluster;
      cfg.elastic.pod = name;
      cfg.elastic.restart_alpha_s = 0.5;
      cfg.elastic.checkpoint_bw = 16.0 * 1024 * 1024 * 1024;
      cfg.fault.losses = {{.iter = loss_iter, .worker = 2}};
      cfg.checkpoint_interval_iters = 50;
      return std::make_unique<runtime::TrainingSession>(*model, cfg,
                                                        nullptr);
    };
    return spec;
  };
  fleet::Arbiter arbiter(fcfg);
  arbiter.submit(make_faulty_job("doomed", 4, 100));     // loss → failed
  arbiter.submit(make_faulty_job("survivor", 2, 200));   // loss → shrink
  const auto res = arbiter.run();

  ASSERT_EQ(res.jobs.size(), 2u);
  EXPECT_TRUE(res.jobs[0].result.failed);
  EXPECT_EQ(res.jobs[0].result.worker_losses, 1);
  EXPECT_FALSE(res.jobs[1].result.failed);
  EXPECT_EQ(res.jobs[1].result.worker_losses, 1);
  EXPECT_EQ(res.jobs[1].result.final_map.num_stages(), 3);
  // Everything — the failed job's full claim and the survivor's dead
  // GPU — is back in the pool.
  EXPECT_EQ(arbiter.free_gpus(), 8);
}

}  // namespace
}  // namespace dynmo
