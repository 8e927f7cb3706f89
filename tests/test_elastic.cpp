// Elastic lifecycle (docs/RUNTIME.md): checkpoint-coordinated shrink *and*
// expand.  Covers the ElasticController decision rules (throughput-
// preserving shrink, payoff-gated expand, restart-stall pricing, control-
// plane races), Deployment::prefix, and the session-level acceptance
// criterion: a load spike after an elastic shrink expands back via
// checkpoint-restart and ends within 5% of the never-shrunk bottleneck
// while gpu_hours_saved > 0.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <thread>

#include "cluster/deployment.hpp"
#include "cluster/topology.hpp"
#include "core/error.hpp"
#include "core/rng.hpp"
#include "dynamic/dynamism.hpp"
#include "model/layer.hpp"
#include "runtime/elastic.hpp"
#include "runtime/session.hpp"
#include "telemetry/trace_reader.hpp"
#include "partition_oracle.hpp"

namespace dynmo {
namespace {

using runtime::ElasticAction;
using runtime::ElasticConfig;
using runtime::ElasticController;

comm::LinkParams test_link(int /*workers*/) {
  return {5e-6, 25.0 * 1024 * 1024 * 1024};  // NDR-ish InfiniBand
}

/// 4 heavy leading layers + 20 near-idle tail layers: the concentration
/// pattern (early exit, freezing) that lets fewer workers match the
/// full-count bottleneck.
std::vector<double> lull_loads() {
  std::vector<double> t(24, 0.0002);
  std::fill_n(t.begin(), 4, 0.01);
  return t;
}

std::vector<double> full_loads() { return std::vector<double>(24, 0.01); }

std::vector<double> small_state() {
  return std::vector<double>(24, 64.0 * 1024 * 1024);
}

ElasticConfig fast_cfg() {
  ElasticConfig cfg;
  cfg.enabled = true;
  cfg.min_workers = 2;
  cfg.payoff_window_iters = 0.0;  // gates off unless a test sets them
  return cfg;
}

TEST(ElasticController, ShrinksWhenLoadConcentratesAndReleasesGpus) {
  ElasticController ctl(fast_cfg(), 8, test_link);
  const auto map = pipeline::StageMap::uniform(24, 8);
  const auto d = ctl.decide(map, lull_loads(), small_state(),
                            /*mem_capacity=*/1e12, /*active=*/8);
  EXPECT_EQ(d.action, ElasticAction::Shrink);
  // 4 heavy contiguous layers + the tail: 5 workers already match the
  // 8-worker optimum within tolerance, 4 cannot (a heavy layer would have
  // to share a stage with the whole tail).
  EXPECT_EQ(d.target_workers, 5);
  EXPECT_GT(d.restart_stall_s, 0.0);
  EXPECT_FALSE(d.rejected_by_payoff);

  EXPECT_TRUE(ctl.commit(d));
  EXPECT_EQ(ctl.claimed_workers(), 5);
  EXPECT_EQ(ctl.cluster().free_gpus(), 3);
}

TEST(ElasticController, ExpandsBackWhenLoadSpikes) {
  ElasticController ctl(fast_cfg(), 8, test_link);
  const auto shrink = ctl.decide(pipeline::StageMap::uniform(24, 8),
                                 lull_loads(), small_state(), 1e12, 8);
  ASSERT_EQ(shrink.action, ElasticAction::Shrink);
  ASSERT_TRUE(ctl.commit(shrink));

  // Spike: full-depth load on the shrunk pipeline.  The freed GPUs are
  // still in the queue, and reclaiming them cuts the bottleneck.
  const auto map5 = pipeline::StageMap::uniform(24, 5);
  const auto d = ctl.decide(map5, full_loads(), small_state(), 1e12, 5);
  EXPECT_EQ(d.action, ElasticAction::Expand);
  EXPECT_EQ(d.target_workers, 8);
  EXPECT_GT(d.projected_gain_s, 0.0);
  EXPECT_TRUE(ctl.commit(d));
  EXPECT_EQ(ctl.claimed_workers(), 8);
  EXPECT_EQ(ctl.cluster().free_gpus(), 0);
}

TEST(ElasticController, PayoffWindowGatesShrink) {
  auto cfg = fast_cfg();
  cfg.payoff_window_iters = 1e-3;  // sub-iteration: nothing can amortize
  ElasticController ctl(cfg, 8, test_link);
  const auto shrink = ctl.decide(pipeline::StageMap::uniform(24, 8),
                                 lull_loads(), small_state(), 1e12, 8);
  EXPECT_EQ(shrink.action, ElasticAction::Hold);
  EXPECT_TRUE(shrink.rejected_by_payoff);
  EXPECT_GT(shrink.restart_stall_s, 0.0);
}

TEST(ElasticController, PayoffWindowGatesExpand) {
  // A job that starts at 5 workers below its 8-worker ceiling, with 3 GPUs
  // another job already freed sitting in the queue.
  repack::MockEckCluster eck;
  repack::JobManagerClient other(&eck, "other-job", 8);
  ASSERT_TRUE(other.resize_gpu_claim(5));
  ASSERT_EQ(eck.free_gpus(), 3);

  auto tight = fast_cfg();
  tight.cluster = &eck;
  tight.max_workers = 8;
  tight.payoff_window_iters = 1e-3;
  ElasticController gated(tight, 5, test_link);
  const auto blocked = gated.decide(pipeline::StageMap::uniform(24, 5),
                                    full_loads(), small_state(), 1e12, 5);
  EXPECT_EQ(blocked.action, ElasticAction::Hold);
  EXPECT_TRUE(blocked.rejected_by_payoff);
  EXPECT_EQ(eck.free_gpus(), 3);  // decide() never PATCHes

  // The same situation under a generous window claims the capacity.
  auto open = tight;
  open.payoff_window_iters = 1e9;
  ElasticController ctl(open, 5, test_link);
  const auto d = ctl.decide(pipeline::StageMap::uniform(24, 5), full_loads(),
                            small_state(), 1e12, 5);
  ASSERT_EQ(d.action, ElasticAction::Expand);
  EXPECT_EQ(d.target_workers, 8);
  EXPECT_TRUE(ctl.commit(d));
  EXPECT_EQ(eck.free_gpus(), 0);
}

TEST(ElasticController, ExpandHysteresisHoldsOnMarginalGain) {
  auto cfg = fast_cfg();
  cfg.expand_min_gain = 0.5;  // demand a 50% bottleneck cut
  ElasticController ctl(cfg, 8, test_link);
  ASSERT_TRUE(ctl.commit(ctl.decide(pipeline::StageMap::uniform(24, 8),
                                    lull_loads(), small_state(), 1e12, 8)));
  // Full load back on 5 workers: the expand would cut the bottleneck by
  // ~37% (5w → 3w per-stage layers) — below the 50% bar.
  const auto d = ctl.decide(pipeline::StageMap::uniform(24, 5), full_loads(),
                            small_state(), 1e12, 5);
  EXPECT_EQ(d.action, ElasticAction::Hold);
  EXPECT_FALSE(d.rejected_by_payoff);
}

TEST(ElasticController, PendingJobShrinksTheExpandTarget) {
  repack::MockEckCluster eck;
  auto cfg = fast_cfg();
  cfg.cluster = &eck;
  ElasticController ctl(cfg, 8, test_link);
  ASSERT_TRUE(ctl.commit(ctl.decide(pipeline::StageMap::uniform(24, 8),
                                    lull_loads(), small_state(), 1e12, 8)));
  ASSERT_EQ(eck.free_gpus(), 3);
  // Another job grabs two of the freed GPUs; only one remains claimable.
  EXPECT_EQ(eck.schedule_pending_job(2), 2);
  const auto d = ctl.decide(pipeline::StageMap::uniform(24, 5), full_loads(),
                            small_state(), 1e12, 5);
  EXPECT_EQ(d.action, ElasticAction::Expand);
  EXPECT_EQ(d.target_workers, 6);
  EXPECT_TRUE(ctl.commit(d));
  EXPECT_EQ(eck.free_gpus(), 0);
}

TEST(ElasticController, CommitFailsWhenRacedToTheCapacity) {
  repack::MockEckCluster eck;
  auto cfg = fast_cfg();
  cfg.cluster = &eck;
  ElasticController ctl(cfg, 8, test_link);
  ASSERT_TRUE(ctl.commit(ctl.decide(pipeline::StageMap::uniform(24, 8),
                                    lull_loads(), small_state(), 1e12, 8)));
  const auto d = ctl.decide(pipeline::StageMap::uniform(24, 5), full_loads(),
                            small_state(), 1e12, 5);
  ASSERT_EQ(d.action, ElasticAction::Expand);
  // The freed capacity vanishes between decide() and commit().
  ASSERT_EQ(eck.schedule_pending_job(3), 3);
  EXPECT_FALSE(ctl.commit(d));
  EXPECT_EQ(ctl.claimed_workers(), 5);
}

TEST(ElasticController, RestartStallScalesWithStateAndFloorsAtAlpha) {
  auto cfg = fast_cfg();
  ElasticController ctl(cfg, 8, test_link);
  const auto before = pipeline::StageMap::uniform(24, 8);
  const auto after = pipeline::StageMap::uniform(24, 5);
  const auto light = ctl.restart_stall_s(before, after, small_state());
  std::vector<double> heavy(24, 10.0 * 1024 * 1024 * 1024);
  const auto heavy_s = ctl.restart_stall_s(before, after, heavy);
  EXPECT_GT(light, cfg.restart_alpha_s);
  EXPECT_GT(heavy_s, light);
}

// decide() finds the shrink target with one greedy probe; the oracle scans
// every worker count.  Seeded loads from flat to sharply concentrated, with
// random floors, tolerances, footprints, queued capacity and memory caps.
TEST(ElasticController, OneProbeShrinkMatchesTheLinearScanOracle) {
  Rng rng(0xe1a5);
  const auto pick = [&](int lo, int hi) {
    return lo + static_cast<int>(
                    rng.uniform_int(static_cast<std::uint64_t>(hi - lo + 1)));
  };
  int shrinks = 0;
  int expands = 0;
  for (int c = 0; c < 600; ++c) {
    const int max_workers = pick(2, 24);
    const int active = pick(1, max_workers);
    const auto layers = static_cast<std::size_t>(pick(active, 4 * max_workers));
    std::vector<double> t(layers);
    const double lull = std::exp(rng.uniform(-8.0, 0.0));
    for (auto& x : t) {
      x = 1e-3 * (rng.uniform() < 0.25 ? rng.uniform(0.5, 1.5)
                                       : lull * rng.uniform(0.5, 1.5));
    }
    std::vector<double> state(layers);
    for (auto& b : state) b = static_cast<double>(pick(1, 64)) * 1e6;
    const double mem_capacity =
        rng.uniform() < 0.5 ? 1e12 : static_cast<double>(pick(64, 512)) * 1e6;

    // Another job frees some of the ceiling: expand has somewhere to go.
    repack::MockEckCluster eck;
    repack::JobManagerClient other(&eck, "other-job", max_workers);
    ASSERT_TRUE(other.resize_gpu_claim(pick(0, max_workers - active)));

    ElasticConfig cfg = fast_cfg();
    cfg.cluster = &eck;
    cfg.max_workers = max_workers;
    cfg.min_workers = pick(1, active);
    cfg.shrink_tolerance = rng.uniform(1.0, 1.6);
    cfg.payoff_window_iters = rng.uniform() < 0.5 ? 0.0 : 1e3;
    ElasticController ctl(cfg, active, test_link);
    const auto map = pipeline::StageMap::uniform(layers, active);

    SCOPED_TRACE(::testing::Message()
                 << "case " << c << " active=" << active << "/"
                 << max_workers << " min=" << cfg.min_workers
                 << " tol=" << cfg.shrink_tolerance);
    const auto want = testing::linear_scan_decide(ctl, cfg, map, t, state,
                                                  mem_capacity, active);
    const auto got = ctl.decide(map, t, state, mem_capacity, active);
    ASSERT_EQ(got.action, want.action);
    ASSERT_EQ(got.target_workers, want.target_workers);
    ASSERT_EQ(got.restart_stall_s, want.restart_stall_s);
    ASSERT_EQ(got.projected_gain_s, want.projected_gain_s);
    ASSERT_EQ(got.rejected_by_payoff, want.rejected_by_payoff);
    shrinks += got.action == ElasticAction::Shrink;
    expands += got.action == ElasticAction::Expand;
  }
  EXPECT_GT(shrinks, 50);
  EXPECT_GT(expands, 100);
}

// The over-grant regression (ISSUE 7): the control plane used to track a
// single shared allocation counter, so a second pod's baseline PATCH
// corrupted the first pod's accounting and faked free capacity.  With
// per-pod claims, grow grants can never sum past what was actually free.
TEST(MockEck, TwoClientsCannotGrowPastTheFreeCapacity) {
  repack::MockEckCluster eck;
  repack::JobManagerClient a(&eck, "pod-a", 8);
  ASSERT_TRUE(a.resize_gpu_claim(5));  // releases 3
  ASSERT_EQ(eck.free_gpus(), 3);

  // A second pod's baseline claim is trusted but must not disturb pod-a's
  // accounting or the free pool (the old single-counter bug did both).
  repack::JobManagerClient b(&eck, "pod-b", 2);
  EXPECT_EQ(eck.free_gpus(), 3);

  // pod-a reclaims its release in full; pod-b's grow then finds nothing.
  EXPECT_TRUE(a.resize_gpu_claim(8));
  EXPECT_EQ(eck.free_gpus(), 0);
  EXPECT_FALSE(b.resize_gpu_claim(4));
  EXPECT_EQ(b.claimed_gpus(), 2);
  EXPECT_EQ(eck.free_gpus(), 0);
}

TEST(MockEck, ConcurrentGrowsNeverOversubscribe) {
  repack::MockEckCluster eck;
  repack::JobManagerClient releaser(&eck, "releaser", 8);
  ASSERT_TRUE(releaser.resize_gpu_claim(0));
  ASSERT_EQ(eck.free_gpus(), 8);

  // Two clients race one-GPU-at-a-time grows until the API refuses.
  repack::JobManagerClient a(&eck, "racer-a", 0);
  repack::JobManagerClient b(&eck, "racer-b", 0);
  const auto race = [](repack::JobManagerClient& c) {
    while (c.resize_gpu_claim(c.claimed_gpus() + 1)) {
    }
  };
  std::thread ta(race, std::ref(a));
  std::thread tb(race, std::ref(b));
  ta.join();
  tb.join();

  // Atomic grants: however the race interleaved, exactly the free
  // capacity was handed out — never more.
  EXPECT_EQ(a.claimed_gpus() + b.claimed_gpus(), 8);
  EXPECT_EQ(eck.free_gpus(), 0);
  EXPECT_GE(a.claimed_gpus(), 0);
  EXPECT_GE(b.claimed_gpus(), 0);
}

TEST(Deployment, PrefixKeepsLeadingRanksAndDpWidth) {
  const auto topo = cluster::Topology::make_homogeneous(
      4, 4, hw::GpuSpec::h100_sxm5(),
      cluster::default_link(cluster::LinkType::NvLink),
      cluster::default_link(cluster::LinkType::InfiniBand));
  const auto grid = cluster::Deployment::make_grid_topology_aware(
      topo, /*dp=*/2, /*pp=*/8, cluster::GridOrientation::PpInner);
  const auto pre = grid.prefix(5);
  EXPECT_EQ(pre.num_stages(), 5);
  EXPECT_EQ(pre.data_parallel(), 2);
  for (int d = 0; d < 2; ++d) {
    for (int s = 0; s < 5; ++s) {
      EXPECT_EQ(pre.rank(d, s), grid.rank(d, s));
    }
  }
  // Full prefix is the identity; out-of-range prefixes throw.
  EXPECT_EQ(grid.prefix(8).grid_to_rank().size(), grid.grid_to_rank().size());
  EXPECT_THROW((void)grid.prefix(0), Error);
  EXPECT_THROW((void)grid.prefix(9), Error);
}

// ----------------------------------------------------------- session level

/// Early-exit-style concentration during a lull window, full depth before
/// and after: [0, lull_begin) full, [lull_begin, lull_end) concentrated,
/// [lull_end, ...) full again (the spike that should trigger re-expansion).
class SpikeEngine : public dynamic::DynamismEngine {
 public:
  SpikeEngine(std::int64_t lull_begin, std::int64_t lull_end,
              std::size_t heavy_layers)
      : begin_(lull_begin), end_(lull_end), heavy_(heavy_layers) {}

  std::string name() const override { return "spike"; }
  bool is_dynamism_point(std::int64_t iter) const override {
    return iter == begin_ || iter == end_;
  }
  void step(std::int64_t iter,
            std::span<model::LayerState> states) override {
    const bool lull = iter >= begin_ && iter < end_;
    for (std::size_t l = heavy_; l < states.size(); ++l) {
      states[l].compute_scale = lull ? 0.02 : 1.0;
    }
  }
  std::int64_t recommended_rebalance_interval() const override {
    return 100;
  }

 private:
  std::int64_t begin_, end_;
  std::size_t heavy_;
};

runtime::SessionConfig spike_session_config() {
  runtime::SessionConfig cfg;
  cfg.pipeline_stages = 8;
  cfg.micro_batch = 2;
  cfg.num_microbatches = 16;
  cfg.iterations = 3000;
  cfg.sim_stride = 10;
  cfg.rebalance_interval = 100;
  cfg.mode = runtime::BalancingMode::DynMo;
  cfg.algorithm = balance::Algorithm::Partition;
  cfg.balance_by = balance::BalanceBy::Time;
  return cfg;
}

model::ModelDesc spike_model() {
  return model::make_gpt({.num_blocks = 24,
                          .include_embedding = false,
                          .include_lm_head = false});
}

// The acceptance-criterion test (ISSUE 5): a session with a load spike
// after an elastic shrink expands back via checkpoint-restart and ends
// within 5% of the never-shrunk bottleneck, with gpu_hours_saved > 0.
TEST(SessionElastic, SpikeAfterShrinkExpandsBackAndRecoversThroughput) {
  const auto m = spike_model();

  auto cfg = spike_session_config();
  cfg.elastic.enabled = true;
  cfg.elastic.interval = 500;
  cfg.elastic.min_workers = 2;
  cfg.elastic.payoff_window_iters = 600.0;
  // Restart path of a small job on a decent parallel FS: sub-second
  // respawn, 16 GiB/s shard I/O.  (The defaults model a paper-scale pod,
  // whose multi-second stall would need a window beyond this short run.)
  cfg.elastic.restart_alpha_s = 0.5;
  cfg.elastic.checkpoint_bw = 16.0 * 1024 * 1024 * 1024;
  repack::MockEckCluster eck;
  cfg.elastic.cluster = &eck;

  SpikeEngine engine(/*lull_begin=*/1000, /*lull_end=*/2000, /*heavy=*/4);
  runtime::TrainingSession session(m, cfg, &engine);
  const auto r = session.run();

  // The footprint breathed: released during the lull, re-claimed at the
  // spike, everything accounted.
  EXPECT_GE(r.shrinks, 1);
  EXPECT_GE(r.expands, 1);
  EXPECT_GT(r.restart_stall_s, 0.0);
  EXPECT_GT(r.gpu_hours_saved, 0.0);
  EXPECT_EQ(eck.free_gpus(), 0);  // fully expanded back
  EXPECT_EQ(r.final_map.num_stages(), 8);

  // Reference: the same workload never allowed to shrink.
  auto ref_cfg = spike_session_config();
  SpikeEngine ref_engine(1000, 2000, 4);
  runtime::TrainingSession ref_session(m, ref_cfg, &ref_engine);
  const auto ref = ref_session.run();
  ASSERT_FALSE(r.samples.empty());
  ASSERT_FALSE(ref.samples.empty());
  // Post-expand steady state: the last simulated iteration must be within
  // 5% of the never-shrunk pipeline's.
  const double elastic_final = r.samples.back().time_s;
  const double ref_final = ref.samples.back().time_s;
  EXPECT_LE(elastic_final, 1.05 * ref_final);
  EXPECT_EQ(ref.shrinks, 0);
  EXPECT_EQ(ref.expands, 0);
  EXPECT_DOUBLE_EQ(ref.gpu_hours_saved, 0.0);
}

TEST(SessionElastic, TightWindowHoldsTheFootprint) {
  const auto m = spike_model();
  auto cfg = spike_session_config();
  cfg.elastic.enabled = true;
  cfg.elastic.interval = 500;
  cfg.elastic.payoff_window_iters = 1e-3;  // nothing amortizes

  SpikeEngine engine(1000, 2000, 4);
  runtime::TrainingSession session(m, cfg, &engine);
  const auto r = session.run();
  EXPECT_EQ(r.shrinks, 0);
  EXPECT_EQ(r.expands, 0);
  EXPECT_GT(r.maps_rejected_payoff, 0);  // wanted but unaffordable
  EXPECT_DOUBLE_EQ(r.restart_stall_s, 0.0);
}

TEST(SessionElastic, ElasticAndRepackAreMutuallyExclusive) {
  const auto m = spike_model();
  auto cfg = spike_session_config();
  cfg.elastic.enabled = true;
  cfg.repack = true;
  SpikeEngine engine(1000, 2000, 4);
  EXPECT_THROW((void)runtime::TrainingSession(m, cfg, &engine), Error);
}

// Satellite 3 (ISSUE 7): an externally-initiated shrink — the fleet
// arbiter's preemption hook — takes the same checkpoint-coordinated path
// a voluntary shrink does (restart stall with a full breakdown, a
// "preempt" elastic_transitions row, the shrink PATCH against the control
// plane), and the modeled outcome is identical across identical runs.
TEST(SessionElastic, ForcedShrinkTakesTheCheckpointPathDeterministically) {
  const auto m = spike_model();

  const auto run_once = [&m](const std::string& trace_dir) {
    auto cfg = spike_session_config();
    cfg.iterations = 1000;
    cfg.elastic.enabled = true;
    cfg.elastic.interval = 500;
    cfg.elastic.min_workers = 2;
    // A window too tight for any voluntary transition to amortize: every
    // footprint change observed below must be the forced one.
    cfg.elastic.payoff_window_iters = 1e-3;
    cfg.elastic.restart_alpha_s = 0.5;
    cfg.elastic.checkpoint_bw = 16.0 * 1024 * 1024 * 1024;
    cfg.telemetry.dir = trace_dir;
    repack::MockEckCluster eck;
    cfg.elastic.cluster = &eck;

    runtime::TrainingSession session(m, cfg, nullptr);
    session.start();
    // A few windows at full depth, then the "arbiter" preempts the job
    // down to 5 workers mid-run.
    for (int i = 0; i < 10; ++i) (void)session.step();
    session.request_shrink(5);
    (void)session.step();
    EXPECT_EQ(session.active_workers(), 5);
    EXPECT_EQ(eck.free_gpus(), 3);  // the shrink PATCH landed
    while (!session.done()) (void)session.step();
    return session.finish();
  };

  const auto base =
      std::filesystem::path(::testing::TempDir()) / "forced_shrink_trace";
  std::filesystem::remove_all(base);
  const auto a = run_once((base / "a").string());

  EXPECT_EQ(a.forced_shrinks, 1);
  EXPECT_EQ(a.shrinks, 0);   // nothing voluntary happened
  EXPECT_EQ(a.expands, 0);   // the tight window held the smaller footprint
  EXPECT_GT(a.restart_stall_s, 0.0);
  EXPECT_GT(a.gpu_hours_saved, 0.0);
  EXPECT_EQ(a.final_map.num_stages(), 5);

  // The trace shows the checkpoint path: one accepted "preempt" row whose
  // stall carries the full restart breakdown (respawn + bootstrap +
  // busiest-shard checkpoint write/read) — not a zero-cost reassignment.
  telemetry::TraceReader reader((base / "a").string());
  std::vector<telemetry::ElasticTransitionRow> preempts;
  for (const auto& row : reader.read<telemetry::ElasticTransitionRow>()) {
    if (row.kind == "preempt") preempts.push_back(row);
  }
  ASSERT_EQ(preempts.size(), 1u);
  EXPECT_TRUE(preempts[0].accepted);
  EXPECT_EQ(preempts[0].workers_before, 8);
  EXPECT_EQ(preempts[0].workers_after, 5);
  EXPECT_DOUBLE_EQ(preempts[0].stall_s, a.restart_stall_s);
  EXPECT_GT(preempts[0].alpha_s, 0.0);
  EXPECT_GT(preempts[0].ckpt_write_s, 0.0);
  EXPECT_GT(preempts[0].ckpt_read_s, 0.0);

  // Determinism: the identical run, preempted at the identical window,
  // reproduces the whole result bit for bit, the time totals included.
  const auto b = run_once((base / "b").string());
  EXPECT_EQ(b.total_time_s, a.total_time_s);
  EXPECT_TRUE(b == a);
  std::filesystem::remove_all(base);
}

/// An 8-worker elastic session whose payoff window is too tight for any
/// voluntary transition: every footprint change is a forced one.
runtime::SessionConfig quote_session_config(repack::ControlPlane* eck) {
  auto cfg = spike_session_config();
  cfg.iterations = 1000;
  cfg.elastic.enabled = true;
  cfg.elastic.interval = 500;
  cfg.elastic.min_workers = 2;
  cfg.elastic.payoff_window_iters = 1e-3;
  cfg.elastic.restart_alpha_s = 0.5;
  cfg.elastic.checkpoint_bw = 16.0 * 1024 * 1024 * 1024;
  cfg.elastic.cluster = eck;
  return cfg;
}

// The fleet arbiter prices a preemption with quote_shrink before forcing
// it, so the quote must be exactly the stall the forced shrink charges —
// in the trace's "preempt" row and in SessionResult::restart_stall_s.
TEST(SessionElastic, ShrinkQuoteIsTheStallTheForcedShrinkCharges) {
  const auto m = spike_model();
  const auto dir =
      (std::filesystem::path(::testing::TempDir()) / "quote_trace").string();
  std::filesystem::remove_all(dir);

  const auto run_once = [&m](bool preempt, const std::string& trace_dir,
                             runtime::TransitionQuote* quote) {
    repack::MockEckCluster eck;
    auto cfg = quote_session_config(&eck);
    cfg.telemetry.dir = trace_dir;
    runtime::TrainingSession session(m, cfg, nullptr);
    session.start();
    for (int i = 0; i < 10; ++i) (void)session.step();
    if (preempt) {
      *quote = session.quote_shrink(5);
      session.request_shrink(5);  // executes on the state just quoted
    }
    while (!session.done()) (void)session.step();
    return session.finish();
  };
  runtime::TransitionQuote q;
  const auto forced = run_once(true, dir, &q);
  const auto twin = run_once(false, "", nullptr);

  ASSERT_TRUE(q.feasible);
  EXPECT_EQ(q.workers_before, 8);
  EXPECT_EQ(q.workers_after, 5);
  EXPECT_GT(q.restart_stall_s, 0.0);
  EXPECT_GT(q.iter_s_before, 0.0);
  EXPECT_GT(q.iter_s_after, 0.0);
  EXPECT_EQ(forced.forced_shrinks, 1);
  EXPECT_DOUBLE_EQ(forced.restart_stall_s - twin.restart_stall_s,
                   q.restart_stall_s);

  telemetry::TraceReader reader(dir);
  int preempts = 0;
  for (const auto& row : reader.read<telemetry::ElasticTransitionRow>()) {
    if (row.kind != "preempt") continue;
    ++preempts;
    EXPECT_DOUBLE_EQ(row.stall_s, q.restart_stall_s);
    EXPECT_EQ(row.workers_before, q.workers_before);
    EXPECT_EQ(row.workers_after, q.workers_after);
  }
  EXPECT_EQ(preempts, 1);
  std::filesystem::remove_all(dir);
}

TEST(SessionElastic, OutOfRangeQuotesAreInfeasibleButPriceTodaysMap) {
  const auto m = spike_model();
  repack::MockEckCluster eck;
  runtime::TrainingSession session(m, quote_session_config(&eck), nullptr);
  EXPECT_THROW((void)session.quote_shrink(4), Error);  // not started
  session.start();
  for (int i = 0; i < 10; ++i) (void)session.step();

  const double today = session.quote_shrink(5).iter_s_before;
  EXPECT_GT(today, 0.0);
  const auto expect_out_of_range = [&](const runtime::TransitionQuote& q,
                                       int target) {
    EXPECT_FALSE(q.feasible);
    EXPECT_EQ(q.workers_before, 8);
    EXPECT_EQ(q.workers_after, target);
    EXPECT_DOUBLE_EQ(q.iter_s_before, today);
    EXPECT_DOUBLE_EQ(q.restart_stall_s, 0.0);
    EXPECT_DOUBLE_EQ(q.iter_s_after, 0.0);
  };
  expect_out_of_range(session.quote_shrink(1), 1);  // below min_workers
  expect_out_of_range(session.quote_shrink(8), 8);  // not a shrink
  expect_out_of_range(session.quote_expand(8), 8);  // not an expand
  expect_out_of_range(session.quote_expand(9), 9);  // past the ceiling

  // Quotes are const previews: repeated ones agree, nothing moved.
  EXPECT_DOUBLE_EQ(session.quote_shrink(5).restart_stall_s,
                   session.quote_shrink(5).restart_stall_s);
  EXPECT_EQ(session.active_workers(), 8);
  EXPECT_EQ(eck.free_gpus(), 0);

  // After a forced shrink the expand side is in range again.
  session.request_shrink(5);
  (void)session.step();
  EXPECT_TRUE(session.quote_expand(8).feasible);
  EXPECT_FALSE(session.quote_expand(9).feasible);
}

}  // namespace
}  // namespace dynmo
