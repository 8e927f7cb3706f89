// Decision-path scaling sweep (ROADMAP "scale the decision path to 10k+
// ranks"; docs/COST_MODEL.md "Incremental recomputation").
//
// Sweeps synthetic grid deployments from 1k to 16k ranks (one stage per
// rank, heterogeneous capacity stripes, a flat two-tier cost model — the
// all-pairs Topology snapshot would itself be O(R^2) and is exactly what
// the incremental path avoids needing) and drives the CostSurface decision
// loop directly: per decision, a profile perturbation touching a few
// layers (sync), a candidate map jiggling a few boundaries (evaluate +
// exposed-cost pricing), then commit or rollback.  Candidate *generation*
// (the diffusion/partition algorithm run) is deliberately outside the
// loop: its cost is the balancer's own and is swept elsewhere
// (bench_micro_balancers); this bench isolates the decision-point math the
// incremental surfaces replaced — per-stage re-summing, bottleneck
// rescans, full-grid migration diffs.  One candidate generator is timed
// beside it: the `partition_us` column is the mean wall time of one
// PartitionBalancer::balance call on the final profile and capacities.
//
// Exit-code gates (the scaling claim, enforced):
//   * sub-millisecond mean per-decision latency at 16k ranks;
//   * near-linear memory: cached-surface bytes grow at most 1.5x faster
//     than the rank count across the sweep.
// Every 64th decision is also cross-checked against the full-rescan twins
// (evaluate_full_rescan, bottleneck_*_full_rescan) with exact equality —
// the bench aborts on the first diverging bit (exit 3).
//
// A second table times the per-iteration pipeline phases at 64, 256 and
// 1,024 stages (4 GPT blocks per stage, 256 microbatches): `build_us` is
// one CostBuilder::build, `simulate_us` one pipeline::simulate under each
// schedule.  Both are printed only.
//
// `--smoke` shrinks the sweep for sanitizer CI runs and skips the
// *latency* gate (ASan/UBSan inflate wall clock several-fold); equality
// checks and the memory gate still run.  `--json PATH` records the
// deterministic work counters (touched stages, plan sizes, memory bytes)
// via bench::JsonRecorder — measured latencies stay in the printed table
// and out of the committed BENCH_scale.json (docs/BENCHMARKS.md).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <random>
#include <vector>

#include "balance/incremental.hpp"
#include "balance/partition.hpp"
#include "bench_common.hpp"
#include "model/layer.hpp"
#include "pipeline/cost_builder.hpp"
#include "pipeline/schedule.hpp"

namespace {

using namespace dynmo;
using Clock = std::chrono::steady_clock;

struct SweepResult {
  int stages = 0;
  std::size_t layers = 0;
  int decisions = 0;
  double mean_us = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double full_rescan_mean_us = 0.0;  ///< reference-twin cost, for contrast
  double partition_us = 0.0;  ///< one PartitionBalancer::balance call
  double avg_touched_stages = 0.0;
  double total_plan_transfers = 0.0;
  std::size_t memory_bytes = 0;
};

pipeline::StageMap jiggle(std::mt19937_64& rng,
                          const pipeline::StageMap& map) {
  std::vector<std::size_t> b = map.boundaries();
  const int moves = 1 + static_cast<int>(rng() % 3);
  for (int m = 0; m < moves; ++m) {
    const std::size_t i = 1 + rng() % (b.size() - 2);
    const std::size_t lo = b[i - 1];
    const std::size_t hi = b[i + 1];
    b[i] = lo + rng() % (hi - lo + 1);
  }
  return pipeline::StageMap::from_boundaries(std::move(b));
}

/// Mean wall time of one Partition decision on `w` over `stages` stages of
/// speeds `caps`.
double time_partition_us(const std::vector<double>& w,
                         const std::vector<double>& caps, int stages,
                         int reps) {
  balance::PartitionRequest req;
  req.weights = w;
  req.capacities = caps;
  req.num_stages = stages;
  const balance::PartitionBalancer partition;
  const auto t0 = Clock::now();
  for (int r = 0; r < reps; ++r) (void)partition.balance(req);
  const auto t1 = Clock::now();
  return std::chrono::duration<double, std::micro>(t1 - t0).count() / reps;
}

SweepResult run_size(int stages, int decisions, int partition_reps) {
  SweepResult out;
  out.stages = stages;
  out.decisions = decisions;
  out.layers = static_cast<std::size_t>(stages) * 2;  // 2 layers per rank

  // Synthetic heterogeneous grid: every 8th rank is a degraded-capacity
  // stripe, like a fleet with one slow GPU per node.
  std::vector<double> caps(static_cast<std::size_t>(stages), 1.0);
  for (std::size_t s = 0; s < caps.size(); s += 8) caps[s] = 0.75;
  std::vector<int> stage_to_rank(static_cast<std::size_t>(stages));
  for (int s = 0; s < stages; ++s) {
    stage_to_rank[static_cast<std::size_t>(s)] = s;
  }
  const comm::CostModel net{};  // flat two-tier rule: O(1) per transfer

  std::mt19937_64 rng(0x5ca1e + static_cast<std::uint64_t>(stages));
  std::vector<double> w(out.layers), t(out.layers), m(out.layers);
  for (std::size_t l = 0; l < out.layers; ++l) {
    w[l] = 0.5 + static_cast<double>(rng() % 100) * 0.01;
    t[l] = w[l] * 1e-3;
    m[l] = static_cast<double>(16 + rng() % 48) * 1e6;
  }
  pipeline::StageMap cur =
      pipeline::StageMap::uniform(out.layers, stages);
  balance::CostSurface surf;
  surf.reset(cur, w, t, m, caps);
  out.memory_bytes = surf.memory_bytes();

  std::vector<double> lat_us;
  lat_us.reserve(static_cast<std::size_t>(decisions));
  double rescan_us_sum = 0.0;
  int rescan_samples = 0;
  std::size_t touched_total = 0;

  for (int d = 0; d < decisions; ++d) {
    // Perturb a few layers (what a dynamism step changes between
    // decisions), pre-drawn so the timed region is only decision work.
    const int n = 1 + static_cast<int>(rng() % 4);
    std::vector<std::size_t> touched_layers;
    for (int i = 0; i < n; ++i) {
      const std::size_t l = rng() % out.layers;
      w[l] = 0.5 + static_cast<double>(rng() % 100) * 0.01;
      t[l] = w[l] * 1e-3;
      touched_layers.push_back(l);
    }
    const pipeline::StageMap cand = jiggle(rng, cur);
    const bool adopt = rng() % 2 == 0;

    const auto t0 = Clock::now();
    touched_total += surf.sync(cur, w, t, m, caps);
    balance::SurfaceEval ev = surf.evaluate(cand);
    touched_total += ev.touched_stages;
    // The acceptance math the Rebalancer runs per decision: bottleneck
    // hysteresis plus payoff pricing of the plan.
    const bool worse = !ev.plan.empty() &&
                       ev.norm_w_after > ev.norm_w_before * (1.0 - 0.02);
    const auto cost = ev.plan.exposed_cost(net, stage_to_rank);
    const bool accept = adopt && !worse && cost.time_s < 1.0;
    if (accept) {
      surf.commit();
      cur = cand;
    } else {
      surf.rollback();
    }
    const auto t1 = Clock::now();
    lat_us.push_back(
        std::chrono::duration<double, std::micro>(t1 - t0).count());
    out.total_plan_transfers += static_cast<double>(ev.plan.transfers.size());

    if (d % 64 == 0) {
      // Exact-equality cross-check against the reference twins, and a
      // timed full rescan for the printed contrast column.
      const auto r0 = Clock::now();
      const balance::SurfaceEval ref = surf.evaluate_full_rescan(cur);
      const auto r1 = Clock::now();
      rescan_us_sum +=
          std::chrono::duration<double, std::micro>(r1 - r0).count();
      ++rescan_samples;
      (void)ref;
      if (surf.bottleneck_w() != surf.bottleneck_w_full_rescan() ||
          surf.bottleneck_t() != surf.bottleneck_t_full_rescan()) {
        std::fprintf(stderr,
                     "FATAL: incremental bottleneck diverged from full "
                     "rescan at %d stages, decision %d\n",
                     stages, d);
        std::exit(3);
      }
    }
  }

  out.avg_touched_stages =
      static_cast<double>(touched_total) / static_cast<double>(decisions);
  std::vector<double> sorted = lat_us;
  std::sort(sorted.begin(), sorted.end());
  double sum = 0.0;
  for (double v : sorted) sum += v;
  out.mean_us = sum / static_cast<double>(sorted.size());
  out.p50_us = sorted[sorted.size() / 2];
  out.p99_us = sorted[(sorted.size() * 99) / 100];
  out.full_rescan_mean_us =
      rescan_samples > 0 ? rescan_us_sum / rescan_samples : 0.0;
  out.partition_us = time_partition_us(w, caps, stages, partition_reps);
  return out;
}

double us_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0)
      .count();
}

/// Mean wall time of CostBuilder::build and of pipeline::simulate under
/// each schedule, on `stages` stages of 4 GPT blocks and 256 microbatches.
void time_pipeline_phases(int stages, int reps) {
  model::GptConfig g;
  g.num_blocks = static_cast<std::size_t>(stages) * 4;
  g.include_embedding = false;
  g.include_lm_head = false;
  const auto m = model::make_gpt(g);
  pipeline::CostBuilderConfig cfg;
  cfg.num_microbatches = 256;
  const pipeline::CostBuilder builder(m, model::LayerCostModel{},
                                      comm::CostModel{}, cfg);
  const std::vector<model::LayerState> states(m.num_layers());
  const auto map = pipeline::StageMap::uniform(m.num_layers(), stages);
  auto costs = builder.build(states, map);  // warms the layer memo
  auto t0 = Clock::now();
  for (int r = 0; r < reps; ++r) costs = builder.build(states, map);
  const double build_us = us_since(t0) / reps;
  const struct {
    pipeline::ScheduleKind kind;
    const char* name;
  } schedules[] = {{pipeline::ScheduleKind::GPipe, "gpipe"},
                   {pipeline::ScheduleKind::OneFOneB, "1f1b"},
                   {pipeline::ScheduleKind::ZbH1, "zb-h1"}};
  for (const auto& sch : schedules) {
    double sink = 0.0;
    t0 = Clock::now();
    for (int r = 0; r < reps; ++r) {
      sink += pipeline::simulate(sch.kind, costs).makespan_s;
    }
    const double sim_us = us_since(t0) / reps;
    std::printf("%8d %8zu %8s %10.1f %12.1f %12.6g\n", stages,
                m.num_layers(), sch.name, build_us, sim_us, sink / reps);
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const char* json = bench::json_path_arg(argc, argv);

  const std::vector<int> sizes =
      smoke ? std::vector<int>{1024, 4096}
            : std::vector<int>{1024, 2048, 4096, 8192, 16384};
  const int decisions = smoke ? 200 : 2000;

  std::printf("== decision-path scaling: 1k -> 16k ranks ==\n");
  std::printf("%8s %8s %10s %10s %10s %12s %12s %12s %14s %12s\n",
              "ranks", "layers", "mean_us", "p50_us", "p99_us", "rescan_us",
              "partition_us", "touched/dec", "plan_transfers", "mem_bytes");
  std::vector<SweepResult> results;
  for (const int s : sizes) {
    results.push_back(run_size(s, decisions, smoke ? 2 : 20));
    const auto& r = results.back();
    std::printf(
        "%8d %8zu %10.2f %10.2f %10.2f %12.2f %12.2f %12.2f %14.0f %12zu\n",
        r.stages, r.layers, r.mean_us, r.p50_us, r.p99_us,
        r.full_rescan_mean_us, r.partition_us, r.avg_touched_stages,
        r.total_plan_transfers, r.memory_bytes);
  }

  std::printf("\n== pipeline phases: 4 layers per stage, 256 microbatches "
              "(wall clock, printed only) ==\n");
  std::printf("%8s %8s %8s %10s %12s %12s\n", "stages", "layers",
              "schedule", "build_us", "simulate_us", "makespan_s");
  for (const int s : smoke ? std::vector<int>{64, 256}
                           : std::vector<int>{64, 256, 1024}) {
    time_pipeline_phases(s, smoke ? 1 : std::max(2, 4096 / s));
  }

  if (json != nullptr) {
    bench::JsonRecorder rec("scale");
    std::vector<bench::JsonRecorder::VolumeRow> rows;
    for (const auto& r : results) {
      rows.push_back(
          {std::to_string(r.stages) + " ranks",
           {{"ranks", static_cast<double>(r.stages)},
            {"layers", static_cast<double>(r.layers)},
            {"decisions", static_cast<double>(r.decisions)},
            {"avg_touched_stages", r.avg_touched_stages},
            {"plan_transfers", r.total_plan_transfers},
            {"memory_bytes", static_cast<double>(r.memory_bytes)}}});
    }
    rec.add_volume_case("decision-path scaling sweep", rows);
    rec.write(json);
  }

  int fail = 0;
  // Near-linear memory: bytes may grow at most 1.5x faster than ranks.
  const auto& lo = results.front();
  const auto& hi = results.back();
  const double mem_ratio = static_cast<double>(hi.memory_bytes) /
                           static_cast<double>(lo.memory_bytes);
  const double rank_ratio =
      static_cast<double>(hi.stages) / static_cast<double>(lo.stages);
  if (mem_ratio > 1.5 * rank_ratio) {
    std::fprintf(stderr,
                 "GATE FAIL: memory grew %.2fx over a %.0fx rank sweep "
                 "(super-linear)\n",
                 mem_ratio, rank_ratio);
    fail = 1;
  }
  if (!smoke) {
    // The scaling claim: sub-millisecond decisions at the largest size.
    if (hi.stages >= 16384 && hi.mean_us >= 1000.0) {
      std::fprintf(stderr,
                   "GATE FAIL: mean per-decision latency %.1f us at %d "
                   "ranks (>= 1 ms)\n",
                   hi.mean_us, hi.stages);
      fail = 1;
    }
  } else {
    std::printf("(--smoke: latency gate skipped; equality and memory "
                "gates enforced)\n");
  }
  if (fail == 0) {
    std::printf("scaling gates: OK (%s)\n",
                smoke ? "smoke sweep" : "full sweep to 16384 ranks");
  }
  return fail;
}
