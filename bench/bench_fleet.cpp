// Multi-tenant fleet arbiter vs. static equal-split (ISSUE 7 /
// docs/FLEET.md): 12 heterogeneous elastic jobs — batch, standard,
// interactive, urgent priority classes with different weights, footprints,
// arrivals, and horizons — compete for one 16-GPU pool under the
// fleet::Arbiter, against the scheduler the paper's elasticity displaces:
// a static partition of the pool into fixed equal slots, jobs queued FIFO
// onto the earliest-free slot, no elasticity.
//
// The arbiter wins on both axes the fleet cares about: utilization (the
// tail jobs expand over the idle slots a static partition strands) and
// aggregate tokens/sec (the same total work finishes inside a shorter
// makespan), while the preemption counter shows high-priority arrivals
// claiming their minimum through the checkpoint-coordinated shrink path.
// The sweep varies the arbiter's policy knobs:
//
//   * payoff window — 0 disables the fleet-pricing gates; a window
//     shorter than the restart stall (50 iterations at these ~20 ms
//     iterations) prices every transition unprofitable and freezes the
//     admission-time split in place;
//   * work conservation — off caps every job at its fair share, trading
//     utilization for strict isolation;
//   * preemption — off makes arrivals wait for capacity instead of
//     forcing running jobs to shrink.
//
// Everything is deterministic (fixed arrivals, seeds, analytic cost
// models).
// The bench exits non-zero if the headline configuration fails the
// acceptance bar (fleet utilization strictly above static at
// equal-or-better aggregate throughput, with at least one preemption
// somewhere in the sweep), so CI's --smoke run doubles as a regression
// gate.  `--json PATH` records the sweep (docs/BENCHMARKS.md).
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "fleet/arbiter.hpp"

namespace {

using namespace dynmo;

struct JobDef {
  const char* name;
  int priority;
  double weight;
  int min_gpus;
  int max_gpus;
  double arrival_s;
  std::int64_t iterations;
  std::uint64_t seed;
};

// The fleet: four long batch jobs that soak the pool early, four standard
// jobs trickling in, two weighted interactive jobs, and two urgent jobs
// whose minimum footprint must be preempted out of a saturated pool.
// Every min_gpus fits the static arm's 4-GPU slots, so both schedulers
// can run every job and the comparison is apples to apples.
constexpr int kPoolGpus = 16;
constexpr int kStaticSlots = 4;  // 4 slots x 4 GPUs

const std::vector<JobDef>& fleet_jobs() {
  static const std::vector<JobDef> jobs = {
      {"batch-a", 0, 1.0, 2, 8, 0.0, 1200, 11},
      {"batch-b", 0, 1.0, 2, 8, 0.0, 1200, 12},
      {"batch-c", 0, 1.0, 2, 6, 2.0, 1000, 13},
      {"batch-d", 0, 1.0, 2, 6, 2.0, 1000, 14},
      {"std-a", 1, 1.0, 2, 6, 8.0, 800, 21},
      {"std-b", 1, 1.0, 2, 6, 10.0, 800, 22},
      {"std-c", 1, 1.0, 2, 4, 12.0, 600, 23},
      {"std-d", 1, 1.0, 2, 4, 14.0, 600, 24},
      {"inter-a", 3, 2.0, 4, 8, 6.0, 400, 31},
      {"inter-b", 3, 2.0, 4, 8, 16.0, 400, 32},
      {"urgent-a", 5, 2.0, 4, 4, 4.0, 200, 41},
      {"urgent-b", 5, 2.0, 4, 4, 18.0, 200, 42},
  };
  return jobs;
}

model::ModelDesc job_model(const JobDef& d) {
  return model::make_gpt(
      {.num_blocks = static_cast<std::size_t>(3 * d.max_gpus),
       .include_embedding = false,
       .include_lm_head = false});
}

runtime::SessionConfig job_session_config(const JobDef& d,
                                          std::int64_t iterations) {
  runtime::SessionConfig cfg;
  cfg.micro_batch = 2;
  cfg.num_microbatches = 8;
  cfg.iterations = iterations;
  cfg.sim_stride = 10;
  cfg.rebalance_interval = 50;
  cfg.mode = runtime::BalancingMode::DynMo;
  cfg.algorithm = balance::Algorithm::Partition;
  cfg.balance_by = balance::BalanceBy::Time;
  cfg.seed = d.seed;
  return cfg;
}

fleet::JobSpec make_spec(const JobDef& d, double time_scale) {
  const auto iterations = std::max<std::int64_t>(
      50, static_cast<std::int64_t>(d.iterations * time_scale));
  fleet::JobSpec spec;
  spec.name = d.name;
  spec.priority = d.priority;
  spec.weight = d.weight;
  spec.min_gpus = d.min_gpus;
  spec.max_gpus = d.max_gpus;
  spec.arrival_s = d.arrival_s * time_scale;
  spec.factory = [d, iterations, model = std::shared_ptr<model::ModelDesc>()](
                     int initial, repack::ControlPlane* cluster) mutable {
    model = std::make_shared<model::ModelDesc>(job_model(d));
    auto cfg = job_session_config(d, iterations);
    cfg.pipeline_stages = d.max_gpus;
    cfg.initial_active_workers = initial;
    cfg.elastic.enabled = true;
    cfg.elastic.interval = 100;
    cfg.elastic.min_workers = d.min_gpus;
    cfg.elastic.cluster = cluster;
    cfg.elastic.pod = d.name;
    cfg.elastic.restart_alpha_s = 0.5;
    cfg.elastic.checkpoint_bw = 16.0 * 1024 * 1024 * 1024;
    return std::make_unique<runtime::TrainingSession>(*model, cfg, nullptr);
  };
  return spec;
}

/// One scheduler outcome, fleet or static, on the common axes.
struct ArmResult {
  std::string label;
  double makespan_s = 0.0;
  double utilization = 0.0;
  double aggregate_tokens_per_sec = 0.0;
  double gpu_hours_saved = 0.0;
  int preemptions = 0;
  int grants = 0;
  int denies = 0;
};

/// The displaced scheduler: kStaticSlots fixed partitions of
/// kPoolGpus / kStaticSlots GPUs, jobs queued in arrival order onto the
/// earliest-free slot, each run non-elastically at exactly the slot width.
ArmResult run_static(double time_scale) {
  const int slot_gpus = kPoolGpus / kStaticSlots;
  std::vector<double> slot_free(kStaticSlots, 0.0);

  auto order = fleet_jobs();
  std::stable_sort(order.begin(), order.end(),
                   [](const JobDef& a, const JobDef& b) {
                     return a.arrival_s < b.arrival_s;
                   });

  ArmResult arm;
  arm.label = "static equal-split (4x4, no elastic)";
  double busy_gpu_s = 0.0;
  double total_tokens = 0.0;
  for (const JobDef& d : order) {
    const auto slot = static_cast<std::size_t>(
        std::min_element(slot_free.begin(), slot_free.end()) -
        slot_free.begin());
    const double start = std::max(d.arrival_s * time_scale, slot_free[slot]);

    const auto m = job_model(d);
    auto cfg = job_session_config(
        d, std::max<std::int64_t>(
               50, static_cast<std::int64_t>(d.iterations * time_scale)));
    cfg.pipeline_stages = slot_gpus;
    runtime::TrainingSession session(m, cfg, nullptr);
    const auto r = session.run();

    slot_free[slot] = start + r.total_time_s;
    busy_gpu_s += slot_gpus * r.total_time_s;
    total_tokens += r.tokens_per_sec * r.total_time_s;
    arm.makespan_s = std::max(arm.makespan_s, slot_free[slot]);
  }
  arm.utilization = busy_gpu_s / (kPoolGpus * arm.makespan_s);
  arm.aggregate_tokens_per_sec = total_tokens / arm.makespan_s;
  return arm;
}

ArmResult run_fleet(const std::string& label, double payoff_window,
                    bool work_conserving, bool allow_preemption,
                    double time_scale) {
  fleet::ArbiterConfig cfg;
  cfg.total_gpus = kPoolGpus;
  cfg.payoff_window_iters = payoff_window;
  cfg.work_conserving = work_conserving;
  cfg.allow_preemption = allow_preemption;
  fleet::Arbiter arbiter(cfg);
  for (const JobDef& d : fleet_jobs()) arbiter.submit(make_spec(d, time_scale));
  const auto r = arbiter.run();

  ArmResult arm;
  arm.label = label;
  arm.makespan_s = r.makespan_s;
  arm.utilization = r.utilization;
  arm.aggregate_tokens_per_sec = r.aggregate_tokens_per_sec;
  arm.gpu_hours_saved = r.gpu_hours_saved;
  arm.preemptions = r.preemptions;
  arm.grants = r.grants;
  arm.denies = r.denies;
  return arm;
}

void print_arms(const std::vector<ArmResult>& arms) {
  std::printf("%-42s %10s %7s %12s %8s %7s %7s\n", "scheduler", "makespan",
              "util%", "tokens/s", "preempt", "grant", "deny");
  for (const auto& a : arms) {
    std::printf("%-42s %9.1fs %6.1f%% %12.0f %8d %7d %7d\n", a.label.c_str(),
                a.makespan_s, 100.0 * a.utilization,
                a.aggregate_tokens_per_sec, a.preemptions, a.grants,
                a.denies);
  }
}

void write_json(const char* path, const std::vector<ArmResult>& arms,
                const ArmResult& st) {
  FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path);
    std::exit(2);
  }
  std::fprintf(f, "{\n  \"bench\": \"fleet\",\n  \"cases\": [\n");
  std::fprintf(f, "    {\"case\": \"pool16_jobs12\", \"rows\": [\n");
  for (std::size_t i = 0; i < arms.size(); ++i) {
    const auto& a = arms[i];
    std::fprintf(
        f,
        "      {\"series\": \"%s\", \"utilization\": %.4g, "
        "\"aggregate_tokens_per_sec\": %.4g, \"makespan_s\": %.4g, "
        "\"preemptions\": %d, \"grants\": %d, \"denies\": %d, "
        "\"gpu_hours_saved\": %.4g, \"utilization_vs_static\": %.4g, "
        "\"throughput_vs_static\": %.4g}%s\n",
        a.label.c_str(), a.utilization, a.aggregate_tokens_per_sec,
        a.makespan_s, a.preemptions, a.grants, a.denies, a.gpu_hours_saved,
        a.utilization / st.utilization,
        a.aggregate_tokens_per_sec / st.aggregate_tokens_per_sec,
        i + 1 < arms.size() ? "," : "");
  }
  std::fprintf(f, "    ]}\n  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  const char* json_path = bench::json_path_arg(argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  // --smoke runs the identical schedule: the fleet is simulated and the
  // whole sweep takes well under a second, and shortening the horizon
  // would distort the stall amortization the acceptance gate measures.
  const double time_scale = 1.0;

  (void)smoke;
  std::printf("Fleet arbiter: %zu heterogeneous jobs on a %d-GPU pool\n\n",
              fleet_jobs().size(), kPoolGpus);

  // The restart stall is ~1 s against ~20 ms iterations, so a window must
  // span a few hundred iterations before any checkpoint-coordinated move
  // can amortize — same calibration as bench_elastic.
  const auto st = run_static(time_scale);
  std::vector<ArmResult> arms;
  arms.push_back(st);
  arms.push_back(run_fleet("fleet (work-conserving, preemption, window 600)",
                           600.0, true, true, time_scale));
  arms.push_back(run_fleet("fleet (strict fair shares, window 600)", 600.0,
                           false, true, time_scale));
  arms.push_back(run_fleet("fleet (no preemption, window 600)", 600.0, true,
                           false, time_scale));
  arms.push_back(run_fleet("fleet (window 50: stall never amortizes)", 50.0,
                           true, true, time_scale));
  arms.push_back(run_fleet("fleet (pricing gates disabled)", 0.0, true, true,
                           time_scale));
  print_arms(arms);

  const auto& headline = arms[1];
  std::printf("\nheadline vs static: utilization %.1f%% -> %.1f%%, "
              "throughput %.2fx, %d preemption(s)\n",
              100.0 * st.utilization, 100.0 * headline.utilization,
              headline.aggregate_tokens_per_sec /
                  st.aggregate_tokens_per_sec,
              headline.preemptions);

  if (json_path != nullptr) write_json(json_path, arms, st);

  // Acceptance gate: strictly better utilization at equal-or-better
  // aggregate throughput, with the preemption path actually exercised
  // somewhere in the sweep.
  int swept_preemptions = 0;
  for (const auto& a : arms) swept_preemptions += a.preemptions;
  if (headline.utilization <= st.utilization ||
      headline.aggregate_tokens_per_sec < st.aggregate_tokens_per_sec ||
      swept_preemptions == 0) {
    std::fprintf(stderr,
                 "FAIL: fleet must beat static equal-split (util %.4f vs "
                 "%.4f, tokens/s %.0f vs %.0f) with preemptions > 0 "
                 "(swept: %d)\n",
                 headline.utilization, st.utilization,
                 headline.aggregate_tokens_per_sec,
                 st.aggregate_tokens_per_sec, swept_preemptions);
    return 1;
  }
  return 0;
}
