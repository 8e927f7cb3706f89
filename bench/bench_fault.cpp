// Fault & checkpoint-cadence sweep (docs/FAULT.md): MTBF-driven worker
// losses against a grid of periodic-checkpoint cadences, pricing the
// cadence trade-off the paper's elastic restart machinery implies but
// never measures:
//
//   * never checkpoint (cadence 0) — every loss re-does all work since
//     the last restart: lost-work grows with the MTBF horizon;
//   * checkpoint every window (the tightest legal cadence) — losses are
//     cheap but the steady-state write tax is paid at every boundary;
//   * an *interior* cadence — near sqrt(2 * write_cost * MTBF) in the
//     classic Young/Daly approximation — minimizes total time.
//
// The binary exit-code-gates the interior optimum (bench/record_bench.sh
// and CI run it): exit 1 if the best swept cadence is ever the
// never-checkpoint or tightest-cadence endpoint for the canonical MTBF,
// so a pricing regression (lost work dropped, writes double-charged)
// fails the build rather than silently bending the recorded curves.
//
// A second sweep shows degraded-GPU routing: a persistent straggler under
// DynMo (capacity-aware partition) vs. the static pipeline eating the
// full slowdown.  `--smoke` shrinks horizons for CI; `--json PATH`
// records both sweeps; `--trace-dir DIR` records per-config traces whose
// fault_events table holds every loss with its stall breakdown.
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"

namespace {

using namespace dynmo;

struct Scenario {
  std::int64_t iterations;
  double mtbf_iters;
  int max_losses;
};

runtime::SessionConfig base_config(const Scenario& sc) {
  runtime::SessionConfig cfg;
  cfg.pipeline_stages = 8;
  cfg.micro_batch = 2;
  cfg.num_microbatches = 16;
  cfg.iterations = sc.iterations;
  cfg.sim_stride = 10;
  cfg.rebalance_interval = 100;
  cfg.mode = runtime::BalancingMode::DynMo;
  cfg.algorithm = balance::Algorithm::Partition;
  cfg.balance_by = balance::BalanceBy::Time;
  return cfg;
}

const char* g_trace_dir = nullptr;

runtime::SessionResult run_one(const model::ModelDesc& m,
                               runtime::SessionConfig cfg,
                               const std::string& label) {
  if (g_trace_dir != nullptr) {
    cfg.telemetry.dir =
        std::string(g_trace_dir) + "/" + bench::trace_slug(label);
  }
  repack::MockEckCluster eck;
  cfg.elastic.cluster = &eck;
  runtime::TrainingSession session(m, cfg, nullptr);
  return session.run();
}

bench::Row make_row(std::string label, runtime::SessionResult r) {
  bench::Row row;
  row.label = std::move(label);
  row.extra = {{"worker_losses", static_cast<double>(r.worker_losses)},
               {"lost_work_s", r.lost_work_s},
               {"restart_stall_s", r.restart_stall_s},
               {"checkpoints", static_cast<double>(r.checkpoints_written)},
               {"ckpt_write_s", r.checkpoint_write_s},
               {"total_time_s", r.total_time_s}};
  row.result = std::move(r);
  return row;
}

void print_cadence(const std::vector<bench::Row>& rows) {
  std::printf("%-28s %7s %10s %10s %7s %10s %11s\n", "configuration",
              "losses", "lost s", "stall s", "ckpts", "write s",
              "total s");
  for (const auto& r : rows) {
    std::printf("%-28s %7d %10.2f %10.2f %7d %10.2f %11.2f\n",
                r.label.c_str(), r.result.worker_losses,
                r.result.lost_work_s, r.result.restart_stall_s,
                r.result.checkpoints_written, r.result.checkpoint_write_s,
                r.result.total_time_s);
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  const char* json_path = bench::json_path_arg(argc, argv);
  g_trace_dir = bench::trace_dir_arg(argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  const Scenario sc = smoke ? Scenario{2000, 500.0, 4}
                            : Scenario{6000, 1200.0, 6};
  const auto m = model::make_gpt({.num_blocks = 24,
                                  .include_embedding = false,
                                  .include_lm_head = false});
  std::printf("Fault sweep: 24-layer GPT on 8 workers, MTBF %.0f iters, "
              "horizon %lld iters%s\n\n",
              sc.mtbf_iters, static_cast<long long>(sc.iterations),
              smoke ? " (smoke)" : "");

  const auto fault_config = [&](double mtbf, std::int64_t cadence) {
    auto cfg = base_config(sc);
    cfg.elastic.enabled = true;
    cfg.elastic.interval = 1000;
    cfg.elastic.min_workers = 2;
    cfg.elastic.payoff_window_iters = 1e-3;  // no voluntary transitions
    cfg.elastic.restart_alpha_s = 2.0;
    // Slow shared-filesystem checkpoints (512 MiB/s): the write tax is
    // real, so the cadence trade-off has an interior optimum.
    cfg.elastic.checkpoint_bw = 512.0 * 1024 * 1024;
    cfg.fault.mtbf_iters = mtbf;
    cfg.fault.max_mtbf_losses = sc.max_losses;
    cfg.checkpoint_interval_iters = cadence;
    return cfg;
  };

  bench::JsonRecorder recorder("fault");
  const auto fault_free = run_one(m, base_config(sc), "fault-free");

  // --- sweep 1: checkpoint cadence under MTBF losses ---------------------
  // Cadences are multiples of sim_stride (10); 10 is the tightest legal
  // "every window" cadence, 0 means restarts roll back to the last
  // recovery (or the start).
  const std::vector<std::int64_t> cadences = {0,   10,  50,   100,
                                              200, 500, 1000, 2000};
  int best = -1;
  {
    std::vector<bench::Row> rows;
    for (const std::int64_t cadence : cadences) {
      char label[64];
      std::snprintf(label, sizeof label, "cadence %lld",
                    static_cast<long long>(cadence));
      rows.push_back(
          make_row(label, run_one(m, fault_config(sc.mtbf_iters, cadence),
                                  label)));
    }
    for (std::size_t i = 0; i < rows.size(); ++i) {
      if (best < 0 || rows[i].result.total_time_s <
                          rows[static_cast<std::size_t>(best)]
                              .result.total_time_s) {
        best = static_cast<int>(i);
      }
    }
    bench::print_table("checkpoint cadence under MTBF losses", rows,
                       fault_free.tokens_per_sec);
    std::printf("\n");
    print_cadence(rows);
    const double daly = std::sqrt(
        2.0 * sc.mtbf_iters *
        (rows[1].result.checkpoint_write_s /
         std::max(1.0, static_cast<double>(
                           rows[1].result.checkpoints_written))) /
        (fault_free.total_time_s /
         static_cast<double>(sc.iterations)));
    std::printf("\nbest cadence: %lld (Young/Daly estimate ~%.0f iters)\n",
                static_cast<long long>(
                    cadences[static_cast<std::size_t>(best)]),
                daly);
    recorder.add_case("cadence", rows, fault_free.tokens_per_sec);
  }

  // --- sweep 2: degraded-GPU routing ------------------------------------
  {
    std::vector<bench::Row> rows;
    rows.push_back(make_row("fault-free dynmo", fault_free));
    for (const double mult : {0.75, 0.5, 0.25}) {
      const auto straggled = [&](runtime::BalancingMode mode,
                                 const char* name) {
        auto cfg = base_config(sc);
        cfg.mode = mode;
        cfg.fault.stragglers = {
            {.worker = 4, .multiplier = mult, .from_iter = 0}};
        char label[64];
        std::snprintf(label, sizeof label, "%s x%.2f", name, mult);
        rows.push_back(make_row(label, run_one(m, cfg, label)));
      };
      straggled(runtime::BalancingMode::StaticUniform, "static");
      straggled(runtime::BalancingMode::DynMo, "dynmo");
    }
    bench::print_table("persistent straggler: static vs capacity-aware",
                       rows, fault_free.tokens_per_sec);
    recorder.add_case("straggler_routing", rows,
                      fault_free.tokens_per_sec);
  }

  if (json_path != nullptr) recorder.write(json_path);

  // Exit-code gate: the cadence optimum must be interior — tighter than
  // never-checkpointing, looser than checkpointing every window.
  if (best <= 0 || cadences[static_cast<std::size_t>(best)] ==
                       cadences[1]) {
    std::fprintf(stderr,
                 "FAIL: cadence optimum fell on an endpoint (index %d) — "
                 "checkpoint pricing is broken\n",
                 best);
    return 1;
  }
  std::printf("\ninterior cadence optimum verified\n");
  return 0;
}
