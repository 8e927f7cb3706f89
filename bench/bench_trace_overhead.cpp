// Telemetry observer-effect check on the Figure-3 MoE scenario: running
// with SessionConfig::telemetry enabled must (a) leave the modeled results
// — every decision, every byte, every map — identical to the disabled run,
// and (b) add less than 5% recording wall-clock on top of the simulation.
//
// Both claims are enforced by the exit code, so CI and record_bench.sh are
// gates, not just reports.  The committed BENCH_trace_overhead.json keeps
// only machine-independent fields: the modeled throughputs (identical on
// vs off by construction), the deterministic trace row counts, and the two
// pass/fail verdicts — the measured overhead percentage itself is printed
// but not recorded (docs/BENCHMARKS.md: wall-clock stays out of committed
// trajectories).
//
// `--smoke` shortens the simulated window for CI; `--json PATH` records
// the result; `--trace-dir DIR` keeps the telemetry-on trace around for
// inspection (default: a throwaway under /tmp).
#include <chrono>
#include <cstring>

#include "bench_common.hpp"
#include "telemetry/trace_reader.hpp"

namespace {

double run_timed(const dynmo::model::ModelDesc& model, dynmo::Options opt,
                 dynmo::runtime::SessionResult* out) {
  const auto t0 = std::chrono::steady_clock::now();
  dynmo::Session session(model, dynmo::UseCase::Moe, opt);
  *out = session.run();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dynmo;
  bool smoke = false;
  const char* json_path = bench::json_path_arg(argc, argv);
  const char* trace_dir = bench::trace_dir_arg(argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const std::string dir =
      trace_dir != nullptr ? trace_dir : "/tmp/dynmo_bench_trace_overhead";

  // The fig3 MoE panel's LLaMA-MoE arm: every-iteration Diffusion on the
  // 128-GPU cluster — the heaviest per-iteration telemetry cadence the
  // paper scenarios produce (one decision row + 8 stage rows per frame).
  const auto model =
      model::make_moe(model::llama_moe_3_5b_config(), "llama-moe-3.5b");
  Options opt;
  opt.session = bench::moe_cluster_config();
  opt.session.mode = runtime::BalancingMode::DynMo;
  opt.session.algorithm = balance::Algorithm::Diffusion;
  opt.session.balance_by = balance::BalanceBy::Time;
  opt.session.rebalance_interval = 1;
  opt.moe.routing = dynamic::MoeRouting::SBase;
  opt.moe.tokens_per_microbatch = 1024;
  if (smoke) {
    opt.session.iterations = 200;
    opt.moe.tokens_per_microbatch = 512;
  }

  std::printf("Telemetry overhead on the fig3 MoE scenario (%lld iters, "
              "stride %lld, every-iteration Diffusion)%s\n\n",
              static_cast<long long>(opt.session.iterations),
              static_cast<long long>(opt.session.sim_stride),
              smoke ? " (smoke)" : "");

  // Min-of-N wall clock per arm: the simulation dominates, the min strips
  // scheduler noise.
  const int reps = smoke ? 2 : 3;
  runtime::SessionResult off{}, on{};
  double wall_off = 1e300, wall_on = 1e300;
  for (int r = 0; r < reps; ++r) {
    auto o = opt;
    wall_off = std::min(wall_off, run_timed(model, o, &off));
    o.session.telemetry.dir = dir;
    wall_on = std::min(wall_on, run_timed(model, o, &on));
  }

  // (a) Pure observation: the results are bit-identical either way.
  const bool identical = off == on;

  // (b) Recording cost: the telemetry-on run's extra wall-clock.
  const double overhead = wall_on / wall_off - 1.0;
  const bool under_5pct = overhead < 0.05;

  telemetry::TraceReader reader(dir);
  std::int64_t trace_rows = 0;
  for (const auto& t : reader.catalog().tables) trace_rows += t.rows;

  std::printf("%-16s %12s %14s\n", "configuration", "tokens/s", "wall [s]");
  std::printf("%-16s %12.0f %14.3f\n", "telemetry off", off.tokens_per_sec,
              wall_off);
  std::printf("%-16s %12.0f %14.3f\n", "telemetry on", on.tokens_per_sec,
              wall_on);
  std::printf("\nmodeled results identical: %s\n", identical ? "yes" : "NO");
  std::printf("trace rows written:        %lld\n",
              static_cast<long long>(trace_rows));
  std::printf("recording overhead:        %+.2f%% (budget 5%%) -> %s\n",
              100.0 * overhead, under_5pct ? "ok" : "OVER BUDGET");

  bench::JsonRecorder rec("trace_overhead");
  const std::vector<bench::Row> rows = {
      {"telemetry off", off},
      {"telemetry on", on,
       {{"trace_rows", static_cast<double>(trace_rows)},
        {"results_identical", identical ? 1.0 : 0.0},
        {"overhead_under_5pct", under_5pct ? 1.0 : 0.0}}},
  };
  rec.add_case("fig3 MoE (LLaMA-MoE-3.5B, S-BASE cadence 1)", rows,
               off.tokens_per_sec);
  if (json_path != nullptr) rec.write(json_path);

  return identical && under_5pct ? 0 : 1;
}
