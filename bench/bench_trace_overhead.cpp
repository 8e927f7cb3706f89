// Telemetry observer-effect check on the Figure-3 MoE scenario: running
// with SessionConfig::telemetry enabled must (a) leave the modeled results
// — every decision, every byte, every map — identical to the disabled run,
// and (b) add less than 5% recording wall-clock on top of the simulation,
// judged on the median of alternating off/on pairs.
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
#include <algorithm>
#include <chrono>
#include <cstring>
#include <vector>

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

  // Alternating off/on pairs, each arm first in every other pair, gated on
  // the median of the per-pair on/off ratios: a burst of load on a shared
  // host skews one pair, not the verdict, and slow drift cancels within a
  // pair.
  const int pairs = 5;
  runtime::SessionResult off{}, on{};
  bool identical = true;
  std::vector<double> walls_off, walls_on, ratios;
  for (int p = 0; p < pairs; ++p) {
    auto traced = opt;
    traced.session.telemetry.dir = dir;
    double w_off = 0.0, w_on = 0.0;
    if (p % 2 == 0) {
      w_off = run_timed(model, opt, &off);
      w_on = run_timed(model, traced, &on);
    } else {
      w_on = run_timed(model, traced, &on);
      w_off = run_timed(model, opt, &off);
    }
    // (a) Pure observation: the results are bit-identical either way.
    identical = identical && off == on;
    walls_off.push_back(w_off);
    walls_on.push_back(w_on);
    ratios.push_back(w_on / w_off);
  }
  const auto median = [](std::vector<double> v) {
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    return v[v.size() / 2];
  };
  const double wall_off = median(walls_off);
  const double wall_on = median(walls_on);

  // (b) Recording cost: the median pair's extra wall-clock.
  const double overhead = median(ratios) - 1.0;
  const bool under_5pct = overhead < 0.05;

  telemetry::TraceReader reader(dir);
  std::int64_t trace_rows = 0;
  for (const auto& t : reader.catalog().tables) trace_rows += t.rows;

  std::printf("%-16s %12s %14s\n", "configuration", "tokens/s",
              "median wall [s]");
  std::printf("%-16s %12.0f %14.3f\n", "telemetry off", off.tokens_per_sec,
              wall_off);
  std::printf("%-16s %12.0f %14.3f\n", "telemetry on", on.tokens_per_sec,
              wall_on);
  std::printf("\nmodeled results identical: %s\n", identical ? "yes" : "NO");
  std::printf("trace rows written:        %lld\n",
              static_cast<long long>(trace_rows));
  std::printf("recording overhead:        %+.2f%% (median of %d pairs, "
              "budget 5%%) -> %s\n",
              100.0 * overhead, pairs, under_5pct ? "ok" : "OVER BUDGET");

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
