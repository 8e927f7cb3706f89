// Shared helpers for the figure-reproduction harnesses.
//
// Each bench binary regenerates one figure/table of the paper: it sweeps
// the same configurations, prints the same rows/series, and reports the
// speedups the paper highlights.  Absolute tokens/sec differ from the
// authors' H100 testbed (our substrate is a calibrated simulator); the
// *shape* — who wins, by what factor, where crossovers fall — is the
// reproduction target (see EXPERIMENTS.md).
#pragma once

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "dynmo/dynmo.hpp"

namespace dynmo::bench {

/// Paper-scale defaults: 720-GPU hybrid (90-way DP x 8-way PP) for the GPT
/// sweeps, 128-GPU (8-way DP x 16-way PP) for MoE.  The paper nominally
/// reports a 24-way pipeline; with 24-48 layer models that leaves 1-2
/// layers per stage, at which whole-layer rebalancing is degenerate, so we
/// keep >=3 layers per stage and put the rest of the GPUs in DP (same GPU
/// count, same global batch per GPU).
inline runtime::SessionConfig gpt_cluster_config() {
  runtime::SessionConfig cfg;
  cfg.pipeline_stages = 16;
  cfg.data_parallel = 45;
  cfg.micro_batch = 2;
  cfg.num_microbatches = 64;  // 4 in-flight microbatches per stage
  cfg.schedule = pipeline::ScheduleKind::ZbH1;
  cfg.iterations = 10000;
  cfg.sim_stride = 50;
  return cfg;
}

inline runtime::SessionConfig moe_cluster_config() {
  runtime::SessionConfig cfg;
  // 128 GPUs as in the paper; 8-way pipeline x 16-way DP so each stage
  // hosts >=4 MoE blocks (whole-layer rebalancing needs mixing room).
  cfg.pipeline_stages = 8;
  cfg.data_parallel = 16;
  cfg.micro_batch = 2;
  cfg.num_microbatches = 64;
  cfg.schedule = pipeline::ScheduleKind::ZbH1;
  cfg.iterations = 2000;   // steady-state routing: shorter window suffices
  cfg.sim_stride = 10;
  return cfg;
}

/// 8-way-pipeline variant of the GPT cluster for schemes whose alternating
/// block structure needs >=3 blocks per stage to rebalance (MoD).
inline runtime::SessionConfig gpt_cluster_config_deep_stages() {
  runtime::SessionConfig cfg = gpt_cluster_config();
  cfg.pipeline_stages = 8;
  cfg.data_parallel = 90;
  cfg.num_microbatches = 32;
  return cfg;
}

struct Row {
  std::string label;
  runtime::SessionResult result;
  /// Extra per-row numeric fields the JsonRecorder emits (after the
  /// uniform columns), rounded like every other field — bench_elastic
  /// records its lifecycle counters this way.  Keep measured wall-clock
  /// out (see docs/BENCHMARKS.md).
  std::vector<std::pair<std::string, double>> extra = {};
};

inline void print_table(const std::string& title,
                        const std::vector<Row>& rows,
                        double baseline_tokens_per_sec) {
  std::printf("\n== %s ==\n", title.c_str());
  std::printf("%-36s %12s %9s %9s %9s %8s\n", "configuration", "tokens/s",
              "idle%", "bubble%", "overh%", "speedup");
  for (const auto& r : rows) {
    std::printf("%-36s %12.0f %8.1f%% %8.1f%% %8.2f%% %7.2fx\n",
                r.label.c_str(), r.result.tokens_per_sec,
                100.0 * r.result.avg_idleness,
                100.0 * r.result.avg_bubble_ratio,
                100.0 * r.result.overhead_fraction,
                r.result.tokens_per_sec / baseline_tokens_per_sec);
  }
}

/// `--json PATH` argument shared by the figure benches (returns nullptr
/// when absent).
inline const char* json_path_arg(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      return argv[i + 1];
    }
  }
  return nullptr;
}

/// `--trace-dir DIR` argument: benches that support it write one telemetry
/// trace per swept configuration under DIR/<slug> (docs/TELEMETRY.md), so
/// a sweep's every decision is queryable after the fact.  Returns nullptr
/// when absent.
inline const char* trace_dir_arg(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace-dir") == 0 && i + 1 < argc) {
      return argv[i + 1];
    }
  }
  return nullptr;
}

/// Filesystem-safe subdirectory name for a sweep label.
inline std::string trace_slug(const std::string& label) {
  std::string s;
  for (const char c : label) {
    if (std::isalnum(static_cast<unsigned char>(c)) || c == '.' ||
        c == '-') {
      s.push_back(c);
    } else if (!s.empty() && s.back() != '_') {
      s.push_back('_');
    }
  }
  while (!s.empty() && s.back() == '_') s.pop_back();
  return s;
}

/// Uniform BENCH_fig3_*.json recorder: one object per bench, one entry per
/// case (model size / MoE variant), one row per series — the same rows
/// print_table shows.  Every field is rounded to 4 significant digits.
class JsonRecorder {
 public:
  explicit JsonRecorder(std::string bench) : bench_(std::move(bench)) {}

  void add_case(const std::string& title, const std::vector<Row>& rows,
                double baseline_tokens_per_sec) {
    cases_.push_back({title, rows, baseline_tokens_per_sec});
  }

  /// Counter-only row for benches whose deterministic content is traffic
  /// volume rather than throughput (bench_micro_comm): just a series label
  /// plus counter-derived fields, emitted verbatim.  Wall-clock stays in
  /// the printed table and out of the committed JSON (docs/BENCHMARKS.md).
  struct VolumeRow {
    std::string label;
    std::vector<std::pair<std::string, double>> fields;
  };

  void add_volume_case(const std::string& title,
                       const std::vector<VolumeRow>& rows) {
    volume_cases_.push_back({title, rows});
  }

  void write(const char* path) const {
    FILE* f = std::fopen(path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n", path);
      std::exit(2);
    }
    const std::size_t total = cases_.size() + volume_cases_.size();
    std::size_t written = 0;
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"cases\": [\n",
                 bench_.c_str());
    for (const Case& cs : cases_) {
      std::fprintf(f, "    {\"case\": \"%s\", \"rows\": [\n",
                   cs.title.c_str());
      for (std::size_t r = 0; r < cs.rows.size(); ++r) {
        const auto& res = cs.rows[r].result;
        std::fprintf(
            f,
            "      {\"series\": \"%s\", \"tokens_per_sec\": %.4g, "
            "\"idleness\": %.4g, \"bubble_ratio\": %.4g, "
            "\"overhead_fraction\": %.4g, \"speedup\": %.4g",
            cs.rows[r].label.c_str(), res.tokens_per_sec, res.avg_idleness,
            res.avg_bubble_ratio, res.overhead_fraction,
            res.tokens_per_sec / cs.baseline);
        for (const auto& [key, value] : cs.rows[r].extra) {
          std::fprintf(f, ", \"%s\": %.4g", key.c_str(), value);
        }
        std::fprintf(f, "}%s\n", r + 1 < cs.rows.size() ? "," : "");
      }
      std::fprintf(f, "    ]}%s\n", ++written < total ? "," : "");
    }
    for (const VolumeCase& cs : volume_cases_) {
      std::fprintf(f, "    {\"case\": \"%s\", \"rows\": [\n",
                   cs.title.c_str());
      for (std::size_t r = 0; r < cs.rows.size(); ++r) {
        std::fprintf(f, "      {\"series\": \"%s\"",
                     cs.rows[r].label.c_str());
        for (const auto& [key, value] : cs.rows[r].fields) {
          std::fprintf(f, ", \"%s\": %.4g", key.c_str(), value);
        }
        std::fprintf(f, "}%s\n", r + 1 < cs.rows.size() ? "," : "");
      }
      std::fprintf(f, "    ]}%s\n", ++written < total ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("\nwrote %s\n", path);
  }

 private:
  struct Case {
    std::string title;
    std::vector<Row> rows;
    double baseline;
  };
  struct VolumeCase {
    std::string title;
    std::vector<VolumeRow> rows;
  };
  std::string bench_;
  std::vector<Case> cases_;
  std::vector<VolumeCase> volume_cases_;
};

/// Run one (mode, algorithm, by) configuration of a use case.
inline runtime::SessionResult run_config(const model::ModelDesc& model,
                                         UseCase use_case, Options opt,
                                         runtime::BalancingMode mode,
                                         balance::Algorithm algo,
                                         balance::BalanceBy by,
                                         bool repack = false) {
  opt.session.mode = mode;
  opt.session.algorithm = algo;
  opt.session.balance_by = by;
  opt.session.repack = repack;
  Session session(model, use_case, opt);
  return session.run();
}

/// The paper reports DynMo as the best of {by-param, by-time}; by-time
/// consistently wins, so helpers sweep both and keep the best.
inline runtime::SessionResult run_dynmo_best(const model::ModelDesc& model,
                                             UseCase use_case,
                                             const Options& opt,
                                             balance::Algorithm algo,
                                             bool repack = false) {
  auto by_time = run_config(model, use_case, opt,
                            runtime::BalancingMode::DynMo, algo,
                            balance::BalanceBy::Time, repack);
  auto by_param = run_config(model, use_case, opt,
                             runtime::BalancingMode::DynMo, algo,
                             balance::BalanceBy::Param, repack);
  return by_time.tokens_per_sec >= by_param.tokens_per_sec ? by_time
                                                           : by_param;
}

}  // namespace dynmo::bench
