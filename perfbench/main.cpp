// Wall-clock benchmark of the DynMo simulator itself.
//
//   perfbench --workload NAME --seed N --seconds T --trace 0|1
//
// Runs one workload from workloads.hpp for about T seconds of timed ops,
// prints human-readable lines, and ends with one JSON object on the last
// line of standard output.  With --trace 0 the object carries the
// end-to-end metrics; with --trace 1 it carries the per-layer metrics of
// a traced run (trace.hpp), which spends the first half of T untraced and
// the second half traced so that the tracing overhead is measured too.
// perfbench/run.py builds this program and turns its output into the
// benchmark result; README.md describes the metrics.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "runtime/session.hpp"
#include "runtime/threaded.hpp"
#include "tensor/tensor.hpp"
#include "trace.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS ""
#endif

namespace {

using namespace perfbench;

// ------------------------------------------------------------ arguments

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      a.trace = value == "1";
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  const auto& names = session_workload_names();
  if (a.workload != "threaded_migrate" &&
      std::find(names.begin(), names.end(), a.workload) == names.end()) {
    throw std::invalid_argument("unknown workload '" + a.workload + "'");
  }
  if (!(a.seconds > 0.0) || a.seconds > 600.0) {
    throw std::invalid_argument("--seconds must be in (0, 600]");
  }
  return a;
}

// ------------------------------------------------------- machine header

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitizerMacro = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer) ||                                      \
    __has_feature(undefined_behavior_sanitizer)
constexpr bool kSanitizerMacro = true;
#else
constexpr bool kSanitizerMacro = false;
#endif
#else
constexpr bool kSanitizerMacro = false;
#endif

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon == std::string::npos) break;
    const auto start = line.find_first_not_of(" \t", colon + 1);
    return start == std::string::npos ? "unknown" : line.substr(start);
  }
  return "unknown";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("g++ ") + __VERSION__;
#else
  return "unknown";
#endif
}

/// Refuse to time a build whose numbers would mislead.
void require_timing_build() {
  const bool sanitized = kSanitizerMacro ||
                         std::strstr(PERFBENCH_CXX_FLAGS, "-fsanitize") !=
                             nullptr;
  if (!kOptimized || sanitized) {
    throw std::runtime_error(
        std::string("refusing to time a ") +
        (sanitized ? "sanitizer" : "non-optimized") + " build (" +
        PERFBENCH_BUILD_TYPE + ", flags '" + PERFBENCH_CXX_FLAGS + "')");
  }
}

// --------------------------------------------------------------- output

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  ///< printed with the human-readable line only
};

/// Everything one invocation reports.
struct Report {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::string digest;
  std::vector<Metric> metrics;
};

void print_report(const Args& a, const Report& r) {
  std::printf("\n%-28s %16s  %s\n", "metric", "value", "unit");
  for (const auto& m : r.metrics) {
    std::printf("%-28s %16.6g  %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
  const double error_rate =
      r.attempted > 0 ? static_cast<double>(r.failed) /
                            static_cast<double>(r.attempted)
                      : 1.0;
  std::printf("%-28s %16.6g  %-6s (%lld of %lld ops)\n", "error_rate",
              error_rate, "ratio", static_cast<long long>(r.failed),
              static_cast<long long>(r.attempted));

  std::string metrics;
  for (const auto& m : r.metrics) {
    if (!metrics.empty()) metrics += ", ";
    metrics += json_string(m.name) + ": {\"value\": " + json_number(m.value) +
               ", \"unit\": " + json_string(m.unit) + "}";
  }
  std::printf("workload %s, seed %llu, trace %d, output digest %s\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              a.trace ? 1 : 0, r.digest.c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": {%s}}\n",
      r.correct ? "true" : "false", static_cast<long long>(r.attempted),
      static_cast<long long>(r.failed), metrics.c_str());
  std::fflush(stdout);
}

// ---------------------------------------------------------------- stats

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct Tail {
  double percentile = 50.0;
  double value = 0.0;
};

/// The highest of a fixed ladder of percentiles that still has at least
/// ten samples beyond it (linear interpolation between order statistics).
Tail tail(std::vector<double> v) {
  Tail t;
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    t.percentile = p;
    if (n * (1.0 - p / 100.0) >= 10.0 - 1e-9) break;
  }
  const double pos = t.percentile / 100.0 * (n - 1.0);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  t.value = v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
  return t;
}

std::string samples_note(std::size_t n, const char* what) {
  return "(" + std::to_string(n) + " " + what + ")";
}

/// Peak resident memory of this process image.  VmHWM, not ru_maxrss:
/// Linux carries ru_maxrss across exec, so it would report the launching
/// Python process's footprint whenever that is larger.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

/// Set-up timing, interleaved with the measured repeats so that it sees
/// the same machine conditions as the ops.  A sample is the mean of
/// `batch` set-ups, each timed on its own and destroyed outside the timed
/// region; `batch` makes a sample about 2 ms long, so sub-microsecond
/// set-ups still read well above the clock's resolution.
template <class Make>
class SetupSampler {
 public:
  explicit SetupSampler(Make make) : make_(std::move(make)) {
    const auto t0 = Clock::now();
    { auto cold = make_(); }
    const double single = std::max(seconds_since(t0), 1e-9);
    batch_ = std::clamp(static_cast<int>(2e-3 / single), 1, 1000);
  }

  void sample() {
    double total = 0.0;
    for (int b = 0; b < batch_; ++b) {
      const auto t0 = Clock::now();
      auto obj = make_();
      total += seconds_since(t0);
    }
    samples_.push_back(total / batch_);
  }

  /// At least `min_samples`, topping up after short runs.
  const std::vector<double>& samples(std::size_t min_samples = 15) {
    while (samples_.size() < min_samples) sample();
    return samples_;
  }

 private:
  Make make_;
  int batch_ = 1;
  std::vector<double> samples_;
};

// ----------------------------------------------------- output checking

/// FNV-1a over the raw bytes of the fields it is fed.
class Digest {
 public:
  template <class T>
  void add(const T& v) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &v, sizeof(T));
    for (const unsigned char b : bytes) {
      h_ = (h_ ^ b) * 0x100000001b3ULL;
    }
  }
  std::string hex() const {
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Digest of a session's decision-path results.  Excludes total_time_s,
/// tokens_per_sec and the overheads: the measured balancer decide time
/// leaks into those, so they differ between identical runs.
std::string session_digest(const dm::runtime::SessionResult& r) {
  Digest d;
  for (const std::size_t b : r.final_map.boundaries()) {
    d.add(static_cast<std::uint64_t>(b));
  }
  for (const int c : {r.rebalance_count, r.repack_count, r.maps_accepted,
                      r.maps_rejected_bottleneck, r.maps_rejected_payoff,
                      r.expands, r.shrinks, r.forced_shrinks, r.worker_losses,
                      r.straggler_events, r.checkpoints_written}) {
    d.add(c);
  }
  for (const double x : {r.migration_bytes_avoided, r.avg_idleness,
                         r.avg_bubble_ratio, r.peak_stage_memory,
                         r.avg_active_workers}) {
    d.add(x);
  }
  d.add(r.oom);
  d.add(r.failed);
  return d.hex();
}

bool session_sane(const dm::runtime::SessionResult& r,
                  const dm::model::ModelDesc& model,
                  const dm::runtime::SessionConfig& cfg) {
  const auto in_unit = [](double x) { return x >= 0.0 && x <= 1.0; };
  return !r.failed && r.final_map.num_layers() == model.num_layers() &&
         r.final_map.num_stages() == cfg.pipeline_stages &&
         in_unit(r.avg_idleness) && in_unit(r.avg_bubble_ratio) &&
         r.tokens_per_sec > 0.0 &&
         static_cast<std::int64_t>(r.samples.size()) ==
             cfg.iterations / cfg.sim_stride;
}

// ------------------------------------------------------ session workloads

/// Timed ops of one measurement window.
struct OpLog {
  std::vector<double> op_s;
  double iters = 0.0;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  int repeats = 0;
};

struct Repeat {
  std::string digest;  ///< empty when a step threw or the sanity check failed
  dm::runtime::SessionResult result;
};

/// One full session from a fresh engine, timing every step() into `log`.
/// `after_step(iter)` runs between windows, outside the timed region.
/// When `reference` is non-empty, a repeat whose digest differs counts all
/// of its ops as failed.
Repeat run_session(const SessionWorkload& w, const dm::model::ModelDesc& model,
                   dm::dynamic::DynamismEngine* engine, OpLog& log,
                   const std::string& reference,
                   const std::function<void(std::int64_t)>& after_step) {
  Repeat rep;
  const std::int64_t attempted0 = log.attempted;
  try {
    dm::runtime::TrainingSession session(model, w.cfg, engine);
    session.start();
    while (!session.done()) {
      const std::int64_t iter = session.current_iter();
      ++log.attempted;
      const auto t0 = Clock::now();
      session.step();
      log.op_s.push_back(seconds_since(t0));
      log.iters += static_cast<double>(
          std::min(w.cfg.sim_stride, w.cfg.iterations - iter));
      if (after_step) after_step(iter);
    }
    rep.result = session.finish();
    if (session_sane(rep.result, model, w.cfg)) {
      rep.digest = session_digest(rep.result);
    } else {
      std::printf("repeat %d: result failed the sanity check\n", log.repeats);
    }
  } catch (const std::exception& e) {
    std::printf("repeat %d failed: %s\n", log.repeats, e.what());
  }
  if (!reference.empty() && rep.digest != reference) {
    if (!rep.digest.empty()) {
      std::printf("repeat %d: digest %s differs from reference %s\n",
                  log.repeats, rep.digest.c_str(), reference.c_str());
    }
    log.failed += log.attempted - attempted0;
  }
  ++log.repeats;
  return rep;
}

struct SessionMeasurement {
  OpLog log;
  dm::runtime::SessionResult last;
  bool shadow_tracks = true;  ///< shadow map == session map every repeat
};

/// Whole repeats until `seconds` have passed; traced when `trace` is set.
/// `between` (may be empty) runs before every repeat, outside its ops.
SessionMeasurement measure_session(const SessionWorkload& w,
                                   const dm::model::ModelDesc& model,
                                   const std::string& reference,
                                   double seconds, TraceStats* trace,
                                   const std::function<void()>& between) {
  SessionMeasurement m;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  do {
    auto engine = w.make_engine(model);
    if (between) between();
    if (trace == nullptr) {
      m.last = run_session(w, model, engine.get(), m.log, reference, {}).result;
      continue;
    }
    TimedEngine timed(*engine, *trace);
    Shadow shadow(model, w.cfg,
                  dynamic_cast<const dm::dynamic::MoeEngine*>(engine.get()),
                  *trace);
    auto rep = run_session(w, model, &timed, m.log, reference,
                           [&](std::int64_t iter) {
                             shadow.window(iter, timed.states(), timed.scale());
                           });
    if (!rep.digest.empty() && !(shadow.map() == rep.result.final_map)) {
      m.shadow_tracks = false;
    }
    m.last = std::move(rep.result);
  } while (Clock::now() < deadline);
  return m;
}

/// A session workload's objects as set-up builds them; heap-held because
/// the session keeps pointers to the model and the engine.
struct SessionSetup {
  dm::model::ModelDesc model;
  std::unique_ptr<dm::dynamic::DynamismEngine> engine;
  std::optional<dm::runtime::TrainingSession> session;
};

std::vector<Metric> end_to_end(const OpLog& log,
                               const std::vector<double>& setup_s,
                               double rss_mb) {
  const Tail t = tail(log.op_s);
  char pct[16];
  std::snprintf(pct, sizeof(pct), "p%g", t.percentile);
  return {
      {"sim_iters_per_s", ratio(log.iters, sum(log.op_s)), "1/s",
       samples_note(log.op_s.size(), "ops")},
      {"op_p50_ms", median(log.op_s) * 1e3, "ms",
       samples_note(log.op_s.size(), "ops")},
      {"op_tail_ms", t.value * 1e3, "ms",
       "(" + std::string(pct) + " of " + std::to_string(log.op_s.size()) +
           " ops)"},
      {"setup_s", median(setup_s), "s",
       samples_note(setup_s.size(), "set-up samples")},
      {"peak_rss_mb", rss_mb, "MB", "(VmHWM)"},
  };
}

/// Per-layer metric names in output order, with their units.  Metrics a
/// workload does not exercise read 0.
const std::vector<std::pair<std::string, std::string>>& layer_metric_units() {
  static const std::vector<std::pair<std::string, std::string>> units = {
      {"dynamic.step_ms", "ms"},
      {"dynamic.step_share", "ratio"},
      {"dynamic.route_us", "us"},
      {"dynamic.route_calls", "count"},
      {"dynamic.mb_scale_ns", "ns"},
      {"dynamic.mb_scale_calls", "count"},
      {"pipeline.layer_costs_ms", "ms"},
      {"pipeline.build_ms", "ms"},
      {"pipeline.simulate_ms", "ms"},
      {"pipeline.ops", "count"},
      {"pipeline.share", "ratio"},
      {"balance.rebalance_ms", "ms"},
      {"balance.rebalance_tail_ms", "ms"},
      {"balance.propose_ms", "ms"},
      {"balance.accept_ms", "ms"},
      {"balance.diffusion_rounds", "count"},
      {"balance.touched_stages", "count"},
      {"balance.accept_ratio", "ratio"},
      {"balance.plan_migration_us", "us"},
      {"balance.share", "ratio"},
      {"repack.contiguous_us", "us"},
      {"runtime.elastic_decide_ms", "ms"},
      {"runtime.ckpt_serialize_us", "us"},
      {"runtime.ckpt_deserialize_us", "us"},
      {"runtime.ckpt_bytes", "bytes"},
      {"runtime.restarts", "count"},
      {"fault.straggler_events", "count"},
      {"threaded.busy_share", "ratio"},
      {"comm.wait_share", "ratio"},
      {"threaded.bytes_migrated", "bytes"},
      {"threaded.bytes_checkpoint", "bytes"},
      {"threaded.restarts", "count"},
      {"tensor.matmul_us", "us"},
      {"process.cpu_s", "s"},
      {"trace.coverage", "ratio"},
      {"trace.overhead", "ratio"},
  };
  return units;
}

/// Fill every per-layer metric, in the fixed order, from name -> value.
std::vector<Metric> layer_metrics(
    const std::vector<std::pair<std::string, double>>& values) {
  std::vector<Metric> out;
  std::size_t matched = 0;
  for (const auto& [name, unit] : layer_metric_units()) {
    Metric m{name, 0.0, unit, ""};
    for (const auto& [k, v] : values) {
      if (k == name) {
        m.value = v;
        ++matched;
      }
    }
    out.push_back(m);
  }
  if (matched != values.size()) {
    throw std::logic_error("a per-layer value names no known metric");
  }
  return out;
}

Report run_session_workload(const Args& a) {
  const SessionWorkload w = session_workload(a.workload, a.seed);
  const auto model = w.make_model();
  std::printf("workload %s: %zu layers on %d stages x %d DP, %d microbatches, "
              "%lld iterations per repeat, stride %lld, seed %llu\n",
              a.workload.c_str(), model.num_layers(), w.cfg.pipeline_stages,
              w.cfg.data_parallel, w.cfg.num_microbatches,
              static_cast<long long>(w.cfg.iterations),
              static_cast<long long>(w.cfg.sim_stride),
              static_cast<unsigned long long>(a.seed));

  // The first repeat warms caches and fixes the reference digest every
  // timed repeat must reproduce.
  OpLog warmup;
  auto ref_engine = w.make_engine(model);
  const Repeat ref =
      run_session(w, model, ref_engine.get(), warmup, "", {});
  if (ref.digest.empty()) {
    throw std::runtime_error("the reference repeat failed");
  }
  const auto& rr = ref.result;
  std::printf("reference digest %s: final map %d stages, %d rebalances, "
              "%d accepted, %d+%d rejected, bubble %.4f, restarts %d, "
              "straggler events %d\n",
              ref.digest.c_str(), rr.final_map.num_stages(),
              rr.rebalance_count, rr.maps_accepted,
              rr.maps_rejected_bottleneck, rr.maps_rejected_payoff,
              rr.avg_bubble_ratio,
              rr.shrinks + rr.expands + rr.forced_shrinks + rr.worker_losses,
              rr.straggler_events);

  Report r;
  r.digest = ref.digest;
  if (!a.trace) {
    SetupSampler setup([&] {
      auto s = std::make_unique<SessionSetup>();
      s->model = w.make_model();
      s->engine = w.make_engine(s->model);
      s->session.emplace(s->model, w.cfg, s->engine.get());
      s->session->start();
      return s;
    });
    const auto m = measure_session(w, model, ref.digest, a.seconds, nullptr,
                                   [&] { setup.sample(); });
    std::printf("%d repeats\n", m.log.repeats);
    r.attempted = m.log.attempted;
    r.failed = m.log.failed;
    r.metrics = end_to_end(m.log, setup.samples(), peak_rss_mb());
    return r;
  }

  const auto plain = measure_session(w, model, ref.digest, a.seconds / 2,
                                     nullptr, {});
  TraceStats st;
  const auto traced =
      measure_session(w, model, ref.digest, a.seconds / 2, &st, {});
  r.attempted = plain.log.attempted + traced.log.attempted;
  r.failed = plain.log.failed + traced.log.failed;
  std::printf("%d untraced + %d traced repeats; shadow loop %s the "
              "session's stage maps\n",
              plain.log.repeats, traced.log.repeats,
              traced.shadow_tracks ? "reproduced" : "diverged from");

  const double step_s = sum(traced.log.op_s);
  const double windows = static_cast<double>(std::max<std::int64_t>(st.windows, 1));
  const double decisions = static_cast<double>(std::max<std::int64_t>(st.decisions, 1));
  std::size_t moe_layers = 0;
  for (const auto& l : model.layers) {
    if (l.kind == dm::model::LayerKind::MoeTransformerBlock) ++moe_layers;
  }
  const double pipeline_s =
      sum(st.layer_costs_s) + sum(st.build_s) + sum(st.simulate_s);
  const double covered_s = sum(st.engine_step_s) + pipeline_s +
                           sum(st.rebalance_s) + sum(st.elastic_decide_s);
  const Tail rb_tail = tail(st.rebalance_s);
  const auto& last = traced.last;
  r.metrics = layer_metrics({
      {"dynamic.step_ms", median(st.engine_step_s) * 1e3},
      {"dynamic.step_share", ratio(sum(st.engine_step_s), step_s)},
      {"dynamic.route_us", median(st.route_s) * 1e6},
      {"dynamic.route_calls",
       st.route_s.empty() ? 0.0
                          : static_cast<double>(moe_layers) *
                                w.cfg.num_microbatches},
      {"dynamic.mb_scale_ns", ratio(st.mb_scale_s * 1e9,
                                    static_cast<double>(st.mb_scale_calls))},
      {"dynamic.mb_scale_calls", static_cast<double>(st.mb_scale_calls) / windows},
      {"pipeline.layer_costs_ms", median(st.layer_costs_s) * 1e3},
      {"pipeline.build_ms", median(st.build_s) * 1e3},
      {"pipeline.simulate_ms", median(st.simulate_s) * 1e3},
      {"pipeline.ops", static_cast<double>(st.pipeline_ops) / windows},
      {"pipeline.share", ratio(pipeline_s, step_s)},
      {"balance.rebalance_ms", median(st.rebalance_s) * 1e3},
      {"balance.rebalance_tail_ms", rb_tail.value * 1e3},
      {"balance.propose_ms", median(st.propose_s) * 1e3},
      {"balance.accept_ms", median(st.accept_s) * 1e3},
      {"balance.diffusion_rounds",
       ratio(st.diffusion_rounds, static_cast<double>(st.diffusion_decisions))},
      {"balance.touched_stages", st.touched_stages / decisions},
      {"balance.accept_ratio", static_cast<double>(st.accepted) / decisions},
      {"balance.plan_migration_us", median(st.plan_migration_s) * 1e6},
      {"balance.share", ratio(sum(st.rebalance_s), step_s)},
      {"repack.contiguous_us", median(st.repack_s) * 1e6},
      {"runtime.elastic_decide_ms", median(st.elastic_decide_s) * 1e3},
      {"runtime.ckpt_serialize_us", median(st.ckpt_serialize_s) * 1e6},
      {"runtime.ckpt_deserialize_us", median(st.ckpt_deserialize_s) * 1e6},
      {"runtime.ckpt_bytes", st.ckpt_bytes},
      {"runtime.restarts", static_cast<double>(last.shrinks + last.expands +
                                               last.forced_shrinks +
                                               last.worker_losses)},
      {"fault.straggler_events", static_cast<double>(last.straggler_events)},
      {"process.cpu_s", cpu_seconds()},
      {"trace.coverage", ratio(covered_s, step_s)},
      {"trace.overhead",
       ratio(median(traced.log.op_s), median(plain.log.op_s)) - 1.0},
  });
  std::printf("traced: %lld windows, %lld decisions (tail p%g), "
              "%zu checkpoint and %zu elastic samples\n",
              static_cast<long long>(st.windows),
              static_cast<long long>(st.decisions), rb_tail.percentile,
              st.ckpt_serialize_s.size(), st.elastic_decide_s.size());
  return r;
}

// ------------------------------------------------------ threaded workload

bool same_math(const dm::runtime::ThreadedReport& got,
               const dm::runtime::ThreadedReport& ref) {
  return got.iterations_run == ref.iterations_run &&
         got.output_checksum == ref.output_checksum &&
         got.weight_checksums == ref.weight_checksums;
}

std::string threaded_digest(const dm::runtime::ThreadedReport& r) {
  Digest d;
  d.add(r.output_checksum);
  for (const auto c : r.weight_checksums) d.add(c);
  return d.hex();
}

struct ThreadedSetup {
  std::vector<dm::runtime::PlanPhase> plan;
  std::optional<dm::runtime::ThreadedPipeline> pipe;
};

Report run_threaded_workload(const Args& a) {
  const ThreadedWorkload w = threaded_migrate(a.seed);
  std::printf("workload threaded_migrate: %d workers, %zu layers of %zux%zu, "
              "%zu rows, %d microbatches, %zu phases, seed %llu\n",
              w.cfg.workers, w.cfg.num_layers, w.cfg.hidden, w.cfg.hidden,
              w.cfg.batch_rows, w.cfg.microbatches, w.plan.size(),
              static_cast<unsigned long long>(a.seed));

  // Reference: the same iterations on a fixed uniform map.
  const auto ref = dm::runtime::ThreadedPipeline(w.cfg).run(w.reference);
  dm::runtime::ThreadedPipeline pipe(w.cfg);
  const auto warm = pipe.run(w.plan);
  if (!same_math(warm, ref)) {
    throw std::runtime_error("the warm-up run's checksums differ from the "
                             "uniform-map reference");
  }
  Report r;
  r.digest = threaded_digest(ref);
  std::printf("reference digest %s: %d iterations, %d restarts, %llu bytes "
              "migrated, %llu checkpoint bytes\n",
              r.digest.c_str(), warm.iterations_run, warm.restarts,
              static_cast<unsigned long long>(warm.bytes_migrated),
              static_cast<unsigned long long>(warm.bytes_checkpoint));

  struct Window {
    OpLog log;
    std::vector<double> busy_share;
    dm::runtime::ThreadedReport last;
  };
  const auto measure = [&](double seconds,
                           const std::function<void()>& between) {
    Window win;
    const auto deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    do {
      if (between) between();
      ++win.log.attempted;
      ++win.log.repeats;
      try {
        const auto t0 = Clock::now();
        auto rep = pipe.run(w.plan);
        win.log.op_s.push_back(seconds_since(t0));
        win.log.iters += rep.iterations_run;
        if (!same_math(rep, ref)) {
          ++win.log.failed;
          std::printf("run %d: checksums differ from the reference\n",
                      win.log.repeats);
        }
        const double busy = sum(rep.worker_busy_s);
        win.busy_share.push_back(
            ratio(busy, static_cast<double>(w.cfg.workers) * rep.wall_s));
        win.last = std::move(rep);
      } catch (const std::exception& e) {
        ++win.log.failed;
        std::printf("run %d failed: %s\n", win.log.repeats, e.what());
      }
    } while (Clock::now() < deadline);
    return win;
  };

  if (!a.trace) {
    SetupSampler setup([&] {
      auto s = std::make_unique<ThreadedSetup>();
      s->plan = threaded_migrate(a.seed).plan;
      s->pipe.emplace(w.cfg);
      return s;
    });
    const auto m = measure(a.seconds, [&] { setup.sample(); });
    r.attempted = m.log.attempted;
    r.failed = m.log.failed;
    r.metrics = end_to_end(m.log, setup.samples(), peak_rss_mb());
    return r;
  }

  const auto plain = measure(a.seconds / 2, {});
  const auto traced = measure(a.seconds / 2, {});
  r.attempted = plain.log.attempted + traced.log.attempted;
  r.failed = plain.log.failed + traced.log.failed;

  // The tensor layer at the workload's layer shape: one microbatch's
  // activations times one layer's weights.
  dm::Rng rng(a.seed);
  const auto x = dm::tensor::Tensor::random(w.cfg.batch_rows, w.cfg.hidden, rng);
  const auto wt = dm::tensor::Tensor::random(w.cfg.hidden, w.cfg.hidden, rng);
  std::vector<double> matmul_s;
  double sink = 0.0;
  const auto matmul_end = Clock::now() + std::chrono::milliseconds(300);
  while (matmul_s.size() < 50 ||
         (matmul_s.size() < 2000 && Clock::now() < matmul_end)) {
    const auto t0 = Clock::now();
    const auto y = dm::tensor::matmul(x, wt);
    matmul_s.push_back(seconds_since(t0));
    sink += y.at(0, 0);
  }
  std::printf("traced: %zu runs, %zu matmul samples (checksum %g)\n",
              traced.log.op_s.size(), matmul_s.size(), sink);

  const double busy = median(traced.busy_share);
  const auto& last = traced.last;
  r.metrics = layer_metrics({
      {"threaded.busy_share", busy},
      {"comm.wait_share", 1.0 - busy},
      {"threaded.bytes_migrated", static_cast<double>(last.bytes_migrated)},
      {"threaded.bytes_checkpoint", static_cast<double>(last.bytes_checkpoint)},
      {"threaded.restarts", static_cast<double>(last.restarts)},
      {"tensor.matmul_us", median(matmul_s) * 1e6},
      {"process.cpu_s", cpu_seconds()},
      {"trace.overhead",
       ratio(median(traced.log.op_s), median(plain.log.op_s)) - 1.0},
  });
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse_args(argc, argv);
    require_timing_build();
    std::printf("machine: %s, nproc %u, %s, %s build\n", cpu_model().c_str(),
                std::thread::hardware_concurrency(), compiler().c_str(),
                PERFBENCH_BUILD_TYPE);
    Report r = a.workload == "threaded_migrate" ? run_threaded_workload(a)
                                                : run_session_workload(a);
    r.correct = r.failed == 0 && r.attempted > 0;
    print_report(a, r);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
