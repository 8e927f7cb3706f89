#include "pipeline/trace.hpp"

#include <fstream>
#include <sstream>

#include "core/error.hpp"

namespace dynmo::pipeline {

std::string Trace::to_chrome_json() const {
  std::ostringstream oss;
  oss << "{\"traceEvents\":[";
  bool first = true;
  for (const auto& e : events) {
    if (!first) oss << ',';
    first = false;
    const char* name = e.kind == 'F' ? "forward"
                       : e.kind == 'B' ? "backward"
                                       : "wgrad";
    // Complete ("X") events, microsecond timestamps, one row per stage.
    oss << "{\"name\":\"" << name << " mb" << e.microbatch
        << "\",\"cat\":\"pipeline\",\"ph\":\"X\",\"ts\":" << e.start_s * 1e6
        << ",\"dur\":" << e.duration_s * 1e6
        << ",\"pid\":0,\"tid\":" << e.stage << "}";
  }
  oss << "],\"displayTimeUnit\":\"ms\"}";
  return oss.str();
}

void Trace::write_chrome_json(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  DYNMO_CHECK(out.good(), "cannot open trace file " << path);
  out << to_chrome_json();
  DYNMO_CHECK(out.good(), "short write to " << path);
}

std::pair<PipelineResult, Trace> simulate_traced(ScheduleKind kind,
                                                 const StageCosts& costs) {
  Trace trace;
  auto result = simulate(
      kind, costs,
      [&trace](int stage, int mb, char op, double start, double dur) {
        trace.events.push_back(TraceEvent{stage, mb, op, start, dur});
      });
  trace.makespan_s = result.makespan_s;
  return {std::move(result), std::move(trace)};
}

}  // namespace dynmo::pipeline
