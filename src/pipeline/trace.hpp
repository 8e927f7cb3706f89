// Timeline tracing: capture per-op pipeline events and export them as a
// Chrome-trace (chrome://tracing / Perfetto) JSON file.
//
// The schedule simulator optionally records every F/B/W op with its stage,
// microbatch, start, and duration; export_chrome_trace() writes the
// standard trace-event format so imbalance and bubbles can be inspected
// visually — the tool a user points at "why is stage 7 idle?".
#pragma once

#include <string>
#include <vector>

#include "pipeline/schedule.hpp"

namespace dynmo::pipeline {

struct TraceEvent {
  int stage = 0;
  int microbatch = 0;
  char kind = 'F';      ///< 'F', 'B', or 'W'
  double start_s = 0.0;
  double duration_s = 0.0;
};

struct Trace {
  std::vector<TraceEvent> events;
  double makespan_s = 0.0;

  /// Serialize to Chrome trace-event JSON ("traceEvents" array, µs units;
  /// one row per pipeline stage).
  std::string to_chrome_json() const;
  /// Write to a file; throws dynmo::Error on I/O failure.
  void write_chrome_json(const std::string& path) const;
};

/// Like pipeline::simulate(), but also returns the full op timeline.
std::pair<PipelineResult, Trace> simulate_traced(ScheduleKind kind,
                                                 const StageCosts& costs);

}  // namespace dynmo::pipeline
