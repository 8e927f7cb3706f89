// TraceWriter: streams typed per-iteration events to a trace directory.
//
// One JSONL file per table, appended row by row as the run progresses (a
// crashed run leaves every completed row readable), plus catalog.json
// written on finalize() with the run metadata, per-table row counts, and
// the full column reference — the discovery half of the catalog+reader
// split (schema.hpp).  Thread-safe: the threaded runtime's workers emit
// concurrently.
//
// The writer is the *only* cost telemetry adds: runtimes hold it behind a
// null pointer when TelemetryConfig::dir is empty, so a disabled run does
// not even format a row.
#pragma once

#include <array>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>

#include "telemetry/schema.hpp"

namespace dynmo::telemetry {

class TraceWriter {
 public:
  /// Creates `cfg.dir` (parents included), truncates all table files, and
  /// records `run` for the catalog.  Throws dynmo::Error on I/O failure.
  TraceWriter(TelemetryConfig cfg, RunInfo run);
  ~TraceWriter();  ///< finalizes if finalize() was not called explicitly

  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  /// Append one row to its table (any of TraceRows), keys in column-list
  /// order.
  template <typename Row>
  void write(const Row& row);

  /// Flush all tables and write catalog.json.  Idempotent; rows written
  /// after finalize() reopen the pending state and require another call.
  void finalize();

  const std::string& dir() const { return cfg_.dir; }
  const TelemetryConfig& config() const { return cfg_; }

 private:
  struct Table {
    std::FILE* file = nullptr;
    std::int64_t rows = 0;
  };

  void append_row(Table& t, const std::string& line);
  void write_catalog();

  TelemetryConfig cfg_;
  RunInfo run_;
  mutable std::mutex mu_;
  // Indexed in table_specs() order.
  std::array<Table, kNumTables> tables_;
  bool finalized_ = false;
};

}  // namespace dynmo::telemetry
