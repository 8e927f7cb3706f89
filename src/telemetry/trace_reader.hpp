// TraceReader: the cheap-reader half of the catalog+reader split.
//
// Opens a trace directory written by TraceWriter, validates catalog.json
// (format string, schema version, declared tables present), and reads any
// table back into its typed rows with read<Row>().  Rows whose "_v"
// differs from the library's kSchemaVersion are rejected loudly — never
// reinterpreted.
//
// Two conveniences close the replay loop: replayed_loads() reassembles
// the per-layer load history from the stage_loads table, and
// replay_config() reconstructs the balancer configuration the recording
// session resolved (from the catalog's run metadata), so
//
//   telemetry::TraceReader reader(dir);
//   auto result = balance::replay(reader.replayed_loads(),
//                                 reader.replay_config(), net);
//
// reproduces the recorded run's bottleneck sequence bit-for-bit.
#pragma once

#include <string>
#include <vector>

#include "balance/replay.hpp"
#include "telemetry/schema.hpp"

namespace dynmo::telemetry {

struct CatalogTable {
  std::string name;
  std::string file;
  std::int64_t rows = 0;
};

struct Catalog {
  std::string format;
  int schema_version = 0;
  RunInfo run;
  std::vector<CatalogTable> tables;
};

class TraceReader {
 public:
  /// Parses and validates `dir`/catalog.json; throws dynmo::Error on a
  /// missing/malformed catalog or a schema-version mismatch.
  explicit TraceReader(std::string dir);

  const Catalog& catalog() const { return catalog_; }
  const RunInfo& run() const { return catalog_.run; }
  const std::string& dir() const { return dir_; }

  /// Every row of Row's table (any of TraceRows), in file order.  Throws
  /// dynmo::Error naming the table, line and column of the first bad row.
  template <typename Row>
  std::vector<Row> read() const;

  /// Reassemble the per-layer load history from stage_loads (frames in
  /// iteration order, per-layer arrays concatenated across stages).
  /// Throws when the trace was recorded with per-layer arrays disabled.
  balance::ReplayedLoads replayed_loads() const;

  /// The balancer configuration the recording session resolved, rebuilt
  /// from the catalog's run metadata.  HierarchicalDiffusion traces get
  /// their algorithm back but not the deployment-bound decider — inject
  /// one via ReplayConfig::rebalance.hierarchical_decider, or the replay
  /// falls back to flat diffusion (same rule as the session without one).
  balance::ReplayConfig replay_config() const;

 private:
  std::string read_file(const std::string& name) const;

  std::string dir_;
  Catalog catalog_;
};

}  // namespace dynmo::telemetry
