#include "telemetry/trace_reader.hpp"

#include <fstream>
#include <sstream>
#include <variant>

#include "core/error.hpp"
#include "telemetry/json.hpp"

namespace dynmo::telemetry {

namespace {

const JsonValue& member(const JsonValue& obj, const char* key) {
  const JsonValue* v = obj.find(key);
  DYNMO_CHECK(v != nullptr, "missing member '" << key << "'");
  return *v;
}

std::vector<double> double_list(const JsonValue& v) {
  DYNMO_CHECK(v.kind == JsonValue::Kind::Array,
              "expected array, got " << v.kind_name());
  std::vector<double> out;
  out.reserve(v.array.size());
  for (const auto& e : v.array) out.push_back(e.as_double());
  return out;
}

std::vector<int> int_list(const JsonValue& v) {
  DYNMO_CHECK(v.kind == JsonValue::Kind::Array,
              "expected array, got " << v.kind_name());
  std::vector<int> out;
  out.reserve(v.array.size());
  for (const auto& e : v.array) out.push_back(static_cast<int>(e.as_int()));
  return out;
}

void read_cell(const JsonValue& v, std::int64_t& out) { out = v.as_int(); }
void read_cell(const JsonValue& v, double& out) { out = v.as_double(); }
void read_cell(const JsonValue& v, bool& out) { out = v.as_bool(); }
void read_cell(const JsonValue& v, std::string& out) { out = v.as_string(); }
void read_cell(const JsonValue& v, std::vector<double>& out) {
  out = double_list(v);
}

/// One JSONL line of Row's table: checks the "_v" schema tag, then fills
/// every column of the table's column list.
template <typename Row>
Row parse_row(std::string_view line) {
  const JsonValue v = JsonValue::parse(line);
  DYNMO_CHECK(v.kind == JsonValue::Kind::Object, "row is not an object");
  const JsonValue* version = v.find("_v");
  DYNMO_CHECK(version != nullptr && version->is_integer &&
                  version->integer == kSchemaVersion,
              "row schema version is not the library's " << kSchemaVersion);
  Row row;
  for (const auto& col : TableOf<Row>::columns) {
    const JsonValue* cell = v.find(col.spec.name);
    try {
      if (cell == nullptr) throw Error("missing");
      std::visit([&](auto field) { read_cell(*cell, row.*field); },
                 col.member);
    } catch (const Error& e) {
      throw Error("column '" + std::string(col.spec.name) + "': " + e.what());
    }
  }
  return row;
}

}  // namespace

TraceReader::TraceReader(std::string dir) : dir_(std::move(dir)) {
  const JsonValue doc = JsonValue::parse(read_file(kCatalogFile));
  DYNMO_CHECK(doc.kind == JsonValue::Kind::Object, "catalog is not a JSON "
                                                   "object");
  catalog_.format = member(doc, "format").as_string();
  DYNMO_CHECK(catalog_.format == kTraceFormat,
              "not a dynmo trace (format '" << catalog_.format << "')");
  catalog_.schema_version =
      static_cast<int>(member(doc, "schema_version").as_int());
  DYNMO_CHECK(catalog_.schema_version == kSchemaVersion,
              "trace schema version " << catalog_.schema_version
                                      << " != library version "
                                      << kSchemaVersion);

  const JsonValue& run = member(doc, "run");
  RunInfo& r = catalog_.run;
  r.producer = member(run, "producer").as_string();
  // Backend/machine metadata arrived with the transport split; parse
  // tolerantly so pre-split traces (and golden catalogs with the lines
  // stripped) still load.
  if (const JsonValue* t = run.find("transport")) r.transport = t->as_string();
  if (const JsonValue* m = run.find("machine")) r.machine = m->as_string();
  r.iterations = member(run, "iterations").as_int();
  r.sim_stride = member(run, "sim_stride").as_int();
  r.rebalance_interval = member(run, "rebalance_interval").as_int();
  r.pipeline_stages = member(run, "pipeline_stages").as_int();
  r.data_parallel = member(run, "data_parallel").as_int();
  r.seed = static_cast<std::uint64_t>(member(run, "seed").as_int());
  r.mode = member(run, "mode").as_string();
  r.algorithm = member(run, "algorithm").as_string();
  r.balance_by = member(run, "balance_by").as_string();
  r.mem_capacity = member(run, "mem_capacity").as_double();
  r.min_bottleneck_gain = member(run, "min_bottleneck_gain").as_double();
  r.payoff_window_iters = member(run, "payoff_window_iters").as_double();
  r.migration_cost_multiplier =
      member(run, "migration_cost_multiplier").as_double();
  r.migration_exposed_fraction =
      member(run, "migration_exposed_fraction").as_double();
  r.gamma = member(run, "gamma").as_double();
  r.stage_to_rank = int_list(member(run, "stage_to_rank"));
  r.capacities = double_list(member(run, "capacities"));
  r.layer_params = double_list(member(run, "layer_params"));

  const JsonValue& tables = member(doc, "tables");
  DYNMO_CHECK(tables.kind == JsonValue::Kind::Array,
              "catalog 'tables' is not an array");
  for (const auto& t : tables.array) {
    CatalogTable ct;
    ct.name = member(t, "name").as_string();
    ct.file = member(t, "file").as_string();
    ct.rows = member(t, "rows").as_int();
    table_spec(ct.name);  // unknown tables fail loudly
    catalog_.tables.push_back(std::move(ct));
  }
}

std::string TraceReader::read_file(const std::string& name) const {
  const std::string path = dir_ + "/" + name;
  std::ifstream in(path, std::ios::binary);
  DYNMO_CHECK(in.good(), "cannot open trace file " << path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return std::move(buf).str();
}

template <typename Row>
std::vector<Row> TraceReader::read() const {
  std::istringstream in(read_file(TableOf<Row>::file));
  std::vector<Row> rows;
  std::string line;
  for (std::int64_t lineno = 1; std::getline(in, line); ++lineno) {
    if (line.empty()) continue;
    try {
      rows.push_back(parse_row<Row>(line));
    } catch (const Error& e) {
      throw Error(std::string(TableOf<Row>::name) + ":" +
                  std::to_string(lineno) + ": " + e.what());
    }
  }
  return rows;
}

template std::vector<IterationRow> TraceReader::read() const;
template std::vector<StageLoadRow> TraceReader::read() const;
template std::vector<RebalanceDecisionRow> TraceReader::read() const;
template std::vector<MigrationRow> TraceReader::read() const;
template std::vector<ElasticTransitionRow> TraceReader::read() const;
template std::vector<FleetDecisionRow> TraceReader::read() const;
template std::vector<FaultEventRow> TraceReader::read() const;

balance::ReplayedLoads TraceReader::replayed_loads() const {
  const auto rows = read<StageLoadRow>();
  DYNMO_CHECK(!rows.empty(), "trace has no stage_loads rows");

  balance::ReplayedLoads loads;
  loads.num_stages = static_cast<int>(catalog_.run.pipeline_stages);

  balance::ReplayedLoads::Frame frame;
  frame.iter = rows.front().iter;
  for (const auto& r : rows) {
    if (r.iter != frame.iter) {
      loads.frames.push_back(std::move(frame));
      frame = {};
      frame.iter = r.iter;
    }
    DYNMO_CHECK(!r.layer_s.empty() ||
                    r.layer_begin == r.layer_end,
                "stage_loads row (iter " << r.iter << ", stage " << r.stage
                                         << ") has no per-layer arrays — "
                                            "trace recorded with per_layer "
                                            "off; replay needs them");
    DYNMO_CHECK(static_cast<std::int64_t>(frame.layer_time_s.size()) ==
                    r.layer_begin,
                "stage_loads rows out of order at iter " << r.iter);
    frame.layer_time_s.insert(frame.layer_time_s.end(), r.layer_s.begin(),
                              r.layer_s.end());
    frame.layer_memory_bytes.insert(frame.layer_memory_bytes.end(),
                                    r.layer_mem.begin(), r.layer_mem.end());
  }
  loads.frames.push_back(std::move(frame));
  return loads;
}

balance::ReplayConfig TraceReader::replay_config() const {
  const RunInfo& r = catalog_.run;
  balance::ReplayConfig cfg;
  cfg.rebalance_interval = r.rebalance_interval;
  cfg.seed = r.seed;
  cfg.params = r.layer_params;

  balance::RebalanceConfig& rb = cfg.rebalance;
  if (r.algorithm == to_string(balance::Algorithm::Partition)) {
    rb.algorithm = balance::Algorithm::Partition;
  } else if (r.algorithm ==
             to_string(balance::Algorithm::HierarchicalDiffusion)) {
    rb.algorithm = balance::Algorithm::HierarchicalDiffusion;
  } else {
    rb.algorithm = balance::Algorithm::Diffusion;
  }
  rb.by = r.balance_by == to_string(balance::BalanceBy::Param)
              ? balance::BalanceBy::Param
              : balance::BalanceBy::Time;
  rb.mem_capacity = r.mem_capacity;
  rb.gamma = r.gamma;
  rb.min_bottleneck_gain = r.min_bottleneck_gain;
  rb.payoff_window_iters = r.payoff_window_iters;
  rb.migration_cost_multiplier = r.migration_cost_multiplier;
  rb.migration_exposed_fraction = r.migration_exposed_fraction;
  rb.stage_to_rank = r.stage_to_rank;
  rb.capacities = r.capacities;
  return cfg;
}

}  // namespace dynmo::telemetry
