#include "telemetry/trace_writer.hpp"

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <type_traits>
#include <variant>

#include "core/error.hpp"
#include "telemetry/json.hpp"

namespace dynmo::telemetry {

namespace {

void append_value(std::string& line, std::int64_t v) {
  line += std::to_string(v);
}
void append_value(std::string& line, double v) { line += format_double(v); }
void append_value(std::string& line, bool v) { line += v ? "true" : "false"; }
void append_value(std::string& line, const std::string& v) {
  append_json_string(line, v);
}
void append_value(std::string& line, const std::vector<double>& v) {
  line += '[';
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) line += ',';
    line += format_double(v[i]);
  }
  line += ']';
}

}  // namespace

TraceWriter::TraceWriter(TelemetryConfig cfg, RunInfo run)
    : cfg_(std::move(cfg)), run_(std::move(run)) {
  DYNMO_CHECK(cfg_.enabled(), "TraceWriter needs a trace directory");
  if (run_.machine.empty()) {
    char host[256] = {};
    if (::gethostname(host, sizeof host - 1) == 0) run_.machine = host;
  }
  std::error_code ec;
  std::filesystem::create_directories(cfg_.dir, ec);
  DYNMO_CHECK(!ec, "cannot create trace directory " << cfg_.dir << ": "
                                                    << ec.message());
  const auto specs = table_specs();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const std::string path = cfg_.dir + "/" + specs[i].file;
    tables_[i].file = std::fopen(path.c_str(), "w");
    DYNMO_CHECK(tables_[i].file != nullptr,
                "cannot open trace table " << path);
  }
}

TraceWriter::~TraceWriter() {
  try {
    finalize();
  } catch (const Error&) {
    // Destructors must not throw; a failed catalog write leaves the table
    // files behind, which is the best a dying process can do.
  }
  for (auto& t : tables_) {
    if (t.file != nullptr) {
      std::fclose(t.file);
      t.file = nullptr;
    }
  }
}

void TraceWriter::append_row(Table& t, const std::string& line) {
  std::scoped_lock lock(mu_);
  DYNMO_CHECK(t.file != nullptr, "trace table already finalized");
  std::fwrite(line.data(), 1, line.size(), t.file);
  ++t.rows;
  finalized_ = false;
}

template <typename Row>
void TraceWriter::write(const Row& row) {
  // Keys in column-list order: tools/query_trace.py cross-checks every row
  // against the catalog, so the two cannot drift.
  std::string line = "{\"_v\":" + std::to_string(kSchemaVersion);
  for (const auto& col : TableOf<Row>::columns) {
    line += ",\"";
    line += col.spec.name;
    line += "\":";
    std::visit([&](auto field) { append_value(line, row.*field); },
               col.member);
  }
  line += "}\n";
  append_row(tables_[kTableIndex<Row>], line);
}

template void TraceWriter::write(const IterationRow&);
template void TraceWriter::write(const StageLoadRow&);
template void TraceWriter::write(const RebalanceDecisionRow&);
template void TraceWriter::write(const MigrationRow&);
template void TraceWriter::write(const ElasticTransitionRow&);
template void TraceWriter::write(const FleetDecisionRow&);
template void TraceWriter::write(const FaultEventRow&);

void TraceWriter::write_catalog() {
  std::string out = "{\n";
  out += "  \"format\": \"";
  out += kTraceFormat;
  out += "\",\n  \"schema_version\": " + std::to_string(kSchemaVersion) +
         ",\n";

  out += "  \"run\": {\n";
  const auto str_field = [&out](const char* key, const std::string& v,
                                bool comma = true) {
    out += "    \"";
    out += key;
    out += "\": ";
    append_json_string(out, v);
    out += comma ? ",\n" : "\n";
  };
  const auto int_field = [&out](const char* key, std::int64_t v) {
    out += "    \"";
    out += key;
    out += "\": " + std::to_string(v) + ",\n";
  };
  const auto dbl_field = [&out](const char* key, double v) {
    out += "    \"";
    out += key;
    out += "\": " + format_double(v) + ",\n";
  };
  const auto list_field = [&out](const char* key, const auto& values) {
    out += "    \"";
    out += key;
    out += "\": [";
    bool first = true;
    for (const auto v : values) {
      if (!first) out += ',';
      first = false;
      if constexpr (std::is_floating_point_v<decltype(v)>) {
        out += format_double(v);
      } else {
        out += std::to_string(v);
      }
    }
    out += "],\n";
  };
  const auto bool_field = [&out](const char* key, bool v,
                                 bool comma = true) {
    out += "    \"";
    out += key;
    out += "\": ";
    out += v ? "true" : "false";
    out += comma ? ",\n" : "\n";
  };
  str_field("producer", run_.producer);
  // Backend/machine metadata: each on its own line so the golden-trace
  // gate can strip exactly these before byte-comparing catalogs.
  str_field("transport", run_.transport);
  str_field("machine", run_.machine);
  int_field("iterations", run_.iterations);
  int_field("sim_stride", run_.sim_stride);
  int_field("rebalance_interval", run_.rebalance_interval);
  int_field("pipeline_stages", run_.pipeline_stages);
  int_field("data_parallel", run_.data_parallel);
  int_field("seed", static_cast<std::int64_t>(run_.seed));
  str_field("mode", run_.mode);
  str_field("algorithm", run_.algorithm);
  str_field("balance_by", run_.balance_by);
  dbl_field("mem_capacity", run_.mem_capacity);
  dbl_field("min_bottleneck_gain", run_.min_bottleneck_gain);
  dbl_field("payoff_window_iters", run_.payoff_window_iters);
  dbl_field("migration_cost_multiplier", run_.migration_cost_multiplier);
  dbl_field("migration_exposed_fraction", run_.migration_exposed_fraction);
  dbl_field("gamma", run_.gamma);
  list_field("stage_to_rank", run_.stage_to_rank);
  list_field("capacities", run_.capacities);
  list_field("layer_params", run_.layer_params);
  bool_field("per_layer", cfg_.per_layer, /*comma=*/false);
  out += "  },\n";

  out += "  \"tables\": [\n";
  const auto specs = table_specs();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const TableSpec& spec = specs[i];
    out += "    {\"name\": \"";
    out += spec.name;
    out += "\", \"file\": \"";
    out += spec.file;
    out += "\", \"rows\": " + std::to_string(tables_[i].rows) +
           ",\n     \"description\": ";
    append_json_string(out, spec.description);
    out += ",\n     \"columns\": [\n";
    for (std::size_t c = 0; c < spec.columns.size(); ++c) {
      const ColumnSpec& col = spec.columns[c];
      out += "       {\"name\": \"";
      out += col.name;
      out += "\", \"type\": \"";
      out += to_string(col.type);
      out += "\", \"unit\": \"";
      out += col.unit;
      out += "\", \"description\": ";
      append_json_string(out, col.description);
      if (std::ranges::find(run_.measured_columns,
                            std::string(spec.name) + "." + col.name) !=
          run_.measured_columns.end()) {
        out += ", \"deterministic\": false";
      }
      out += c + 1 < spec.columns.size() ? "},\n" : "}\n";
    }
    out += "     ]}";
    out += i + 1 < specs.size() ? ",\n" : "\n";
  }
  out += "  ]\n}\n";

  const std::string path = cfg_.dir + "/" + kCatalogFile;
  std::FILE* f = std::fopen(path.c_str(), "w");
  DYNMO_CHECK(f != nullptr, "cannot write trace catalog " << path);
  std::fwrite(out.data(), 1, out.size(), f);
  std::fclose(f);
}

void TraceWriter::finalize() {
  std::scoped_lock lock(mu_);
  if (finalized_) return;
  for (auto& t : tables_) {
    if (t.file != nullptr) std::fflush(t.file);
  }
  write_catalog();
  finalized_ = true;
}

}  // namespace dynmo::telemetry
