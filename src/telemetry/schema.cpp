#include "telemetry/schema.hpp"

#include "core/error.hpp"

namespace dynmo::telemetry {

const char* to_string(ColumnType t) {
  switch (t) {
    case ColumnType::Int64: return "int64";
    case ColumnType::Float64: return "float64";
    case ColumnType::Bool: return "bool";
    case ColumnType::String: return "string";
    case ColumnType::ListFloat64: return "list<float64>";
  }
  return "?";
}

namespace {

/// The catalog view of a table's column list.
template <typename Row>
constexpr auto kColumnSpecs = [] {
  constexpr auto& columns = TableOf<Row>::columns;
  std::array<ColumnSpec, columns.size()> specs{};
  for (std::size_t i = 0; i < columns.size(); ++i) specs[i] = columns[i].spec;
  return specs;
}();

template <typename... Rows>
constexpr std::array<TableSpec, sizeof...(Rows)> make_tables(
    std::type_identity<std::tuple<Rows...>>) {
  return {TableSpec{TableOf<Rows>::name, TableOf<Rows>::file,
                    TableOf<Rows>::description, kColumnSpecs<Rows>}...};
}

constexpr auto kTables = make_tables(std::type_identity<TraceRows>{});

}  // namespace

std::span<const TableSpec> table_specs() { return kTables; }

const TableSpec& table_spec(std::string_view name) {
  for (const auto& t : kTables) {
    if (name == t.name) return t;
  }
  throw Error("unknown trace table: " + std::string(name));
}

}  // namespace dynmo::telemetry
