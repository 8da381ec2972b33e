#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "sim/arena.h"

namespace mcs::host::db {

// A typed cell value. Text values are real strings; the database is used
// for product catalogs, orders, patient records etc. in the examples.
using Value = std::variant<std::int64_t, double, std::string>;

enum class ValueType { kInt, kReal, kText };

ValueType type_of(const Value& v);
std::string to_string(const Value& v);
// Append the to_string() form of `v` through `w`: ints in decimal, reals as
// "%.6g" (std::to_chars general/6, byte-identical by definition), text
// verbatim. The one formatter behind to_string, the WAL and the DbServer
// wire rows.
void append_value(sim::BufWriter& w, const Value& v);
// Parse `s` as the given type ("42", "3.5", free text).
Value parse_value(const std::string& s, ValueType type);

// Total ordering across same-type values; mixed types order by type tag.
bool value_less(const Value& a, const Value& b);
bool value_eq(const Value& a, const Value& b);

struct Column {
  std::string name;
  ValueType type = ValueType::kText;
};

using Row = std::vector<Value>;

}  // namespace mcs::host::db
