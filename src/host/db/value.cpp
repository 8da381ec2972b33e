#include "host/db/value.h"

#include <charconv>
#include <cstdlib>

#include "sim/arena.h"

namespace mcs::host::db {

ValueType type_of(const Value& v) {
  switch (v.index()) {
    case 0: return ValueType::kInt;
    case 1: return ValueType::kReal;
    default: return ValueType::kText;
  }
}

std::string to_string(const Value& v) {
  if (const auto* text = std::get_if<std::string>(&v)) return *text;
  return sim::build(16, [&](std::string& out) {
    sim::BufWriter w{out};
    append_value(w, v);
  });
}

void append_value(sim::BufWriter& w, const Value& v) {
  switch (v.index()) {
    case 0: w.i64(std::get<std::int64_t>(v)); break;
    case 1: {
      // Longest "%.6g" rendering is "-1.23457e+308" (13 bytes).
      char buf[32];
      const auto res = std::to_chars(buf, buf + sizeof(buf),
                                     std::get<double>(v),
                                     std::chars_format::general, 6);
      w.put(sim::Slice{buf, static_cast<std::size_t>(res.ptr - buf)});
      break;
    }
    default: w.put(std::get<std::string>(v));
  }
}

Value parse_value(const std::string& s, ValueType type) {
  switch (type) {
    case ValueType::kInt:
      return static_cast<std::int64_t>(std::strtoll(s.c_str(), nullptr, 10));
    case ValueType::kReal: return std::strtod(s.c_str(), nullptr);
    case ValueType::kText: return s;
  }
  return s;
}

bool value_less(const Value& a, const Value& b) {
  if (a.index() != b.index()) return a.index() < b.index();
  return a < b;
}

bool value_eq(const Value& a, const Value& b) {
  return a.index() == b.index() && a == b;
}

}  // namespace mcs::host::db
