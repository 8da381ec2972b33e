#include "sim/util.h"

#include <cstdio>

namespace mcs::sim {

std::string vstrf(const char* fmt, std::va_list ap) {
  std::va_list ap2;
  va_copy(ap2, ap);
  const int n = std::vsnprintf(nullptr, 0, fmt, ap);
  std::string out;
  if (n > 0) {
    out.resize(static_cast<std::size_t>(n));
    std::vsnprintf(out.data(), out.size() + 1, fmt, ap2);
  }
  va_end(ap2);
  return out;
}

std::string strf(const char* fmt, ...) {
  std::va_list ap;
  va_start(ap, fmt);
  std::string out = vstrf(fmt, ap);
  va_end(ap);
  return out;
}

std::string human_bytes(std::uint64_t bytes) {
  const char* units[] = {"B", "KB", "MB", "GB", "TB"};
  double v = static_cast<double>(bytes);
  int u = 0;
  while (v >= 1024.0 && u < 4) {
    v /= 1024.0;
    ++u;
  }
  return u == 0 ? strf("%llu B", static_cast<unsigned long long>(bytes))
                : strf("%.1f %s", v, units[u]);
}

std::string human_rate(double bits_per_second) {
  const char* units[] = {"bps", "Kbps", "Mbps", "Gbps"};
  double v = bits_per_second;
  int u = 0;
  while (v >= 1000.0 && u < 3) {
    v /= 1000.0;
    ++u;
  }
  return strf("%.2f %s", v, units[u]);
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.push_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string trim(const std::string& s) { return std::string{trim_view(s)}; }

std::string to_lower(const std::string& s) {
  std::string out = s;
  for (char& c : out) c = ascii_lower(c);
  return out;
}

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() && s.compare(0, prefix.size(), prefix) == 0;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

std::uint64_t fnv1a(const void* data, std::size_t len, std::uint64_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t fnv1a(const std::string& s, std::uint64_t seed) {
  return fnv1a(s.data(), s.size(), seed);
}

}  // namespace mcs::sim
