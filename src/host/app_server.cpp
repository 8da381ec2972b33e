#include "host/app_server.h"

namespace mcs::host {

std::string query_param(std::string_view path, std::string_view key) {
  const std::size_t q = path.find('?');
  if (q == std::string_view::npos) return "";
  // Walk the '&'-separated pairs as views; only the answer is copied.
  const std::string_view qs = path.substr(q + 1);
  for (std::size_t start = 0; start <= qs.size();) {
    std::size_t amp = qs.find('&', start);
    if (amp == std::string_view::npos) amp = qs.size();
    const std::string_view pair = qs.substr(start, amp - start);
    const std::size_t eq = pair.find('=');
    if (eq != std::string_view::npos && pair.substr(0, eq) == key) {
      return std::string{pair.substr(eq + 1)};
    }
    start = amp + 1;
  }
  return "";
}

std::string path_without_query(const std::string& path) {
  const std::size_t q = path.find('?');
  return q == std::string::npos ? path : path.substr(0, q);
}

}  // namespace mcs::host
