// Fixture: every statement here reads a wall clock; the `wallclock` check
// must flag each one. (Comments mentioning system_clock or time() must NOT
// be flagged — the false-positive class of line-regex linters.)
#include <chrono>
#include <ctime>

namespace fixture {

long bad_now_chrono() {
  const auto t = std::chrono::system_clock::now();  // finding: wallclock
  const auto s = std::chrono::steady_clock::now();  // finding: wallclock
  return t.time_since_epoch().count() + s.time_since_epoch().count();
}

long bad_now_libc() {
  std::time_t raw = 0;
  std::time(&raw);             // finding: wallclock
  long sum = static_cast<long>(std::time(nullptr));  // finding: wallclock
  struct timespec ts;
  clock_gettime(0, &ts);       // finding: wallclock
  return sum + raw + ts.tv_sec;
}

long bad_now_unqualified() {
  const long t = time(nullptr);  // finding: wallclock
  return t + clock();            // finding: wallclock (process CPU clock)
}

const char* not_findings() {
  // "std::chrono::system_clock::now()" inside this string is not code:
  return "call time(nullptr) or system_clock::now() for wall time";
}

}  // namespace fixture
