#pragma once

// Fixture: obs/trace_clock.h only converts simulation time to trace
// timestamps and is not exempt from the wallclock check. A host-clock read
// here (say, an export "labelled" with the time it was written) must be
// flagged like one anywhere else.
#include <chrono>
#include <cstdint>

namespace fixture::obs {

inline std::int64_t exported_at_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::system_clock::now().time_since_epoch())  // finding
      .count();
}

}  // namespace fixture::obs
