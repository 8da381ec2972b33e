#pragma once

// Fixture: the wallclock exemption is per-file, keyed on the path
// obs/telemetry_clock.h — the telemetry overhead stopwatch is the one
// sanctioned host-clock reader. Every steady_clock read below must pass
// clean. The companion bad fixtures (bad/src/obs/unexempt_clock.cpp and
// bad/src/obs/trace_clock.h) prove the exemption does NOT extend to the
// rest of the obs/ directory.
#include <chrono>
#include <cstdint>

namespace fixture::obs {

class OverheadStopwatch {
 public:
  void start() { t0_ = std::chrono::steady_clock::now(); }  // exempt here
  std::int64_t elapsed_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - t0_)  // exempt here
        .count();
  }

 private:
  std::chrono::steady_clock::time_point t0_{};
};

}  // namespace fixture::obs
