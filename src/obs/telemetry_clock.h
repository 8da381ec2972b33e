#pragma once

// The telemetry layer's one sanctioned host-clock reading: a steady-clock
// stopwatch used by bench/telemetry to *measure the cost of telemetry
// itself* (wall nanoseconds per transaction with and without the stack
// installed). Nothing here ever feeds a model decision or an exported
// value — flight-recorder samples are driven by sim-time kernel timers and
// metric values derive from simulation state only, so deterministic outputs
// stay byte-identical across reruns.
//
// mcs-analyze's wallclock check whitelists exactly this file (and nothing
// else under src/); a host-clock read anywhere else is still a finding.

#include <chrono>
#include <cstdint>

namespace mcs::obs {

// Monotonic host stopwatch for overhead measurement. Not a timestamp
// source: only differences between two readings of the same stopwatch are
// meaningful, and they must never be written into deterministic exports.
class OverheadStopwatch {
 public:
  void start() { t0_ = std::chrono::steady_clock::now(); }
  std::int64_t elapsed_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - t0_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point t0_{};
};

}  // namespace mcs::obs
