// Fixture: the wallclock exemption whitelists exactly
// obs/telemetry_clock.h — a host-clock read in any OTHER file under obs/
// (say, a profiler "optimisation" that swaps sim time for host time) must
// still be flagged, or wallclock reads could hide behind the directory name.
#include <chrono>

namespace fixture::obs {

long sneaky_obs_clock() {
  const auto t = std::chrono::steady_clock::now();  // finding: wallclock
  return t.time_since_epoch().count();
}

}  // namespace fixture::obs
