// Fixture for baseline bookkeeping (selftest check_baseline): the committed
// baseline.json next to this file accepts the first getenv below, not the
// second, and also holds entries that match no finding here.
#include <cstdlib>

namespace fixture {

int accepted_knob() {
  const char* level = std::getenv("FIXTURE_ACCEPTED");  // baselined
  return level == nullptr ? 0 : std::atoi(level);
}

int new_knob() {
  const char* level = std::getenv("FIXTURE_NEW");  // not in the baseline
  return level == nullptr ? 0 : std::atoi(level);
}

}  // namespace fixture
