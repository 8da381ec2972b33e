#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "wireless/medium.h"

namespace mcs::wireless {

struct HandoffConfig {
  // A candidate cell must be this much closer before we switch; prevents
  // ping-ponging on the boundary between two cells.
  double hysteresis_m = 20.0;
};

// Tracks one mobile station across a set of cells: periodically picks the
// best (nearest in-range) cell and re-associates on change. Handoff events
// feed Mobile IP re-registration and TCP handoff notifications.
class HandoffManager {
 public:
  HandoffManager(sim::Simulator& sim, net::Interface* station,
                 const MobilityModel* mobility,
                 std::vector<WirelessMedium*> cells, HandoffConfig cfg = {});
  ~HandoffManager();
  HandoffManager(const HandoffManager&) = delete;
  HandoffManager& operator=(const HandoffManager&) = delete;

  // `from` may be null (initial attach); `to` may be null (coverage lost).
  std::function<void(WirelessMedium* from, WirelessMedium* to)> on_handoff;

  // Associate with the best cell now and begin periodic checks.
  void start();
  void stop();

  WirelessMedium* current() const { return current_; }
  std::uint64_t handoff_count() const { return handoffs_; }
  std::uint64_t coverage_losses() const { return coverage_losses_; }

 private:
  void check();
  WirelessMedium* best_cell() const;
  void switch_to(WirelessMedium* target);

  sim::Simulator& sim_;
  net::Interface* station_;
  const MobilityModel* mobility_;
  std::vector<WirelessMedium*> cells_;
  HandoffConfig cfg_;
  WirelessMedium* current_ = nullptr;
  sim::EventId timer_ = sim::kInvalidEventId;
  std::uint64_t handoffs_ = 0;
  std::uint64_t coverage_losses_ = 0;
  // Telemetry handle, cached at construction (obs/metrics.h).
  sim::Counter* m_handoffs_ = obs::metric_counter("mobileip.handoffs");
};

}  // namespace mcs::wireless
