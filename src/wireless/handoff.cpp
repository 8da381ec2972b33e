#include "wireless/handoff.h"

#include <algorithm>
#include <limits>

#include "sim/contract.h"
#include "sim/logging.h"

namespace mcs::wireless {

namespace {
// How often the manager re-evaluates the best cell.
constexpr sim::Time kCheckInterval = sim::Time::millis(500);
}  // namespace

HandoffManager::HandoffManager(sim::Simulator& sim, net::Interface* station,
                               const MobilityModel* mobility,
                               std::vector<WirelessMedium*> cells,
                               HandoffConfig cfg)
    : sim_{sim},
      station_{station},
      mobility_{mobility},
      cells_{std::move(cells)},
      cfg_{cfg} {
  MCS_ASSERT(station_ != nullptr, "handoff manager needs a station interface");
  MCS_ASSERT(mobility_ != nullptr, "handoff manager needs a mobility model");
  MCS_ASSERT(cfg_.hysteresis_m >= 0.0, "handoff hysteresis must be >= 0");
  for (const WirelessMedium* cell : cells_) {
    MCS_ASSERT(cell != nullptr, "handoff cell list contains a null cell");
  }
}

HandoffManager::~HandoffManager() { stop(); }

void HandoffManager::start() {
  check();
}

void HandoffManager::stop() {
  if (timer_ != sim::kInvalidEventId) {
    sim_.cancel(timer_);
    timer_ = sim::kInvalidEventId;
  }
  MCS_INVARIANT(timer_ == sim::kInvalidEventId,
                "a stopped manager must leave no pending probe timer");
}

WirelessMedium* HandoffManager::best_cell() const {
  WirelessMedium* best = nullptr;
  double best_dist = std::numeric_limits<double>::infinity();
  const Position pos = mobility_->position();
  for (WirelessMedium* cell : cells_) {
    const double d = pos.distance_to(cell->ap_position());
    if (d <= cell->config().phy.range_m && d < best_dist) {
      best_dist = d;
      best = cell;
    }
  }
  return best;
}

void HandoffManager::check() {
  const Position pos = mobility_->position();
  WirelessMedium* candidate = best_cell();
  bool switch_now = false;
  if (current_ == nullptr) {
    switch_now = candidate != nullptr;
  } else {
    const double cur_dist = pos.distance_to(current_->ap_position());
    if (cur_dist > current_->config().phy.range_m) {
      switch_now = true;  // lost coverage; take whatever is best (may be null)
    } else if (candidate != nullptr && candidate != current_) {
      const double cand_dist = pos.distance_to(candidate->ap_position());
      switch_now = cand_dist + cfg_.hysteresis_m < cur_dist;
    }
  }
  if (switch_now && candidate != current_) switch_to(candidate);
  timer_ = sim_.after(kCheckInterval, [this] { check(); });
}

void HandoffManager::switch_to(WirelessMedium* target) {
  MCS_ASSERT(target != current_, "switch_to() must change the associated cell");
  MCS_INVARIANT(target == nullptr ||
                    std::find(cells_.begin(), cells_.end(), target) !=
                        cells_.end(),
                "handoff target is not one of the managed cells");
  WirelessMedium* old = current_;
  if (old != nullptr) old->disassociate(station_);
  current_ = target;
  if (target != nullptr) {
    target->associate(station_, mobility_);
    if (old != nullptr) {
      ++handoffs_;
      obs::metric_add(m_handoffs_);
    }
  } else {
    ++coverage_losses_;
  }
  sim::logf(sim::LogLevel::kDebug, sim_.now(), "handoff %s: %s -> %s",
            station_->node()->name().c_str(),
            old != nullptr ? old->name().c_str() : "(none)",
            target != nullptr ? target->name().c_str() : "(none)");
  if (on_handoff) on_handoff(old, target);
}

}  // namespace mcs::wireless
