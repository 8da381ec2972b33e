#pragma once

// Arrival processes for the load generators: when do transactions enter the
// system? All three models are driven by an explicit sim::Rng, so a fixed
// seed replays the identical arrival sequence (the determinism tests depend
// on it). Rates are long-run means in transactions per second; the bursty
// and diurnal models preserve the configured mean while redistributing it
// in time, so capacity numbers across arrival models are comparable.

#include <memory>

#include "sim/random.h"
#include "sim/time.h"

namespace mcs::workload {

enum class ArrivalKind {
  kPoisson,  // memoryless arrivals at a constant rate
  kOnOff,    // MMPP-style two-state burst model (ON fast, OFF slow)
  kDiurnal,  // sinusoidal rate over a configurable "day" period
};

const char* arrival_kind_name(ArrivalKind kind);

struct ArrivalConfig {
  ArrivalKind kind = ArrivalKind::kPoisson;
  double rate_tps = 1.0;  // long-run mean arrival rate

  // kOnOff: bursts alternate with quiet spells of fixed mean lengths. The ON
  // state arrives at burst_factor * rate_tps; the OFF-state rate is derived
  // so the duty-cycle-weighted mean stays rate_tps.
  double burst_factor = 3.0;

  // kDiurnal: rate(t) = rate_tps * (1 + amplitude * sin(2*pi*t/period)).
  sim::Time period = sim::Time::seconds(60.0);
  double amplitude = 0.8;  // in [0, 1)
};

class ArrivalProcess {
 public:
  virtual ~ArrivalProcess() = default;

  // Absolute time of the next arrival strictly after `now`. Must be
  // non-decreasing across successive calls when fed its own results.
  virtual sim::Time next_arrival(sim::Time now, sim::Rng& rng) = 0;

  static std::unique_ptr<ArrivalProcess> make(const ArrivalConfig& cfg);
};

}  // namespace mcs::workload
