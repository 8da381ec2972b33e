#include "workload/arrival.h"

#include <cmath>

#include "sim/contract.h"

namespace mcs::workload {

const char* arrival_kind_name(ArrivalKind kind) {
  switch (kind) {
    case ArrivalKind::kPoisson: return "poisson";
    case ArrivalKind::kOnOff: return "on-off";
    case ArrivalKind::kDiurnal: return "diurnal";
  }
  MCS_UNREACHABLE("unknown ArrivalKind");
}

namespace {

class PoissonArrivals final : public ArrivalProcess {
 public:
  explicit PoissonArrivals(double rate) : mean_gap_{1.0 / rate} {}

  sim::Time next_arrival(sim::Time now, sim::Rng& rng) override {
    return now + sim::Time::seconds(rng.exponential(mean_gap_));
  }

 private:
  double mean_gap_ = 1.0;
};

// Two-state Markov-modulated Poisson process: exponential ON/OFF dwell
// times, Poisson arrivals at rate_on while ON and rate_off while OFF.
// Because both the dwell and the interarrival draws are memoryless,
// restarting the interarrival sample at a state boundary is exact.
class OnOffArrivals final : public ArrivalProcess {
 public:
  // Mean dwell times of the two states.
  static constexpr sim::Time kMeanOn = sim::Time::seconds(2.0);
  static constexpr sim::Time kMeanOff = sim::Time::seconds(6.0);

  OnOffArrivals(double rate, double burst_factor) {
    const double duty =
        kMeanOn.to_seconds() / (kMeanOn + kMeanOff).to_seconds();
    rate_on_ = rate * burst_factor;
    // Solve duty*rate_on + (1-duty)*rate_off = rate for rate_off; a burst
    // factor too large for the duty cycle clamps to an idle OFF state (the
    // realized mean then falls below the configured rate).
    rate_off_ = std::max(0.0, rate * (1.0 - burst_factor * duty) /
                                  (1.0 - duty));
  }

  sim::Time next_arrival(sim::Time now, sim::Rng& rng) override {
    sim::Time t = now;
    for (;;) {
      if (t >= state_until_) {
        on_ = !on_;
        const double mean_dwell =
            (on_ ? kMeanOn : kMeanOff).to_seconds();
        state_until_ = t + sim::Time::seconds(rng.exponential(mean_dwell));
      }
      const double rate = on_ ? rate_on_ : rate_off_;
      if (rate <= 0.0) {
        t = state_until_;
        continue;
      }
      const sim::Time candidate =
          t + sim::Time::seconds(rng.exponential(1.0 / rate));
      if (candidate <= state_until_) return candidate;
      t = state_until_;
    }
  }

 private:
  double rate_on_ = 0.0;
  double rate_off_ = 0.0;
  bool on_ = false;  // first call flips to ON, so bursts start immediately
  sim::Time state_until_;
};

// Non-homogeneous Poisson via Lewis-Shedler thinning against the peak rate.
class DiurnalArrivals final : public ArrivalProcess {
 public:
  DiurnalArrivals(double rate, sim::Time period, double amplitude)
      : rate_{rate}, period_s_{period.to_seconds()}, amplitude_{amplitude} {
    MCS_ASSERT(amplitude >= 0.0 && amplitude < 1.0,
               "diurnal amplitude must lie in [0, 1)");
    peak_ = rate * (1.0 + amplitude);
  }

  sim::Time next_arrival(sim::Time now, sim::Rng& rng) override {
    sim::Time t = now;
    for (;;) {
      t = t + sim::Time::seconds(rng.exponential(1.0 / peak_));
      const double phase = 2.0 * kPi * t.to_seconds() / period_s_;
      const double rate_t = rate_ * (1.0 + amplitude_ * std::sin(phase));
      if (rng.uniform() * peak_ <= rate_t) return t;
    }
  }

 private:
  static constexpr double kPi = 3.14159265358979323846;
  double rate_ = 1.0;
  double period_s_ = 1.0;
  double amplitude_ = 0.0;
  double peak_ = 0.0;
};

}  // namespace

std::unique_ptr<ArrivalProcess> ArrivalProcess::make(
    const ArrivalConfig& cfg) {
  MCS_ASSERT(cfg.rate_tps > 0.0, "arrival rate must be positive");
  switch (cfg.kind) {
    case ArrivalKind::kPoisson:
      return std::make_unique<PoissonArrivals>(cfg.rate_tps);
    case ArrivalKind::kOnOff:
      MCS_ASSERT(cfg.burst_factor >= 1.0,
                 "on-off burst factor must be >= 1");
      return std::make_unique<OnOffArrivals>(cfg.rate_tps, cfg.burst_factor);
    case ArrivalKind::kDiurnal:
      return std::make_unique<DiurnalArrivals>(cfg.rate_tps, cfg.period,
                                               cfg.amplitude);
  }
  MCS_UNREACHABLE("unknown ArrivalKind");
}

}  // namespace mcs::workload
