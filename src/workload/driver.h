#pragma once

// Load drivers over the Table 1 applications: open-loop (arrivals at a
// target offered rate, independent of completions — the right model for
// capacity measurement, since queueing delay shows up in response time
// instead of throttling the generator) and closed-loop (a fixed population
// of users, each thinking between transactions — the right model for
// Little's-law sanity checks and interactive-population studies).
//
// Every request gets a deadline; outcomes are classified ok / error /
// timeout. Latency is measured from *arrival* (not issue), so open-loop
// overload shows up as latency growth and then timeouts rather than being
// hidden in a generator queue.

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/apps.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/stats.h"
#include "workload/arrival.h"
#include "workload/session.h"

namespace mcs::workload {

enum class Outcome { kOk, kError, kTimeout };

const char* outcome_name(Outcome o);

struct DriverConfig {
  // Arrivals (open loop) / new sessions (closed loop) stop at `duration`;
  // in-flight work then drains, bounded by `timeout`.
  sim::Time duration = sim::Time::seconds(30.0);
  // Requests arriving before `warmup` run but are excluded from the report.
  sim::Time warmup = sim::Time::seconds(5.0);
  // Per-request deadline, measured from arrival. A request still queued at
  // its deadline is dropped without being issued.
  sim::Time timeout = sim::Time::seconds(10.0);
  std::uint64_t seed = 1;
};

struct DriverReport {
  std::string driver;  // "open-loop" | "closed-loop"
  std::string mix;
  std::string arrivals;  // arrival model (open loop only)
  double target_tps = 0.0;     // configured offered load (open loop only)
  double offered_tps = 0.0;    // measured arrivals per second
  double delivered_tps = 0.0;  // completions (ok + error) per second
  double goodput_tps = 0.0;    // ok completions per second
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::uint64_t error = 0;
  std::uint64_t timeout = 0;
  std::uint64_t clients = 0;  // driven client population
  // Arrival-to-completion latency of ok/error requests (timeouts excluded;
  // the SLO's ok-fraction term accounts for them).
  sim::Histogram latency_ms;
  sim::Time window;  // measured interval length (duration - warmup)

  double ok_fraction() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(ok) /
                                static_cast<double>(attempted);
  }

  // Fold this report into a snapshot under `prefix` ("driver", ...).
  void add_to(sim::StatsSnapshot& snap, const std::string& prefix) const;
  std::string to_json_string() const;
};

// Drives a set of clients (mobile browsers or desktop HTTP clients — any
// core::ClientDriver) through the applications of a WorkloadMix against one
// host. One LoadDriver instance runs one experiment on one simulator.
class LoadDriver {
 public:
  LoadDriver(sim::Simulator& sim,
             std::vector<core::ClientDriver*> clients,
             const std::vector<std::unique_ptr<core::Application>>& apps,
             WorkloadMix mix, std::string host, DriverConfig cfg);
  LoadDriver(const LoadDriver&) = delete;
  LoadDriver& operator=(const LoadDriver&) = delete;

  // Open loop: arrivals from `arrivals` (its rate_tps is the offered load),
  // dealt round-robin onto per-client FIFO queues. Runs the simulator until
  // the system drains and returns the measured-window report.
  DriverReport run_open_loop(const ArrivalConfig& arrivals);

  // Closed loop: every client issues its next transaction after an
  // exponential think time (mix.mean_think) once the previous completes.
  DriverReport run_closed_loop();

 private:
  struct Request {
    std::uint64_t id = 0;
    std::size_t client = 0;
    std::size_t app_index = 0;
    sim::Time arrival;
    sim::Time issued_at;
    bool issued = false;
    bool done = false;       // ok or error recorded
    bool timed_out = false;  // deadline fired first
    bool dropped = false;    // timed out while still queued; never issue
    bool measured = false;   // arrival within [warmup, duration)
    // Root span of the request's trace (obs/trace.h); minted at issue,
    // closed at completion.
    obs::TraceContext trace;
  };

  Request& new_request(std::size_t client, std::size_t app_index);
  void enqueue(Request& req);
  void issue_next(std::size_t client);
  void complete(Request& req, bool ok);
  void arm_timeout(Request& req);
  void finish_report(DriverReport& report);

  sim::Simulator& sim_;
  std::vector<core::ClientDriver*> clients_;
  const std::vector<std::unique_ptr<core::Application>>& apps_;
  WorkloadMix mix_;
  std::string host_;
  DriverConfig cfg_;
  sim::Rng rng_;
  sim::Time start_;

  // Telemetry handles, cached at construction (obs/metrics.h): the SLO
  // outcome classes as counters, end-to-end latency as a histogram,
  // and issued-but-unfinished requests as a gauge.
  sim::Counter* m_ok_ = obs::metric_counter("workload.ok");
  sim::Counter* m_error_ = obs::metric_counter("workload.error");
  sim::Counter* m_timeout_ = obs::metric_counter("workload.timeout");
  sim::Gauge* m_inflight_ = obs::metric_gauge("workload.inflight");
  sim::Histogram* m_latency_us_ =
      obs::metric_histogram("workload.latency_us");

  std::vector<std::unique_ptr<Request>> requests_;
  std::vector<std::deque<Request*>> queues_;  // open loop, per client
  std::vector<bool> busy_;
  std::uint64_t next_seq_ = 0;
  DriverReport report_;
};

}  // namespace mcs::workload
