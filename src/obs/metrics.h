#pragma once

// Always-on time-series telemetry: the ambient metrics registry
// (DESIGN.md §14).
//
// Where obs/trace.h answers "where did *this request* spend its time", this
// layer answers "what is the *system* doing over time": components register
// named counters / gauges / log-bucket histograms once (at construction,
// while a sim::StatsRegistry is ambient) and update them on the hot path
// through a cached pointer. An update is one predictable null test plus a
// field add — no map lookup, no string, no allocation — so telemetry can
// stay on in every run (bench/telemetry + tools/check_telemetry_bench.py
// pin the measured overhead of the full stack under a few percent).
//
// Cost contract:
//   * No registry installed: registration yields nullptr handles, so each
//     update is a never-taken branch on a cached pointer.
//   * Registry installed: counter add / gauge store / histogram bucket
//     increment. Nothing here allocates after registration, draws from a
//     model Rng, or schedules events, so enabling telemetry cannot perturb
//     simulated behaviour.
//
// Registration is eager, unlike sim::CounterHandle: a metric_*() call
// creates its key at once, so every series exists (at zero) before a
// flight recorder attached to the registry starts sampling.
//
// Determinism contract: metric values are derived from simulation state
// only; exports iterate std::map (sorted names) and merge in caller (cell)
// order, so serial and parallel sweep runs serialize byte-identically
// (tests/obs_metrics_test.cpp).

#include <cstdint>

#include "sim/stats.h"

namespace mcs::obs {

// --- Ambient (thread-local) plumbing ---------------------------------------
// One registry per thread, like obs::Install for tracers: parallel sweep
// cells each install their own registry and merge in cell order.

sim::StatsRegistry* current_metrics();

// RAII: makes `reg` the calling thread's registry; restores on destruction.
class MetricsInstall {
 public:
  explicit MetricsInstall(sim::StatsRegistry& reg);
  ~MetricsInstall();
  MetricsInstall(const MetricsInstall&) = delete;
  MetricsInstall& operator=(const MetricsInstall&) = delete;

 private:
  sim::StatsRegistry* prev_;
};

// Registration helpers, called once per component at construction: the
// returned handle is cached in a member and is nullptr when no registry is
// ambient (every update then predicts not-taken). Repeated registration of
// the same name returns the same metric, so every gateway instance shares
// "middleware.requests".
sim::Counter* metric_counter(const char* name);
sim::Gauge* metric_gauge(const char* name);
sim::LogHistogram* metric_histogram(const char* name);

// Hot-path update helpers: one null test, nothing else.
inline void metric_add(sim::Counter* c, std::uint64_t n = 1) {
  if (c != nullptr) c->add(n);
}
inline void metric_set(sim::Gauge* g, double v) {
  if (g != nullptr) g->set(v);
}
inline void metric_adjust(sim::Gauge* g, double d) {
  if (g != nullptr) g->add(d);
}
inline void metric_record(sim::LogHistogram* h, double v) {
  if (h != nullptr) h->record(v);
}

}  // namespace mcs::obs
