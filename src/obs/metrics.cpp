#include "obs/metrics.h"

namespace mcs::obs {

namespace {

// One registry per thread, mirroring t_tracer in trace.cpp: a parallel
// sweep confines each cell's simulation — and now its metrics — to one
// worker thread, merging in cell order afterwards.
thread_local sim::StatsRegistry* t_metrics = nullptr;

}  // namespace

sim::StatsRegistry* current_metrics() { return t_metrics; }

MetricsInstall::MetricsInstall(sim::StatsRegistry& reg) : prev_{t_metrics} {
  t_metrics = &reg;
}

MetricsInstall::~MetricsInstall() { t_metrics = prev_; }

sim::Counter* metric_counter(const char* name) {
  return t_metrics != nullptr ? &t_metrics->counter(name) : nullptr;
}

sim::Gauge* metric_gauge(const char* name) {
  return t_metrics != nullptr ? &t_metrics->gauge(name) : nullptr;
}

sim::Histogram* metric_histogram(const char* name) {
  return t_metrics != nullptr ? &t_metrics->histogram(name) : nullptr;
}

}  // namespace mcs::obs
