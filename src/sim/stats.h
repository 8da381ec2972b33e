#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "sim/thread_annotations.h"

namespace mcs::sim {

class JsonWriter;

// Streaming summary of scalar samples: count/mean/min/max/stddev plus exact
// percentiles from retained samples (capped via uniform reservoir sampling
// so memory stays bounded on long runs).
class Histogram {
 public:
  // Retained samples; past this many, percentiles come from a uniform
  // reservoir while count/sum/min/max stay exact.
  static constexpr std::size_t kMaxSamples = 65536;

  Histogram();

  void record(double value);

  std::uint64_t count() const { return count_; }
  double mean() const;
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }
  double stddev() const;
  double sum() const { return sum_; }
  // p in [0,100]; exact over retained samples.
  double percentile(double p) const;

  // Fold another histogram into this one. Count/sum/min/max stay exact;
  // retained samples are concatenated up to the cap, so merged percentiles
  // are approximate once either side overflowed its reservoir.
  //
  // Merge order is part of the determinism contract: sums are folded in
  // cell order after the sweep's threads have joined, never concurrently
  // (float addition does not commute bit-for-bit across orders).
  void merge(const Histogram& other) MCS_EXTERNALLY_SERIALIZED;

  // {"count":..,"mean":..,"stddev":..,"min":..,"max":..,"p50":..,...}
  void to_json(JsonWriter& w) const;

 private:
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double sum_sq_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
  // xorshift state for reservoir replacement; independent of model Rngs so
  // stats never perturb simulated behaviour.
  std::uint64_t reservoir_state_ = 0x853c49e6748fea9bull;
};

// Log-bucketed latency/size histogram: power-of-two bucket bounds, fixed
// array storage, so record() is a shift + increment (zero-alloc, mergeable
// by bucket-wise addition). Bucket i counts samples in (2^(i-1), 2^i]
// (bucket 0: <= 1). Values are whatever unit the caller picked — by
// convention microseconds for latencies, bytes for sizes.
class LogHistogram {
 public:
  static constexpr std::size_t kBuckets = 48;

  void record(double v);

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }
  // Upper bucket bound containing the p-th percentile (p in [0,100]);
  // exact to within the 2x bucket resolution.
  double percentile(double p) const;
  const std::array<std::uint64_t, kBuckets>& buckets() const {
    return buckets_;
  }

  // Bucket-wise fold; caller-serialized in deterministic (cell) order like
  // Histogram::merge.
  void merge(const LogHistogram& other) MCS_EXTERNALLY_SERIALIZED;

  // {"count":..,"sum":..,"max":..,"p50":..,"p95":..,"p99":..}
  void to_json(JsonWriter& w) const;

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double max_ = 0.0;
};

// Monotonic event/byte counter.
class Counter {
 public:
  void add(std::uint64_t n = 1) { value_ += n; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

// Instantaneous level (queue depth, pool occupancy, bytes in flight) with a
// high-water mark. set() is the primitive; add() is set(value + d).
class Gauge {
 public:
  void set(double v) {
    v_ = v;
    if (v > hwm_) hwm_ = v;
  }
  void add(double d) { set(v_ + d); }
  double value() const { return v_; }
  double high_water() const { return hwm_; }
  // Levels add (total queued bytes across cells); the merged high-water is
  // the max of the two high-waters, not the high-water of the summed level.
  void merge(const Gauge& other) {
    v_ += other.v_;
    hwm_ = std::max(hwm_, other.hwm_);
  }

 private:
  double v_ = 0.0;
  double hwm_ = 0.0;
};

// One named counter of one registry, found once and then reached through a
// cached pointer (map nodes never move), so the hot path does no string
// lookup; the lazy twin of the eager obs::metric_* pointers. The owner of
// a registry keeps one handle per counter it updates:
//
//   sim::CounterHandle c_tx_packets_{"tx_packets"};
//   stats_.counter(c_tx_packets_).add();
//
// The counter is created on the handle's first use, exactly as the string
// overload would create it, so a counter never counted stays absent from
// every export. A copy starts unresolved: a copied owner counts into its
// own registry, never into the one it was copied from.
class CounterHandle {
 public:
  explicit constexpr CounterHandle(const char* name) : name_{name} {}
  CounterHandle(const CounterHandle& other) : name_{other.name_} {}
  CounterHandle& operator=(const CounterHandle& other) {
    name_ = other.name_;
    counter_ = nullptr;
    return *this;
  }

 private:
  friend class StatsRegistry;
  const char* name_;
  Counter* counter_ = nullptr;
};

// Named stats: one registry per component (counters and exact histograms),
// or one per run for the ambient telemetry of obs/metrics.h (counters,
// gauges and log histograms). Map nodes never move, so a reference handed
// out stays valid for the registry's lifetime. Not thread-safe: one
// registry per thread, matching the simulator-per-thread confinement of
// parallel sweeps.
class StatsRegistry {
 public:
  // By name, for names built at run time (exports, tests).
  Counter& counter(const std::string& name) { return counters_[name]; }
  // By handle, for every update site with a fixed name.
  Counter& counter(CounterHandle& h) {
    if (h.counter_ == nullptr) h.counter_ = &counters_[h.name_];
    return *h.counter_;
  }
  Gauge& gauge(const std::string& name) { return gauges_[name]; }
  Histogram& histogram(const std::string& name) { return histograms_[name]; }
  LogHistogram& log_histogram(const std::string& name) {
    return log_histograms_[name];
  }

  const std::map<std::string, Counter>& counters() const { return counters_; }
  const std::map<std::string, Gauge>& gauges() const { return gauges_; }
  const std::map<std::string, Histogram>& histograms() const {
    return histograms_;
  }
  const std::map<std::string, LogHistogram>& log_histograms() const {
    return log_histograms_;
  }

  // Fold another registry into this one: counters add, gauges merge (see
  // Gauge::merge), histograms of both kinds merge. Used to aggregate
  // per-entity registries (e.g. every mobile's browser) into one
  // component-level view, and sweep cells into one run. Caller-serialized,
  // in deterministic (cell) order, after worker threads join — see
  // Histogram::merge.
  void merge(const StatsRegistry& other) MCS_EXTERNALLY_SERIALIZED;

  // {"counters":{...},"gauges":{...},"histograms":{...}}; keys in sorted
  // (map) order within each kind so serialization is deterministic. Exact
  // histograms precede log histograms in "histograms".
  void to_json(JsonWriter& w) const;
  std::string to_json_string() const;

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
  std::map<std::string, LogHistogram> log_histograms_;
};

// System-wide aggregation helper: named point-in-time copies of component
// registries plus scalar/text metadata, exported as one deterministic JSON
// document. The workload metrics layer fills one of these per run; benches
// write it next to their human-readable tables.
class StatsSnapshot {
 public:
  // Copies `registry` under `path` ("host.web_server", "net.gateway", ...).
  // Adding the same path twice merges into the earlier copy.
  // Caller-serialized like every merge path (see Histogram::merge).
  void add(const std::string& path,
           const StatsRegistry& registry) MCS_EXTERNALLY_SERIALIZED;
  void set_value(const std::string& path, double v) { values_[path] = v; }
  void set_text(const std::string& path, std::string v) {
    texts_[path] = std::move(v);
  }

  bool empty() const {
    return registries_.empty() && values_.empty() && texts_.empty();
  }
  const std::map<std::string, StatsRegistry>& registries() const {
    return registries_;
  }
  const std::map<std::string, double>& values() const { return values_; }
  const std::map<std::string, std::string>& texts() const { return texts_; }

  // {"meta":{texts},"values":{...},"components":{path:registry,...}}
  void to_json(JsonWriter& w) const;
  std::string to_json_string() const;

 private:
  std::map<std::string, StatsRegistry> registries_;
  std::map<std::string, double> values_;
  std::map<std::string, std::string> texts_;
};

}  // namespace mcs::sim
