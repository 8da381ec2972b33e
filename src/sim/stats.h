#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "sim/thread_annotations.h"
#include "sim/time.h"

namespace mcs::sim {

class JsonWriter;

// Streaming summary of scalar samples: count/mean/min/max/stddev plus exact
// percentiles from retained samples (capped via uniform reservoir sampling
// so memory stays bounded on long runs).
class Histogram {
 public:
  explicit Histogram(std::size_t max_samples = 65536);

  void record(double value);
  void record_time(Time t) { record(t.to_millis()); }

  std::uint64_t count() const { return count_; }
  double mean() const;
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }
  double stddev() const;
  double sum() const { return sum_; }
  // p in [0,100]; exact over retained samples.
  double percentile(double p) const;

  void clear();

  // Fold another histogram into this one. Count/sum/min/max stay exact;
  // retained samples are concatenated up to the cap, so merged percentiles
  // are approximate once either side overflowed its reservoir.
  //
  // Merge order is part of the determinism contract: sums are folded in
  // cell order after the sweep's threads have joined, never concurrently
  // (float addition does not commute bit-for-bit across orders).
  void merge(const Histogram& other) MCS_EXTERNALLY_SERIALIZED;

  // "n=100 mean=1.2 p50=1.1 p95=2.0 max=3.4"
  std::string summary(const char* unit = "") const;

  // {"count":..,"mean":..,"stddev":..,"min":..,"max":..,"p50":..,...}
  void to_json(JsonWriter& w) const;

 private:
  std::size_t max_samples_ = 0;
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

// Monotonic event/byte counter with a rate helper.
class Counter {
 public:
  void add(std::uint64_t n = 1) { value_ += n; }
  std::uint64_t value() const { return value_; }
  void clear() { value_ = 0; }
  // Events (or bytes) per second over `elapsed`.
  double rate(Time elapsed) const {
    const double s = elapsed.to_seconds();
    return s > 0.0 ? static_cast<double>(value_) / s : 0.0;
  }

 private:
  std::uint64_t value_ = 0;
};

// One named counter of one registry, found once and then reached through a
// cached pointer (map nodes never move), so the hot path does no string
// lookup; the registry-side twin of the obs::metric_* handles. The owner of
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

// Named stats for one component; registries compose into system reports.
class StatsRegistry {
 public:
  // By name, for names built at run time (exports, tests).
  Counter& counter(const std::string& name) { return counters_[name]; }
  // By handle, for every update site with a fixed name.
  Counter& counter(CounterHandle& h) {
    if (h.counter_ == nullptr) h.counter_ = &counters_[h.name_];
    return *h.counter_;
  }
  Histogram& histogram(const std::string& name) { return histograms_[name]; }

  const std::map<std::string, Counter>& counters() const { return counters_; }
  const std::map<std::string, Histogram>& histograms() const {
    return histograms_;
  }

  std::string report(const std::string& prefix = "") const;

  // Fold another registry into this one: counters add, histograms merge.
  // Used to aggregate per-entity registries (e.g. every mobile's browser)
  // into one component-level view. Caller-serialized, in deterministic
  // (cell) order, after worker threads join — see Histogram::merge.
  void merge(const StatsRegistry& other) MCS_EXTERNALLY_SERIALIZED;

  // {"counters":{...},"histograms":{...}}; keys in sorted (map) order so
  // serialization is deterministic.
  void to_json(JsonWriter& w) const;
  std::string to_json_string() const;

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Histogram> histograms_;
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
