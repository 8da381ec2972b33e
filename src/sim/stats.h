#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <map>
#include <string>

#include "sim/thread_annotations.h"

namespace mcs::sim {

class JsonWriter;

// The one histogram. Count, sum, sum of squares, min and max are exact;
// quantiles come from an HDR-style log-linear bucket array
// (http://hdrhistogram.org/). A value in [2^kMinExp, 2^kMaxExp) lands in the
// bucket named by its binary exponent and the top kSubBits bits of its
// mantissa, so each power of two splits into 2^kSubBits equal sub-buckets.
// Smaller values (zero and negatives too) share one underflow bucket and
// larger ones one overflow bucket; NaN is not recorded. The buckets are one
// fixed inline array, so record() never allocates, and merge() adds them
// bucket by bucket, which is exact in any order.
//
// A quantile takes the nearest rank ceil(p*n/100) (at least 1) and reports
// the midpoint of the bucket holding that rank, clamped to [min, max]. So
// quantiles never decrease with p, never leave the recorded range, and lie
// within kRelError of the exact order statistic for values inside the
// bucketed range. The underflow bucket reports 0 and the overflow bucket
// reports max, both clamped.
class Histogram {
 public:
  static constexpr int kSubBits = 5;  // 32 sub-buckets per power of two
  static constexpr int kMinExp = -16;
  static constexpr int kMaxExp = 40;
  // Underflow, the log-linear buckets, overflow.
  static constexpr std::size_t kBuckets =
      (static_cast<std::size_t>(kMaxExp - kMinExp) << kSubBits) + 2;
  // Worst-case |midpoint - v| / v over the values v of one bucket: half a
  // sub-bucket over the bottom of its power of two, 2^-(kSubBits + 1).
  static constexpr double kRelError = 1.0 / (2 << kSubBits);

  void record(double value);

  std::uint64_t count() const { return count_; }
  double mean() const;
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }
  double stddev() const;
  double sum() const { return sum_; }
  // Nearest-rank quantile, p in [0,100]; 0 when empty.
  double percentile(double p) const;

  // The bucket `value` lands in: 0 is underflow, kBuckets - 1 overflow.
  static std::size_t bucket_of(double value);
  const std::array<std::uint64_t, kBuckets>& buckets() const {
    return buckets_;
  }

  // Fold another histogram into this one: buckets, count, min and max are
  // exact in any order. Merge order is still part of the determinism
  // contract: sums are folded in cell order after the sweep's threads have
  // joined, never concurrently (float addition does not commute
  // bit-for-bit across orders).
  void merge(const Histogram& other) MCS_EXTERNALLY_SERIALIZED;

  // {"count":..,"mean":..,"stddev":..,"min":..,"max":..,"p50":..,"p90":..,
  //  "p95":..,"p99":..,"rel_error":..}
  void to_json(JsonWriter& w) const;

 private:
  // Quantiles of the ascending percentages ps[0..n) in one pass.
  void quantiles(const double* ps, double* out, std::size_t n) const;

  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double sum_sq_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

// Inline storage stays small enough to copy and to keep on the stack.
static_assert(sizeof(Histogram) <= 16 * 1024);

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

// Named stats: one registry per component (counters and histograms), or
// one per run for the ambient telemetry of obs/metrics.h (counters, gauges
// and histograms). Map nodes never move, so a reference handed
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

  const std::map<std::string, Counter>& counters() const { return counters_; }
  const std::map<std::string, Gauge>& gauges() const { return gauges_; }
  const std::map<std::string, Histogram>& histograms() const {
    return histograms_;
  }

  // Fold another registry into this one: counters add, gauges merge (see
  // Gauge::merge), histograms merge. Used to aggregate per-entity registries
  // (e.g. every mobile's browser) into one component-level view, and sweep
  // cells into one run. Caller-serialized, in deterministic (cell) order,
  // after worker threads join — see Histogram::merge.
  void merge(const StatsRegistry& other) MCS_EXTERNALLY_SERIALIZED;

  // {"counters":{...},"gauges":{...},"histograms":{...}}; keys in sorted
  // (map) order within each kind so serialization is deterministic.
  void to_json(JsonWriter& w) const;
  std::string to_json_string() const;

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
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
