#include "sim/stats.h"

#include <algorithm>
#include <cmath>

#include "sim/json.h"

namespace mcs::sim {

Histogram::Histogram() { samples_.reserve(1024); }

void Histogram::record(double value) {
  ++count_;
  sum_ += value;
  sum_sq_ += value * value;
  min_ = std::min(min_, value);
  max_ = std::max(max_, value);
  if (samples_.size() < kMaxSamples) {
    samples_.push_back(value);
    sorted_ = false;
  } else {
    // Uniform reservoir: replace a random slot with probability k/count.
    reservoir_state_ ^= reservoir_state_ << 13;
    reservoir_state_ ^= reservoir_state_ >> 7;
    reservoir_state_ ^= reservoir_state_ << 17;
    const std::uint64_t slot = reservoir_state_ % count_;
    if (slot < samples_.size()) {
      samples_[slot] = value;
      sorted_ = false;
    }
  }
}

double Histogram::mean() const {
  return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

double Histogram::stddev() const {
  if (count_ < 2) return 0.0;
  const double n = static_cast<double>(count_);
  const double var = (sum_sq_ - sum_ * sum_ / n) / (n - 1.0);
  return var > 0.0 ? std::sqrt(var) : 0.0;
}

double Histogram::percentile(double p) const {
  if (samples_.empty()) return 0.0;
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
  const double rank = (p / 100.0) * static_cast<double>(samples_.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, samples_.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
}

void Histogram::merge(const Histogram& other) {
  if (other.count_ == 0) return;
  count_ += other.count_;
  sum_ += other.sum_;
  sum_sq_ += other.sum_sq_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  for (const double v : other.samples_) {
    if (samples_.size() >= kMaxSamples) break;
    samples_.push_back(v);
  }
  sorted_ = false;
}

void Histogram::to_json(JsonWriter& w) const {
  w.begin_object();
  w.key("count").value(count_);
  w.key("mean").value(mean());
  w.key("stddev").value(stddev());
  w.key("min").value(min());
  w.key("max").value(max());
  // Fixed key strings: the old strf("p%.0f") formatted four temporary
  // strings per histogram, which dominated snapshot-export allocations.
  w.key("p50").value(percentile(50.0));
  w.key("p90").value(percentile(90.0));
  w.key("p95").value(percentile(95.0));
  w.key("p99").value(percentile(99.0));
  w.end_object();
}

namespace {

// Log2 bucket index for a non-negative value: bucket 0 holds v <= 1,
// bucket i holds (2^(i-1), 2^i], everything past the top bound saturates
// into the last bucket. 2^47 us is ~4.5 years, far beyond any sim horizon.
std::size_t log_bucket_index(double v) {
  if (!(v > 1.0)) return 0;  // also catches NaN
  const int e = std::ilogb(v);
  // v in (2^(i-1), 2^i] <=> ilogb in {i-1} unless v is an exact power of two.
  std::size_t i = static_cast<std::size_t>(e);
  if (std::ldexp(1.0, e) != v) ++i;
  return std::min(i, LogHistogram::kBuckets - 1);
}

}  // namespace

void LogHistogram::record(double v) {
  if (std::isnan(v)) return;
  if (v < 0.0) v = 0.0;
  ++buckets_[log_bucket_index(v)];
  ++count_;
  sum_ += v;
  if (v > max_) max_ = v;
}

double LogHistogram::percentile(double p) const {
  if (count_ == 0) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  const double target = p / 100.0 * static_cast<double>(count_);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += buckets_[i];
    if (static_cast<double>(seen) >= target) {
      return std::ldexp(1.0, static_cast<int>(i));
    }
  }
  return std::ldexp(1.0, static_cast<int>(kBuckets - 1));
}

void LogHistogram::merge(const LogHistogram& other) {
  for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
  sum_ += other.sum_;
  if (other.max_ > max_) max_ = other.max_;
}

void LogHistogram::to_json(JsonWriter& w) const {
  w.begin_object();
  w.key("count").value(count_);
  w.key("sum").value(sum_);
  w.key("max").value(max());
  w.key("p50").value(percentile(50));
  w.key("p95").value(percentile(95));
  w.key("p99").value(percentile(99));
  w.end_object();
}

void StatsRegistry::merge(const StatsRegistry& other) {
  for (const auto& [name, c] : other.counters_) {
    counters_[name].add(c.value());
  }
  for (const auto& [name, g] : other.gauges_) gauges_[name].merge(g);
  for (const auto& [name, h] : other.histograms_) {
    histograms_[name].merge(h);
  }
  for (const auto& [name, h] : other.log_histograms_) {
    log_histograms_[name].merge(h);
  }
}

void StatsRegistry::to_json(JsonWriter& w) const {
  w.begin_object();
  w.key("counters").begin_object();
  for (const auto& [name, c] : counters_) {
    w.key(name).value(c.value());
  }
  w.end_object();
  // Only a registry with a gauge writes "gauges", so per-component exports
  // (counters and histograms only) keep their exact shape.
  if (!gauges_.empty()) {
    w.key("gauges").begin_object();
    for (const auto& [name, g] : gauges_) {
      w.key(name).begin_object();
      w.key("value").value(g.value());
      w.key("high_water").value(g.high_water());
      w.end_object();
    }
    w.end_object();
  }
  w.key("histograms").begin_object();
  for (const auto& [name, h] : histograms_) {
    w.key(name);
    h.to_json(w);
  }
  for (const auto& [name, h] : log_histograms_) {
    w.key(name);
    h.to_json(w);
  }
  w.end_object();
  w.end_object();
}

std::string StatsRegistry::to_json_string() const {
  JsonWriter w;
  to_json(w);
  return w.take();
}

void StatsSnapshot::add(const std::string& path,
                        const StatsRegistry& registry) {
  registries_[path].merge(registry);
}

void StatsSnapshot::to_json(JsonWriter& w) const {
  w.begin_object();
  w.key("meta").begin_object();
  for (const auto& [path, text] : texts_) {
    w.key(path).value(text);
  }
  w.end_object();
  w.key("values").begin_object();
  for (const auto& [path, v] : values_) {
    w.key(path).value(v);
  }
  w.end_object();
  w.key("components").begin_object();
  for (const auto& [path, reg] : registries_) {
    w.key(path);
    reg.to_json(w);
  }
  w.end_object();
  w.end_object();
}

std::string StatsSnapshot::to_json_string() const {
  JsonWriter w;
  to_json(w);
  return w.take();
}

}  // namespace mcs::sim
