#include "sim/stats.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <iterator>

#include "sim/json.h"

namespace mcs::sim {

namespace {

constexpr std::size_t kSubBuckets = std::size_t{1} << Histogram::kSubBits;

// 2^e for an exponent in the normal range, as a constant expression.
constexpr double pow2(int e) {
  return std::bit_cast<double>(static_cast<std::uint64_t>(e + 1023) << 52);
}

// Midpoint of a log-linear bucket; 0 for underflow and +inf for overflow,
// which the caller's clamp turns into min and max.
double representative(std::size_t bucket) {
  if (bucket == 0) return 0.0;
  if (bucket == Histogram::kBuckets - 1) {
    return std::numeric_limits<double>::infinity();
  }
  const std::size_t j = bucket - 1;
  const int exp = Histogram::kMinExp + static_cast<int>(j / kSubBuckets);
  const double sub = static_cast<double>(j % kSubBuckets) + 0.5;
  return std::ldexp(1.0 + sub / static_cast<double>(kSubBuckets), exp);
}

}  // namespace

std::size_t Histogram::bucket_of(double value) {
  if (!(value >= pow2(kMinExp))) return 0;  // also catches NaN
  if (value >= pow2(kMaxExp)) return kBuckets - 1;
  // A positive normal double: biased exponent, then the mantissa's top bits.
  const auto bits = std::bit_cast<std::uint64_t>(value);
  const int exp = static_cast<int>(bits >> 52) - 1023;
  const std::size_t sub = (bits >> (52 - kSubBits)) & (kSubBuckets - 1);
  return 1 + static_cast<std::size_t>(exp - kMinExp) * kSubBuckets + sub;
}

void Histogram::record(double value) {
  if (std::isnan(value)) return;
  ++buckets_[bucket_of(value)];
  ++count_;
  sum_ += value;
  sum_sq_ += value * value;
  min_ = std::min(min_, value);
  max_ = std::max(max_, value);
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

void Histogram::quantiles(const double* ps, double* out,
                          std::size_t n) const {
  if (count_ == 0) {
    std::fill(out, out + n, 0.0);
    return;
  }
  const double total = static_cast<double>(count_);
  std::size_t bucket = bucket_of(min_);  // nothing lies below min's bucket
  std::uint64_t below = 0;               // samples in buckets before it
  for (std::size_t q = 0; q < n; ++q) {
    // p * n first: exact for whole p, so a whole rank is not rounded up.
    const double p = std::clamp(ps[q], 0.0, 100.0);
    const auto rank = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(std::ceil(p * total / 100.0)));
    while (below + buckets_[bucket] < rank) below += buckets_[bucket++];
    out[q] = std::clamp(representative(bucket), min_, max_);
  }
}

double Histogram::percentile(double p) const {
  double q = 0.0;
  quantiles(&p, &q, 1);
  return q;
}

void Histogram::merge(const Histogram& other) {
  if (other.count_ == 0) return;
  for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
  sum_ += other.sum_;
  sum_sq_ += other.sum_sq_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void Histogram::to_json(JsonWriter& w) const {
  static constexpr double kPs[] = {50.0, 90.0, 95.0, 99.0};
  double q[std::size(kPs)];
  quantiles(kPs, q, std::size(kPs));
  w.begin_object();
  w.key("count").value(count_);
  w.key("mean").value(mean());
  w.key("stddev").value(stddev());
  w.key("min").value(min());
  w.key("max").value(max());
  // Fixed key strings: the old strf("p%.0f") formatted four temporary
  // strings per histogram, which dominated snapshot-export allocations.
  w.key("p50").value(q[0]);
  w.key("p90").value(q[1]);
  w.key("p95").value(q[2]);
  w.key("p99").value(q[3]);
  w.key("rel_error").value(kRelError);
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
