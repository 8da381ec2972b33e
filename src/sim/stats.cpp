#include "sim/stats.h"

#include <algorithm>
#include <cmath>

#include "sim/json.h"
#include "sim/util.h"

namespace mcs::sim {

Histogram::Histogram(std::size_t max_samples) : max_samples_{max_samples} {
  samples_.reserve(std::min<std::size_t>(max_samples_, 1024));
}

void Histogram::record(double value) {
  ++count_;
  sum_ += value;
  sum_sq_ += value * value;
  min_ = std::min(min_, value);
  max_ = std::max(max_, value);
  if (samples_.size() < max_samples_) {
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

void Histogram::clear() {
  count_ = 0;
  sum_ = 0.0;
  sum_sq_ = 0.0;
  min_ = std::numeric_limits<double>::infinity();
  max_ = -std::numeric_limits<double>::infinity();
  samples_.clear();
  sorted_ = true;
}

void Histogram::merge(const Histogram& other) {
  if (other.count_ == 0) return;
  count_ += other.count_;
  sum_ += other.sum_;
  sum_sq_ += other.sum_sq_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  for (const double v : other.samples_) {
    if (samples_.size() >= max_samples_) break;
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

std::string Histogram::summary(const char* unit) const {
  if (count_ == 0) return "n=0";
  return strf("n=%llu mean=%.3f%s p50=%.3f%s p95=%.3f%s p99=%.3f%s max=%.3f%s",
              static_cast<unsigned long long>(count_), mean(), unit,
              percentile(50), unit, percentile(95), unit, percentile(99), unit,
              max(), unit);
}

std::string StatsRegistry::report(const std::string& prefix) const {
  std::string out;
  out.reserve(64 * (counters_.size() + histograms_.size()));
  for (const auto& [name, c] : counters_) {
    out += strf("%s%s = %llu\n", prefix.c_str(), name.c_str(),
                static_cast<unsigned long long>(c.value()));
  }
  for (const auto& [name, h] : histograms_) {
    out += prefix + name + ": " + h.summary() + "\n";
  }
  return out;
}

void StatsRegistry::merge(const StatsRegistry& other) {
  for (const auto& [name, c] : other.counters_) {
    counters_[name].add(c.value());
  }
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
