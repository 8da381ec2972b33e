#include "obs/flight_recorder.h"

#include <algorithm>
#include <map>
#include <utility>

#include "obs/trace_clock.h"
#include "sim/contract.h"
#include "sim/json.h"
#include "sim/simulator.h"
#include "sim/stats.h"

namespace mcs::obs {

FlightRecorder::FlightRecorder() : FlightRecorder(Config{}) {}

FlightRecorder::FlightRecorder(Config cfg) : cfg_{cfg} {
  MCS_ASSERT(cfg_.period > sim::Time::zero(),
             "recorder period must be positive");
  MCS_ASSERT(cfg_.capacity > 0, "recorder ring needs at least one row");
}

FlightRecorder::~FlightRecorder() { stop(); }

void FlightRecorder::add_series(std::string name,
                                std::function<double()> sampler) {
  MCS_ASSERT(!name.empty(), "series name must be non-empty");
  MCS_ASSERT(sampler != nullptr, "series sampler must be callable");
  MCS_ASSERT(ticks_ == 0, "register series before recording starts");
  series_.push_back(Series{std::move(name), std::move(sampler)});
}

void FlightRecorder::add_registry(const sim::StatsRegistry& reg) {
  for (const auto& [name, c] : reg.counters()) {
    const sim::Counter* p = &c;
    add_series(name, [p] { return static_cast<double>(p->value()); });
  }
  for (const auto& [name, g] : reg.gauges()) {
    const sim::Gauge* p = &g;
    add_series(name, [p] { return p->value(); });
    add_series(name + ".hwm", [p] { return p->high_water(); });
  }
  for (const auto& [name, h] : reg.log_histograms()) {
    const sim::LogHistogram* p = &h;
    add_series(name + ".count",
               [p] { return static_cast<double>(p->count()); });
    add_series(name + ".sum", [p] { return p->sum(); });
  }
}

void FlightRecorder::start(sim::Simulator& sim, sim::Time until) {
  MCS_ASSERT(!series_.empty(), "recorder has no series to sample");
  MCS_ASSERT(pending_event_ == 0, "recorder already started");
  sim_ = &sim;
  until_ = until;
  if (data_.empty()) {
    data_.assign(cfg_.capacity * series_.size(), 0.0);
    times_.assign(cfg_.capacity, sim::Time{});
  }
  schedule_next();
}

void FlightRecorder::stop() {
  if (sim_ != nullptr && pending_event_ != 0) {
    sim_->cancel(pending_event_);
  }
  pending_event_ = 0;
}

void FlightRecorder::schedule_next() {
  const sim::Time next = sim_->now() + cfg_.period;
  if (next > until_) {
    pending_event_ = 0;
    return;
  }
  pending_event_ = sim_->at(next, [this] { tick(); });
}

void FlightRecorder::tick() {
  const std::size_t slot =
      static_cast<std::size_t>(ticks_ % cfg_.capacity) * series_.size();
  for (std::size_t s = 0; s < series_.size(); ++s) {
    data_[slot + s] = series_[s].sampler();
  }
  times_[static_cast<std::size_t>(ticks_ % cfg_.capacity)] = sim_->now();
  ++ticks_;
  schedule_next();
}

std::size_t FlightRecorder::rows() const {
  return static_cast<std::size_t>(
      std::min<std::uint64_t>(ticks_, cfg_.capacity));
}

std::size_t FlightRecorder::ring_index(std::size_t row) const {
  MCS_ASSERT(row < rows(), "recorder row out of range");
  // Until the ring wraps, row == slot; afterwards the oldest retained row
  // sits just past the most recently written slot.
  if (ticks_ <= cfg_.capacity) return row;
  return static_cast<std::size_t>((ticks_ + row) % cfg_.capacity);
}

sim::Time FlightRecorder::row_time(std::size_t row) const {
  return times_[ring_index(row)];
}

double FlightRecorder::sample(std::size_t row, std::size_t series) const {
  MCS_ASSERT(series < series_.size(), "recorder series out of range");
  return data_[ring_index(row) * series_.size() + series];
}

bool FlightRecorder::series_nonzero(std::size_t series) const {
  for (std::size_t r = 0; r < rows(); ++r) {
    if (sample(r, series) != 0.0) return true;
  }
  return false;
}

void FlightRecorder::merge(const FlightRecorder& other) {
  MCS_ASSERT(cfg_.period == other.cfg_.period,
             "merge requires identical recorder periods");
  MCS_ASSERT(series_.size() == other.series_.size(),
             "merge requires identical series sets");
  MCS_ASSERT(ticks_ == other.ticks_,
             "merge requires recorders that ticked in lockstep");
  for (std::size_t s = 0; s < series_.size(); ++s) {
    MCS_ASSERT(series_[s].name == other.series_[s].name,
               "merge requires identical series sets");
  }
  for (std::size_t r = 0; r < rows(); ++r) {
    MCS_ASSERT(row_time(r) == other.row_time(r),
               "merge requires aligned sample times");
    const std::size_t mine = ring_index(r) * series_.size();
    const std::size_t theirs = other.ring_index(r) * series_.size();
    for (std::size_t s = 0; s < series_.size(); ++s) {
      data_[mine + s] += other.data_[theirs + s];
    }
  }
}

void FlightRecorder::to_json(sim::JsonWriter& w) const {
  // Sorted series order, like every deterministic export in the tree.
  std::map<std::string_view, std::size_t> order;
  for (std::size_t s = 0; s < series_.size(); ++s) {
    order.emplace(series_[s].name, s);
  }
  w.begin_object();
  w.key("period_us").value(cfg_.period.to_micros());
  w.key("capacity").value(static_cast<std::uint64_t>(cfg_.capacity));
  w.key("ticks").value(ticks_);
  w.key("t_us").begin_array();
  for (std::size_t r = 0; r < rows(); ++r) {
    w.value(trace_ts_us(row_time(r)));
  }
  w.end_array();
  w.key("series").begin_object();
  for (const auto& [name, s] : order) {
    w.key(name).begin_array();
    for (std::size_t r = 0; r < rows(); ++r) w.value(sample(r, s));
    w.end_array();
  }
  w.end_object();
  w.end_object();
}

std::string FlightRecorder::to_json_string() const {
  sim::JsonWriter w;
  to_json(w);
  return w.take();
}

void FlightRecorder::append_chrome_counters(sim::JsonWriter& w) const {
  std::map<std::string_view, std::size_t> order;
  for (std::size_t s = 0; s < series_.size(); ++s) {
    order.emplace(series_[s].name, s);
  }
  for (const auto& [name, s] : order) {
    for (std::size_t r = 0; r < rows(); ++r) {
      w.begin_object();
      w.key("name").value(name);
      w.key("cat").value("telemetry");
      w.key("ph").value("C");
      w.key("ts").value(trace_ts_us(row_time(r)));
      w.key("pid").value(std::int64_t{1});
      w.key("args").begin_object();
      w.key("value").value(sample(r, s));
      w.end_object();
      w.end_object();
    }
  }
}

}  // namespace mcs::obs
