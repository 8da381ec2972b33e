#pragma once

// Flight recorder: a fixed-size ring of periodic telemetry samples driven
// by a sim-time kernel timer (DESIGN.md §14).
//
// Series are registered up front (a name plus a double() sampler — usually
// closures over sim::StatsRegistry metrics, queue-depth accessors, or pool /
// arena occupancy); start() then schedules a self-rescheduling tick chain
// on the kernel. Each tick samples every series into one preallocated ring
// row; when the ring is full the oldest row is overwritten, so a crash or
// SLO violation always has the last `capacity` periods of history behind
// it — the aviation-FDR shape, hence the name.
//
// Determinism contract: ticks fire at exact sim-time multiples of the
// period and samplers read simulation state only, so the exported timeline
// is byte-identical across reruns and across serial/parallel sweeps (cells
// record independently and merge() folds them in cell order). The tick
// chain is bounded by the horizon passed to start() — the kernel's run()
// drains the queue, so an open-ended timer would never let it finish.
//
// Cost contract: one kernel event per period (not per request) plus
// series_count() virtual calls per tick; rows are preallocated flat
// doubles, so steady-state ticking never allocates.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/time.h"

namespace mcs::sim {
class JsonWriter;
class Simulator;
class StatsRegistry;
}  // namespace mcs::sim

namespace mcs::obs {

class FlightRecorder {
 public:
  struct Config {
    // Sampling period in sim time; ticks land at t0 + k*period.
    sim::Time period = sim::Time::millis(250);
    // Rows retained; older samples are overwritten (classic FDR ring).
    std::size_t capacity = 512;
  };

  FlightRecorder();
  explicit FlightRecorder(Config cfg);
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;
  ~FlightRecorder();

  // --- Registration (before start) -----------------------------------------

  // Register one series; `sampler` runs every tick and must read simulation
  // state only (no wallclock, no Rng draws, no scheduling).
  void add_series(std::string name, std::function<double()> sampler);

  // Register every metric in `reg` as of this call: counters sample their
  // cumulative value, gauges their level plus a "<name>.hwm" high-water
  // series, log histograms "<name>.count" and "<name>.sum" — enough to
  // reconstruct rates and running means per tick. Metrics registered with
  // `reg` after this call are not picked up; attach the recorder once the
  // system under observation is built.
  void add_registry(const sim::StatsRegistry& reg);

  // --- Recording ------------------------------------------------------------

  // Schedule the tick chain: first sample at now()+period, last at or
  // before `until`. Requires at least one registered series.
  void start(sim::Simulator& sim, sim::Time until);
  // Cancel a pending tick, if any; recorded rows are kept.
  void stop();

  // --- Inspection -----------------------------------------------------------

  const Config& config() const { return cfg_; }
  std::size_t series_count() const { return series_.size(); }
  const std::string& series_name(std::size_t s) const {
    return series_[s].name;
  }
  // Total ticks fired (can exceed capacity once the ring wraps).
  std::uint64_t ticks() const { return ticks_; }
  // Rows currently retained: min(ticks, capacity).
  std::size_t rows() const;
  // Row 0 is the oldest retained sample.
  sim::Time row_time(std::size_t row) const;
  double sample(std::size_t row, std::size_t series) const;
  // True if any retained sample of `series` is nonzero.
  bool series_nonzero(std::size_t series) const;

  // --- Merge / export -------------------------------------------------------

  // Fold another recorder's rows in sample-by-sample (ParallelSweep cells:
  // each records its own cell, the merged timeline is the fleet view).
  // Requires identical period, series names, tick counts, and row times —
  // i.e. cells of the same scenario shape; asserts otherwise.
  void merge(const FlightRecorder& other);

  // Deterministic timeline: {"period_us","ticks","t_us":[...],
  // "series":{name:[...]}} with series in registration order re-sorted by
  // name at export, values in row order.
  void to_json(sim::JsonWriter& w) const;
  std::string to_json_string() const;

  // Append one Chrome trace-event counter ("C") object per series per row
  // to an already-open traceEvents array — Tracer::export_chrome_trace
  // calls this when a recorder is handed to it, so counter tracks render
  // above the span rows in ui.perfetto.dev.
  void append_chrome_counters(sim::JsonWriter& w) const;

 private:
  struct Series {
    std::string name;
    std::function<double()> sampler;
  };

  void tick();
  void schedule_next();
  std::size_t ring_index(std::size_t row) const;

  Config cfg_;
  std::vector<Series> series_;
  // Flat ring: row r, series s at data_[ring_slot(r) * series + s].
  std::vector<double> data_;
  std::vector<sim::Time> times_;
  std::uint64_t ticks_ = 0;
  sim::Simulator* sim_ = nullptr;
  sim::Time until_;
  std::uint64_t pending_event_ = 0;  // sim::EventId; 0 = none
};

}  // namespace mcs::obs
