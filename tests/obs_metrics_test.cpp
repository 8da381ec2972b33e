// Unit tests for the always-on telemetry layer (obs/metrics.h,
// obs/flight_recorder.h): the ambient registry plumbing, the flight-recorder
// ring (empty, wrapped, merged), and the parallel-sweep guarantee that
// serial and threaded cell merges serialize byte-identically. The registry
// itself (sim::StatsRegistry) is tested in sim_stats_test.cpp.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "sim/simulator.h"
#include "sim/stats.h"
#include "sim/time.h"
#include "workload/sweep.h"

namespace mcs {
namespace {

// --- Ambient plumbing -----------------------------------------------------

TEST(MetricsInstallTest, AmbientHelpersAreNullWithoutInstall) {
  EXPECT_EQ(obs::current_metrics(), nullptr);
  EXPECT_EQ(obs::metric_counter("nobody.home"), nullptr);
  obs::metric_add(nullptr, 7);  // must be a safe no-op
  obs::metric_set(nullptr, 1.0);
  obs::metric_record(nullptr, 1.0);

  // Installing a registry makes registration live and eager: the key
  // exists before anything is counted.
  sim::StatsRegistry reg;
  {
    obs::MetricsInstall install{reg};
    EXPECT_EQ(obs::current_metrics(), &reg);
    sim::Counter* c = obs::metric_counter("hits");
    ASSERT_NE(c, nullptr);
    EXPECT_TRUE(reg.counters().contains("hits"));
    obs::metric_add(c, 2);
  }
  EXPECT_EQ(obs::current_metrics(), nullptr);  // RAII restored
  EXPECT_EQ(reg.counter("hits").value(), 2u);
}

// --- FlightRecorder --------------------------------------------------------

obs::FlightRecorder::Config small_ring(std::size_t capacity) {
  obs::FlightRecorder::Config cfg;
  cfg.period = sim::Time::millis(10);
  cfg.capacity = capacity;
  return cfg;
}

TEST(FlightRecorderTest, EmptyRingExportsZeroTicksDeterministically) {
  obs::FlightRecorder rec{small_ring(4)};
  rec.add_series("idle", [] { return 0.0; });
  EXPECT_EQ(rec.ticks(), 0u);
  EXPECT_EQ(rec.rows(), 0u);
  const std::string a = rec.to_json_string();
  EXPECT_NE(a.find("\"ticks\": 0"), std::string::npos);
  EXPECT_EQ(a, rec.to_json_string());  // export itself mutates nothing
}

TEST(FlightRecorderTest, WrapAroundKeepsTheNewestCapacityRows) {
  sim::Simulator sim;
  std::uint64_t ticks_seen = 0;
  obs::FlightRecorder rec{small_ring(4)};
  rec.add_series("tick_no", [&] { return static_cast<double>(++ticks_seen); });
  rec.start(sim, sim::Time::millis(100));  // ticks at 10ms..100ms
  sim.run();

  EXPECT_EQ(rec.ticks(), 10u);
  ASSERT_EQ(rec.rows(), 4u);  // ring holds the last 4 samples
  for (std::size_t r = 0; r < 4; ++r) {
    // Oldest retained row is tick 7 (t=70ms); rows ascend from there.
    EXPECT_EQ(rec.row_time(r).to_micros(), (70 + 10 * r) * 1000);
    EXPECT_DOUBLE_EQ(rec.sample(r, 0), static_cast<double>(7 + r));
  }
  EXPECT_TRUE(rec.series_nonzero(0));
}

TEST(FlightRecorderTest, AddRegistryExpandsGaugeAndHistogramSeries) {
  sim::StatsRegistry reg;
  reg.counter("c");
  reg.gauge("g");
  reg.histogram("h");
  obs::FlightRecorder rec{small_ring(4)};
  rec.add_registry(reg);
  // counter -> value; gauge -> value + .hwm; histogram -> .count + .sum
  EXPECT_EQ(rec.series_count(), 5u);
}

TEST(FlightRecorderTest, MergeAddsSampleBySampleAcrossWrappedRings) {
  auto run_cell = [](double scale, sim::Simulator& sim,
                     obs::FlightRecorder& rec) {
    rec.add_series("load", [&sim, scale] {
      return scale * static_cast<double>(sim.now().to_micros() / 1000);
    });
    rec.start(sim, sim::Time::millis(100));
    sim.run();
  };
  sim::Simulator sim_a;
  sim::Simulator sim_b;
  obs::FlightRecorder a{small_ring(4)};
  obs::FlightRecorder b{small_ring(4)};
  run_cell(1.0, sim_a, a);
  run_cell(2.0, sim_b, b);

  a.merge(b);
  ASSERT_EQ(a.rows(), 4u);
  for (std::size_t r = 0; r < 4; ++r) {
    const double t_ms = 70.0 + 10.0 * static_cast<double>(r);
    EXPECT_DOUBLE_EQ(a.sample(r, 0), 3.0 * t_ms);  // 1x + 2x
  }
}

// --- Serial vs parallel cell merge -----------------------------------------

struct CellOut {
  std::unique_ptr<sim::StatsRegistry> reg;
  std::unique_ptr<obs::FlightRecorder> rec;
};

// One simulated cell: deterministic activity against the cell's own
// registry, sampled by the cell's own recorder — the shape ParallelSweep
// cells use. All values derive from the cell index and sim time only.
// Handles come straight off the registry, not the ambient helpers.
CellOut run_cell(std::size_t cell) {
  CellOut out;
  out.reg = std::make_unique<sim::StatsRegistry>();
  out.rec = std::make_unique<obs::FlightRecorder>(small_ring(8));

  sim::Simulator sim;
  sim::Counter* work = &out.reg->counter("cell.work");
  sim::Gauge* depth = &out.reg->gauge("cell.depth");
  sim::Histogram* lat = &out.reg->histogram("cell.latency_us");
  out.rec->add_registry(*out.reg);

  for (int k = 1; k <= 10; ++k) {
    sim.at(sim::Time::millis(9 * k), [=] {
      obs::metric_add(work, (cell + 1) * static_cast<std::uint64_t>(k));
      obs::metric_set(depth, static_cast<double>(k % 3 + cell));
      obs::metric_record(lat, static_cast<double>(100 * k));
    });
  }
  out.rec->start(sim, sim::Time::millis(100));
  sim.run();
  return out;
}

std::string merged_telemetry(int threads) {
  workload::SweepOptions opts;
  opts.threads = threads;
  opts.lookahead = 0;
  workload::ParallelSweep sweep{opts};
  std::vector<CellOut> cells =
      sweep.map_cells<CellOut>(4, [](std::size_t i) { return run_cell(i); });

  sim::StatsRegistry reg;
  std::unique_ptr<obs::FlightRecorder> rec = std::move(cells[0].rec);
  reg.merge(*cells[0].reg);
  for (std::size_t i = 1; i < cells.size(); ++i) {
    reg.merge(*cells[i].reg);
    rec->merge(*cells[i].rec);
  }
  return reg.to_json_string() + "\n" + rec->to_json_string();
}

TEST(TelemetrySweepTest, ParallelCellMergeIsByteIdenticalToSerial) {
  const std::string serial = merged_telemetry(1);
  const std::string parallel = merged_telemetry(4);
  EXPECT_EQ(serial, parallel);
  // And the merged export is itself stable across repeat merges.
  EXPECT_EQ(serial, merged_telemetry(1));
}

}  // namespace
}  // namespace mcs
