// Telemetry bench: the cost and the liveness of the always-on observability
// stack (DESIGN.md §14) on the Figure 2 commerce mix.
//
// Part 1 (deterministic): one fully-telemetered closed-loop run — metrics
// registry + flight recorder + kernel profiler + tracer — executed twice;
// the summary JSON must come out byte-identical, proving the telemetry
// layer reads simulation state only. The summary (SLO outcomes, per-
// component counter totals, timeline liveness) goes to
// $MCS_BENCH_TELEMETRY_OUT or ./BENCH_telemetry.json (committed; gated by
// tools/check_telemetry_bench.py). Side outputs for humans: the full
// flight-recorder timeline to $MCS_TELEMETRY_TIMELINE_OUT and the Perfetto
// trace with counter tracks merged in to $MCS_TELEMETRY_TRACE_OUT.
//
// Part 2 (measured): alternating reps of the identical cell with and
// without a metrics registry installed — an absent registry leaves every
// cached handle nullptr — timed with obs::OverheadStopwatch. Min-of-reps
// wall ns/txn per arm and the resulting overhead fraction go to
// $MCS_BENCH_TELEMETRY_OVERHEAD_OUT (never committed: wallclock numbers are
// machine-specific); CI gates the fraction at a few percent.

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "bench_util.h"
#include "net/packet.h"
#include "obs/flight_recorder.h"
#include "obs/kernel_profiler.h"
#include "obs/metrics.h"
#include "obs/telemetry_clock.h"
#include "obs/trace.h"
#include "sim/stats.h"
#include "workload/driver.h"
#include "workload/session.h"
#include "workload/telemetry.h"

namespace {

using namespace mcs;

constexpr std::uint64_t kSeed = 2003;  // ICDCSW'03

bool smoke_mode() { return std::getenv("MCS_BENCH_SMOKE") != nullptr; }

workload::DriverConfig driver_config() {
  workload::DriverConfig dcfg;
  dcfg.duration = sim::Time::seconds(smoke_mode() ? 10.0 : 30.0);
  dcfg.warmup = sim::Time::seconds(2.0);
  dcfg.timeout = sim::Time::seconds(8.0);
  dcfg.seed = kSeed;
  return dcfg;
}

// The capacity bench's commerce shape: open-loop Poisson purchases against
// the six-component system, offered well inside the ~96 txn/s wifi/WAP
// capacity (BENCH_capacity.json) so the run is busy — every component
// live, enough kernel events that the overhead arms measure work, not
// scheduler noise — but nowhere near collapse.
constexpr double kOfferedTps = 20.0;
constexpr int kMobiles = 8;

// One closed-loop commerce cell. Telemetry handles are registered inside
// McSystem constructors, so whatever registry/tracer should observe the run
// must be installed by the caller *before* this is entered. When `rec` is
// given it records the run (registry series + system occupancy + kernel
// profile); `wall_ns` gets the host time of the simulated run only
// (construction excluded).
workload::DriverReport run_commerce_cell(obs::FlightRecorder* rec,
                                         const obs::Tracer* tracer,
                                         std::int64_t* wall_ns) {
  // The packet pool is per-thread *process* state; starting each cell cold
  // keeps pool occupancy series identical across in-process reruns.
  net::reset_packet_pool();
  sim::Simulator sim;
  core::McSystemConfig cfg;
  cfg.num_mobiles = kMobiles;
  cfg.seed = kSeed;
  core::McSystem sys{sim, cfg};
  core::seed_demo_accounts(sys.bank(), 8, 1e12);
  auto apps = core::make_all_applications();
  core::install_all(apps, core::environment_for(sys));

  const workload::DriverConfig dcfg = driver_config();
  workload::LoadDriver driver{sim, sys.client_drivers(), apps,
                              workload::commerce_mix(), sys.web_url(""),
                              dcfg};
  if (rec != nullptr) {
    if (const sim::StatsRegistry* reg = obs::current_metrics()) {
      rec->add_registry(*reg);
    }
    workload::attach_system_series(*rec, sys);
    obs::attach_kernel_profiler(*rec, sim, tracer);
    rec->start(sim, dcfg.duration);
  }

  workload::ArrivalConfig arrivals;
  arrivals.kind = workload::ArrivalKind::kPoisson;
  arrivals.rate_tps = kOfferedTps;

  obs::OverheadStopwatch watch;
  watch.start();
  workload::DriverReport report = driver.run_open_loop(arrivals);
  if (wall_ns != nullptr) *wall_ns = watch.elapsed_ns();
  if (rec != nullptr) rec->stop();
  return report;
}

// Sum of every counter value whose name starts with `prefix`: the telemetry
// gate's "component is alive" query.
std::uint64_t prefix_sum(const sim::StatsRegistry& m,
                         const std::string& prefix) {
  std::uint64_t total = 0;
  for (auto it = m.counters().lower_bound(prefix); it != m.counters().end();
       ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) break;
    total += it->second.value();
  }
  return total;
}

// The committed, deterministic summary: SLO outcomes, per-component counter
// totals (the six Figure 2 components must all be alive), and timeline
// liveness per series. Everything derives from simulation state; keys are
// sorted (std::map) — byte-identical across reruns by construction, and
// the bench verifies that by running the cell twice.
std::string summary_json(const workload::DriverReport& r,
                         const sim::StatsRegistry& m,
                         const obs::FlightRecorder& rec) {
  sim::JsonWriter w{/*pretty=*/true};
  w.begin_object();
  w.key("bench").value("telemetry");
  w.key("seed").value(static_cast<std::int64_t>(kSeed));
  w.key("mode").value(smoke_mode() ? "smoke" : "full");

  w.key("slo").begin_object();
  w.key("attempted").value(static_cast<std::int64_t>(r.attempted));
  w.key("ok").value(static_cast<std::int64_t>(r.ok));
  w.key("error").value(static_cast<std::int64_t>(r.error));
  w.key("timeout").value(static_cast<std::int64_t>(r.timeout));
  w.key("ok_fraction").value(r.ok_fraction());
  w.key("goodput_tps").value(r.goodput_tps);
  w.end_object();

  // Counter mass per metric namespace; the gate requires the six Figure 2
  // component namespaces to be nonzero.
  static constexpr const char* kPrefixes[] = {
      "application.", "host.",      "middleware.",
      "mobileip.",    "station.",   "transport.",
      "wired.",       "wireless.",  "workload.",
  };
  w.key("component_totals").begin_object();
  for (const char* p : kPrefixes) {
    std::string name{p};
    name.pop_back();  // "application." -> "application"
    w.key(name).value(static_cast<std::int64_t>(prefix_sum(m, p)));
  }
  w.end_object();

  w.key("timeline").begin_object();
  w.key("period_us").value(
      static_cast<std::int64_t>(rec.config().period.to_micros()));
  w.key("ticks").value(static_cast<std::int64_t>(rec.ticks()));
  std::map<std::string, std::size_t> by_name;
  for (std::size_t s = 0; s < rec.series_count(); ++s) {
    by_name.emplace(rec.series_name(s), s);
  }
  w.key("series").begin_object();
  for (const auto& [name, s] : by_name) {
    double last = 0.0, peak = 0.0;
    for (std::size_t row = 0; row < rec.rows(); ++row) {
      const double v = rec.sample(row, s);
      last = v;
      if (v > peak) peak = v;
    }
    w.key(name).begin_object();
    w.key("nonzero").value(rec.series_nonzero(s));
    w.key("max").value(peak);
    w.key("last").value(last);
    w.end_object();
  }
  w.end_object();
  w.end_object();

  w.key("metrics");
  m.to_json(w);
  w.end_object();
  return w.take();
}

struct DeterministicOutputs {
  std::string committed;  // summary (BENCH_telemetry.json)
  std::string timeline;   // full flight-recorder ring
  std::string chrome;     // Perfetto spans + counter tracks
  workload::DriverReport report;
};

DeterministicOutputs run_deterministic() {
  obs::TracerConfig tcfg;
  tcfg.seed = kSeed;
  tcfg.sample_every = 1;
  obs::Tracer tracer{tcfg};
  obs::Install install{tracer};
  sim::StatsRegistry metrics;
  obs::MetricsInstall minstall{metrics};
  obs::FlightRecorder rec;

  DeterministicOutputs out;
  out.report = run_commerce_cell(&rec, &tracer, nullptr);
  out.committed = summary_json(out.report, metrics, rec);
  out.timeline = rec.to_json_string();
  out.chrome = tracer.chrome_trace_json(/*pretty=*/false, &rec);
  return out;
}

void write_file(const std::string& body, const char* path) {
  if (std::FILE* f = std::fopen(path, "w")) {
    std::fputs(body.c_str(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("wrote %s\n", path);
  } else {
    std::fprintf(stderr, "cannot write %s\n", path);
  }
}

// Alternating-arm overhead measurement. Both arms run the exact same cell
// (same seed, no tracer); the "on" arm installs a registry + flight
// recorder, the "off" arm installs nothing, which leaves every component's
// cached metric handle nullptr. Alternation decorrelates machine drift;
// min-of-reps is the standard robust wall-time estimator.
int run_overhead_gate() {
  const int reps = smoke_mode() ? 3 : 7;
  std::int64_t min_off = 0, min_on = 0;
  std::uint64_t txns = 0;

  // One untimed warmup cell: page-cache, allocator and branch-predictor
  // warmup would otherwise land entirely on whichever arm runs first.
  run_commerce_cell(nullptr, nullptr, nullptr);

  for (int rep = 0; rep < reps; ++rep) {
    for (const bool telemetry_on : {false, true}) {
      std::int64_t ns = 0;
      workload::DriverReport report;
      if (telemetry_on) {
        sim::StatsRegistry metrics;
        obs::MetricsInstall minstall{metrics};
        obs::FlightRecorder rec;
        report = run_commerce_cell(&rec, nullptr, &ns);
      } else {
        report = run_commerce_cell(nullptr, nullptr, &ns);
      }
      txns = report.attempted;
      std::int64_t& slot = telemetry_on ? min_on : min_off;
      if (slot == 0 || ns < slot) slot = ns;
    }
  }

  const double per_txn_off =
      static_cast<double>(min_off) / static_cast<double>(txns);
  const double per_txn_on =
      static_cast<double>(min_on) / static_cast<double>(txns);
  const double overhead =
      per_txn_off > 0.0 ? per_txn_on / per_txn_off - 1.0 : 0.0;

  bench::TablePrinter table{
      "Telemetry -- overhead of the always-on metrics + flight recorder",
      {"arm", "reps", "txns", "min wall ns/txn"}};
  table.add_row({"no registry", std::to_string(reps),
                 std::to_string(txns), bench::fmt("%.0f", per_txn_off)});
  table.add_row({"full telemetry", std::to_string(reps),
                 std::to_string(txns), bench::fmt("%.0f", per_txn_on)});
  table.print();
  std::printf("telemetry overhead: %.2f%%\n", overhead * 100.0);

  if (const char* out = std::getenv("MCS_BENCH_TELEMETRY_OVERHEAD_OUT")) {
    sim::JsonWriter w{/*pretty=*/true};
    w.begin_object();
    w.key("bench").value("telemetry_overhead");
    w.key("mode").value(smoke_mode() ? "smoke" : "full");
    w.key("reps").value(reps);
    w.key("txns").value(static_cast<std::int64_t>(txns));
    w.key("ns_per_txn_off").value(per_txn_off);
    w.key("ns_per_txn_on").value(per_txn_on);
    w.key("overhead_frac").value(overhead);
    w.end_object();
    write_file(w.take(), out);
  }
  return 0;
}

}  // namespace

int main() {
  // Determinism proof: the telemetered run, twice; any byte of divergence
  // means a sampler read something outside simulation state.
  DeterministicOutputs first = run_deterministic();
  {
    const DeterministicOutputs second = run_deterministic();
    if (first.committed != second.committed ||
        first.timeline != second.timeline) {
      std::fprintf(stderr,
                   "telemetry bench: reruns diverged — summary or timeline "
                   "is not deterministic\n");
      return 1;
    }
  }
  std::printf("telemetry: rerun byte-identical (%zu timeline bytes, "
              "%llu txns ok)\n",
              first.timeline.size(),
              static_cast<unsigned long long>(first.report.ok));

  const char* out = std::getenv("MCS_BENCH_TELEMETRY_OUT");
  write_file(first.committed, out != nullptr ? out : "BENCH_telemetry.json");
  if (const char* tl = std::getenv("MCS_TELEMETRY_TIMELINE_OUT")) {
    write_file(first.timeline, tl);
  }
  if (const char* tr = std::getenv("MCS_TELEMETRY_TRACE_OUT")) {
    write_file(first.chrome, tr);
  }

  const int rc = run_overhead_gate();
  std::printf(
      "Reading: every Figure 2 component exports live counters; the flight "
      "recorder snapshots them on a sim-time timer, so the timeline is as "
      "deterministic as the simulation. The overhead arms bound what "
      "always-on telemetry costs against the nullptr-handle fast path.\n");
  return rc;
}
