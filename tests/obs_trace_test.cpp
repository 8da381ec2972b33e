// Tracing determinism and attribution (DESIGN.md §10). Three layers:
//
//   1. Tracer unit behaviour: span trees, overlap-clamped self time, the
//      head sampler, the span cap, exporter schema.
//   2. Ambient plumbing: Install / ActiveScope thread-local routing and the
//      no-tracer no-op contract.
//   3. End to end: a traced McSystem workload must export byte-identical
//      Perfetto JSON across reruns at the same seed — including when cells
//      run under ParallelSweep — and attribute nonzero self time to every
//      Figure 2 component. This is the contract that makes the committed
//      BENCH_fig2_breakdown.json reproducible.

#include "obs/trace.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "core/apps.h"
#include "core/system.h"
#include "sim/json.h"
#include "sim/simulator.h"
#include "sim/stats.h"
#include "workload/driver.h"
#include "workload/metrics.h"
#include "workload/session.h"
#include "workload/sweep.h"

namespace mcs::obs {
namespace {

using sim::Time;

// ---------------------------------------------------------------------------
// Tracer unit behaviour
// ---------------------------------------------------------------------------

TEST(TracerTest, SpanTreeSelfTimeAttribution) {
  Tracer t;
  // request[0,100us] > browse[10,60] > air.tx[20,40]
  const TraceContext root =
      t.start_trace(Component::kClient, "request", Time::micros(0));
  const TraceContext browse =
      t.begin_span(root, Component::kStation, "browse", Time::micros(10));
  const TraceContext air =
      t.begin_span(browse, Component::kWireless, "air.tx", Time::micros(20));
  t.end_span(air, Time::micros(40));
  t.end_span(browse, Time::micros(60));
  t.end_span(root, Time::micros(100));

  ASSERT_EQ(t.spans().size(), 3u);
  EXPECT_EQ(t.spans()[0].parent, 0u);
  EXPECT_EQ(t.spans()[1].parent, t.spans()[0].id);
  EXPECT_EQ(t.spans()[2].parent, t.spans()[1].id);
  EXPECT_EQ(t.open_spans(), 0u);

  const Tracer::Breakdown b = t.breakdown();
  EXPECT_EQ(b.traces, 1u);
  EXPECT_EQ(b.spans, 3u);
  EXPECT_DOUBLE_EQ(b.total_us, 100.0);
  // Root self time excludes the 50us covered by browse.
  EXPECT_DOUBLE_EQ(b.unattributed_us, 50.0);
  EXPECT_DOUBLE_EQ(b.bucket_us[1], 30.0);  // station: 50 - 20 in air.tx
  EXPECT_DOUBLE_EQ(b.bucket_us[3], 20.0);  // wireless
  EXPECT_DOUBLE_EQ(b.bucket_us[0] + b.bucket_us[2] + b.bucket_us[4] +
                       b.bucket_us[5],
                   0.0);
}

TEST(TracerTest, SelfTimeClampsChildOutlivingParent) {
  Tracer t;
  const TraceContext root =
      t.start_trace(Component::kClient, "request", Time::micros(0));
  const TraceContext wire =
      t.begin_span(root, Component::kWired, "link.tx", Time::micros(80));
  t.end_span(root, Time::micros(100));
  t.end_span(wire, Time::micros(150));  // outlives its parent

  const Tracer::Breakdown b = t.breakdown();
  // Only the overlapping [80,100] is subtracted from the root.
  EXPECT_DOUBLE_EQ(b.unattributed_us, 80.0);
  EXPECT_DOUBLE_EQ(b.bucket_us[4], 70.0);  // wired keeps its full self time
  EXPECT_DOUBLE_EQ(b.total_us, 100.0);     // children never add to totals
}

TEST(TracerTest, OpenSpansExcludedFromBreakdown) {
  Tracer t;
  const TraceContext root =
      t.start_trace(Component::kClient, "request", Time::micros(0));
  t.begin_span(root, Component::kHostDb, "db.get", Time::micros(10));
  t.end_span(root, Time::micros(50));

  EXPECT_EQ(t.open_spans(), 1u);
  const Tracer::Breakdown b = t.breakdown();
  EXPECT_DOUBLE_EQ(b.bucket_us[5], 0.0);  // open child attributes nothing
  EXPECT_DOUBLE_EQ(b.unattributed_us, 50.0);  // and covers nothing
}

TEST(TracerTest, HeadSamplerKeepsOneInN) {
  TracerConfig cfg;
  cfg.sample_every = 3;
  Tracer t{cfg};
  int sampled = 0;
  for (int i = 0; i < 9; ++i) {
    const TraceContext ctx =
        t.start_trace(Component::kClient, "request", Time::micros(i));
    if (ctx.sampled()) ++sampled;
  }
  EXPECT_EQ(sampled, 3);
  EXPECT_EQ(t.traces_started(), 9u);
  EXPECT_EQ(t.traces_sampled(), 3u);
  EXPECT_EQ(t.spans().size(), 3u);

  // Everything downstream of an unsampled head is free: no spans recorded.
  const TraceContext none{};
  const TraceContext child =
      t.begin_span(none, Component::kStation, "browse", Time::micros(1));
  EXPECT_FALSE(child.sampled());
  t.end_span(child, Time::micros(2));     // no-op, no crash
  t.add_instant(none, Component::kStation, "x", Time::micros(2));
  EXPECT_EQ(t.spans().size(), 3u);
  EXPECT_EQ(t.instants().size(), 0u);
}

TEST(TracerTest, SampleEveryZeroDisablesAllTraces) {
  TracerConfig cfg;
  cfg.sample_every = 0;
  Tracer t{cfg};
  for (int i = 0; i < 4; ++i) {
    EXPECT_FALSE(
        t.start_trace(Component::kClient, "request", Time::micros(i))
            .sampled());
  }
  EXPECT_EQ(t.traces_sampled(), 0u);
  EXPECT_EQ(t.spans().size(), 0u);
}

TEST(TracerTest, MaxSpansCapCountsDrops) {
  TracerConfig cfg;
  cfg.max_spans = 2;
  Tracer t{cfg};
  const TraceContext root =
      t.start_trace(Component::kClient, "request", Time::micros(0));
  const TraceContext a =
      t.begin_span(root, Component::kStation, "browse", Time::micros(1));
  const TraceContext b =
      t.begin_span(root, Component::kStation, "browse", Time::micros(2));
  EXPECT_TRUE(a.sampled());
  EXPECT_FALSE(b.sampled());
  EXPECT_EQ(t.dropped_spans(), 1u);
  EXPECT_EQ(t.spans().size(), 2u);
}

TEST(TracerTest, EndSpanIsIdempotent) {
  Tracer t;
  const TraceContext root =
      t.start_trace(Component::kClient, "request", Time::micros(0));
  t.end_span(root, Time::micros(10));
  t.end_span(root, Time::micros(99));  // double-end keeps the first end
  EXPECT_DOUBLE_EQ(t.breakdown().total_us, 10.0);
}

TEST(TracerTest, ChromeJsonByteIdenticalAtSameSeed) {
  auto build = [](std::uint64_t seed) {
    TracerConfig cfg;
    cfg.seed = seed;
    Tracer t{cfg};
    for (int i = 0; i < 3; ++i) {
      const TraceContext root = t.start_trace(Component::kClient, "request",
                                              Time::micros(10 * i));
      const TraceContext child = t.begin_span(
          root, Component::kMiddleware, "wap.request", Time::micros(10 * i + 1));
      t.add_instant(child, Component::kTransport, "tcp.rtx",
                    Time::micros(10 * i + 2));
      t.end_span(child, Time::micros(10 * i + 5));
      t.end_span(root, Time::micros(10 * i + 8));
    }
    return t.chrome_trace_json();
  };
  EXPECT_EQ(build(7), build(7));
  // A different seed mints different trace IDs, so the export diverges.
  EXPECT_NE(build(7), build(8));
}

TEST(TracerTest, ChromeJsonSchema) {
  Tracer t;
  const TraceContext root =
      t.start_trace(Component::kClient, "request", Time::micros(0));
  t.add_instant(root, Component::kMobileIp, "ha.tunnel", Time::micros(3));
  t.end_span(root, Time::micros(10));
  const std::string json = t.chrome_trace_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\": \"mobileip\""), std::string::npos);
  // The wallclock anchor is opt-in and must be absent by default.
  EXPECT_EQ(json.find("\"otherData\""), std::string::npos);
  EXPECT_EQ(json.find("exported_at_us"), std::string::npos);
}

TEST(TracerTest, ExportStatsSchemaAndCounts) {
  Tracer t;
  const TraceContext root =
      t.start_trace(Component::kClient, "request", Time::micros(0));
  const TraceContext db =
      t.begin_span(root, Component::kHostDb, "db.get", Time::micros(10));
  t.end_span(db, Time::micros(40));
  t.end_span(root, Time::micros(100));

  sim::StatsRegistry reg;
  t.export_stats(reg);
  EXPECT_EQ(reg.counter("traces_sampled").value(), 1u);
  EXPECT_EQ(reg.counter("spans").value(), 2u);
  EXPECT_EQ(reg.counter("open_spans").value(), 0u);
  EXPECT_EQ(reg.counter("spans_host").value(), 1u);
  EXPECT_EQ(reg.histogram("self_us_host").count(), 1u);
  EXPECT_DOUBLE_EQ(reg.histogram("self_us_host").sum(), 30.0);
  EXPECT_DOUBLE_EQ(reg.histogram("self_us_unattributed").sum(), 70.0);
  EXPECT_EQ(reg.histogram("root_latency_ms").count(), 1u);
  // 100us root lands in every cumulative bound >= 256us, plus +inf.
  EXPECT_EQ(reg.counter("root_us_le_00000064").value(), 0u);
  EXPECT_EQ(reg.counter("root_us_le_00000256").value(), 1u);
  EXPECT_EQ(reg.counter("root_us_le_inf").value(), 1u);
  // Every bucket key exists even when empty, so merged registries and JSON
  // documents keep a stable schema across runs.
  for (std::size_t i = 0; i < kBucketCount; ++i) {
    EXPECT_NE(reg.counters().find(std::string("spans_") + bucket_name(i)),
              reg.counters().end());
  }
}

TEST(TracerTest, ClearResetsEverything) {
  Tracer t;
  const TraceContext root =
      t.start_trace(Component::kClient, "request", Time::micros(0));
  t.end_span(root, Time::micros(10));
  t.clear();
  EXPECT_EQ(t.spans().size(), 0u);
  EXPECT_EQ(t.traces_started(), 0u);
  EXPECT_EQ(t.traces_sampled(), 0u);
  EXPECT_DOUBLE_EQ(t.breakdown().total_us, 0.0);
}

TEST(ComponentTest, BucketFoldMatchesFigure2) {
  EXPECT_STREQ(component_bucket(Component::kClient), "unattributed");
  EXPECT_STREQ(component_bucket(Component::kApplication), "application");
  EXPECT_STREQ(component_bucket(Component::kStation), "station");
  EXPECT_STREQ(component_bucket(Component::kMiddleware), "middleware");
  EXPECT_STREQ(component_bucket(Component::kWireless), "wireless");
  EXPECT_STREQ(component_bucket(Component::kMobileIp), "wireless");
  EXPECT_STREQ(component_bucket(Component::kTransport), "wired");
  EXPECT_STREQ(component_bucket(Component::kWired), "wired");
  EXPECT_STREQ(component_bucket(Component::kHostWeb), "host");
  EXPECT_STREQ(component_bucket(Component::kHostDb), "host");
}

// ---------------------------------------------------------------------------
// Ambient plumbing
// ---------------------------------------------------------------------------

TEST(AmbientTest, NoTracerMeansNoOps) {
  ASSERT_EQ(current_tracer(), nullptr);
  EXPECT_FALSE(start_trace(Component::kClient, "request", Time::micros(0))
                   .sampled());
  EXPECT_FALSE(
      begin_span(Component::kStation, "browse", Time::micros(0)).sampled());
  EXPECT_FALSE(active_context().sampled());
  end_span(TraceContext{1, 1}, Time::micros(1));  // no tracer: no-op
}

TEST(AmbientTest, InstallRoutesAndRestores) {
  Tracer t;
  {
    Install install{t};
    ASSERT_EQ(current_tracer(), &t);
    const TraceContext root =
        start_trace(Component::kClient, "request", Time::micros(0));
    ASSERT_TRUE(root.sampled());
    {
      ActiveScope scope{root};
      EXPECT_EQ(active_context().trace_id, root.trace_id);
      const TraceContext child =
          begin_span(Component::kStation, "browse", Time::micros(5));
      ASSERT_TRUE(child.sampled());
      EXPECT_EQ(t.spans()[1].parent, root.span_id);
      {
        ActiveScope inner{child};
        EXPECT_EQ(active_context().span_id, child.span_id);
      }
      EXPECT_EQ(active_context().span_id, root.span_id);  // restored
      end_span(child, Time::micros(7));
    }
    EXPECT_FALSE(active_context().sampled());
    end_span(root, Time::micros(9));
  }
  EXPECT_EQ(current_tracer(), nullptr);  // Install restored
  EXPECT_EQ(t.open_spans(), 0u);
}

// ---------------------------------------------------------------------------
// End to end: traced McSystem workloads
// ---------------------------------------------------------------------------

struct TracedRun {
  std::string chrome_json;
  Tracer::Breakdown breakdown;
  sim::StatsRegistry trace_stats;
  std::string snapshot_json;
};

TracedRun run_traced(std::uint64_t seed, station::BrowserMode middleware,
                     wireless::PhyProfile phy) {
  Tracer tracer{TracerConfig{seed, 1, 1u << 20}};
  Install install{tracer};

  sim::Simulator sim;
  core::McSystemConfig cfg;
  cfg.middleware = middleware;
  cfg.phy = phy;
  cfg.num_mobiles = 2;
  cfg.seed = seed;
  core::McSystem sys{sim, cfg};
  core::seed_demo_accounts(sys.bank(), 8, 1e12);
  auto apps = core::make_all_applications();
  core::install_all(apps, core::environment_for(sys));

  workload::DriverConfig dcfg;
  dcfg.duration = sim::Time::seconds(10.0);
  dcfg.warmup = sim::Time::seconds(1.0);
  dcfg.timeout = sim::Time::seconds(6.0);
  dcfg.seed = seed;
  workload::LoadDriver driver{sim, sys.client_drivers(), apps,
                              workload::consumer_mix(), sys.web_url(""),
                              dcfg};
  driver.run_closed_loop();

  TracedRun out;
  out.chrome_json = tracer.chrome_trace_json();
  out.breakdown = tracer.breakdown();
  tracer.export_stats(out.trace_stats);
  out.snapshot_json = workload::snapshot_system(sys).to_json_string();
  return out;
}

TEST(TracedSystemTest, AllSixComponentsAccrueSelfTime) {
  const TracedRun r =
      run_traced(11, station::BrowserMode::kWap, wireless::wifi_802_11b());
  EXPECT_GT(r.breakdown.traces, 0u);
  EXPECT_GT(r.breakdown.total_us, 0.0);
  for (std::size_t i = 0; i < kBucketCount; ++i) {
    EXPECT_GT(r.breakdown.bucket_us[i], 0.0) << bucket_name(i);
  }
}

// breakdown() and export_stats() read one self-time pass: every bucket's
// self-time histogram sums, exactly, to the breakdown's bucket total.
TEST(TracedSystemTest, ExportedSelfTimeSumsEqualBreakdownExactly) {
  for (const auto& [mode, phy] :
       {std::pair{station::BrowserMode::kWap, wireless::wifi_802_11b()},
        std::pair{station::BrowserMode::kImode, wireless::gprs()}}) {
    const TracedRun r = run_traced(11, mode, phy);
    const auto& hists = r.trace_stats.histograms();
    for (std::size_t i = 0; i < kBucketCount; ++i) {
      const std::string name = std::string{"self_us_"} + bucket_name(i);
      ASSERT_TRUE(hists.contains(name)) << name;
      EXPECT_EQ(hists.at(name).sum(), r.breakdown.bucket_us[i]) << name;
    }
    ASSERT_TRUE(hists.contains("self_us_unattributed"));
    EXPECT_EQ(hists.at("self_us_unattributed").sum(),
              r.breakdown.unattributed_us);
  }
}

TEST(TracedSystemTest, SnapshotGainsTraceAndKernelSectionsWhenInstalled) {
  const TracedRun r =
      run_traced(11, station::BrowserMode::kWap, wireless::wifi_802_11b());
  EXPECT_NE(r.snapshot_json.find("\"trace\""), std::string::npos);
  EXPECT_NE(r.snapshot_json.find("\"self_us_wireless\""), std::string::npos);
  EXPECT_NE(r.snapshot_json.find("\"kernel.events_executed\""),
            std::string::npos);
}

TEST(TracedSystemTest, PerfettoExportByteIdenticalAcrossReruns) {
  const TracedRun a =
      run_traced(42, station::BrowserMode::kWap, wireless::wifi_802_11b());
  const TracedRun b =
      run_traced(42, station::BrowserMode::kWap, wireless::wifi_802_11b());
  EXPECT_EQ(a.chrome_json, b.chrome_json);
  EXPECT_EQ(a.snapshot_json, b.snapshot_json);
  const TracedRun c =
      run_traced(43, station::BrowserMode::kWap, wireless::wifi_802_11b());
  EXPECT_NE(a.chrome_json, c.chrome_json);
}

TEST(TracedSystemTest, IModeGprsTracesDeterministically) {
  const TracedRun a =
      run_traced(5, station::BrowserMode::kImode, wireless::gprs());
  const TracedRun b =
      run_traced(5, station::BrowserMode::kImode, wireless::gprs());
  EXPECT_EQ(a.chrome_json, b.chrome_json);
  // i-mode still exercises the middleware bucket (its gateway translates).
  EXPECT_GT(a.breakdown.bucket_us[2], 0.0);
}

// The sweep contract extended to traces: each cell thread installs its own
// tracer, and an N-way run must export the same bytes per cell as a serial
// one (thread-local confinement, seeded IDs — nothing depends on threads).
TEST(TracedSystemTest, ParallelSweepCellsMatchSerialByteForByte) {
  struct Cell {
    station::BrowserMode middleware;
    wireless::PhyProfile phy;
  };
  const std::vector<Cell> cells = {
      {station::BrowserMode::kWap, wireless::wifi_802_11b()},
      {station::BrowserMode::kImode, wireless::gprs()},
  };
  auto run_cells = [&cells](int threads) {
    workload::SweepOptions opts;
    opts.threads = threads;
    workload::ParallelSweep sweep{opts};
    return sweep.map_cells<std::string>(cells.size(), [&](std::size_t i) {
      return run_traced(77, cells[i].middleware, cells[i].phy).chrome_json;
    });
  };
  const std::vector<std::string> serial = run_cells(1);
  const std::vector<std::string> parallel = run_cells(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], parallel[i]) << "cell " << i;
    EXPECT_FALSE(serial[i].empty());
  }
}

}  // namespace
}  // namespace mcs::obs
