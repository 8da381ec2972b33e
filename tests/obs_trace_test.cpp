// Tracing determinism and attribution (DESIGN.md §10). Three layers:
//
//   1. Tracer unit behaviour: span trees, the innermost-span latency split,
//      the head sampler, the span cap, exporter schema.
//   2. Ambient plumbing: Install / ActiveScope thread-local routing and the
//      no-tracer no-op contract.
//   3. End to end: a traced McSystem workload must export byte-identical
//      Perfetto JSON across reruns at the same seed — including when cells
//      run under ParallelSweep — and attribute nonzero latency to every
//      Figure 2 component. This is the contract that makes the committed
//      BENCH_fig2_breakdown.json reproducible.

#include "obs/trace.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/apps.h"
#include "core/system.h"
#include "obs/flight_recorder.h"
#include "obs/kernel_profiler.h"
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

// sum(bucket_us) + unattributed_us must equal total_us: the split's identity.
void expect_split_adds_up(const Tracer::Breakdown& b) {
  double sum = b.unattributed_us;
  for (const double us : b.bucket_us) sum += us;
  EXPECT_NEAR(sum, b.total_us, 1e-9 * b.total_us);
}

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
  // Each instant goes to the innermost span: the root owns [0,10] and
  // [60,100], browse [10,20] and [40,60], air.tx [20,40].
  EXPECT_DOUBLE_EQ(b.unattributed_us, 50.0);
  EXPECT_DOUBLE_EQ(b.bucket_us[1], 30.0);  // station
  EXPECT_DOUBLE_EQ(b.bucket_us[3], 20.0);  // wireless
  EXPECT_DOUBLE_EQ(b.bucket_us[0] + b.bucket_us[2] + b.bucket_us[4] +
                       b.bucket_us[5],
                   0.0);
  expect_split_adds_up(b);
}

TEST(TracerTest, DeeperSpanOwnsTimeOverShallowerSibling) {
  Tracer t;
  // request[0,100] > page[10,90] > air.tx[20,30], and request > wire[40,50]
  // (the page's sibling, started later).
  const TraceContext root =
      t.start_trace(Component::kClient, "request", Time::micros(0));
  const TraceContext page =
      t.begin_span(root, Component::kStation, "page", Time::micros(10));
  const TraceContext air =
      t.begin_span(page, Component::kWireless, "air.tx", Time::micros(20));
  t.end_span(air, Time::micros(30));
  const TraceContext wire =
      t.begin_span(root, Component::kWired, "link.tx", Time::micros(40));
  t.end_span(wire, Time::micros(50));
  t.end_span(page, Time::micros(90));
  t.end_span(root, Time::micros(100));

  const Tracer::Breakdown b = t.breakdown();
  EXPECT_DOUBLE_EQ(b.bucket_us[3], 10.0);  // depth 2 beats everything
  EXPECT_DOUBLE_EQ(b.bucket_us[4], 10.0);  // tie at depth 1: later start
  EXPECT_DOUBLE_EQ(b.bucket_us[1], 60.0);  // [10,20] [30,40] [50,90]
  EXPECT_DOUBLE_EQ(b.unattributed_us, 20.0);
  expect_split_adds_up(b);
}

TEST(TracerTest, OverlappingSiblingsCountEachInstantOnce) {
  Tracer t;
  // Two concurrent link.tx spans under one root: [10,60] and [30,80].
  const TraceContext root =
      t.start_trace(Component::kClient, "request", Time::micros(0));
  const TraceContext a =
      t.begin_span(root, Component::kWired, "link.tx", Time::micros(10));
  const TraceContext b =
      t.begin_span(root, Component::kHostWeb, "http.request",
                   Time::micros(30));
  t.end_span(a, Time::micros(60));
  t.end_span(b, Time::micros(80));
  // Same depth and start: the span opened first (lower id) wins.
  const TraceContext c =
      t.begin_span(root, Component::kWired, "link.tx", Time::micros(85));
  const TraceContext d =
      t.begin_span(root, Component::kHostDb, "db.get", Time::micros(85));
  t.end_span(c, Time::micros(95));
  t.end_span(d, Time::micros(95));
  t.end_span(root, Time::micros(100));

  const Tracer::Breakdown br = t.breakdown();
  EXPECT_DOUBLE_EQ(br.bucket_us[4], 30.0);  // a until b starts + c
  EXPECT_DOUBLE_EQ(br.bucket_us[5], 50.0);  // b [30,80]; d loses to c
  EXPECT_DOUBLE_EQ(br.unattributed_us, 20.0);
  EXPECT_DOUBLE_EQ(br.total_us, 100.0);
  expect_split_adds_up(br);
}

TEST(TracerTest, SelfTimeClampsChildOutlivingParent) {
  Tracer t;
  // A span clipped at both ends: a wire span whose recorded interval
  // [80,150] outlives its parent, the root [0,100].
  const TraceContext root =
      t.start_trace(Component::kClient, "request", Time::micros(0));
  const TraceContext wire =
      t.begin_span(root, Component::kWired, "link.tx", Time::micros(80));
  t.end_span(wire, Time::micros(150));
  t.end_span(root, Time::micros(100));

  const Tracer::Breakdown b = t.breakdown();
  EXPECT_DOUBLE_EQ(b.bucket_us[4], 20.0);  // only [80,100] is the root's
  EXPECT_DOUBLE_EQ(b.unattributed_us, 80.0);
  EXPECT_DOUBLE_EQ(b.total_us, 100.0);     // children never add to totals
  expect_split_adds_up(b);
}

TEST(TracerTest, OpenSpansExcludedFromBreakdown) {
  Tracer t;
  const TraceContext root =
      t.start_trace(Component::kClient, "request", Time::micros(0));
  t.begin_span(root, Component::kHostDb, "db.get", Time::micros(10));
  const TraceContext wire =
      t.begin_span(root, Component::kWired, "link.tx", Time::micros(20));
  t.end_span(root, Time::micros(50));
  t.end_span(wire, Time::micros(60));  // closes after its root: too late

  EXPECT_EQ(t.open_spans(), 1u);
  const Tracer::Breakdown b = t.breakdown();
  EXPECT_DOUBLE_EQ(b.bucket_us[5], 0.0);  // open child attributes nothing
  EXPECT_DOUBLE_EQ(b.bucket_us[4], 0.0);  // nor does a child open at close
  EXPECT_DOUBLE_EQ(b.unattributed_us, 50.0);  // and they cover nothing
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
  EXPECT_DOUBLE_EQ(reg.gauge("breakdown_us_host").value(), 30.0);
  EXPECT_DOUBLE_EQ(reg.gauge("breakdown_us_unattributed").value(), 70.0);
  EXPECT_DOUBLE_EQ(reg.gauge("breakdown_us_total").value(), 100.0);
  // The root's 100us end to end is the whole root-latency distribution.
  const sim::Histogram& root_ms = reg.histogram("root_latency_ms");
  EXPECT_EQ(root_ms.count(), 1u);
  EXPECT_DOUBLE_EQ(root_ms.sum(), 0.1);
  EXPECT_DOUBLE_EQ(root_ms.percentile(50), 0.1);  // clamped to min = max
  EXPECT_DOUBLE_EQ(root_ms.percentile(99), 0.1);
  // Every bucket key exists even when empty, so merged registries and JSON
  // documents keep a stable schema across runs.
  for (std::size_t i = 0; i < kBucketCount; ++i) {
    EXPECT_NE(reg.counters().find(std::string("spans_") + bucket_name(i)),
              reg.counters().end());
    EXPECT_NE(reg.gauges().find(std::string("breakdown_us_") + bucket_name(i)),
              reg.gauges().end());
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

// export_stats() emits breakdown()'s totals, and they add up: the six
// components plus unattributed equal the summed request latency.
TEST(TracedSystemTest, ExportedSelfTimeSumsEqualBreakdownExactly) {
  for (const auto& [mode, phy] :
       {std::pair{station::BrowserMode::kWap, wireless::wifi_802_11b()},
        std::pair{station::BrowserMode::kImode, wireless::gprs()}}) {
    const TracedRun r = run_traced(11, mode, phy);
    const auto& gauges = r.trace_stats.gauges();
    for (std::size_t i = 0; i < kBucketCount; ++i) {
      const std::string name = std::string{"breakdown_us_"} + bucket_name(i);
      ASSERT_TRUE(gauges.contains(name)) << name;
      EXPECT_EQ(gauges.at(name).value(), r.breakdown.bucket_us[i]) << name;
    }
    ASSERT_TRUE(gauges.contains("breakdown_us_unattributed"));
    EXPECT_EQ(gauges.at("breakdown_us_unattributed").value(),
              r.breakdown.unattributed_us);
    EXPECT_EQ(gauges.at("breakdown_us_total").value(), r.breakdown.total_us);
    EXPECT_NEAR(r.trace_stats.histograms().at("root_latency_ms").sum() * 1e3,
                r.breakdown.total_us, 1e-9 * r.breakdown.total_us);
    expect_split_adds_up(r.breakdown);
  }
}

// Under LoadDriver each request is one trace: a page the application chains
// from a page callback joins the request's trace instead of starting its own.
TEST(TracedSystemTest, EachRequestIsOneTraceWithOneRoot) {
  Tracer tracer{TracerConfig{3, 1, 1u << 20}};
  Install install{tracer};
  sim::Simulator sim;
  core::McSystemConfig cfg;
  cfg.num_mobiles = 2;
  cfg.seed = 3;
  core::McSystem sys{sim, cfg};
  core::seed_demo_accounts(sys.bank(), 8, 1e12);
  auto apps = core::make_all_applications();
  core::install_all(apps, core::environment_for(sys));
  workload::DriverConfig dcfg;
  dcfg.duration = sim::Time::seconds(10.0);
  dcfg.warmup = sim::Time::zero();
  dcfg.timeout = sim::Time::seconds(6.0);
  dcfg.seed = 3;
  // The commerce mix chains a catalog page and a purchase page.
  workload::LoadDriver driver{sim, sys.client_drivers(), apps,
                              workload::commerce_mix(), sys.web_url(""),
                              dcfg};
  const workload::DriverReport report = driver.run_closed_loop();

  ASSERT_GT(report.attempted, 0u);
  EXPECT_EQ(tracer.traces_sampled(), report.attempted);
  std::map<std::uint64_t, int> roots;
  for (const Span& s : tracer.spans()) {
    roots[s.trace_id] += s.parent == 0 ? 1 : 0;
    if (s.parent == 0) {
      EXPECT_STREQ(s.name, "request");
    }
  }
  EXPECT_EQ(roots.size(), report.attempted);
  for (const auto& [trace, n] : roots) EXPECT_EQ(n, 1) << trace;
}

// The kernel profiler's profile.self.* series read breakdown(): once every
// request has closed, the last sample equals it.
TEST(TracedSystemTest, KernelProfilerSeriesEqualBreakdown) {
  Tracer tracer;
  Install install{tracer};
  sim::Simulator sim;
  FlightRecorder rec{FlightRecorder::Config{Time::micros(10), 64}};
  attach_kernel_profiler(rec, sim, &tracer);
  for (int i = 0; i < 3; ++i) {
    sim.at(Time::micros(30 * i), [&sim, i] {
      const TraceContext root =
          start_trace(Component::kClient, "request", sim.now());
      const TraceContext db =
          begin_child(root, Component::kHostDb, "db.get", sim.now());
      sim.after(Time::micros(5 + i), [&sim, db] { end_span(db, sim.now()); });
      sim.after(Time::micros(20), [&sim, root] { end_span(root, sim.now()); });
    });
  }
  rec.start(sim, Time::micros(200));
  sim.run();

  const Tracer::Breakdown b = tracer.breakdown();
  EXPECT_DOUBLE_EQ(b.total_us, 60.0);
  EXPECT_DOUBLE_EQ(b.bucket_us[5], 18.0);
  std::map<std::string, double> last;
  for (std::size_t s = 0; s < rec.series_count(); ++s) {
    last[rec.series_name(s)] = rec.sample(rec.rows() - 1, s);
  }
  for (std::size_t i = 0; i < kBucketCount; ++i) {
    EXPECT_EQ(last.at(std::string{"profile.self."} + bucket_name(i) + "_us"),
              b.bucket_us[i])
        << bucket_name(i);
  }
  EXPECT_EQ(last.at("profile.self.unattributed_us"), b.unattributed_us);
}

TEST(TracedSystemTest, SnapshotGainsTraceAndKernelSectionsWhenInstalled) {
  const TracedRun r =
      run_traced(11, station::BrowserMode::kWap, wireless::wifi_802_11b());
  EXPECT_NE(r.snapshot_json.find("\"trace\""), std::string::npos);
  EXPECT_NE(r.snapshot_json.find("\"breakdown_us_wireless\""),
            std::string::npos);
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
