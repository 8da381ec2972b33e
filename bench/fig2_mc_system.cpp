// Figure 2: the six-component mobile commerce system structure. This bench
// measures an end-to-end MC transaction and attributes latency to the
// paper's components -- mobile station (parse/render CPU), mobile middleware
// (gateway translation), wireless network (air serialization), wired network
// + host computers (the EC part) -- and compares against the Figure 1
// baseline on identical content.

// Besides the analytic table, main() runs a *measured* Figure 2: a traced
// closed-loop workload (obs/trace.h) where every component opens spans, and
// the per-bucket self-time breakdown is what the spans actually recorded --
// no modelled formulas. Output: $MCS_BENCH_FIG2_OUT or
// ./BENCH_fig2_breakdown.json (committed; byte-identical across reruns at
// the same seed), plus an optional Perfetto trace of the first scenario to
// $MCS_TRACE_OUT for chrome://tracing.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "obs/trace.h"
#include "workload/driver.h"
#include "workload/session.h"

namespace {

using namespace mcs;

bench::TablePrinter g_breakdown{
    "Figure 2 -- MC system: per-component latency breakdown (one page load)",
    {"system", "radio", "total ms", "station ms", "middleware ms", "air ms",
     "wired+host ms", "air bytes"}};

bench::TablePrinter g_scale{
    "Figure 2 -- MC system: throughput vs number of mobile stations",
    {"mobiles", "radio", "txn/s", "p50 ms", "p95 ms", "ok%"}};

const char* kPage =
    "<html><head><title>Catalog</title></head><body>"
    "<h1>Featured products</h1>"
    "<p>Every one of these offers was generated server-side by the "
    "application programs and stored in the host database.</p>"
    "<ul><li>Phone - $199</li><li>Headset - $49</li><li>Charger - $15</li>"
    "<li>Case - $12</li><li>Stand - $22</li></ul>"
    "<a href=\"/shop/catalog\">See all</a>"
    "</body></html>";

void BM_McBreakdown(benchmark::State& state) {
  const bool imode = state.range(0) == 1;
  const bool cellular = state.range(1) == 1;
  for (auto _ : state) {
    sim::Simulator sim;
    core::McSystemConfig cfg;
    cfg.middleware =
        imode ? station::BrowserMode::kImode : station::BrowserMode::kWap;
    cfg.phy = cellular ? wireless::gprs() : wireless::wifi_802_11b();
    core::McSystem sys{sim, cfg};
    sys.web_server().add_content("/page", "text/html", kPage);

    std::optional<station::MicroBrowser::PageResult> got;
    sys.mobile(0).browser->browse(sys.web_url("/page"),
                                  [&](auto r) { got = r; });
    sim.run();
    if (!got.has_value() || !got->ok) continue;

    const double total = got->total_time.to_millis();
    const double station_ms =
        (got->parse_time + got->render_time).to_millis();
    const double middleware_ms =
        imode ? middleware::kIModeTranslationDelay.to_millis()
              : middleware::kWapTranslationDelay.to_millis();
    // Air time: what the radio spent serializing this page's frames.
    const double air_ms =
        8.0 * static_cast<double>(got->over_air_bytes) /
        cfg.phy.effective_rate_bps() * 1e3;
    const double wired_host_ms =
        std::max(0.0, total - station_ms - middleware_ms - air_ms);

    state.counters["total_ms"] = total;
    g_breakdown.add_row({imode ? "MC/i-mode" : "MC/WAP",
                         cfg.phy.name,
                         bench::fmt("%.1f", total),
                         bench::fmt("%.2f", station_ms),
                         bench::fmt("%.1f", middleware_ms),
                         bench::fmt("%.1f", air_ms),
                         bench::fmt("%.1f", wired_host_ms),
                         std::to_string(got->over_air_bytes)});
  }
}
BENCHMARK(BM_McBreakdown)
    ->ArgsProduct({{0, 1}, {0, 1}})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

void BM_EcBaselinePage(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    core::EcSystem sys{sim};
    sys.web_server().add_content("/page", "text/html", kPage);
    std::optional<core::FetchResult> got;
    sys.client(0).driver->fetch(sys.web_url("/page"),
                                [&](core::FetchResult r) { got = r; });
    sim.run();
    if (!got.has_value() || !got->ok) continue;
    state.counters["total_ms"] = got->latency.to_millis();
    g_breakdown.add_row({"EC baseline", "(wired)",
                         bench::fmt("%.1f", got->latency.to_millis()), "-",
                         "-", "-",
                         bench::fmt("%.1f", got->latency.to_millis()), "0"});
  }
}
BENCHMARK(BM_EcBaselinePage)->Iterations(1)->Unit(benchmark::kMillisecond);

void BM_McScaling(benchmark::State& state) {
  const int mobiles = static_cast<int>(state.range(0));
  const bool cellular = state.range(1) == 1;
  for (auto _ : state) {
    sim::Simulator sim;
    core::McSystemConfig cfg;
    cfg.num_mobiles = mobiles;
    cfg.phy = cellular ? wireless::gprs() : wireless::wifi_802_11b();
    core::McSystem sys{sim, cfg};
    core::seed_demo_accounts(sys.bank(), 8, 1e9);
    auto apps = core::make_all_applications();
    core::AppEnvironment env;
    env.sim = &sim;
    env.web = &sys.web_server();
    env.programs = &sys.app_server();
    env.db = &sys.database();
    env.personalization = &sys.personalization();
    env.payments = &sys.payments();
    core::install_all(apps, env);

    std::vector<core::ClientDriver*> drivers;
    for (int i = 0; i < mobiles; ++i) {
      drivers.push_back(sys.mobile(static_cast<std::size_t>(i)).driver.get());
    }
    const auto result = bench::run_workload(
        sim, *apps[0], drivers, sys.web_url(""), 10,
        static_cast<std::uint64_t>(100 + mobiles * 2 + (cellular ? 1 : 0)));

    state.counters["txn_per_s"] = result.txn_per_second();
    g_scale.add_row({std::to_string(mobiles), cfg.phy.name,
                     bench::fmt("%.2f", result.txn_per_second()),
                     bench::fmt("%.1f", result.latency_ms.percentile(50)),
                     bench::fmt("%.1f", result.latency_ms.percentile(95)),
                     bench::fmt("%.1f", 100.0 * result.success_rate())});
  }
}
BENCHMARK(BM_McScaling)
    ->ArgsProduct({{1, 4, 8}, {0, 1}})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

// --- Measured breakdown: trace-driven Figure 2 ----------------------------

bool smoke_mode() { return std::getenv("MCS_BENCH_SMOKE") != nullptr; }

struct TraceScenario {
  const char* system;  // "MC/WAP" | "MC/i-mode"
  station::BrowserMode middleware;
  wireless::PhyProfile phy;
};

struct TracedCell {
  TraceScenario scenario;
  obs::Tracer::Breakdown breakdown;
  std::string chrome_json;  // first scenario only (for $MCS_TRACE_OUT)
};

// One traced closed-loop run; every span the components opened is folded
// into the per-bucket self-time breakdown.
TracedCell run_traced_cell(const TraceScenario& sc, std::uint64_t seed,
                           bool keep_chrome_trace) {
  obs::TracerConfig tcfg;
  tcfg.seed = seed;
  tcfg.sample_every = 1;  // the breakdown wants every request
  obs::Tracer tracer{tcfg};
  obs::Install install{tracer};

  sim::Simulator sim;
  core::McSystemConfig cfg;
  cfg.middleware = sc.middleware;
  cfg.phy = sc.phy;
  cfg.num_mobiles = 2;
  cfg.seed = seed;
  core::McSystem sys{sim, cfg};
  core::seed_demo_accounts(sys.bank(), 8, 1e12);
  auto apps = core::make_all_applications();
  core::install_all(apps, core::environment_for(sys));

  workload::DriverConfig dcfg;
  dcfg.duration = sim::Time::seconds(smoke_mode() ? 10.0 : 30.0);
  dcfg.warmup = sim::Time::seconds(2.0);
  dcfg.timeout = sim::Time::seconds(8.0);
  dcfg.seed = seed;
  workload::LoadDriver driver{sim, sys.client_drivers(), apps,
                              workload::consumer_mix(), sys.web_url(""),
                              dcfg};
  driver.run_closed_loop();

  TracedCell cell{sc, tracer.breakdown(), {}};
  if (keep_chrome_trace) cell.chrome_json = tracer.chrome_trace_json();
  return cell;
}

void write_breakdown_json(const std::vector<TracedCell>& cells,
                          std::uint64_t seed, const std::string& path) {
  auto put_buckets = [](sim::JsonWriter& w,
                        const obs::Tracer::Breakdown& b) {
    const double attributed_us =
        b.unattributed_us +
        [&b] {
          double s = 0.0;
          for (const double v : b.bucket_us) s += v;
          return s;
        }();
    w.key("traces").value(static_cast<std::int64_t>(b.traces));
    w.key("spans").value(static_cast<std::int64_t>(b.spans));
    w.key("total_ms").value(b.total_us / 1e3);
    w.key("unattributed_ms").value(b.unattributed_us / 1e3);
    w.key("components_ms").begin_object();
    for (std::size_t i = 0; i < obs::kBucketCount; ++i) {
      w.key(obs::bucket_name(i)).value(b.bucket_us[i] / 1e3);
    }
    w.end_object();
    // Share of all span self time (think/driver time included, so the six
    // shares plus `unattributed` sum to 1).
    w.key("share").begin_object();
    for (std::size_t i = 0; i < obs::kBucketCount; ++i) {
      w.key(obs::bucket_name(i))
          .value(attributed_us > 0.0 ? b.bucket_us[i] / attributed_us : 0.0);
    }
    w.key("unattributed")
        .value(attributed_us > 0.0 ? b.unattributed_us / attributed_us
                                   : 0.0);
    w.end_object();
  };

  obs::Tracer::Breakdown agg;
  for (const TracedCell& c : cells) {
    agg.traces += c.breakdown.traces;
    agg.spans += c.breakdown.spans;
    agg.instants += c.breakdown.instants;
    agg.total_us += c.breakdown.total_us;
    agg.unattributed_us += c.breakdown.unattributed_us;
    for (std::size_t i = 0; i < obs::kBucketCount; ++i) {
      agg.bucket_us[i] += c.breakdown.bucket_us[i];
    }
  }

  sim::JsonWriter w{/*pretty=*/true};
  w.begin_object();
  w.key("bench").value("fig2_breakdown");
  w.key("seed").value(static_cast<std::int64_t>(seed));
  w.key("mode").value(smoke_mode() ? "smoke" : "full");
  w.key("scenarios").begin_array();
  for (const TracedCell& c : cells) {
    w.begin_object();
    w.key("system").value(c.scenario.system);
    w.key("radio").value(c.scenario.phy.name);
    put_buckets(w, c.breakdown);
    w.end_object();
  }
  w.end_array();
  w.key("aggregate").begin_object();
  put_buckets(w, agg);
  w.end_object();
  w.end_object();

  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fputs(w.str().c_str(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("wrote %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
  }
}

void run_trace_breakdown() {
  const std::uint64_t kSeed = 2003;  // ICDCSW'03
  const std::vector<TraceScenario> scenarios = {
      {"MC/WAP", station::BrowserMode::kWap, wireless::wifi_802_11b()},
      {"MC/WAP", station::BrowserMode::kWap, wireless::gprs()},
      {"MC/i-mode", station::BrowserMode::kImode, wireless::wifi_802_11b()},
      {"MC/i-mode", station::BrowserMode::kImode, wireless::gprs()},
  };

  bench::TablePrinter table{
      "Figure 2 -- MC system: measured per-component self time "
      "(traced workload)",
      {"system", "radio", "traces", "application ms", "station ms",
       "middleware ms", "wireless ms", "wired ms", "host ms"}};

  std::vector<TracedCell> cells;
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    cells.push_back(
        run_traced_cell(scenarios[i], kSeed + i, /*keep_chrome_trace=*/i == 0));
    const obs::Tracer::Breakdown& b = cells.back().breakdown;
    table.add_row({cells.back().scenario.system,
                   cells.back().scenario.phy.name,
                   std::to_string(b.traces),
                   bench::fmt("%.1f", b.bucket_us[0] / 1e3),
                   bench::fmt("%.1f", b.bucket_us[1] / 1e3),
                   bench::fmt("%.1f", b.bucket_us[2] / 1e3),
                   bench::fmt("%.1f", b.bucket_us[3] / 1e3),
                   bench::fmt("%.1f", b.bucket_us[4] / 1e3),
                   bench::fmt("%.1f", b.bucket_us[5] / 1e3)});
  }
  table.print();

  const char* out = std::getenv("MCS_BENCH_FIG2_OUT");
  write_breakdown_json(cells, kSeed,
                       out != nullptr ? out : "BENCH_fig2_breakdown.json");

  if (const char* trace_out = std::getenv("MCS_TRACE_OUT")) {
    if (std::FILE* f = std::fopen(trace_out, "w")) {
      std::fputs(cells.front().chrome_json.c_str(), f);
      std::fputc('\n', f);
      std::fclose(f);
      std::printf("wrote %s (load in chrome://tracing or ui.perfetto.dev)\n",
                  trace_out);
    } else {
      std::fprintf(stderr, "MCS_TRACE_OUT: cannot write %s\n", trace_out);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  g_breakdown.print();
  g_scale.print();
  run_trace_breakdown();
  std::printf(
      "Reading: the MC system adds the paper's two extra components on top "
      "of the EC baseline -- middleware translation and the wireless hop. "
      "Over 802.11b the radio is cheap and WTP even saves the TCP "
      "handshake; over 2.5G cellular the air link dominates end-to-end "
      "latency, and a shared cell saturates quickly as stations are "
      "added.\n");
  return 0;
}
