// Figure 2: the six-component mobile commerce system structure. This bench
// measures an end-to-end MC transaction and splits its latency across the
// paper's components -- application programs, mobile station, mobile
// middleware, wireless network, wired network and host computers -- and
// compares against the Figure 1 baseline on identical content.

// Every latency split here is the tracer's (obs/trace.h): each nanosecond of
// a request goes to the innermost span open at that instant, so the
// components plus "unattributed" add up to the request's latency. The first
// table splits one traced page load per system. main() then runs a traced
// closed-loop workload per scenario. Output: $MCS_BENCH_FIG2_OUT or
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
    "Figure 2 -- MC system: per-component latency split (one page load)",
    {"system", "radio", "total ms", "application ms", "station ms",
     "middleware ms", "wireless ms", "wired ms", "host ms", "unattributed ms",
     "air bytes"}};

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

// Appends total, the six components and unattributed, in ms, to `row`.
std::vector<std::string> split_cells(std::vector<std::string> row,
                                     const obs::Tracer::Breakdown& b) {
  row.push_back(bench::fmt("%.2f", b.total_us / 1e3));
  for (const double us : b.bucket_us) {
    row.push_back(bench::fmt("%.2f", us / 1e3));
  }
  row.push_back(bench::fmt("%.2f", b.unattributed_us / 1e3));
  return row;
}

// One page load under a traced request root, added to g_breakdown as the
// tracer's split of it.
void traced_page_row(sim::Simulator& sim, core::ClientDriver& client,
                     const std::string& url, const char* system,
                     const char* radio, benchmark::State& state) {
  obs::Tracer tracer;
  obs::Install install{tracer};
  std::optional<core::FetchResult> got;
  const obs::TraceContext root =
      obs::start_trace(obs::Component::kClient, "request", sim.now());
  {
    obs::ActiveScope scope{root};
    client.fetch(url, [&](core::FetchResult r) {
      obs::end_span(root, sim.now());
      got = std::move(r);
    });
  }
  sim.run();
  if (!got.has_value() || !got->ok) return;

  const obs::Tracer::Breakdown b = tracer.breakdown();
  state.counters["total_ms"] = b.total_us / 1e3;
  std::vector<std::string> row = split_cells({system, radio}, b);
  row.push_back(std::to_string(got->over_air_bytes));
  g_breakdown.add_row(row);
}

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
    traced_page_row(sim, *sys.mobile(0).driver, sys.web_url("/page"),
                    imode ? "MC/i-mode" : "MC/WAP", cfg.phy.name.c_str(),
                    state);
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
    traced_page_row(sim, *sys.client(0).driver, sys.web_url("/page"),
                    "EC baseline", "(wired)", state);
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

// One traced closed-loop run, split by the tracer's breakdown().
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
    w.key("traces").value(static_cast<std::int64_t>(b.traces));
    w.key("spans").value(static_cast<std::int64_t>(b.spans));
    w.key("total_ms").value(b.total_us / 1e3);
    w.key("unattributed_ms").value(b.unattributed_us / 1e3);
    w.key("components_ms").begin_object();
    for (std::size_t i = 0; i < obs::kBucketCount; ++i) {
      w.key(obs::bucket_name(i)).value(b.bucket_us[i] / 1e3);
    }
    w.end_object();
    // Share of the summed request latency (the six shares plus
    // `unattributed` sum to 1).
    const auto share = [&b](double us) {
      return b.total_us > 0.0 ? us / b.total_us : 0.0;
    };
    w.key("share").begin_object();
    for (std::size_t i = 0; i < obs::kBucketCount; ++i) {
      w.key(obs::bucket_name(i)).value(share(b.bucket_us[i]));
    }
    w.key("unattributed").value(share(b.unattributed_us));
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
      "Figure 2 -- MC system: measured per-component latency "
      "(traced workload)",
      {"system", "radio", "traces", "total ms", "application ms",
       "station ms", "middleware ms", "wireless ms", "wired ms", "host ms",
       "unattributed ms"}};

  std::vector<TracedCell> cells;
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    cells.push_back(
        run_traced_cell(scenarios[i], kSeed + i, /*keep_chrome_trace=*/i == 0));
    const TracedCell& c = cells.back();
    table.add_row(split_cells({c.scenario.system, c.scenario.phy.name,
                               std::to_string(c.breakdown.traces)},
                              c.breakdown));
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
