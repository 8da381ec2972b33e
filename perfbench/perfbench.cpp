// End-to-end benchmark of the mobile-commerce simulator (paper Figure 2):
// what one simulated transaction costs the machine that runs the simulator,
// and what the simulated system delivers to its users.
//
//   mcs_perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// A run builds `episodes` complete systems from seeds derived from --seed
// and drives each with open-loop Poisson arrivals of one Table 1 mix (the
// shoppers are independent users, so arrivals do not wait for completions).
// It then cycles through the same episodes until S seconds of wall time have
// been measured. The simulated results (latency, goodput) come from the
// first pass and depend on --seed only; every later pass must replay its
// episode exactly, which is one of the correctness checks. Simulator cost
// per transaction sums, over the episodes, the fastest of each episode's
// replays; set-up time is the median over all set-ups.
//
// --trace 0 prints the end-to-end metrics. --trace 1 installs the program's
// request tracer and this binary's allocation counter and prints per-layer
// metrics instead: simulated self time per Figure 2 component, and kernel
// events, packets and heap allocations per transaction, with allocations
// split by the component whose trace context was active when they happened.
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "core/apps.h"
#include "net/packet.h"
#include "obs/trace.h"
#include "workload/driver.h"
#include "workload/session.h"

namespace {

using namespace mcs;

// --- Heap allocation accounting ---------------------------------------------
// Global operator new of this binary. Counting is switched on only for
// --trace 1 runs; the benchmark is single-threaded, so the tallies are plain
// integers.

// Slot for allocations made while no traced request is active: kernel
// bookkeeping, the driver's arrival chain.
constexpr std::size_t kNoContext = obs::kComponentCount;

struct AllocTally {
  std::uint64_t calls = 0;
  std::uint64_t bytes = 0;
  std::array<std::uint64_t, obs::kComponentCount + 1> by_component{};
};

bool g_count_allocs = false;
AllocTally g_allocs;

std::size_t active_component() {
  const obs::Tracer* tracer = obs::current_tracer();
  if (tracer == nullptr) return kNoContext;
  const obs::TraceContext ctx = obs::active_context();
  const std::vector<obs::Span>& spans = tracer->spans();
  if (!ctx.sampled() || ctx.span_id == 0 || ctx.span_id > spans.size()) {
    return kNoContext;
  }
  const obs::Span& span = spans[ctx.span_id - 1];
  if (span.trace_id != ctx.trace_id) return kNoContext;
  return static_cast<std::size_t>(span.component);
}

void* counted_alloc(std::size_t n) {
  if (g_count_allocs) {
    ++g_allocs.calls;
    g_allocs.bytes += n;
    ++g_allocs.by_component[active_component()];
  }
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(n);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t& tag) noexcept {
  return operator new(n, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// --- Workloads ----------------------------------------------------------------

struct Workload {
  const char* name;
  station::BrowserMode middleware;
  wireless::PhyProfile (*phy)();
  workload::WorkloadMix (*mix)();
  double offered_tps;  // open-loop Poisson arrival rate
  int mobiles;
  double arrival_window_s;  // simulated seconds of arrivals per episode
  int episodes;             // distinct systems per pass
};

// Two of the paper's Figure 2 configurations that share neither middleware,
// transport nor radio, each loaded well inside its capacity so that no
// request fails. A pass over the episodes takes one to three seconds of wall
// time, so a run replays every episode many times.
const Workload kWorkloads[] = {
    // WAP gateway (WTP over UDP, HTML to WML translation, WBXML) on 802.11b;
    // every transaction is a catalog read plus a two-phase-commit purchase.
    // Exercises the gateway's translation path and the host's database
    // writes.
    {"wap_wifi_commerce", station::BrowserMode::kWap, &wireless::wifi_802_11b,
     &workload::commerce_mix, 20.0, 8, 30.0, 16},
    // i-mode gateway (TCP end to end, cHTML, no WBXML) on GPRS: media
    // downloads, traffic advisories and purchases over a slow radio, the
    // only workload with TCP retransmissions. Bypasses the WAP translation
    // path.
    {"imode_gprs_consumer", station::BrowserMode::kImode, &wireless::gprs,
     &workload::consumer_mix, 2.0, 8, 120.0, 192},
};

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

// Seeds of the episodes of one run: a SplitMix64 stream keyed by --seed.
std::uint64_t episode_seed(std::uint64_t base, std::uint64_t index) {
  std::uint64_t z = base + 0x9e3779b97f4a7c15ull * (index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// --- One episode ----------------------------------------------------------------

constexpr int kAccounts = 8;  // acct0..acct7, the accounts the apps charge
constexpr double kBalance = 1e6;

struct Episode {
  workload::DriverReport report;
  std::uint64_t trace_hash = 0;
  std::uint64_t events = 0;
  std::uint64_t packets = 0;
  double setup_s = 0.0;  // build the system, seed it, install the apps
  double run_s = 0.0;    // simulate the arrival window and drain
  std::string violation;  // first broken invariant; empty when correct
  // --trace 1 only.
  obs::Tracer::Breakdown breakdown;
  std::uint64_t retransmits = 0;
  AllocTally setup_allocs;
  AllocTally run_allocs;
};

AllocTally tally_since(const AllocTally& before) {
  AllocTally d;
  d.calls = g_allocs.calls - before.calls;
  d.bytes = g_allocs.bytes - before.bytes;
  for (std::size_t i = 0; i < d.by_component.size(); ++i) {
    d.by_component[i] = g_allocs.by_component[i] - before.by_component[i];
  }
  return d;
}

double sum_column(const host::db::Database& db, const char* table,
                  const char* column) {
  const host::db::Table* t = db.table(table);
  if (t == nullptr) return 0.0;
  const std::optional<std::size_t> col = t->column_index(column);
  if (!col.has_value()) return 0.0;
  double sum = 0.0;
  for (const host::db::Row& row : t->all()) {
    const host::db::Value& v = row[*col];
    if (const auto* i = std::get_if<std::int64_t>(&v)) {
      sum += static_cast<double>(*i);
    } else if (const auto* d = std::get_if<double>(&v)) {
      sum += *d;
    }
  }
  return sum;
}

std::size_t row_count(const host::db::Database& db, const char* table) {
  const host::db::Table* t = db.table(table);
  return t == nullptr ? 0 : t->all().size();
}

double total_balance(const core::PaymentProcessor& bank) {
  double sum = 0.0;
  for (int i = 0; i < kAccounts; ++i) {
    sum += bank.balance("acct" + std::to_string(i));
  }
  return sum;
}

// Business invariants at the end of an episode; returns the first one that
// does not hold, or an empty string.
std::string check_invariants(const Episode& e, core::McSystem& sys,
                             double units_before) {
  const workload::DriverReport& r = e.report;
  if (r.ok + r.error + r.timeout != r.attempted) {
    return "a request did not resolve exactly once";
  }
  if (r.attempted == 0) return "no transaction was attempted";
  const host::db::Database& db = sys.database();
  const double spent = kAccounts * kBalance - total_balance(sys.bank());
  const double ordered = sum_column(db, "orders", "amount");
  const std::size_t orders = row_count(db, "orders");
  // Prices travel as "%.2f" text to the bank, so allow a cent per order.
  if (std::fabs(spent - ordered) > 0.01 * static_cast<double>(orders) + 1e-6) {
    return "money not conserved: accounts lost " + std::to_string(spent) +
           ", orders total " + std::to_string(ordered);
  }
  if (sys.bank().reservations_active() != 0) {
    return "payment reservations left open";
  }
  const double units_after = sum_column(db, "products", "stock") +
                             sum_column(db, "flights", "seats");
  if (units_before - units_after != static_cast<double>(orders)) {
    return "stock not conserved: " + std::to_string(orders) + " orders, " +
           std::to_string(units_before - units_after) + " units gone";
  }
  return {};
}

Episode run_episode(const Workload& w, std::uint64_t seed, bool trace) {
  Episode e;
  std::optional<obs::Tracer> tracer;
  std::optional<obs::Install> install;
  if (trace) {
    obs::TracerConfig tcfg;
    tcfg.seed = seed;
    tcfg.sample_every = 1;
    tracer.emplace(tcfg);
    install.emplace(*tracer);
  }
  // The packet pool is per-thread process state; a cold pool per episode
  // keeps packet counts identical when an episode is replayed.
  net::reset_packet_pool();

  const AllocTally before_setup = g_allocs;
  const Clock::time_point t0 = Clock::now();
  sim::Simulator sim;
  core::McSystemConfig cfg;
  cfg.middleware = w.middleware;
  cfg.phy = w.phy();
  cfg.num_mobiles = w.mobiles;
  cfg.seed = seed;
  core::McSystem sys{sim, cfg};
  core::seed_demo_accounts(sys.bank(), kAccounts, kBalance);
  auto apps = core::make_all_applications();
  core::install_all(apps, core::environment_for(sys));
  workload::DriverConfig dcfg;
  dcfg.duration = sim::Time::seconds(w.arrival_window_s);
  dcfg.warmup = sim::Time::seconds(2.0);
  dcfg.timeout = sim::Time::seconds(10.0);
  dcfg.seed = seed;
  workload::LoadDriver driver{sim,    sys.client_drivers(), apps,
                              w.mix(), sys.web_url(""),      dcfg};
  workload::ArrivalConfig arrivals;
  arrivals.kind = workload::ArrivalKind::kPoisson;
  arrivals.rate_tps = w.offered_tps;
  const Clock::time_point t1 = Clock::now();
  e.setup_allocs = tally_since(before_setup);

  const double units_before = sum_column(sys.database(), "products", "stock") +
                              sum_column(sys.database(), "flights", "seats");

  const AllocTally before_run = g_allocs;
  const Clock::time_point t2 = Clock::now();
  e.report = driver.run_open_loop(arrivals);
  const Clock::time_point t3 = Clock::now();
  e.run_allocs = tally_since(before_run);

  e.setup_s = seconds_between(t0, t1);
  e.run_s = seconds_between(t2, t3);
  e.trace_hash = sim.trace_hash();
  e.events = sim.executed();
  const net::PacketPoolStats pool = net::packet_pool_stats();
  e.packets = pool.fresh_allocations + pool.reuses;
  if (tracer.has_value()) {
    e.breakdown = tracer->breakdown();
    for (const obs::InstantEvent& ev : tracer->instants()) {
      if (std::strstr(ev.name, "rtx") != nullptr) ++e.retransmits;
    }
  }
  e.violation = check_invariants(e, sys, units_before);
  return e;
}

// Replays must agree with the first pass on everything the simulation
// decides.
bool same_simulation(const Episode& a, const Episode& b) {
  return a.trace_hash == b.trace_hash && a.events == b.events &&
         a.packets == b.packets && a.report.attempted == b.report.attempted &&
         a.report.ok == b.report.ok && a.report.error == b.report.error &&
         a.report.timeout == b.report.timeout &&
         a.report.latency_ms.sum() == b.report.latency_ms.sum();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// --- Output -------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof buf, "%.17g", v);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "mcs_perfbench: %s\nusage: mcs_perfbench --workload NAME "
               "--seed N --seconds S --trace 0|1\nworkloads:",
               msg);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return usage("--seed must be an integer");
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, &end);
      if (*end != '\0' || !(seconds > 0.0)) {
        return usage("--seconds must be positive");
      }
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") == 0) trace = 0;
      if (std::strcmp(value, "1") == 0) trace = 1;
      if (trace < 0) return usage("--trace must be 0 or 1");
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 == 0) return usage("every flag takes a value");
  const Workload* w = find_workload(workload_name);
  if (w == nullptr) return usage("unknown or missing --workload");
  if (trace < 0 || seconds <= 0.0) return usage("missing --seconds or --trace");
  const bool traced = trace == 1;
  g_count_allocs = traced;

  const std::size_t k = static_cast<std::size_t>(w->episodes);
  std::vector<Episode> first;  // first pass, by episode index
  // Fastest simulation of each episode over all its replays: a burst of
  // interference from other processes slows some replays, not all of them.
  std::vector<double> fastest_run_s(k, 0.0);
  std::vector<double> setup_samples;
  std::string violation;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  // Episode 0 first runs once, untimed and untraced, as a warm-up (page
  // faults, allocator and cache state). Its first timed run replays it, so
  // with --trace 1 this also checks that tracing does not change what the
  // simulation does. Every episode of the first pass runs at least once,
  // however long that takes.
  const Episode warmup = run_episode(*w, episode_seed(seed, 0), false);
  const Clock::time_point start = Clock::now();
  for (std::size_t run = 0;; ++run) {
    const std::size_t index = run % k;
    Episode e = run_episode(*w, episode_seed(seed, index), traced);
    attempted += e.report.attempted;
    failed += e.report.error + e.report.timeout;
    const Episode* reference =
        run >= k ? &first[index] : (run == 0 ? &warmup : nullptr);
    if (violation.empty() && !e.violation.empty()) {
      violation = "episode " + std::to_string(index) + ": " + e.violation;
    }
    if (violation.empty() && reference != nullptr &&
        !same_simulation(*reference, e)) {
      violation = "episode " + std::to_string(index) +
                  " did not replay identically";
    }
    setup_samples.push_back(e.setup_s);
    if (run < k || e.run_s < fastest_run_s[index]) {
      fastest_run_s[index] = e.run_s;
    }
    if (run < k) first.push_back(std::move(e));
    if (run + 1 >= k && seconds_between(start, Clock::now()) >= seconds) break;
  }
  if (!violation.empty()) {
    std::fprintf(stderr, "%s: %s\n", w->name, violation.c_str());
  }

  // Simulated results over the first pass.
  workload::DriverReport pooled = first.front().report;
  double ok = static_cast<double>(pooled.ok);
  double window_s = pooled.window.to_seconds();
  double txns = static_cast<double>(pooled.attempted);
  for (std::size_t i = 1; i < first.size(); ++i) {
    const workload::DriverReport& r = first[i].report;
    pooled.latency_ms.merge(r.latency_ms);
    ok += static_cast<double>(r.ok);
    window_s += r.window.to_seconds();
    txns += static_cast<double>(r.attempted);
  }
  double run_s = 0.0;
  for (const double s : fastest_run_s) run_s += s;
  const double wall_us_per_txn = run_s * 1e6 / txns;

  std::vector<Metric> metrics;
  if (!traced) {
    metrics = {
        {"wall_us_per_txn", wall_us_per_txn, "us"},
        {"sim_mean_ms", pooled.latency_ms.mean(), "ms"},
        {"sim_p95_ms", pooled.latency_ms.percentile(95.0), "ms"},
        {"goodput_tps", ok / window_s, "1/s"},
        {"setup_s", median(setup_samples), "s"},
    };
  } else {
    double events = 0, packets = 0, spans = 0, retransmits = 0, traces = 0;
    double setup_allocs = 0;
    AllocTally allocs;
    obs::Tracer::Breakdown b;
    for (const Episode& e : first) {
      events += static_cast<double>(e.events);
      packets += static_cast<double>(e.packets);
      spans += static_cast<double>(e.breakdown.spans);
      traces += static_cast<double>(e.breakdown.traces);
      retransmits += static_cast<double>(e.retransmits);
      setup_allocs += static_cast<double>(e.setup_allocs.calls);
      allocs.calls += e.run_allocs.calls;
      allocs.bytes += e.run_allocs.bytes;
      for (std::size_t i = 0; i < allocs.by_component.size(); ++i) {
        allocs.by_component[i] += e.run_allocs.by_component[i];
      }
      b.unattributed_us += e.breakdown.unattributed_us;
      b.total_us += e.breakdown.total_us;
      for (std::size_t i = 0; i < obs::kBucketCount; ++i) {
        b.bucket_us[i] += e.breakdown.bucket_us[i];
      }
    }
    metrics = {
        {"wall_us_per_txn_traced", wall_us_per_txn, "us"},
        {"kernel_events_per_txn", events / txns, "count"},
        {"packets_per_txn", packets / txns, "count"},
        {"spans_per_txn", spans / txns, "count"},
        {"retransmits_per_ktxn", 1e3 * retransmits / txns, "count"},
        {"heap_allocs_per_txn", static_cast<double>(allocs.calls) / txns,
         "count"},
        {"heap_bytes_per_txn", static_cast<double>(allocs.bytes) / txns, "B"},
        {"setup_heap_allocs", setup_allocs / static_cast<double>(k), "count"},
    };
    // The components under which allocations happen; "other" is the rest
    // (no active request, or a network component), so the split sums to
    // heap_allocs_per_txn.
    static constexpr obs::Component kAllocating[] = {
        obs::Component::kClient,     obs::Component::kApplication,
        obs::Component::kStation,    obs::Component::kMiddleware,
        obs::Component::kHostWeb,    obs::Component::kHostDb,
    };
    std::uint64_t other = allocs.calls;
    for (const obs::Component c : kAllocating) {
      const std::uint64_t n = allocs.by_component[static_cast<std::size_t>(c)];
      other -= n;
      metrics.push_back({std::string{"heap_allocs_per_txn."} +
                             obs::component_name(c),
                         static_cast<double>(n) / txns, "count"});
    }
    metrics.push_back({"heap_allocs_per_txn.other",
                       static_cast<double>(other) / txns, "count"});
    // Simulated self time per request trace, per Figure 2 component.
    for (std::size_t i = 0; i < obs::kBucketCount; ++i) {
      metrics.push_back({std::string{"self_ms_per_txn."} + obs::bucket_name(i),
                         b.bucket_us[i] / 1e3 / traces, "ms"});
    }
    metrics.push_back(
        {"self_ms_per_txn.unattributed", b.unattributed_us / 1e3 / traces, "ms"});
    metrics.push_back({"trace_ms_per_txn", b.total_us / 1e3 / traces, "ms"});
  }
  print_result(violation.empty(), attempted, failed, metrics);
  return 0;
}
