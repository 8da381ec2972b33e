#pragma once

// Deterministic request tracing and metrics (DESIGN.md §10).
//
// A TraceContext is minted at the session layer (LoadDriver, or a browser
// driven directly) and rides along packets and callbacks through every
// component of the Figure 2 path. Components open spans against the ambient
// context; the result is one span tree per sampled request, exportable as
// Chrome trace-event JSON (chrome://tracing, Perfetto) and foldable into a
// per-component latency breakdown (bench/fig2_mc_system.cpp).
//
// Determinism contract: trace IDs come from a sim::Rng seeded by the
// tracer's config — never from wallclock or process state — and span IDs
// are a per-tracer sequence, so the same seed replays to byte-identical
// exports (pinned by tests/obs_trace_test.cpp, including under
// ParallelSweep: each cell thread installs its own tracer).
//
// Cost contract: with no tracer installed, an ambient helper is one
// thread_local load and a branch (tools/check_kernel_bench.py pins that).
// Nothing here ever schedules events or draws from a model Rng, so
// enabling tracing cannot perturb simulated behaviour.

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/random.h"
#include "sim/stats.h"
#include "sim/time.h"

namespace mcs::sim {
class JsonWriter;
class Simulator;
class StatsSnapshot;
}  // namespace mcs::sim

namespace mcs::obs {

class FlightRecorder;

// Span vocabulary: who did the work. Finer-grained than the paper's six
// components; component_bucket() folds back onto Figure 2.
enum class Component : std::uint8_t {
  kClient = 0,    // load driver / user think path (root spans)
  kApplication,   // application programs (CGI handlers)
  kStation,       // mobile station CPU: parse, render, WTLS
  kWireless,      // air link serialization + propagation
  kMiddleware,    // WAP / i-mode gateway work
  kMobileIp,      // tunnel encap/decap events
  kTransport,     // TCP variant events (retransmits, timeouts)
  kWired,         // wired link serialization + propagation
  kHostWeb,       // host web server request handling
  kHostDb,        // host database server operations
};
inline constexpr std::size_t kComponentCount = 10;

const char* component_name(Component c);    // "client", "wireless", ...
const char* component_bucket(Component c);  // Figure 2 bucket, see below

// The paper's six components, in fixed report order. kClient maps to none
// of them ("unattributed": think time and driver bookkeeping).
inline constexpr std::size_t kBucketCount = 6;
const char* bucket_name(std::size_t i);  // application, station, middleware,
                                         // wireless, wired, host

// What propagates: the trace plus the span new work should parent under.
// trace_id == 0 means "not sampled"; every operation on such a context is
// a no-op, which is also how the head sampler discards whole requests.
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint32_t span_id = 0;

  bool sampled() const { return trace_id != 0; }
};

struct Span {
  std::uint64_t trace_id = 0;
  std::uint32_t id = 0;      // 1-based; index into the tracer's span store
  std::uint32_t parent = 0;  // 0 = root
  Component component = Component::kClient;
  const char* name = "";     // static string; spans never own their names
  sim::Time start;
  sim::Time end;
  bool open = true;
};

struct InstantEvent {
  std::uint64_t trace_id = 0;
  std::uint32_t span_id = 0;  // span it annotates (0 = trace-level)
  Component component = Component::kClient;
  const char* name = "";
  sim::Time at;
};

struct TracerConfig {
  // Seeds the trace-ID stream (sim::Rng); reruns with the same seed mint
  // identical IDs.
  std::uint64_t seed = 1;
  // Head sampling: keep 1 in N traces (1 = all, 0 = none). Decided at
  // start_trace, so an unsampled request costs nothing downstream.
  std::uint32_t sample_every = 1;
  // Hard cap on retained spans; beyond it new spans are dropped (counted).
  std::size_t max_spans = 1u << 20;
};

// Owns the span store for one simulation run. Not thread-safe: one tracer
// per thread, matching the simulator-per-thread confinement of parallel
// sweeps. Install (below) makes a tracer ambient for the current thread.
class Tracer {
 public:
  explicit Tracer(TracerConfig cfg = {});

  // Root span of a new trace; applies the head sampler.
  TraceContext start_trace(Component c, const char* name, sim::Time now);
  // Child span under `parent` (no-op context if parent is unsampled).
  TraceContext begin_span(TraceContext parent, Component c, const char* name,
                          sim::Time now);
  void end_span(TraceContext ctx, sim::Time now);
  void add_instant(TraceContext ctx, Component c, const char* name,
                   sim::Time now);

  std::uint64_t traces_started() const { return traces_started_; }
  std::uint64_t traces_sampled() const { return traces_sampled_; }
  std::uint64_t dropped_spans() const { return dropped_spans_; }
  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<InstantEvent>& instants() const { return instants_; }
  std::size_t open_spans() const;

  // Per-component latency, accumulated as each root span closes: every
  // nanosecond of the root's lifetime goes to the innermost closed span of
  // its trace active then. Innermost: greatest depth, then later start,
  // then, among spans opened at one instant, the lower id (DESIGN.md §10).
  // Spans are clipped to the root; one still open at its close counts for
  // nothing. So sum(bucket_us) + unattributed_us == total_us: exactly per
  // trace in ns, to double rounding in the sums. O(1) to read.
  struct Breakdown {
    std::uint64_t traces = 0;       // traces sampled
    std::uint64_t spans = 0;
    std::uint64_t instants = 0;
    double total_us = 0.0;          // summed closed root-span durations
    double unattributed_us = 0.0;   // time whose innermost span is kClient
    std::array<double, kBucketCount> bucket_us{};  // bucket_name() order
  };
  Breakdown breakdown() const;

  // Chrome trace-event JSON ("X" complete spans, "i" instants, one tid row
  // per component), loadable in chrome://tracing or ui.perfetto.dev.
  // Timestamps are simulation microseconds. When `counters` is supplied its
  // flight-recorder series are merged in as Perfetto counter ("C") tracks
  // above the span rows.
  void export_chrome_trace(sim::JsonWriter& w,
                           const FlightRecorder* counters = nullptr) const;
  std::string chrome_trace_json(bool pretty = false,
                                const FlightRecorder* counters = nullptr) const;

  // Fold counts, the breakdown() totals (gauges "breakdown_us_<bucket>",
  // "breakdown_us_unattributed", "breakdown_us_total") and the root-latency
  // histogram into `reg` under "trace"-less plain keys; callers namespace
  // via StatsSnapshot::add.
  void export_stats(sim::StatsRegistry& reg) const;

  void clear();

 private:
  Span* find(TraceContext ctx);
  // Splits a just-closed root's lifetime across its trace's spans (the rule
  // at breakdown()) and adds the result to attributed_.
  void attribute(const Span& root);

  TracerConfig cfg_;
  sim::Rng rng_;
  std::vector<Span> spans_;
  std::vector<InstantEvent> instants_;
  std::uint64_t traces_started_ = 0;
  std::uint64_t traces_sampled_ = 0;
  std::uint64_t dropped_spans_ = 0;
  Breakdown attributed_;  // totals only; breakdown() fills in the counts
  // attribute()'s scratch, reused from root to root.
  struct Interval {
    std::int64_t lo = 0, hi = 0;  // clipped to the root, in ns
    std::int64_t start = 0;       // unclipped, for the tie-break
    std::uint32_t depth = 0;
    std::uint32_t id = 0;
    int bucket = -1;
  };
  std::vector<Interval> intervals_;
  std::vector<std::uint32_t> depth_;   // by span id - root id
  std::vector<std::uint32_t> active_;  // heap of intervals_ indices
};

// Event-kernel instrumentation riding the same snapshot pipeline: event
// totals, queue depth and events per simulated second, as "<prefix>.*"
// values. Purely observational; safe for deterministic outputs as long as
// the caller's simulator is thread-confined (they all are).
void export_kernel_stats(const sim::Simulator& sim, sim::StatsSnapshot& snap,
                         const std::string& prefix = "kernel");

// --- Ambient (thread-local) plumbing ---------------------------------------

// The tracer new spans land in; null when tracing is not active.
Tracer* current_tracer();
// The context synchronous work should parent under.
TraceContext active_context();

// RAII: makes `t` the calling thread's tracer (and hooks the sim logger so
// log lines carry the active span; sim/logging.h). Restores on destruction.
class Install {
 public:
  explicit Install(Tracer& t);
  ~Install();
  Install(const Install&) = delete;
  Install& operator=(const Install&) = delete;

 private:
  Tracer* prev_;
};

// RAII: sets the ambient context for a synchronous call chain (delivering a
// packet, running a handler). Restores on destruction.
class ActiveScope {
 public:
  explicit ActiveScope(TraceContext ctx);
  ~ActiveScope();
  ActiveScope(const ActiveScope&) = delete;
  ActiveScope& operator=(const ActiveScope&) = delete;

 private:
  TraceContext prev_;
};

// Ambient helpers: route to the installed tracer, no-ops without one.
TraceContext start_trace(Component c, const char* name, sim::Time now);
// Child of the ambient context.
TraceContext begin_span(Component c, const char* name, sim::Time now);
// Child of an explicit parent (cross-event propagation: packet stamps,
// response slots).
TraceContext begin_child(TraceContext parent, Component c, const char* name,
                         sim::Time now);
void end_span(TraceContext ctx, sim::Time now);
void instant(TraceContext ctx, Component c, const char* name, sim::Time now);

}  // namespace mcs::obs
