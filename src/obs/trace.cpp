#include "obs/trace.h"

#include <algorithm>

#include "obs/flight_recorder.h"
#include "obs/trace_clock.h"
#include "sim/contract.h"
#include "sim/json.h"
#include "sim/logging.h"
#include "sim/simulator.h"
#include "sim/util.h"

namespace mcs::obs {

namespace {

// Figure 2 bucket index per component; -1 = unattributed (kClient).
constexpr int kBucketOf[kComponentCount] = {
    /*kClient*/ -1,
    /*kApplication*/ 0,
    /*kStation*/ 1,
    /*kWireless*/ 3,
    /*kMiddleware*/ 2,
    /*kMobileIp*/ 3,  // mobility support of the wireless network component
    /*kTransport*/ 4,  // TCP variants: wired-network protocol machinery
    /*kWired*/ 4,
    /*kHostWeb*/ 5,
    /*kHostDb*/ 5,
};

constexpr const char* kBucketNames[kBucketCount] = {
    "application", "station", "middleware", "wireless", "wired", "host",
};

}  // namespace

const char* component_name(Component c) {
  switch (c) {
    case Component::kClient: return "client";
    case Component::kApplication: return "application";
    case Component::kStation: return "station";
    case Component::kWireless: return "wireless";
    case Component::kMiddleware: return "middleware";
    case Component::kMobileIp: return "mobileip";
    case Component::kTransport: return "transport";
    case Component::kWired: return "wired";
    case Component::kHostWeb: return "host_web";
    case Component::kHostDb: return "host_db";
  }
  return "?";
}

const char* component_bucket(Component c) {
  const int b = kBucketOf[static_cast<std::size_t>(c)];
  return b < 0 ? "unattributed" : kBucketNames[b];
}

const char* bucket_name(std::size_t i) {
  MCS_ASSERT(i < kBucketCount, "bucket index out of range");
  return kBucketNames[i];
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

Tracer::Tracer(TracerConfig cfg) : cfg_{cfg}, rng_{cfg.seed} {}

TraceContext Tracer::start_trace(Component c, const char* name,
                                 sim::Time now) {
  ++traces_started_;
  if (cfg_.sample_every == 0 ||
      (traces_started_ - 1) % cfg_.sample_every != 0) {
    return {};
  }
  if (spans_.size() >= cfg_.max_spans) {
    ++dropped_spans_;
    return {};
  }
  ++traces_sampled_;
  std::uint64_t id = rng_.next_u64();
  if (id == 0) id = 1;  // 0 is the not-sampled sentinel
  Span s;
  s.trace_id = id;
  s.id = static_cast<std::uint32_t>(spans_.size() + 1);
  s.parent = 0;
  s.component = c;
  s.name = name;
  s.start = now;
  spans_.push_back(s);
  return TraceContext{id, s.id};
}

TraceContext Tracer::begin_span(TraceContext parent, Component c,
                                const char* name, sim::Time now) {
  if (!parent.sampled()) return {};
  if (spans_.size() >= cfg_.max_spans) {
    ++dropped_spans_;
    return {};
  }
  Span s;
  s.trace_id = parent.trace_id;
  s.id = static_cast<std::uint32_t>(spans_.size() + 1);
  s.parent = parent.span_id;
  s.component = c;
  s.name = name;
  s.start = now;
  spans_.push_back(s);
  return TraceContext{s.trace_id, s.id};
}

Span* Tracer::find(TraceContext ctx) {
  if (!ctx.sampled() || ctx.span_id == 0 || ctx.span_id > spans_.size()) {
    return nullptr;
  }
  Span& s = spans_[ctx.span_id - 1];
  return s.trace_id == ctx.trace_id ? &s : nullptr;
}

void Tracer::end_span(TraceContext ctx, sim::Time now) {
  Span* s = find(ctx);
  if (s == nullptr || !s->open) return;  // unsampled, dropped, or double-end
  MCS_ASSERT(now >= s->start, "span ended before it started");
  s->end = now;
  s->open = false;
  if (s->parent == 0) attribute(*s);
}

void Tracer::attribute(const Span& root) {
  // A trace's spans are minted after its root, so they all sit at or after
  // the root in spans_, and each parent before its children.
  const std::size_t first = root.id - 1;
  depth_.assign(spans_.size() - first, 0);
  intervals_.clear();
  for (std::size_t i = first; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.trace_id != root.trace_id) continue;
    const std::uint32_t depth =
        s.parent == 0 ? 0 : depth_[s.parent - root.id] + 1;
    depth_[i - first] = depth;
    if (s.open) continue;
    const std::int64_t lo = std::max(s.start, root.start).ns();
    const std::int64_t hi = std::min(s.end, root.end).ns();
    if (hi <= lo) continue;
    intervals_.push_back({lo, hi, s.start.ns(), depth, s.id,
                          kBucketOf[static_cast<std::size_t>(s.component)]});
  }
  std::sort(intervals_.begin(), intervals_.end(),
            [](const Interval& x, const Interval& y) { return x.lo < y.lo; });

  // Sweep: the innermost active interval owns time until the next interval
  // opens or it closes itself. Intervals that closed under it are dropped
  // when they surface. The root spans the sweep, so the heap never empties
  // before root.end. outer(x, y): y is innermost of the two.
  const auto outer = [this](std::uint32_t x, std::uint32_t y) {
    const Interval& a = intervals_[x];
    const Interval& b = intervals_[y];
    if (a.depth != b.depth) return a.depth < b.depth;
    if (a.start != b.start) return a.start < b.start;
    return a.id > b.id;
  };
  std::array<std::int64_t, kBucketCount + 1> ns{};  // [kBucketCount]: none
  active_.clear();
  std::size_t next = 0;
  for (std::int64_t t = root.start.ns(); t < root.end.ns();) {
    for (; next < intervals_.size() && intervals_[next].lo <= t; ++next) {
      active_.push_back(static_cast<std::uint32_t>(next));
      std::push_heap(active_.begin(), active_.end(), outer);
    }
    while (intervals_[active_.front()].hi <= t) {
      std::pop_heap(active_.begin(), active_.end(), outer);
      active_.pop_back();
    }
    const Interval& top = intervals_[active_.front()];
    const std::int64_t until =
        next < intervals_.size() ? std::min(top.hi, intervals_[next].lo)
                                 : top.hi;
    ns[top.bucket < 0 ? kBucketCount : static_cast<std::size_t>(top.bucket)] +=
        until - t;
    t = until;
  }

  attributed_.total_us += (root.end - root.start).to_micros();
  attributed_.unattributed_us += static_cast<double>(ns[kBucketCount]) / 1e3;
  for (std::size_t b = 0; b < kBucketCount; ++b) {
    attributed_.bucket_us[b] += static_cast<double>(ns[b]) / 1e3;
  }
}

void Tracer::add_instant(TraceContext ctx, Component c, const char* name,
                         sim::Time now) {
  if (!ctx.sampled()) return;
  InstantEvent e;
  e.trace_id = ctx.trace_id;
  e.span_id = ctx.span_id;
  e.component = c;
  e.name = name;
  e.at = now;
  instants_.push_back(e);
}

std::size_t Tracer::open_spans() const {
  std::size_t n = 0;
  for (const Span& s : spans_) {
    if (s.open) ++n;
  }
  return n;
}

void Tracer::clear() {
  spans_.clear();
  instants_.clear();
  traces_started_ = 0;
  traces_sampled_ = 0;
  dropped_spans_ = 0;
  attributed_ = {};
}

Tracer::Breakdown Tracer::breakdown() const {
  Breakdown b = attributed_;
  b.traces = traces_sampled_;
  b.spans = spans_.size();
  b.instants = instants_.size();
  return b;
}

// ---------------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------------

void Tracer::export_chrome_trace(sim::JsonWriter& w,
                                 const FlightRecorder* counters) const {
  w.begin_object();
  w.key("displayTimeUnit").value("ms");
  w.key("traceEvents").begin_array();
  // One named row per component, in enum order.
  for (std::size_t c = 0; c < kComponentCount; ++c) {
    w.begin_object();
    w.key("name").value("thread_name");
    w.key("ph").value("M");
    w.key("pid").value(std::int64_t{1});
    w.key("tid").value(static_cast<std::int64_t>(c + 1));
    w.key("args").begin_object();
    w.key("name").value(component_name(static_cast<Component>(c)));
    w.end_object();
    w.end_object();
  }
  for (const Span& s : spans_) {
    if (s.open) continue;  // counted via export_stats, not renderable
    w.begin_object();
    w.key("name").value(s.name);
    w.key("cat").value(component_name(s.component));
    w.key("ph").value("X");
    w.key("ts").value(trace_ts_us(s.start));
    w.key("dur").value(trace_ts_us(s.end) - trace_ts_us(s.start));
    w.key("pid").value(std::int64_t{1});
    w.key("tid").value(
        static_cast<std::int64_t>(static_cast<std::size_t>(s.component) + 1));
    w.key("args").begin_object();
    w.key("trace").value(sim::strf("%016llx",
                                   static_cast<unsigned long long>(s.trace_id)));
    w.key("span").value(static_cast<std::int64_t>(s.id));
    w.key("parent").value(static_cast<std::int64_t>(s.parent));
    w.end_object();
    w.end_object();
  }
  for (const InstantEvent& e : instants_) {
    w.begin_object();
    w.key("name").value(e.name);
    w.key("cat").value(component_name(e.component));
    w.key("ph").value("i");
    w.key("ts").value(trace_ts_us(e.at));
    w.key("s").value("t");
    w.key("pid").value(std::int64_t{1});
    w.key("tid").value(
        static_cast<std::int64_t>(static_cast<std::size_t>(e.component) + 1));
    w.key("args").begin_object();
    w.key("trace").value(sim::strf("%016llx",
                                   static_cast<unsigned long long>(e.trace_id)));
    w.key("span").value(static_cast<std::int64_t>(e.span_id));
    w.end_object();
    w.end_object();
  }
  if (counters != nullptr) counters->append_chrome_counters(w);
  w.end_array();
  w.end_object();
}

std::string Tracer::chrome_trace_json(bool pretty,
                                      const FlightRecorder* counters) const {
  sim::JsonWriter w{pretty};
  export_chrome_trace(w, counters);
  return w.take();
}

void Tracer::export_stats(sim::StatsRegistry& reg) const {
  reg.counter("traces_started").add(traces_started_);
  reg.counter("traces_sampled").add(traces_sampled_);
  reg.counter("spans").add(spans_.size());
  reg.counter("instants").add(instants_.size());
  reg.counter("open_spans").add(open_spans());
  reg.counter("dropped_spans").add(dropped_spans_);

  const Breakdown b = breakdown();
  for (std::size_t i = 0; i < kBucketCount; ++i) {
    reg.gauge(sim::strf("breakdown_us_%s", kBucketNames[i]))
        .set(b.bucket_us[i]);
    reg.counter(sim::strf("spans_%s", kBucketNames[i]));  // ensure the key
  }
  reg.gauge("breakdown_us_unattributed").set(b.unattributed_us);
  reg.gauge("breakdown_us_total").set(b.total_us);

  sim::Histogram& root_ms = reg.histogram("root_latency_ms");
  for (const Span& s : spans_) {
    if (s.open) continue;
    const int bucket = kBucketOf[static_cast<std::size_t>(s.component)];
    if (bucket >= 0) {
      reg.counter(sim::strf("spans_%s", kBucketNames[bucket])).add();
    }
    if (s.parent == 0) root_ms.record((s.end - s.start).to_millis());
  }
}

void export_kernel_stats(const sim::Simulator& sim, sim::StatsSnapshot& snap,
                         const std::string& prefix) {
  const double now_s = sim.now().to_seconds();
  snap.set_value(prefix + ".events_executed",
                 static_cast<double>(sim.executed()));
  snap.set_value(prefix + ".events_pending",
                 static_cast<double>(sim.pending()));
  snap.set_value(prefix + ".sim_now_s", now_s);
  snap.set_value(prefix + ".events_per_sim_s",
                 now_s > 0.0 ? static_cast<double>(sim.executed()) / now_s
                             : 0.0);
}

// ---------------------------------------------------------------------------
// Ambient plumbing
// ---------------------------------------------------------------------------

namespace {

// One tracer and one active context per thread: parallel sweeps confine a
// simulation (and therefore its trace) to a single cell thread, same as the
// packet pool and uid stream.
thread_local Tracer* t_tracer = nullptr;
thread_local TraceContext t_active{};

bool obs_log_tag(std::uint64_t* trace_id, std::uint32_t* span_id) {
  if (t_tracer == nullptr || !t_active.sampled()) return false;
  *trace_id = t_active.trace_id;
  *span_id = t_active.span_id;
  return true;
}

}  // namespace

Tracer* current_tracer() { return t_tracer; }
TraceContext active_context() { return t_active; }

Install::Install(Tracer& t) : prev_{t_tracer} {
  t_tracer = &t;
  sim::set_log_tag_provider(&obs_log_tag);
}

Install::~Install() {
  t_tracer = prev_;
  if (prev_ == nullptr) sim::set_log_tag_provider(nullptr);
}

ActiveScope::ActiveScope(TraceContext ctx) : prev_{t_active} {
  t_active = ctx;
}

ActiveScope::~ActiveScope() { t_active = prev_; }

TraceContext start_trace(Component c, const char* name, sim::Time now) {
  return t_tracer != nullptr ? t_tracer->start_trace(c, name, now)
                             : TraceContext{};
}

TraceContext begin_span(Component c, const char* name, sim::Time now) {
  if (t_tracer == nullptr || !t_active.sampled()) return {};
  return t_tracer->begin_span(t_active, c, name, now);
}

TraceContext begin_child(TraceContext parent, Component c, const char* name,
                         sim::Time now) {
  if (t_tracer == nullptr) return {};
  return t_tracer->begin_span(parent, c, name, now);
}

void end_span(TraceContext ctx, sim::Time now) {
  if (t_tracer != nullptr && ctx.sampled()) t_tracer->end_span(ctx, now);
}

void instant(TraceContext ctx, Component c, const char* name, sim::Time now) {
  if (t_tracer != nullptr && ctx.sampled()) {
    t_tracer->add_instant(ctx, c, name, now);
  }
}

}  // namespace mcs::obs
