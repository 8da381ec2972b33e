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
  // Live self-time: this span's full duration lands in its bucket; the part
  // of it the parent did not spend itself comes back out of the parent's
  // bucket. Sim time is monotonic, so a parent still open here will close
  // at or after `now` and the overlap is the whole duration; a parent that
  // already closed clamps the overlap to its own interval — the same
  // arithmetic breakdown() does in batch.
  const double dur = (s->end - s->start).to_micros();
  live_bucket_add(s->component, dur);
  if (s->parent != 0) {
    const Span& p = spans_[s->parent - 1];
    double overlap = dur;
    if (!p.open) {
      const sim::Time lo = std::max(p.start, s->start);
      const sim::Time hi = std::min(p.end, s->end);
      overlap = hi > lo ? (hi - lo).to_micros() : 0.0;
    }
    live_bucket_add(p.component, -overlap);
  }
}

void Tracer::live_bucket_add(Component c, double us) {
  const int bucket = kBucketOf[static_cast<std::size_t>(c)];
  if (bucket < 0) {
    live_unattributed_us_ += us;
  } else {
    live_bucket_us_[static_cast<std::size_t>(bucket)] += us;
  }
}

double Tracer::live_bucket_self_us(std::size_t bucket) const {
  MCS_ASSERT(bucket < kBucketCount, "bucket index out of range");
  return std::max(0.0, live_bucket_us_[bucket]);
}

double Tracer::live_unattributed_self_us() const {
  return std::max(0.0, live_unattributed_us_);
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
  live_bucket_us_.fill(0.0);
  live_unattributed_us_ = 0.0;
}

template <typename F>
void Tracer::for_each_self_time(F&& f) const {
  // covered[i]: time inside span i+1 spent in direct closed children.
  std::vector<double> covered(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.open || s.parent == 0) continue;
    const Span& p = spans_[s.parent - 1];
    if (p.open) continue;
    const sim::Time lo = std::max(p.start, s.start);
    const sim::Time hi = std::min(p.end, s.end);
    if (hi > lo) covered[s.parent - 1] += (hi - lo).to_micros();
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.open) continue;
    const double dur = (s.end - s.start).to_micros();
    f(s, dur, std::max(0.0, dur - covered[i]));
  }
}

Tracer::Breakdown Tracer::breakdown() const {
  Breakdown b;
  b.traces = traces_sampled_;
  b.spans = spans_.size();
  b.instants = instants_.size();
  for_each_self_time([&b](const Span& s, double dur, double self) {
    const int bucket = kBucketOf[static_cast<std::size_t>(s.component)];
    if (bucket < 0) {
      b.unattributed_us += self;
    } else {
      b.bucket_us[static_cast<std::size_t>(bucket)] += self;
    }
    if (s.parent == 0) b.total_us += dur;
  });
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

  std::array<sim::Histogram*, kBucketCount> self;
  for (std::size_t i = 0; i < kBucketCount; ++i) {
    self[i] = &reg.histogram(sim::strf("self_us_%s", kBucketNames[i]));
    reg.counter(sim::strf("spans_%s", kBucketNames[i]));  // ensure the key
  }
  sim::Histogram& self_unattributed = reg.histogram("self_us_unattributed");
  sim::Histogram& root_ms = reg.histogram("root_latency_ms");

  for_each_self_time([&](const Span& s, double /*dur*/, double self_us) {
    const int bucket = kBucketOf[static_cast<std::size_t>(s.component)];
    if (bucket < 0) {
      self_unattributed.record(self_us);
    } else {
      self[static_cast<std::size_t>(bucket)]->record(self_us);
      reg.counter(sim::strf("spans_%s", kBucketNames[bucket])).add();
    }
    if (s.parent == 0) root_ms.record((s.end - s.start).to_millis());
  });
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
