#include "sim/stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "sim/json.h"
#include "sim/random.h"

namespace mcs::sim {
namespace {

TEST(HistogramTest, EmptyIsSafe) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(50), 0.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
}

TEST(HistogramTest, BasicMoments) {
  Histogram h;
  for (double v : {1.0, 2.0, 3.0, 4.0, 5.0}) h.record(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.mean(), 3.0);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 5.0);
  EXPECT_NEAR(h.stddev(), 1.5811, 1e-3);
  EXPECT_DOUBLE_EQ(h.sum(), 15.0);
}

// Nearest rank: the ceil(p*n/100)-th smallest value's bucket midpoint,
// clamped to [min, max]. Over 1..100 the ranks are 1, 7, 50, 95 and 100.
TEST(HistogramTest, PercentilesExactOnSmallSets) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.record(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(h.percentile(0), 1.015625);  // [1, 1+1/32)
  EXPECT_DOUBLE_EQ(h.percentile(7), 7.0625);    // 0.07*100 rounds up past 7
  EXPECT_DOUBLE_EQ(h.percentile(50), 50.5);     // [50, 51)
  EXPECT_DOUBLE_EQ(h.percentile(95), 95.0);     // [94, 96)
  EXPECT_DOUBLE_EQ(h.percentile(100), 100.0);   // [100, 102) clamped to max
}

TEST(HistogramTest, PercentileUnsortedInsertOrder) {
  Histogram h;
  for (double v : {9.0, 1.0, 5.0, 3.0, 7.0}) h.record(v);
  EXPECT_DOUBLE_EQ(h.percentile(50), 5.0625);  // rank 3: 5 in [5, 5.125)
  EXPECT_NEAR(h.percentile(50), 5.0, 5.0 * Histogram::kRelError);
}

// Each power of two holds 2^kSubBits equal buckets; the underflow and
// overflow buckets take everything outside [2^kMinExp, 2^kMaxExp).
TEST(HistogramTest, BucketsAreLogLinear) {
  constexpr std::size_t kSub = std::size_t{1} << Histogram::kSubBits;
  const std::size_t one = Histogram::bucket_of(1.0);
  EXPECT_EQ(Histogram::bucket_of(1.0 + 1.0 / kSub), one + 1);
  EXPECT_EQ(Histogram::bucket_of(1.0 + 0.99 / kSub), one);
  EXPECT_EQ(Histogram::bucket_of(2.0), one + kSub);
  EXPECT_EQ(Histogram::bucket_of(std::ldexp(1.0, Histogram::kMinExp)), 1u);
  EXPECT_EQ(Histogram::bucket_of(std::ldexp(1.0, Histogram::kMaxExp)),
            Histogram::kBuckets - 1);
  EXPECT_EQ(
      Histogram::bucket_of(std::nextafter(
          std::ldexp(1.0, Histogram::kMaxExp), 0.0)),
      Histogram::kBuckets - 2);
  EXPECT_DOUBLE_EQ(Histogram::kRelError, 1.0 / 64.0);
}

// Log-normal values on a 1/64 grid below 2^14: every partial sum of them
// and of their squares is exact, so the moments, like the buckets, cannot
// depend on merge order.
std::vector<double> lognormal_stream(std::uint64_t seed, std::size_t n,
                                     double mu, double sigma) {
  Rng rng{seed};
  std::vector<double> out;
  out.reserve(n);
  while (out.size() < n) {
    const double v = std::round(std::exp(rng.normal(mu, sigma)) * 64.0) / 64.0;
    if (v > 0.0 && v < 16384.0) out.push_back(v);
  }
  return out;
}

TEST(HistogramTest, MergeInAnyOrderEqualsOneStream) {
  constexpr std::size_t kParts = 7;
  const std::vector<double> values = lognormal_stream(11, 4096, 4.0, 1.5);
  Histogram whole;
  std::vector<Histogram> parts(kParts);
  for (std::size_t i = 0; i < values.size(); ++i) {
    whole.record(values[i]);
    parts[(i * i + 3 * i) % kParts].record(values[i]);
  }
  Histogram forward;  // ((p0 + p1) + p2) + ...
  for (const Histogram& p : parts) forward.merge(p);
  Histogram paired;   // p6 + (p5 + p4) + (p3 + (p2 + p1)) + p0, then empty
  Histogram a = parts[5];
  a.merge(parts[4]);
  Histogram b = parts[2];
  b.merge(parts[1]);
  Histogram c = parts[3];
  c.merge(b);
  paired.merge(parts[6]);
  paired.merge(a);
  paired.merge(c);
  paired.merge(parts[0]);
  paired.merge(Histogram{});

  for (const Histogram* m : {&forward, &paired}) {
    EXPECT_EQ(m->buckets(), whole.buckets());
    EXPECT_EQ(m->count(), whole.count());
    StatsRegistry merged;
    merged.histogram("h") = *m;
    StatsRegistry single;
    single.histogram("h") = whole;
    EXPECT_EQ(merged.to_json_string(), single.to_json_string());
  }
}

// The exact nearest-rank order statistic: the ceil(p*n/100)-th smallest.
double nearest_rank(std::vector<double> sorted, double p) {
  std::sort(sorted.begin(), sorted.end());
  const double n = static_cast<double>(sorted.size());
  const auto rank = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(p * n / 100.0)));
  return sorted[rank - 1];
}

TEST(HistogramTest, QuantilesWithinRelErrorOfNearestRank) {
  std::uint64_t seed = 1;
  for (const std::size_t n : {1u, 2u, 7u, 79u, 100u, 1000u, 20000u}) {
    Rng rng{seed++};
    std::vector<double> values;
    Histogram h;
    for (std::size_t i = 0; i < n; ++i) {
      const double v = std::exp(rng.normal(2.0, 3.0));  // ~1e-4 .. ~1e5
      values.push_back(v);
      h.record(v);
    }
    for (const double p : {0.0, 50.0, 90.0, 95.0, 99.0, 100.0}) {
      const double exact = nearest_rank(values, p);
      EXPECT_NEAR(h.percentile(p), exact, exact * Histogram::kRelError)
          << "n=" << n << " p=" << p;
    }
  }
}

void expect_ordered(const Histogram& h) {
  const double p50 = h.percentile(50);
  const double p90 = h.percentile(90);
  const double p95 = h.percentile(95);
  const double p99 = h.percentile(99);
  EXPECT_LE(h.min(), p50);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p95);
  EXPECT_LE(p95, p99);
  EXPECT_LE(p99, h.max());
}

TEST(HistogramTest, QuantilesAreOrderedAndInsideMinMax) {
  // Every value inside one bucket's upper half: the midpoint lies below
  // min and is clamped up to it.
  Histogram narrow;
  for (int i = 0; i < 10; ++i) narrow.record(97.0 + 0.1 * i);
  expect_ordered(narrow);
  EXPECT_DOUBLE_EQ(narrow.percentile(0), 97.0);
  // A latency tail whose top bucket reaches past max (a power-of-two
  // histogram once reported p50 = 131072 with max = 84907 here).
  Histogram tail;
  for (int i = 0; i < 566; ++i) tail.record(65536.0 + 34.0 * i);
  tail.record(84906.734);
  expect_ordered(tail);
  EXPECT_LE(tail.percentile(99), 84906.734);
  for (const double mu : {-3.0, 0.0, 5.0}) {
    Histogram h;
    for (const double v : lognormal_stream(7, 500, mu, 2.0)) h.record(v);
    expect_ordered(h);
  }
}

TEST(HistogramTest, ZerosNanAndOutOfRangeValues) {
  Histogram h;
  for (int i = 0; i < 3; ++i) h.record(0.0);
  h.record(std::numeric_limits<double>::quiet_NaN());  // not recorded
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.buckets()[0], 3u);
  EXPECT_DOUBLE_EQ(h.percentile(50), 0.0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);

  h.record(1e30);  // past the top bucket: overflow, reported as max
  h.record(-5.0);  // negative: underflow, exact in min
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.buckets()[Histogram::kBuckets - 1], 1u);
  EXPECT_EQ(h.buckets()[0], 4u);
  EXPECT_DOUBLE_EQ(h.min(), -5.0);
  EXPECT_DOUBLE_EQ(h.max(), 1e30);
  EXPECT_DOUBLE_EQ(h.percentile(0), 0.0);  // underflow reports 0, in range
  EXPECT_DOUBLE_EQ(h.percentile(100), 1e30);
  EXPECT_DOUBLE_EQ(h.sum(), 1e30 - 5.0);
  expect_ordered(h);
  Histogram merged;  // both outlier buckets merge like the rest
  merged.merge(h);
  EXPECT_EQ(merged.buckets(), h.buckets());

  const std::string json = [&] {
    StatsRegistry reg;
    reg.histogram("h") = h;
    return reg.to_json_string();
  }();
  EXPECT_EQ(json.find("nan"), std::string::npos);
}

TEST(CounterTest, AddAccumulates) {
  Counter c;
  c.add();
  c.add(9);
  EXPECT_EQ(c.value(), 10u);
}

TEST(GaugeTest, SetTracksHighWaterAndAddIsRelative) {
  Gauge g;
  g.set(4.0);
  g.add(3.0);   // 7: a new high-water
  g.add(-5.0);  // 2
  EXPECT_DOUBLE_EQ(g.value(), 2.0);
  EXPECT_DOUBLE_EQ(g.high_water(), 7.0);
}

// --- StatsRegistry ----------------------------------------------------------

TEST(StatsRegistryTest, NamedAccessCreatesOnFirstUse) {
  StatsRegistry reg;
  reg.counter("tx").add(3);
  reg.histogram("lat").record(1.5);
  EXPECT_EQ(reg.counter("tx").value(), 3u);
  EXPECT_EQ(reg.histograms().at("lat").count(), 1u);
  StatsRegistry fresh;
  EXPECT_EQ(fresh.counter("tx").value(), 0u);
  EXPECT_TRUE(fresh.counters().contains("tx"));
}

TEST(StatsRegistryTest, RegistrationIsIdempotentAndHandlesAreStable) {
  StatsRegistry reg;
  Counter* c1 = &reg.counter("x");
  Gauge* g1 = &reg.gauge("x");
  Histogram* h1 = &reg.histogram("x");
  reg.counter("a");  // map churn must not move existing nodes
  reg.counter("z");
  reg.gauge("a");
  reg.histogram("a");
  EXPECT_EQ(c1, &reg.counter("x"));
  EXPECT_EQ(g1, &reg.gauge("x"));
  EXPECT_EQ(h1, &reg.histogram("x"));
  EXPECT_EQ(reg.counters().size(), 3u);
}

// The two export shapes, byte for byte. A per-component registry (counters
// and histograms) writes no "gauges" key; a telemetry registry (counters,
// gauges, histograms) writes gauges as value/high_water. Every histogram
// has one shape, its quantiles bucket midpoints clamped to [min, max].
constexpr const char* kComponentJson = R"({
  "counters": {
    "drops": 0,
    "tx_packets": 3
  },
  "histograms": {
    "latency_ms": {
      "count": 3,
      "mean": 2.333333333,
      "stddev": 1.527525232,
      "min": 1,
      "max": 4,
      "p50": 2.03125,
      "p90": 4,
      "p95": 4,
      "p99": 4,
      "rel_error": 0.015625
    }
  }
})";

constexpr const char* kTelemetryJson = R"({
  "counters": {
    "wired.tx_packets": 5
  },
  "gauges": {
    "wired.queued_bytes": {
      "value": 500,
      "high_water": 1500
    }
  },
  "histograms": {
    "workload.latency_us": {
      "count": 3,
      "mean": 1066.666667,
      "stddev": 1674.315781,
      "min": 100,
      "max": 3000,
      "p50": 101,
      "p90": 2976,
      "p95": 2976,
      "p99": 2976,
      "rel_error": 0.015625
    }
  }
})";

TEST(StatsRegistryTest, ComponentRegistryJsonShapeIsPinned) {
  StatsRegistry reg;
  reg.counter("tx_packets").add(3);
  reg.counter("drops").add(0);
  for (double v : {1.0, 2.0, 4.0}) reg.histogram("latency_ms").record(v);
  EXPECT_EQ(reg.to_json_string(), kComponentJson);
}

TEST(StatsRegistryTest, TelemetryRegistryJsonShapeIsPinned) {
  StatsRegistry reg;
  reg.counter("wired.tx_packets").add(5);
  reg.gauge("wired.queued_bytes").set(1500.0);
  reg.gauge("wired.queued_bytes").set(500.0);
  for (double v : {100.0, 100.0, 3000.0}) {
    reg.histogram("workload.latency_us").record(v);
  }
  EXPECT_EQ(reg.to_json_string(), kTelemetryJson);
}

// Each kind merges by its own rule: counters add; gauge levels add and the
// high-water is the larger of the two (not the high-water of the summed
// level); histograms keep count/sum/min/max exact and add bucket by bucket.
TEST(StatsRegistryTest, MergeFoldsEachKindByItsRule) {
  StatsRegistry a;
  StatsRegistry b;
  a.counter("c").add(3);
  b.counter("c").add(4);
  b.counter("only_b").add(1);

  a.gauge("g").set(10.0);  // hwm 10
  a.gauge("g").set(2.0);
  b.gauge("g").set(5.0);   // hwm 5

  a.histogram("h").record(1.0);
  b.histogram("h").record(3.0);
  b.histogram("h").record(-2.0);
  b.histogram("h").record(1.01);  // 1.0's bucket

  a.merge(b);
  EXPECT_EQ(a.counter("c").value(), 7u);
  EXPECT_EQ(a.counter("only_b").value(), 1u);
  EXPECT_DOUBLE_EQ(a.gauge("g").value(), 7.0);
  EXPECT_DOUBLE_EQ(a.gauge("g").high_water(), 10.0);
  const Histogram& h = a.histogram("h");
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 3.01);
  EXPECT_DOUBLE_EQ(h.min(), -2.0);
  EXPECT_DOUBLE_EQ(h.max(), 3.0);
  EXPECT_EQ(h.buckets()[Histogram::bucket_of(1.0)], 2u);
  EXPECT_EQ(h.buckets()[Histogram::bucket_of(3.0)], 1u);
  EXPECT_EQ(h.buckets()[0], 1u);  // -2 underflows
}

TEST(CounterHandleTest, UnusedHandleLeavesNoKey) {
  StatsRegistry reg;
  CounterHandle tx{"tx"};
  CounterHandle rx{"rx"};  // declared, never counted
  reg.counter(tx).add(2);
  EXPECT_EQ(reg.counters().size(), 1u);
  EXPECT_FALSE(reg.counters().contains("rx"));
  EXPECT_EQ(reg.counters().at("tx").value(), 2u);
}

TEST(CounterHandleTest, AddZeroCreatesTheKey) {
  StatsRegistry reg;
  CounterHandle h{"never_incremented"};
  reg.counter(h).add(0);
  ASSERT_TRUE(reg.counters().contains("never_incremented"));
  EXPECT_EQ(reg.counters().at("never_incremented").value(), 0u);
}

TEST(CounterHandleTest, HandleAndNameReachTheSameCounter) {
  StatsRegistry reg;
  CounterHandle h{"tx"};
  reg.counter(h).add(1);
  reg.counter("tx").add(10);
  reg.counter(h).add(100);
  EXPECT_EQ(reg.counter("tx").value(), 111u);
  EXPECT_EQ(&reg.counter(h), &reg.counter("tx"));
}

// Registries driven by handles and by names are indistinguishable in every
// export: JSON, and as either side of a merge.
TEST(CounterHandleTest, HandleAndNameRegistriesExportIdentically) {
  StatsRegistry by_name;
  StatsRegistry by_handle;
  CounterHandle tx{"tx_packets"};
  CounterHandle rx{"rx_bytes_with_a_name_longer_than_sso"};
  CounterHandle zero{"zero"};
  for (int i = 0; i < 5; ++i) {
    by_name.counter("tx_packets").add();
    by_name.counter("rx_bytes_with_a_name_longer_than_sso").add(40);
    by_handle.counter(tx).add();
    by_handle.counter(rx).add(40);
  }
  by_name.counter("zero").add(0);
  by_handle.counter(zero).add(0);
  by_name.histogram("lat").record(2.0);
  by_handle.histogram("lat").record(2.0);

  EXPECT_EQ(by_handle.to_json_string(), by_name.to_json_string());

  StatsRegistry into_name = by_name;
  StatsRegistry into_handle = by_name;
  into_name.merge(by_name);
  into_handle.merge(by_handle);
  EXPECT_EQ(into_handle.to_json_string(), into_name.to_json_string());

  StatsRegistry merged_name;
  StatsRegistry merged_handle;
  merged_name.merge(by_name);
  merged_handle.merge(by_handle);
  EXPECT_EQ(merged_handle.to_json_string(), merged_name.to_json_string());
}

TEST(CounterHandleTest, CopiedHandleStartsUnresolved) {
  StatsRegistry a;
  StatsRegistry b;
  CounterHandle h{"tx"};
  a.counter(h).add(1);

  CounterHandle copy{h};
  b.counter(copy).add(5);
  EXPECT_EQ(&b.counter(copy), &b.counter("tx"));
  EXPECT_EQ(a.counter("tx").value(), 1u);
  EXPECT_EQ(b.counter("tx").value(), 5u);

  CounterHandle assigned{"tx"};
  StatsRegistry c;
  c.counter(assigned).add(7);
  assigned = h;
  b.counter(assigned).add(10);
  EXPECT_EQ(b.counter("tx").value(), 15u);
  EXPECT_EQ(c.counter("tx").value(), 7u);
  EXPECT_EQ(a.counter("tx").value(), 1u);
}

// The pattern every component follows: the registry and its handles are
// members of one owner. A copy of the owner counts into its own registry.
TEST(CounterHandleTest, CopiedOwnerCountsIntoItsOwnRegistry) {
  struct Owner {
    StatsRegistry stats;
    CounterHandle c_tx{"tx"};
    void send() { stats.counter(c_tx).add(); }
  };
  Owner original;
  original.send();
  Owner copy = original;
  copy.send();
  copy.send();
  EXPECT_EQ(original.stats.counter("tx").value(), 1u);
  EXPECT_EQ(copy.stats.counter("tx").value(), 3u);
  EXPECT_NE(&copy.stats.counter(copy.c_tx),
            &original.stats.counter(original.c_tx));

  Owner assigned;
  assigned.send();
  assigned = original;
  assigned.send();
  EXPECT_EQ(assigned.stats.counter("tx").value(), 2u);
  EXPECT_EQ(original.stats.counter("tx").value(), 1u);
}

TEST(StatsRegistryTest, MergeAddsCountersAndPoolsHistograms) {
  StatsRegistry a;
  a.counter("tx").add(3);
  a.histogram("lat").record(1.0);
  StatsRegistry b;
  b.counter("tx").add(4);
  b.counter("rx").add(1);
  b.histogram("lat").record(3.0);
  a.merge(b);
  EXPECT_EQ(a.counter("tx").value(), 7u);
  EXPECT_EQ(a.counter("rx").value(), 1u);
  EXPECT_EQ(a.histogram("lat").count(), 2u);
  EXPECT_DOUBLE_EQ(a.histogram("lat").mean(), 2.0);
  EXPECT_DOUBLE_EQ(a.histogram("lat").max(), 3.0);
}

TEST(StatsRegistryTest, MergeWithEmptyIsIdentityBothWays) {
  StatsRegistry a;
  a.counter("tx").add(3);
  a.histogram("lat").record(1.0);
  const std::string before = a.to_json_string();

  StatsRegistry empty;
  a.merge(empty);  // rhs empty: nothing changes
  EXPECT_EQ(a.to_json_string(), before);

  StatsRegistry fresh;
  fresh.merge(a);  // lhs empty: deep copy, including histogram extrema
  EXPECT_EQ(fresh.counter("tx").value(), 3u);
  EXPECT_EQ(fresh.histogram("lat").count(), 1u);
  EXPECT_DOUBLE_EQ(fresh.histogram("lat").min(), 1.0);
  EXPECT_DOUBLE_EQ(fresh.histogram("lat").max(), 1.0);
}

TEST(StatsRegistryTest, MergeIsAssociativeOnMomentsAndCounts) {
  auto make = [](double v, std::uint64_t n) {
    StatsRegistry r;
    r.counter("tx").add(n);
    r.histogram("lat").record(v);
    return r;
  };
  const StatsRegistry a = make(1.0, 1);
  const StatsRegistry b = make(2.0, 10);
  const StatsRegistry c = make(4.0, 100);

  StatsRegistry left;  // (a + b) + c
  left.merge(a);
  left.merge(b);
  left.merge(c);
  StatsRegistry bc;  // a + (b + c)
  bc.merge(b);
  bc.merge(c);
  StatsRegistry right;
  right.merge(a);
  right.merge(bc);

  EXPECT_EQ(left.counter("tx").value(), 111u);
  EXPECT_EQ(right.counter("tx").value(), 111u);
  EXPECT_EQ(left.histogram("lat").count(), right.histogram("lat").count());
  EXPECT_DOUBLE_EQ(left.histogram("lat").sum(),
                   right.histogram("lat").sum());
  EXPECT_DOUBLE_EQ(left.histogram("lat").min(),
                   right.histogram("lat").min());
  EXPECT_DOUBLE_EQ(left.histogram("lat").max(),
                   right.histogram("lat").max());
}

TEST(StatsRegistryTest, EmptyRegistryToJsonHasStableShape) {
  StatsRegistry reg;
  const std::string json = reg.to_json_string();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_EQ(json, reg.to_json_string());  // still deterministic
}

TEST(StatsRegistryTest, ZeroCountHistogramSerializesSafely) {
  StatsRegistry reg;
  reg.histogram("lat");  // touched but never recorded
  const std::string json = reg.to_json_string();
  // No NaN/inf may leak from the untouched extrema.
  EXPECT_EQ(json.find("nan"), std::string::npos);
  EXPECT_EQ(json.find("inf"), std::string::npos);
  EXPECT_NE(json.find("\"lat\""), std::string::npos);
}

TEST(StatsSnapshotTest, EmptySnapshotKeepsSchemaAndOrder) {
  StatsSnapshot snap;
  EXPECT_TRUE(snap.empty());
  const std::string json = snap.to_json_string();
  const auto meta = json.find("\"meta\"");
  const auto values = json.find("\"values\"");
  const auto components = json.find("\"components\"");
  ASSERT_NE(meta, std::string::npos);
  ASSERT_NE(values, std::string::npos);
  ASSERT_NE(components, std::string::npos);
  EXPECT_LT(meta, values);
  EXPECT_LT(values, components);
}

TEST(StatsSnapshotTest, SetValueOverwritesAndSortsKeys) {
  StatsSnapshot snap;
  snap.set_value("z.metric", 1.0);
  snap.set_value("a.metric", 2.0);
  snap.set_value("z.metric", 3.0);  // last write wins
  EXPECT_EQ(snap.values().at("z.metric"), 3.0);
  const std::string json = snap.to_json_string();
  EXPECT_LT(json.find("\"a.metric\""), json.find("\"z.metric\""));
  EXPECT_EQ(json.find("\"z.metric\": 1"), std::string::npos);
}

TEST(JsonWriterTest, EscapesAndFormatsNumbers) {
  JsonWriter w;
  w.begin_object();
  w.key("text").value("quote\" backslash\\ tab\t");
  w.key("whole").value(42.0);
  w.key("frac").value(0.125);
  w.key("flag").value(true);
  w.end_object();
  const std::string json = w.str();
  EXPECT_NE(json.find("quote\\\" backslash\\\\ tab\\t"), std::string::npos);
  EXPECT_NE(json.find("\"whole\": 42"), std::string::npos);
  EXPECT_NE(json.find("\"frac\": 0.125"), std::string::npos);
  EXPECT_NE(json.find("\"flag\": true"), std::string::npos);
}

TEST(StatsRegistryTest, ToJsonIsDeterministicAndOrdered) {
  StatsRegistry reg;
  reg.counter("zeta").add(1);
  reg.counter("alpha").add(2);
  reg.histogram("lat").record(10.0);
  const std::string a = reg.to_json_string();
  const std::string b = reg.to_json_string();
  EXPECT_EQ(a, b);
  // Ordered map: alpha serializes before zeta regardless of insert order.
  EXPECT_LT(a.find("\"alpha\""), a.find("\"zeta\""));
  EXPECT_NE(a.find("\"counters\""), std::string::npos);
  EXPECT_NE(a.find("\"histograms\""), std::string::npos);
  EXPECT_NE(a.find("\"p95\""), std::string::npos);
}

TEST(StatsSnapshotTest, AggregatesComponentsValuesAndTexts) {
  StatsRegistry reg;
  reg.counter("tx").add(5);
  StatsSnapshot snap;
  snap.add("net.node0", reg);
  snap.add("net.node0", reg);  // second add merges, not replaces
  snap.set_value("sim.now_s", 1.5);
  snap.set_text("system", "mc");
  const std::string json = snap.to_json_string();
  EXPECT_NE(json.find("\"net.node0\""), std::string::npos);
  EXPECT_NE(json.find("\"tx\": 10"), std::string::npos);
  EXPECT_NE(json.find("\"sim.now_s\": 1.5"), std::string::npos);
  EXPECT_NE(json.find("\"system\": \"mc\""), std::string::npos);
  const auto meta = json.find("\"meta\"");
  const auto values = json.find("\"values\"");
  const auto components = json.find("\"components\"");
  EXPECT_LT(meta, values);
  EXPECT_LT(values, components);
}

}  // namespace
}  // namespace mcs::sim
