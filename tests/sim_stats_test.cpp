#include "sim/stats.h"

#include <gtest/gtest.h>

#include "sim/json.h"

namespace mcs::sim {
namespace {

TEST(HistogramTest, EmptyIsSafe) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(50), 0.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  EXPECT_EQ(h.summary(), "n=0");
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

TEST(HistogramTest, PercentilesExactOnSmallSets) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.record(static_cast<double>(i));
  EXPECT_NEAR(h.percentile(0), 1.0, 1e-9);
  EXPECT_NEAR(h.percentile(50), 50.5, 1e-9);
  EXPECT_NEAR(h.percentile(95), 95.05, 1e-6);
  EXPECT_NEAR(h.percentile(100), 100.0, 1e-9);
}

TEST(HistogramTest, PercentileUnsortedInsertOrder) {
  Histogram h;
  for (double v : {9.0, 1.0, 5.0, 3.0, 7.0}) h.record(v);
  EXPECT_DOUBLE_EQ(h.percentile(50), 5.0);
}

TEST(HistogramTest, ReservoirKeepsMomentsExactUnderCap) {
  Histogram h{16};  // tiny reservoir
  for (int i = 0; i < 10000; ++i) h.record(static_cast<double>(i % 100));
  EXPECT_EQ(h.count(), 10000u);
  EXPECT_NEAR(h.mean(), 49.5, 1e-9);      // moments are streaming, exact
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 99.0);
  // Percentiles are approximate but must stay within the value range.
  EXPECT_GE(h.percentile(50), 0.0);
  EXPECT_LE(h.percentile(50), 99.0);
}

TEST(HistogramTest, ClearResets) {
  Histogram h;
  h.record(5.0);
  h.clear();
  EXPECT_EQ(h.count(), 0u);
  h.record(7.0);
  EXPECT_DOUBLE_EQ(h.mean(), 7.0);
}

TEST(HistogramTest, RecordTimeUsesMillis) {
  Histogram h;
  h.record_time(Time::millis(250));
  EXPECT_DOUBLE_EQ(h.mean(), 250.0);
}

TEST(CounterTest, AddAndRate) {
  Counter c;
  c.add();
  c.add(9);
  EXPECT_EQ(c.value(), 10u);
  EXPECT_DOUBLE_EQ(c.rate(Time::seconds(2.0)), 5.0);
  EXPECT_DOUBLE_EQ(c.rate(Time::zero()), 0.0);
  c.clear();
  EXPECT_EQ(c.value(), 0u);
}

TEST(StatsRegistryTest, NamedAccessAndReport) {
  StatsRegistry reg;
  reg.counter("tx").add(3);
  reg.histogram("lat").record(1.5);
  EXPECT_EQ(reg.counter("tx").value(), 3u);
  const std::string rep = reg.report("node0.");
  EXPECT_NE(rep.find("node0.tx = 3"), std::string::npos);
  EXPECT_NE(rep.find("node0.lat"), std::string::npos);
  StatsRegistry fresh;
  EXPECT_EQ(fresh.counter("tx").value(), 0u);
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
// export: JSON, text report, and as either side of a merge.
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
  EXPECT_EQ(by_handle.report("n."), by_name.report("n."));

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
