#include "common/metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace byzcast {
namespace {

TEST(Metrics, CounterAndGaugeBasics) {
  MetricsRegistry reg;
  reg.counter("a").inc();
  reg.counter("a").inc(3);
  reg.counter("b").inc();
  reg.gauge("g").set(0.75);
  EXPECT_EQ(reg.counter("a").value(), 4u);
  EXPECT_EQ(reg.counter("b").value(), 1u);
  EXPECT_DOUBLE_EQ(reg.gauge("g").value(), 0.75);
}

TEST(Metrics, RaiseToPublishesATotalOnce) {
  MetricsRegistry reg;
  Counter& c = reg.counter("total");
  c.raise_to(5);
  c.raise_to(5);  // the same snapshot again: no effect
  EXPECT_EQ(c.value(), 5u);
  c.raise_to(9);
  EXPECT_EQ(c.value(), 9u);
  EXPECT_DEATH(c.raise_to(8), "Precondition");
}

/// A stats struct with one counter field and one level.
struct Pair {
  std::uint64_t events = 0;
  std::uint64_t level = 0;
};
constexpr StatField<Pair> kPairFields[] = {
    {"events", &Pair::events},
    {"level", &Pair::level, /*gauge=*/true},
};

TEST(Metrics, PublishWritesCountersAndGaugesByTable) {
  MetricsRegistry reg;
  publish(reg, kPairFields, Pair{.events = 0, .level = 3}, "p.", ".x",
          /*skip_zero=*/true);
  EXPECT_FALSE(reg.counters().contains("p.events.x"));  // absent reads as 0
  EXPECT_DOUBLE_EQ(reg.gauges().at("p.level.x").value(), 3.0);
  publish(reg, kPairFields, Pair{.events = 4, .level = 1}, "p.", ".x");
  EXPECT_EQ(reg.counters().at("p.events.x").value(), 4u);
  EXPECT_DOUBLE_EQ(reg.gauges().at("p.level.x").value(), 1.0);
  EXPECT_STREQ(stat_name(kPairFields, &Pair::level), "level");
  EXPECT_EQ(reg.counter_sum("p."), 4u);
}

TEST(Metrics, ReferencesAreStableAcrossInsertions) {
  MetricsRegistry reg;
  Counter& a = reg.counter("hot.path");
  // Force many more map insertions; the cached reference must stay valid.
  for (int i = 0; i < 100; ++i) {
    reg.counter("filler." + std::to_string(i)).inc();
  }
  a.inc(7);
  EXPECT_EQ(reg.counter("hot.path").value(), 7u);
}

TEST(Metrics, HistogramBucketing) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("lat", {1.0, 10.0, 100.0});
  h.observe(0.5);    // <= 1
  h.observe(1.0);    // <= 1 (bounds are inclusive upper edges)
  h.observe(5.0);    // <= 10
  h.observe(50.0);   // <= 100
  h.observe(500.0);  // overflow
  ASSERT_EQ(h.counts().size(), 4u);
  EXPECT_EQ(h.counts()[0], 2u);
  EXPECT_EQ(h.counts()[1], 1u);
  EXPECT_EQ(h.counts()[2], 1u);
  EXPECT_EQ(h.counts()[3], 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 556.5);
  // Second lookup with different bounds returns the existing histogram.
  EXPECT_EQ(&reg.histogram("lat", {42.0}), &h);
}

TEST(Metrics, JsonExportIsDeterministicAndWellFormed) {
  MetricsRegistry reg;
  reg.counter("z.last").inc(2);
  reg.counter("a.first").inc(1);
  reg.gauge("busy").set(0.5);
  reg.histogram("batch", {1.0, 2.0}).observe(1.5);
  reg.timeseries("depth").append(kMillisecond, 3.0);
  reg.timeseries("depth").append(2 * kMillisecond, 4.0);

  const std::string json = reg.to_json();
  // Map iteration order: names sorted, so a.first precedes z.last.
  EXPECT_LT(json.find("\"a.first\":1"), json.find("\"z.last\":2"));
  EXPECT_NE(json.find("\"busy\":0.5"), std::string::npos);
  EXPECT_NE(json.find("\"counts\":[0,1,0]"), std::string::npos);
  EXPECT_NE(json.find("\"depth\":[[1,3],[2,4]]"), std::string::npos);
  // Byte-identical across calls (determinism for sidecar diffs).
  EXPECT_EQ(json, reg.to_json());
  // Balanced braces/brackets as a cheap well-formedness proxy.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(Metrics, EmptyRegistryExports) {
  MetricsRegistry reg;
  EXPECT_EQ(reg.to_json(),
            "{\"counters\":{},\"gauges\":{},\"histograms\":{},"
            "\"timeseries\":{}}");
}

}  // namespace
}  // namespace byzcast
