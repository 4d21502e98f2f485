#include "support/metrics.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

namespace wst::support {
namespace {

TEST(Metrics, CounterAccumulates) {
  MetricsRegistry registry;
  Counter& c = registry.counter("overlay/messages");
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  // Same name resolves to the same instrument.
  EXPECT_EQ(registry.counter("overlay/messages").value(), 42u);
}

TEST(Metrics, GaugeTracksMax) {
  MetricsRegistry registry;
  Gauge& g = registry.gauge("queue/depth");
  g.set(7);
  g.set(3);
  EXPECT_EQ(g.value(), 3);
  EXPECT_EQ(g.max(), 7);
}

TEST(Metrics, HistogramBucketsByLog2) {
  MetricsRegistry registry;
  Histogram& h = registry.histogram("batch/occupancy");
  h.record(0);  // bucket 0
  h.record(1);  // bucket 1
  h.record(2);  // bucket 2
  h.record(3);  // bucket 2
  h.record(4);  // bucket 3
  h.record(7);  // bucket 3
  h.record(8);  // bucket 4
  EXPECT_EQ(h.count(), 7u);
  EXPECT_EQ(h.sum(), 25u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 8u);
  EXPECT_NEAR(h.mean(), 25.0 / 7.0, 1e-9);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(2), 2u);
  EXPECT_EQ(h.bucket(3), 2u);
  EXPECT_EQ(h.bucket(4), 1u);
  EXPECT_EQ(h.bucketEnd(), 5u);
}

TEST(Metrics, EmptyHistogram) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.bucketEnd(), 0u);
}

TEST(Metrics, StableReferencesAcrossRegistrations) {
  MetricsRegistry registry;
  Counter& first = registry.counter("a");
  for (int i = 0; i < 100; ++i) {
    registry.counter("name" + std::to_string(i));
  }
  first.add(5);
  EXPECT_EQ(registry.counter("a").value(), 5u);
  EXPECT_EQ(&registry.counter("a"), &first);
}

TEST(Metrics, JsonDumpIsSortedAndComplete) {
  MetricsRegistry registry;
  registry.counter("b").add(2);
  registry.counter("a").add(1);
  registry.counter("max").add(std::numeric_limits<std::uint64_t>::max());
  registry.counter("q\"b\\s\nc\x01").add(4);  // every JSON escape class
  registry.gauge("depth").set(9);
  Gauge& negative = registry.gauge("neg");
  negative.set(7);
  negative.set(-5);
  registry.histogram("occ").record(3);
  registry.histogram("empty");
  for (const std::uint64_t v : {1, 2, 3, 100}) {
    registry.histogram("lat").record(v);
  }
  Histogram& wide = registry.histogram("wide");
  wide.record(0);
  wide.record(std::uint64_t{1} << 63);
  std::string wideBuckets = "[1";  // bucket 0 and bucket 64
  for (int b = 1; b < 64; ++b) wideBuckets += ", 0";
  wideBuckets += ", 1]";
  const std::string json = registry.toJson();
  EXPECT_EQ(json,
            "{\"counters\": {\"a\": 1, \"b\": 2, "
            "\"max\": 18446744073709551615, \"q\\\"b\\\\s\\nc\\u0001\": 4}, "
            "\"gauges\": {\"depth\": {\"value\": 9, \"max\": 9}, "
            "\"neg\": {\"value\": -5, \"max\": 7}}, "
            "\"histograms\": {\"empty\": {\"count\": 0, \"sum\": 0, "
            "\"min\": 0, \"max\": 0, \"mean\": 0.000, "
            "\"p50\": 0.000, \"p99\": 0.000, \"buckets\": []}, "
            "\"lat\": {\"count\": 4, \"sum\": 106, \"min\": 1, \"max\": 100, "
            "\"mean\": 26.500, \"p50\": 2.250, \"p99\": 2.985, "
            "\"buckets\": [0, 1, 2, 0, 0, 0, 0, 1]}, "
            "\"occ\": {\"count\": 1, \"sum\": 3, "
            "\"min\": 3, \"max\": 3, \"mean\": 3.000, "
            "\"p50\": 3.000, \"p99\": 3.000, "
            "\"buckets\": [0, 0, 1]}, "
            "\"wide\": {\"count\": 2, \"sum\": 9223372036854775808, "
            "\"min\": 0, \"max\": 9223372036854775808, "
            "\"mean\": 4611686018427387904.000, \"p50\": 0.000, "
            "\"p99\": 0.000, \"buckets\": " +
                wideBuckets + "}}}");
}

TEST(Metrics, JsonEmptyRegistry) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.toJson(),
            "{\"counters\": {}, \"gauges\": {}, \"histograms\": {}}");
}

}  // namespace
}  // namespace wst::support
