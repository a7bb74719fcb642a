// Unit tests for the observability layer: MetricsRegistry (ids, counter /
// gauge / histogram semantics, exact log-spaced bucket boundaries, sorted
// JSON) and EventTracer (ring wraparound, drop accounting, JSONL export).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <vector>

#include "obs/metrics.h"
#include "obs/tracer.h"

namespace ps360::obs {
namespace {

// --------------------------------------------------------- MetricsRegistry

TEST(MetricsRegistryTest, RegistrationIsGetOrCreateByName) {
  MetricsRegistry reg;
  const auto a = reg.counter("client.stalls");
  const auto b = reg.counter("client.stalls");
  const auto c = reg.counter("client.bytes");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(reg.size(), 2u);
}

TEST(MetricsRegistryTest, KindMismatchOnRegistrationThrows) {
  MetricsRegistry reg;
  reg.counter("x");
  EXPECT_THROW(reg.gauge("x"), std::invalid_argument);
  EXPECT_THROW(reg.histogram("x"), std::invalid_argument);
}

TEST(MetricsRegistryTest, CounterAccumulatesAndGaugeKeepsMax) {
  MetricsRegistry reg;
  const auto c = reg.counter("events");
  const auto g = reg.gauge("queue_peak");
  reg.add(c);
  reg.add(c, 2.5);
  reg.set_max(g, 7.0);
  reg.set_max(g, 3.0);  // lower: ignored
  EXPECT_DOUBLE_EQ(reg.value("events"), 3.5);
  EXPECT_DOUBLE_EQ(reg.value("queue_peak"), 7.0);
  EXPECT_FALSE(reg.has("missing"));
  EXPECT_THROW(reg.value("missing"), std::invalid_argument);
}

TEST(MetricsRegistryTest, HistogramBucketBoundariesAreExact) {
  MetricsRegistry reg;
  // bounds: 1, 2, 4, 8 → bins [underflow, ≤1, ≤2, ≤4, ≤8, overflow].
  const auto h = reg.histogram("d", HistogramSpec{1.0, 2.0, 4});
  const std::vector<double>& bounds = reg.histogram_bounds("d");
  ASSERT_EQ(bounds.size(), 4u);
  EXPECT_DOUBLE_EQ(bounds[0], 1.0);
  EXPECT_DOUBLE_EQ(bounds[3], 8.0);

  reg.observe(h, 0.5);   // (0, 1]
  reg.observe(h, 1.0);   // boundary values land in the bucket they bound
  reg.observe(h, 1.001); // (1, 2]
  reg.observe(h, 2.0);   // (1, 2]
  reg.observe(h, 8.0);   // (4, 8] — last finite bucket, inclusive
  reg.observe(h, 8.001); // overflow

  const std::vector<std::uint64_t>& bins = reg.histogram_bins("d");
  ASSERT_EQ(bins.size(), 6u);
  EXPECT_EQ(bins[0], 0u);  // underflow
  EXPECT_EQ(bins[1], 2u);  // (0, 1]
  EXPECT_EQ(bins[2], 2u);  // (1, 2]
  EXPECT_EQ(bins[3], 0u);  // (2, 4]
  EXPECT_EQ(bins[4], 1u);  // (4, 8]
  EXPECT_EQ(bins[5], 1u);  // overflow
  EXPECT_EQ(reg.histogram_count("d"), 6u);
}

TEST(MetricsRegistryTest, HistogramNonFiniteAndNonPositiveUnderflow) {
  MetricsRegistry reg;
  const auto h = reg.histogram("d", HistogramSpec{1.0, 2.0, 2});
  reg.observe(h, 0.0);
  reg.observe(h, -3.0);
  reg.observe(h, std::numeric_limits<double>::quiet_NaN());
  const std::vector<std::uint64_t>& bins = reg.histogram_bins("d");
  EXPECT_EQ(bins[0], 3u);  // all in underflow: never silently dropped
  EXPECT_EQ(reg.histogram_count("d"), 3u);
  // +inf is beyond every finite bound → overflow.
  reg.observe(h, std::numeric_limits<double>::infinity());
  EXPECT_EQ(reg.histogram_bins("d").back(), 1u);
}

TEST(MetricsRegistryTest, RejectsDegenerateHistogramSpecs) {
  MetricsRegistry reg;
  EXPECT_THROW(reg.histogram("a", HistogramSpec{0.0, 2.0, 4}),
               std::invalid_argument);
  EXPECT_THROW(reg.histogram("b", HistogramSpec{1.0, 1.0, 4}),
               std::invalid_argument);
  EXPECT_THROW(reg.histogram("c", HistogramSpec{1.0, 2.0, 0}),
               std::invalid_argument);
}

TEST(MetricsRegistryTest, JsonIsSortedByNameAndStable) {
  MetricsRegistry reg;
  reg.add(reg.counter("zeta"), 1.0);
  reg.set_max(reg.gauge("alpha"), 2.0);
  const std::string json = reg.to_json();
  EXPECT_LT(json.find("\"alpha\""), json.find("\"zeta\""));
  std::ostringstream out;
  reg.write_json(out);
  EXPECT_EQ(out.str(), json);
}

// ------------------------------------------------------------- EventTracer

TEST(EventTracerTest, RecordsInOrderBelowCapacity) {
  EventTracer tracer(8);
  tracer.record(0.5, 1, TraceEventKind::kSegmentPlanned, 3, 1e6, 4.0);
  tracer.record(0.9, 1, TraceEventKind::kDownloadStart, 3, 2e5);
  const std::vector<TraceRecord> records = tracer.snapshot();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_DOUBLE_EQ(records[0].t, 0.5);
  EXPECT_EQ(records[0].kind, TraceEventKind::kSegmentPlanned);
  EXPECT_EQ(records[0].a, 3);
  EXPECT_DOUBLE_EQ(records[0].v0, 1e6);
  EXPECT_DOUBLE_EQ(records[0].v1, 4.0);
  EXPECT_EQ(records[1].kind, TraceEventKind::kDownloadStart);
  EXPECT_EQ(tracer.recorded(), 2u);
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(EventTracerTest, RingWrapsOverwritingOldestAndCountsDrops) {
  EventTracer tracer(4);
  for (int i = 0; i < 10; ++i)
    tracer.record(static_cast<double>(i), 0, TraceEventKind::kDownloadComplete, i);
  EXPECT_EQ(tracer.size(), 4u);
  EXPECT_EQ(tracer.recorded(), 10u);
  EXPECT_EQ(tracer.dropped(), 6u);
  const std::vector<TraceRecord> records = tracer.snapshot();
  ASSERT_EQ(records.size(), 4u);
  // The newest four survive, oldest first.
  for (int i = 0; i < 4; ++i) EXPECT_EQ(records[static_cast<std::size_t>(i)].a, 6 + i);
}

TEST(EventTracerTest, RejectsZeroCapacity) {
  EXPECT_THROW(EventTracer(0), std::invalid_argument);
}

TEST(EventTracerTest, ClearEmptiesRetainedRecords) {
  EventTracer tracer(4);
  tracer.record(1.0, 0, TraceEventKind::kMpcStrict, 5, -2.0);
  tracer.clear();
  EXPECT_EQ(tracer.size(), 0u);
  EXPECT_TRUE(tracer.snapshot().empty());
}

TEST(EventTracerTest, ExportsStableJsonl) {
  EventTracer tracer(4);
  tracer.record(1.25, 7, TraceEventKind::kLinkRateChange, 3, 5e5);
  std::ostringstream out;
  tracer.export_jsonl(out);
  EXPECT_EQ(out.str(),
            "{\"t\":1.25,\"session\":7,\"kind\":\"link_rate_change\","
            "\"a\":3,\"v0\":500000,\"v1\":0}\n");
}

TEST(EventTracerTest, EveryKindHasAWireName) {
  for (std::size_t k = 0; k < kTraceEventKinds; ++k) {
    const char* name = trace_event_name(static_cast<TraceEventKind>(k));
    ASSERT_NE(name, nullptr);
    EXPECT_GT(std::string(name).size(), 0u);
  }
}

}  // namespace
}  // namespace ps360::obs
