// Unit tests for the observability layer: MetricsRegistry (ids, counter /
// gauge / histogram semantics, exact log-spaced bucket boundaries, merge
// determinism across simulated thread counts) and EventTracer (ring
// wraparound, drop accounting, JSONL export, slot-order merge).
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

TEST(MetricsRegistryTest, MergeAddsCountersBinsAndMaxesGauges) {
  MetricsRegistry a, b;
  a.add(a.counter("n"), 2.0);
  b.add(b.counter("n"), 3.0);
  a.set_max(a.gauge("peak"), 5.0);
  b.set_max(b.gauge("peak"), 9.0);
  b.add(b.counter("only_in_b"), 1.0);
  const auto ha = a.histogram("h", HistogramSpec{1.0, 2.0, 3});
  const auto hb = b.histogram("h", HistogramSpec{1.0, 2.0, 3});
  a.observe(ha, 0.5);
  b.observe(hb, 0.5);
  b.observe(hb, 100.0);

  a.merge_from(b);
  EXPECT_DOUBLE_EQ(a.value("n"), 5.0);
  EXPECT_DOUBLE_EQ(a.value("peak"), 9.0);
  EXPECT_DOUBLE_EQ(a.value("only_in_b"), 1.0);  // created by the merge
  EXPECT_EQ(a.histogram_bins("h")[1], 2u);
  EXPECT_EQ(a.histogram_bins("h").back(), 1u);
  EXPECT_EQ(a.histogram_count("h"), 3u);
}

TEST(MetricsRegistryTest, MergeRejectsKindAndShapeMismatches) {
  MetricsRegistry a, b;
  a.counter("x");
  b.gauge("x");
  EXPECT_THROW(a.merge_from(b), std::invalid_argument);

  MetricsRegistry c, d;
  c.histogram("h", HistogramSpec{1.0, 2.0, 4});
  d.histogram("h", HistogramSpec{1.0, 2.0, 8});
  EXPECT_THROW(c.merge_from(d), std::invalid_argument);
}

// The property the fleet runner relies on: folding per-slot registries in
// slot order yields the same snapshot no matter how the slots were *filled*
// (by 1 worker or by many) — because filling order never enters the fold.
TEST(MetricsRegistryTest, SlotOrderMergeIsThreadCountInvariant) {
  const auto fill = [](MetricsRegistry& reg, std::uint64_t slot) {
    reg.add(reg.counter("events"), static_cast<double>(slot + 1) * 0.1);
    reg.set_max(reg.gauge("peak"), static_cast<double>((slot * 7) % 5));
    const auto h = reg.histogram("lat", HistogramSpec{1e-3, 2.0, 8});
    for (std::uint64_t i = 0; i < 16; ++i)
      reg.observe(h, 1e-3 * static_cast<double>((slot + 1) * (i + 1)));
  };

  // "4 threads": slots filled in a scrambled claim order.
  std::vector<MetricsRegistry> scrambled(6);
  for (const std::uint64_t slot : {3u, 0u, 5u, 1u, 4u, 2u}) fill(scrambled[slot], slot);
  // "1 thread": slots filled in order.
  std::vector<MetricsRegistry> ordered(6);
  for (std::uint64_t slot = 0; slot < 6; ++slot) fill(ordered[slot], slot);

  MetricsRegistry merged_a, merged_b;
  for (const MetricsRegistry& r : scrambled) merged_a.merge_from(r);
  for (const MetricsRegistry& r : ordered) merged_b.merge_from(r);
  EXPECT_EQ(merged_a.to_json(), merged_b.to_json());
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

TEST(EventTracerTest, MergeAppendsOldestFirst) {
  EventTracer a(8), b(8);
  a.record(1.0, 0, TraceEventKind::kStallBegin, 5);
  b.record(0.2, 1, TraceEventKind::kStallEnd, 5, 0.3);
  b.record(0.4, 1, TraceEventKind::kPtileChoice, 3, 30.0, 1.0);
  a.merge_from(b);
  const std::vector<TraceRecord> records = a.snapshot();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].kind, TraceEventKind::kStallBegin);
  EXPECT_EQ(records[1].session, 1u);
  EXPECT_DOUBLE_EQ(records[1].t, 0.2);
  EXPECT_EQ(records[2].kind, TraceEventKind::kPtileChoice);
  EXPECT_EQ(a.recorded(), 3u);
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
