// Differential tests pinning the observability contract (DESIGN.md §10):
// attaching an Observer must be provably inert — energy, QoE, stall, and
// byte results are bit-identical with the observer on and off, for the
// single-session simulator and the fleet engine alike.
#include <gtest/gtest.h>

#include <vector>

#include "fleet/engine.h"
#include "obs/metrics.h"
#include "obs/observer.h"
#include "obs/tracer.h"
#include "sim/session.h"
#include "sim/workload.h"
#include "trace/video_catalog.h"

#include "test_support.h"

namespace ps360 {
namespace {

const sim::VideoWorkload& test_workload() {
  static const trace::VideoInfo video = [] {
    trace::VideoInfo v = trace::test_videos()[1];
    v.duration_s = 20.0;
    return v;
  }();
  static const sim::VideoWorkload workload(video, sim::WorkloadConfig{});
  return workload;
}

using test::expect_bit_identical;

// ------------------------------------------------------- simulate_session

TEST(ObsDifferentialTest, SessionResultsAreBitIdenticalObserverOnVsOff) {
  const sim::VideoWorkload& workload = test_workload();
  const auto traces = trace::make_paper_traces(/*seed=*/7, util::Seconds(300.0));
  const sim::SessionConfig config;

  for (const sim::SchemeKind scheme :
       {sim::SchemeKind::kOurs, sim::SchemeKind::kCtile, sim::SchemeKind::kFtile,
        sim::SchemeKind::kNontile}) {
    const sim::SessionResult off = sim::simulate_session(
        workload, /*test_user=*/0, scheme, traces.second, config);

    obs::MetricsRegistry metrics;
    obs::EventTracer tracer(1 << 14);
    obs::Observer observer{&metrics, &tracer};
    const sim::SessionResult on = sim::simulate_session(
        workload, /*test_user=*/0, scheme, traces.second, config, &observer);

    expect_bit_identical(off, on);
  }
}

TEST(ObsDifferentialTest, SessionObserverRecordsTheLoopFaithfully) {
  const sim::VideoWorkload& workload = test_workload();
  const auto traces = trace::make_paper_traces(/*seed=*/7, util::Seconds(300.0));
  const sim::SessionConfig config;

  obs::MetricsRegistry metrics;
  obs::EventTracer tracer(1 << 14);
  obs::Observer observer{&metrics, &tracer};
  const sim::SessionResult result =
      sim::simulate_session(workload, /*test_user=*/0, sim::SchemeKind::kOurs,
                            traces.second, config, &observer);

  const double n = static_cast<double>(result.segments.size());
  EXPECT_EQ(metrics.value("client.segments_planned"), n);
  EXPECT_EQ(metrics.value("session.segments"), n);
  EXPECT_EQ(metrics.value("client.bytes_requested"), result.total_bytes);
  EXPECT_EQ(metrics.value("client.stall_seconds"), result.total_stall_s);
  // The counter adds each segment's total as it is recorded; summing the
  // records in the same order reproduces it exactly, while the session's
  // per-component sums may round differently.
  double recorded_energy_mj = 0.0;
  for (const sim::SegmentRecord& segment : result.segments)
    recorded_energy_mj += segment.energy.total_mj();
  EXPECT_EQ(metrics.value("session.energy_mj"), recorded_energy_mj);
  EXPECT_GT(metrics.value("mpc.decides"), 0.0);
  EXPECT_EQ(static_cast<double>(metrics.histogram_count("client.download_seconds")),
            n);

  // The trace must contain one planned + one complete record per segment,
  // in nondecreasing time order.
  std::size_t planned = 0, completed = 0;
  double last_t = 0.0;
  for (const obs::TraceRecord& r : tracer.snapshot()) {
    EXPECT_GE(r.t, last_t);
    last_t = r.t;
    if (r.kind == obs::TraceEventKind::kSegmentPlanned) ++planned;
    if (r.kind == obs::TraceEventKind::kDownloadComplete) ++completed;
  }
  EXPECT_EQ(planned, result.segments.size());
  EXPECT_EQ(completed, result.segments.size());
  EXPECT_EQ(tracer.dropped(), 0u);
}

// -------------------------------------------------------------- run_fleet

TEST(ObsDifferentialTest, FleetResultsAreBitIdenticalObserverOnVsOff) {
  const sim::VideoWorkload& workload = test_workload();
  const auto traces = trace::make_paper_traces(/*seed=*/11, util::Seconds(300.0));

  fleet::FleetConfig config;
  config.sessions = 6;
  config.seed = 99;
  const fleet::FleetResult off = fleet::run_fleet(workload, traces.second, config);

  obs::MetricsRegistry metrics;
  obs::EventTracer tracer(1 << 16);
  obs::Observer observer{&metrics, &tracer};
  config.observer = &observer;
  const fleet::FleetResult on = fleet::run_fleet(workload, traces.second, config);

  ASSERT_EQ(off.sessions.size(), on.sessions.size());
  for (std::size_t i = 0; i < off.sessions.size(); ++i) {
    expect_bit_identical(off.sessions[i].result, on.sessions[i].result);
    EXPECT_EQ(off.sessions[i].finish_s, on.sessions[i].finish_s);
  }
  EXPECT_EQ(off.stats.events, on.stats.events);
  EXPECT_EQ(off.stats.stale_completions, on.stats.stale_completions);
  EXPECT_EQ(off.stats.reallocations, on.stats.reallocations);
  EXPECT_EQ(off.stats.makespan_s, on.stats.makespan_s);

  // Engine-level aggregates mirror FleetStats exactly.
  EXPECT_EQ(metrics.value("fleet.events"), static_cast<double>(on.stats.events));
  EXPECT_EQ(metrics.value("fleet.stale_completions"),
            static_cast<double>(on.stats.stale_completions));
  EXPECT_EQ(metrics.value("fleet.makespan_s"), on.stats.makespan_s);
  EXPECT_EQ(metrics.value("fleet.delivered_bytes"), on.stats.delivered_bytes.value());
}

}  // namespace
}  // namespace ps360
