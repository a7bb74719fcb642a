// Tests for the fault-injection layer: trace::FaultSchedule determinism, the
// client's bounded retry/backoff/degradation state machine, and the fleet
// engine, the one session driver. The layer is inert when disabled
// (bit-identical single sessions for every registered scheme, and fleets);
// a faulted simulate_session is the fleet of one, bit for bit; with faults
// on every scheme completes every fleet session with reproducible, nonzero
// recovery counters, and each session's time closes: its records rebuild
// the engine's finish time, outage waits included. Faulted fleets on the
// worker pool are fleet_shard_test.cpp's (FaultArmMatchesSerialUnderThreads,
// ObservedSpeculationIsByteIdenticalForEveryScheme).
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/buffer.h"
#include "fleet/engine.h"
#include "obs/metrics.h"
#include "obs/observer.h"
#include "obs/tracer.h"
#include "sim/accounting.h"
#include "sim/client.h"
#include "sim/session.h"
#include "sim/workload.h"
#include "trace/fault_schedule.h"
#include "trace/video_catalog.h"
#include "util/rng.h"

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

trace::FaultConfig hostile_faults() {
  trace::FaultConfig faults;
  faults.enabled = true;
  faults.outage_spacing_s = 15.0;  // frequent blackouts
  faults.outage_mean_s = 1.5;
  faults.outage_max_s = 5.0;
  faults.loss_probability = 0.2;
  faults.spike_probability = 0.3;
  faults.spike_mean_s = 0.5;
  return faults;
}

// ---------------------------------------------------------- FaultSchedule

TEST(FaultScheduleTest, DeterministicPerSeed) {
  const trace::FaultConfig config = hostile_faults();
  trace::FaultSchedule a(config, 7), b(config, 7), c(config, 8);
  a.outage_at(500.0);
  b.outage_at(500.0);
  c.outage_at(500.0);
  ASSERT_EQ(a.windows().size(), b.windows().size());
  for (std::size_t i = 0; i < a.windows().size(); ++i) {
    EXPECT_EQ(a.windows()[i].begin, b.windows()[i].begin);
    EXPECT_EQ(a.windows()[i].end, b.windows()[i].end);
  }
  // A different seed produces a different renewal process.
  ASSERT_FALSE(c.windows().empty());
  EXPECT_NE(a.windows()[0].begin, c.windows()[0].begin);
}

TEST(FaultScheduleTest, WindowsAreOrderedDisjointAndCapped) {
  trace::FaultSchedule schedule(hostile_faults(), 42);
  schedule.outage_at(1000.0);
  const auto& windows = schedule.windows();
  ASSERT_GT(windows.size(), 10u);
  double prev_end = 0.0;
  for (const auto& w : windows) {
    EXPECT_GT(w.begin, prev_end);
    EXPECT_GT(w.end, w.begin);
    EXPECT_LE(w.end - w.begin, hostile_faults().outage_max_s + 1e-12);
    prev_end = w.end;
  }
}

TEST(FaultScheduleTest, OutageAtAgreesWithWindows) {
  trace::FaultSchedule schedule(hostile_faults(), 42);
  schedule.outage_at(400.0);  // force generation
  const auto windows = schedule.windows();
  ASSERT_FALSE(windows.empty());
  const auto& w = windows[windows.size() / 2];
  const double mid = 0.5 * (w.begin + w.end);
  const auto hit = schedule.outage_at(mid);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->begin, w.begin);
  EXPECT_EQ(hit->end, w.end);
  // Just before the window and at its (half-open) end: no outage.
  if (w.begin > 0.0) {
    EXPECT_FALSE(schedule.outage_at(w.begin - 1e-9).has_value());
  }
  EXPECT_FALSE(schedule.outage_at(w.end).has_value());
}

TEST(FaultScheduleTest, AttemptFaultIsOrderInvariant) {
  const trace::FaultConfig config = hostile_faults();
  trace::FaultSchedule fwd(config, 99), rev(config, 99);
  std::vector<trace::AttemptFault> forward, reverse;
  for (std::size_t s = 0; s < 10; ++s)
    for (std::size_t a = 1; a <= 4; ++a) forward.push_back(fwd.attempt_fault(s, a));
  for (std::size_t s = 10; s-- > 0;)
    for (std::size_t a = 4; a >= 1; --a) reverse.push_back(rev.attempt_fault(s, a));
  bool any_lost = false, any_spike = false;
  for (std::size_t i = 0; i < forward.size(); ++i) {
    const std::size_t j = forward.size() - 1 - i;
    EXPECT_EQ(forward[i].lost, reverse[j].lost);
    EXPECT_EQ(forward[i].spike_s, reverse[j].spike_s);
    any_lost = any_lost || forward[i].lost;
    any_spike = any_spike || forward[i].spike_s > 0.0;
  }
  EXPECT_TRUE(any_lost);
  EXPECT_TRUE(any_spike);
}

TEST(FaultScheduleTest, DisabledScheduleIsInert) {
  trace::FaultConfig config = hostile_faults();
  config.enabled = false;
  trace::FaultSchedule schedule(config, 7);
  EXPECT_FALSE(schedule.outage_at(100.0).has_value());
  for (std::size_t a = 1; a <= 8; ++a) {
    const auto fault = schedule.attempt_fault(3, a);
    EXPECT_FALSE(fault.lost);
    EXPECT_DOUBLE_EQ(fault.spike_s, 0.0);
  }
  EXPECT_TRUE(schedule.windows().empty());
}

TEST(FaultScheduleTest, ValidatesConfig) {
  trace::FaultConfig config;
  config.loss_probability = 1.5;
  EXPECT_THROW(trace::FaultSchedule(config, 1), std::invalid_argument);
  config = trace::FaultConfig{};
  config.spike_probability = -0.1;
  EXPECT_THROW(trace::FaultSchedule(config, 1), std::invalid_argument);
  config = trace::FaultConfig{};
  config.outage_mean_s = 0.0;
  EXPECT_THROW(trace::FaultSchedule(config, 1), std::invalid_argument);
}

// ------------------------------------------- client recovery state machine

struct ClientFixture {
  ClientFixture() {
    workload = &test_workload();
    session.ptile_min_coverage = 0.9;  // the coverage floor these tests were written for
    env.workload = workload;
    env.encoding = &encoding;
    env.qo_model = &qo_model;
    env.session = &session;
    scheme = make_scheme(sim::SchemeKind::kOurs, env);
  }

  sim::StreamingClient make_client(const sim::SessionConfig& config) const {
    return sim::StreamingClient(config, *workload, *scheme, workload->test_trace(0));
  }

  const sim::VideoWorkload* workload;
  video::EncodingModel encoding{42};
  qoe::QoModel qo_model{qoe::QoParams{}, 4.0};
  sim::SessionConfig session;
  sim::SchemeEnv env;
  std::unique_ptr<sim::Scheme> scheme;
};

// Plans the next segment as the fleet engine does: the Eq. 6 wait, then the
// solve.
sim::ClientRequest plan(sim::StreamingClient& client) {
  client.begin_plan();
  return client.finish_plan();
}

TEST(RecoveryTest, BackoffSequenceIsCappedAndSeededDeterministic) {
  const ClientFixture fixture;
  sim::SessionConfig config = fixture.session;
  config.recovery.max_attempts = 16;
  config.recovery.seed = 7;
  const auto collect = [&] {
    auto client = fixture.make_client(config);
    plan(client);
    std::vector<double> backoffs;
    for (int i = 0; i < 10; ++i)
      backoffs.push_back(client.report_download_failure(util::Seconds(0.1)).backoff_s);
    return backoffs;
  };
  const std::vector<double> a = collect(), b = collect();
  const sim::RecoveryConfig& rc = config.recovery;
  double nominal = rc.backoff_base_s;
  for (std::size_t i = 0; i < a.size(); ++i) {
    // Bit-identical across runs (seeded jitter, no global state).
    EXPECT_EQ(a[i], b[i]) << "attempt " << i + 1;
    // Within the jitter band around the capped exponential.
    EXPECT_GE(a[i], nominal * (1.0 - rc.backoff_jitter) - 1e-12);
    EXPECT_LE(a[i], nominal * (1.0 + rc.backoff_jitter) + 1e-12);
    nominal = std::min(nominal * 2.0, sim::kBackoffMaxS);
  }
  // The tail is capped: nominal has saturated at kBackoffMaxS.
  EXPECT_LE(a.back(), sim::kBackoffMaxS * (1.0 + rc.backoff_jitter) + 1e-12);

  // A different seed produces a different jitter sequence.
  config.recovery.seed = 8;
  const std::vector<double> c = collect();
  EXPECT_NE(a, c);
}

TEST(RecoveryTest, TimeoutAdvancesWallClockExactlyByDeadlinePlusBackoff) {
  const ClientFixture fixture;
  sim::SessionConfig config = fixture.session;
  config.recovery.backoff_jitter = 0.0;  // exact arithmetic
  auto client = fixture.make_client(config);
  plan(client);
  const double t0 = client.wall_time_s();
  const auto action =
      client.report_download_failure(util::Seconds(config.recovery.timeout_s));
  EXPECT_DOUBLE_EQ(action.backoff_s, config.recovery.backoff_base_s);
  EXPECT_DOUBLE_EQ(client.wall_time_s(),
                   t0 + config.recovery.timeout_s + action.backoff_s);
  EXPECT_EQ(client.attempts(), 1u);
}

TEST(RecoveryTest, DegradationLadderShrinksRequestsAndTerminates) {
  const ClientFixture fixture;
  sim::SessionConfig config = fixture.session;
  config.recovery.max_attempts = 32;  // plenty of room to exhaust the ladder
  auto client = fixture.make_client(config);
  const sim::ClientRequest request = plan(client);
  const double original_bytes = request.plan.option.bytes;

  std::size_t degrades = 0;
  double last_bytes = original_bytes;
  double last_estimate = request.bandwidth_estimate_bps;
  for (int i = 0; i < 20; ++i) {
    const auto action = client.report_download_failure(util::Seconds(0.5));
    if (action.degrade) {
      const sim::ClientRequest degraded = client.replan_degraded();
      // Each step plans against a strictly smaller bandwidth estimate and
      // may never grow the request (it can plateau once the plan is already
      // at the cheapest option).
      EXPECT_LT(degraded.bandwidth_estimate_bps, last_estimate);
      EXPECT_LE(degraded.plan.option.bytes, last_bytes * (1.0 + 1e-9));
      last_estimate = degraded.bandwidth_estimate_bps;
      last_bytes = degraded.plan.option.bytes;
      ++degrades;
    }
  }
  // The ladder fired and then stopped at kMaxDegradeSteps — never an
  // unbounded retry-and-degrade loop.
  EXPECT_EQ(degrades, sim::kMaxDegradeSteps);
  EXPECT_EQ(client.degrade_level(), sim::kMaxDegradeSteps);

  // The degraded request still completes and resets the recovery state.
  client.complete_download(util::Seconds(0.5));
  EXPECT_EQ(client.attempts(), 0u);
  EXPECT_EQ(client.degrade_level(), 0u);
}

TEST(RecoveryTest, MisuseThrowsWithoutCorruptingState) {
  const ClientFixture fixture;
  auto client = fixture.make_client(fixture.session);

  // Reporting a failure (or degrading) with no download in flight throws…
  EXPECT_THROW(client.report_download_failure(util::Seconds(1.0)), std::invalid_argument);
  EXPECT_THROW(client.replan_degraded(), std::invalid_argument);

  // …and the client still runs a full clean session afterwards.
  std::size_t planned = 0;
  while (!client.finished()) {
    plan(client);
    EXPECT_THROW(client.report_download_failure(util::Seconds(-1.0)),
                 std::invalid_argument);  // negative elapsed rejected
    client.complete_download(util::Seconds(0.4));
    ++planned;
  }
  EXPECT_EQ(planned, fixture.workload->segment_count());
  EXPECT_EQ(client.attempts(), 0u);
}

// -------------------------------------------------- single-session driver

TEST(FaultDifferentialTest, DisabledFaultLayerIsBitIdenticalPerScheme) {
  const sim::VideoWorkload& workload = test_workload();
  const auto traces = trace::make_paper_traces(/*seed=*/7, util::Seconds(300.0));

  // Baseline: the default config (fault fields untouched).
  // Candidate: faults disabled but every fault/recovery knob set to hostile
  // values — none of it may leak into the results.
  sim::SessionConfig candidate;
  candidate.faults = hostile_faults();
  candidate.faults.enabled = false;
  candidate.recovery.max_attempts = 2;
  candidate.recovery.timeout_s = 0.5;
  candidate.recovery.backoff_base_s = 3.0;
  candidate.recovery.seed = 1234;

  for (const sim::SchemeKind scheme : sim::registered_schemes()) {
    const sim::SessionResult baseline = sim::simulate_session(
        workload, /*test_user=*/0, scheme, traces.second, sim::SessionConfig{});
    const sim::SessionResult off = sim::simulate_session(
        workload, /*test_user=*/0, scheme, traces.second, candidate);
    expect_bit_identical(baseline, off);
  }
}

// A faulted single session runs through the engine's one fault state
// machine: simulate_session is the fleet of one seeded with
// SessionConfig::seed, bit for bit, and it really retries.
TEST(FaultSessionTest, SimulateSessionIsTheFaultedFleetOfOne) {
  const sim::VideoWorkload& workload = test_workload();
  const auto traces = trace::make_paper_traces(/*seed=*/7, util::Seconds(300.0));
  sim::SessionConfig session;
  session.seed = 7;  // not FleetConfig's default: the seed must be passed on
  session.faults = hostile_faults();

  obs::MetricsRegistry metrics;
  obs::Observer observer{&metrics, nullptr};
  const sim::SessionResult solo =
      sim::simulate_session(workload, /*test_user=*/0, sim::SchemeKind::kOurs,
                            traces.second, session, &observer);

  fleet::FleetConfig config;
  config.sessions = 1;
  config.start_spread_s = 0.0;
  config.seed = session.seed;
  config.scheme = sim::SchemeKind::kOurs;
  config.session = session;
  const fleet::FleetResult fleet = fleet::run_fleet(workload, traces.second, config);
  ASSERT_EQ(fleet.sessions.size(), 1u);
  expect_bit_identical(solo, fleet.sessions[0].result);
  EXPECT_GT(metrics.value("client.retries"), 0.0);
}

// ------------------------------------------------------------ fleet engine

TEST(FaultDifferentialTest, FleetDisabledFaultLayerIsBitIdentical) {
  const sim::VideoWorkload& workload = test_workload();
  const auto traces = trace::make_paper_traces(/*seed=*/11, util::Seconds(300.0));

  fleet::FleetConfig baseline;
  baseline.sessions = 6;
  baseline.seed = 99;
  const fleet::FleetResult off =
      fleet::run_fleet(workload, traces.second, baseline);

  fleet::FleetConfig candidate = baseline;
  candidate.session.faults = hostile_faults();
  candidate.session.faults.enabled = false;
  candidate.session.recovery.max_attempts = 2;
  candidate.session.recovery.timeout_s = 0.5;
  candidate.session.recovery.seed = 77;
  const fleet::FleetResult on =
      fleet::run_fleet(workload, traces.second, candidate);

  ASSERT_EQ(off.sessions.size(), on.sessions.size());
  for (std::size_t i = 0; i < off.sessions.size(); ++i) {
    expect_bit_identical(off.sessions[i].result, on.sessions[i].result);
    EXPECT_EQ(off.sessions[i].finish_s, on.sessions[i].finish_s);
  }
  EXPECT_EQ(off.stats.events, on.stats.events);
  EXPECT_EQ(off.stats.flow_aborts, 0u);
  EXPECT_EQ(on.stats.flow_aborts, 0u);
  EXPECT_EQ(off.stats.makespan_s, on.stats.makespan_s);
}

TEST(FaultFleetTest, EverySchemeCompletesUnderHostileFaults) {
  const sim::VideoWorkload& workload = test_workload();
  const auto traces = trace::make_paper_traces(/*seed=*/11, util::Seconds(300.0));

  for (const sim::SchemeKind scheme : sim::registered_schemes()) {
    SCOPED_TRACE(sim::scheme_name(scheme));
    fleet::FleetConfig config;
    config.sessions = 4;
    config.seed = 99;
    config.scheme = scheme;
    config.session.faults = hostile_faults();
    const fleet::FleetResult a = fleet::run_fleet(workload, traces.second, config);
    ASSERT_EQ(a.sessions.size(), config.sessions);
    for (const auto& s : a.sessions)
      EXPECT_EQ(s.result.segments.size(), workload.segment_count());
    // Deterministic: a second run is bit-identical, session by session.
    const fleet::FleetResult b = fleet::run_fleet(workload, traces.second, config);
    for (std::size_t i = 0; i < a.sessions.size(); ++i) {
      expect_bit_identical(a.sessions[i].result, b.sessions[i].result);
      EXPECT_EQ(a.sessions[i].finish_s, b.sessions[i].finish_s);
    }
    EXPECT_EQ(a.stats.flow_aborts, b.stats.flow_aborts);
  }
}

TEST(FaultFleetTest, FleetCountersAreNonzeroUnderFaults) {
  const sim::VideoWorkload& workload = test_workload();
  const auto traces = trace::make_paper_traces(/*seed=*/11, util::Seconds(300.0));

  obs::MetricsRegistry metrics;
  obs::EventTracer tracer(1 << 16);
  obs::Observer observer{&metrics, &tracer};
  fleet::FleetConfig config;
  config.sessions = 6;
  config.seed = 99;
  config.session.faults = hostile_faults();
  // Tight deadline so in-flight flows actually hit it and abort.
  config.session.recovery.timeout_s = 1.0;
  config.observer = &observer;
  const fleet::FleetResult result =
      fleet::run_fleet(workload, traces.second, config);

  EXPECT_GT(metrics.value("client.retries"), 0.0);
  EXPECT_EQ(metrics.value("client.timeouts") + metrics.value("client.losses") +
                metrics.value("client.outage_failures"),
            metrics.value("client.retries"));
  // The retry records made it into the trace.
  std::size_t retry_records = 0;
  for (const obs::TraceRecord& r : tracer.snapshot())
    if (r.kind == obs::TraceEventKind::kDownloadRetry) ++retry_records;
  EXPECT_EQ(static_cast<double>(retry_records), metrics.value("client.retries"));
  EXPECT_GT(result.stats.flow_aborts, 0u);
  EXPECT_EQ(metrics.value("fleet.flow_aborts"),
            static_cast<double>(result.stats.flow_aborts));
  for (const auto& s : result.sessions)
    EXPECT_EQ(s.result.segments.size(), workload.segment_count());
}

// One session under hostile faults, run as a fleet of one since only the
// fleet engine runs faults: its counters are reproducible for a fixed seed,
// nonzero, and consistent with the trace.
TEST(FaultSessionTest, CountersAreNonzeroAndReproduciblePerSeed) {
  const sim::VideoWorkload& workload = test_workload();
  const auto traces = trace::make_paper_traces(/*seed=*/7, util::Seconds(300.0));
  fleet::FleetConfig config;
  config.sessions = 1;
  config.start_spread_s = 0.0;
  config.scheme = sim::SchemeKind::kOurs;
  config.session.faults = hostile_faults();

  const auto run = [&](obs::MetricsRegistry& metrics, obs::EventTracer& tracer) {
    obs::Observer observer{&metrics, &tracer};
    fleet::FleetConfig observed = config;
    observed.observer = &observer;
    return fleet::run_fleet(workload, traces.second, observed);
  };
  obs::MetricsRegistry metrics_a, metrics_b;
  obs::EventTracer tracer_a(1 << 14), tracer_b(1 << 14);
  const fleet::FleetResult a = run(metrics_a, tracer_a);
  const fleet::FleetResult b = run(metrics_b, tracer_b);
  EXPECT_EQ(metrics_a.to_json(), metrics_b.to_json());
  ASSERT_EQ(a.sessions.size(), 1u);
  ASSERT_EQ(b.sessions.size(), 1u);
  expect_bit_identical(a.sessions[0].result, b.sessions[0].result);

  EXPECT_GT(metrics_a.value("client.retries"), 0.0);
  // Per-reason counters sum to the retry total.
  EXPECT_EQ(metrics_a.value("client.timeouts") + metrics_a.value("client.losses") +
                metrics_a.value("client.outage_failures"),
            metrics_a.value("client.retries"));
  // The retry/timeout records made it into the trace.
  std::size_t retry_records = 0;
  for (const obs::TraceRecord& r : tracer_a.snapshot())
    if (r.kind == obs::TraceEventKind::kDownloadRetry) ++retry_records;
  EXPECT_EQ(static_cast<double>(retry_records), metrics_a.value("client.retries"));
}

TEST(FaultFleetTest, TotalLossStillTerminatesViaTheFinalAttempt) {
  const sim::VideoWorkload& workload = test_workload();
  const auto traces = trace::make_paper_traces(/*seed=*/7, util::Seconds(300.0));
  obs::MetricsRegistry metrics;
  obs::Observer observer{&metrics, nullptr};
  fleet::FleetConfig config;
  config.sessions = 1;
  config.start_spread_s = 0.0;
  config.observer = &observer;
  config.session.faults.enabled = true;
  config.session.faults.outage_spacing_s = 0.0;  // no outages, pure loss
  config.session.faults.loss_probability = 1.0;  // every fallible attempt is lost
  config.session.faults.spike_probability = 0.0;
  config.session.recovery.max_attempts = 4;
  config.session.recovery.timeout_s = 1.0;

  const fleet::FleetResult result = fleet::run_fleet(workload, traces.second, config);
  ASSERT_EQ(result.sessions.size(), 1u);
  ASSERT_EQ(result.sessions[0].result.segments.size(), workload.segment_count());
  // Every segment burned exactly max_attempts - 1 losses before the
  // guaranteed final attempt delivered.
  const double expected =
      static_cast<double>((config.session.recovery.max_attempts - 1) *
                          workload.segment_count());
  EXPECT_EQ(metrics.value("client.retries"), expected);
  EXPECT_EQ(metrics.value("client.losses"), expected);
  EXPECT_EQ(metrics.value("client.timeouts"), 0.0);
  EXPECT_GT(metrics.value("client.degradations"), 0.0);
}

// A final attempt issued into an outage waits for the outage to end, and the
// wait belongs to that segment's download time. With every attempt final and
// outages every ~3 s, the client's elapsed time rebuilt from the records
// (each Eq. 6 wait from consecutive buffer levels, plus every download) must
// equal the engine's finish time minus the start.
TEST(FaultFleetTest, FinalAttemptOutageWaitClosesSessionTime) {
  const sim::VideoWorkload& workload = test_workload();
  const auto traces = trace::make_paper_traces(/*seed=*/7, util::Seconds(300.0));
  fleet::FleetConfig config;
  config.sessions = 1;
  config.start_spread_s = 0.0;
  config.session.faults.enabled = true;
  config.session.faults.outage_spacing_s = 3.0;
  config.session.faults.outage_mean_s = 1.0;
  config.session.recovery.max_attempts = 1;  // every attempt is the final one
  const core::MpcConfig& mpc = config.session.mpc;
  const core::BufferModel buffers(util::Seconds(workload.config().segment_seconds),
                                  util::Seconds(mpc.buffer_threshold_s),
                                  util::Seconds(mpc.buffer_quantum_s));

  std::size_t issued_into_outage = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    config.seed = seed;
    const fleet::FleetResult result = fleet::run_fleet(workload, traces.second, config);
    ASSERT_EQ(result.sessions.size(), 1u);
    const fleet::FleetSessionResult& session = result.sessions[0];
    // The engine's schedule for session 0, to count the outages this run
    // actually issued into.
    trace::FaultSchedule schedule(
        config.session.faults,
        util::derive_seed(seed, trace::kFaultSeedStream, /*session=*/0));
    double elapsed = 0.0;
    double buffer = 0.0;  // B after the previous download, before its wait
    for (const sim::SegmentRecord& segment : session.result.segments) {
      elapsed += buffer - segment.buffer_before_s;  // the Eq. 6 wait
      if (schedule.outage_at(session.start_s + elapsed)) ++issued_into_outage;
      elapsed += segment.download_s;
      buffer = buffers
                   .advance(util::Seconds(segment.buffer_before_s),
                            util::Seconds(segment.download_s))
                   .next_buffer_s;
    }
    EXPECT_NEAR(elapsed, session.finish_s - session.start_s, 1e-9 * session.finish_s);
  }
  EXPECT_GT(issued_into_outage, 0u);
}

}  // namespace
}  // namespace ps360
