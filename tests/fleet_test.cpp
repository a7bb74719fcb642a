// Tests for the fleet subsystem: EventLoop ordering, SharedLink max-min
// fairness (differential-tested against a brute-force fluid simulation) and
// its one-flow inversion of the trace integral, simulate_session as the
// bitwise fleet of one for every registered scheme, replaying the test user
// it is asked for, SessionConfig validation, thread-count invariance of the
// replication runner, and the zero-allocation steady state of the event
// queue.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "fleet/engine.h"
#include "fleet/event_loop.h"
#include "fleet/runner.h"
#include "fleet/shared_link.h"
#include "obs/metrics.h"
#include "obs/observer.h"
#include "obs/tracer.h"
#include "sim/accounting.h"
#include "sim/client.h"
#include "sim/session.h"
#include "sim/workload.h"
#include "trace/video_catalog.h"
#include "util/rng.h"

#include "test_support.h"

namespace ps360::fleet {
namespace {

// ------------------------------------------------------------- EventLoop

TEST(EventLoopTest, PopsInTimeOrder) {
  EventLoop loop(8);
  loop.schedule(3.0, 0, EventKind::kSessionStart);
  loop.schedule(1.0, 2, EventKind::kSessionStart);
  loop.schedule(2.0, 1, EventKind::kSessionStart);
  EXPECT_DOUBLE_EQ(loop.pop().t, 1.0);
  EXPECT_DOUBLE_EQ(loop.pop().t, 2.0);
  EXPECT_DOUBLE_EQ(loop.pop().t, 3.0);
  EXPECT_TRUE(loop.empty());
}

TEST(EventLoopTest, TiesBreakBySessionThenSequence) {
  EventLoop loop(8);
  // Same timestamp, sessions out of order, the link event last of all.
  loop.schedule(1.0, kLinkSession, EventKind::kCapacityChange);
  loop.schedule(1.0, 5, EventKind::kFlowStart);
  loop.schedule(1.0, 2, EventKind::kFlowStart);
  loop.schedule(1.0, 2, EventKind::kFlowCompletion);  // later seq, same session
  EXPECT_EQ(loop.pop().kind, EventKind::kFlowStart);  // session 2, first seq
  const Event second = loop.pop();
  EXPECT_EQ(second.session, 2u);
  EXPECT_EQ(second.kind, EventKind::kFlowCompletion);
  EXPECT_EQ(loop.pop().session, 5u);
  EXPECT_EQ(loop.pop().session, kLinkSession);
}

TEST(EventLoopTest, RejectsSchedulingInThePast) {
  EventLoop loop(4);
  loop.schedule(2.0, 0, EventKind::kSessionStart);
  EXPECT_DOUBLE_EQ(loop.pop().t, 2.0);
  EXPECT_THROW(loop.schedule(1.0, 0, EventKind::kSessionStart),
               std::invalid_argument);
  EXPECT_THROW(loop.pop(), std::invalid_argument);  // empty
}

TEST(EventLoopTest, CountsGrowthBeyondReserve) {
  EventLoop loop(2);
  loop.schedule(1.0, 0, EventKind::kSessionStart);
  loop.schedule(2.0, 1, EventKind::kSessionStart);
  EXPECT_EQ(loop.grow_events(), 0u);
  for (int i = 0; i < 64; ++i)
    loop.schedule(3.0 + i, 0, EventKind::kSessionStart);
  EXPECT_GT(loop.grow_events(), 0u);
  EXPECT_EQ(loop.peak_size(), 66u);
}

// Contract violations must throw (PS360_CHECK → std::invalid_argument)
// *and* leave the loop usable, so a driver that catches the error can keep
// draining the queue.
TEST(EventLoopTest, ContractViolationsThrowAndDoNotCorruptTheQueue) {
  EventLoop loop(4);
  EXPECT_THROW(loop.pop(), std::invalid_argument);  // nothing scheduled yet
  // NaN times fail the t >= now precondition (NaN compares false) — a NaN
  // timestamp must never enter the heap, where it would poison the ordering.
  EXPECT_THROW(
      loop.schedule(std::numeric_limits<double>::quiet_NaN(), 0,
                    EventKind::kSessionStart),
      std::invalid_argument);
  EXPECT_TRUE(loop.empty());

  loop.schedule(1.0, 0, EventKind::kSessionStart);
  loop.schedule(2.0, 1, EventKind::kFlowStart);
  EXPECT_DOUBLE_EQ(loop.pop().t, 1.0);
  EXPECT_THROW(loop.schedule(0.5, 0, EventKind::kFlowStart),
               std::invalid_argument);  // in the past
  // The rejected schedule left no residue: the queue drains normally.
  EXPECT_DOUBLE_EQ(loop.pop().t, 2.0);
  EXPECT_TRUE(loop.empty());
  EXPECT_THROW(loop.pop(), std::invalid_argument);  // drained again
}

// ------------------------------------------------------------ SharedLink

trace::NetworkTrace flat_trace(double mbps, double duration_s = 100.0) {
  std::vector<trace::ThroughputSample> samples;
  for (double t = 0.0; t < duration_s; t += 1.0)
    samples.push_back({t, mbps});
  return trace::NetworkTrace(std::move(samples));
}

TEST(SharedLinkTest, EqualShareWithoutCaps) {
  const trace::NetworkTrace trace = flat_trace(8.0);  // 1e6 bytes/s
  SharedLink link(trace, 4, util::BytesPerSec(0.0));
  link.start(0, util::Bytes(1e6));
  link.start(1, util::Bytes(1e6));
  link.start(2, util::Bytes(1e6));
  link.start(3, util::Bytes(1e6));
  for (std::size_t s = 0; s < 4; ++s)
    EXPECT_DOUBLE_EQ(link.rate_bytes_per_s(s), 0.25e6);
}

TEST(SharedLinkTest, LinkWideCapBindsOnlyBelowTheFairShare) {
  const trace::NetworkTrace trace = flat_trace(8.0);  // 1e6 bytes/s
  SharedLink link(trace, 3, util::BytesPerSec(0.4e6));
  link.start(0, util::Bytes(0.2e6));
  link.start(1, util::Bytes(1e6));
  link.start(2, util::Bytes(1e6));
  // Three flows: the 1/3 fair share sits below the cap, so the whole link
  // is shared out.
  for (std::size_t s = 0; s < 3; ++s)
    EXPECT_DOUBLE_EQ(link.rate_bytes_per_s(s), 1e6 / 3.0);
  const auto first = link.next_completion();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->session, 0u);
  link.advance_to(first->t);
  link.finish(0);
  // Two flows: the 0.5 share exceeds the cap, which binds; the link carries
  // min(C, N * cap) and leaves the rest idle.
  EXPECT_DOUBLE_EQ(link.rate_bytes_per_s(1), 0.4e6);
  EXPECT_DOUBLE_EQ(link.rate_bytes_per_s(2), 0.4e6);
  EXPECT_DOUBLE_EQ(link.rate_bytes_per_s(0), 0.0);  // finished
}

TEST(SharedLinkTest, CompletionAndRatePredictions) {
  const trace::NetworkTrace trace = flat_trace(8.0);  // 1e6 bytes/s
  SharedLink link(trace, 2, util::BytesPerSec(0.0));
  link.start(0, util::Bytes(0.5e6));  // alone: finishes in 0.5 s
  const auto first = link.next_completion();
  ASSERT_TRUE(first.has_value());
  EXPECT_DOUBLE_EQ(first->t, 0.5);
  link.advance_to(0.25);
  link.start(1, util::Bytes(1.0e6));  // now both at 0.5e6 B/s
  const auto second = link.next_completion();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->session, 0u);
  EXPECT_DOUBLE_EQ(second->t, 0.25 + 0.25e6 / 0.5e6);
  link.advance_to(second->t);
  link.finish(0);
  // Flow 1 gets the whole link back.
  EXPECT_DOUBLE_EQ(link.rate_bytes_per_s(1), 1e6);
}

TEST(SharedLinkTest, ContractViolationsThrowAndDoNotCorruptFlows) {
  const trace::NetworkTrace trace = flat_trace(8.0);  // 1e6 bytes/s
  EXPECT_THROW(SharedLink(trace, 0, util::BytesPerSec(0.0)), std::invalid_argument);
  EXPECT_THROW(SharedLink(trace, 2, util::BytesPerSec(
                                        std::numeric_limits<double>::quiet_NaN())),
               std::invalid_argument);
  EXPECT_THROW(SharedLink(trace, 2, util::BytesPerSec(
                                        std::numeric_limits<double>::infinity())),
               std::invalid_argument);

  SharedLink link(trace, 2, util::BytesPerSec(0.0));
  EXPECT_THROW(link.start(2, util::Bytes(1e6)), std::invalid_argument);   // out of range
  EXPECT_THROW(link.start(0, util::Bytes(0.0)), std::invalid_argument);   // no bytes
  EXPECT_THROW(link.start(0, util::Bytes(-1.0)), std::invalid_argument);  // negative
  EXPECT_THROW(link.finish(0), std::invalid_argument);            // nothing in flight

  link.start(0, util::Bytes(1e6));
  EXPECT_THROW(link.start(0, util::Bytes(1e6)), std::invalid_argument);  // double start
  link.advance_to(0.5);
  EXPECT_THROW(link.advance_to(0.25), std::invalid_argument);  // backwards

  // Every rejected call left the fluid state untouched: the lone flow still
  // owns the whole link and completes exactly on schedule.
  EXPECT_DOUBLE_EQ(link.rate_bytes_per_s(0), 1e6);
  const auto completion = link.next_completion();
  ASSERT_TRUE(completion.has_value());
  EXPECT_DOUBLE_EQ(completion->t, 1.0);
}

// ------------------------- Differential test vs brute-force fluid sim

// Independent max-min implementation (iterative, no sorted order) used only
// by the brute-force reference.
std::vector<double> brute_maxmin(const std::vector<double>& caps, double capacity) {
  std::vector<double> rate(caps.size(), -1.0);
  double remaining = capacity;
  std::size_t unsat = caps.size();
  while (unsat > 0) {
    const double share = remaining / static_cast<double>(unsat);
    bool capped_any = false;
    for (std::size_t i = 0; i < caps.size(); ++i) {
      if (rate[i] < 0.0 && caps[i] > 0.0 && caps[i] <= share) {
        rate[i] = caps[i];
        remaining -= caps[i];
        --unsat;
        capped_any = true;
      }
    }
    if (!capped_any) {
      const double final_share = remaining / static_cast<double>(unsat);
      for (std::size_t i = 0; i < caps.size(); ++i)
        if (rate[i] < 0.0) rate[i] = final_share;
      break;
    }
  }
  return rate;
}

struct Arrival {
  double t = 0.0;
  std::size_t session = 0;
  double bytes = 0.0;
};

// Brute-force fluid simulation: march time in tiny steps, recompute max-min
// shares from scratch each step, interpolate the completion instant. `cap`
// (<= 0: uncapped) limits every flow, as SharedLink's link-wide cap does.
std::vector<double> brute_force_completions(const trace::NetworkTrace& trace,
                                            const std::vector<Arrival>& arrivals,
                                            std::size_t n_sessions, double cap,
                                            double dt) {
  std::vector<double> completion(n_sessions, -1.0);
  std::vector<double> remaining(n_sessions, 0.0);
  std::vector<bool> active(n_sessions, false);
  std::vector<double> caps(n_sessions, 0.0);
  std::size_t next_arrival = 0;
  std::size_t done = 0;
  double t = 0.0;
  while (done < arrivals.size()) {
    while (next_arrival < arrivals.size() &&
           arrivals[next_arrival].t <= t + 1e-12) {
      const Arrival& a = arrivals[next_arrival++];
      remaining[a.session] = a.bytes;
      caps[a.session] = cap;
      active[a.session] = true;
    }
    std::vector<double> act_caps;
    std::vector<std::size_t> act_ids;
    for (std::size_t s = 0; s < n_sessions; ++s) {
      if (active[s]) {
        act_caps.push_back(caps[s]);
        act_ids.push_back(s);
      }
    }
    if (!act_ids.empty()) {
      const double capacity = trace.throughput_at(t) * 1e6 / 8.0;
      const std::vector<double> rates = brute_maxmin(act_caps, capacity);
      for (std::size_t i = 0; i < act_ids.size(); ++i) {
        const std::size_t s = act_ids[i];
        const double drained = rates[i] * dt;
        if (drained >= remaining[s]) {
          completion[s] = t + remaining[s] / rates[i];
          remaining[s] = 0.0;
          active[s] = false;
          ++done;
        } else {
          remaining[s] -= drained;
        }
      }
    }
    t += dt;
  }
  return completion;
}

// Event-driven completions using SharedLink directly (the engine's loop in
// miniature, without clients).
std::vector<double> link_completions(const trace::NetworkTrace& trace,
                                     const std::vector<Arrival>& arrivals,
                                     std::size_t n_sessions, double cap) {
  std::vector<double> completion(n_sessions, -1.0);
  SharedLink link(trace, n_sessions, util::BytesPerSec(cap));
  std::size_t next_arrival = 0;
  std::size_t done = 0;
  while (done < arrivals.size()) {
    const double t_arrival = next_arrival < arrivals.size()
                                 ? arrivals[next_arrival].t
                                 : std::numeric_limits<double>::infinity();
    const auto comp = link.next_completion();
    const double t_completion =
        comp ? comp->t : std::numeric_limits<double>::infinity();
    const double t_capacity = link.next_capacity_change();
    const double t_next = std::min({t_arrival, t_completion, t_capacity});
    link.advance_to(t_next);
    if (comp && t_completion <= t_next) {
      completion[comp->session] = t_next;
      link.finish(comp->session);
      ++done;
    } else if (t_arrival <= t_next) {
      const Arrival& a = arrivals[next_arrival++];
      link.start(a.session, util::Bytes(a.bytes));
    }
    // Capacity changes need no explicit handling: advance_to recomputed the
    // rate.
  }
  return completion;
}

TEST(SharedLinkDifferentialTest, MatchesBruteForceFluidSimulation) {
  // A deliberately bumpy capacity trace and staggered flows of mixed sizes.
  std::vector<trace::ThroughputSample> samples;
  const double rates_mbps[] = {6.0, 2.5, 9.0, 4.0, 3.0, 8.0, 2.4, 5.0};
  for (std::size_t i = 0; i < 40; ++i)
    samples.push_back({static_cast<double>(i) * 0.5, rates_mbps[i % 8]});
  const trace::NetworkTrace trace(std::move(samples));

  const std::vector<Arrival> arrivals = {
      {0.00, 0, 8.0e5}, {0.20, 1, 3.0e5}, {0.45, 2, 6.0e5},
      {1.10, 3, 2.0e5}, {1.30, 4, 9.0e5}, {2.75, 5, 1.5e5},
  };
  const std::size_t n = 6;

  // Uncapped, then a 2e5 B/s cap that binds whenever few flows share the
  // 0.3-1.1e6 B/s link and lifts when many do.
  std::vector<double> makespans;
  for (const double cap : {0.0, 2e5}) {
    const std::vector<double> expected =
        brute_force_completions(trace, arrivals, n, cap, 2e-4);
    const std::vector<double> actual = link_completions(trace, arrivals, n, cap);
    for (std::size_t s = 0; s < n; ++s) {
      ASSERT_GE(actual[s], 0.0) << "cap " << cap << " session " << s
                                << " never completed";
      EXPECT_NEAR(actual[s], expected[s], 5e-3) << "cap " << cap << " session " << s;
    }
    makespans.push_back(*std::max_element(actual.begin(), actual.end()));
  }
  // The cap really binds: it delays the last completion.
  EXPECT_GT(makespans[1], makespans[0]);
}

// A lone flow is the paper's single client on its trace: it completes once
// the trace has delivered its bytes, across the trace's wrap and when it
// starts past the trace end too.
TEST(SharedLinkTest, OneFlowInvertsBytesInAcrossTheWrap) {
  const trace::NetworkTrace trace({{0.0, 4.0}, {1.0, 8.0}, {2.0, 2.0}});
  for (const double t0 : {0.3, 2.5, 2.9999, 3.0, 7.1}) {
    for (const double span : {0.5, 1.7, 4.0, 9.3}) {
      const std::vector<double> completion = link_completions(
          trace, {{t0, 0, trace.bytes_in(t0, t0 + span)}}, /*n_sessions=*/1,
          /*cap=*/0.0);
      EXPECT_NEAR(completion[0] - t0, span, 1e-6) << "t0 " << t0 << " span " << span;
    }
  }
}

TEST(SharedLinkDifferentialTest, RandomizedSmallCases) {
  util::Rng rng(1234);
  for (int iteration = 0; iteration < 10; ++iteration) {
    std::vector<trace::ThroughputSample> samples;
    for (std::size_t i = 0; i < 30; ++i)
      samples.push_back({static_cast<double>(i), rng.uniform(2.0, 9.0)});
    const trace::NetworkTrace trace(std::move(samples));

    const std::size_t n = 2 + rng.uniform_index(4);
    // Half the links are uncapped; the rest carry a cap that binds once the
    // fair share climbs above it.
    const double cap = rng.bernoulli(0.5) ? rng.uniform(1e5, 6e5) : 0.0;
    std::vector<Arrival> arrivals;
    double t = 0.0;
    for (std::size_t s = 0; s < n; ++s) {
      Arrival a;
      a.t = t;
      a.session = s;
      a.bytes = rng.uniform(1e5, 8e5);
      arrivals.push_back(a);
      t += rng.uniform(0.0, 0.8);
    }

    const std::vector<double> expected =
        brute_force_completions(trace, arrivals, n, cap, 2e-4);
    const std::vector<double> actual = link_completions(trace, arrivals, n, cap);
    for (std::size_t s = 0; s < n; ++s)
      EXPECT_NEAR(actual[s], expected[s], 5e-3)
          << "iteration " << iteration << " cap " << cap << " session " << s;
  }
}

// ------------------------------------------------------------ FleetEngine

struct FleetFixture {
  FleetFixture() {
    static const trace::VideoInfo video = [] {
      trace::VideoInfo v = trace::test_videos()[1];  // focused video
      v.duration_s = 20.0;
      return v;
    }();
    static const sim::VideoWorkload shared_workload(video, sim::WorkloadConfig{});
    workload = &shared_workload;
  }
  const sim::VideoWorkload* workload;
};

// simulate_session is a fleet of one, so run_fleet's lone session
// reproduces it bitwise: one driver, one integrator.
TEST(FleetEngineTest, FleetOfOneReproducesSimulateSession) {
  const FleetFixture fixture;
  static const sim::VideoWorkload exploratory = [] {
    trace::VideoInfo v = trace::test_videos()[5];
    v.duration_s = 20.0;
    return sim::VideoWorkload(v, sim::WorkloadConfig{});
  }();
  ASSERT_TRUE(fixture.workload->video().focused);
  ASSERT_FALSE(exploratory.video().focused);
  const auto traces = trace::make_paper_traces(/*seed=*/7, util::Seconds(300.0));
  const sim::SessionConfig session_config;

  for (const sim::VideoWorkload* workload : {fixture.workload, &exploratory}) {
    for (const trace::NetworkTrace* network : {&traces.first, &traces.second}) {
      for (const sim::SchemeKind scheme : sim::registered_schemes()) {
        SCOPED_TRACE(sim::scheme_name(scheme) + " video " +
                     std::to_string(workload->video().id) +
                     (network == &traces.first ? " trace 1" : " trace 2"));
        const sim::SessionResult solo = sim::simulate_session(
            *workload, /*test_user=*/0, scheme, *network, session_config);

        FleetConfig config;
        config.sessions = 1;
        config.start_spread_s = 0.0;  // align the lone session with t = 0
        config.seed = session_config.seed;
        config.scheme = scheme;
        config.session = session_config;
        const FleetResult fleet = run_fleet(*workload, *network, config);

        ASSERT_EQ(fleet.sessions.size(), 1u);
        test::expect_bit_identical(fleet.sessions[0].result, solo);
      }
    }
  }
}

// The engine's first-test-user argument is the one input simulate_session
// adds: session u must plan exactly what a fresh client plans on user u's
// head trace when fed the recorded download times.
TEST(FleetEngineTest, SimulateSessionReplaysTheRequestedUser) {
  const FleetFixture fixture;
  const sim::VideoWorkload& workload = *fixture.workload;
  const std::size_t user = 5;
  ASSERT_LT(user, workload.test_user_count());
  const auto traces = trace::make_paper_traces(/*seed=*/7, util::Seconds(300.0));
  const sim::SessionConfig session_config;
  const sim::SchemeKind scheme = sim::SchemeKind::kOurs;
  const sim::SessionResult result =
      sim::simulate_session(workload, user, scheme, traces.second, session_config);
  // User 0 watches differently, so replaying the wrong user would show.
  EXPECT_NE(result.total_bytes,
            sim::simulate_session(workload, 0, scheme, traces.second, session_config)
                .total_bytes);

  const sim::SessionAccountant accountant(workload, user, scheme, session_config);
  sim::StreamingClient client(session_config, workload, accountant.scheme(),
                              workload.test_trace(user));
  ASSERT_EQ(result.segments.size(), workload.segment_count());
  for (const sim::SegmentRecord& segment : result.segments) {
    SCOPED_TRACE("segment " + std::to_string(segment.index));
    client.begin_plan();
    const core::QualityOption option = client.finish_plan().plan.option;
    EXPECT_EQ(option.quality, segment.quality);
    EXPECT_EQ(option.frame_index, segment.frame_index);
    EXPECT_EQ(option.bytes, segment.bytes);
    client.complete_download(util::Seconds(segment.download_s));
  }
  EXPECT_TRUE(client.finished());
}

TEST(FleetEngineTest, DeterministicAcrossRuns) {
  const FleetFixture fixture;
  const auto traces = trace::make_paper_traces(/*seed=*/11, util::Seconds(300.0));

  FleetConfig config;
  config.sessions = 6;
  config.seed = 99;
  const FleetResult a = run_fleet(*fixture.workload, traces.second, config);
  const FleetResult b = run_fleet(*fixture.workload, traces.second, config);
  ASSERT_EQ(a.sessions.size(), b.sessions.size());
  for (std::size_t i = 0; i < a.sessions.size(); ++i) {
    EXPECT_EQ(a.sessions[i].result.energy.total_mj(),
              b.sessions[i].result.energy.total_mj());
    EXPECT_EQ(a.sessions[i].result.qoe.mean_q, b.sessions[i].result.qoe.mean_q);
    EXPECT_EQ(a.sessions[i].finish_s, b.sessions[i].finish_s);
  }
  EXPECT_EQ(a.stats.events, b.stats.events);
}

TEST(FleetEngineTest, EventQueueDoesNotGrowAtSteadyState) {
  const FleetFixture fixture;
  const auto traces = trace::make_paper_traces(/*seed=*/3, util::Seconds(300.0));

  FleetConfig config;
  config.sessions = 8;
  const FleetResult fleet = run_fleet(*fixture.workload, traces.second, config);
  // The event queue must live entirely inside its up-front reservation:
  // steady state performs zero allocations in the hot path.
  EXPECT_EQ(fleet.stats.queue_grow_events, 0u);
  EXPECT_GT(fleet.stats.events, 0u);
  EXPECT_LE(fleet.stats.queue_peak, 8u * config.sessions + 64u);
}

TEST(FleetEngineTest, ContentionStretchesDownloadsAndStalls) {
  const FleetFixture fixture;
  const auto traces = trace::make_paper_traces(/*seed=*/5, util::Seconds(300.0));
  const trace::NetworkTrace& network = traces.second;  // 3.9 Mbps mean

  FleetConfig config;
  config.start_spread_s = 0.5;
  config.sessions = 1;
  const double segment_s = fixture.workload->config().segment_seconds;
  const FleetMetrics alone = run_fleet(*fixture.workload, network, config).metrics(segment_s);
  config.sessions = 8;
  const FleetMetrics crowded =
      run_fleet(*fixture.workload, network, config).metrics(segment_s);

  // Eight MPC clients on the same 3.9 Mbps bottleneck each see a fraction of
  // the link: downloads stretch and the stall ratio cannot improve.
  EXPECT_GT(crowded.mean_download_s, alone.mean_download_s);
  EXPECT_GE(crowded.stall_ratio, alone.stall_ratio);
}

// ------------------------------------------------ non-finite config fields

// Unchecked, a non-finite duration, delay or rate hangs run_fleet (event
// times reach inf, and the capacity-change event keeps rescheduling itself
// every trace second) or is absorbed silently (a NaN access cap runs
// uncapped, an infinite spike fails every attempt). Each must throw from
// run_fleet with a message naming the field.
struct NonFiniteField {
  const char* field;
  void (*set)(FleetConfig&);
};

// Prints the field name, which keeps the discovered ctest names stable.
void PrintTo(const NonFiniteField& param, std::ostream* out) { *out << param.field; }

// Runs `run` and requires an std::invalid_argument whose message contains
// `expected` (the field's name).
void expect_throw_naming(const std::function<void()>& run, const std::string& expected) {
  try {
    run();
    ADD_FAILURE() << "accepted an invalid config; expected: " << expected;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(expected), std::string::npos) << e.what();
  }
}

class NonFiniteConfigTest : public ::testing::TestWithParam<NonFiniteField> {};

TEST_P(NonFiniteConfigTest, RunFleetThrowsNamingTheField) {
  const FleetFixture fixture;
  const auto traces = trace::make_paper_traces(/*seed=*/9, util::Seconds(300.0));
  FleetConfig config;
  config.sessions = 4;
  // Fault injection and the server tier are on, so every field below is read.
  config.session.faults.enabled = true;
  config.server.enabled = true;
  GetParam().set(config);
  expect_throw_naming([&] { run_fleet(*fixture.workload, traces.second, config); },
                      std::string(GetParam().field) + " must be finite");
}

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

INSTANTIATE_TEST_SUITE_P(
    EveryField, NonFiniteConfigTest,
    ::testing::Values(
        NonFiniteField{"start_spread_s", [](FleetConfig& c) { c.start_spread_s = kInf; }},
        NonFiniteField{"access_cap_mbps", [](FleetConfig& c) { c.access_cap_mbps = kNaN; }},
        NonFiniteField{"origin_mbps", [](FleetConfig& c) { c.server.origin_mbps = kInf; }},
        NonFiniteField{"timeout_s",
                       [](FleetConfig& c) { c.session.recovery.timeout_s = kInf; }},
        NonFiniteField{"backoff_base_s",
                       [](FleetConfig& c) { c.session.recovery.backoff_base_s = kInf; }},
        NonFiniteField{"outage_spacing_s",
                       [](FleetConfig& c) { c.session.faults.outage_spacing_s = kNaN; }},
        NonFiniteField{"outage_mean_s",
                       [](FleetConfig& c) { c.session.faults.outage_mean_s = kInf; }},
        NonFiniteField{"outage_max_s",
                       [](FleetConfig& c) { c.session.faults.outage_max_s = kInf; }},
        NonFiniteField{"spike_mean_s",
                       [](FleetConfig& c) { c.session.faults.spike_mean_s = kInf; }}),
    [](const ::testing::TestParamInfo<NonFiniteField>& param) {
      return std::string(param.param.field);
    });

// ---------------------------------------------- invalid SessionConfig fields

// Unchecked, each of these is absorbed silently (a coverage floor above 1
// means Ours never picks a Ptile; an infinite bandwidth prior changes the
// plans; an infinite QoE weight makes the session QoE NaN) or fails far from
// its cause (an infinite buffer threshold throws from a vector resize, a tiny
// buffer quantum from the DP's allocation, an infinite stall penalty from the
// MPC's internal assert). The session accountant, which the fleet engine
// builds for every session, rejects each through validated() with a message
// naming the field.
struct InvalidSessionField {
  const char* field;
  void (*set)(sim::SessionConfig&);
};

void PrintTo(const InvalidSessionField& param, std::ostream* out) { *out << param.field; }

class InvalidSessionConfigTest : public ::testing::TestWithParam<InvalidSessionField> {};

TEST_P(InvalidSessionConfigTest, SimulateSessionThrowsNamingTheField) {
  const FleetFixture fixture;
  const auto traces = trace::make_paper_traces(/*seed=*/9, util::Seconds(300.0));
  sim::SessionConfig config;
  GetParam().set(config);
  expect_throw_naming(
      [&] {
        sim::simulate_session(*fixture.workload, 0, sim::SchemeKind::kOurs, traces.second,
                              config);
      },
      GetParam().field);
}

INSTANTIATE_TEST_SUITE_P(
    EveryField, InvalidSessionConfigTest,
    ::testing::Values(
        InvalidSessionField{"ptile_min_coverage",
                            [](sim::SessionConfig& c) { c.ptile_min_coverage = 2.0; }},
        InvalidSessionField{"initial_bandwidth_bytes_per_s",
                            [](sim::SessionConfig& c) {
                              c.initial_bandwidth_bytes_per_s = kInf;
                            }},
        InvalidSessionField{"mpc.buffer_threshold_s",
                            [](sim::SessionConfig& c) { c.mpc.buffer_threshold_s = kInf; }},
        // Passes 0 < q <= β, but asks the DP for ~4e9 buffer states.
        InvalidSessionField{"mpc.buffer_quantum_s",
                            [](sim::SessionConfig& c) { c.mpc.buffer_quantum_s = 1e-9; }},
        // Each passes a >= 0 check; the first ∞ × 0 then makes a NaN.
        InvalidSessionField{"mpc.stall_penalty_per_s",
                            [](sim::SessionConfig& c) { c.mpc.stall_penalty_per_s = kInf; }},
        InvalidSessionField{"mpc.weights.variation",
                            [](sim::SessionConfig& c) { c.mpc.weights.variation = kInf; }},
        InvalidSessionField{"mpc.weights.rebuffer",
                            [](sim::SessionConfig& c) { c.mpc.weights.rebuffer = kInf; }},
        // Each passes the predictor's > 0 or >= 0 check and runs: an infinite
        // ridge penalty or history window moves every prediction.
        InvalidSessionField{"predictor.history_seconds",
                            [](sim::SessionConfig& c) { c.predictor.history_seconds = kInf; }},
        InvalidSessionField{"predictor.lambda",
                            [](sim::SessionConfig& c) { c.predictor.lambda = kInf; }},
        // Zero leaves the MPC an empty horizon.
        InvalidSessionField{"mpc_horizon", [](sim::SessionConfig& c) { c.mpc_horizon = 0; }},
        // The recovery policy, checked for every session whether or not
        // faults are on.
        InvalidSessionField{"recovery.max_attempts",
                            [](sim::SessionConfig& c) { c.recovery.max_attempts = 0; }},
        // Above the 4 s cap, so no backoff could be as long as its base.
        InvalidSessionField{"recovery.backoff_base_s",
                            [](sim::SessionConfig& c) { c.recovery.backoff_base_s = 5.0; }},
        InvalidSessionField{"recovery.backoff_jitter",
                            [](sim::SessionConfig& c) { c.recovery.backoff_jitter = 1.0; }}),
    [](const ::testing::TestParamInfo<InvalidSessionField>& param) {
      std::string name = param.param.field;
      std::replace_if(
          name.begin(), name.end(), [](char ch) { return ch == '.' || ch == ':'; }, '_');
      return name;
    });

TEST(InvalidSessionConfigFleetTest, RunFleetThrowsNamingTheField) {
  const FleetFixture fixture;
  const auto traces = trace::make_paper_traces(/*seed=*/9, util::Seconds(300.0));
  FleetConfig config;
  config.sessions = 2;
  config.session.ptile_min_coverage = kNaN;
  expect_throw_naming([&] { run_fleet(*fixture.workload, traces.second, config); },
                      "ptile_min_coverage");
}

// Rejected calls are invisible to an attached observer: run_fleet writes
// every metric and trace record, and only after every session is built, so
// a config it rejects leaves the registry and the tracer empty — dashboards
// built on them never count work that did not happen.
TEST(FleetEngineTest, MisuseEmitsNoObservation) {
  const FleetFixture fixture;
  const auto traces = trace::make_paper_traces(/*seed=*/9, util::Seconds(300.0));
  obs::MetricsRegistry metrics;
  obs::EventTracer tracer(256);
  obs::Observer observer{&metrics, &tracer};
  FleetConfig config;
  config.sessions = 2;
  config.observer = &observer;
  config.session.recovery.timeout_s = kNaN;
  EXPECT_THROW(run_fleet(*fixture.workload, traces.second, config), std::invalid_argument);
  EXPECT_EQ(metrics.size(), 0u);
  EXPECT_EQ(tracer.recorded(), 0u);
}

// finish() aggregates the records (sim::aggregate_segments), so it needs
// every segment: fed a session's own download times it reproduces the
// session bit for bit, and one segment short it throws instead of dividing
// the sums by the workload's segment count.
TEST(SessionAccountantTest, FinishRequiresEverySegment) {
  const FleetFixture fixture;
  const sim::VideoWorkload& workload = *fixture.workload;
  const auto traces = trace::make_paper_traces(/*seed=*/7, util::Seconds(300.0));
  const sim::SessionConfig config;
  const sim::SessionResult session =
      sim::simulate_session(workload, 0, sim::SchemeKind::kOurs, traces.second, config);
  const auto replay = [&](std::size_t segments) {
    sim::SessionAccountant accountant(workload, 0, sim::SchemeKind::kOurs, config);
    sim::StreamingClient client(config, workload, accountant.scheme(), workload.test_trace(0));
    for (std::size_t k = 0; k < segments; ++k) {
      client.begin_plan();
      const sim::ClientRequest request = client.finish_plan();
      const util::Seconds download(session.segments[k].download_s);
      const double stall = client.complete_download(download);
      accountant.record(request, download, util::Seconds(stall));
    }
    return accountant.finish();
  };
  test::expect_bit_identical(replay(workload.segment_count()), session);
  expect_throw_naming([&] { replay(workload.segment_count() - 1); },
                      "finish() after 19 of the session's 20 segments");
}

// ------------------------------------------------------------ Fleet golden

// Pins run_fleet's output across commits: the battery in fleet_shard_test
// compares two runs of one build, so it cannot see a refactor that moves
// every run the same way. tests/data/fleet_golden.csv holds, per config,
// every FleetStats field and each session's energy, QoE, stall, bytes and
// finish time as precision-17 values (exact round trip), one
// `config,key,value` line each; observed configs add the metrics JSON
// verbatim and the trace's record count, drop count and FNV-1a-64 digest,
// so an observer byte that moves in every run alike (a trace stamp's last
// bit, say) shows too. To regenerate deliberately, run
// fleet_test --gtest_filter='FleetGoldenTest.*' with the environment
// variable PS360_FLEET_GOLDEN_OUT=tests/data/fleet_golden.csv and review the
// diff: any moved line is an output change.
std::string golden_number(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

void append_golden_lines(const std::string& name, const FleetResult& result,
                         std::vector<std::string>& lines) {
  const auto line = [&](const std::string& key, const std::string& value) {
    lines.push_back(name + "," + key + "," + value);
  };
  const FleetStats& s = result.stats;
  line("events", std::to_string(s.events));
  line("stale_completions", std::to_string(s.stale_completions));
  line("flow_aborts", std::to_string(s.flow_aborts));
  line("queue_grow_events", std::to_string(s.queue_grow_events));
  line("queue_peak", std::to_string(s.queue_peak));
  line("reallocations", std::to_string(s.reallocations));
  line("makespan_s", golden_number(s.makespan_s));
  line("delivered_bytes", golden_number(s.delivered_bytes.value()));
  line("offered_bytes", golden_number(s.offered_bytes.value()));
  line("plan_cache_hits", std::to_string(s.plan_cache_hits));
  line("plan_cache_misses", std::to_string(s.plan_cache_misses));
  line("cache_hits", std::to_string(s.cache_hits));
  line("cache_misses", std::to_string(s.cache_misses));
  line("cache_evictions", std::to_string(s.cache_evictions));
  line("cache_insertions", std::to_string(s.cache_insertions));
  line("cache_entries", std::to_string(s.cache_entries));
  line("cache_resident", golden_number(s.cache_resident.value()));
  line("origin_flows", std::to_string(s.origin_flows));
  line("origin_bytes", golden_number(s.origin_bytes.value()));
  for (const FleetSessionResult& session : result.sessions) {
    const std::string prefix = "session." + std::to_string(session.session) + ".";
    line(prefix + "energy_mj", golden_number(session.result.energy.total_mj()));
    line(prefix + "qoe", golden_number(session.result.qoe.mean_q));
    line(prefix + "stall_s", golden_number(session.result.total_stall_s));
    line(prefix + "bytes", golden_number(session.result.total_bytes));
    line(prefix + "finish_s", golden_number(session.finish_s));
  }
}

// FNV-1a, 64-bit: a fixed digest of the trace JSONL bytes.
std::string fnv1a64_hex(const std::string& bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const unsigned char c : bytes) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(hash));
  return buffer;
}

void append_observer_lines(const std::string& name, const obs::MetricsRegistry& metrics,
                           const obs::EventTracer& tracer,
                           std::vector<std::string>& lines) {
  std::ostringstream jsonl;
  tracer.export_jsonl(jsonl);
  lines.push_back(name + ",metrics_json," + metrics.to_json());
  lines.push_back(name + ",trace_records," + std::to_string(tracer.recorded()));
  lines.push_back(name + ",trace_dropped," + std::to_string(tracer.dropped()));
  lines.push_back(name + ",trace_fnv1a64," + fnv1a64_hex(jsonl.str()));
}

// Small fleets over the paper's trace 2 scaled to the fleet: clean and
// uncapped; a binding access cap; hostile faults with the server tier (a
// starved edge cache and a short deadline, so misses, evictions, origin
// flows and aborts on both links all happen); an observer attached at
// shards = 4; the hostile fleet observed at shards = 3; GhoshLP's hostile
// fleet and a Ctile fleet observed at shards = 3, so every solver kind's
// records are pinned; and one clean four-session fleet per other registered
// scheme, so a change to any controller's plans moves a line here, not only
// the default scheme's.
std::vector<std::string> golden_lines() {
  const FleetFixture fixture;
  const auto traces = trace::make_paper_traces(/*seed=*/17, util::Seconds(300.0));
  std::vector<std::string> lines;
  const auto run = [&](const std::string& name, const FleetConfig& config) {
    const trace::NetworkTrace link =
        traces.second.scaled(static_cast<double>(config.sessions));
    append_golden_lines(name, run_fleet(*fixture.workload, link, config), lines);
  };

  FleetConfig clean;
  clean.sessions = 6;
  clean.seed = 101;
  run("clean", clean);

  FleetConfig capped = clean;
  capped.seed = 102;
  capped.access_cap_mbps = 2.0;  // below the ~3.9 Mbps per-session share
  run("capped", capped);

  FleetConfig hostile = clean;
  hostile.seed = 103;
  hostile.session.faults.enabled = true;
  hostile.session.faults.outage_spacing_s = 5.0;
  hostile.session.faults.outage_mean_s = 0.5;
  hostile.session.faults.outage_max_s = 2.0;
  hostile.session.faults.loss_probability = 0.15;
  hostile.session.faults.spike_probability = 0.2;
  hostile.server.enabled = true;
  hostile.server.catalog = {/*videos=*/3, /*alpha=*/0.8};
  hostile.server.cache_capacity = util::Bytes(512.0 * 1024.0);
  hostile.server.origin_mbps = 6.0;
  hostile.session.recovery.timeout_s = 1.0;  // short enough to abort flows
  run("hostile_server", hostile);

  // The tracer holds every record (trace_dropped pins 0).
  const auto run_observed = [&](const std::string& name, FleetConfig config) {
    obs::MetricsRegistry metrics;
    obs::EventTracer tracer(1 << 16);
    obs::Observer observer{&metrics, &tracer};
    config.observer = &observer;
    run(name, config);
    append_observer_lines(name, metrics, tracer, lines);
  };

  FleetConfig observed = clean;
  observed.seed = 104;
  observed.shards = 4;
  run_observed("observed_shards4", observed);

  FleetConfig observed_hostile = hostile;
  observed_hostile.seed = 105;
  observed_hostile.shards = 3;
  run_observed("observed_hostile_shards3", observed_hostile);

  // One observed config per solver kind beside Ours' energy MPC: the LP
  // allocator on the hostile path (its plans, degraded replans and faults),
  // and the max-QoE MPC with arrivals spread over 20 s, so early sessions
  // have the link to themselves, rise above β and wait.
  FleetConfig observed_lp = hostile;
  observed_lp.scheme = sim::SchemeKind::kGhoshLp;
  observed_lp.seed = 114;
  observed_lp.shards = 3;
  run_observed("observed_ghoshlp_hostile_shards3", observed_lp);

  FleetConfig observed_ctile = clean;
  observed_ctile.scheme = sim::SchemeKind::kCtile;
  observed_ctile.seed = 115;
  observed_ctile.start_spread_s = 20.0;
  observed_ctile.shards = 3;
  run_observed("observed_ctile_shards3", observed_ctile);

  for (const sim::SchemeKind scheme : sim::registered_schemes()) {
    if (scheme == clean.scheme) continue;
    FleetConfig per_scheme = clean;
    per_scheme.scheme = scheme;
    per_scheme.sessions = 4;
    per_scheme.seed = 106 + static_cast<std::uint64_t>(scheme);
    run("scheme_" + sim::scheme_name(scheme), per_scheme);
  }
  return lines;
}

TEST(FleetGoldenTest, OutputMatchesCheckedInGolden) {
  const std::vector<std::string> actual = golden_lines();
  if (const char* out = std::getenv("PS360_FLEET_GOLDEN_OUT")) {
    std::ofstream file(out);
    file << "config,key,value\n";
    for (const std::string& line : actual) file << line << "\n";
  }

  const std::filesystem::path golden_path =
      std::filesystem::path(PS360_TEST_DATA_DIR) / "fleet_golden.csv";
  std::ifstream in(golden_path);
  ASSERT_TRUE(in.good()) << "cannot open " << golden_path;
  std::vector<std::string> expected;
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header, "config,key,value");
  for (std::string line; std::getline(in, line);) expected.push_back(line);

  // Line by line, so a drift names the config, the field and both values.
  const std::size_t common = std::min(expected.size(), actual.size());
  for (std::size_t i = 0; i < common; ++i)
    EXPECT_EQ(actual[i], expected[i]) << "fleet golden drift at line " << (i + 2);
  EXPECT_EQ(actual.size(), expected.size())
      << "row count changed (golden " << expected.size() << " rows, actual "
      << actual.size() << ")";
}

// ------------------------------------------------------------ FleetRunner

TEST(FleetRunnerTest, ThreadCountInvariance) {
  const FleetFixture fixture;

  FleetConfig config;
  config.sessions = 4;
  config.seed = 2024;
  FleetRunOptions options;
  options.replications = 4;
  options.link.duration_s = 300.0;

  const std::vector<FleetResult> serial = [&] {
    const test::ScopedThreadsEnv env("1");
    return run_fleet_replications(*fixture.workload, config, options);
  }();
  const test::ScopedThreadsEnv unset(nullptr);
  const std::vector<FleetResult> parallel =
      run_fleet_replications(*fixture.workload, config, options);

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t r = 0; r < serial.size(); ++r) {
    ASSERT_EQ(serial[r].sessions.size(), parallel[r].sessions.size());
    for (std::size_t i = 0; i < serial[r].sessions.size(); ++i) {
      // Bit-identical, not merely close: determinism is a hard contract.
      EXPECT_EQ(serial[r].sessions[i].result.energy.total_mj(),
                parallel[r].sessions[i].result.energy.total_mj());
      EXPECT_EQ(serial[r].sessions[i].result.qoe.mean_q,
                parallel[r].sessions[i].result.qoe.mean_q);
      EXPECT_EQ(serial[r].sessions[i].finish_s, parallel[r].sessions[i].finish_s);
    }
  }

  const double segment_s = fixture.workload->config().segment_seconds;
  const FleetAggregate agg_serial = aggregate_fleet(serial, segment_s);
  const FleetAggregate agg_parallel = aggregate_fleet(parallel, segment_s);
  EXPECT_EQ(agg_serial.metrics.energy_per_session_mj,
            agg_parallel.metrics.energy_per_session_mj);
  EXPECT_EQ(agg_serial.metrics.mean_qoe, agg_parallel.metrics.mean_qoe);
  EXPECT_EQ(agg_serial.metrics.stall_ratio, agg_parallel.metrics.stall_ratio);
  EXPECT_EQ(agg_serial.metrics.p95_energy_mj, agg_parallel.metrics.p95_energy_mj);
}

// An observed run reports each engine figure twice: in the pooled FleetStats
// and in the merged registry. Both add counters across replications and
// take the max of peaks and end-of-run levels (queue_peak, makespan_s, cache
// entries and resident bytes), so every fleet.* and server.* value with a
// FleetStats counterpart equals the pooled field.
TEST(FleetRunnerTest, PooledStatsMatchMergedMetrics) {
  const FleetFixture fixture;
  obs::MetricsRegistry metrics;
  obs::Observer observer{&metrics, nullptr};
  FleetConfig config;
  config.sessions = 6;
  config.seed = 77;
  config.server.enabled = true;
  config.observer = &observer;
  FleetRunOptions options;
  options.replications = 3;
  options.link.duration_s = 300.0;
  const FleetStats stats = run_fleet_aggregate(*fixture.workload, config, options).stats;
  ASSERT_GT(stats.cache_entries, 0u);

  const std::pair<const char*, double> pooled[] = {
      {"fleet.events", static_cast<double>(stats.events)},
      {"fleet.stale_completions", static_cast<double>(stats.stale_completions)},
      {"fleet.reallocations", static_cast<double>(stats.reallocations)},
      {"fleet.flow_aborts", static_cast<double>(stats.flow_aborts)},
      {"fleet.delivered_bytes", stats.delivered_bytes.value()},
      {"fleet.queue_grow_events", static_cast<double>(stats.queue_grow_events)},
      {"fleet.queue_peak", static_cast<double>(stats.queue_peak)},
      {"fleet.makespan_s", stats.makespan_s},
      {"server.cache_hits", static_cast<double>(stats.cache_hits)},
      {"server.cache_misses", static_cast<double>(stats.cache_misses)},
      {"server.cache_evictions", static_cast<double>(stats.cache_evictions)},
      {"server.origin_flows", static_cast<double>(stats.origin_flows)},
      {"server.origin_bytes", stats.origin_bytes.value()},
      {"server.cache_entries", static_cast<double>(stats.cache_entries)},
      {"server.cache_resident_bytes", stats.cache_resident.value()},
  };
  for (const auto& [name, value] : pooled) EXPECT_EQ(metrics.value(name), value) << name;
}

}  // namespace
}  // namespace ps360::fleet
