// Differential battery for the sharded fleet engine (DESIGN.md §15).
//
// The contract under test: for EVERY FleetConfig, the sharded engine is
// bit-identical to the serial engine — same FleetStats, same per-session
// SessionResults, same observability output — for ANY shard count and any
// PS360_THREADS. Sharding may only change wall-clock time, never results.
//
// Layout (names are load-bearing for CI):
//  * ShardedFleetBatteryTest.* — the heavy randomized differential battery
//    (200+ seeded configs across fleet sizes 1–512, faults on/off, server
//    tier on/off, access caps, every scheme). Runs in the regular
//    Debug/Release ctest legs only: the name deliberately
//    avoids the TSan leg's filter so the sanitizer budget is spent on the
//    thread-shaped tests below, not on hundreds of serial re-runs.
//  * FleetShardTest.* — light tests that actually exercise worker threads,
//    the engine's task group of solves on the worker pool (the
//    SolvePool* cases, util::TaskGroup as run_fleet drives it) and the
//    PS360_THREADS override. These ARE matched by the TSan ctest filter
//    (-R ...|FleetShard), so every cross-thread handoff in the speculative
//    path runs under ThreadSanitizer in CI.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "fleet/engine.h"
#include "obs/metrics.h"
#include "obs/observer.h"
#include "obs/tracer.h"
#include "sim/schemes.h"
#include "sim/workload.h"
#include "trace/video_catalog.h"
#include "util/rng.h"
#include "util/units.h"
#include "util/worker_pool.h"

#include "test_support.h"

namespace ps360::fleet {
namespace {

// Short video so a 200-config battery stays inside the ctest budget; the
// engine code paths (contention, retries, cache admissions) do not depend
// on video length.
const sim::VideoWorkload& battery_workload() {
  static const trace::VideoInfo video = [] {
    trace::VideoInfo v = trace::test_videos()[1];
    v.duration_s = 8.0;
    return v;
  }();
  static const sim::VideoWorkload workload(video, sim::WorkloadConfig{});
  return workload;
}

// Bitwise equality of everything run_fleet returns. EXPECT_EQ on doubles is
// deliberate: the sharded engine must replay the exact same floating-point
// operations in the exact same order, so tolerances would mask bugs.
void expect_bit_identical(const FleetResult& a, const FleetResult& b,
                          const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(a.stats.events, b.stats.events);
  EXPECT_EQ(a.stats.stale_completions, b.stats.stale_completions);
  EXPECT_EQ(a.stats.flow_aborts, b.stats.flow_aborts);
  EXPECT_EQ(a.stats.reallocations, b.stats.reallocations);
  // Queue occupancy is shard-count invariant: the coordinator performs the
  // same schedule/pop sequence whatever the worker count.
  EXPECT_EQ(a.stats.queue_peak, b.stats.queue_peak);
  EXPECT_EQ(a.stats.queue_grow_events, b.stats.queue_grow_events);
  EXPECT_EQ(a.stats.makespan_s, b.stats.makespan_s);
  EXPECT_EQ(a.stats.delivered_bytes.value(), b.stats.delivered_bytes.value());
  EXPECT_EQ(a.stats.offered_bytes.value(), b.stats.offered_bytes.value());
  EXPECT_EQ(a.stats.cache_hits, b.stats.cache_hits);
  EXPECT_EQ(a.stats.cache_misses, b.stats.cache_misses);
  EXPECT_EQ(a.stats.cache_evictions, b.stats.cache_evictions);
  EXPECT_EQ(a.stats.cache_insertions, b.stats.cache_insertions);
  EXPECT_EQ(a.stats.cache_entries, b.stats.cache_entries);
  EXPECT_EQ(a.stats.cache_resident.value(), b.stats.cache_resident.value());
  EXPECT_EQ(a.stats.origin_flows, b.stats.origin_flows);
  EXPECT_EQ(a.stats.origin_bytes.value(), b.stats.origin_bytes.value());

  ASSERT_EQ(a.sessions.size(), b.sessions.size());
  for (std::size_t i = 0; i < a.sessions.size(); ++i) {
    SCOPED_TRACE("session " + std::to_string(i));
    const FleetSessionResult& x = a.sessions[i];
    const FleetSessionResult& y = b.sessions[i];
    EXPECT_EQ(x.session, y.session);
    EXPECT_EQ(x.test_user, y.test_user);
    EXPECT_EQ(x.video, y.video);
    EXPECT_EQ(x.start_s, y.start_s);
    EXPECT_EQ(x.finish_s, y.finish_s);
    ASSERT_EQ(x.result.segments.size(), y.result.segments.size());
    for (std::size_t k = 0; k < x.result.segments.size(); ++k) {
      EXPECT_EQ(x.result.segments[k].quality, y.result.segments[k].quality);
      EXPECT_EQ(x.result.segments[k].frame_index,
                y.result.segments[k].frame_index);
      EXPECT_EQ(x.result.segments[k].bytes, y.result.segments[k].bytes);
      EXPECT_EQ(x.result.segments[k].download_s,
                y.result.segments[k].download_s);
      EXPECT_EQ(x.result.segments[k].stall_s, y.result.segments[k].stall_s);
      EXPECT_EQ(x.result.segments[k].buffer_before_s,
                y.result.segments[k].buffer_before_s);
    }
    EXPECT_EQ(x.result.energy.total_mj(), y.result.energy.total_mj());
    EXPECT_EQ(x.result.qoe.mean_q, y.result.qoe.mean_q);
    EXPECT_EQ(x.result.total_stall_s, y.result.total_stall_s);
    EXPECT_EQ(x.result.total_bytes, y.result.total_bytes);
    EXPECT_EQ(x.result.rebuffer_events, y.result.rebuffer_events);
  }
}

// One seeded battery configuration. The distribution deliberately skews
// small (log-uniform fleet sizes) so most iterations are cheap and the tail
// still reaches 512 sessions.
FleetConfig random_config(util::Rng& rng, std::uint64_t seed) {
  FleetConfig config;
  config.seed = seed;
  config.sessions = static_cast<std::size_t>(
      std::exp(rng.uniform(0.0, std::log(512.0))));
  config.sessions = std::max<std::size_t>(config.sessions, 1);
  static constexpr sim::SchemeKind kSchemes[] = {
      sim::SchemeKind::kOurs, sim::SchemeKind::kCtile, sim::SchemeKind::kFtile,
      sim::SchemeKind::kNontile};
  config.scheme = kSchemes[rng.uniform_index(4)];
  config.start_spread_s = rng.uniform(0.0, 2.0);
  config.access_cap_mbps = rng.bernoulli(0.5) ? rng.uniform(2.0, 20.0) : 0.0;
  if (rng.bernoulli(0.35)) {
    // Compress the fault process so an 8 s video actually sees outages,
    // losses, and spikes (retries, deadline aborts, replans).
    config.session.faults.enabled = true;
    config.session.faults.outage_spacing_s = 6.0;
    config.session.faults.outage_mean_s = 0.5;
    config.session.faults.outage_max_s = 2.0;
    config.session.faults.loss_probability = 0.15;
    config.session.faults.spike_probability = 0.2;
  }
  if (rng.bernoulli(0.35)) {
    config.server.enabled = true;
    config.server.catalog = {/*videos=*/1 + rng.uniform_index(8),
                             /*alpha=*/rng.uniform(0.0, 1.2)};
    // Sometimes starve the cache so evictions and repeat misses happen.
    config.server.cache_capacity = util::Bytes(
        rng.bernoulli(0.5) ? 256.0 * 1024.0 : 16.0 * 1024.0 * 1024.0);
    // Formerly the eviction policy; the draw stays so later configs do not
    // shift.
    (void)rng.bernoulli(0.5);
  }
  // Formerly a config toggle; the draw stays so later configs do not shift.
  (void)rng.bernoulli(0.25);
  return config;
}

// Run `count` seeded configs starting at `seed_base`; every config compares
// two speculative runs against serial (shards 2 and 4: every value but 1
// means speculating on the pool, and which solves the coordinator's joins
// run themselves differs from run to run), every fourth additionally
// compares shards=0 and an observer-attached arm whose metrics JSON and
// trace JSONL must also match byte-for-byte.
void run_battery(std::uint64_t seed_base, int count) {
  const sim::VideoWorkload& workload = battery_workload();
  util::Rng rng(seed_base);
  for (int iteration = 0; iteration < count; ++iteration) {
    const std::uint64_t seed = seed_base + static_cast<std::uint64_t>(iteration);
    FleetConfig config = random_config(rng, seed);
    const auto traces =
        trace::make_paper_traces(/*seed=*/seed, util::Seconds(300.0));
    const trace::NetworkTrace& network = traces.second;
    const std::string label =
        "seed " + std::to_string(seed) + " sessions " +
        std::to_string(config.sessions) + " scheme " +
        std::to_string(static_cast<int>(config.scheme)) +
        (config.session.faults.enabled ? " faults" : "") +
        (config.server.enabled ? " server" : "");

    config.shards = 1;
    const FleetResult serial = run_fleet(workload, network, config);

    for (const std::size_t shards : {std::size_t{2}, std::size_t{4}}) {
      config.shards = shards;
      const FleetResult sharded = run_fleet(workload, network, config);
      expect_bit_identical(serial, sharded,
                           label + " shards " + std::to_string(shards));
    }
    if (iteration % 4 == 0) {
      config.shards = 0;  // resolve from PS360_THREADS / hardware concurrency
      const FleetResult sharded = run_fleet(workload, network, config);
      expect_bit_identical(serial, sharded, label + " shards hw");
    }
    if (iteration % 4 == 2 && config.sessions <= 64) {
      // Observer arm: observed plans run on workers too and the coordinator
      // publishes each at its flow start, so emission order — not just
      // aggregate values — must survive sharding byte-for-byte.
      const auto observed = [&](std::size_t shards) {
        obs::MetricsRegistry metrics;
        obs::EventTracer tracer(1 << 16);
        obs::Observer observer{&metrics, &tracer};
        config.shards = shards;
        config.observer = &observer;
        const FleetResult result = run_fleet(workload, network, config);
        config.observer = nullptr;
        std::ostringstream jsonl;
        tracer.export_jsonl(jsonl);
        return std::make_pair(metrics.to_json() + "\n" + jsonl.str(), result);
      };
      const auto base = observed(1);
      const auto arm = observed(3);
      expect_bit_identical(base.second, arm.second, label + " observed");
      EXPECT_EQ(base.first, arm.first) << label << " observed JSON";
    }
  }
}

// Four quarters so ctest -j runs the battery in parallel.
TEST(ShardedFleetBatteryTest, QuarterA) { run_battery(1000, 50); }
TEST(ShardedFleetBatteryTest, QuarterB) { run_battery(2000, 50); }
TEST(ShardedFleetBatteryTest, QuarterC) { run_battery(3000, 50); }
TEST(ShardedFleetBatteryTest, QuarterD) { run_battery(4000, 50); }

// ------------------------------------------------------------ FleetShard
// Thread-shaped tests; the TSan CI leg runs everything below.

// The engine's solves: one task per session on the worker pool, released
// when a nonzero Eq. 6 wait starts and joined at the flow start.
using util::TaskGroup;

TEST(FleetShardTest, SolvePoolRunsEverySolveAndJoins) {
  std::vector<std::atomic<int>> calls(16);
  for (auto& c : calls) c.store(0);
  TaskGroup solves(16, [&calls](std::size_t i) { calls[i].fetch_add(1); });
  for (int round = 0; round < 8; ++round) {
    for (std::size_t i = 0; i < 16; ++i) solves.release(i);
    for (std::size_t i = 0; i < 16; ++i) solves.join(i);
    for (std::size_t i = 0; i < 16; ++i)
      EXPECT_EQ(calls[i].load(), round + 1) << "session " << i;
  }
}

TEST(FleetShardTest, SolvePoolCarriesWritesAcrossTheJoin) {
  // The join must publish arbitrary session-local writes, whichever thread
  // ran the task — this is the property the engine relies on to read a
  // pool-computed ClientRequest after join().
  std::vector<double> slots(64, 0.0);
  TaskGroup solves(64, [&slots](std::size_t i) {
    double acc = 0.0;
    for (int k = 0; k < 100; ++k) acc += std::sqrt(static_cast<double>(i + k));
    slots[i] = acc;
  });
  for (int round = 0; round < 50; ++round) {
    for (std::size_t i = 0; i < 64; ++i) slots[i] = -1.0;
    for (std::size_t i = 0; i < 64; ++i) solves.release(i);
    // Join in reverse order: joins must not depend on release order.
    for (std::size_t i = 64; i-- > 0;) {
      solves.join(i);
      EXPECT_GT(slots[i], 0.0) << "session " << i;
    }
  }
}

TEST(FleetShardTest, SolvePoolRejectsOutOfRangeSessions) {
  TaskGroup solves(4, [](std::size_t) {});
  EXPECT_THROW(solves.release(4), std::invalid_argument);
  EXPECT_THROW(solves.join(4), std::invalid_argument);
  solves.release(3);  // still usable after the rejected calls
  solves.join(3);
}

// Expects `call` to throw std::invalid_argument whose message names task
// (session) `session`.
template <typename Call>
void expect_rejected_naming(Call call, std::size_t session) {
  try {
    call();
    ADD_FAILURE() << "expected std::invalid_argument for session " << session;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("task " + std::to_string(session)),
              std::string::npos)
        << e.what();
  }
}

TEST(FleetShardTest, SolvePoolRejectsWaitWithoutDispatch) {
  std::vector<std::atomic<int>> calls(4);
  for (auto& c : calls) c.store(0);
  TaskGroup solves(4, [&calls](std::size_t i) { calls[i].fetch_add(1); });
  // Never released: must throw, not wait for a task that never runs.
  expect_rejected_naming([&] { solves.join(1); }, 1);
  EXPECT_FALSE(solves.outstanding(1));
  solves.release(1);
  EXPECT_TRUE(solves.outstanding(1));
  solves.join(1);
  EXPECT_FALSE(solves.outstanding(1));
  EXPECT_EQ(calls[1].load(), 1);
  // A second join must throw, not return at once as if a new solve ran.
  expect_rejected_naming([&] { solves.join(1); }, 1);
  solves.release(1);  // still usable
  solves.join(1);
  EXPECT_EQ(calls[1].load(), 2);
}

TEST(FleetShardTest, SolvePoolRejectsDoubleDispatch) {
  std::vector<std::atomic<int>> calls(4);
  for (auto& c : calls) c.store(0);
  TaskGroup solves(4, [&calls](std::size_t i) { calls[i].fetch_add(1); });
  solves.release(2);
  expect_rejected_naming([&] { solves.release(2); }, 2);
  EXPECT_TRUE(solves.outstanding(2));
  solves.join(2);
  EXPECT_EQ(calls[2].load(), 1);  // the rejected release queued nothing
  solves.release(2);
  solves.join(2);
  EXPECT_EQ(calls[2].load(), 2);
}

TEST(FleetShardTest, SolvePoolRethrowsSolveErrorsAtWait) {
  TaskGroup solves(4, [](std::size_t i) {
    if (i == 3) throw std::runtime_error("solve failed");
  });
  solves.release(3);
  solves.release(0);
  EXPECT_THROW(solves.join(3), std::runtime_error);
  EXPECT_FALSE(solves.outstanding(3));
  solves.join(0);
  solves.release(3);  // the error was consumed; the group stays usable
  EXPECT_THROW(solves.join(3), std::runtime_error);
}

FleetConfig small_fleet_config() {
  FleetConfig config;
  config.sessions = 12;
  config.seed = 2024;
  config.start_spread_s = 0.7;
  return config;
}

TEST(FleetShardTest, SmallShardedFleetMatchesSerialBitwise) {
  const auto traces = trace::make_paper_traces(/*seed=*/21, util::Seconds(300.0));
  FleetConfig config = small_fleet_config();
  const FleetResult serial = run_fleet(battery_workload(), traces.second, config);
  for (const std::size_t shards : {std::size_t{2}, std::size_t{3},
                                   std::size_t{12}, std::size_t{64}}) {
    config.shards = shards;  // every value but 1 speculates on the pool
    const FleetResult sharded =
        run_fleet(battery_workload(), traces.second, config);
    expect_bit_identical(serial, sharded,
                         "shards " + std::to_string(shards));
  }
}

TEST(FleetShardTest, Ps360ThreadsOverrideIsResultInvariant) {
  const auto traces = trace::make_paper_traces(/*seed=*/22, util::Seconds(300.0));
  FleetConfig config = small_fleet_config();
  const FleetResult serial = run_fleet(battery_workload(), traces.second, config);

  config.shards = 0;
  for (const char* threads : {"1", "3", "7"}) {
    const test::ScopedThreadsEnv env(threads);
    const FleetResult sharded =
        run_fleet(battery_workload(), traces.second, config);
    expect_bit_identical(serial, sharded,
                         std::string("PS360_THREADS=") + threads);
  }
}

TEST(FleetShardTest, OneThreadBudgetLeavesThePoolUnsized) {
  // A fleet asking to speculate under PS360_THREADS=1 runs serially and must
  // not start the pool, which would then keep no workers for the rest of the
  // process: the first call on the default budget sizes it (ctest runs each
  // case in a process of its own).
  const auto traces = trace::make_paper_traces(/*seed=*/23, util::Seconds(300.0));
  FleetConfig config = small_fleet_config();
  config.shards = 4;
  const FleetResult serial = [&] {
    const test::ScopedThreadsEnv env("1");
    return run_fleet(battery_workload(), traces.second, config);
  }();
  const test::ScopedThreadsEnv unset(nullptr);
  EXPECT_EQ(util::pool_workers(), util::resolve_thread_count() - 1);
  const FleetResult sharded = run_fleet(battery_workload(), traces.second, config);
  expect_bit_identical(serial, sharded, "PS360_THREADS=1 then unset");
}

TEST(FleetShardTest, FaultArmMatchesSerialUnderThreads) {
  const auto traces = trace::make_paper_traces(/*seed=*/24, util::Seconds(300.0));
  FleetConfig config = small_fleet_config();
  config.session.faults.enabled = true;
  config.session.faults.outage_spacing_s = 5.0;
  config.session.faults.outage_mean_s = 0.5;
  config.session.faults.outage_max_s = 2.0;
  config.session.faults.loss_probability = 0.2;
  config.session.faults.spike_probability = 0.25;
  const FleetResult serial = run_fleet(battery_workload(), traces.second, config);
  config.shards = 4;
  const FleetResult sharded = run_fleet(battery_workload(), traces.second, config);
  expect_bit_identical(serial, sharded, "faults shards 4");
}

// One observed run: the result, the metrics JSON and the trace JSONL.
struct ObservedRun {
  FleetResult result;
  std::string metrics_json;
  std::string trace_jsonl;
  obs::MetricsRegistry metrics;
};

ObservedRun run_observed(const trace::NetworkTrace& link, FleetConfig config) {
  ObservedRun run;
  obs::EventTracer tracer(1 << 16);
  obs::Observer observer{&run.metrics, &tracer};
  config.observer = &observer;
  run.result = run_fleet(battery_workload(), link, config);
  run.metrics_json = run.metrics.to_json();
  std::ostringstream jsonl;
  tracer.export_jsonl(jsonl);
  run.trace_jsonl = jsonl.str();
  EXPECT_EQ(tracer.dropped(), 0u);
  return run;
}

// Observed fleets speculate like unobserved ones: a plan on a worker emits
// nothing, and the coordinator publishes its solve record and the client's
// records at the flow start. Every registered scheme (the battery draws only
// four) and both the clean and the hostile path must reproduce the serial
// run's results, metrics JSON and trace JSONL byte for byte.
TEST(FleetShardTest, ObservedSpeculationIsByteIdenticalForEveryScheme) {
  const auto traces = trace::make_paper_traces(/*seed=*/26, util::Seconds(300.0));
  FleetConfig clean;
  clean.sessions = 24;
  clean.seed = 77;
  clean.start_spread_s = 1.5;
  // Four paper-trace shares per session: the top quality rung downloads in
  // well under a segment, so even the max-QoE schemes fill their buffers
  // past β and Eq. 6 waits (the windows a worker solves in) occur.
  const trace::NetworkTrace link =
      traces.second.scaled(4.0 * static_cast<double>(clean.sessions));

  FleetConfig hostile = clean;
  hostile.access_cap_mbps = 6.0;
  hostile.session.faults.enabled = true;
  hostile.session.faults.outage_spacing_s = 5.0;
  hostile.session.faults.outage_mean_s = 0.5;
  hostile.session.faults.outage_max_s = 2.0;
  hostile.session.faults.loss_probability = 0.15;
  hostile.session.faults.spike_probability = 0.2;
  hostile.server.enabled = true;
  hostile.server.catalog = {/*videos=*/3, /*alpha=*/0.8};
  hostile.server.cache_capacity = util::Bytes(512.0 * 1024.0);

  double hostile_wait_s = 0.0;
  for (const sim::SchemeKind scheme : sim::registered_schemes()) {
    for (const bool is_hostile : {false, true}) {
      FleetConfig config = is_hostile ? hostile : clean;
      config.scheme = scheme;
      const std::string label = sim::scheme_name(scheme) +
                                (is_hostile ? " hostile" : " clean");
      SCOPED_TRACE(label);
      config.shards = 1;
      const ObservedRun serial = run_observed(link, config);
      config.shards = 3;
      const ObservedRun sharded = run_observed(link, config);
      expect_bit_identical(serial.result, sharded.result, label);
      EXPECT_EQ(serial.metrics_json, sharded.metrics_json);
      EXPECT_EQ(serial.trace_jsonl, sharded.trace_jsonl);

      // The published records were live: every solve decided, and sessions
      // waited, so the sharded arm solved on workers. Under the 6 Mbps cap
      // Ctile, Ftile, Pano, GhoshLP and GhoshRobust spend about their whole
      // bandwidth estimate and do not rise above β in an 8 s video, so
      // their hostile arms solve every plan on the coordinator and their
      // clean arms cover their worker-solved plans; Ours, Ptile and Nontile
      // wait in both.
      const bool lp = scheme == sim::SchemeKind::kGhoshLp ||
                      scheme == sim::SchemeKind::kGhoshRobust;
      EXPECT_GT(sharded.metrics.value(lp ? "lp.allocations" : "mpc.decides"), 0.0);
      const double wait_s = sharded.metrics.value("client.wait_seconds");
      if (is_hostile) {
        hostile_wait_s += wait_s;
      } else {
        EXPECT_GT(wait_s, 0.0);
      }
    }
  }
  EXPECT_GT(hostile_wait_s, 0.0);
}

// ------------------------------------------------- reserve-size contract

// The 1M-session scaling prerequisite: the heap reservation from
// recommended_reserve_events() must absorb the true event population, so
// the hot loop never reallocates — for any feature mix and shard count.
TEST(FleetShardTest, ReserveFormulaCoversMeasuredPeaks) {
  const auto traces = trace::make_paper_traces(/*seed=*/25, util::Seconds(300.0));
  for (const bool faults : {false, true}) {
    for (const bool server : {false, true}) {
      FleetConfig config;
      config.sessions = 64;
      config.seed = 31;
      config.session.faults.enabled = faults;
      if (faults) {
        config.session.faults.outage_spacing_s = 5.0;
        config.session.faults.loss_probability = 0.2;
        config.session.faults.spike_probability = 0.25;
      }
      config.server.enabled = server;
      for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
        config.shards = shards;
        const FleetResult result =
            run_fleet(battery_workload(), traces.second, config);
        SCOPED_TRACE("faults " + std::to_string(faults) + " server " +
                     std::to_string(server) + " shards " +
                     std::to_string(shards));
        EXPECT_EQ(result.stats.queue_grow_events, 0u);
        EXPECT_LE(result.stats.queue_peak, recommended_reserve_events(config));
      }
    }
  }
}

TEST(FleetShardTest, ReserveFormulaScalesPerSession) {
  FleetConfig config;
  config.sessions = 1000;
  // Baseline: 8 resident events per session plus a constant tail.
  EXPECT_EQ(recommended_reserve_events(config), 8u * 1000u + 64u);
  config.session.faults.enabled = true;
  EXPECT_EQ(recommended_reserve_events(config), 32u * 1000u + 64u);
  config.server.enabled = true;
  EXPECT_EQ(recommended_reserve_events(config), 36u * 1000u + 64u);
  config.session.faults.enabled = false;
  EXPECT_EQ(recommended_reserve_events(config), 12u * 1000u + 64u);
  // Linear in the fleet, and independent of the solve-worker count.
  config.server.enabled = false;
  config.sessions = 1'000'000;
  EXPECT_EQ(recommended_reserve_events(config), 8u * 1'000'000u + 64u);
  config.shards = 16;
  EXPECT_EQ(recommended_reserve_events(config), 8u * 1'000'000u + 64u);
}

}  // namespace
}  // namespace ps360::fleet
