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
//  * FleetShardTest.* / FleetShardEventLoopTest.* — light tests that
//    actually exercise worker threads, the SolvePool, the PS360_THREADS
//    override, and the ShardedEventLoop contracts. These ARE matched by the
//    TSan ctest filter (-R ...|FleetShard), so every cross-thread handoff
//    in the shard path runs under ThreadSanitizer in CI.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "fleet/engine.h"
#include "fleet/event_loop.h"
#include "fleet/shard.h"
#include "obs/metrics.h"
#include "obs/observer.h"
#include "obs/tracer.h"
#include "sim/workload.h"
#include "trace/video_catalog.h"
#include "util/rng.h"
#include "util/units.h"

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
  // Global queue occupancy is partition-invariant: the coordinator performs
  // the same schedule/pop sequence whatever the shard count.
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
    config.server.policy = rng.bernoulli(0.5)
                               ? server::EvictionPolicy::kLru
                               : server::EvictionPolicy::kPopularityWeighted;
  }
  // Formerly a config toggle; the draw stays so later configs do not shift.
  (void)rng.bernoulli(0.25);
  return config;
}

// Run `count` seeded configs starting at `seed_base`; every config compares
// shards=2 and shards=4 against serial, every fourth additionally compares
// the hardware-resolved shard count (shards=0) and an observer-attached arm
// whose metrics JSON and trace JSONL must also match byte-for-byte.
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
      // Observer arm: attaching an observer routes planning just-in-time on
      // the coordinator, so emission order — not just aggregate values —
      // must survive sharding byte-for-byte.
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

TEST(FleetShardTest, SolvePoolRunsEverySolveAndJoins) {
  std::vector<std::atomic<int>> calls(16);
  for (auto& c : calls) c.store(0);
  SolvePool pool(4, 16, [&calls](std::size_t i) { calls[i].fetch_add(1); });
  EXPECT_EQ(pool.shards(), 4u);
  for (int round = 0; round < 8; ++round) {
    for (std::size_t i = 0; i < 16; ++i) pool.dispatch(i);
    for (std::size_t i = 0; i < 16; ++i) pool.wait(i);
    for (std::size_t i = 0; i < 16; ++i)
      EXPECT_EQ(calls[i].load(), round + 1) << "session " << i;
  }
}

TEST(FleetShardTest, SolvePoolCarriesWritesAcrossTheJoin) {
  // The release/acquire handoff must publish arbitrary session-local writes,
  // not just the flag itself — this is the property the engine relies on to
  // read a worker-computed ClientRequest after wait().
  std::vector<double> slots(64, 0.0);
  SolvePool pool(8, 64, [&slots](std::size_t i) {
    double acc = 0.0;
    for (int k = 0; k < 100; ++k) acc += std::sqrt(static_cast<double>(i + k));
    slots[i] = acc;
  });
  for (int round = 0; round < 50; ++round) {
    for (std::size_t i = 0; i < 64; ++i) slots[i] = -1.0;
    for (std::size_t i = 0; i < 64; ++i) pool.dispatch(i);
    // Join in reverse order: waits must not depend on dispatch order.
    for (std::size_t i = 64; i-- > 0;) {
      pool.wait(i);
      EXPECT_GT(slots[i], 0.0) << "session " << i;
    }
  }
}

TEST(FleetShardTest, SolvePoolRejectsOutOfRangeSessions) {
  SolvePool pool(2, 4, [](std::size_t) {});
  EXPECT_THROW(pool.dispatch(4), std::invalid_argument);
  EXPECT_THROW(pool.wait(4), std::invalid_argument);
  pool.dispatch(3);  // still usable after the rejected calls
  pool.wait(3);
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
    config.shards = shards;  // > sessions clamps to sessions
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
    ::setenv("PS360_THREADS", threads, /*overwrite=*/1);
    const FleetResult sharded =
        run_fleet(battery_workload(), traces.second, config);
    expect_bit_identical(serial, sharded,
                         std::string("PS360_THREADS=") + threads);
  }
  ::unsetenv("PS360_THREADS");
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

// ------------------------------------------------- reserve-size contract

// The 1M-session scaling prerequisite: the per-shard heap reservation from
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
        // The global peak fits one shard's reservation with room to spare,
        // so per-shard heaps (which split the sessions) cannot overflow.
        EXPECT_LE(result.stats.queue_peak,
                  recommended_reserve_events(config, 1));
      }
    }
  }
}

TEST(FleetShardTest, ReserveFormulaScalesPerShardNotPerFleet) {
  FleetConfig config;
  config.sessions = 1000;
  // Baseline: 8 resident events per session, split across shards, plus a
  // constant tail.
  EXPECT_EQ(recommended_reserve_events(config, 1), 8u * 1000u + 64u);
  EXPECT_EQ(recommended_reserve_events(config, 4), 8u * 250u + 64u);
  EXPECT_EQ(recommended_reserve_events(config, 7), 8u * 143u + 64u);  // ceil
  config.session.faults.enabled = true;
  EXPECT_EQ(recommended_reserve_events(config, 4), 32u * 250u + 64u);
  config.server.enabled = true;
  EXPECT_EQ(recommended_reserve_events(config, 4), 36u * 250u + 64u);
  config.session.faults.enabled = false;
  EXPECT_EQ(recommended_reserve_events(config, 4), 12u * 250u + 64u);
  // A 1M-session fleet on 16 shards still reserves only per-shard state.
  config.server.enabled = false;
  config.sessions = 1'000'000;
  EXPECT_EQ(recommended_reserve_events(config, 16), 8u * 62'500u + 64u);
}

// -------------------------------------------------- ShardedEventLoop

TEST(FleetShardEventLoopTest, PopsInGlobalTimeSessionOrderAcrossShards) {
  // 3 session shards + the link heap; sessions 0..5 land on shards 0/1/2.
  ShardedEventLoop loop(3, 8, 8);
  loop.schedule(1.0, kLinkSession, EventKind::kCapacityChange);
  loop.schedule(1.0, 5, EventKind::kFlowStart);       // shard 2
  loop.schedule(1.0, 0, EventKind::kFlowStart);       // shard 0
  loop.schedule(1.0, 4, EventKind::kFlowCompletion);  // shard 1
  loop.schedule(0.5, 3, EventKind::kSessionStart);    // shard 0, earlier t
  EXPECT_EQ(loop.pop().session, 3u);
  EXPECT_EQ(loop.pop().session, 0u);
  EXPECT_EQ(loop.pop().session, 4u);
  EXPECT_EQ(loop.pop().session, 5u);
  EXPECT_EQ(loop.pop().session, kLinkSession);  // link sorts after any session
  EXPECT_TRUE(loop.empty());
}

TEST(FleetShardEventLoopTest, WithinShardTiesBreakBySessionThenSequence) {
  ShardedEventLoop loop(2, 8, 8);
  // Sessions 1 and 3 share shard 1; same timestamp, scheduled out of order.
  loop.schedule(2.0, 3, EventKind::kFlowStart);
  loop.schedule(2.0, 1, EventKind::kFlowStart);
  loop.schedule(2.0, 1, EventKind::kFlowCompletion);  // later seq, same session
  const Event first = loop.pop();
  EXPECT_EQ(first.session, 1u);
  EXPECT_EQ(first.kind, EventKind::kFlowStart);
  const Event second = loop.pop();
  EXPECT_EQ(second.session, 1u);
  EXPECT_EQ(second.kind, EventKind::kFlowCompletion);
  EXPECT_EQ(loop.pop().session, 3u);
}

TEST(FleetShardEventLoopTest, InterleavedScheduleDuringDrainMatchesSerial) {
  // Push-during-pop: replay one adversarial schedule/pop interleaving into a
  // serial EventLoop and a ShardedEventLoop for every shard count; the pop
  // sequences must be identical.
  util::Rng rng(77);
  struct Op {
    double t;
    std::size_t session;
  };
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2},
                                   std::size_t{5}, std::size_t{8}}) {
    util::Rng arm_rng(77);
    EventLoop serial(512);
    ShardedEventLoop sharded(shards, 512, 64);
    const auto schedule = [&](double t, std::size_t session) {
      serial.schedule(t, session, EventKind::kFlowStart);
      sharded.schedule(t, session, EventKind::kFlowStart);
    };
    for (int i = 0; i < 32; ++i)
      schedule(arm_rng.uniform(0.0, 4.0), arm_rng.uniform_index(16));
    int drained = 0;
    while (!serial.empty()) {
      const Event a = serial.pop();
      ASSERT_EQ(sharded.size(), serial.size() + 1);
      const Event b = sharded.pop();
      ASSERT_EQ(a.t, b.t);
      ASSERT_EQ(a.session, b.session);
      ASSERT_EQ(serial.now(), sharded.now());
      // Keep injecting while draining: same-timestamp ties on purpose.
      if (++drained % 3 == 0 && drained < 90) {
        schedule(a.t, arm_rng.uniform_index(16));                  // tie at now
        schedule(a.t + arm_rng.uniform(0.0, 2.0),
                 arm_rng.uniform_index(16));
        if (drained % 9 == 0)
          schedule(a.t, kLinkSession);  // link events interleave too
      }
    }
    EXPECT_TRUE(sharded.empty());
    EXPECT_EQ(serial.scheduled(), sharded.scheduled());
  }
}

TEST(FleetShardEventLoopTest, HundredThousandEventsWithoutGrowth) {
  // A rolling window of events per shard stays inside the reservation: zero
  // heap growth across 100k schedule/pop pairs, the steady-state shape of a
  // long fleet run.
  ShardedEventLoop loop(4, 64, 16);
  const std::size_t kSessions = 64;
  for (std::size_t i = 0; i < kSessions; ++i)
    loop.schedule(static_cast<double>(i) * 1e-3, i, EventKind::kSessionStart);
  loop.schedule(0.0, kLinkSession, EventKind::kCapacityChange);
  for (int i = 0; i < 100'000; ++i) {
    const Event event = loop.pop();
    loop.schedule(event.t + 0.25, event.session,
                  event.session == kLinkSession ? EventKind::kCapacityChange
                                                : EventKind::kFlowStart);
  }
  EXPECT_EQ(loop.grow_events(), 0u);
  EXPECT_EQ(loop.scheduled(), kSessions + 1u + 100'000u);
  EXPECT_LE(loop.peak_size(), kSessions + 1u);
}

TEST(FleetShardEventLoopTest, ContractViolationsThrowWithoutCorruption) {
  ShardedEventLoop loop(3, 8, 8);
  EXPECT_THROW(loop.pop(), std::invalid_argument);  // empty
  EXPECT_THROW(
      loop.schedule(std::numeric_limits<double>::quiet_NaN(), 0,
                    EventKind::kSessionStart),
      std::invalid_argument);
  EXPECT_TRUE(loop.empty());

  loop.schedule(5.0, 2, EventKind::kFlowStart);
  EXPECT_EQ(loop.pop().t, 5.0);  // global now() is 5.0
  // The past is global, not per shard: session 1 lives on a different heap
  // whose local head never advanced, but scheduling before now() must still
  // throw — otherwise cross-shard merge order would be violated.
  EXPECT_THROW(loop.schedule(3.0, 1, EventKind::kFlowStart),
               std::invalid_argument);
  EXPECT_THROW(loop.schedule(3.0, kLinkSession, EventKind::kCapacityChange),
               std::invalid_argument);
  // The rejected schedules left no residue.
  EXPECT_TRUE(loop.empty());
  loop.schedule(6.0, 1, EventKind::kFlowStart);
  EXPECT_EQ(loop.pop().session, 1u);
  EXPECT_TRUE(loop.empty());
  EXPECT_EQ(loop.scheduled(), 2u);
}

TEST(FleetShardEventLoopTest, SingleShardDegeneratesToSerialLoop) {
  EventLoop serial(32);
  ShardedEventLoop sharded(1, 32, 8);
  util::Rng rng(5);
  for (int i = 0; i < 64; ++i) {
    const double t = rng.uniform(0.0, 10.0);
    const std::size_t session =
        rng.bernoulli(0.1) ? kLinkSession : rng.uniform_index(9);
    serial.schedule(t, session, EventKind::kFlowStart);
    sharded.schedule(t, session, EventKind::kFlowStart);
  }
  while (!serial.empty()) {
    const Event a = serial.pop();
    const Event b = sharded.pop();
    EXPECT_EQ(a.t, b.t);
    EXPECT_EQ(a.session, b.session);
  }
  EXPECT_TRUE(sharded.empty());
}

}  // namespace
}  // namespace ps360::fleet
