// Tests for the server/CDN layer (DESIGN.md §14): the seeded Zipf
// popularity model (normalized, rank-monotone, bit-identical draws), the
// edge segment cache (hit/miss/eviction accounting, LRU eviction, bypass
// and slot-pool bounds, flat heap footprint), and the fleet-level
// wiring (capacity-0 origin accounting, monotone origin traffic vs cache
// size, seed-discipline video assignment, determinism and thread-count
// invariance, inertness when disabled).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "fleet/engine.h"
#include "fleet/runner.h"
#include "obs/metrics.h"
#include "obs/observer.h"
#include "obs/tracer.h"
#include "server/edge_cache.h"
#include "server/popularity.h"
#include "sim/workload.h"
#include "trace/video_catalog.h"
#include "util/rng.h"
#include "util/units.h"

#include "test_support.h"

namespace ps360::server {
namespace {

// -------------------------------------------------------- ZipfPopularity

TEST(ZipfPopularityTest, WeightsAreNormalizedAndRankMonotone) {
  const ZipfPopularity zipf(ZipfConfig{/*videos=*/50, /*alpha=*/0.8});
  ASSERT_EQ(zipf.videos(), 50u);
  double sum = 0.0;
  for (std::size_t r = 0; r < zipf.videos(); ++r) {
    EXPECT_GT(zipf.probability(r), 0.0);
    if (r > 0) {
      EXPECT_LT(zipf.probability(r), zipf.probability(r - 1));  // strictly rank-monotone, α > 0
    }
    sum += zipf.probability(r);
  }
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(ZipfPopularityTest, AlphaZeroIsUniform) {
  const ZipfPopularity zipf(ZipfConfig{/*videos=*/8, /*alpha=*/0.0});
  for (std::size_t r = 0; r < 8; ++r)
    EXPECT_NEAR(zipf.probability(r), 1.0 / 8.0, 1e-15);
}

TEST(ZipfPopularityTest, SamplingIsSeedDeterministicAndBitIdentical) {
  const ZipfConfig config{/*videos=*/16, /*alpha=*/1.0};
  // Two independently constructed models, two Rngs with the same derived
  // seed: the draw sequences must match bit-for-bit — this is the property
  // that makes the fleet's catalog assignment reproducible.
  const ZipfPopularity a(config);
  const ZipfPopularity b(config);
  util::Rng rng_a(util::derive_seed(42, kVideoPopularityStream, 7));
  util::Rng rng_b(util::derive_seed(42, kVideoPopularityStream, 7));
  std::vector<std::size_t> seq_a, seq_b;
  for (int i = 0; i < 1000; ++i) {
    seq_a.push_back(a.sample(rng_a));
    seq_b.push_back(b.sample(rng_b));
  }
  EXPECT_EQ(seq_a, seq_b);
  // A different base seed re-shuffles the draws.
  util::Rng rng_c(util::derive_seed(43, kVideoPopularityStream, 7));
  std::vector<std::size_t> seq_c;
  for (int i = 0; i < 1000; ++i) seq_c.push_back(a.sample(rng_c));
  EXPECT_NE(seq_a, seq_c);
}

TEST(ZipfPopularityTest, EmpiricalFrequencyFollowsRank) {
  const ZipfPopularity zipf(ZipfConfig{/*videos=*/5, /*alpha=*/1.0});
  util::Rng rng(12345);
  std::vector<std::size_t> counts(5, 0);
  const int draws = 20000;
  for (int i = 0; i < draws; ++i) {
    const std::size_t v = zipf.sample(rng);
    ASSERT_LT(v, 5u);
    ++counts[v];
  }
  for (std::size_t r = 0; r + 1 < counts.size(); ++r)
    EXPECT_GT(counts[r], counts[r + 1]);  // head ranks dominate
  for (std::size_t r = 0; r < counts.size(); ++r)
    EXPECT_NEAR(static_cast<double>(counts[r]) / draws, zipf.probability(r),
                0.02);
}

// ------------------------------------------------------------- EdgeCache

SegmentKey key_of(std::uint32_t video, std::uint32_t segment,
                  std::uint64_t plan_word = 1) {
  return SegmentKey{video, segment, plan_word};
}

TEST(EdgeCacheTest, MissThenAdmitThenHit) {
  EdgeCache cache(util::Bytes(1000.0));

  const SegmentKey k = key_of(0, 0);
  EXPECT_FALSE(cache.lookup(k));
  EXPECT_TRUE(cache.admit(k, util::Bytes(100.0)));
  EXPECT_TRUE(cache.lookup(k));

  const EdgeCacheStats& s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.insertions, 1u);
  EXPECT_EQ(s.evictions, 0u);
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(s.resident, util::Bytes(100.0));
  EXPECT_DOUBLE_EQ(s.hit_rate(), 0.5);
}

TEST(EdgeCacheTest, LruEvictsLeastRecentlyTouched) {
  EdgeCache cache(util::Bytes(300.0));  // three 100-byte objects

  const SegmentKey a = key_of(0, 0), b = key_of(0, 1), c = key_of(0, 2),
                   d = key_of(0, 3);
  cache.admit(a, util::Bytes(100.0));
  cache.admit(b, util::Bytes(100.0));
  cache.admit(c, util::Bytes(100.0));
  EXPECT_TRUE(cache.lookup(a));  // refresh a: b becomes the LRU victim
  cache.admit(d, util::Bytes(100.0));

  EXPECT_TRUE(cache.contains(a));
  EXPECT_FALSE(cache.contains(b));
  EXPECT_TRUE(cache.contains(c));
  EXPECT_TRUE(cache.contains(d));
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(EdgeCacheTest, ObjectsLargerThanCapacityBypass) {
  EdgeCache cache(util::Bytes(100.0));
  EXPECT_FALSE(cache.admit(key_of(0, 0), util::Bytes(150.0)));
  EXPECT_EQ(cache.stats().bypasses, 1u);
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_FALSE(cache.contains(key_of(0, 0)));
}

TEST(EdgeCacheTest, SlotPoolBoundsResidencyEvenUnderByteHeadroom) {
  EdgeCache cache(util::Bytes(1e9));
  const auto pool = static_cast<std::uint32_t>(EdgeCache::kMaxEntries);
  for (std::uint32_t segment = 0; segment < pool; ++segment)
    cache.admit(key_of(0, segment), util::Bytes(10.0));
  EXPECT_EQ(cache.stats().evictions, 0u);
  cache.admit(key_of(0, pool), util::Bytes(10.0));  // pool full: evicts the LRU
  EXPECT_EQ(cache.stats().entries, EdgeCache::kMaxEntries);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_FALSE(cache.contains(key_of(0, 0)));
  EXPECT_TRUE(cache.contains(key_of(0, pool)));
}

TEST(EdgeCacheTest, AdmittingResidentKeyRefreshesInsteadOfDuplicating) {
  EdgeCache cache(util::Bytes(1000.0));
  EXPECT_TRUE(cache.admit(key_of(0, 0), util::Bytes(100.0)));
  EXPECT_TRUE(cache.admit(key_of(0, 0), util::Bytes(100.0)));  // raced fetch
  EXPECT_EQ(cache.stats().insertions, 1u);
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(cache.stats().resident, util::Bytes(100.0));
}

TEST(EdgeCacheTest, ContainsIsSideEffectFree) {
  EdgeCache cache(util::Bytes(1000.0));
  cache.admit(key_of(0, 0), util::Bytes(10.0));
  (void)cache.contains(key_of(0, 0));
  (void)cache.contains(key_of(9, 9));
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 0u);
}

TEST(EdgeCacheTest, HeapFootprintIsFlatAcrossAWorkload) {
  EdgeCache cache(util::Bytes(50.0 * 100.0));

  const std::size_t footprint = cache.footprint_bytes();
  EXPECT_GT(footprint, 0u);
  util::Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const SegmentKey k = key_of(static_cast<std::uint32_t>(rng.next_u64() % 8),
                                static_cast<std::uint32_t>(rng.next_u64() % 40));
    if (!cache.lookup(k)) cache.admit(k, util::Bytes(100.0));
  }
  EXPECT_GT(cache.stats().evictions, 0u);  // the workload churned
  EXPECT_EQ(cache.footprint_bytes(), footprint);
}

}  // namespace
}  // namespace ps360::server

// -------------------------------------------------- fleet-level wiring

namespace ps360::fleet {
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

FleetConfig server_config(util::Bytes cache_capacity) {
  FleetConfig config;
  config.sessions = 8;
  config.seed = 77;
  config.server.enabled = true;
  config.server.catalog = {/*videos=*/4, /*alpha=*/1.0};
  config.server.cache_capacity = cache_capacity;
  return config;
}

TEST(FleetServerTest, CapacityZeroSendsEveryRequestToOrigin) {
  const auto traces = trace::make_paper_traces(/*seed=*/7, util::Seconds(300.0));
  const FleetConfig config = server_config(util::Bytes(0.0));
  const FleetResult result = run_fleet(test_workload(), traces.second, config);

  std::size_t segments = 0;
  for (const FleetSessionResult& s : result.sessions)
    segments += s.result.segments.size();
  ASSERT_GT(segments, 0u);

  // Nothing is ever admitted, so every segment request misses and fetches
  // through the origin exactly once; the origin then carries every byte the
  // edge link delivers.
  EXPECT_EQ(result.stats.cache_hits, 0u);
  EXPECT_EQ(result.stats.cache_misses, static_cast<std::uint64_t>(segments));
  EXPECT_EQ(result.stats.origin_flows, static_cast<std::uint64_t>(segments));
  EXPECT_EQ(result.stats.cache_entries, 0u);
  EXPECT_NEAR(result.stats.origin_bytes.value(),
              result.stats.delivered_bytes.value(),
              1e-6 * result.stats.delivered_bytes.value());
}

TEST(FleetServerTest, OriginTrafficShrinksMonotonicallyWithCacheSize) {
  const auto traces = trace::make_paper_traces(/*seed=*/9, util::Seconds(300.0));
  const std::vector<util::Bytes> capacities = {
      util::Bytes(0.0), util::mebibytes(8.0), util::mebibytes(256.0)};

  std::vector<FleetStats> stats;
  for (const util::Bytes capacity : capacities) {
    const FleetConfig config = server_config(capacity);
    stats.push_back(run_fleet(test_workload(), traces.second, config).stats);
  }

  for (std::size_t i = 1; i < stats.size(); ++i) {
    EXPECT_LE(stats[i].origin_bytes.value(), stats[i - 1].origin_bytes.value())
        << "capacity step " << i;
    EXPECT_GE(stats[i].cache_hits, stats[i - 1].cache_hits)
        << "capacity step " << i;
  }
  // The big cache must actually absorb traffic, not just tie.
  EXPECT_GT(stats.back().cache_hits, 0u);
  EXPECT_LT(stats.back().origin_bytes.value(),
            stats.front().origin_bytes.value());
}

TEST(FleetServerTest, VideoAssignmentFollowsTheSeedDiscipline) {
  const auto traces = trace::make_paper_traces(/*seed=*/3, util::Seconds(300.0));
  FleetConfig config = server_config(util::mebibytes(16.0));
  config.sessions = 16;
  config.server.catalog = {/*videos=*/8, /*alpha=*/0.8};
  const FleetResult result = run_fleet(test_workload(), traces.second, config);

  // The engine's draw is pinned: Rng(derive_seed(seed, stream, session))
  // into the same Zipf model reproduces every assignment.
  const server::ZipfPopularity zipf(config.server.catalog);
  for (const FleetSessionResult& s : result.sessions) {
    util::Rng rng(util::derive_seed(config.seed, server::kVideoPopularityStream,
                                    s.session));
    EXPECT_EQ(s.video, zipf.sample(rng)) << "session " << s.session;
  }

  // A different fleet seed re-shuffles the catalog assignment.
  FleetConfig other = config;
  other.seed = config.seed + 1;
  const FleetResult shuffled = run_fleet(test_workload(), traces.second, other);
  std::vector<std::size_t> videos_a, videos_b;
  for (const FleetSessionResult& s : result.sessions) videos_a.push_back(s.video);
  for (const FleetSessionResult& s : shuffled.sessions) videos_b.push_back(s.video);
  EXPECT_NE(videos_a, videos_b);
}

TEST(FleetServerTest, ServerRunsAreDeterministicAcrossRuns) {
  const auto traces = trace::make_paper_traces(/*seed=*/5, util::Seconds(300.0));
  const FleetConfig config = server_config(util::mebibytes(4.0));
  const FleetResult a = run_fleet(test_workload(), traces.second, config);
  const FleetResult b = run_fleet(test_workload(), traces.second, config);

  ASSERT_EQ(a.sessions.size(), b.sessions.size());
  for (std::size_t i = 0; i < a.sessions.size(); ++i) {
    EXPECT_EQ(a.sessions[i].video, b.sessions[i].video);
    EXPECT_EQ(a.sessions[i].finish_s, b.sessions[i].finish_s);
    EXPECT_EQ(a.sessions[i].result.total_bytes, b.sessions[i].result.total_bytes);
    EXPECT_EQ(a.sessions[i].result.energy.total_mj(),
              b.sessions[i].result.energy.total_mj());
  }
  EXPECT_EQ(a.stats.events, b.stats.events);
  EXPECT_EQ(a.stats.cache_hits, b.stats.cache_hits);
  EXPECT_EQ(a.stats.cache_misses, b.stats.cache_misses);
  EXPECT_EQ(a.stats.cache_evictions, b.stats.cache_evictions);
  EXPECT_EQ(a.stats.origin_flows, b.stats.origin_flows);
  EXPECT_EQ(a.stats.origin_bytes, b.stats.origin_bytes);
}

TEST(FleetServerTest, ReplicatedServerFleetsAreThreadCountInvariant) {
  FleetConfig config = server_config(util::mebibytes(4.0));
  config.sessions = 4;
  FleetRunOptions options;
  options.replications = 4;
  options.link.duration_s = 300.0;

  const std::vector<FleetResult> serial = [&] {
    const test::ScopedThreadsEnv env("1");
    return run_fleet_replications(test_workload(), config, options);
  }();
  const test::ScopedThreadsEnv unset(nullptr);
  const std::vector<FleetResult> parallel =
      run_fleet_replications(test_workload(), config, options);

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t r = 0; r < serial.size(); ++r) {
    ASSERT_EQ(serial[r].sessions.size(), parallel[r].sessions.size());
    for (std::size_t i = 0; i < serial[r].sessions.size(); ++i) {
      EXPECT_EQ(serial[r].sessions[i].video, parallel[r].sessions[i].video);
      EXPECT_EQ(serial[r].sessions[i].finish_s, parallel[r].sessions[i].finish_s);
      EXPECT_EQ(serial[r].sessions[i].result.total_bytes,
                parallel[r].sessions[i].result.total_bytes);
    }
    EXPECT_EQ(serial[r].stats.cache_hits, parallel[r].stats.cache_hits);
    EXPECT_EQ(serial[r].stats.cache_misses, parallel[r].stats.cache_misses);
    EXPECT_EQ(serial[r].stats.origin_bytes, parallel[r].stats.origin_bytes);
  }

  // The pooled aggregate (what the sweep tooling reports) matches too.
  const FleetAggregate agg_1t = aggregate_fleet(serial, 1.0);
  const FleetAggregate agg_4t = aggregate_fleet(parallel, 1.0);
  EXPECT_EQ(agg_1t.stats.cache_hits, agg_4t.stats.cache_hits);
  EXPECT_EQ(agg_1t.stats.origin_bytes, agg_4t.stats.origin_bytes);
  EXPECT_GT(agg_1t.stats.cache_hits + agg_1t.stats.cache_misses, 0u);
}

TEST(FleetServerTest, DisabledServerIsInertAndUnobservable) {
  const auto traces = trace::make_paper_traces(/*seed=*/11, util::Seconds(300.0));
  FleetConfig config;
  config.sessions = 4;
  config.seed = 99;

  obs::MetricsRegistry metrics;
  obs::EventTracer tracer(1 << 14);
  obs::Observer observer{&metrics, &tracer};
  config.observer = &observer;
  const FleetResult result = run_fleet(test_workload(), traces.second, config);

  // No server stats leak out of a disabled run…
  EXPECT_EQ(result.stats.cache_hits, 0u);
  EXPECT_EQ(result.stats.cache_misses, 0u);
  EXPECT_EQ(result.stats.origin_flows, 0u);
  EXPECT_EQ(result.stats.origin_bytes, util::Bytes(0.0));
  for (const FleetSessionResult& s : result.sessions) EXPECT_EQ(s.video, 0u);
  // …and no server metrics are even registered, so the metrics JSON of a
  // disabled run is byte-identical to a build without the server layer.
  EXPECT_FALSE(metrics.has("server.cache_hits"));
  EXPECT_FALSE(metrics.has("server.origin_bytes"));
  EXPECT_EQ(result.metrics(1.0).cache_hit_rate, 0.0);
}

// ------------------------------------------- sharded engine × server tier

// The edge cache is shared mutable state, so under sharding (DESIGN.md §15)
// every admission, hit, and eviction still happens on the coordinator in
// global event order. These cases pin that the cache's *telemetry* — not
// just the session results — is identical for any shard count; a reordered
// admission would flip hit/miss counts long before it moved a download time.
// (Named FleetServerShard* so the TSan CI leg, which matches FleetServer,
// runs the speculative solves under the sanitizer against the server tier.)

void expect_same_cache_outcome(const FleetResult& a, const FleetResult& b) {
  EXPECT_EQ(a.stats.cache_hits, b.stats.cache_hits);
  EXPECT_EQ(a.stats.cache_misses, b.stats.cache_misses);
  EXPECT_EQ(a.stats.cache_evictions, b.stats.cache_evictions);
  EXPECT_EQ(a.stats.cache_insertions, b.stats.cache_insertions);
  EXPECT_EQ(a.stats.cache_entries, b.stats.cache_entries);
  EXPECT_EQ(a.stats.cache_resident, b.stats.cache_resident);
  EXPECT_EQ(a.stats.origin_flows, b.stats.origin_flows);
  EXPECT_EQ(a.stats.origin_bytes, b.stats.origin_bytes);
  EXPECT_EQ(a.stats.events, b.stats.events);
  ASSERT_EQ(a.sessions.size(), b.sessions.size());
  for (std::size_t i = 0; i < a.sessions.size(); ++i) {
    EXPECT_EQ(a.sessions[i].video, b.sessions[i].video);
    EXPECT_EQ(a.sessions[i].finish_s, b.sessions[i].finish_s);
    EXPECT_EQ(a.sessions[i].result.total_bytes,
              b.sessions[i].result.total_bytes);
  }
}

TEST(FleetServerShardTest, CacheTelemetryIsShardCountInvariant) {
  const auto traces = trace::make_paper_traces(/*seed=*/17, util::Seconds(300.0));
  // Starve the cache so admissions continually evict: the eviction victim
  // choice is where an order bug would surface first.
  FleetConfig config = server_config(util::Bytes(512.0 * 1024.0));
  config.sessions = 16;
  const FleetResult serial = run_fleet(test_workload(), traces.second, config);
  EXPECT_GT(serial.stats.cache_evictions, 0u);
  for (const std::size_t shards : {std::size_t{2}, std::size_t{4}, std::size_t{16}}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    config.shards = shards;
    const FleetResult sharded = run_fleet(test_workload(), traces.second, config);
    expect_same_cache_outcome(serial, sharded);
  }
}

TEST(FleetServerShardTest, OriginOnlyTrafficIsShardCountInvariant) {
  // Capacity zero: every request takes the miss path through the origin
  // link, so this pins the origin-flow scheduling (kOriginStart /
  // kOriginCompletion) across solve-worker counts.
  const auto traces = trace::make_paper_traces(/*seed=*/19, util::Seconds(300.0));
  FleetConfig config = server_config(util::Bytes(0.0));
  config.sessions = 12;
  const FleetResult serial = run_fleet(test_workload(), traces.second, config);
  EXPECT_GT(serial.stats.origin_flows, 0u);
  EXPECT_EQ(serial.stats.cache_hits, 0u);
  for (const std::size_t shards : {std::size_t{3}, std::size_t{8}}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    config.shards = shards;
    const FleetResult sharded = run_fleet(test_workload(), traces.second, config);
    expect_same_cache_outcome(serial, sharded);
  }
}

}  // namespace
}  // namespace ps360::fleet
