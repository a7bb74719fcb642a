// google-benchmark microbenchmarks for the fleet engine: end-to-end fleets
// of 1 to 1M MPC clients over a shared bottleneck (serial engine and
// speculative solve workers, see DESIGN.md §15), plus SharedLink's
// start/finish churn in isolation.
//
// The fleet rows are a tracked perf trajectory next to the MPC solver: CI
// emits machine-readable results with
//   bench_fleet --benchmark_filter=... --benchmark_min_time=0.05
//     --benchmark_out=BENCH_fleet.json --benchmark_out_format=json
// and tools/bench_report.py renders them next to BENCH_mpc.json. The
// events_per_s counter is the headline number — discrete events the engine
// retires per wall-clock second — with sessions_per_s alongside. BM_FleetRun
// takes (sessions, shards); shards=0 speculates on the worker pool, and
// bench_guard --require-faster gates that the sharded 10k row actually
// beats the serial one. The 1M row is registered for the EXPERIMENTS.md
// §1M recipe but excluded from the CI filter (it needs multiple GiB of RAM
// and minutes of wall clock).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "bench/build_context.h"
#include "fleet/engine.h"
#include "fleet/shared_link.h"
#include "obs/metrics.h"
#include "obs/observer.h"
#include "obs/tracer.h"
#include "server/edge_cache.h"
#include "sim/schemes.h"
#include "sim/tournament.h"
#include "sim/workload.h"
#include "trace/video_catalog.h"
#include "util/units.h"

namespace {

using namespace ps360;

const sim::VideoWorkload& bench_workload() {
  static const sim::VideoWorkload workload = [] {
    trace::VideoInfo video = trace::test_videos()[1];
    video.duration_s = 20.0;  // short sessions keep the fleet bench snappy
    return sim::VideoWorkload(video, sim::WorkloadConfig{});
  }();
  return workload;
}

// The link budget grows with the fleet so every size runs in the same
// per-session regime (contention shape, not starvation, is what varies).
trace::NetworkTrace bench_link(std::size_t sessions) {
  trace::NetworkSynthConfig config;
  config.duration_s = 300.0;
  const double scale = static_cast<double>(sessions);
  config.mean_mbps *= scale;
  config.min_mbps *= scale;
  config.max_mbps *= scale;
  return trace::synthesize_network_trace(77, config);
}

// (sessions, shards): shards=1 is the serial engine; 0 sends speculative
// solves to the worker pool, unless the thread budget is one thread
// (PS360_THREADS=1, or one CPU).
// Output is bit-identical across the shard axis (the fleet_shard_test
// battery enforces it), so the serial/sharded delta at equal sessions is
// pure wall-clock speedup from speculative MPC solves. Real time, so the
// rates are per wall-clock second with the pool's workers on.
void BM_FleetRun(benchmark::State& state) {
  const std::size_t sessions = static_cast<std::size_t>(state.range(0));
  const std::size_t shards = static_cast<std::size_t>(state.range(1));
  const sim::VideoWorkload& workload = bench_workload();
  const trace::NetworkTrace link = bench_link(sessions);
  fleet::FleetConfig config;
  config.sessions = sessions;
  config.start_spread_s = 2.0;
  config.shards = shards;
  std::uint64_t events = 0;
  for (auto _ : state) {
    const fleet::FleetResult result = fleet::run_fleet(workload, link, config);
    events += result.stats.events;
    benchmark::DoNotOptimize(result.sessions.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(sessions));
  // Headline: discrete events retired per wall-clock second.
  state.counters["events_per_s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
  state.counters["sessions_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * sessions),
      benchmark::Counter::kIsRate);
  state.counters["events"] =
      benchmark::Counter(static_cast<double>(events) /
                         static_cast<double>(std::max<std::uint64_t>(
                             1, static_cast<std::uint64_t>(state.iterations()))));
}
BENCHMARK(BM_FleetRun)
    ->Args({1, 1})
    ->Args({8, 1})
    ->Args({64, 1})
    ->Args({1000, 1})
    ->Args({10000, 1})
    ->Args({10000, 0})
    ->Args({100000, 0})
    ->Args({1000000, 0})  // EXPERIMENTS.md recipe only; excluded from CI
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Observer-on variant: the identical fleet with a metrics registry and a
// bounded tracer attached to every session and the engine, on the same
// (sessions, shards) axes. Observed solves speculate too, so the delta to
// the matching BM_FleetRun row is the full observability tax and must stay
// within noise, with solve workers on (/1000/0) as well as serially.
void BM_FleetRunObserved(benchmark::State& state) {
  const std::size_t sessions = static_cast<std::size_t>(state.range(0));
  const std::size_t shards = static_cast<std::size_t>(state.range(1));
  const sim::VideoWorkload& workload = bench_workload();
  const trace::NetworkTrace link = bench_link(sessions);
  fleet::FleetConfig config;
  config.sessions = sessions;
  config.start_spread_s = 2.0;
  config.shards = shards;
  for (auto _ : state) {
    obs::MetricsRegistry metrics;
    obs::EventTracer tracer(1 << 14);
    obs::Observer observer{&metrics, &tracer};
    config.observer = &observer;
    const fleet::FleetResult result = fleet::run_fleet(workload, link, config);
    benchmark::DoNotOptimize(result.sessions.data());
    benchmark::DoNotOptimize(metrics.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(sessions));
  state.counters["sessions_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * sessions),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FleetRunObserved)
    ->Args({8, 1})
    ->Args({64, 1})
    ->Args({1000, 1})
    ->Args({1000, 0})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// The server/CDN tier under load: a 1000-session fleet through the two-tier
// topology (edge cache + origin link), swept over cache size (MiB, arg1)
// and Zipf skew (α × 100, arg2). The access cap binds and the origin is
// provisioned for the fleet, so the MPC's plans stay cache-independent and
// origin traffic is a pure function of miss bytes — an under-provisioned
// origin would instead feed back through
// bitrate adaptation (slower origin → smaller segments → fewer origin
// bytes at *smaller* caches) and scramble the curve. LRU policy
// throughout; the origin_mib column is the tracked trajectory
// (bench_guard requires these rows) and decreases monotonically down each
// α's sweep. hit_rate and stall_ratio tell the QoE side of the same
// story. Picked up by the CI BM_FleetRun|BM_FleetEdgeCache filter.
void BM_FleetEdgeCache(benchmark::State& state) {
  const std::size_t sessions = static_cast<std::size_t>(state.range(0));
  const double cache_mib = static_cast<double>(state.range(1));
  const double alpha = static_cast<double>(state.range(2)) / 100.0;
  const sim::VideoWorkload& workload = bench_workload();
  const trace::NetworkTrace link = bench_link(sessions);
  fleet::FleetConfig config;
  config.sessions = sessions;
  config.start_spread_s = 2.0;
  config.access_cap_mbps = 2.0;  // binding (< the scaled link fair share)
  config.server.enabled = true;
  config.server.catalog = {/*videos=*/16, alpha};
  config.server.cache_capacity = util::mebibytes(cache_mib);
  // Comfortably above worst-case total miss demand (every session at the
  // 2 Mbps cap), so the miss cost is the origin latency, never origin
  // queueing.
  config.server.origin_mbps = 4.0 * static_cast<double>(sessions);
  std::uint64_t hits = 0, misses = 0;
  double origin_bytes = 0.0, stall_ratio = 0.0;
  for (auto _ : state) {
    const fleet::FleetResult result = fleet::run_fleet(workload, link, config);
    hits += result.stats.cache_hits;
    misses += result.stats.cache_misses;
    origin_bytes += result.stats.origin_bytes.value();
    stall_ratio += result.metrics(1.0).stall_ratio;
    benchmark::DoNotOptimize(result.sessions.data());
  }
  const double iters = static_cast<double>(
      std::max<std::int64_t>(1, static_cast<std::int64_t>(state.iterations())));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(sessions));
  state.counters["sessions_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * sessions),
      benchmark::Counter::kIsRate);
  state.counters["hit_rate"] = benchmark::Counter(
      hits + misses > 0
          ? static_cast<double>(hits) / static_cast<double>(hits + misses)
          : 0.0);
  state.counters["origin_mib"] = benchmark::Counter(
      origin_bytes / (1024.0 * 1024.0) / iters);
  state.counters["stall_ratio"] = benchmark::Counter(stall_ratio / iters);
}
BENCHMARK(BM_FleetEdgeCache)
    ->Args({1000, 0, 80})
    ->Args({1000, 8, 80})
    ->Args({1000, 64, 80})
    ->Args({1000, 0, 120})
    ->Args({1000, 8, 120})
    ->Args({1000, 64, 120})
    ->Unit(benchmark::kMillisecond);

// The full competitor tournament at --quick scale: every registered scheme
// (the paper five plus GhoshLP/GhoshRobust/Pano) × both paper traces × both
// default fault profiles × two small fleets, ranked into one report. This is
// the end-to-end cost of a controller-zoo comparison run; cells_per_s is the
// tracked rate (grid cells retired per wall-clock second, hence real time:
// the cells run on the worker pool as well as on the timing thread). Arg =
// TournamentConfig::shards: 1 solves each fleet's plans on its cell's
// thread, 4 sends them to the same pool the cells run on, within the same
// thread budget — the report is bit-identical across the axis
// (tests/tournament_test.cpp pins it), so the /1 → /4 delta is pure
// wall-clock. Picked up by the CI
// BM_FleetRun|...|BM_Tournament filter and bench_guard --require.
void BM_Tournament(benchmark::State& state) {
  sim::TournamentConfig config;
  config.shards = static_cast<std::size_t>(state.range(0));
  config.fleet_sizes = {2, 3};     // --quick scale: shapes, not throughput
  config.video_duration_s = 10.0;  // keep each of the 64 cells snappy
  std::size_t cells = 0;
  for (auto _ : state) {
    const sim::TournamentReport report = sim::run_tournament(config);
    cells += report.cells.size();
    benchmark::DoNotOptimize(report.standings.data());
  }
  const double iters = static_cast<double>(
      std::max<std::int64_t>(1, static_cast<std::int64_t>(state.iterations())));
  state.SetItemsProcessed(static_cast<std::int64_t>(cells));
  state.counters["cells_per_s"] = benchmark::Counter(
      static_cast<double>(cells), benchmark::Counter::kIsRate);
  state.counters["cells"] =
      benchmark::Counter(static_cast<double>(cells) / iters);
  state.counters["schemes"] = benchmark::Counter(
      static_cast<double>(sim::registered_schemes().size()));
}
BENCHMARK(BM_Tournament)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// The link update in isolation: start/finish churn over a standing pool of
// `flows` flows (arg0) on an 80 Mbps link, either uncapped (arg1 = 0, the
// origin link and a cap-free device link) or under a link-wide cap of half
// the smallest fair share, which binds throughout (arg1 = 1, a device link
// whose access cap binds). O(log flows) per start/finish either way.
void BM_SharedLinkChurn(benchmark::State& state) {
  const std::size_t flows = static_cast<std::size_t>(state.range(0));
  const bool capped = state.range(1) != 0;
  std::vector<trace::ThroughputSample> samples;
  for (double t = 0.0; t < 600.0; t += 1.0) samples.push_back({t, 80.0});
  const trace::NetworkTrace trace(std::move(samples));
  const double capacity_bytes_per_s = 80.0 * 1e6 / 8.0;
  const util::BytesPerSec cap(
      capped ? capacity_bytes_per_s / (2.0 * static_cast<double>(flows)) : 0.0);
  for (auto _ : state) {
    fleet::SharedLink link(trace, flows, cap);
    for (std::size_t s = 0; s < flows; ++s)
      link.start(s, util::Bytes(1e5 + 1e3 * static_cast<double>(s)));
    std::size_t restarts_left = flows;  // one replacement flow per session
    while (const auto completion = link.next_completion()) {
      link.advance_to(completion->t);
      link.finish(completion->session);
      if (restarts_left > 0) {
        --restarts_left;
        link.start(completion->session, util::Bytes(5e4));
      }
    }
    benchmark::DoNotOptimize(link.reallocations());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * flows));
}
BENCHMARK(BM_SharedLinkChurn)->ArgsProduct({{8, 64, 256}, {0, 1}});

}  // namespace
