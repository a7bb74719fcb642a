// FleetRunner implementation: slot-per-replication results claimed through
// one atomic counter, so aggregates are bit-identical for any worker count.
// Each worker runs whole run_fleet calls; any in-replication sharding
// (FleetConfig::shards) nests its own SolvePool threads inside the call and
// joins them before the slot is written, so the two axes never interact.
#include "fleet/runner.h"

#include <atomic>
#include <memory>
#include <thread>

#include "sim/experiment.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/stats.h"

namespace ps360::fleet {

namespace {
// Seed stream tag separating replication streams from every other consumer
// of the base seed.
constexpr std::uint64_t kReplicationStream = 0xF1EE7ULL;
}  // namespace

std::vector<FleetResult> run_fleet_replications(const sim::VideoWorkload& workload,
                                                const FleetConfig& config,
                                                const FleetRunOptions& options) {
  PS360_CHECK(options.replications >= 1);

  const std::size_t n_reps = options.replications;
  // One slot per replication keeps the output order deterministic no matter
  // how the workers interleave (same pattern as run_evaluation_grid).
  std::vector<FleetResult> results(n_reps);
  // Work queue head: workers claim replication indices with fetch_add;
  // each index is processed exactly once, so slot writes never race.
  std::atomic<std::size_t> next_rep{0};

  // A shared Observer cannot be fed from concurrent workers, and merging as
  // replications *finish* would make the aggregate depend on completion
  // order. So: every replication records into a private slot, and the slots
  // are folded into the caller's observer in replication order after the
  // join — bit-identical for any PS360_THREADS (counters/bins add, gauges
  // max; all associative and commutative, but the fixed fold order removes
  // even FP-summation ambiguity).
  obs::Observer* const caller_obs = config.observer;
  std::vector<std::unique_ptr<obs::MetricsRegistry>> rep_metrics(n_reps);
  std::vector<std::unique_ptr<obs::EventTracer>> rep_tracers(n_reps);
  std::vector<obs::Observer> rep_observers(n_reps);

  auto worker = [&] {
    for (;;) {
      const std::size_t r = next_rep.fetch_add(1);
      if (r >= n_reps) return;
      const std::uint64_t rep_seed =
          util::derive_seed(config.seed, kReplicationStream, r);
      trace::NetworkSynthConfig link_cfg = options.link;
      link_cfg.seed = rep_seed;
      const trace::NetworkTrace link_trace = trace::synthesize_network_trace(link_cfg);
      FleetConfig rep_config = config;
      rep_config.seed = rep_seed;
      if (caller_obs != nullptr) {
        if (caller_obs->metrics != nullptr)
          rep_metrics[r] = std::make_unique<obs::MetricsRegistry>();
        if (caller_obs->tracer != nullptr)
          rep_tracers[r] =
              std::make_unique<obs::EventTracer>(caller_obs->tracer->capacity());
        rep_observers[r].metrics = rep_metrics[r].get();
        rep_observers[r].tracer = rep_tracers[r].get();
        rep_config.observer = &rep_observers[r];
      }
      results[r] = run_fleet(workload, link_trace, rep_config);
    }
  };

  const std::size_t n_threads =
      std::min(sim::resolve_thread_count(options.threads), n_reps);
  if (n_threads <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(n_threads);
    for (std::size_t t = 0; t < n_threads; ++t) pool.emplace_back(worker);
    for (auto& thread : pool) thread.join();
  }

  if (caller_obs != nullptr) {
    for (std::size_t r = 0; r < n_reps; ++r) {
      if (caller_obs->metrics != nullptr && rep_metrics[r] != nullptr)
        caller_obs->metrics->merge_from(*rep_metrics[r]);
      if (caller_obs->tracer != nullptr && rep_tracers[r] != nullptr)
        caller_obs->tracer->merge_from(*rep_tracers[r]);
    }
  }
  return results;
}

FleetAggregate aggregate_fleet(const std::vector<FleetResult>& results,
                               double segment_seconds) {
  PS360_CHECK(!results.empty());
  // Pool every replication's sessions into one FleetResult, then reuse the
  // single-fleet metrics; engine stats are summed.
  FleetResult pooled;
  FleetAggregate agg;
  agg.replications = results.size();
  for (const FleetResult& r : results) {
    agg.sessions = r.sessions.size();
    for (const FleetSessionResult& s : r.sessions) pooled.sessions.push_back(s);
    pooled.stats.events += r.stats.events;
    pooled.stats.stale_completions += r.stats.stale_completions;
    pooled.stats.flow_aborts += r.stats.flow_aborts;
    pooled.stats.queue_grow_events += r.stats.queue_grow_events;
    pooled.stats.queue_peak = std::max(pooled.stats.queue_peak, r.stats.queue_peak);
    pooled.stats.reallocations += r.stats.reallocations;
    pooled.stats.makespan_s = std::max(pooled.stats.makespan_s, r.stats.makespan_s);
    pooled.stats.delivered_bytes += r.stats.delivered_bytes;
    pooled.stats.offered_bytes += r.stats.offered_bytes;
    pooled.stats.cache_hits += r.stats.cache_hits;
    pooled.stats.cache_misses += r.stats.cache_misses;
    pooled.stats.cache_evictions += r.stats.cache_evictions;
    pooled.stats.cache_insertions += r.stats.cache_insertions;
    pooled.stats.cache_entries += r.stats.cache_entries;
    pooled.stats.cache_resident += r.stats.cache_resident;
    pooled.stats.origin_flows += r.stats.origin_flows;
    pooled.stats.origin_bytes += r.stats.origin_bytes;
  }
  agg.metrics = pooled.metrics(segment_seconds);
  agg.stats = pooled.stats;
  agg.events_per_session =
      pooled.sessions.empty()
          ? 0.0
          : static_cast<double>(pooled.stats.events) /
                static_cast<double>(pooled.sessions.size());
  return agg;
}

FleetAggregate run_fleet_aggregate(const sim::VideoWorkload& workload,
                                   const FleetConfig& config,
                                   const FleetRunOptions& options) {
  return aggregate_fleet(run_fleet_replications(workload, config, options),
                         config.session.mpc.segment_seconds);
}

std::vector<FleetSweepPoint> sweep_fleet_sizes(const sim::VideoWorkload& workload,
                                               const FleetConfig& base,
                                               const std::vector<std::size_t>& sizes,
                                               const FleetRunOptions& options) {
  PS360_CHECK(!sizes.empty());
  std::vector<FleetSweepPoint> points;
  points.reserve(sizes.size());
  for (const std::size_t size : sizes) {
    PS360_CHECK(size >= 1);
    FleetConfig config = base;
    config.sessions = size;
    FleetSweepPoint point;
    point.sessions = size;
    point.aggregate = run_fleet_aggregate(workload, config, options);
    points.push_back(std::move(point));
  }
  return points;
}

}  // namespace ps360::fleet
