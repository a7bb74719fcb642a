// FleetRunner implementation: slot-per-replication results through
// util::for_each_slot on the worker pool, so aggregates are bit-identical
// for any thread count. Each slot runs a whole run_fleet call; its
// speculative solves (FleetConfig::shards) are tasks on the same pool,
// joined before the slot is written.
#include "fleet/runner.h"

#include <memory>

#include "util/check.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/worker_pool.h"

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
  // how the threads interleave (same pool as run_evaluation_grid).
  std::vector<FleetResult> results(n_reps);

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

  util::for_each_slot(n_reps, [&](std::size_t r) {
    const std::uint64_t rep_seed = util::derive_seed(config.seed, kReplicationStream, r);
    const trace::NetworkTrace link_trace =
        trace::synthesize_network_trace(rep_seed, options.link);
    FleetConfig rep_config = config;
    rep_config.seed = rep_seed;
    if (caller_obs != nullptr) {
      if (caller_obs->metrics != nullptr)
        rep_metrics[r] = std::make_unique<obs::MetricsRegistry>();
      if (caller_obs->tracer != nullptr)
        rep_tracers[r] = std::make_unique<obs::EventTracer>(caller_obs->tracer->capacity());
      rep_observers[r].metrics = rep_metrics[r].get();
      rep_observers[r].tracer = rep_tracers[r].get();
      rep_config.observer = &rep_observers[r];
    }
    results[r] = run_fleet(workload, link_trace, rep_config);
  });

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
  // single-fleet metrics. Engine stats are summed, except the peaks and
  // end-of-run levels (queue_peak, makespan_s, cache_entries,
  // cache_resident), which take the max, as the metrics merge does.
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
    pooled.stats.cache_entries = std::max(pooled.stats.cache_entries, r.stats.cache_entries);
    pooled.stats.cache_resident = std::max(pooled.stats.cache_resident, r.stats.cache_resident);
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
                         workload.config().segment_seconds);
}

}  // namespace ps360::fleet
