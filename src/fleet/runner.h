// FleetRunner: independent fleet replications fanned out over the worker
// pool, aggregated into fleet-level metrics.
//
// Each replication r synthesizes its own bottleneck trace and start stagger
// from seeds derived off (base seed, r) — the same (seed, stream) discipline
// as the evaluation grid — and lands in result slot r, so aggregates are
// bit-identical for any thread budget (PS360_THREADS, or the hardware
// concurrency; util/worker_pool.h).
//
// This runner parallelizes ACROSS replications (each slot runs a whole
// run_fleet call), while FleetConfig::shards sends the speculative MPC
// solves WITHIN one replication to the same pool (DESIGN.md §15). Both are
// result-invariant, so any budget × `shards` is bit-identical to fully
// serial, and both draw on the one thread budget, so no mix runs more
// threads than the budget.
#pragma once

#include <vector>

#include "fleet/engine.h"

namespace ps360::fleet {

struct FleetRunOptions {
  std::size_t replications = 3;  // run on the worker pool, one slot each
  // Bottleneck trace synthesis per replication, seeded with the derived
  // per-replication seed. Scale mean/min/max to provision the link for the
  // fleet size under study.
  trace::NetworkSynthConfig link;
};

// Metrics pooled across replications (sessions pooled before percentiles).
struct FleetAggregate {
  std::size_t sessions = 0;
  std::size_t replications = 0;
  FleetMetrics metrics;     // percentiles over all replications' sessions
  FleetStats stats;         // summed engine stats
  double events_per_session = 0.0;
};

// Run `options.replications` independent fleets. Results are ordered by
// replication index regardless of thread interleaving.
std::vector<FleetResult> run_fleet_replications(const sim::VideoWorkload& workload,
                                                const FleetConfig& config,
                                                const FleetRunOptions& options);

// Pool the per-session results of several replications into one aggregate.
FleetAggregate aggregate_fleet(const std::vector<FleetResult>& results,
                               double segment_seconds);

// Convenience: replications + aggregation (at the workload's L) in one call.
FleetAggregate run_fleet_aggregate(const sim::VideoWorkload& workload,
                                   const FleetConfig& config,
                                   const FleetRunOptions& options);

}  // namespace ps360::fleet
