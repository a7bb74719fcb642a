// Per-layer measurement helpers for the traced run: the per-layer metric
// table, the client replay that splits a session's host time into
// begin_plan / finish_plan (prediction + scheme plan) / complete_download,
// and readers for the counters FleetStats and the metrics registry publish.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "fleet/engine.h"
#include "obs/metrics.h"
#include "sim/session.h"
#include "support.h"

namespace perfbench {

// Every per-layer metric (name, unit), in print order. BENCHMARK.json's
// per_layer list must match it (run.py --smoke checks).
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

// Set `name` in `metrics` with the unit from per_layer_metrics().
void set_layer(MetricList& metrics, const std::string& name, double value);

// Host time of the client's public calls over replayed sessions.
struct ReplayTotals {
  double begin_s = 0.0;     // StreamingClient::begin_plan
  double finish_s = 0.0;    // StreamingClient::finish_plan
  double complete_s = 0.0;  // StreamingClient::complete_download
  double plan_s = 0.0;      // Scheme::plan re-invoked with the same inputs
  std::size_t segments = 0;
  std::size_t sessions = 0;
  std::size_t mismatched_sessions = 0;

  double client_s() const { return begin_s + finish_s + complete_s; }
};

// Replay one clean session: a fresh StreamingClient is fed the recorded
// download times, and every request must reproduce the recorded quality,
// frame index and bytes (else the session counts as mismatched). A second,
// identically driven scheme instance re-plans each request from its
// recorded inputs so Scheme::plan time splits off from prediction.
void replay_session(const ps360::sim::VideoWorkload& workload, std::size_t test_user,
                    ps360::sim::SchemeKind scheme,
                    const ps360::sim::SessionConfig& config,
                    const ps360::sim::SessionResult& recorded, ReplayTotals& totals);

// client.*_us, scheme.plan_us, predict.us and replay.segments.
void report_replay(const ReplayTotals& totals, MetricList& metrics);

// Counters the session, client, MPC, LP and server layers publish in the
// metrics registry, normalized by `segments` where the metric is a rate.
void report_registry(const ps360::obs::MetricsRegistry& registry,
                     std::size_t segments, MetricList& metrics);

// Engine counters from FleetStats (summed over the fleets run).
void report_fleet_stats(const ps360::fleet::FleetStats& stats,
                        std::size_t segments, MetricList& metrics);

// Accumulate engine counters over several fleets (queue_peak takes the max).
void accumulate(ps360::fleet::FleetStats& total, const ps360::fleet::FleetStats& add);

}  // namespace perfbench
