#include "layers.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "sim/accounting.h"
#include "sim/client.h"

namespace perfbench {

namespace ps = ps360;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double registry_value(const ps::obs::MetricsRegistry& registry, const std::string& name) {
  return registry.has(name) ? registry.value(name) : 0.0;
}

double per(double value, std::size_t count) {
  return count > 0 ? value / static_cast<double>(count) : 0.0;
}

bool same_choice(const ps::core::QualityOption& a, const ps::core::QualityOption& b) {
  return a.quality == b.quality && a.frame_index == b.frame_index && a.bytes == b.bytes;
}

}  // namespace

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> table = {
      // trace / ptile / sim.workload: input construction.
      {"setup.network_trace_s", "s"},
      {"setup.video_workload_s", "s"},
      {"setup.ftile_s", "s"},
      // sim: the single-session path, per paper scheme.
      {"session.scheme_s.Ctile", "s"},
      {"session.scheme_s.Ftile", "s"},
      {"session.scheme_s.Nontile", "s"},
      {"session.scheme_s.Ptile", "s"},
      {"session.scheme_s.Ours", "s"},
      {"session.ptile_segments", "count"},
      {"session.reduced_frame_segments", "count"},
      {"session.fallback_segments", "count"},
      // sim.client / predict / core: replayed client calls.
      {"client.begin_plan_us", "us"},
      {"client.finish_plan_us", "us"},
      {"client.complete_download_us", "us"},
      {"scheme.plan_us", "us"},
      {"predict.us", "us"},
      {"replay.segments", "count"},
      {"mpc.decides", "count"},
      {"mpc.relaxed_fallbacks", "count"},
      {"mpc.infeasible", "count"},
      // fleet: the engine on the coordinator.
      {"fleet.run_fleet_s", "s"},
      {"fleet.client_replay_s", "s"},
      {"fleet.engine_residual_s", "s"},
      {"fleet.events_per_segment", "events/segment"},
      {"fleet.stale_ratio", "ratio"},
      {"fleet.reallocations_per_event", "ratio"},
      {"fleet.queue_peak", "count"},
      {"fleet.queue_grow_events", "count"},
      // fleet.shard: in-replication parallelism.
      {"shard.speedup", "ratio"},
      {"shard.cpu_ratio", "ratio"},
      {"client.wait_s_per_segment", "s"},
      // server: edge cache and origin.
      {"server.hit_ratio", "ratio"},
      {"server.evictions", "count"},
      {"server.origin_flows", "count"},
      {"server.origin_mib", "MiB"},
      // Fault recovery (sim.client + trace.fault_schedule).
      {"client.retries_per_segment", "retries/segment"},
      {"client.timeouts", "count"},
      {"client.losses", "count"},
      {"client.outage_failures", "count"},
      {"client.degradations", "count"},
      {"fleet.flow_aborts", "count"},
      // sim.competitors / sim.tournament: restricted single-scheme runs.
      {"tournament.scheme_s.Ctile", "s"},
      {"tournament.scheme_s.Ftile", "s"},
      {"tournament.scheme_s.Nontile", "s"},
      {"tournament.scheme_s.Ptile", "s"},
      {"tournament.scheme_s.Ours", "s"},
      {"tournament.scheme_s.GhoshLP", "s"},
      {"tournament.scheme_s.GhoshRobust", "s"},
      {"tournament.scheme_s.Pano", "s"},
      {"lp.allocations", "count"},
      // obs: cost of observation.
      {"obs.traced_over_untraced", "ratio"},
      // The timed operations without normalization, and the host's speed.
      {"host.raw_segments_per_s", "segments/s"},
      {"host.calibration_ms", "ms"},
      // Simulated outputs that may legitimately be 0 or negative.
      {"qoe_p5", "qoe"},
      {"stall_ratio", "ratio"},
      {"failed_fraction", "ratio"},
  };
  return table;
}

void set_layer(MetricList& metrics, const std::string& name, double value) {
  for (const auto& [known, unit] : per_layer_metrics()) {
    if (known == name) {
      metrics.set(name, value, unit);
      return;
    }
  }
  throw std::logic_error("unknown per-layer metric " + name);
}

void replay_session(const ps::sim::VideoWorkload& workload, std::size_t test_user,
                    ps::sim::SchemeKind scheme, const ps::sim::SessionConfig& config,
                    const ps::sim::SessionResult& recorded, ReplayTotals& totals) {
  // The accountants only provide the scheme instances and the client config;
  // nothing is recorded into them.
  const ps::sim::SessionAccountant driven(workload, test_user, scheme, config);
  const ps::sim::SessionAccountant shadow(workload, test_user, scheme, config);
  ps::sim::StreamingClient client(driven.client_config(), workload, driven.scheme(),
                                  workload.test_trace(test_user));
  bool match = recorded.segments.size() == workload.segment_count();
  double prev_qo = -1.0;
  for (const ps::sim::SegmentRecord& segment : recorded.segments) {
    if (client.finished()) {
      match = false;
      break;
    }
    const auto t0 = Clock::now();
    client.begin_plan();
    const auto t1 = Clock::now();
    const ps::sim::ClientRequest request = client.finish_plan();
    const auto t2 = Clock::now();
    const ps::sim::DownloadPlan replanned = shadow.scheme().plan(
        request.segment, request.predicted, request.predicted_sfov,
        ps::util::BytesPerSec(request.bandwidth_estimate_bps),
        ps::util::Seconds(request.buffer_at_request_s), prev_qo);
    const auto t3 = Clock::now();
    client.complete_download(ps::util::Seconds(segment.download_s));
    const auto t4 = Clock::now();

    prev_qo = request.plan.option.qo;
    const ps::core::QualityOption& option = request.plan.option;
    match = match && request.segment == segment.index &&
            option.quality == segment.quality &&
            option.frame_index == segment.frame_index && option.bytes == segment.bytes &&
            same_choice(replanned.option, option);
    totals.begin_s += seconds_between(t0, t1);
    totals.finish_s += seconds_between(t1, t2);
    totals.plan_s += seconds_between(t2, t3);
    totals.complete_s += seconds_between(t3, t4);
    ++totals.segments;
  }
  ++totals.sessions;
  if (!match || !client.finished()) ++totals.mismatched_sessions;
}

void report_replay(const ReplayTotals& totals, MetricList& metrics) {
  const std::size_t n = totals.segments;
  set_layer(metrics, "client.begin_plan_us", per(totals.begin_s, n) * 1e6);
  set_layer(metrics, "client.finish_plan_us", per(totals.finish_s, n) * 1e6);
  set_layer(metrics, "client.complete_download_us", per(totals.complete_s, n) * 1e6);
  set_layer(metrics, "scheme.plan_us", per(totals.plan_s, n) * 1e6);
  set_layer(metrics, "predict.us",
            per(std::max(totals.finish_s - totals.plan_s, 0.0), n) * 1e6);
  set_layer(metrics, "replay.segments", static_cast<double>(n));
}

void report_registry(const ps::obs::MetricsRegistry& registry, std::size_t segments,
                     MetricList& metrics) {
  for (const char* name :
       {"session.ptile_segments", "session.reduced_frame_segments",
        "session.fallback_segments", "mpc.decides", "mpc.relaxed_fallbacks",
        "mpc.infeasible", "client.timeouts", "client.losses", "client.outage_failures",
        "client.degradations", "lp.allocations"}) {
    set_layer(metrics, name, registry_value(registry, name));
  }
  set_layer(metrics, "client.wait_s_per_segment",
            per(registry_value(registry, "client.wait_seconds"), segments));
  set_layer(metrics, "client.retries_per_segment",
            per(registry_value(registry, "client.retries"), segments));
}

void report_fleet_stats(const ps::fleet::FleetStats& stats, std::size_t segments,
                        MetricList& metrics) {
  const double events = static_cast<double>(stats.events);
  set_layer(metrics, "fleet.events_per_segment", per(events, segments));
  set_layer(metrics, "fleet.stale_ratio",
            events > 0 ? static_cast<double>(stats.stale_completions) / events : 0.0);
  set_layer(metrics, "fleet.reallocations_per_event",
            events > 0 ? static_cast<double>(stats.reallocations) / events : 0.0);
  set_layer(metrics, "fleet.queue_peak", static_cast<double>(stats.queue_peak));
  set_layer(metrics, "fleet.queue_grow_events",
            static_cast<double>(stats.queue_grow_events));
  set_layer(metrics, "fleet.flow_aborts", static_cast<double>(stats.flow_aborts));
  const double requests = static_cast<double>(stats.cache_hits + stats.cache_misses);
  set_layer(metrics, "server.hit_ratio",
            requests > 0 ? static_cast<double>(stats.cache_hits) / requests : 0.0);
  set_layer(metrics, "server.evictions", static_cast<double>(stats.cache_evictions));
  set_layer(metrics, "server.origin_flows", static_cast<double>(stats.origin_flows));
  set_layer(metrics, "server.origin_mib", stats.origin_bytes.value() / (1024.0 * 1024.0));
}

void accumulate(ps::fleet::FleetStats& total, const ps::fleet::FleetStats& add) {
  total.events += add.events;
  total.stale_completions += add.stale_completions;
  total.flow_aborts += add.flow_aborts;
  total.queue_grow_events += add.queue_grow_events;
  total.queue_peak = std::max(total.queue_peak, add.queue_peak);
  total.reallocations += add.reallocations;
  total.cache_hits += add.cache_hits;
  total.cache_misses += add.cache_misses;
  total.cache_evictions += add.cache_evictions;
  total.origin_flows += add.origin_flows;
  total.origin_bytes = total.origin_bytes + add.origin_bytes;
}

}  // namespace perfbench
