// Fleet engine implementation: one event loop drives N StreamingClients
// against one SharedLink. The coordinator thread owns every shared resource
// (links, caches, observability sinks, the event heap) and processes events
// in (t, session, seq) order; the worker pool only runs speculative
// per-session plans during nonzero Eq. 6 waits. A plan emits nothing, and
// the coordinator publishes it at the flow start. Only the earliest
// completion is ever scheduled; stale predictions are discarded by
// generation tag.
#include "fleet/engine.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>

#include "sim/client.h"
#include "trace/fault_schedule.h"
#include "util/check.h"
#include "util/units.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/worker_pool.h"

namespace ps360::fleet {

namespace {

// Seed stream tag for the session start stagger (arbitrary constant, fixed
// forever so fleet runs stay reproducible across versions).
constexpr std::uint64_t kStartJitterStream = 0x5747A66E5ULL;

// Seed stream tag for per-session recovery (backoff jitter) seeds under
// fault injection.
constexpr std::uint64_t kRetrySeedStream = 0x4E74BAC0FFULL;

// Breakpoint time of the flat origin-link trace: far past any makespan, so
// the origin link never generates capacity-change events (a single-sample
// trace would repeat every second and flood the queue with breakpoints).
constexpr double kOriginTraceHorizonS = 1e9;

// One session's live state inside the engine.
struct SessionRuntime {
  std::unique_ptr<sim::SessionAccountant> accountant;
  std::unique_ptr<sim::StreamingClient> client;
  // The request planned for the next flow, in flight or waiting. Filled at
  // the kFlowStart event (just-in-time or by joining the speculative solve).
  std::optional<sim::ClientRequest> pending;
  // Landing slot for the speculative finish_plan() result. Written by
  // whichever thread runs the solve task, moved into `pending` by the
  // coordinator after TaskGroup::join — the edge that makes it visible.
  std::optional<sim::ClientRequest> speculative;
  double flow_started_at = 0.0;  // issue time of the current attempt
  double start_s = 0.0;
  double finish_s = 0.0;

  // Fault-injection state (null/idle unless FaultConfig.enabled).
  std::unique_ptr<trace::FaultSchedule> faults;
  std::uint64_t attempt_seq = 0;  // tags deadline/admit events; bump = stale
  double attempt_elapsed = 0.0;   // radio-on seconds of failed attempts
  bool in_flight = false;         // a link flow exists for this session
  bool origin_in_flight = false;  // an origin-link flow exists (server tier)
  sim::FailureReason fail_reason = sim::FailureReason::kTimeout;
};

}  // namespace

FleetMetrics FleetResult::metrics(double segment_seconds) const {
  PS360_CHECK(segment_seconds > 0.0);
  FleetMetrics m;
  m.sessions = sessions.size();
  if (sessions.empty()) return m;

  std::vector<double> energies, qoes;
  energies.reserve(sessions.size());
  qoes.reserve(sessions.size());
  double total_stall = 0.0, total_playback = 0.0;
  double total_download_s = 0.0;
  std::size_t total_segments = 0;
  for (const FleetSessionResult& s : sessions) {
    energies.push_back(s.result.energy.total_mj());
    qoes.push_back(s.result.qoe.mean_q);
    total_stall += s.result.total_stall_s;
    total_playback +=
        static_cast<double>(s.result.segments.size()) * segment_seconds;
    for (const sim::SegmentRecord& seg : s.result.segments)
      total_download_s += seg.download_s;
    total_segments += s.result.segments.size();
  }
  m.energy_per_session_mj = util::mean(energies);
  m.p50_energy_mj = util::percentile(energies, 50.0);
  m.p95_energy_mj = util::percentile(energies, 95.0);
  m.mean_qoe = util::mean(qoes);
  m.p50_qoe = util::percentile(qoes, 50.0);
  m.p95_qoe = util::percentile(qoes, 95.0);
  m.stall_ratio = total_playback + total_stall > 0.0
                      ? total_stall / (total_playback + total_stall)
                      : 0.0;
  m.link_utilization = stats.offered_bytes.value() > 0.0
                           ? stats.delivered_bytes / stats.offered_bytes
                           : 0.0;
  m.mean_download_s = total_segments > 0
                          ? total_download_s / static_cast<double>(total_segments)
                          : 0.0;
  const double cache_requests =
      static_cast<double>(stats.cache_hits + stats.cache_misses);
  m.cache_hit_rate = cache_requests > 0.0
                         ? static_cast<double>(stats.cache_hits) / cache_requests
                         : 0.0;
  m.origin_bytes = stats.origin_bytes;
  return m;
}

std::size_t recommended_reserve_events(const FleetConfig& config) {
  PS360_CHECK(config.sessions >= 1);
  // Residents per session, bounded by feature rather than fleet size: the
  // pending session-start/flow-start event, the live completion prediction,
  // and a short tail of stale predictions that drain as they pop. Faults are
  // the heavy case — every attempt leaves its deadline event resident for
  // timeout_s after the flow resolves, so startup bursts (back-to-back
  // downloads while the buffer fills) park tens of stale deadlines at once.
  // The constants keep the heap inside its reservation across the
  // 200-config differential battery
  // (FleetShardTest.ReserveFormulaCoversMeasuredPeaks pins growth at zero).
  const std::size_t per_session = (config.session.faults.enabled ? 32 : 8) +
                                  (config.server.enabled ? 4 : 0);
  return per_session * config.sessions + 64;
}

FleetResult run_fleet(const sim::VideoWorkload& workload,
                      const trace::NetworkTrace& link_trace,
                      const FleetConfig& config, std::size_t first_test_user) {
  PS360_CHECK(config.sessions >= 1);
  PS360_CHECK_MSG(std::isfinite(config.start_spread_s) && config.start_spread_s >= 0.0,
                  "start_spread_s must be finite and >= 0");
  PS360_CHECK_MSG(std::isfinite(config.access_cap_mbps),
                  "access_cap_mbps must be finite (<= 0 disables the cap)");
  PS360_CHECK(workload.test_user_count() > 0);

  const std::size_t n = config.sessions;
  const double cap_bytes_per_s =
      config.access_cap_mbps > 0.0 ? config.access_cap_mbps * 1e6 / 8.0 : 0.0;

  // Sessions, clients, and link slots are all preallocated; after this block
  // the steady-state hot path performs no heap allocation (the zero-growth
  // regression test pins EventLoop growth to 0).
  const bool faults_on = config.session.faults.enabled;
  // Server/CDN tier: per-run catalog, edge cache, and origin link (one per
  // replication slot, see FleetServerConfig).
  // The origin trace is flat with its only breakpoint far past any makespan,
  // so the origin link never schedules capacity-change events.
  const bool server_on = config.server.enabled;
  std::optional<server::ZipfPopularity> popularity;
  std::optional<server::EdgeCache> edge_cache;
  std::optional<trace::NetworkTrace> origin_trace;
  std::optional<SharedLink> origin_link;
  std::vector<std::uint32_t> session_video;
  if (server_on) {
    PS360_CHECK_MSG(std::isfinite(config.server.origin_mbps) &&
                        config.server.origin_mbps > 0.0,
                    "origin_mbps must be finite and > 0");
    PS360_CHECK_MSG(std::isfinite(config.server.origin_latency_s) &&
                        config.server.origin_latency_s >= 0.0,
                    "origin_latency_s must be finite and >= 0");
    popularity.emplace(config.server.catalog);
    server::EdgeCacheConfig cache_config;
    cache_config.capacity = config.server.cache_capacity;
    cache_config.policy = config.server.policy;
    cache_config.max_entries = config.server.cache_max_entries;
    cache_config.video_weights = popularity->weights();
    edge_cache.emplace(std::move(cache_config));
    origin_trace.emplace(std::vector<trace::ThroughputSample>{
        {0.0, config.server.origin_mbps},
        {kOriginTraceHorizonS, config.server.origin_mbps}});
    // Origin fetches are uncapped: the access cap models the device radio,
    // not the edge's backhaul; concurrent misses share the origin capacity
    // equally.
    origin_link.emplace(*origin_trace, n, util::BytesPerSec(0.0));
    session_video.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      util::Rng rng(
          util::derive_seed(config.seed, server::kVideoPopularityStream, i));
      session_video[i] = static_cast<std::uint32_t>(popularity->sample(rng));
    }
  }
  const auto test_user_of = [&](std::size_t i) {
    return (first_test_user + i) % workload.test_user_count();
  };
  std::vector<SessionRuntime> sessions(n);
  for (std::size_t i = 0; i < n; ++i) {
    SessionRuntime& rt = sessions[i];
    const std::size_t test_user = test_user_of(i);
    // Under fault injection each session gets a private fault schedule and a
    // private recovery (jitter) stream index, both keyed off (fleet seed,
    // session) so replications and sessions decorrelate; the client folds the
    // index with the session seed.
    sim::SessionConfig session_config = config.session;
    if (faults_on) {
      session_config.recovery.seed =
          util::derive_seed(config.seed, kRetrySeedStream, i);
      rt.faults = std::make_unique<trace::FaultSchedule>(
          config.session.faults,
          util::derive_seed(config.seed, trace::kFaultSeedStream, i));
    }
    rt.accountant = std::make_unique<sim::SessionAccountant>(
        workload, test_user, config.scheme, session_config);
    rt.client = std::make_unique<sim::StreamingClient>(
        session_config, workload, rt.accountant->scheme(), workload.test_trace(test_user));
  }

  // Speculation moves only wall-clock time (the fleet_shard differential
  // battery); a one-thread budget has no worker to hide a solve on.
  const bool speculate = config.shards != 1 && n > 1 && util::pool_workers() > 0;
  EventLoop loop(recommended_reserve_events(config));
  SharedLink link(link_trace, n, util::BytesPerSec(cap_bytes_per_s));
  FleetStats stats;

  // finish_plan() is a pure function of session-local state frozen at
  // begin_plan() time that emits nothing, so a pool worker may run it during
  // the session's Eq. 6 wait — bit-identical results either way. The
  // coordinator publishes the plan at the flow start.
  obs::Observer* const observer = config.observer;
  std::optional<util::TaskGroup> solves;
  if (speculate)
    solves.emplace(n, [&sessions](std::size_t i) {
      sessions[i].speculative = sessions[i].client->finish_plan();
    });

  for (std::size_t i = 0; i < n; ++i) {
    SessionRuntime& rt = sessions[i];
    util::Rng rng(util::derive_seed(config.seed, kStartJitterStream, i));
    rt.start_s =
        config.start_spread_s > 0.0 ? rng.uniform(0.0, config.start_spread_s) : 0.0;
    loop.schedule(rt.start_s, i, EventKind::kSessionStart);
    if (observer != nullptr) {
      rt.accountant->attach_observer(observer, static_cast<std::uint32_t>(i));
      // The client's private wall clock starts at its staggered entry, so
      // offsetting by start_s makes its trace timestamps engine-time.
      rt.client->attach_observer(observer, static_cast<std::uint32_t>(i),
                                 util::Seconds(rt.start_s));
    }
  }
  loop.schedule(link_trace.next_rate_change_after(0.0), kLinkSession,
                EventKind::kCapacityChange);

  // Engine-level metric ids, registered once so the event loop below only
  // performs index-adds. kLinkTraceSession labels link-wide trace records.
  obs::MetricsRegistry::Id id_events = 0, id_stale = 0, id_rate_changes = 0;
  if (observer != nullptr && observer->metrics != nullptr) {
    id_events = observer->metrics->counter("fleet.events");
    id_stale = observer->metrics->counter("fleet.stale_completions");
    id_rate_changes = observer->metrics->counter("fleet.capacity_changes");
  }
  constexpr std::uint32_t kLinkTraceSession = 0xFFFFFFFFu;

  // Consume the session's Eq. 6 wait (begin_plan advances the client through
  // it) and schedule the flow start; the plan itself is solved later — by a
  // pool worker during a nonzero wait, or on the coordinator when kFlowStart
  // pops (with no wait there is nothing to hide the solve behind, and the
  // join would come at once). Releasing after schedule() keeps scheduling
  // order identical with and without speculation.
  const auto schedule_next_flow = [&](std::size_t i, double t) {
    SessionRuntime& rt = sessions[i];
    const double wait_s = rt.client->begin_plan();
    loop.schedule(t + wait_s, i, EventKind::kFlowStart);
    if (solves && wait_s > 0.0) solves->release(i);
  };

  // Cache key of the pending request: the plan word packs the MPC's chosen
  // encoding (quality level, frame-rate ladder index, decode profile), so
  // two sessions share a cached object only when they picked the same
  // representation — same as a CDN keyed on the encoded-segment URL.
  const auto segment_key = [&](std::size_t i) {
    const SessionRuntime& rt = sessions[i];
    const core::QualityOption& opt = rt.pending->plan.option;
    const std::uint64_t plan_word =
        static_cast<std::uint64_t>(opt.quality) |
        (static_cast<std::uint64_t>(opt.frame_index) << 24) |
        (static_cast<std::uint64_t>(opt.profile) << 48);
    return server::SegmentKey{session_video[i],
                              static_cast<std::uint32_t>(rt.pending->segment),
                              plan_word};
  };

  // Start the pending download on the device-side (edge) link.
  const auto start_edge_flow = [&](std::size_t i) {
    SessionRuntime& rt = sessions[i];
    rt.in_flight = true;
    link.start(i, util::Bytes(rt.pending->plan.option.bytes));
    obs::trace(observer, static_cast<std::uint32_t>(i),
               obs::TraceEventKind::kDownloadStart,
               static_cast<std::int64_t>(rt.pending->segment),
               rt.pending->plan.option.bytes);
  };

  // Put the pending download onto the device-side link — or, with the
  // server tier on and the segment absent from the edge cache, route the
  // fetch through the origin first. flow_started_at stays at issue time, so
  // the device-perceived download (and any stall it causes) includes the
  // full miss cost: origin latency + origin transfer + edge transfer.
  const auto admit_flow = [&](std::size_t i, double t) {
    if (server_on && !edge_cache->lookup(segment_key(i))) {
      loop.schedule(t + config.server.origin_latency_s, i,
                    EventKind::kOriginStart, sessions[i].attempt_seq);
      return;
    }
    start_edge_flow(i);
  };

  // Whenever a link's rates moved since its last prediction, schedule its
  // earliest completion, tagged with the generation it was predicted under.
  const auto predict_completion = [&](const SharedLink& target,
                                      std::uint64_t& predicted_generation,
                                      EventKind kind, double t) {
    if (target.generation() == predicted_generation || target.active_flows() == 0)
      return;
    const auto completion = target.next_completion();
    PS360_ASSERT(completion.has_value());
    loop.schedule(std::max(completion->t, t), completion->session, kind,
                  target.generation());
    predicted_generation = target.generation();
  };

  std::uint64_t scheduled_generation = 0;  // link generation last predicted at
  std::uint64_t scheduled_origin_generation = 0;  // ditto, origin link
  std::size_t done_count = 0;

  while (done_count < n) {
    const Event event = loop.pop();
    ++stats.events;
    link.advance_to(event.t);
    if (server_on) origin_link->advance_to(event.t);
    if (observer != nullptr) {
      observer->now_s = event.t;
      if (observer->metrics != nullptr) observer->metrics->add(id_events);
    }

    switch (event.kind) {
      case EventKind::kSessionStart:
        schedule_next_flow(event.session, event.t);
        break;

      case EventKind::kFlowStart: {
        SessionRuntime& rt = sessions[event.session];
        if (!rt.pending.has_value()) {
          // First start of this attempt cycle: collect the plan — released
          // during the wait (the join runs it here if no worker did), or
          // solved right here — and publish it. Retries re-enter with
          // `pending` set and skip. Publishing moves the observer's clock to
          // the session's planning clock, so the download_start record below
          // carries it, not the event time (they can differ in the last
          // bit); the fleet golden pins these stamps.
          if (solves && solves->outstanding(event.session)) {
            solves->join(event.session);
            rt.pending = std::move(rt.speculative);
            rt.speculative.reset();
          } else {
            rt.pending = rt.client->finish_plan();
          }
          rt.client->publish_plan();
        }
        PS360_ASSERT(rt.pending.has_value());
        // Download time runs from issue, so it includes any spike, outage
        // wait or origin fetch before the bytes reach the device.
        rt.flow_started_at = event.t;
        if (rt.faults != nullptr) {
          const sim::RecoveryConfig& rc = rt.client->recovery();
          const std::size_t attempt = rt.client->attempts() + 1;
          const auto outage = rt.faults->outage_at(event.t);
          if (attempt >= rc.max_attempts) {
            // Guaranteed final attempt: never lost, no deadline. Blacked out
            // at issue, it waits for the outage to end before admission.
            if (outage) {
              loop.schedule(outage->end, event.session, EventKind::kFlowAdmit,
                            rt.attempt_seq);
              break;
            }
          } else {
            // Every other attempt runs against one deadline and fails in
            // causal order: blacked out at issue (it burns until the outage
            // ends or the deadline), lost in flight (nothing reaches the
            // link; the client learns at the deadline), or too slow.
            const std::uint64_t tag = ++rt.attempt_seq;
            const trace::AttemptFault fault =
                outage ? trace::AttemptFault{}
                       : rt.faults->attempt_fault(rt.pending->segment, attempt);
            rt.fail_reason = outage       ? sim::FailureReason::kOutage
                             : fault.lost ? sim::FailureReason::kLost
                                          : sim::FailureReason::kTimeout;
            const double deadline_s =
                outage ? std::min(outage->end - event.t, rc.timeout_s) : rc.timeout_s;
            loop.schedule(event.t + deadline_s, event.session,
                          EventKind::kFlowDeadline, tag);
            if (outage || fault.lost) break;
            if (fault.spike_s > 0.0) {
              // Latency spike: the flow reaches the link only after the
              // spike. If the spike outlasts the deadline the admit arrives
              // stale and is discarded.
              loop.schedule(event.t + fault.spike_s, event.session,
                            EventKind::kFlowAdmit, tag);
              break;
            }
          }
        }
        admit_flow(event.session, event.t);
        break;
      }

      case EventKind::kFlowAdmit: {
        SessionRuntime& rt = sessions[event.session];
        if (!rt.pending.has_value() || event.generation != rt.attempt_seq)
          break;  // attempt already failed (deadline beat the spike)
        admit_flow(event.session, event.t);
        break;
      }

      case EventKind::kOriginStart: {
        SessionRuntime& rt = sessions[event.session];
        if (!rt.pending.has_value() || event.generation != rt.attempt_seq)
          break;  // the attempt failed while the request travelled upstream
        rt.origin_in_flight = true;
        ++stats.origin_flows;
        origin_link->start(event.session,
                           util::Bytes(rt.pending->plan.option.bytes));
        break;
      }

      case EventKind::kOriginCompletion: {
        if (event.generation != origin_link->generation()) {
          ++stats.stale_completions;  // origin rates moved since predicted
          if (observer != nullptr && observer->metrics != nullptr)
            observer->metrics->add(id_stale);
          break;
        }
        SessionRuntime& rt = sessions[event.session];
        origin_link->finish(event.session);
        rt.origin_in_flight = false;
        // The object now sits at the edge: cache it, then start the
        // device-side flow.
        edge_cache->admit(segment_key(event.session),
                          util::Bytes(rt.pending->plan.option.bytes));
        start_edge_flow(event.session);
        break;
      }

      case EventKind::kFlowDeadline: {
        SessionRuntime& rt = sessions[event.session];
        if (!rt.pending.has_value() || event.generation != rt.attempt_seq)
          break;  // the attempt completed (or already failed) before this
        ++rt.attempt_seq;  // invalidate any pending admit for this attempt
        if (rt.in_flight) {
          link.abort(event.session);  // bumps generation: completion goes stale
          rt.in_flight = false;
          ++stats.flow_aborts;
        }
        if (rt.origin_in_flight) {
          origin_link->abort(event.session);  // pending origin completion stales
          rt.origin_in_flight = false;
          ++stats.flow_aborts;
        }
        const double elapsed = event.t - rt.flow_started_at;
        rt.attempt_elapsed += elapsed;
        const sim::FailureAction action =
            rt.client->report_download_failure(util::Seconds(elapsed),
                                               rt.fail_reason);
        if (action.degrade) rt.pending = rt.client->replan_degraded();
        loop.schedule(event.t + action.backoff_s, event.session,
                      EventKind::kFlowStart);
        break;
      }

      case EventKind::kFlowCompletion: {
        if (event.generation != link.generation()) {
          ++stats.stale_completions;  // rates changed since this prediction
          if (observer != nullptr && observer->metrics != nullptr)
            observer->metrics->add(id_stale);
          break;
        }
        SessionRuntime& rt = sessions[event.session];
        link.finish(event.session);
        rt.in_flight = false;
        ++rt.attempt_seq;  // invalidate this attempt's deadline
        const double download_s = event.t - rt.flow_started_at;
        const double stall =
            rt.client->complete_download(util::Seconds(download_s));
        rt.accountant->record(
            *rt.pending, util::Seconds(rt.attempt_elapsed + download_s),
            util::Seconds(stall));
        rt.attempt_elapsed = 0.0;
        rt.pending.reset();
        if (rt.client->finished()) {
          // Per-session time closes: the engine clock at the last completion
          // equals the start stagger plus the client's own wall clock (Eq. 6
          // waits, failed attempts, backoffs and downloads).
          const double client_t = rt.start_s + rt.client->wall_time_s();
          PS360_ASSERT_MSG(std::abs(event.t - client_t) <= 1e-9 * event.t,
                           "session time does not close: engine and client "
                           "clocks disagree");
          rt.finish_s = event.t;
          ++done_count;
        } else {
          schedule_next_flow(event.session, event.t);
        }
        break;
      }

      case EventKind::kCapacityChange:
        // advance_to already recomputed the rate from the new C(t); keep the
        // breakpoint events coming.
        loop.schedule(link_trace.next_rate_change_after(event.t), kLinkSession,
                      EventKind::kCapacityChange);
        if (observer != nullptr) {
          if (observer->metrics != nullptr) observer->metrics->add(id_rate_changes);
          obs::trace(observer, kLinkTraceSession,
                     obs::TraceEventKind::kLinkRateChange,
                     static_cast<std::int64_t>(link.active_flows()),
                     link.capacity_bytes_per_s(event.t));
        }
        break;
    }

    predict_completion(link, scheduled_generation, EventKind::kFlowCompletion,
                       event.t);
    if (server_on)
      predict_completion(*origin_link, scheduled_origin_generation,
                         EventKind::kOriginCompletion, event.t);
  }

  FleetResult result;
  result.sessions.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    FleetSessionResult out;
    out.session = i;
    out.test_user = test_user_of(i);
    out.video = server_on ? session_video[i] : 0;
    out.start_s = sessions[i].start_s;
    out.finish_s = sessions[i].finish_s;
    out.result = sessions[i].accountant->finish();
    result.sessions.push_back(std::move(out));
    stats.makespan_s = std::max(stats.makespan_s, sessions[i].finish_s);
  }
  stats.queue_grow_events = loop.grow_events();
  stats.queue_peak = loop.peak_size();
  stats.reallocations = link.reallocations();
  stats.delivered_bytes = link.delivered_bytes();
  stats.offered_bytes = util::Bytes(
      stats.makespan_s > 0.0 ? link_trace.bytes_in(0.0, stats.makespan_s) : 0.0);
  if (server_on) {
    const server::EdgeCacheStats& es = edge_cache->stats();
    stats.cache_hits = es.hits;
    stats.cache_misses = es.misses;
    stats.cache_evictions = es.evictions;
    stats.cache_insertions = es.insertions;
    stats.cache_entries = es.entries;
    stats.cache_resident = es.resident;
    stats.origin_bytes = origin_link->delivered_bytes();
  }
  result.stats = stats;

  // End-of-run engine aggregates: counters add and gauges take max across
  // replications, so the runner's slot-order merge reproduces the pooled
  // FleetStats no matter how many worker threads ran.
  if (observer != nullptr && observer->metrics != nullptr) {
    obs::MetricsRegistry& metrics = *observer->metrics;
    metrics.add(metrics.counter("fleet.runs"));
    metrics.add(metrics.counter("fleet.reallocations"),
                static_cast<double>(stats.reallocations));
    metrics.add(metrics.counter("fleet.flow_aborts"),
                static_cast<double>(stats.flow_aborts));
    metrics.add(metrics.counter("fleet.delivered_bytes"),
                stats.delivered_bytes.value());
    metrics.add(metrics.counter("fleet.queue_grow_events"),
                static_cast<double>(stats.queue_grow_events));
    metrics.set_max(metrics.gauge("fleet.queue_peak"),
                    static_cast<double>(stats.queue_peak));
    metrics.set_max(metrics.gauge("fleet.makespan_s"), stats.makespan_s);
    // Server metrics are registered only when the tier is on, so a disabled
    // run's metrics output is byte-identical to the pre-server engine.
    if (server_on) {
      metrics.add(metrics.counter("server.cache_hits"),
                  static_cast<double>(stats.cache_hits));
      metrics.add(metrics.counter("server.cache_misses"),
                  static_cast<double>(stats.cache_misses));
      metrics.add(metrics.counter("server.cache_evictions"),
                  static_cast<double>(stats.cache_evictions));
      metrics.add(metrics.counter("server.origin_flows"),
                  static_cast<double>(stats.origin_flows));
      metrics.add(metrics.counter("server.origin_bytes"),
                  stats.origin_bytes.value());
      metrics.set_max(metrics.gauge("server.cache_entries"),
                      static_cast<double>(stats.cache_entries));
      metrics.set_max(metrics.gauge("server.cache_resident_bytes"),
                      stats.cache_resident.value());
    }
  }
  return result;
}

}  // namespace ps360::fleet
