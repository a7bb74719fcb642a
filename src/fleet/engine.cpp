// Fleet engine implementation: one event loop drives N StreamingClients
// against one SharedLink. The coordinator thread owns every shared resource
// (links, caches, the event heap, and the one Reporter that writes every
// metric and trace record) and processes events in (t, session, seq) order;
// the worker pool only runs speculative per-session plans during nonzero
// Eq. 6 waits. A plan emits nothing; the reporter writes its solve at the
// flow start. Only the earliest completion is ever scheduled; stale
// predictions are discarded by generation tag.
#include "fleet/engine.h"

#include <algorithm>
#include <array>
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

// Why a download attempt failed; picks the per-reason failure counter.
enum class FailureReason {
  kTimeout = 0,  // deadline expired mid-transfer
  kLost = 1,     // request vanished (no bytes ever arrived)
  kOutage = 2,   // link was blacked out when the request was issued
};

// Every metric of a run, as an index into the reporter's id table.
enum Metric : std::size_t {
  kPlanned, kWaitSeconds, kBytesRequested, kStalls, kStallSeconds,
  kDownloadSeconds, kSegmentBytes, kRetries, kTimeouts, kLosses, kOutages,
  kDegradations, kRecoverySeconds,                        // client.*
  kMpcDecides, kMpcRelaxed, kMpcInfeasible,               // the MPC's
  kLpAllocations,                                         // the LP's
  kSegments, kPtileSegments, kFallbackSegments, kReducedFrameSegments,
  kEnergyMj, kQoeQSum, kSegmentEnergyMj,                  // session.*
  kEvents, kStaleCompletions, kCapacityChanges, kRuns, kReallocations,
  kFlowAborts, kDeliveredBytes, kQueueGrowEvents, kQueuePeak,
  kMakespan,                                              // fleet.*
  kCacheHits, kCacheMisses, kCacheEvictions, kOriginFlows, kOriginBytes,
  kCacheEntries, kCacheResidentBytes,                     // server.*
  kMetricCount,
};

struct MetricName {
  const char* name;
  obs::MetricKind kind;
  double first_bound;  // histograms: log-spaced, growth 2, 24 buckets
};

// Indexed by Metric. Histogram ranges (top finite bound): downloads 1 ms …
// ~2.3 h (startup hiccups through congestion collapse), sizes 1 KB … ~8 GB,
// per-segment Eq. 1 energy 1 mJ … ~8 kJ.
constexpr MetricName kMetricNames[kMetricCount] = {
    {"client.segments_planned", obs::MetricKind::kCounter, 0.0},
    {"client.wait_seconds", obs::MetricKind::kCounter, 0.0},
    {"client.bytes_requested", obs::MetricKind::kCounter, 0.0},
    {"client.stalls", obs::MetricKind::kCounter, 0.0},
    {"client.stall_seconds", obs::MetricKind::kCounter, 0.0},
    {"client.download_seconds", obs::MetricKind::kHistogram, 1e-3},
    {"client.segment_bytes", obs::MetricKind::kHistogram, 1e3},
    {"client.retries", obs::MetricKind::kCounter, 0.0},
    {"client.timeouts", obs::MetricKind::kCounter, 0.0},
    {"client.losses", obs::MetricKind::kCounter, 0.0},
    {"client.outage_failures", obs::MetricKind::kCounter, 0.0},
    {"client.degradations", obs::MetricKind::kCounter, 0.0},
    {"client.recovery_seconds", obs::MetricKind::kCounter, 0.0},
    {"mpc.decides", obs::MetricKind::kCounter, 0.0},
    {"mpc.relaxed_fallbacks", obs::MetricKind::kCounter, 0.0},
    {"mpc.infeasible", obs::MetricKind::kCounter, 0.0},
    {"lp.allocations", obs::MetricKind::kCounter, 0.0},
    {"session.segments", obs::MetricKind::kCounter, 0.0},
    {"session.ptile_segments", obs::MetricKind::kCounter, 0.0},
    {"session.fallback_segments", obs::MetricKind::kCounter, 0.0},
    {"session.reduced_frame_segments", obs::MetricKind::kCounter, 0.0},
    {"session.energy_mj", obs::MetricKind::kCounter, 0.0},
    {"session.qoe_q_sum", obs::MetricKind::kCounter, 0.0},
    {"session.segment_energy_mj", obs::MetricKind::kHistogram, 1.0},
    {"fleet.events", obs::MetricKind::kCounter, 0.0},
    {"fleet.stale_completions", obs::MetricKind::kCounter, 0.0},
    {"fleet.capacity_changes", obs::MetricKind::kCounter, 0.0},
    {"fleet.runs", obs::MetricKind::kCounter, 0.0},
    {"fleet.reallocations", obs::MetricKind::kCounter, 0.0},
    {"fleet.flow_aborts", obs::MetricKind::kCounter, 0.0},
    {"fleet.delivered_bytes", obs::MetricKind::kCounter, 0.0},
    {"fleet.queue_grow_events", obs::MetricKind::kCounter, 0.0},
    {"fleet.queue_peak", obs::MetricKind::kGauge, 0.0},
    {"fleet.makespan_s", obs::MetricKind::kGauge, 0.0},
    {"server.cache_hits", obs::MetricKind::kCounter, 0.0},
    {"server.cache_misses", obs::MetricKind::kCounter, 0.0},
    {"server.cache_evictions", obs::MetricKind::kCounter, 0.0},
    {"server.origin_flows", obs::MetricKind::kCounter, 0.0},
    {"server.origin_bytes", obs::MetricKind::kCounter, 0.0},
    {"server.cache_entries", obs::MetricKind::kGauge, 0.0},
    {"server.cache_resident_bytes", obs::MetricKind::kGauge, 0.0},
};

// Labels link-wide trace records.
constexpr std::uint32_t kLinkTraceSession = 0xFFFFFFFFu;

// The one writer of a run's observations. run_fleet calls it on the
// coordinator, in event order, with what the clients and accountants
// return; nothing else holds the observer. It registers every metric name
// of the run once, at construction (the solver's names by the scheme's
// ControllerInfo::solver, server.* only with the server tier on), so
// recording is an index-add. Each record carries the time its caller
// passes: the event time, or a session's own clock (start stagger plus
// client wall clock). A null observer or sink records nothing.
class Reporter {
 public:
  Reporter(obs::Observer* observer, sim::PlanSolver solver, bool server_on)
      : server_on_(server_on) {
    if (observer == nullptr) return;
    metrics_ = observer->metrics;
    tracer_ = observer->tracer;
    if (metrics_ == nullptr) return;
    for (std::size_t m = 0; m < kMetricCount; ++m) {
      const bool skip =
          (m >= kMpcDecides && m <= kMpcInfeasible && solver != sim::PlanSolver::kMpc) ||
          (m == kLpAllocations && solver != sim::PlanSolver::kLp) ||
          (m >= kCacheHits && !server_on);
      if (skip) continue;
      const MetricName& spec = kMetricNames[m];
      switch (spec.kind) {
        case obs::MetricKind::kCounter: ids_[m] = metrics_->counter(spec.name); break;
        case obs::MetricKind::kGauge: ids_[m] = metrics_->gauge(spec.name); break;
        case obs::MetricKind::kHistogram:
          ids_[m] = metrics_->histogram(spec.name, {spec.first_bound, 2.0, 24});
          break;
      }
    }
  }

  void event() { add(kEvents); }
  void stale_completion() { add(kStaleCompletions); }

  // A plan in hand at its first flow start: its solve, then the request.
  void plan(std::size_t session, double t, const sim::ClientRequest& request) {
    solve(session, t, request.plan);
    add(kPlanned);
    add(kWaitSeconds, request.wait_s);
    add(kBytesRequested, request.plan.option.bytes);
    observe(kSegmentBytes, request.plan.option.bytes);
    trace(t, session, obs::TraceEventKind::kSegmentPlanned,
          static_cast<std::int64_t>(request.segment), request.bandwidth_estimate_bps,
          request.buffer_at_request_s);
  }

  void download_start(std::size_t session, double t, const sim::ClientRequest& request) {
    trace(t, session, obs::TraceEventKind::kDownloadStart,
          static_cast<std::int64_t>(request.segment), request.plan.option.bytes);
  }

  // A failed attempt (`attempt` counts the segment's failures so far) and
  // the backoff the client chose.
  void failure(std::size_t session, double t, FailureReason reason, std::size_t segment,
               double elapsed_s, double backoff_s, std::size_t attempt) {
    add(kRetries);
    switch (reason) {
      case FailureReason::kTimeout: add(kTimeouts); break;
      case FailureReason::kLost: add(kLosses); break;
      case FailureReason::kOutage: add(kOutages); break;
    }
    add(kRecoverySeconds, elapsed_s + backoff_s);
    const auto a = static_cast<std::int64_t>(segment);
    const auto attempts = static_cast<double>(attempt);
    trace(t, session, obs::TraceEventKind::kDownloadTimeout, a, elapsed_s, attempts);
    trace(t, session, obs::TraceEventKind::kDownloadRetry, a, backoff_s, attempts);
  }

  // A re-plan one degradation step down: its solve, then the step.
  void degraded(std::size_t session, double t, const sim::ClientRequest& request,
                std::size_t level) {
    solve(session, t, request.plan);
    add(kDegradations);
    trace(t, session, obs::TraceEventKind::kDownloadDegraded,
          static_cast<std::int64_t>(request.segment), static_cast<double>(level),
          request.bandwidth_estimate_bps);
  }

  // A completed download at `t`; a stall ran over its tail, from t - stall.
  void download_complete(std::size_t session, double t, std::size_t segment,
                         double download_s, double stall_s) {
    observe(kDownloadSeconds, download_s);
    const auto a = static_cast<std::int64_t>(segment);
    if (stall_s > 0.0) {
      add(kStalls);
      add(kStallSeconds, stall_s);
      trace(t - stall_s, session, obs::TraceEventKind::kStallBegin, a);
      trace(t, session, obs::TraceEventKind::kStallEnd, a, stall_s);
    }
    trace(t, session, obs::TraceEventKind::kDownloadComplete, a, download_s, stall_s);
  }

  // The accountant's record of a delivered segment: the Ptile-or-fallback
  // and frame-rate choice, its energy and QoE.
  void segment(std::size_t session, double t, const sim::SegmentRecord& record,
               double frame_ratio) {
    add(kSegments);
    add(record.used_ptile ? kPtileSegments : kFallbackSegments);
    if (frame_ratio < 1.0) add(kReducedFrameSegments);
    add(kEnergyMj, record.energy.total_mj());
    add(kQoeQSum, record.qoe.q);
    observe(kSegmentEnergyMj, record.energy.total_mj());
    trace(t, session, obs::TraceEventKind::kPtileChoice, record.quality, record.fps,
          record.used_ptile ? 1.0 : 0.0);
  }

  // A breakpoint of the link trace: the flows sharing the link and its new
  // capacity.
  void capacity_change(double t, const SharedLink& link) {
    add(kCapacityChanges);
    if (tracer_ != nullptr)
      trace(t, kLinkTraceSession, obs::TraceEventKind::kLinkRateChange,
            static_cast<std::int64_t>(link.active_flows()), link.capacity_bytes_per_s(t));
  }

  // End-of-run engine aggregates: counters add and gauges take max across
  // replications, so the runner's slot-order merge reproduces the pooled
  // FleetStats no matter how many worker threads ran.
  void run_end(const FleetStats& stats) {
    if (metrics_ == nullptr) return;
    add(kRuns);
    add(kReallocations, static_cast<double>(stats.reallocations));
    add(kFlowAborts, static_cast<double>(stats.flow_aborts));
    add(kDeliveredBytes, stats.delivered_bytes.value());
    add(kQueueGrowEvents, static_cast<double>(stats.queue_grow_events));
    metrics_->set_max(ids_[kQueuePeak], static_cast<double>(stats.queue_peak));
    metrics_->set_max(ids_[kMakespan], stats.makespan_s);
    if (!server_on_) return;
    add(kCacheHits, static_cast<double>(stats.cache_hits));
    add(kCacheMisses, static_cast<double>(stats.cache_misses));
    add(kCacheEvictions, static_cast<double>(stats.cache_evictions));
    add(kOriginFlows, static_cast<double>(stats.origin_flows));
    add(kOriginBytes, stats.origin_bytes.value());
    metrics_->set_max(ids_[kCacheEntries], static_cast<double>(stats.cache_entries));
    metrics_->set_max(ids_[kCacheResidentBytes], stats.cache_resident.value());
  }

 private:
  void solve(std::size_t session, double t, const sim::DownloadPlan& plan) {
    const sim::SolveRecord& solve = plan.solve;
    switch (solve.solver) {
      case sim::PlanSolver::kMpc:
        add(kMpcDecides);
        if (solve.relaxed) add(kMpcRelaxed);
        if (!plan.mpc_feasible) add(kMpcInfeasible);
        trace(t, session,
              solve.relaxed ? obs::TraceEventKind::kMpcRelaxed
                            : obs::TraceEventKind::kMpcStrict,
              static_cast<std::int64_t>(solve.horizon), solve.objective);
        break;
      case sim::PlanSolver::kLp:
        add(kLpAllocations);
        break;
      case sim::PlanSolver::kNone:
        break;
    }
  }

  void add(Metric m, double delta = 1.0) {
    if (metrics_ != nullptr) metrics_->add(ids_[m], delta);
  }
  void observe(Metric m, double value) {
    if (metrics_ != nullptr) metrics_->observe(ids_[m], value);
  }
  void trace(double t, std::size_t session, obs::TraceEventKind kind, std::int64_t a = 0,
             double v0 = 0.0, double v1 = 0.0) {
    if (tracer_ != nullptr)
      tracer_->record(t, static_cast<std::uint32_t>(session), kind, a, v0, v1);
  }

  obs::MetricsRegistry* metrics_ = nullptr;
  obs::EventTracer* tracer_ = nullptr;
  bool server_on_;
  std::array<obs::MetricsRegistry::Id, kMetricCount> ids_{};
};

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
  FailureReason fail_reason = FailureReason::kTimeout;
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
    popularity.emplace(config.server.catalog);
    edge_cache.emplace(config.server.cache_capacity);
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
  // reporter writes the plan's records at the flow start.
  Reporter reporter(config.observer, sim::controller_info(config.scheme).solver,
                    server_on);
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
  }
  loop.schedule(link_trace.next_rate_change_after(0.0), kLinkSession,
                EventKind::kCapacityChange);

  // A session's own clock: its client's private wall clock starts at the
  // staggered entry, so offsetting by start_s makes it engine time.
  const auto session_clock = [&](std::size_t i) {
    return sessions[i].start_s + sessions[i].client->wall_time_s();
  };

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

  // Start the pending download on the device-side (edge) link; its
  // download_start record is stamped `stamp_t`.
  const auto start_edge_flow = [&](std::size_t i, double stamp_t) {
    SessionRuntime& rt = sessions[i];
    rt.in_flight = true;
    link.start(i, util::Bytes(rt.pending->plan.option.bytes));
    reporter.download_start(i, stamp_t, *rt.pending);
  };

  // Put the pending download onto the device-side link — or, with the
  // server tier on and the segment absent from the edge cache, route the
  // fetch through the origin first. flow_started_at stays at issue time, so
  // the device-perceived download (and any stall it causes) includes the
  // full miss cost: origin latency + origin transfer + edge transfer.
  const auto admit_flow = [&](std::size_t i, double t, double stamp_t) {
    if (server_on && !edge_cache->lookup(segment_key(i))) {
      loop.schedule(t + kOriginLatencyS, i,
                    EventKind::kOriginStart, sessions[i].attempt_seq);
      return;
    }
    start_edge_flow(i, stamp_t);
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
    reporter.event();

    switch (event.kind) {
      case EventKind::kSessionStart:
        schedule_next_flow(event.session, event.t);
        break;

      case EventKind::kFlowStart: {
        SessionRuntime& rt = sessions[event.session];
        // The download_start record below carries the event time, unless
        // this start reports a plan.
        double stamp_t = event.t;
        if (!rt.pending.has_value()) {
          // First start of this attempt cycle: collect the plan — released
          // during the wait (the join runs it here if no worker did), or
          // solved right here — and report it. Retries re-enter with
          // `pending` set and skip. The plan's records carry the session's
          // planning clock, and so does a download_start that follows in
          // this event: it can differ from the event time in the last bit,
          // and the fleet golden pins these stamps.
          if (solves && solves->outstanding(event.session)) {
            solves->join(event.session);
            rt.pending = std::move(rt.speculative);
            rt.speculative.reset();
          } else {
            rt.pending = rt.client->finish_plan();
          }
          stamp_t = session_clock(event.session);
          reporter.plan(event.session, stamp_t, *rt.pending);
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
            rt.fail_reason = outage       ? FailureReason::kOutage
                             : fault.lost ? FailureReason::kLost
                                          : FailureReason::kTimeout;
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
        admit_flow(event.session, event.t, stamp_t);
        break;
      }

      case EventKind::kFlowAdmit: {
        SessionRuntime& rt = sessions[event.session];
        if (!rt.pending.has_value() || event.generation != rt.attempt_seq)
          break;  // attempt already failed (deadline beat the spike)
        admit_flow(event.session, event.t, event.t);
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
          reporter.stale_completion();
          break;
        }
        SessionRuntime& rt = sessions[event.session];
        origin_link->finish(event.session);
        rt.origin_in_flight = false;
        // The object now sits at the edge: cache it, then start the
        // device-side flow.
        edge_cache->admit(segment_key(event.session),
                          util::Bytes(rt.pending->plan.option.bytes));
        start_edge_flow(event.session, event.t);
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
            rt.client->report_download_failure(util::Seconds(elapsed));
        const double client_t = session_clock(event.session);
        reporter.failure(event.session, client_t, rt.fail_reason, rt.pending->segment,
                         elapsed, action.backoff_s, rt.client->attempts());
        if (action.degrade) {
          rt.pending = rt.client->replan_degraded();
          reporter.degraded(event.session, client_t, *rt.pending,
                            rt.client->degrade_level());
        }
        loop.schedule(event.t + action.backoff_s, event.session,
                      EventKind::kFlowStart);
        break;
      }

      case EventKind::kFlowCompletion: {
        if (event.generation != link.generation()) {
          ++stats.stale_completions;  // rates changed since this prediction
          reporter.stale_completion();
          break;
        }
        SessionRuntime& rt = sessions[event.session];
        link.finish(event.session);
        rt.in_flight = false;
        ++rt.attempt_seq;  // invalidate this attempt's deadline
        const double download_s = event.t - rt.flow_started_at;
        const double stall =
            rt.client->complete_download(util::Seconds(download_s));
        const double client_t = session_clock(event.session);
        reporter.download_complete(event.session, client_t, rt.pending->segment,
                                   download_s, stall);
        const sim::SegmentRecord& record = rt.accountant->record(
            *rt.pending, util::Seconds(rt.attempt_elapsed + download_s),
            util::Seconds(stall));
        reporter.segment(event.session, client_t, record, rt.pending->plan.frame_ratio);
        rt.attempt_elapsed = 0.0;
        rt.pending.reset();
        if (rt.client->finished()) {
          // Per-session time closes: the engine clock at the last completion
          // equals the start stagger plus the client's own wall clock (Eq. 6
          // waits, failed attempts, backoffs and downloads).
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
        reporter.capacity_change(event.t, link);
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

  reporter.run_end(stats);
  return result;
}

}  // namespace ps360::fleet
