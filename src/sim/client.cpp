// StreamingClient state machine (Section IV-B/IV-C loop). Deterministic:
// all state advances only through begin_plan/finish_plan/complete_download/
// report_download_failure with caller-supplied times; no wall clock.
#include "sim/client.h"

#include <algorithm>
#include <cmath>

#include "core/buffer.h"
#include "util/check.h"
#include "util/rng.h"

namespace ps360::sim {

namespace {

// Stream tag folding SessionConfig::seed with RecoveryConfig::seed (a stream
// index, which the fleet engine sets per session) into the jitter seed.
constexpr std::uint64_t kRecoverySeedStream = 0x4EC0FE4ULL;

// Stream tag for backoff jitter: one independent stream per (recovery seed,
// segment, attempt) so retry schedules are reproducible and order-invariant.
constexpr std::uint64_t kBackoffStream = 0xBAC0FFULL;

}  // namespace

StreamingClient::StreamingClient(const SessionConfig& config,
                                 const VideoWorkload& workload, const Scheme& scheme,
                                 const trace::HeadTrace& head)
    : config_(validated(config, workload)),
      workload_(&workload),
      scheme_(&scheme),
      head_(&head),
      predictor_(predict::make_predictor_config(config_.predictor_kind,
                                                config_.predictor)),
      bandwidth_(predict::make_bandwidth_estimator(
          config_.bandwidth_kind, config_.bandwidth_window,
          util::BytesPerSec(config_.initial_bandwidth_bytes_per_s))) {
  config_.recovery.seed =
      util::derive_seed(config_.seed, kRecoverySeedStream, config_.recovery.seed);
}

void StreamingClient::attach_observer(obs::Observer* observer, std::uint32_t session,
                                      util::Seconds clock_offset) {
  const double clock_offset_s = clock_offset.value();
  observer_ = observer;
  obs_session_ = session;
  obs_clock_offset_s_ = clock_offset_s;
  if (observer_ != nullptr && observer_->metrics != nullptr) {
    obs::MetricsRegistry& metrics = *observer_->metrics;
    id_planned_ = metrics.counter("client.segments_planned");
    id_wait_s_ = metrics.counter("client.wait_seconds");
    id_bytes_ = metrics.counter("client.bytes_requested");
    id_stalls_ = metrics.counter("client.stalls");
    id_stall_s_ = metrics.counter("client.stall_seconds");
    // Log-spaced 1 ms … ~2.3 h covers startup hiccups through congestion
    // collapse; sizes 1 KiB-ish … ~8 GB.
    id_download_hist_ =
        metrics.histogram("client.download_seconds", {1e-3, 2.0, 24});
    id_bytes_hist_ = metrics.histogram("client.segment_bytes", {1e3, 2.0, 24});
    id_retries_ = metrics.counter("client.retries");
    id_timeouts_ = metrics.counter("client.timeouts");
    id_losses_ = metrics.counter("client.losses");
    id_outages_ = metrics.counter("client.outage_failures");
    id_degradations_ = metrics.counter("client.degradations");
    id_recovery_s_ = metrics.counter("client.recovery_seconds");
    // The scheme's solver metrics: the client reports its solves.
    switch (controller_info(scheme_->kind()).solver) {
      case PlanSolver::kMpc:
        id_mpc_decides_ = metrics.counter("mpc.decides");
        id_mpc_relaxed_ = metrics.counter("mpc.relaxed_fallbacks");
        id_mpc_infeasible_ = metrics.counter("mpc.infeasible");
        break;
      case PlanSolver::kLp:
        id_lp_allocations_ = metrics.counter("lp.allocations");
        break;
      case PlanSolver::kNone:
        break;
    }
  }
}

double StreamingClient::playhead_s() const {
  const double L = workload_->config().segment_seconds;
  return std::clamp(static_cast<double>(next_segment_) * L - buffer_s_, 0.0,
                    head_->duration());
}

double StreamingClient::begin_plan() {
  PS360_CHECK_MSG(!awaiting_download_,
                  "begin_plan called before completing the previous download");
  PS360_CHECK_MSG(!planning_, "begin_plan called twice without finish_plan");
  PS360_CHECK_MSG(!finished(), "begin_plan called past the last segment");

  ClientRequest request;
  request.segment = next_segment_;

  // Δt of Eq. 6: wait while above the threshold; playback drains meanwhile.
  request.wait_s = std::max(buffer_s_ - config_.mpc.buffer_threshold_s, 0.0);
  wall_t_ += request.wait_s;
  buffer_s_ -= request.wait_s;
  request.buffer_at_request_s = buffer_s_;

  current_request_ = request;  // staged; finish_plan completes the fields
  planning_ = true;
  return request.wait_s;
}

ClientRequest StreamingClient::finish_plan() {
  PS360_CHECK_MSG(planning_, "finish_plan without a begin_plan");
  planning_ = false;

  const double L = workload_->config().segment_seconds;
  const std::size_t k = next_segment_;
  ClientRequest request = current_request_;

  // Steps (a)/(b): predict the viewport at the segment's playback time and
  // the bandwidth for the horizon.
  const double playhead = playhead_s();
  const double target =
      std::min((static_cast<double>(k) + 0.5) * L, head_->duration());
  geometry::EquirectPoint center;
  switch (config_.predictor_kind) {
    case predict::PredictorKind::kHold:
      center = head_->center_at(playhead);
      break;
    case predict::PredictorKind::kOracle:
      center = head_->center_at(target);  // upper-bound ablation
      break;
    default:
      center = predictor_.predict(*head_, playhead, std::max(target, playhead));
  }
  const double download_fov = std::min(
      workload_->config().fov_deg + 2.0 * config_.download_fov_padding_deg, 180.0);
  request.predicted = geometry::Viewport(center, geometry::Degrees(download_fov),
                                         geometry::Degrees(download_fov));
  request.predicted_sfov = predictor_.recent_switching_speed(*head_, playhead);
  request.bandwidth_estimate_bps = bandwidth_->estimate();

  // Steps (c)/(d): the scheme's MPC picks (v, f) and the byte budget.
  request.plan = scheme_->plan(
      k, request.predicted, request.predicted_sfov,
      util::BytesPerSec(request.bandwidth_estimate_bps),
      util::Seconds(buffer_s_), prev_plan_qo_);
  PS360_ASSERT_MSG(request.plan.option.bytes > 0.0, "a plan must download something");

  prev_plan_qo_ = request.plan.option.qo;
  pending_bytes_ = request.plan.option.bytes;
  awaiting_download_ = true;
  current_request_ = request;  // kept for degraded re-planning and publishing
  return request;
}

void StreamingClient::emit_solve(const DownloadPlan& plan) {
  const SolveRecord& solve = plan.solve;
  obs::MetricsRegistry* const metrics = observer_->metrics;
  switch (solve.solver) {
    case PlanSolver::kMpc:
      if (metrics != nullptr) {
        metrics->add(id_mpc_decides_);
        if (solve.relaxed) metrics->add(id_mpc_relaxed_);
        if (!plan.mpc_feasible) metrics->add(id_mpc_infeasible_);
      }
      obs::trace(observer_, obs_session_,
                 solve.relaxed ? obs::TraceEventKind::kMpcRelaxed
                               : obs::TraceEventKind::kMpcStrict,
                 static_cast<std::int64_t>(solve.horizon), solve.objective);
      break;
    case PlanSolver::kLp:
      if (metrics != nullptr) metrics->add(id_lp_allocations_);
      break;
    case PlanSolver::kNone:
      break;
  }
}

void StreamingClient::publish_plan() {
  PS360_CHECK_MSG(awaiting_download_, "publish_plan without a planned download");
  if (observer_ == nullptr) return;
  // Everything below is stamped with the post-wait request time; finish_plan
  // did not move the clock, so it is the time the plan was made.
  observer_->now_s = obs_clock_offset_s_ + wall_t_;
  const ClientRequest& request = current_request_;
  emit_solve(request.plan);
  if (observer_->metrics != nullptr) {
    obs::MetricsRegistry& metrics = *observer_->metrics;
    metrics.add(id_planned_);
    metrics.add(id_wait_s_, request.wait_s);
    metrics.add(id_bytes_, pending_bytes_);
    metrics.observe(id_bytes_hist_, pending_bytes_);
  }
  obs::trace(observer_, obs_session_, obs::TraceEventKind::kSegmentPlanned,
             static_cast<std::int64_t>(request.segment), request.bandwidth_estimate_bps,
             request.buffer_at_request_s);
}

FailureAction StreamingClient::report_download_failure(util::Seconds elapsed,
                                                       FailureReason reason) {
  PS360_CHECK_MSG(awaiting_download_, "no download in flight");
  const double elapsed_s = elapsed.value();
  PS360_CHECK(elapsed_s >= 0.0);
  const RecoveryConfig& rc = config_.recovery;

  ++attempt_;
  FailureAction action;

  // Capped exponential backoff with seeded jitter. The jitter stream is a
  // pure function of (recovery seed, segment, attempt), so schedules are
  // bit-reproducible regardless of thread count or call order elsewhere.
  double backoff = rc.backoff_base_s;
  for (std::size_t i = 1; i < attempt_ && backoff < rc.backoff_max_s; ++i)
    backoff *= 2.0;
  backoff = std::min(backoff, rc.backoff_max_s);
  if (rc.backoff_jitter > 0.0 && backoff > 0.0) {
    util::Rng rng(util::derive_seed(
        util::derive_seed(rc.seed, kBackoffStream, next_segment_), attempt_));
    backoff *= 1.0 + rc.backoff_jitter * (2.0 * rng.uniform() - 1.0);
  }
  action.backoff_s = backoff;

  // The failed attempt plus the backoff both burn wall time; playback drains
  // the buffer meanwhile, possibly into a stall (not for the startup segment
  // — nothing is playing yet). The stall is folded into complete_download's
  // return so accounting sees one number per segment.
  const double dt = elapsed_s + backoff;
  if (dt > 0.0) {
    wall_t_ += dt;
    const double drained = std::min(buffer_s_, dt);
    if (next_segment_ > 0) fault_stall_s_ += dt - drained;
    buffer_s_ -= drained;
  }

  action.degrade =
      attempt_ % rc.degrade_after == 0 && degrade_level_ < rc.max_degrade_steps;

  if (observer_ != nullptr) {
    observer_->now_s = obs_clock_offset_s_ + wall_t_;
    const auto segment = static_cast<std::int64_t>(next_segment_);
    if (observer_->metrics != nullptr) {
      observer_->metrics->add(id_retries_);
      switch (reason) {
        case FailureReason::kTimeout: observer_->metrics->add(id_timeouts_); break;
        case FailureReason::kLost: observer_->metrics->add(id_losses_); break;
        case FailureReason::kOutage: observer_->metrics->add(id_outages_); break;
      }
      observer_->metrics->add(id_recovery_s_, dt);
    }
    obs::trace(observer_, obs_session_, obs::TraceEventKind::kDownloadTimeout,
               segment, elapsed_s, static_cast<double>(attempt_));
    obs::trace(observer_, obs_session_, obs::TraceEventKind::kDownloadRetry,
               segment, backoff, static_cast<double>(attempt_));
  }
  return action;
}

ClientRequest StreamingClient::replan_degraded() {
  PS360_CHECK_MSG(awaiting_download_, "no download in flight");
  PS360_CHECK_MSG(degrade_level_ < config_.recovery.max_degrade_steps,
                  "degradation ladder exhausted");
  ++degrade_level_;

  // Re-run the scheme against a pessimistic bandwidth: each step halves (by
  // default) the estimate the plan sees, so the MPC picks a cheaper version /
  // frame rate / tile set. Prediction context stays as planned — the head
  // trace hasn't advanced (playback is stalled or draining, not consuming
  // new segments).
  const double haircut = std::pow(config_.recovery.degrade_bandwidth_factor,
                                  static_cast<double>(degrade_level_));
  const double degraded_bps = current_request_.bandwidth_estimate_bps * haircut;

  current_request_.plan = scheme_->plan(
      next_segment_, current_request_.predicted, current_request_.predicted_sfov,
      util::BytesPerSec(degraded_bps), util::Seconds(buffer_s_),
      prev_plan_qo_);
  PS360_ASSERT_MSG(current_request_.plan.option.bytes > 0.0,
                   "a degraded plan must still download something");
  current_request_.buffer_at_request_s = buffer_s_;
  current_request_.bandwidth_estimate_bps = degraded_bps;
  prev_plan_qo_ = current_request_.plan.option.qo;
  pending_bytes_ = current_request_.plan.option.bytes;

  if (observer_ != nullptr) {
    observer_->now_s = obs_clock_offset_s_ + wall_t_;
    emit_solve(current_request_.plan);
    if (observer_->metrics != nullptr)
      observer_->metrics->add(id_degradations_);
    obs::trace(observer_, obs_session_, obs::TraceEventKind::kDownloadDegraded,
               static_cast<std::int64_t>(next_segment_),
               static_cast<double>(degrade_level_), degraded_bps);
  }
  return current_request_;
}

double StreamingClient::complete_download(util::Seconds download) {
  const double download_s = download.value();
  PS360_CHECK_MSG(awaiting_download_, "no download in flight");
  PS360_CHECK(download_s > 0.0);

  bandwidth_->observe(util::BytesPerSec(pending_bytes_ / download_s));
  wall_t_ += download_s;

  // Eq. 6 (the wait already happened in begin_plan, so no further Δt here).
  const core::BufferModel buffers(util::Seconds(workload_->config().segment_seconds),
                                  util::Seconds(config_.mpc.buffer_threshold_s),
                                  util::Seconds(config_.mpc.buffer_quantum_s));
  const core::BufferStep step =
      buffers.advance(util::Seconds(buffer_s_), util::Seconds(download_s));
  PS360_ASSERT(step.wait_s == 0.0);
  const double stall =
      (next_segment_ == 0 ? 0.0 : step.stall_s) + fault_stall_s_;
  buffer_s_ = step.next_buffer_s;

  awaiting_download_ = false;
  pending_bytes_ = 0.0;
  attempt_ = 0;
  degrade_level_ = 0;
  fault_stall_s_ = 0.0;
  ++next_segment_;

  if (observer_ != nullptr) {
    const double t_done = obs_clock_offset_s_ + wall_t_;
    observer_->now_s = t_done;
    const auto segment = static_cast<std::int64_t>(next_segment_ - 1);
    if (observer_->metrics != nullptr) {
      observer_->metrics->observe(id_download_hist_, download_s);
      if (stall > 0.0) {
        observer_->metrics->add(id_stalls_);
        observer_->metrics->add(id_stall_s_, stall);
      }
    }
    if (observer_->tracer != nullptr) {
      // The stall happened over the tail of the download: playback drained
      // the buffer at t_done - stall and resumed at completion.
      if (stall > 0.0) {
        observer_->tracer->record(t_done - stall, obs_session_,
                                  obs::TraceEventKind::kStallBegin, segment);
        observer_->tracer->record(t_done, obs_session_,
                                  obs::TraceEventKind::kStallEnd, segment, stall);
      }
      observer_->tracer->record(t_done, obs_session_,
                                obs::TraceEventKind::kDownloadComplete, segment,
                                download_s, stall);
    }
  }
  return stall;
}

}  // namespace ps360::sim
