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

// The degradation ladder: a step every kDegradeAfter failures of a segment,
// each halving the bandwidth the re-plan sees.
constexpr std::size_t kDegradeAfter = 2;
constexpr double kDegradeBandwidthFactor = 0.5;
static_assert(kDegradeAfter >= 1);
static_assert(kDegradeBandwidthFactor > 0.0 && kDegradeBandwidthFactor < 1.0);

// Harmonic-mean window of the bandwidth estimator (segments).
constexpr std::size_t kBandwidthWindow = 5;

// Clients fetch the predicted FoV plus this margin on every side so that
// small prediction errors stay inside the high-quality region (Flare and
// Rubiks do the same).
constexpr double kDownloadFovPaddingDeg = 10.0;

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
          config_.bandwidth_kind, kBandwidthWindow,
          util::BytesPerSec(config_.initial_bandwidth_bytes_per_s))) {
  config_.recovery.seed =
      util::derive_seed(config_.seed, kRecoverySeedStream, config_.recovery.seed);
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
  const geometry::EquirectPoint center = predict::predict_with(
      config_.predictor_kind, *head_, playhead, target, config_.predictor);
  const double download_fov = std::min(
      workload_->config().fov_deg + 2.0 * kDownloadFovPaddingDeg, 180.0);
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
  current_request_ = request;  // kept for degraded re-planning
  return request;
}

FailureAction StreamingClient::report_download_failure(util::Seconds elapsed) {
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
  for (std::size_t i = 1; i < attempt_ && backoff < kBackoffMaxS; ++i) backoff *= 2.0;
  backoff = std::min(backoff, kBackoffMaxS);
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

  action.degrade = attempt_ % kDegradeAfter == 0 && degrade_level_ < kMaxDegradeSteps;
  return action;
}

ClientRequest StreamingClient::replan_degraded() {
  PS360_CHECK_MSG(awaiting_download_, "no download in flight");
  PS360_CHECK_MSG(degrade_level_ < kMaxDegradeSteps, "degradation ladder exhausted");
  ++degrade_level_;

  // Re-run the scheme against a pessimistic bandwidth: each step halves the
  // estimate the plan sees, so the MPC picks a cheaper version /
  // frame rate / tile set. Prediction context stays as planned — the head
  // trace hasn't advanced (playback is stalled or draining, not consuming
  // new segments).
  const double haircut =
      std::pow(kDegradeBandwidthFactor, static_cast<double>(degrade_level_));
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
  return stall;
}

}  // namespace ps360::sim
