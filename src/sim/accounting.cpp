// Per-session QoE/energy bookkeeping (Eq. 2 terms + Table I energy), and
// validated(), the one SessionConfig check. Deterministic: every figure is a
// pure function of the recorded requests, so replaying the same session
// byte-for-byte reproduces the result.
#include "sim/accounting.h"

#include <algorithm>
#include <cmath>

#include "core/buffer.h"
#include "util/check.h"
#include "util/strings.h"
#include "util/units.h"

namespace ps360::sim {

const SessionConfig& validated(const SessionConfig& config, const VideoWorkload& workload) {
  const auto finite_positive = [](double v) { return std::isfinite(v) && v > 0.0; };
  const auto finite_non_negative = [](double v) { return std::isfinite(v) && v >= 0.0; };
  PS360_CHECK_MSG(config.ptile_min_coverage >= 0.0 && config.ptile_min_coverage <= 1.0,
                  "ptile_min_coverage must be in [0, 1]");
  PS360_CHECK_MSG(config.mpc_horizon >= 1, "mpc_horizon must be >= 1");
  PS360_CHECK_MSG(finite_positive(config.initial_bandwidth_bytes_per_s),
                  "initial_bandwidth_bytes_per_s must be finite and > 0");
  PS360_CHECK_MSG(finite_positive(config.mpc.buffer_threshold_s),
                  "mpc.buffer_threshold_s must be finite and > 0");
  PS360_CHECK_MSG(finite_non_negative(config.mpc.stall_penalty_per_s),
                  "mpc.stall_penalty_per_s must be finite and >= 0");
  PS360_CHECK_MSG(finite_non_negative(config.mpc.weights.variation),
                  "mpc.weights.variation must be finite and >= 0");
  PS360_CHECK_MSG(finite_non_negative(config.mpc.weights.rebuffer),
                  "mpc.weights.rebuffer must be finite and >= 0");
  PS360_CHECK_MSG(finite_positive(config.predictor.history_seconds),
                  "predictor.history_seconds must be finite and > 0");
  PS360_CHECK_MSG(finite_non_negative(config.predictor.lambda),
                  "predictor.lambda must be finite and >= 0");
  // lround(steps) + 1 <= kMaxBufferStates, tested before lround could see a
  // ratio too large for a long. NaN fails it too. The workload has checked
  // its segment length.
  const double steps =
      (config.mpc.buffer_threshold_s + workload.config().segment_seconds) /
      config.mpc.buffer_quantum_s;
  PS360_CHECK_MSG(steps < core::kMaxBufferStates - 0.5,
                  "mpc.buffer_quantum_s gives the MPC more than 4096 buffer states");

  const RecoveryConfig& rc = config.recovery;
  PS360_CHECK_MSG(rc.max_attempts >= 1, "recovery.max_attempts must be >= 1");
  PS360_CHECK_MSG(finite_positive(rc.timeout_s),
                  "recovery.timeout_s must be finite and > 0");
  PS360_CHECK_MSG(rc.backoff_base_s >= 0.0 && rc.backoff_base_s <= kBackoffMaxS,
                  "recovery.backoff_base_s must be finite and in [0, 4] s (the backoff cap)");
  PS360_CHECK_MSG(rc.backoff_jitter >= 0.0 && rc.backoff_jitter < 1.0,
                  "recovery.backoff_jitter must be in [0, 1)");
  return config;
}

SessionAccountant::SessionAccountant(const VideoWorkload& workload,
                                     std::size_t test_user, SchemeKind scheme,
                                     const SessionConfig& config)
    : workload_(&workload),
      test_user_(test_user),
      config_(validated(config, workload)),
      qoe_model_(config_.mpc.weights),
      scheme_(make_scheme(scheme, workload, config_)) {
  PS360_CHECK(test_user < workload.test_user_count());
  result_.scheme = scheme;
  result_.segments.reserve(workload.segment_count());
}

const SegmentRecord& SessionAccountant::record(const ClientRequest& request,
                                              util::Seconds download,
                                              util::Seconds stall) {
  const double download_s = download.value();
  const double stall_s = stall.value();
  PS360_CHECK_MSG(!finished_, "record() after finish()");
  PS360_CHECK(download_s > 0.0 && stall_s >= 0.0);
  PS360_CHECK_MSG(request.segment == result_.segments.size(),
                  "segments must be recorded in order, each exactly once");

  const std::size_t k = request.segment;
  const DownloadPlan& plan = request.plan;
  const double L = workload_->config().segment_seconds;
  const double beta = config_.mpc.buffer_threshold_s;

  // Delivered quality against the ground-truth viewport.
  const geometry::Viewport actual = workload_->actual_viewport(test_user_, k);
  const double cov = std::clamp(scheme_->coverage(plan, actual), 0.0, 1.0);
  // Perceptual weight of the covered area: uncovered slivers sit at the
  // viewport periphery where visual acuity and attention are low (the same
  // eccentricity effect behind Eq. 4), so the blend weighting is
  // smoothstep-shaped rather than proportional to raw area.
  const double cov_w = cov * cov * (3.0 - 2.0 * cov);
  const auto& feat = workload_->features(k);
  const double actual_sfov = workload_->actual_switching_speed(test_user_, k);

  double qo_hq = segment_qo(feat, plan.option.quality);
  if (plan.frame_ratio < 1.0) {
    qo_hq *= qoe::QoModel::frame_rate_factor(
        qoe::QoModel::alpha(util::DegPerSec(actual_sfov), feat.ti),
        plan.frame_ratio);
  }
  const double qo_bg = segment_qo(feat, video::QualityLadder::kMinLevel);
  const double qo_eff = cov_w * qo_hq + (1.0 - cov_w) * qo_bg;

  const qoe::SegmentQoE seg_qoe =
      k == 0 ? qoe_model_.segment(qo_eff, qo_eff, util::Seconds(0.0),
                                  util::Seconds(beta))
             : qoe_model_.segment(qo_eff, prev_actual_qo_,
                                  util::Seconds(download_s),
                                  util::Seconds(request.buffer_at_request_s));

  const power::SegmentEnergy energy =
      power::segment_energy(power::device_model(config_.device), plan.option.profile,
                            util::Seconds(download_s), plan.option.fps,
                            util::Seconds(L));

  SegmentRecord record;
  record.index = k;
  record.quality = plan.option.quality;
  record.frame_index = plan.option.frame_index;
  record.fps = plan.option.fps;
  record.bytes = plan.option.bytes;
  record.download_s = download_s;
  record.stall_s = stall_s;
  record.buffer_before_s = request.buffer_at_request_s;
  record.coverage = cov;
  record.used_ptile = plan.used_ptile;
  record.mpc_feasible = plan.mpc_feasible;
  record.qoe = seg_qoe;
  record.energy = energy;
  result_.segments.push_back(record);

  prev_actual_qo_ = qo_eff;
  return result_.segments.back();
}

SessionResult SessionAccountant::finish() {
  PS360_CHECK_MSG(!finished_, "finish() called twice");
  PS360_CHECK_MSG(result_.segments.size() == workload_->segment_count(),
                  util::strfmt("finish() after %zu of the session's %zu segments",
                               result_.segments.size(), workload_->segment_count()));
  finished_ = true;
  aggregate_segments(result_);
  return std::move(result_);
}

}  // namespace ps360::sim
