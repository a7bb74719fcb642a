// Per-session QoE/energy bookkeeping (Eq. 2 terms + Table I energy).
// Deterministic: every figure is a pure function of the recorded requests,
// so replaying the same session byte-for-byte reproduces the result.
#include "sim/accounting.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"
#include "util/rng.h"
#include "util/units.h"

namespace ps360::sim {

namespace {

// Stream tag folding SessionConfig.seed with RecoveryConfig.seed (used as a
// per-session stream index by the fleet engine) into the jitter seed the
// client actually runs with.
constexpr std::uint64_t kRecoverySeedStream = 0x4EC0FE4ULL;

SchemeEnv make_env(const VideoWorkload& workload, const video::EncodingModel& encoding,
                   const qoe::QoModel& qo_model, const power::DeviceModel& device,
                   const SessionConfig& config) {
  SchemeEnv env;
  env.workload = &workload;
  env.encoding = &encoding;
  env.qo_model = &qo_model;
  env.device = &device;
  env.mpc = config.mpc;
  env.mpc_horizon = config.mpc_horizon;
  env.ptile_min_coverage = config.ptile_min_coverage;
  env.fov_deg = workload.config().fov_deg;
  env.tile_overlap_threshold = config.tile_overlap_threshold;
  return env;
}

video::EncodingConfig seeded_encoding(const SessionConfig& config) {
  video::EncodingConfig enc_cfg = config.encoding;
  enc_cfg.seed = config.seed;
  return enc_cfg;
}

}  // namespace

SessionAccountant::SessionAccountant(const VideoWorkload& workload,
                                     std::size_t test_user, SchemeKind scheme,
                                     const SessionConfig& config)
    : workload_(&workload),
      test_user_(test_user),
      config_(config),
      encoding_(seeded_encoding(config)),
      qo_model_(config.qo_params, config.qoe_bitrate_scale),
      qoe_model_(config.mpc.weights),
      scheme_(make_scheme(scheme,
                          make_env(workload, encoding_, qo_model_,
                                   power::device_model(config.device), config))),
      device_(&power::device_model(config.device)) {
  PS360_CHECK(test_user < workload.test_user_count());
  PS360_CHECK(config.mpc.segment_seconds > 0.0 &&
              config.mpc.buffer_threshold_s > 0.0);
  result_.scheme = scheme;
  result_.segments.reserve(workload.segment_count());
  qoe_segments_.reserve(workload.segment_count());
}

ClientConfig SessionAccountant::client_config() const {
  ClientConfig client_config;
  client_config.mpc = config_.mpc;
  client_config.mpc_horizon = config_.mpc_horizon;
  client_config.bandwidth_window = config_.bandwidth_window;
  client_config.initial_bandwidth_bytes_per_s = config_.initial_bandwidth_bytes_per_s;
  client_config.download_fov_padding_deg = config_.download_fov_padding_deg;
  client_config.predictor = config_.predictor;
  client_config.predictor_kind = config_.predictor_kind;
  client_config.bandwidth_kind = config_.bandwidth_kind;
  client_config.recovery = config_.recovery;
  client_config.recovery.seed =
      util::derive_seed(config_.seed, kRecoverySeedStream, config_.recovery.seed);
  return client_config;
}

void SessionAccountant::attach_observer(obs::Observer* observer,
                                        std::uint32_t session) {
  observer_ = observer;
  obs_session_ = session;
  if (observer_ != nullptr && observer_->metrics != nullptr) {
    obs::MetricsRegistry& metrics = *observer_->metrics;
    id_segments_ = metrics.counter("session.segments");
    id_ptile_segments_ = metrics.counter("session.ptile_segments");
    id_fallback_segments_ = metrics.counter("session.fallback_segments");
    id_reduced_frame_segments_ = metrics.counter("session.reduced_frame_segments");
    id_energy_mj_ = metrics.counter("session.energy_mj");
    id_qoe_q_ = metrics.counter("session.qoe_q_sum");
    // Per-segment Eq. 1 energy: 1 mJ … ~16 J log-spaced.
    id_energy_hist_ = metrics.histogram("session.segment_energy_mj", {1.0, 2.0, 24});
  }
  scheme_->attach_observer(observer, session);
}

void SessionAccountant::record(const ClientRequest& request,
                               util::Seconds download, util::Seconds stall) {
  const double download_s = download.value();
  const double stall_s = stall.value();
  PS360_CHECK_MSG(!finished_, "record() after finish()");
  PS360_CHECK(download_s > 0.0 && stall_s >= 0.0);
  PS360_CHECK_MSG(request.segment == result_.segments.size(),
                  "segments must be recorded in order, each exactly once");

  const std::size_t k = request.segment;
  const DownloadPlan& plan = request.plan;
  const double L = config_.mpc.segment_seconds;
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

  double qo_hq = qo_model_.qo(
      feat.si, feat.ti,
      util::Mbps(encoding_.fov_bitrate_mbps(plan.option.quality, feat)));
  if (plan.frame_ratio < 1.0) {
    qo_hq *= qoe::QoModel::frame_rate_factor(
        qoe::QoModel::alpha(util::DegPerSec(actual_sfov), feat.ti),
        plan.frame_ratio);
  }
  const double qo_bg = qo_model_.qo(
      feat.si, feat.ti, util::Mbps(encoding_.fov_bitrate_mbps(1, feat)));
  const double qo_eff = cov_w * qo_hq + (1.0 - cov_w) * qo_bg;

  const qoe::SegmentQoE seg_qoe =
      k == 0 ? qoe_model_.segment(qo_eff, qo_eff, util::Seconds(0.0),
                                  util::Seconds(beta))
             : qoe_model_.segment(qo_eff, prev_actual_qo_,
                                  util::Seconds(download_s),
                                  util::Seconds(request.buffer_at_request_s));
  qoe_segments_.push_back(seg_qoe);

  const power::SegmentEnergy energy =
      power::segment_energy(*device_, plan.option.profile,
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

  result_.energy += energy;
  result_.total_stall_s += stall_s;
  if (stall_s > 0.0) ++result_.rebuffer_events;
  result_.mean_quality += static_cast<double>(plan.option.quality);
  result_.mean_fps += plan.option.fps;
  result_.mean_coverage += cov;
  result_.ptile_usage += plan.used_ptile ? 1.0 : 0.0;
  result_.total_bytes += plan.option.bytes;

  prev_actual_qo_ = qo_eff;

  if (observer_ != nullptr) {
    if (observer_->metrics != nullptr) {
      obs::MetricsRegistry& metrics = *observer_->metrics;
      metrics.add(id_segments_);
      metrics.add(plan.used_ptile ? id_ptile_segments_ : id_fallback_segments_);
      if (plan.frame_ratio < 1.0) metrics.add(id_reduced_frame_segments_);
      metrics.add(id_energy_mj_, energy.total_mj());
      metrics.add(id_qoe_q_, seg_qoe.q);
      metrics.observe(id_energy_hist_, energy.total_mj());
    }
    // The delivered (v, f) choice: the paper's frame-rate ladder in action.
    obs::trace(observer_, obs_session_, obs::TraceEventKind::kPtileChoice,
               plan.option.quality, plan.option.fps,
               plan.used_ptile ? 1.0 : 0.0);
  }
}

SessionResult SessionAccountant::finish() {
  PS360_CHECK_MSG(!finished_, "finish() called twice");
  finished_ = true;
  const double n = static_cast<double>(
      std::max<std::size_t>(workload_->segment_count(), 1));
  result_.mean_quality /= n;
  result_.mean_fps /= n;
  result_.mean_coverage /= n;
  result_.ptile_usage /= n;
  result_.qoe = qoe::SessionQoE::aggregate(qoe_segments_);
  return std::move(result_);
}

}  // namespace ps360::sim
