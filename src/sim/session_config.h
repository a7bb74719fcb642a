// The one parameter set of a streaming session (Section IV): the MPC's H,
// β and ε, the estimators, the coverage and tile rules, the encoding and
// QoE models, and the fault and recovery policies. The accountant, the
// client and every scheme read this one struct, and validated() (defined in
// accounting.cpp) is its one check. L is WorkloadConfig::segment_seconds.
// Declarations only.
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/mpc.h"
#include "power/device_models.h"
#include "predict/bandwidth_estimators.h"
#include "predict/predictors.h"
#include "qoe/qo_model.h"
#include "trace/fault_schedule.h"
#include "video/encoding.h"

namespace ps360::sim {

class VideoWorkload;

// Bounded recovery policy for failed downloads: capped exponential backoff
// with seeded jitter, and a degradation ladder that re-plans the segment
// against a pessimistic bandwidth so repeated failures fetch less, not more.
// The final attempt (attempts() + 1 == max_attempts) is the caller's
// guaranteed-delivery path, so the loop always terminates.
struct RecoveryConfig {
  std::size_t max_attempts = 6;     // hard ceiling, >= 1; last attempt succeeds
  double timeout_s = 4.0;           // per-attempt deadline (seconds, finite, > 0)
  double backoff_base_s = 0.25;     // first retry delay (finite)
  double backoff_max_s = 4.0;       // backoff cap (finite)
  double backoff_jitter = 0.25;     // +/- fraction of jitter on each backoff
  std::size_t degrade_after = 2;    // degrade every this many failures (>= 1)
  std::size_t max_degrade_steps = 3;
  double degrade_bandwidth_factor = 0.5;  // bandwidth haircut per degrade step
  std::uint64_t seed = 0;  // jitter stream index; the client folds in SessionConfig::seed
};

struct SessionConfig {
  std::uint64_t seed = 42;
  power::Device device = power::Device::kPixel3;

  // Maps the encoding model's FoV Mbps into the b units of the Table II fit
  // (our synthetic encodes live at lower absolute rates than the fit's b
  // axis; see DESIGN.md §6).
  double qoe_bitrate_scale = 4.0;

  core::MpcConfig mpc;                 // β, quantum, ε, (ω_v, ω_r)
  std::size_t mpc_horizon = 5;         // H
  std::size_t bandwidth_window = 5;    // harmonic-mean window (segments)
  double initial_bandwidth_bytes_per_s = 500e3;  // estimator prior
  double ptile_min_coverage = 0.85;    // predicted-FoV coverage to pick a Ptile
  // Clients fetch the predicted FoV plus a safety margin on every side so
  // that small prediction errors stay inside the high-quality region (Flare
  // and Rubiks do the same).
  double download_fov_padding_deg = 10.0;

  predict::ViewportPredictorConfig predictor;
  // Which estimators drive the client (the paper's choices by default;
  // the alternatives exist for the ablation study).
  predict::PredictorKind predictor_kind = predict::PredictorKind::kRidge;
  predict::BandwidthEstimatorKind bandwidth_kind =
      predict::BandwidthEstimatorKind::kHarmonic;
  video::EncodingConfig encoding;
  qoe::QoParams qo_params;

  // Fault injection and the client's bounded recovery policy, run by the
  // fleet engine (simulate_session included). Off by default, and inert then
  // (pinned by the fault differential tests).
  trace::FaultConfig faults;
  RecoveryConfig recovery;
};

// The one check of a SessionConfig against the workload it plays: returns
// `config`, or throws std::invalid_argument naming the first bad field. The
// accountant, the client and every scheme call it before they build anything
// from the config. Each rejected value would otherwise be absorbed silently
// (a coverage floor above 1 disables Ptile, an infinite ridge penalty moves
// every prediction) or fail far from its cause (an infinite stall penalty in
// the MPC's internal assert, a NaN FoV padding at the first plan, a NaN
// content intercept in the encoding model's assert).
const SessionConfig& validated(const SessionConfig& config, const VideoWorkload& workload);

}  // namespace ps360::sim
