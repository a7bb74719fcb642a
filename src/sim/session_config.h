// The one parameter set of a streaming session (Section IV): the MPC's H,
// β and ε, the estimators, the coverage rule, and the fault and recovery
// policies. The accountant, the client and every scheme read this one
// struct, and validated() (defined in accounting.cpp) is its one check. L is
// WorkloadConfig::segment_seconds. The encoding model and Table II's Qo fit
// are the paper's constants (video/encoding.h, qoe::QoParams{}).
// Declarations only.
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/mpc.h"
#include "power/device_models.h"
#include "predict/bandwidth_estimators.h"
#include "predict/predictors.h"
#include "trace/fault_schedule.h"

namespace ps360::sim {

class VideoWorkload;

// Bounded recovery policy for failed downloads: capped exponential backoff
// with seeded jitter, and a degradation ladder that re-plans the segment
// against a pessimistic bandwidth so repeated failures fetch less, not more.
// The final attempt (attempts() + 1 == max_attempts) is the caller's
// guaranteed-delivery path, so the loop always terminates. The backoff cap
// and the ladder's shape are the client's constants (sim/client.h).
struct RecoveryConfig {
  std::size_t max_attempts = 6;     // hard ceiling, >= 1; last attempt succeeds
  double timeout_s = 4.0;           // per-attempt deadline (seconds, finite, > 0)
  double backoff_base_s = 0.25;     // first retry delay (finite, <= the 4 s cap)
  double backoff_jitter = 0.25;     // +/- fraction of jitter on each backoff
  std::uint64_t seed = 0;  // jitter stream index; the client folds in SessionConfig::seed
};

struct SessionConfig {
  std::uint64_t seed = 42;
  power::Device device = power::Device::kPixel3;

  core::MpcConfig mpc;                 // β, quantum, ε, (ω_v, ω_r)
  std::size_t mpc_horizon = 5;         // H
  double initial_bandwidth_bytes_per_s = 500e3;  // estimator prior
  double ptile_min_coverage = 0.85;    // predicted-FoV coverage to pick a Ptile

  predict::ViewportPredictorConfig predictor;
  // Which estimators drive the client (the paper's choices by default;
  // the alternatives exist for the ablation study).
  predict::PredictorKind predictor_kind = predict::PredictorKind::kRidge;
  predict::BandwidthEstimatorKind bandwidth_kind =
      predict::BandwidthEstimatorKind::kHarmonic;

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
// the MPC's internal assert, a tiny buffer quantum in the DP's allocation).
const SessionConfig& validated(const SessionConfig& config, const VideoWorkload& workload);

}  // namespace ps360::sim
