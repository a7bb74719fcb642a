// The trace-driven streaming session simulator.
//
// Replays one held-out test user watching one video over one network trace
// with one scheme on one device, faithfully following the client loop of
// Section IV: predict the viewport (ridge regression over the recent head
// samples), estimate bandwidth (harmonic mean of observed download rates),
// run the scheme's MPC, download over the variable-rate trace, and evolve
// the buffer by Eq. 6 (wait above the β threshold, stall when the download
// outlasts the buffer).
//
// Per segment it accounts:
//  * energy (Eq. 1, Table I models — radio for the download time, decoder
//    and renderer for the playback duration), and
//  * QoE (Eq. 2) against the *actual* viewport: the delivered Qo blends the
//    high-quality region with the low-quality background by the coverage of
//    the user's true FoV, and the frame-rate factor uses the user's true
//    switching speed.
#pragma once

#include "power/energy.h"
#include "predict/bandwidth_estimators.h"
#include "predict/predictors.h"
#include "qoe/qoe_model.h"
#include "sim/client.h"
#include "sim/schemes.h"
#include "trace/fault_schedule.h"
#include "trace/network_trace.h"

namespace ps360::sim {

struct SessionConfig {
  std::uint64_t seed = 42;
  power::Device device = power::Device::kPixel3;

  // Maps the encoding model's FoV Mbps into the b units of the Table II fit
  // (our synthetic encodes live at lower absolute rates than the fit's b
  // axis; see DESIGN.md §6).
  double qoe_bitrate_scale = 4.0;

  core::MpcConfig mpc;                 // L, β, quantum, ε, (ω_v, ω_r)
  std::size_t mpc_horizon = 5;         // H
  std::size_t bandwidth_window = 5;    // harmonic-mean window (segments)
  double initial_bandwidth_bytes_per_s = 500e3;  // estimator prior
  double ptile_min_coverage = 0.85;
  double tile_overlap_threshold = 0.25;  // FoV-tile selection rule
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

  // Fault injection (off by default — provably inert then, pinned by the
  // fault differential test) and the client's bounded recovery policy.
  // RecoveryConfig::seed is a stream index: the accountant folds it with
  // `seed` above, and the fleet engine sets it per session.
  trace::FaultConfig faults;
  RecoveryConfig recovery;
};

struct SegmentRecord {
  std::size_t index = 0;
  int quality = 1;
  std::size_t frame_index = 1;
  double fps = 30.0;
  double bytes = 0.0;
  double download_s = 0.0;
  double stall_s = 0.0;          // 0 for the startup segment
  double buffer_before_s = 0.0;  // B_k at request (after any wait)
  double coverage = 0.0;         // actual-FoV coverage by the HQ region
  bool used_ptile = false;
  bool mpc_feasible = true;
  qoe::SegmentQoE qoe;
  power::SegmentEnergy energy;
};

struct SessionResult {
  SchemeKind scheme = SchemeKind::kCtile;
  std::vector<SegmentRecord> segments;

  qoe::SessionQoE qoe;            // Eq. 2 aggregates (Fig. 11)
  power::SegmentEnergy energy;    // total mJ by component (Fig. 9)
  double total_stall_s = 0.0;
  std::size_t rebuffer_events = 0;
  double mean_quality = 0.0;      // mean chosen v
  double mean_fps = 0.0;
  double mean_coverage = 0.0;
  double ptile_usage = 0.0;       // fraction of segments served by a Ptile
  double total_bytes = 0.0;
};

// Simulate one session. The network trace is consumed from t = 0 (it loops
// if shorter than the session).
SessionResult simulate_session(const VideoWorkload& workload, std::size_t test_user,
                               SchemeKind scheme, const trace::NetworkTrace& network,
                               const SessionConfig& config);

// Same, with a nullable metrics/trace observer attached to the client, the
// accountant, and the scheme's MPC (obs/observer.h). Results are
// bit-identical to the observer-free overload — observation is write-only
// (pinned by the obs differential test).
SessionResult simulate_session(const VideoWorkload& workload, std::size_t test_user,
                               SchemeKind scheme, const trace::NetworkTrace& network,
                               const SessionConfig& config, obs::Observer* observer);

// Convenience: aggregate the per-user results of all test users. Energy,
// stall time, bytes, and the mean_* / ptile_usage / qoe.mean_* fields are
// means across users; the two counts, rebuffer_events and qoe.segments, are
// sums over users. Per-segment records are dropped.
SessionResult simulate_all_test_users(const VideoWorkload& workload, SchemeKind scheme,
                                      const trace::NetworkTrace& network,
                                      const SessionConfig& config);

}  // namespace ps360::sim
