// The trace-driven streaming session simulator.
//
// Replays one held-out test user watching one video over one network trace
// with one scheme on one device, faithfully following the client loop of
// Section IV: predict the viewport (ridge regression over the recent head
// samples), estimate bandwidth (harmonic mean of observed download rates),
// run the scheme's MPC, download over the variable-rate trace, and evolve
// the buffer by Eq. 6 (wait above the β threshold, stall when the download
// outlasts the buffer). The session runs as a fleet of one through
// fleet::run_fleet, the one session driver. Its parameters are the one
// SessionConfig (sim/session_config.h, re-included here), which the client,
// the accountant and the scheme all read.
//
// Per segment it accounts:
//  * energy (Eq. 1, Table I models — radio for the download time, decoder
//    and renderer for the playback duration), and
//  * QoE (Eq. 2) against the *actual* viewport: the delivered Qo blends the
//    high-quality region with the low-quality background by the coverage of
//    the user's true FoV, and the frame-rate factor uses the user's true
//    switching speed.
#pragma once

#include "obs/observer.h"
#include "power/energy.h"
#include "qoe/qoe_model.h"
#include "sim/client.h"
#include "sim/schemes.h"
#include "sim/session_config.h"
#include "trace/network_trace.h"

namespace ps360::sim {

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

// Sets every aggregate of `result` from its segment records, summed in
// segment order: energy, stall time, rebuffer events and bytes as totals;
// quality, fps, coverage and Ptile usage as means over the records; the
// Eq. 2 means through qoe::SessionQoE::aggregate. The one aggregation of a
// session; SessionAccountant::finish calls it.
void aggregate_segments(SessionResult& result);

// Simulate one session: fleet::run_fleet with one session replaying
// `test_user`, no start stagger, one engine thread and the fleet seed set to
// config.seed (it keys the fault and retry streams). The network trace is
// consumed from t = 0 (it loops if shorter than the session), and enabled
// faults run through the engine's fault state machine. The nullable
// metrics/trace observer (obs/observer.h) receives what the engine's one
// reporter writes: the client.*, session.* and fleet.* metrics, the
// solver's (mpc.* or lp.allocations) and the session's trace records;
// results are bit-identical without it — observation is write-only (pinned
// by the obs differential test).
SessionResult simulate_session(const VideoWorkload& workload, std::size_t test_user,
                               SchemeKind scheme, const trace::NetworkTrace& network,
                               const SessionConfig& config,
                               obs::Observer* observer = nullptr);

// Convenience: aggregate the per-user results of all test users. Energy,
// stall time, bytes, and the mean_* / ptile_usage / qoe.mean_* fields are
// means across users; the two counts, rebuffer_events and qoe.segments, are
// sums over users. Per-segment records are dropped.
SessionResult simulate_all_test_users(const VideoWorkload& workload, SchemeKind scheme,
                                      const trace::NetworkTrace& network,
                                      const SessionConfig& config);

}  // namespace ps360::sim
