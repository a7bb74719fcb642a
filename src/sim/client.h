// The streaming client — the paper's Section IV-B/IV-C loop as a reusable
// state machine, decoupled from any particular network model.
//
// Per segment the client performs steps (a)-(e) of the MPC algorithm:
// read the buffer, predict the viewport (ridge regression over the head
// trace seen so far) and the bandwidth (harmonic mean of observed download
// rates), solve the horizon, and emit a download decision. The caller then
// performs the download however it likes (a simulator integrates a
// throughput trace; a real client would issue an HTTP request) and reports
// how long it took; the client advances the Eq. 6 buffer state. It reads
// its knobs from the session's one SessionConfig (sim/session_config.h).
//
// fleet::run_fleet is the one session driver (sim::simulate_session is a
// fleet of one): it times downloads on a shared link, injects faults,
// reports failures (report_download_failure), issues the guaranteed final
// attempt and writes every metric and trace record of the session from what
// these calls return. Tests drive it directly with hand-crafted download
// times.
#pragma once

#include <memory>

#include "predict/bandwidth_estimators.h"
#include "predict/predictors.h"
#include "sim/schemes.h"
#include "sim/session_config.h"
#include "util/units.h"

namespace ps360::sim {

// What the client decided after a failure was reported.
struct FailureAction {
  double backoff_s = 0.0;  // delay before the next attempt (already applied)
  bool degrade = false;    // caller should invoke replan_degraded()
};

// One planned request: what to fetch for the next segment plus the
// prediction context the QoE evaluation needs.
struct ClientRequest {
  std::size_t segment = 0;
  DownloadPlan plan;
  geometry::Viewport predicted{geometry::EquirectPoint{0.0, 90.0}};
  double predicted_sfov = 0.0;       // deg/s, from the recent head samples
  double wait_s = 0.0;               // Δt spent above the buffer threshold
  double buffer_at_request_s = 0.0;  // B_k after the wait
  double bandwidth_estimate_bps = 0.0;
};

class StreamingClient {
 public:
  // `workload`, `scheme` and `head` must outlive the client. `head` is the
  // viewer's head trace, consumed causally (only samples up to the playhead
  // are used for prediction). Throws std::invalid_argument, naming the
  // field, unless validated(config, workload) passes. The backoff jitter
  // runs on config.seed folded with config.recovery.seed.
  StreamingClient(const SessionConfig& config, const VideoWorkload& workload,
                  const Scheme& scheme, const trace::HeadTrace& head);

  // Two-phase planning of the next segment's download. begin_plan()
  // consumes the Eq. 6 wait — advancing the wall clock and draining the
  // buffer — and returns that wait. finish_plan() then runs prediction,
  // bandwidth estimation, and the scheme's solve, and returns the request.
  // finish_plan() reads only client-local state frozen at begin_plan() time
  // and writes nothing outside the client, so the engine may run it
  // just-in-time when the flow-start event fires or speculatively on a
  // worker thread — the two executions are bit-identical. The request
  // carries the solve's outcome (DownloadPlan::solve) for the engine to
  // report. begin_plan() throws past the last segment (finished()) and
  // before the previous download completed; one finish_plan() must follow
  // each begin_plan() before any other state transition, and the request
  // must be completed by complete_download().
  double begin_plan();
  ClientRequest finish_plan();

  // Report how long the planned download took (seconds, > 0). Returns the
  // stall time this download caused (0 for the startup segment). Any buffer
  // drained by failed attempts (report_download_failure) is folded into the
  // returned stall.
  double complete_download(util::Seconds download);

  // Report that the in-flight attempt failed after `elapsed_s` seconds
  // (>= 0). Advances the wall clock by elapsed_s plus a capped, seeded-jitter
  // exponential backoff, drains the buffer accordingly, and returns what to
  // do next. Throws if no download is in flight — state is untouched then.
  FailureAction report_download_failure(util::Seconds elapsed);

  // Re-plan the pending segment one degradation step down: the scheme is
  // re-run against a bandwidth haircut of degrade_bandwidth_factor^level, so
  // repeated failures shrink the request (lower version / fewer tiles / lower
  // frame rate) instead of retrying the same doomed bytes. Returns the
  // updated request, its bandwidth_estimate_bps the degraded estimate.
  // Requires an in-flight download and a non-exhausted ladder
  // (FailureAction.degrade said so).
  ClientRequest replan_degraded();

  // Recovery state.
  const RecoveryConfig& recovery() const { return config_.recovery; }
  std::size_t attempts() const { return attempt_; }
  std::size_t degrade_level() const { return degrade_level_; }

  // Current state.
  double buffer_s() const { return buffer_s_; }
  double wall_time_s() const { return wall_t_; }
  double playhead_s() const;
  std::size_t next_segment() const { return next_segment_; }
  bool finished() const { return next_segment_ >= workload_->segment_count(); }

 private:
  SessionConfig config_;
  const VideoWorkload* workload_;
  const Scheme* scheme_;
  const trace::HeadTrace* head_;
  predict::ViewportPredictor predictor_;
  std::unique_ptr<predict::BandwidthEstimator> bandwidth_;

  std::size_t next_segment_ = 0;
  double wall_t_ = 0.0;
  double buffer_s_ = 0.0;
  double prev_plan_qo_ = -1.0;
  bool awaiting_download_ = false;
  bool planning_ = false;  // between begin_plan() and finish_plan()
  double pending_bytes_ = 0.0;

  // Recovery state for the in-flight segment; all zero on the happy path,
  // so the fault layer is inert when nothing fails.
  std::size_t attempt_ = 0;        // failures so far for this segment
  std::size_t degrade_level_ = 0;  // degradation steps taken for this segment
  double fault_stall_s_ = 0.0;     // stall accrued by failed attempts
  ClientRequest current_request_;  // last plan, for degraded re-planning
};

}  // namespace ps360::sim
