// The evaluation grid of Section V: simulate every (video, network trace,
// scheme) cell on one device, averaging over the held-out test users. This
// is the shared engine behind bench_fig9/10/11 and available to library
// users who want the paper's full comparison in one call.
#pragma once

#include <functional>
#include <vector>

#include "sim/session.h"

namespace ps360::sim {

struct EvaluationCell {
  int video_id = 0;
  int trace_id = 0;  // 1 (high bandwidth) or 2 (low bandwidth)
  SchemeKind scheme = SchemeKind::kCtile;
  std::size_t segments = 0;
  SessionResult result;  // mean over the test users (segments dropped)

  double energy_per_segment_mj() const;
};

struct EvaluationGrid {
  std::vector<EvaluationCell> cells;

  // The first cell for one (video, trace, scheme); throws if absent. A
  // linear scan of `cells`, so it sees every edit made to them (the paper
  // grid holds at most 80 cells).
  const EvaluationCell& at(int video_id, int trace_id, SchemeKind scheme) const;

  // Mean over videos of metric(cell)/metric(Ctile cell) for one trace.
  double normalized_mean(int trace_id, SchemeKind scheme,
                         const std::function<double(const EvaluationCell&)>& metric) const;

  // Convenience metrics.
  static double energy_metric(const EvaluationCell& cell);
  static double qoe_metric(const EvaluationCell& cell);
};

struct EvaluationOptions {
  std::size_t max_videos = 8;          // trim for quick runs
  double network_duration_s = 700.0;   // synthesized trace length
  // Called after each (video, trace) block completes, for progress display.
  // The videos run on the worker pool, so calls may arrive out of video
  // order (but never concurrently).
  std::function<void(int video_id, int trace_id)> progress;
};

// Run the grid on `session.device`, every cell with `session`, whose seed
// also keys the paper traces and every video's workload. The videos run on
// the worker pool (cells are independent and all randomness is seed-keyed,
// so the grid is identical for any thread budget).
EvaluationGrid run_evaluation_grid(const EvaluationOptions& options = {},
                                   const SessionConfig& session = {});

}  // namespace ps360::sim
