// Bench adapter over the library's evaluation grid (sim/experiment.h):
// maps the bench flags onto EvaluationOptions and streams progress to
// stderr.
#pragma once

#include <cstdio>

#include "bench/common.h"
#include "sim/experiment.h"

namespace ps360::bench {

using EvalCell = sim::EvaluationCell;
using EvalGrid = sim::EvaluationGrid;

inline EvalGrid run_eval_grid(power::Device device, const BenchOptions& options,
                              bool verbose_progress = true) {
  sim::EvaluationOptions eval;
  eval.max_videos = options.quick ? 3 : 8;
  if (verbose_progress) {
    eval.progress = [](int video_id, int trace_id) {
      std::fprintf(stderr, "  [grid] video %d trace %d done\n", video_id, trace_id);
    };
  }
  sim::SessionConfig session;
  session.seed = options.seed;
  session.device = device;
  return sim::run_evaluation_grid(eval, session);
}

}  // namespace ps360::bench
