// Evaluation-grid driver: per-(video,user,scheme,trace) sessions fanned
// out over the worker pool (util::for_each_slot). Deterministic by
// construction: threads claim slot indices from an atomic counter but write
// only into their own slot, so the merged grid is independent of thread
// count and interleaving.
#include "sim/experiment.h"

#include <algorithm>

#include "util/check.h"
#include "util/worker_pool.h"

namespace ps360::sim {

double EvaluationCell::energy_per_segment_mj() const {
  PS360_ASSERT(segments > 0);
  return result.energy.total_mj() / static_cast<double>(segments);
}

const EvaluationCell& EvaluationGrid::at(int video_id, int trace_id,
                                         SchemeKind scheme) const {
  for (const EvaluationCell& cell : cells) {
    if (cell.video_id == video_id && cell.trace_id == trace_id && cell.scheme == scheme)
      return cell;
  }
  throw std::invalid_argument("missing evaluation cell");
}

double EvaluationGrid::normalized_mean(
    int trace_id, SchemeKind scheme,
    const std::function<double(const EvaluationCell&)>& metric) const {
  double sum = 0.0;
  std::size_t n = 0;
  for (const auto& cell : cells) {
    if (cell.trace_id != trace_id || cell.scheme != scheme) continue;
    const EvaluationCell& base = at(cell.video_id, trace_id, SchemeKind::kCtile);
    sum += metric(cell) / metric(base);
    ++n;
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

double EvaluationGrid::energy_metric(const EvaluationCell& cell) {
  return cell.energy_per_segment_mj();
}

double EvaluationGrid::qoe_metric(const EvaluationCell& cell) {
  return cell.result.qoe.mean_q;
}

EvaluationGrid run_evaluation_grid(const EvaluationOptions& options,
                                   const SessionConfig& session) {
  PS360_CHECK(options.max_videos >= 1);
  EvaluationGrid grid;
  const auto traces =
      trace::make_paper_traces(session.seed, util::Seconds(options.network_duration_s));

  const auto& videos = trace::test_videos();
  const std::size_t n_videos = std::min(options.max_videos, videos.size());

  // One result slot per video keeps the output order deterministic no
  // matter how the workers interleave.
  std::vector<std::vector<EvaluationCell>> per_video(n_videos);

  util::for_each_slot(n_videos, [&](std::size_t vi) {
    WorkloadConfig wconfig;
    wconfig.seed = session.seed;
    const VideoWorkload workload(videos[vi], wconfig);
    for (int trace_id = 1; trace_id <= 2; ++trace_id) {
      const trace::NetworkTrace& net = trace_id == 1 ? traces.first : traces.second;
      for (SchemeKind scheme : all_schemes()) {
        EvaluationCell cell;
        cell.video_id = videos[vi].id;
        cell.trace_id = trace_id;
        cell.scheme = scheme;
        cell.segments = workload.segment_count();
        cell.result = simulate_all_test_users(workload, scheme, net, session);
        per_video[vi].push_back(std::move(cell));
      }
    }
  });

  for (auto& cells : per_video) {
    grid.cells.insert(grid.cells.end(), std::make_move_iterator(cells.begin()),
                      std::make_move_iterator(cells.end()));
  }
  return grid;
}

}  // namespace ps360::sim
