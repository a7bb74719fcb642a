// Fig. 7 — performance of Ptile construction.
//  (a) Number of Ptiles needed per segment for each test video (paper: >95%
//      of segments need one Ptile for the focused videos 2-4; >92% need at
//      most two even for the free-viewing videos).
//  (b) Percentage of users whose viewing area is covered by the Ptiles
//      (paper: 88-95% for focused videos, >80% for free viewing).
#include <cstdio>

#include "bench/common.h"
#include "sim/workload.h"
#include "util/strings.h"

using namespace ps360;

int main(int argc, char** argv) {
  const auto options = bench::parse_options(argc, argv);
  bench::print_header("bench_fig7_coverage",
                      "Fig. 7(a): Ptiles per segment; Fig. 7(b): users covered",
                      options);

  util::TextTable table({"video", "viewing", "mean #Ptiles", "=1", "<=2",
                         "users covered"});

  const std::size_t stride = options.quick ? 5 : 1;
  for (const auto& video : trace::test_videos()) {
    sim::WorkloadConfig config;
    config.seed = options.seed;
    const sim::VideoWorkload workload(video, config);

    double sum_ptiles = 0.0;
    std::size_t one = 0, two = 0, sampled = 0;
    double covered = 0.0, total = 0.0;
    for (std::size_t k = 0; k < workload.segment_count(); k += stride) {
      const auto& ptiles = workload.ptiles(k);
      sum_ptiles += static_cast<double>(ptiles.ptiles.size());
      if (ptiles.ptiles.size() <= 1) ++one;
      if (ptiles.ptiles.size() <= 2) ++two;
      ++sampled;
      // Coverage over all 48 dataset users, as the paper evaluates.
      for (std::size_t u = 0; u < trace::kDatasetUsers; ++u) {
        const auto viewport = workload.user_trace(u).viewport_at(
            (static_cast<double>(k) + 0.5) * config.segment_seconds,
            util::Degrees(config.fov_deg));
        total += 1.0;
        if (ptiles.covering(viewport, 0.8) != nullptr) covered += 1.0;
      }
    }
    const double n = static_cast<double>(sampled);
    table.add_row({util::strfmt("%d (%s)", video.id, video.name.c_str()),
                   video.focused ? "focused" : "free",
                   util::strfmt("%.2f", sum_ptiles / n),
                   util::format_percent(static_cast<double>(one) / n),
                   util::format_percent(static_cast<double>(two) / n),
                   util::format_percent(covered / total)});
  }
  std::printf("\n%s", table.render().c_str());
  std::printf("\npaper anchors: focused videos ~1 Ptile (>95%% of segments), free "
              "viewing <=2 Ptiles for >92%%;\nuser coverage 88-95%% (focused), "
              ">80%% (free).\n");
  return 0;
}
