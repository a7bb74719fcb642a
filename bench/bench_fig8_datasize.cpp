// Fig. 8 — CDFs of the normalized Ptile data size.
//
// For every segment of two representative videos (the paper shows videos 2
// and 8 "to save space"), encode the region covered by the segment's main
// Ptile twice — as one Ptile and as the conventional tiles covering the same
// area — at each quality level, and print the CDF of the size ratio.
// Paper medians: 62 / 57 / 47 / 35 / 27 % for quality 5..1.
#include <cstdio>

#include "bench/common.h"
#include "sim/workload.h"
#include "util/stats.h"
#include "util/strings.h"
#include "video/encoding.h"

using namespace ps360;

namespace {

void video_cdf(const trace::VideoInfo& video, const bench::BenchOptions& options) {
  sim::WorkloadConfig wconfig;
  wconfig.seed = options.seed;
  const sim::VideoWorkload workload(video, wconfig);

  const video::EncodingModel model(options.seed);

  std::printf("\nFig. 8 — video %d (%s)\n", video.id, video.name.c_str());
  util::TextTable table({"quality", "p10", "p25", "median", "p75", "p90",
                         "paper median"});
  for (int v = 5; v >= 1; --v) {
    std::vector<double> ratios;
    for (std::size_t k = 0; k < workload.segment_count(); ++k) {
      const auto& ptiles = workload.ptiles(k).ptiles;
      if (ptiles.empty()) continue;
      const auto& ptile = ptiles.front();
      const double area = ptile.area.area_fraction();
      const std::size_t tiles = ptile.rect.tile_count();
      if (tiles < 2) continue;
      const auto& feat = workload.features(k);
      // Independent size noise per encoding, as two real encoder runs.
      const std::uint64_t key = k * 100 + static_cast<std::uint64_t>(v);
      const double as_ptile =
          model.region_bytes(area, 1, v, feat, 1.0, 1.0, model.size_noise(key));
      const double as_tiles =
          model.region_bytes(area, tiles, v, feat, 1.0, 1.0, model.size_noise(key + 50));
      ratios.push_back(as_ptile / as_tiles);
    }
    if (ratios.empty()) continue;
    const util::EmpiricalCdf cdf(ratios);
    static const double paper_median[] = {0.27, 0.35, 0.47, 0.57, 0.62};
    table.add_row({util::strfmt("%d", v), util::strfmt("%.3f", cdf.quantile(0.10)),
                   util::strfmt("%.3f", cdf.quantile(0.25)),
                   util::strfmt("%.3f", cdf.quantile(0.50)),
                   util::strfmt("%.3f", cdf.quantile(0.75)),
                   util::strfmt("%.3f", cdf.quantile(0.90)),
                   util::strfmt("%.2f", paper_median[v - 1])});
  }
  std::printf("%s", table.render().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = bench::parse_options(argc, argv);
  bench::print_header("bench_fig8_datasize",
                      "Fig. 8: CDFs of Ptile size normalized to conventional tiles",
                      options);
  // The paper's two representative videos: 2 (Showtime Boxing) and 8
  // (Freestyle Skiing).
  video_cdf(trace::test_videos()[1], options);
  if (!options.quick) video_cdf(trace::test_videos()[7], options);
  std::printf("\nbandwidth savings at the median (1 - ratio): paper reports "
              "38/43/53/65/73%% for quality 5..1.\n");
  return 0;
}
