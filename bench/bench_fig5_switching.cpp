// Fig. 5 — the distribution of view-switching speed.
//
// Synthesizes head traces for users watching the 18-video catalog and prints
// the CDF of the Eq. 5 switching speed. Paper anchor: users exceed
// 10 degrees/s for more than 30% of the time.
#include <cstdio>

#include "bench/common.h"
#include "trace/head_synth.h"
#include "util/stats.h"
#include "util/strings.h"

using namespace ps360;

int main(int argc, char** argv) {
  const auto options = bench::parse_options(argc, argv);
  bench::print_header("bench_fig5_switching",
                      "Fig. 5: distribution of view switching speed (48 users, "
                      "18 videos)",
                      options);

  const trace::HeadTraceSynthesizer synth(options.seed);

  const std::size_t users = options.quick ? 6 : 48;
  std::vector<double> speeds;
  for (const auto& video : trace::extended_videos()) {
    for (std::size_t u = 0; u < users; ++u) {
      const auto series =
          synth.synthesize(video, static_cast<int>(u)).switching_speed_series();
      speeds.insert(speeds.end(), series.begin(), series.end());
    }
  }

  const util::EmpiricalCdf cdf(speeds);
  util::TextTable table({"speed (deg/s)", "CDF"});
  for (double s : {1.0, 2.0, 5.0, 10.0, 15.0, 20.0, 30.0, 50.0, 80.0}) {
    table.add_row({util::strfmt("%.0f", s), util::strfmt("%.3f", cdf.at(s))});
  }
  std::printf("\n%s", table.render().c_str());
  std::printf("\nsamples: %zu   median: %.2f deg/s   mean: %.2f deg/s\n",
              speeds.size(), util::median(speeds), util::mean(speeds));
  std::printf("fraction above 10 deg/s: %s (paper: >30%%)\n",
              util::format_percent(util::fraction_above(speeds, 10.0)).c_str());
  return 0;
}
