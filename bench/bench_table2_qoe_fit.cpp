// Table II + Fig. 4(b) — fitting the Qo logistic.
//
// Synthesizes the VMAF assessment dataset (18 videos x 10 segments x a
// bitrate sweep), fits c1..c4 with the Gauss-Newton pipeline, and prints the
// fitted coefficients against Table II plus the Pearson correlation (paper:
// 0.9791). Also prints a Fig. 4(b)-style slice of the fitted surface.
#include <cstdio>

#include "bench/common.h"
#include "qoe/fitter.h"
#include "trace/video_catalog.h"
#include "util/strings.h"

using namespace ps360;

int main(int argc, char** argv) {
  const auto options = bench::parse_options(argc, argv);
  bench::print_header("bench_table2_qoe_fit",
                      "Table II + Fig. 4(b): Qo model parameters and fit quality",
                      options);

  qoe::VmafSynthConfig config;
  config.seed = options.seed;
  const auto samples = qoe::synthesize_vmaf_dataset(config, trace::extended_videos());
  std::printf("\nassessment dataset: %zu samples (18 videos x %zu segments x %zu "
              "bitrates)\n",
              samples.size(), qoe::kVmafSegmentsPerVideo, qoe::kVmafBitrates.size());

  const qoe::QoFitResult fit = qoe::fit_qo_params(samples);

  util::TextTable table({"coefficient", "fitted", "Table II"});
  table.add_row({"c1", util::strfmt("%+.4f", fit.params.c1), "-0.2163"});
  table.add_row({"c2", util::strfmt("%+.4f", fit.params.c2), "+0.0581"});
  table.add_row({"c3", util::strfmt("%+.4f", fit.params.c3), "-0.1578"});
  table.add_row({"c4", util::strfmt("%+.4f", fit.params.c4), "+0.7821"});
  std::printf("\n%s", table.render().c_str());
  std::printf("\nPearson correlation: %.4f (paper: 0.9791)   RMSE: %.2f VMAF   "
              "iterations: %zu\n",
              fit.pearson, fit.rmse, fit.iterations);

  // Fig. 4(b): Qo over bitrate for three (SI, TI) content classes.
  const qoe::QoModel model(fit.params);
  util::TextTable surface({"bitrate b", "Qo (SI=30, TI=10)", "Qo (SI=50, TI=25)",
                           "Qo (SI=70, TI=50)"});
  for (double b : {0.5, 1.0, 2.0, 4.0, 6.0, 9.0}) {
    surface.add_row({util::strfmt("%.1f", b),
                     util::strfmt("%.1f", model.qo(30.0, 10.0, util::Mbps(b))),
                     util::strfmt("%.1f", model.qo(50.0, 25.0, util::Mbps(b))),
                     util::strfmt("%.1f", model.qo(70.0, 50.0, util::Mbps(b)))});
  }
  std::printf("\nFig. 4(b) — fitted Qo surface slices\n%s", surface.render().c_str());
  return 0;
}
