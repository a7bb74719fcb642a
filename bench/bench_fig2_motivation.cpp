// Fig. 2 — the motivation measurements.
//  (a) Energy of data transmission, Ptile vs the conventional tile scheme
//      (normalized; paper: Ptile saves ~35%).
//  (b) Time and power to decode one segment's FoV tiles with 1..9 concurrent
//      decoders, plus the Ptile pipeline's single-decoder point
//      (paper, Pixel 3: 1 dec = 1.3 s / 241 mW; 9 dec = 0.5 s / 846 mW;
//       Ptile = 0.24 s / 287 mW).
//  (c) Energy of video processing (decode + view generation), normalized to
//      the one-decoder conventional pipeline; an intermediate decoder count
//      is the best conventional configuration and the Ptile pipeline beats
//      it (paper: by ~41%).
#include <cstdio>

#include "bench/common.h"
#include "power/decoder_model.h"
#include "power/device_models.h"
#include "util/strings.h"
#include "video/encoding.h"

using namespace ps360;

namespace {

// Fig. 2(a): bytes downloaded for one segment at mid quality — FoV tiles at
// quality 3 plus the background at quality 1 — under both encodings. The
// radio energy is proportional to bytes at a fixed link rate.
void fig2a(const bench::BenchOptions& options) {
  const video::EncodingConfig config;
  const video::EncodingModel model(options.seed, config);
  const video::ContentFeatures content{50.0, 25.0};

  const double fov_area = 9.0 * config.ref_tile_area_fraction;
  const double bg_area = 1.0 - fov_area;

  util::TextTable table({"quality", "Ptile/Ctile (FoV only)",
                         "Ptile/Ctile (FoV + background)"});
  double headline = 0.0;
  for (int v = 5; v >= 1; --v) {
    const double fov_ptile = model.region_bytes(fov_area, 1, v, content, 1.0);
    const double fov_ctile = model.region_bytes(fov_area, 9, v, content, 1.0);
    // Conventional: 23 background grid tiles; Ptile: 3 large blocks.
    const double bg_ptile = model.region_bytes(bg_area, 3, 1, content, 1.0);
    const double bg_ctile = model.region_bytes(bg_area, 23, 1, content, 1.0);
    const double with_bg = (fov_ptile + bg_ptile) / (fov_ctile + bg_ctile);
    if (v == 5) headline = fov_ptile / fov_ctile;
    table.add_row({util::strfmt("%d", v),
                   util::format_ratio(fov_ptile / fov_ctile),
                   util::format_ratio(with_bg)});
  }
  std::printf("\nFig. 2(a) — transmission energy of Ptile normalized to the "
              "conventional tiles (energy ∝ bytes)\n%s",
              table.render().c_str());
  std::printf("saving at the motivation experiment's high quality (FoV, q5): "
              "%s (paper: ~35%%)\n",
              util::format_percent(1.0 - headline).c_str());
}

void fig2b(const power::DecoderConcurrencyModel& model) {
  util::TextTable table({"decoders", "decode time (s)", "decode power (mW)"});
  for (std::size_t n = 1; n <= 9; ++n) {
    table.add_row({util::strfmt("%zu", n), util::strfmt("%.2f", model.decode_time_s(n)),
                   util::strfmt("%.0f", model.decode_power_mw(n))});
  }
  table.add_row({"Ptile", util::strfmt("%.2f", model.ptile_decode_time_s()),
                 util::strfmt("%.0f", model.ptile_decode_power_mw())});
  std::printf("\nFig. 2(b) — decoding one segment's FoV tiles (Pixel 3)\n%s",
              table.render().c_str());
  std::printf("paper anchors: 1 dec = 1.3 s / 241 mW; 9 dec = 0.5 s / 846 mW; "
              "Ptile = 0.24 s / 287 mW\n");
}

void fig2c(const power::DecoderConcurrencyModel& model) {
  const double base = model.processing_energy_mj(1);
  util::TextTable table({"pipeline", "processing energy (mJ)", "normalized"});
  for (std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                        std::size_t{6}, std::size_t{9}}) {
    table.add_row({util::strfmt("Ctile, %zu decoders", n),
                   util::strfmt("%.0f", model.processing_energy_mj(n)),
                   util::format_ratio(model.processing_energy_mj(n) / base)});
  }
  table.add_row({"Ptile, 1 decoder",
                 util::strfmt("%.0f", model.ptile_processing_energy_mj()),
                 util::format_ratio(model.ptile_processing_energy_mj() / base)});
  std::printf("\nFig. 2(c) — processing energy per segment (decode + view "
              "generation)\n%s",
              table.render().c_str());
  const std::size_t best = model.best_decoder_count(9);
  const double saving =
      1.0 - model.ptile_processing_energy_mj() / model.processing_energy_mj(best);
  std::printf("best conventional decoder count: %zu (paper: 4)\n", best);
  std::printf("Ptile saving vs best conventional: %s (paper: ~41%%)\n",
              util::format_percent(saving).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = bench::parse_options(argc, argv);
  bench::print_header("bench_fig2_motivation",
                      "Fig. 2(a)-(c): energy inefficiency of tile-based streaming",
                      options);
  fig2a(options);
  const power::DecoderConcurrencyModel model;
  fig2b(model);
  fig2c(model);
  return 0;
}
