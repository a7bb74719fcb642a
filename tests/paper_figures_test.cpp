// Pins the paper's Section V figures bit for bit. integration_test.cpp's
// bands state the figures' shape; this test states their bits, so a change
// that claims to keep every output byte of bench_fig9_energy,
// bench_fig10_devices and bench_fig11_qoe proves it here instead of by a
// hand diff against its parent.
//
// The grids are the benches' own (bench::run_eval_grid with the benches'
// default seed): all eight videos in an optimized build, the benches'
// three-video --quick grid in an unoptimized one (Debug, sanitizer and
// coverage builds, where the full grids would take minutes). Fig. 9 and
// Fig. 11 print two views of one Pixel 3 grid, so that grid runs once.
//
// tests/data/paper_figures_golden.csv holds one `config,key,value` line per
// number, as precision-17 values (exact round trip): every cell's energy per
// segment (and, on the Pixel 3, its QoE), every normalized mean, every
// scheme's saving averaged over the two traces, and the Fig. 9(d) and
// Fig. 11(d) components with the savings the bench prints beside them. To
// regenerate deliberately, run paper_figures_test in an optimized build
// with PS360_PAPER_GOLDEN_OUT=tests/data/paper_figures_golden.csv (it writes
// both the full and the --quick rows) and review the diff: any moved line
// is an output change.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench/eval_common.h"

namespace ps360::sim {
namespace {

#if defined(__OPTIMIZE__)
constexpr bool kFullGrid = true;
#else
constexpr bool kFullGrid = false;
#endif

std::string golden_number(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

// One `config,key,value` line.
void add(std::vector<std::string>& lines, const std::string& config, const std::string& key,
         double value) {
  lines.push_back(config + "," + key + "," + golden_number(value));
}

std::string cell_key(const char* metric, const EvaluationCell& cell) {
  return std::string(metric) + ".v" + std::to_string(cell.video_id) + ".t" +
         std::to_string(cell.trace_id) + "." + scheme_name(cell.scheme);
}

// Fig. 9(a)-(c) and Fig. 10: energy per segment per cell, the mean over
// videos normalized to Ctile per trace, and each scheme's saving averaged
// over the two traces (the benches' headline and per-device savings).
void add_energy_figure(const EvaluationGrid& grid, const std::string& config,
                       std::vector<std::string>& lines) {
  for (const EvaluationCell& cell : grid.cells)
    add(lines, config, cell_key("energy_mj_per_segment", cell), cell.energy_per_segment_mj());
  for (const SchemeKind scheme : all_schemes()) {
    const double t1 = grid.normalized_mean(1, scheme, EvaluationGrid::energy_metric);
    const double t2 = grid.normalized_mean(2, scheme, EvaluationGrid::energy_metric);
    add(lines, config, "normalized_energy.t1." + scheme_name(scheme), t1);
    add(lines, config, "normalized_energy.t2." + scheme_name(scheme), t2);
    add(lines, config, "saving." + scheme_name(scheme), 1.0 - 0.5 * (t1 + t2));
  }
}

std::vector<std::string> golden_lines(bool quick) {
  const std::string mode = quick ? "quick" : "full";
  bench::BenchOptions options;
  options.quick = quick;
  // The video whose components Fig. 9(d) and 11(d) break down, chosen as
  // the benches choose it.
  const int video = quick ? trace::test_videos()[0].id : 8;
  const std::string components = "components.v" + std::to_string(video) + ".t2.";
  std::vector<std::string> lines;

  const EvaluationGrid pixel3 = bench::run_eval_grid(power::Device::kPixel3, options);
  const std::string fig9 = mode + ".fig9";
  add_energy_figure(pixel3, fig9, lines);
  const EvaluationCell& ctile = pixel3.at(video, 2, SchemeKind::kCtile);
  for (const SchemeKind scheme : all_schemes()) {
    const EvaluationCell& cell = pixel3.at(video, 2, scheme);
    const double n = static_cast<double>(cell.segments);
    const std::string key = components + scheme_name(scheme) + ".";
    add(lines, fig9, key + "transmit_mj_per_segment", cell.result.energy.transmit_mj / n);
    add(lines, fig9, key + "decode_mj_per_segment", cell.result.energy.decode_mj / n);
    add(lines, fig9, key + "render_mj_per_segment", cell.result.energy.render_mj / n);
    add(lines, fig9, key + "transmit_saving",
        1.0 - cell.result.energy.transmit_mj / ctile.result.energy.transmit_mj);
    add(lines, fig9, key + "decode_saving",
        1.0 - cell.result.energy.decode_mj / ctile.result.energy.decode_mj);
  }

  const std::string fig11 = mode + ".fig11";
  for (const EvaluationCell& cell : pixel3.cells)
    add(lines, fig11, cell_key("qoe", cell), cell.result.qoe.mean_q);
  for (const SchemeKind scheme : all_schemes()) {
    for (const int trace_id : {1, 2}) {
      add(lines, fig11, "normalized_qoe.t" + std::to_string(trace_id) + "." + scheme_name(scheme),
          pixel3.normalized_mean(trace_id, scheme, EvaluationGrid::qoe_metric));
    }
  }
  for (const SchemeKind scheme : all_schemes()) {
    const auto& qoe = pixel3.at(video, 2, scheme).result.qoe;
    const std::string key = components + scheme_name(scheme) + ".";
    add(lines, fig11, key + "mean_qo", qoe.mean_qo);
    add(lines, fig11, key + "mean_variation", qoe.mean_variation);
    add(lines, fig11, key + "mean_rebuffer", qoe.mean_rebuffer);
    add(lines, fig11, key + "mean_q", qoe.mean_q);
  }

  const std::pair<power::Device, const char*> fig10_devices[] = {
      {power::Device::kNexus5X, "Nexus5X"}, {power::Device::kGalaxyS20, "GalaxyS20"}};
  for (const auto& [device, name] : fig10_devices) {
    add_energy_figure(bench::run_eval_grid(device, options),
                      mode + ".fig10." + name, lines);
  }
  return lines;
}

TEST(PaperFiguresGoldenTest, FiguresMatchCheckedInGolden) {
  const std::string mode = kFullGrid ? "full." : "quick.";
  std::vector<std::string> actual;
  if (const char* out = std::getenv("PS360_PAPER_GOLDEN_OUT")) {
    // Writes both grids' rows; only this build's grid is compared below.
    std::vector<std::string> all = golden_lines(/*quick=*/false);
    const std::vector<std::string> quick = golden_lines(/*quick=*/true);
    all.insert(all.end(), quick.begin(), quick.end());
    std::ofstream file(out);
    file << "config,key,value\n";
    for (const std::string& line : all) {
      file << line << "\n";
      if (line.rfind(mode, 0) == 0) actual.push_back(line);
    }
  } else {
    actual = golden_lines(/*quick=*/!kFullGrid);
  }

  const std::filesystem::path golden_path =
      std::filesystem::path(PS360_TEST_DATA_DIR) / "paper_figures_golden.csv";
  std::ifstream in(golden_path);
  ASSERT_TRUE(in.good()) << "cannot open " << golden_path;
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header, "config,key,value");
  std::vector<std::string> expected;
  for (std::string line; std::getline(in, line);) {
    if (line.rfind(mode, 0) == 0) expected.push_back(line);
  }

  // Line by line, so a drift names the figure, the number and both values.
  const std::size_t common = std::min(expected.size(), actual.size());
  for (std::size_t i = 0; i < common; ++i)
    EXPECT_EQ(actual[i], expected[i]) << "paper figure drift at " << mode << " row " << i;
  EXPECT_EQ(actual.size(), expected.size())
      << "row count changed (golden " << expected.size() << " " << mode
      << " rows, actual " << actual.size() << ")";
}

}  // namespace
}  // namespace ps360::sim
