// Fig. 6 — why the σ diameter cap exists.
//
// Reproduces the paper's illustration algorithmically: an elongated crowd of
// viewing centers (as in the Freestyle Skiing trace) would chain-link into
// one cluster and produce an oversized Ptile; the σ cap splits it into two
// compact Ptiles. Prints the heatmap, the resulting Ptiles, and the wasted
// area both ways.
#include <cstdio>

#include "bench/common.h"
#include "ptile/heatmap.h"
#include "util/rng.h"
#include "util/strings.h"

using namespace ps360;

namespace {

std::vector<geometry::EquirectPoint> elongated_crowd(std::uint64_t seed) {
  // Two interest regions 70 degrees apart with a thin bridge of viewers in
  // between — each neighbour gap is below δ, so naive density clustering
  // links everything (the Fig. 6(a) failure).
  util::Rng rng(seed);
  std::vector<geometry::EquirectPoint> centers;
  for (int i = 0; i < 16; ++i) {
    centers.push_back(geometry::EquirectPoint::make(geometry::Degrees(120.0 + rng.uniform(-7.0, 7.0)), geometry::Degrees(95.0 + rng.uniform(-7.0, 7.0))));
  }
  for (int i = 0; i < 16; ++i) {
    centers.push_back(geometry::EquirectPoint::make(geometry::Degrees(190.0 + rng.uniform(-7.0, 7.0)), geometry::Degrees(85.0 + rng.uniform(-7.0, 7.0))));
  }
  for (int i = 0; i <= 9; ++i) {  // the bridge: gaps stay below delta
    centers.push_back(geometry::EquirectPoint::make(geometry::Degrees(124.0 + 7.0 * i + rng.uniform(-1.5, 1.5)), geometry::Degrees(90.0 + rng.uniform(-2.0, 2.0))));
  }
  return centers;
}

void report(const char* title, const ptile::PtileBuilder& builder,
            const std::vector<geometry::EquirectPoint>& centers) {
  const auto result = builder.build(centers);
  std::printf("\n%s\n", title);
  // What matters for energy is the area a *served user* downloads at high
  // quality — the footprint of their own Ptile, not the union.
  double user_weighted_area = 0.0;
  std::size_t served = 0;
  for (std::size_t p = 0; p < result.ptiles.size(); ++p) {
    const auto& ptile = result.ptiles[p];
    std::printf("  Ptile %zu: %2zu users, %zux%zu tiles, %.1f%% of the frame\n", p,
                ptile.users.size(), ptile.rect.row_count, ptile.rect.col_count,
                ptile.area.area_fraction() * 100.0);
    user_weighted_area += ptile.area.area_fraction() *
                          static_cast<double>(ptile.users.size());
    served += ptile.users.size();
  }
  std::printf("  mean high-quality area downloaded per served user: %.1f%% of "
              "the frame\n",
              user_weighted_area / static_cast<double>(served) * 100.0);

  ptile::ViewHeatmap heatmap(18, 72);  // 5-degree cells
  for (const auto& center : centers)
    heatmap.add_viewport(geometry::Viewport(center));
  std::printf("%s", heatmap.render(result.ptiles).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = bench::parse_options(argc, argv);
  bench::print_header("bench_fig6_ptile_split",
                      "Fig. 6: splitting an oversized Ptile with the sigma cap",
                      options);

  const auto centers = elongated_crowd(options.seed);

  // Fig. 6(a): no diameter cap — one Ptile spans both interest regions.
  ptile::PtileBuildConfig uncapped;
  uncapped.clustering.sigma = 360.0;
  uncapped.clustering.delta = 11.25;
  report("Fig. 6(a) — delta-linkage only (sigma disabled): the Ptile grows too large",
         ptile::PtileBuilder(geometry::Degrees(100.0), uncapped), centers);

  // Fig. 6(b): the paper's sigma = one tile width.
  report("Fig. 6(b) — with the sigma cap (45 deg): split into compact Ptiles",
         ptile::PtileBuilder(geometry::Degrees(100.0)), centers);

  std::printf("\nWith the cap, each served user downloads a much smaller "
              "high-quality footprint — the energy argument of Section IV-A.\n");
  return 0;
}
