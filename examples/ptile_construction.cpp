// ptile_construction — walk through Section IV-A on one segment.
//
// Shows the raw machinery beneath the streaming pipeline:
//   * synthesize the training users' head traces for one video,
//   * take one segment's viewing centers,
//   * run Algorithm 1 (δ-linkage clustering with the σ diameter cap),
//   * build the Ptiles and their low-quality background blocks,
//   * ask which Ptile would serve a new user, and what the encoding-size
//     model says the Ptile saves over conventional tiles.
//
// Run: ./build/examples/ptile_construction [video_id 1..8] [segment]
#include <cstdio>
#include <cstdlib>

#include "ptile/heatmap.h"
#include "ptile/ptile.h"
#include "trace/head_synth.h"
#include "video/encoding.h"

using namespace ps360;

int main(int argc, char** argv) {
  const int video_id = argc > 1 ? std::atoi(argv[1]) : 8;
  const std::size_t segment = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 60;
  const trace::VideoInfo& video = trace::video_by_id(video_id);
  std::printf("video %d (%s), segment %zu\n", video.id, video.name.c_str(), segment);

  // Training users' viewing centers during this segment.
  const trace::HeadTraceSynthesizer synth(42);
  std::vector<geometry::EquirectPoint> centers;
  for (std::size_t u = 0; u < trace::kTrainingUsers; ++u) {
    const auto head = synth.synthesize(video, static_cast<int>(u));
    centers.push_back(head.mean_center(static_cast<double>(segment),
                                       static_cast<double>(segment) + 1.0));
  }

  // Algorithm 1 on its own, to show the clusters.
  const ptile::ViewClusterer clusterer;  // σ = 45° (one tile), δ = σ/4
  const auto clusters = clusterer.cluster(centers);
  std::printf("\nAlgorithm 1: %zu cluster(s) from %zu viewing centers "
              "(delta=%.2f, sigma=%.1f)\n",
              clusters.size(), centers.size(), clusterer.config().delta,
              clusterer.config().sigma);
  for (std::size_t c = 0; c < clusters.size(); ++c) {
    std::printf("  cluster %zu: %2zu users, diameter %.1f deg\n", c,
                clusters[c].size(),
                ptile::ViewClusterer::diameter(centers, clusters[c]));
  }

  // Full Ptile construction (min-user rule, grid snapping, background).
  const ptile::PtileBuilder builder(geometry::Degrees(100.0));  // the paper's FoV
  const auto ptiles = builder.build(centers);
  std::printf("\nPtiles (clusters with >= %zu users):\n",
              builder.config().min_users);
  for (std::size_t p = 0; p < ptiles.ptiles.size(); ++p) {
    const auto& ptile = ptiles.ptiles[p];
    std::printf("  Ptile %zu: %zu users, %zux%zu tiles (lon [%.0f, +%.0f], "
                "colat [%.0f, %.0f]), %.1f%% of the frame\n",
                p, ptile.users.size(), ptile.rect.row_count, ptile.rect.col_count,
                ptile.area.lon.lo, ptile.area.lon.width, ptile.area.y_lo,
                ptile.area.y_hi, ptile.area.area_fraction() * 100.0);
    const auto blocks = ptile::background_block_areas(ptile);
    std::printf("            background: %zu low-quality blocks covering %.1f%% "
                "of the frame\n",
                blocks.size(),
                [&] {
                  double sum = 0.0;
                  for (double b : blocks) sum += b;
                  return sum * 100.0;
                }() * 1.0);
  }
  std::printf("  uncovered training users: %zu\n", ptiles.uncovered_users.size());

  // The Fig. 1-style picture: where the users look (viewport density) and
  // the constructed Ptiles' outlines.
  ptile::ViewHeatmap heatmap(18, 72);
  for (const auto& center : centers) heatmap.add_viewport(geometry::Viewport(center));
  std::printf("\nviewing-density heatmap with Ptile outlines ('['/']'):\n%s",
              heatmap.render(ptiles.ptiles).c_str());

  // Serve a held-out user.
  const auto test_head = synth.synthesize(video, 44);
  const auto viewport =
      test_head.viewport_at(static_cast<double>(segment) + 0.5);
  const ptile::Ptile* serving = ptiles.covering(viewport, 0.85);
  std::printf("\ntest user 44 looks at (%.0f, %.0f): %s\n", viewport.center().x,
              viewport.center().y,
              serving != nullptr ? "served by a Ptile"
                                 : "not covered -> conventional tiles");

  // What the Ptile saves, per the encoding model.
  if (serving != nullptr) {
    const video::EncodingModel encoding(42);
    const auto features = video::segment_features(video, segment);
    std::printf("\nencoded size of the served region at each quality "
                "(Ptile vs %zu conventional tiles):\n",
                serving->rect.tile_count());
    for (int v = 5; v >= 1; --v) {
      const double one = encoding.region_bytes(serving->area.area_fraction(), 1, v,
                                               features, 1.0);
      const double many = encoding.region_bytes(serving->area.area_fraction(),
                                                serving->rect.tile_count(), v,
                                                features, 1.0);
      std::printf("  q%d: %7.0f vs %7.0f bytes  (%.0f%% saved)\n", v, one, many,
                  (1.0 - one / many) * 100.0);
    }
  }
  return 0;
}
