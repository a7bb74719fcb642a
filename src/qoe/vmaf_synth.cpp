#include "qoe/vmaf_synth.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"
#include "util/rng.h"
#include "video/content.h"

namespace ps360::qoe {

std::vector<VmafSample> synthesize_vmaf_dataset(
    const VmafSynthConfig& config, const std::vector<trace::VideoInfo>& videos) {
  static_assert(kVmafSegmentsPerVideo >= 1);
  PS360_CHECK(!videos.empty());
  PS360_CHECK(config.score_noise_sigma >= 0.0);

  const QoModel truth(config.truth);
  util::Rng rng(util::derive_seed(config.seed, 0x37AFULL));

  std::vector<VmafSample> samples;
  samples.reserve(videos.size() * kVmafSegmentsPerVideo * kVmafBitrates.size());

  for (const auto& video : videos) {
    const std::size_t n_segments = video::segment_count(video, 1.0);
    // "ten of which are uniformly selected": sample segment indices evenly.
    for (std::size_t pick = 0; pick < kVmafSegmentsPerVideo; ++pick) {
      const std::size_t seg =
          pick * std::max<std::size_t>(n_segments / kVmafSegmentsPerVideo, 1) % n_segments;
      const video::ContentFeatures features =
          video::segment_features(video, seg, config.seed);
      // A per-(video,segment) idiosyncratic offset: real VMAF deviates from
      // any parametric surface consistently for a given clip, not iid per
      // data point. This is what bounds the achievable Pearson correlation.
      const double clip_offset = rng.normal(0.0, config.score_noise_sigma);
      for (const double b : kVmafBitrates) {
        VmafSample s;
        s.si = features.si;
        s.ti = features.ti;
        s.b = b;
        const double noise = clip_offset + rng.normal(0.0, config.score_noise_sigma * 0.4);
        s.vmaf = std::clamp(truth.qo(s.si, s.ti, util::Mbps(s.b)) + noise,
                            0.0, 100.0);
        samples.push_back(s);
      }
    }
  }
  return samples;
}

}  // namespace ps360::qoe
