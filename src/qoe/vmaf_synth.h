// Synthetic VMAF assessment data.
//
// The paper trains Eq. 3 on VMAF scores of segments encoded at varying
// bitrates (ten segments per video across 18 videos, Section III-C). We
// cannot run VMAF on pixels we do not have, so the synthesizer emits
// (SI, TI, b, vmaf) tuples whose ground truth is the published Table II
// logistic plus score-level noise representing the content idiosyncrasies a
// four-parameter model cannot capture. The fitting pipeline
// (qoe::fit_qo_params) then has to *recover* Table II from these samples,
// reproducing the paper's nlinfit step including its ~0.979 Pearson
// correlation.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "qoe/qo_model.h"
#include "trace/video_catalog.h"

namespace ps360::qoe {

struct VmafSample {
  double si = 0.0;
  double ti = 0.0;
  double b = 0.0;      // bitrate in the model's normalized units
  double vmaf = 0.0;   // 0..100
};

// Segments assessed per video, as in the paper.
inline constexpr std::size_t kVmafSegmentsPerVideo = 10;
// Bitrate sweep per segment, normalized units (spans the quality ladder).
inline constexpr std::array<double, 7> kVmafBitrates = {0.3, 0.8, 1.5, 2.5, 4.0, 6.0, 9.0};

struct VmafSynthConfig {
  std::uint64_t seed = 42;
  QoParams truth;               // ground-truth coefficients (Table II)
  double score_noise_sigma = 6.0;  // per-sample VMAF deviation from the logistic
};

// Assessment dataset over the given videos: kVmafSegmentsPerVideo uniformly
// chosen segments of each, at every kVmafBitrates rate.
std::vector<VmafSample> synthesize_vmaf_dataset(const VmafSynthConfig& config,
                                                const std::vector<trace::VideoInfo>& videos);

}  // namespace ps360::qoe
