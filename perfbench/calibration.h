// Host-speed normalization of the end-to-end host times.
//
// Shared hosts change speed by up to half in phases from seconds to over a
// minute, so a whole run can fall inside one slow phase and no statistic
// taken within a run removes it. A fixed kernel, which no change to the
// program can alter, measures the host's speed just before and just after
// a call, and the call's times are rescaled to a nominal host on which the
// kernel takes kNominalKernelS.
#pragma once

#include <utility>
#include <vector>

#include "support.h"

namespace perfbench {

// Wall seconds of one run of the fixed kernel: pseudo-random reads and
// branchy floating-point updates over 128 KiB. Wall time, because a host
// that runs slower may do so by not running the thread at all, which CPU
// time would not show.
double kernel_s();

// Within the kernel's range of times (6.2-9.1 ms) on the 4-vCPU Xeon VM the
// benchmark was tuned on.
inline constexpr double kNominalKernelS = 0.008;

struct CalibratedSpan {
  Span raw;         // as measured
  Span host;        // rescaled to the nominal host
  double kernel_s;  // median kernel time around the call
};

// Times `f` between kernel runs on the calling thread, four before and four
// after. Three other ways did worse on the tuning host: a kernel timed by
// thread CPU time varied half as much as the calls did; kernels run on
// every CPU, or sampled on an idle CPU during the call, did not follow the
// calls; and a kernel that chases pointers through 8 MiB varied more than
// the calls did.
template <typename F>
CalibratedSpan measure_calibrated(F&& f) {
  constexpr int kRunsEachSide = 4;
  std::vector<double> kernel;
  for (int i = 0; i < kRunsEachSide; ++i) kernel.push_back(kernel_s());
  const Span raw = measure(f);
  for (int i = 0; i < kRunsEachSide; ++i) kernel.push_back(kernel_s());
  const double typical = median(std::move(kernel));
  const double scale = kNominalKernelS / typical;
  return {raw, {raw.wall_s * scale, raw.cpu_s * scale}, typical};
}

}  // namespace perfbench
