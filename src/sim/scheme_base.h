// Shared planning machinery behind every registered controller (internal to
// sim/; the stable surface is sim/schemes.h). SchemeBase owns the pieces all
// controllers need — the paper's 4x8 tile grid, the frame-rate ladder, the
// Eq. 3/Eq. 4 predicted-Qo evaluation, the MPC horizon builder and the
// high-quality-region coverage — and MpcScheme owns the one Section IV-C
// MPC solve that every MPC controller (Ctile, Ftile, Nontile, Ptile, Ours
// and Pano, all in schemes.cpp) plans through; the Ghosh allocators
// (competitors.cpp) derive from SchemeBase alone. Deterministic: every
// helper is a pure function of the SchemeEnv and its arguments (size noise
// is keyed, never drawn).
#pragma once

#include <algorithm>
#include <functional>
#include <vector>

#include "core/mpc.h"
#include "qoe/qo_model.h"
#include "sim/schemes.h"
#include "util/check.h"
#include "util/rng.h"
#include "video/quality.h"

namespace ps360::sim {

// Deterministic per-(segment, version, role) key for the encoding-size
// noise. Roles 0-6 are taken by the in-paper schemes; competitors use the
// `salt` overload below to fold in a tile index without colliding.
inline std::uint64_t noise_key(const VideoWorkload& workload, std::size_t segment,
                               int quality, std::size_t frame_index, int role) {
  return util::derive_seed(
      workload.config().seed,
      static_cast<std::uint64_t>(workload.video().id) * 1000003ULL + segment,
      static_cast<std::uint64_t>(quality) * 100 + frame_index * 10 +
          static_cast<std::uint64_t>(role));
}

inline std::uint64_t noise_key(const VideoWorkload& workload, std::size_t segment,
                               int quality, std::size_t frame_index, int role,
                               std::uint64_t salt) {
  return util::derive_seed(noise_key(workload, segment, quality, frame_index, role),
                           salt + 1, 0);
}

// bytes(i, v, frame_ratio) for one lookahead segment.
using BytesFn = std::function<double(std::size_t segment, int quality,
                                     std::size_t frame_index, double frame_ratio)>;

class SchemeBase : public Scheme {
 public:
  SchemeBase(SchemeKind kind, const SchemeEnv& env)
      : Scheme(kind), env_(env), frame_ladder_(env.workload->video().fps) {
    PS360_CHECK(env_.workload != nullptr && env_.encoding != nullptr &&
                env_.qo_model != nullptr && env_.device != nullptr);
    PS360_CHECK(env_.mpc_horizon >= 1);
  }

  // Fraction of the actual viewport inside the plan's high-quality region.
  // Ftile (per-segment tile layouts) and Nontile (the whole frame) override.
  double coverage(const DownloadPlan& plan,
                  const geometry::Viewport& actual) const override {
    return plan.hq_region.coverage_of(actual.area());
  }

 protected:
  // Predicted Qo of a (v, f) version of segment `i` (Eq. 3 + Eq. 4 with the
  // *predicted* switching speed). Virtual so perceptual controllers (Pano)
  // can re-weight the objective their planner optimizes; delivered-QoE
  // accounting always uses the unweighted model.
  virtual double predicted_qo(std::size_t segment, int quality, double frame_ratio,
                              double predicted_sfov) const {
    const auto& feat = env_.workload->features(segment);
    const double b = env_.encoding->fov_bitrate_mbps(quality, feat);
    const double qo = env_.qo_model->qo(feat.si, feat.ti, util::Mbps(b));
    if (frame_ratio >= 1.0) return qo;
    const double alpha =
        qoe::QoModel::alpha(util::DegPerSec(predicted_sfov), feat.ti);
    return qo * qoe::QoModel::frame_rate_factor(alpha, frame_ratio);
  }

  // One past the last segment of the MPC horizon [k, k+H-1] clipped to the
  // video end.
  std::size_t horizon_end(std::size_t k) const {
    return std::min(k + env_.mpc_horizon, env_.workload->segment_count());
  }

  // Build the MPC horizon [k, horizon_end(k)).
  std::vector<core::SegmentChoices> build_horizon(std::size_t k, const BytesFn& bytes,
                                                  bool frame_options,
                                                  double predicted_sfov,
                                                  power::DecodeProfile profile) const {
    const std::size_t end = horizon_end(k);
    std::vector<core::SegmentChoices> horizon;
    horizon.reserve(end - k);
    for (std::size_t i = k; i < end; ++i) {
      core::SegmentChoices choices;
      const std::size_t first_frame = frame_options ? 1 : video::FrameRateLadder::kOptions;
      for (int v = video::QualityLadder::kMinLevel; v <= video::QualityLadder::kMaxLevel;
           ++v) {
        for (std::size_t fi = first_frame; fi <= video::FrameRateLadder::kOptions; ++fi) {
          core::QualityOption option;
          option.quality = v;
          option.frame_index = fi;
          const double ratio = frame_ladder_.ratio(fi);
          option.fps = frame_ladder_.fps(fi);
          option.bytes = bytes(i, v, fi, ratio);
          option.qo = predicted_qo(i, v, ratio, predicted_sfov);
          option.profile = profile;
          choices.options.push_back(option);
        }
      }
      horizon.push_back(std::move(choices));
    }
    return horizon;
  }

  const SchemeEnv env_;
  const geometry::TileGrid grid_{4, 8};  // the paper's conventional tiling
  const video::FrameRateLadder frame_ladder_;
};

// A controller that plans with the paper's Section IV-C MPC+DP solver: the
// QoE objective (Ctile, Ftile, Nontile, Pano) or the ε-constrained energy
// objective (Ptile, Ours). A subclass supplies only its geometry, as the
// bytes of each (segment, quality, frame) option, and the plan's served
// region.
class MpcScheme : public SchemeBase {
 public:
  MpcScheme(SchemeKind kind, const SchemeEnv& env, core::MpcObjective objective)
      : SchemeBase(kind, env), controller_(env.mpc, *env.device, objective) {}

  void attach_observer(obs::Observer* observer, std::uint32_t session) override {
    controller_.set_observer(observer, session);
  }

 protected:
  // Build the horizon [k, horizon_end(k)), solve it, and return the plan's
  // option, frame ratio and feasibility; the caller fills in the rest.
  DownloadPlan solve(std::size_t k, const BytesFn& bytes, bool frame_options,
                     double predicted_sfov, power::DecodeProfile profile,
                     util::BytesPerSec bandwidth, util::Seconds buffer,
                     double prev_qo) const {
    const core::MpcDecision decision = controller_.decide(
        build_horizon(k, bytes, frame_options, predicted_sfov, profile), bandwidth,
        buffer, prev_qo);
    DownloadPlan plan;
    plan.option = decision.choice;
    plan.frame_ratio = frame_ladder_.ratio(decision.choice.frame_index);
    plan.mpc_feasible = decision.feasible;
    return plan;
  }

 private:
  core::MpcController controller_;
};

}  // namespace ps360::sim
