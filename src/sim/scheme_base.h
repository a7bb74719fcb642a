// Shared planning machinery behind every registered controller (internal to
// sim/; the stable surface is sim/schemes.h). SchemeBase owns the pieces all
// controllers need — the paper's 4x8 tile grid, the frame-rate ladder, the
// video's size-noise table for this encoding, the Eq. 3 predicted Qo, the
// MPC horizon builder and the high-quality-region coverage — and MpcScheme
// owns the one Section IV-C MPC solve that every MPC controller (Ctile,
// Ftile, Nontile, Ptile, Ours and Pano, all in schemes.cpp) plans through;
// the Ghosh allocators (competitors.cpp) derive from SchemeBase alone.
// Deterministic: every helper is a pure function of the SchemeEnv and its
// arguments (size noise is read from the keyed table, never drawn here).
#pragma once

#include <algorithm>
#include <array>
#include <functional>
#include <vector>

#include "core/mpc.h"
#include "qoe/qo_model.h"
#include "sim/schemes.h"
#include "util/check.h"
#include "video/quality.h"

namespace ps360::sim {

// Noise-free bytes of one encoded region of lookahead segment `segment` at
// `quality` and the original frame rate; build_horizon applies the frame-rate
// size factor and the region's drawn size noise, as region_bytes does.
using RegionBytesFn = std::function<double(std::size_t segment, int quality)>;

// What one option of a lookahead segment downloads: the served region at
// the option's (quality, frame rate), plus an optional background that is
// always at the lowest quality and the original frame rate. Each term reads
// its size noise under its own role; the background's depends on the
// segment and frame index alone.
struct HorizonBytes {
  NoiseRole served_role = NoiseRole::kCtileHq;
  RegionBytesFn served;
  NoiseRole background_role = NoiseRole::kCtileBackground;
  RegionBytesFn background;  // empty: the plan has no background
};

class SchemeBase : public Scheme {
 public:
  SchemeBase(SchemeKind kind, const SchemeEnv& env)
      : Scheme(kind),
        env_(checked(env)),
        frame_ladder_(env.workload->video().fps),
        noise_(&env.workload->size_noise_table(*env.encoding)),
        frame_terms_(frame_terms(frame_ladder_, *env.encoding)) {}

  // Fraction of the actual viewport inside the plan's high-quality region.
  // Ftile (per-segment tile layouts) and Nontile (the whole frame) override.
  double coverage(const DownloadPlan& plan,
                  const geometry::Viewport& actual) const override {
    return plan.hq_region.coverage_of(actual.area());
  }

 protected:
  // Eq. 3: predicted Qo of a segment with these features at `quality` and
  // the original frame rate.
  double segment_qo(const video::ContentFeatures& feat, int quality) const {
    return env_.qo_model->qo(feat.si, feat.ti,
                             util::Mbps(env_.encoding->fov_bitrate_mbps(quality, feat)));
  }

  // The factor a planner scales each of the segment's predicted Qo values
  // by. 1 (exact, so the product keeps its bits) but for perceptual
  // controllers (Pano); delivered-QoE accounting always uses the unweighted
  // model.
  virtual double objective_weight(const video::ContentFeatures& /*feat*/,
                                  double /*predicted_sfov*/) const {
    return 1.0;
  }

  // One past the last segment of the MPC horizon [k, k+H-1] clipped to the
  // video end.
  std::size_t horizon_end(std::size_t k) const {
    return std::min(k + env_.session->mpc_horizon, env_.workload->segment_count());
  }

  // Build the MPC horizon [k, horizon_end(k)). Each term is evaluated at
  // the granularity it varies on: per segment the objective weight and the
  // background's noise-free bytes, per (segment, quality) Eq. 3 and the
  // served region's noise-free bytes, per (segment, frame index) the Eq. 4
  // frame-rate factor (with the *predicted* switching speed) and the noisy
  // background; per scheme the ladder's fps and size factors. Per option
  // only the products remain: served bytes × size factor × noise (the
  // order of EncodingModel::region_bytes), and (Qo × frame factor) × weight.
  std::vector<core::SegmentChoices> build_horizon(std::size_t k, const HorizonBytes& bytes,
                                                  bool frame_options,
                                                  double predicted_sfov,
                                                  power::DecodeProfile profile) const {
    using video::FrameRateLadder;
    using video::QualityLadder;
    const std::size_t end = horizon_end(k);
    const std::size_t first_frame = frame_options ? 1 : FrameRateLadder::kOptions;
    std::vector<core::SegmentChoices> horizon(end - k);
    for (std::size_t i = k; i < end; ++i) {
      const video::ContentFeatures& feat = env_.workload->features(i);
      const SizeNoiseRow noise = noise_->row(i);
      std::array<double, QualityLadder::kLevels> qo{};
      std::array<double, QualityLadder::kLevels> served{};
      for (int v = QualityLadder::kMinLevel; v <= QualityLadder::kMaxLevel; ++v) {
        qo[level_index(v)] = segment_qo(feat, v);
        served[level_index(v)] = bytes.served(i, v);
      }
      const double alpha =
          frame_options ? qoe::QoModel::alpha(util::DegPerSec(predicted_sfov), feat.ti)
                        : 0.0;
      // The background plays at the original frame rate, whose size factor
      // is exactly 1, so only its noise varies with the frame index.
      const double background_bytes =
          bytes.background ? bytes.background(i, QualityLadder::kMinLevel) : 0.0;
      std::array<double, FrameRateLadder::kOptions> frame_factor{};
      std::array<double, FrameRateLadder::kOptions> background{};
      for (std::size_t fi = first_frame; fi <= FrameRateLadder::kOptions; ++fi) {
        const double ratio = frame_terms_.ratio[fi - 1];
        frame_factor[fi - 1] =
            ratio >= 1.0 ? 1.0 : qoe::QoModel::frame_rate_factor(alpha, ratio);
        background[fi - 1] =
            bytes.background
                ? background_bytes *
                      noise.at(bytes.background_role, QualityLadder::kMinLevel, fi).factor
                : 0.0;
      }
      const double weight = objective_weight(feat, predicted_sfov);

      std::vector<core::QualityOption>& options = horizon[i - k].options;
      options.reserve(QualityLadder::kLevels * (FrameRateLadder::kOptions - first_frame + 1));
      for (int v = QualityLadder::kMinLevel; v <= QualityLadder::kMaxLevel; ++v) {
        for (std::size_t fi = first_frame; fi <= FrameRateLadder::kOptions; ++fi) {
          core::QualityOption option;
          option.quality = v;
          option.frame_index = fi;
          option.fps = frame_terms_.fps[fi - 1];
          option.bytes = served[level_index(v)] * frame_terms_.size_factor[fi - 1] *
                             noise.at(bytes.served_role, v, fi).factor +
                         background[fi - 1];
          option.qo = qo[level_index(v)] * frame_factor[fi - 1] * weight;
          option.profile = profile;
          options.push_back(option);
        }
      }
    }
    return horizon;
  }

  static std::size_t level_index(int quality) {
    return static_cast<std::size_t>(quality - video::QualityLadder::kMinLevel);
  }

  const SchemeEnv env_;
  const geometry::TileGrid grid_{4, 8};  // the paper's conventional tiling
  const video::FrameRateLadder frame_ladder_;
  const SizeNoiseTable* const noise_;  // env_.workload's table for env_.encoding

 private:
  // The frame-rate ladder's per-index terms, slot fi - 1 for frame index fi:
  // fps, f / fm, and the encoding's size factor (f / fm)^γ.
  struct FrameTerms {
    std::array<double, video::FrameRateLadder::kOptions> fps{}, ratio{}, size_factor{};
  };

  static FrameTerms frame_terms(const video::FrameRateLadder& ladder,
                                const video::EncodingModel& encoding) {
    FrameTerms terms;
    for (std::size_t fi = 1; fi <= video::FrameRateLadder::kOptions; ++fi) {
      terms.fps[fi - 1] = ladder.fps(fi);
      terms.ratio[fi - 1] = ladder.ratio(fi);
      terms.size_factor[fi - 1] = encoding.frame_size_factor(ladder.ratio(fi));
    }
    return terms;
  }

  const FrameTerms frame_terms_;

  static const SchemeEnv& checked(const SchemeEnv& env) {
    PS360_CHECK(env.workload != nullptr && env.encoding != nullptr &&
                env.qo_model != nullptr && env.session != nullptr);
    validated(*env.session, *env.workload);
    return env;
  }
};

// A controller that plans with the paper's Section IV-C MPC+DP solver: the
// QoE objective (Ctile, Ftile, Nontile, Pano) or the ε-constrained energy
// objective (Ptile, Ours). A subclass supplies only its geometry, as the
// bytes of its served region and background (HorizonBytes), and the plan's
// served region.
class MpcScheme : public SchemeBase {
 public:
  MpcScheme(SchemeKind kind, const SchemeEnv& env, core::MpcObjective objective)
      : SchemeBase(kind, env),
        controller_(util::Seconds(env.workload->config().segment_seconds), env.session->mpc,
                    power::device_model(env.session->device), objective) {}

 protected:
  // Build the horizon [k, horizon_end(k)), solve it, and return the plan's
  // option, frame ratio, feasibility and solve record; the caller fills in
  // the rest.
  DownloadPlan solve(std::size_t k, const HorizonBytes& bytes, bool frame_options,
                     double predicted_sfov, power::DecodeProfile profile,
                     util::BytesPerSec bandwidth, util::Seconds buffer,
                     double prev_qo) const {
    const std::vector<core::SegmentChoices> horizon =
        build_horizon(k, bytes, frame_options, predicted_sfov, profile);
    const core::MpcDecision decision =
        controller_.decide(horizon, bandwidth, buffer, prev_qo);
    DownloadPlan plan;
    plan.option = decision.choice;
    plan.frame_ratio = frame_ladder_.ratio(decision.choice.frame_index);
    plan.mpc_feasible = decision.feasible;
    plan.solve = {PlanSolver::kMpc, horizon.size(), decision.objective,
                  decision.relaxed};
    return plan;
  }

 private:
  core::MpcController controller_;
};

}  // namespace ps360::sim
