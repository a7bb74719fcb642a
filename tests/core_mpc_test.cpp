// Tests for the MPC controller (Section IV-C): DP-vs-exhaustive equivalence,
// the ε-constraint (8c), buffer feasibility (Eq. 6-7), objective behaviour in
// both modes, and the reference-option rule.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "core/buffer.h"
#include "core/mpc.h"
#include "util/rng.h"
#include "video/quality.h"

namespace ps360::core {
namespace {

using power::DecodeProfile;
using power::Device;

// The segment length L every controller here plans with.
constexpr util::Seconds kSegment{1.0};

MpcConfig default_config() {
  MpcConfig config;
  config.buffer_threshold_s = 3.0;
  config.buffer_quantum_s = 0.5;
  config.epsilon = 0.05;
  return config;
}

// A ladder of options with bytes and qo both increasing in quality.
SegmentChoices make_choices(double bytes_scale, DecodeProfile profile,
                            bool frame_options = false) {
  SegmentChoices choices;
  for (int v = 1; v <= 5; ++v) {
    const std::size_t first = frame_options ? 1 : 4;
    for (std::size_t fi = first; fi <= 4; ++fi) {
      QualityOption option;
      option.quality = v;
      option.frame_index = fi;
      const double ratio = 0.7 + 0.1 * static_cast<double>(fi - 1);
      option.fps = 30.0 * ratio;
      option.bytes = bytes_scale * video::QualityLadder::rate_factor(v) *
                     std::pow(ratio, 0.55);
      option.qo = 100.0 / (1.0 + std::exp(-(static_cast<double>(v) - 2.5))) *
                  (0.85 + 0.15 * ratio);
      option.profile = profile;
      choices.options.push_back(option);
    }
  }
  return choices;
}

// ------------------------------------------------------------- BufferModel

TEST(BufferModelTest, Eq6StepWithoutWait) {
  const BufferModel model(util::Seconds(1.0), util::Seconds(3.0), util::Seconds(0.5));
  // Below threshold: no wait. 2 s buffered, 0.5 s download -> 2.5 s after
  // the refill.
  const BufferStep step = model.advance(util::Seconds(2.0), util::Seconds(0.5));
  EXPECT_DOUBLE_EQ(step.wait_s, 0.0);
  EXPECT_DOUBLE_EQ(step.stall_s, 0.0);
  EXPECT_DOUBLE_EQ(step.next_buffer_s, 2.5);
}

TEST(BufferModelTest, Eq6WaitAboveThreshold) {
  const BufferModel model(util::Seconds(1.0), util::Seconds(3.0), util::Seconds(0.5));
  const BufferStep step = model.advance(util::Seconds(3.8), util::Seconds(0.5));
  EXPECT_DOUBLE_EQ(step.wait_s, 0.8);
  EXPECT_DOUBLE_EQ(step.next_buffer_s, 3.5);
}

TEST(BufferModelTest, Eq6StallWhenDownloadOutlastsBuffer) {
  const BufferModel model(util::Seconds(1.0), util::Seconds(3.0), util::Seconds(0.5));
  const BufferStep step = model.advance(util::Seconds(1.0), util::Seconds(2.4));
  EXPECT_DOUBLE_EQ(step.stall_s, 1.4);
  EXPECT_DOUBLE_EQ(step.next_buffer_s, 1.0);  // drained, then +L
}

TEST(BufferModelTest, QuantizationGridMatchesPaper) {
  // β = 3 s, L = 1 s, 500 ms quantum: levels 0, 0.5, ..., 4.0 -> 9 states.
  const BufferModel model(util::Seconds(1.0), util::Seconds(3.0), util::Seconds(0.5));
  EXPECT_EQ(model.bucket_count(), 9u);
  EXPECT_DOUBLE_EQ(model.quantize(util::Seconds(1.26)), 1.5);
  EXPECT_DOUBLE_EQ(model.quantize(util::Seconds(1.24)), 1.0);
  EXPECT_DOUBLE_EQ(model.quantize(util::Seconds(99.0)), 4.0);  // capped at β + L
  EXPECT_EQ(model.bucket_of(util::Seconds(2.0)), 4);
  const BufferStep q = model.advance_quantized(util::Seconds(2.0), util::Seconds(0.3));
  EXPECT_DOUBLE_EQ(q.next_buffer_s, 2.5);  // 2.7 rounds to 2.5
}

TEST(BufferModelTest, Validation) {
  EXPECT_THROW(BufferModel(util::Seconds(0.0), util::Seconds(3.0), util::Seconds(0.5)), std::invalid_argument);
  EXPECT_THROW(BufferModel(util::Seconds(1.0), util::Seconds(3.0), util::Seconds(0.0)), std::invalid_argument);
  EXPECT_THROW(BufferModel(util::Seconds(1.0), util::Seconds(3.0), util::Seconds(4.0)), std::invalid_argument);
  const BufferModel model(util::Seconds(1.0), util::Seconds(3.0), util::Seconds(0.5));
  EXPECT_THROW(model.advance(util::Seconds(-1.0), util::Seconds(0.5)), std::invalid_argument);
}

// ---------------------------------------------------------- ReferenceOption

TEST(ReferenceOptionTest, PicksHighestSustainableQuality) {
  const auto choices = make_choices(1e6, DecodeProfile::kPtile);
  // Bandwidth 2e5 B/s, buffer threshold 3 s: options up to 6e5 bytes fit.
  const auto& ref = reference_option(choices, util::BytesPerSec(2e5), util::Seconds(3.0));
  // quality 4 costs 0.40e6 <= 0.6e6, quality 5 costs 1e6 > 0.6e6.
  EXPECT_EQ(ref.quality, 4);
  EXPECT_EQ(ref.frame_index, 4u);
}

TEST(ReferenceOptionTest, FallsBackToCheapestWhenNothingFits) {
  const auto choices = make_choices(1e9, DecodeProfile::kPtile);
  const auto& ref = reference_option(choices, util::BytesPerSec(1e3), util::Seconds(3.0));
  EXPECT_EQ(ref.quality, 1);
}

TEST(ReferenceOptionTest, PrefersHigherFrameRateAtSameQuality) {
  const auto choices = make_choices(1e5, DecodeProfile::kPtile, true);
  const auto& ref = reference_option(choices, util::BytesPerSec(1e6), util::Seconds(3.0));
  EXPECT_EQ(ref.quality, 5);
  EXPECT_EQ(ref.frame_index, 4u);
}

// --------------------------------------------------------------- Energy

TEST(MpcEnergyTest, OptionEnergyMatchesEq1) {
  const MpcController controller(kSegment, default_config(), power::device_model(Device::kPixel3),
                                 MpcObjective::kMinEnergyQoEConstrained);
  QualityOption option;
  option.bytes = 1e6;
  option.fps = 30.0;
  option.profile = DecodeProfile::kPtile;
  const auto energy = controller.option_energy(option, util::BytesPerSec(2e6));
  EXPECT_NEAR(energy.transmit_mj, 1429.08 * 0.5, 1e-6);
  EXPECT_NEAR(energy.decode_mj, 140.73 + 5.96 * 30.0, 1e-6);
}

// ------------------------------------------------- DP vs exhaustive search

class DpEquivalence : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(DpEquivalence, DpMatchesExhaustive) {
  const auto [seed, energy_mode] = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(seed));
  const MpcObjective objective = energy_mode
                                     ? MpcObjective::kMinEnergyQoEConstrained
                                     : MpcObjective::kMaxQoE;
  const MpcController controller(kSegment, default_config(),
                                 power::device_model(Device::kPixel3), objective);

  // Random small horizons keep the exhaustive search tractable while
  // exercising varied bytes/qo structure.
  const std::size_t horizon_length = 2 + rng.uniform_index(2);  // 2..3
  std::vector<SegmentChoices> horizon;
  for (std::size_t i = 0; i < horizon_length; ++i) {
    SegmentChoices choices;
    const std::size_t n_options = 3 + rng.uniform_index(3);
    for (std::size_t o = 0; o < n_options; ++o) {
      QualityOption option;
      option.quality = static_cast<int>(o % 5) + 1;
      option.frame_index = 1 + o % 4;
      option.fps = 21.0 + 3.0 * static_cast<double>(o % 4);
      option.bytes = rng.uniform(5e4, 2e6);
      option.qo = rng.uniform(10.0, 95.0);
      option.profile = DecodeProfile::kPtile;
      choices.options.push_back(option);
    }
    horizon.push_back(std::move(choices));
  }
  const double bandwidth = rng.uniform(1e5, 1.5e6);
  const double buffer = rng.uniform(0.0, 3.5);
  const double prev_qo = rng.uniform(0.0, 100.0);

  const MpcDecision dp = controller.decide(horizon, util::BytesPerSec(bandwidth), util::Seconds(buffer), prev_qo);
  const MpcDecision brute =
      controller.decide_exhaustive(horizon, util::BytesPerSec(bandwidth), util::Seconds(buffer), prev_qo);

  EXPECT_NEAR(dp.objective, brute.objective, 1e-6)
      << "seed " << seed << " energy_mode " << energy_mode;
  EXPECT_EQ(dp.feasible, brute.feasible);
}

INSTANTIATE_TEST_SUITE_P(RandomHorizons, DpEquivalence,
                         ::testing::Combine(::testing::Range(0, 25),
                                            ::testing::Bool()));

// --------------------------------------------------------- QoE-max mode

TEST(MpcQoeTest, PicksHighestQualityWhenBandwidthIsAmple) {
  const MpcController controller(kSegment, default_config(), power::device_model(Device::kPixel3),
                                 MpcObjective::kMaxQoE);
  std::vector<SegmentChoices> horizon(3, make_choices(1e6, DecodeProfile::kCtile));
  const MpcDecision decision = controller.decide(horizon, util::BytesPerSec(1e7), util::Seconds(3.0), -1.0);
  EXPECT_EQ(decision.choice.quality, 5);
  EXPECT_TRUE(decision.feasible);
}

TEST(MpcQoeTest, ThrottlesWhenBandwidthIsScarce) {
  const MpcController controller(kSegment, default_config(), power::device_model(Device::kPixel3),
                                 MpcObjective::kMaxQoE);
  std::vector<SegmentChoices> horizon(3, make_choices(1e6, DecodeProfile::kCtile));
  // 1e5 B/s: quality 5 (1e6 bytes) would take 10 s per 1 s segment.
  const MpcDecision decision = controller.decide(horizon, util::BytesPerSec(1e5), util::Seconds(3.0), -1.0);
  EXPECT_LT(decision.choice.quality, 5);
}

TEST(MpcQoeTest, VariationPenaltyDiscouragesOscillation) {
  MpcConfig config = default_config();
  config.weights.variation = 5.0;  // make oscillation very costly
  const MpcController controller(kSegment, config, power::device_model(Device::kPixel3),
                                 MpcObjective::kMaxQoE);
  std::vector<SegmentChoices> horizon(3, make_choices(1e6, DecodeProfile::kCtile));
  // Previous segment was low quality: with a huge variation weight the
  // controller must not jump straight to the top.
  const double prev_qo = horizon[0].options.front().qo;
  const MpcDecision jumpy = controller.decide(horizon, util::BytesPerSec(1e7), util::Seconds(3.0), prev_qo);
  MpcConfig no_penalty = default_config();
  no_penalty.weights.variation = 0.0;
  const MpcController free_controller(kSegment, no_penalty, power::device_model(Device::kPixel3),
                                      MpcObjective::kMaxQoE);
  const MpcDecision free_jump = free_controller.decide(horizon, util::BytesPerSec(1e7), util::Seconds(3.0), prev_qo);
  EXPECT_LE(jumpy.choice.quality, free_jump.choice.quality);
}

// ------------------------------------------------------ Energy-min mode

TEST(MpcEnergyModeTest, EpsilonConstraintKeepsQoNearReference) {
  const MpcConfig config = default_config();
  const MpcController controller(kSegment, config, power::device_model(Device::kPixel3),
                                 MpcObjective::kMinEnergyQoEConstrained);
  std::vector<SegmentChoices> horizon(3, make_choices(1e6, DecodeProfile::kPtile, true));
  const double bandwidth = 1e6;
  const MpcDecision decision = controller.decide(horizon, util::BytesPerSec(bandwidth), util::Seconds(3.0), -1.0);
  ASSERT_TRUE(decision.feasible);
  const double q_ref =
      reference_option(horizon[0], util::BytesPerSec(bandwidth), util::Seconds(config.buffer_threshold_s)).qo;
  EXPECT_GE(decision.choice.qo, (1.0 - config.epsilon) * q_ref - 1e-9);
}

TEST(MpcEnergyModeTest, MinimisesEnergyAmongFeasible) {
  // Among options satisfying the constraint, the cheapest-energy one wins.
  const MpcConfig config = default_config();
  const MpcController controller(kSegment, config, power::device_model(Device::kPixel3),
                                 MpcObjective::kMinEnergyQoEConstrained);
  SegmentChoices choices;
  // Two options with identical qo; the second costs fewer bytes and fps.
  QualityOption expensive{5, 4, 30.0, 2e6, 90.0, DecodeProfile::kPtile};
  QualityOption cheap{5, 1, 21.0, 1.5e6, 90.0, DecodeProfile::kPtile};
  choices.options = {expensive, cheap};
  const MpcDecision decision = controller.decide({choices}, util::BytesPerSec(1e6), util::Seconds(3.0), -1.0);
  EXPECT_EQ(decision.choice.frame_index, 1u);
}

TEST(MpcEnergyModeTest, FrameRateDropUsedWhenQoeAllows) {
  // If reduced-frame options barely dent qo (fast view switching), the
  // energy-min controller takes them.
  const MpcConfig config = default_config();
  const MpcController controller(kSegment, config, power::device_model(Device::kPixel3),
                                 MpcObjective::kMinEnergyQoEConstrained);
  SegmentChoices choices;
  for (std::size_t fi = 1; fi <= 4; ++fi) {
    QualityOption option;
    option.quality = 5;
    option.frame_index = fi;
    option.fps = 30.0 * (0.7 + 0.1 * static_cast<double>(fi - 1));
    option.bytes = 1e6 * std::pow(option.fps / 30.0, 0.55);
    option.qo = 90.0 * (0.99 + 0.0025 * static_cast<double>(fi));  // ~flat
    option.profile = DecodeProfile::kPtile;
    choices.options.push_back(option);
  }
  const MpcDecision decision = controller.decide({choices, choices}, util::BytesPerSec(1e6), util::Seconds(3.0), -1.0);
  EXPECT_EQ(decision.choice.frame_index, 1u);  // 30% reduction chosen
}

TEST(MpcEnergyModeTest, InfeasibleBandwidthFallsBackGracefully) {
  const MpcController controller(kSegment, default_config(), power::device_model(Device::kPixel3),
                                 MpcObjective::kMinEnergyQoEConstrained);
  std::vector<SegmentChoices> horizon(3, make_choices(1e8, DecodeProfile::kPtile));
  // Hopeless bandwidth: every option stalls. Must still return a choice.
  const MpcDecision decision = controller.decide(horizon, util::BytesPerSec(1e3), util::Seconds(0.0), -1.0);
  EXPECT_FALSE(decision.feasible);
  EXPECT_GE(decision.choice.quality, 1);
  // And the fallback should pick the least-stalling (cheapest) option.
  EXPECT_EQ(decision.choice.quality, 1);
}

TEST(MpcEnergyModeTest, EnergyNeverExceedsQoeMaxEnergy) {
  // Sanity: on the same horizon, the energy-min controller spends no more
  // energy on its head choice than the QoE-max controller.
  const MpcConfig config = default_config();
  const MpcController energy_controller(kSegment, config, power::device_model(Device::kPixel3),
                                        MpcObjective::kMinEnergyQoEConstrained);
  const MpcController qoe_controller(kSegment, config, power::device_model(Device::kPixel3),
                                     MpcObjective::kMaxQoE);
  std::vector<SegmentChoices> horizon(4, make_choices(1e6, DecodeProfile::kPtile, true));
  const double bandwidth = 8e5;
  const auto e = energy_controller.decide(horizon, util::BytesPerSec(bandwidth), util::Seconds(3.0), -1.0);
  const auto q = qoe_controller.decide(horizon, util::BytesPerSec(bandwidth), util::Seconds(3.0), -1.0);
  EXPECT_LE(energy_controller.option_energy(e.choice, util::BytesPerSec(bandwidth)).total_mj(),
            energy_controller.option_energy(q.choice, util::BytesPerSec(bandwidth)).total_mj() + 1e-9);
}

TEST(MpcScalingTest, LongHorizonsStayFastAndConsistent) {
  // O(H V F) scaling: a 50-segment horizon must solve without issue, and
  // growing the horizon can only improve (not worsen) the relaxed objective
  // prefix-wise semantics are hard to compare, so we just assert it solves
  // and the head choice stays a valid option.
  const MpcController controller(kSegment, default_config(), power::device_model(Device::kPixel3),
                                 MpcObjective::kMinEnergyQoEConstrained);
  std::vector<SegmentChoices> horizon(50, make_choices(1e6, DecodeProfile::kPtile, true));
  const MpcDecision decision = controller.decide(horizon, util::BytesPerSec(8e5), util::Seconds(3.0), -1.0);
  EXPECT_GE(decision.choice.quality, 1);
  EXPECT_LE(decision.choice.quality, 5);
  EXPECT_TRUE(decision.feasible);
}

TEST(MpcScalingTest, SingleOptionHorizonIsForced) {
  const MpcController controller(kSegment, default_config(), power::device_model(Device::kPixel3),
                                 MpcObjective::kMaxQoE);
  SegmentChoices only;
  QualityOption option;
  option.quality = 3;
  option.frame_index = 4;
  option.fps = 30.0;
  option.bytes = 5e5;
  option.qo = 60.0;
  option.profile = DecodeProfile::kCtile;
  only.options = {option};
  const MpcDecision decision = controller.decide({only, only}, util::BytesPerSec(1e6), util::Seconds(3.0), -1.0);
  EXPECT_EQ(decision.choice.quality, 3);
}

TEST(MpcEnergyModeTest, ZeroEpsilonPinsTheReference) {
  MpcConfig config = default_config();
  config.epsilon = 0.0;
  const MpcController controller(kSegment, config, power::device_model(Device::kPixel3),
                                 MpcObjective::kMinEnergyQoEConstrained);
  std::vector<SegmentChoices> horizon(3, make_choices(1e6, DecodeProfile::kPtile, true));
  const double bandwidth = 1e6;
  const MpcDecision decision = controller.decide(horizon, util::BytesPerSec(bandwidth), util::Seconds(3.0), -1.0);
  const double q_ref =
      reference_option(horizon[0], util::BytesPerSec(bandwidth), kSegment).qo;
  EXPECT_GE(decision.choice.qo, q_ref - 1e-9);
}

// ------------------------------------------------------------- Validation

TEST(MpcValidationTest, RejectsBadInputs) {
  const MpcController controller(kSegment, default_config(), power::device_model(Device::kPixel3),
                                 MpcObjective::kMaxQoE);
  EXPECT_THROW(controller.decide({}, util::BytesPerSec(1e6), util::Seconds(3.0), -1.0), std::invalid_argument);
  std::vector<SegmentChoices> horizon(1);
  EXPECT_THROW(controller.decide(horizon, util::BytesPerSec(1e6), util::Seconds(3.0), -1.0), std::invalid_argument);
  horizon[0] = make_choices(1e6, DecodeProfile::kPtile);
  EXPECT_THROW(controller.decide(horizon, util::BytesPerSec(0.0), util::Seconds(3.0), -1.0), std::invalid_argument);
  EXPECT_THROW(controller.decide(horizon, util::BytesPerSec(1e6), util::Seconds(-1.0), -1.0), std::invalid_argument);

  // A malformed option is rejected by both objectives, naming its segment
  // and option, before any of it is read: NaN, +inf and negative sizes and
  // non-finite Qo values would otherwise be absorbed by the DP's comparisons
  // (or, in energy mode, fail inside Eq. 1 without saying where).
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const MpcObjective objective :
       {MpcObjective::kMaxQoE, MpcObjective::kMinEnergyQoEConstrained}) {
    const MpcController solver(kSegment, default_config(), power::device_model(Device::kPixel3),
                               objective);
    const auto expect_rejected = [&](bool bad_bytes, double value) {
      std::vector<SegmentChoices> bad(3, make_choices(1e6, DecodeProfile::kPtile, true));
      QualityOption& option = bad[1].options[2];
      (bad_bytes ? option.bytes : option.qo) = value;
      const std::string what = std::string(bad_bytes ? "bytes " : "qo ") +
                               std::to_string(value) + " objective " +
                               std::to_string(static_cast<int>(objective));
      try {
        (void)solver.decide(bad, util::BytesPerSec(4e5), util::Seconds(2.0), 50.0);
        ADD_FAILURE() << "accepted " << what;
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("segment 1 option 2"), std::string::npos)
            << what << ": " << e.what();
      }
    };
    for (const double bytes : {kNaN, kInf, -1.0}) expect_rejected(true, bytes);
    for (const double qo : {kNaN, kInf, -kInf}) expect_rejected(false, qo);
  }

  // A positive bandwidth so small that every download time (or its stall
  // cost) overflows to +inf leaves no plan of finite cost under either pass:
  // rejected naming the bandwidth, not an internal assert.
  struct TinyBandwidth {
    MpcObjective objective;
    double bytes_per_s;
    const char* printed;
  };
  for (const TinyBandwidth& tiny :
       {TinyBandwidth{MpcObjective::kMinEnergyQoEConstrained, 1e-300, "1e-300"},
        TinyBandwidth{MpcObjective::kMinEnergyQoEConstrained, 1e-310, "1e-310"},
        TinyBandwidth{MpcObjective::kMaxQoE, 1e-310, "1e-310"}}) {
    const MpcController solver(kSegment, default_config(), power::device_model(Device::kPixel3),
                               tiny.objective);
    for (const std::size_t h : {std::size_t{1}, std::size_t{3}}) {
      const std::vector<SegmentChoices> tiny_horizon(h, make_choices(1e6, DecodeProfile::kPtile));
      const std::string what = std::string(tiny.printed) + " B/s, objective " +
                               std::to_string(static_cast<int>(tiny.objective)) +
                               ", H " + std::to_string(h);
      try {
        (void)solver.decide(tiny_horizon, util::BytesPerSec(tiny.bytes_per_s),
                            util::Seconds(2.0), -1.0);
        ADD_FAILURE() << "accepted " << what;
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(std::string("bandwidth ") + tiny.printed),
                  std::string::npos)
            << what << ": " << e.what();
      }
    }
  }
}

// Constructs a controller and expects the config or the segment length to
// be rejected with a message naming `field`.
void expect_config_rejected(util::Seconds segment, const MpcConfig& config,
                            const std::string& field) {
  try {
    const MpcController controller(segment, config, power::device_model(Device::kPixel3),
                                   MpcObjective::kMaxQoE);
    ADD_FAILURE() << "accepted a bad " << field;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
        << field << ": " << e.what();
  }
}

TEST(MpcValidationTest, ConfigValidation) {
  MpcConfig config = default_config();
  config.buffer_quantum_s = 0.0;
  EXPECT_THROW(MpcController(kSegment, config, power::device_model(Device::kPixel3),
                             MpcObjective::kMaxQoE),
               std::invalid_argument);
  config = default_config();
  config.epsilon = 1.0;
  EXPECT_THROW(MpcController(kSegment, config, power::device_model(Device::kPixel3),
                             MpcObjective::kMaxQoE),
               std::invalid_argument);

  // Each grid field must be finite: an infinite segment length or threshold
  // would otherwise size decide()'s frontier from an infinite grid.
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double bad : {kInf, kNaN}) {
    expect_config_rejected(util::Seconds(bad), default_config(), "segment length");
    config = default_config();
    config.buffer_threshold_s = bad;
    expect_config_rejected(kSegment, config, "buffer_threshold_s");
    config = default_config();
    config.buffer_quantum_s = bad;
    expect_config_rejected(kSegment, config, "buffer_quantum_s");
  }
  // (3 + 1) / 5e-4 = 8000 steps: 8001 states, past kMaxBufferStates.
  config = default_config();
  config.buffer_quantum_s = 5e-4;
  expect_config_rejected(kSegment, config, "buffer_quantum_s");
}

}  // namespace
}  // namespace ps360::core
