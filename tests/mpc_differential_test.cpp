// Differential validation of the flat-arena DP solver (core/mpc.cpp):
// decide() must agree with the exhaustive reference decide_exhaustive() on
// randomized horizons across both objectives, config grids (including buffer
// quanta that do not divide the buffer cap), bandwidth regimes and
// near-empty buffers — for fresh controllers and for one controller whose
// scratch arena is reused across hundreds of calls — plus the scratch
// arena's allocation contract, observed through the MpcController scratch
// hooks: a first decide() counts each vector that grows, steady state stays
// at zero, and a deeper horizon grows exactly the h-scaled vectors.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "core/buffer.h"
#include "core/mpc.h"
#include "obs/metrics.h"
#include "obs/observer.h"
#include "util/rng.h"

namespace ps360::core {
namespace {

using power::DecodeProfile;
using power::Device;

std::vector<SegmentChoices> random_horizon(util::Rng& rng, std::size_t h,
                                           std::size_t max_options) {
  std::vector<SegmentChoices> horizon(h);
  for (auto& seg : horizon) {
    const std::size_t n = 1 + rng.uniform_index(max_options);
    for (std::size_t o = 0; o < n; ++o) {
      QualityOption option;
      option.quality = static_cast<int>(o % 5) + 1;
      option.frame_index = 1 + o % 4;
      option.fps = 21.0 + 3.0 * static_cast<double>(o % 4);
      option.bytes = rng.uniform(5e4, 3e6);
      option.qo = rng.uniform(10.0, 95.0);
      option.profile = DecodeProfile::kPtile;
      seg.options.push_back(option);
    }
  }
  return horizon;
}

// decide() against the exhaustive reference on one decision state.
void expect_matches_exhaustive(const MpcController& controller,
                               const std::vector<SegmentChoices>& horizon,
                               double bandwidth, double buffer, double prev_qo,
                               const std::string& label) {
  const MpcDecision dp = controller.decide(horizon, util::BytesPerSec(bandwidth),
                                           util::Seconds(buffer), prev_qo);
  const MpcDecision brute = controller.decide_exhaustive(
      horizon, util::BytesPerSec(bandwidth), util::Seconds(buffer), prev_qo);
  const double tol = 1e-9 * std::max(1.0, std::fabs(brute.objective));
  EXPECT_NEAR(dp.objective, brute.objective, tol) << label;
  EXPECT_EQ(dp.feasible, brute.feasible) << label;
  EXPECT_EQ(dp.choice.quality, brute.choice.quality) << label;
  EXPECT_EQ(dp.choice.frame_index, brute.choice.frame_index) << label;
  EXPECT_DOUBLE_EQ(dp.choice.bytes, brute.choice.bytes) << label;
}

// ~200 seeded horizons per objective. Exhaustive search is exponential, so
// horizons stay short (H <= 4) while everything else varies: option counts,
// bandwidths spanning stall-free to hopeless, buffers from empty to full,
// quanta that do and do not divide the buffer cap, and epsilon from pinned
// to loose.
class SolverDifferential : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(SolverDifferential, DecideMatchesExhaustive) {
  const auto [seed, energy_mode] = GetParam();
  util::Rng rng(util::derive_seed(0xD1FFu, static_cast<std::uint64_t>(seed),
                                  energy_mode ? 1 : 0));
  const MpcObjective objective = energy_mode
                                     ? MpcObjective::kMinEnergyQoEConstrained
                                     : MpcObjective::kMaxQoE;

  MpcConfig config;
  config.segment_seconds = 1.0;
  config.buffer_threshold_s = 3.0;
  // Exercise grid-aligned and non-aligned quanta (cap = 4 s): 0.6 and 0.75
  // make the cap round up to an extra bucket.
  const double quanta[] = {0.5, 0.6, 0.75};
  config.buffer_quantum_s = quanta[rng.uniform_index(3)];
  const double epsilons[] = {0.0, 0.05, 0.2};
  config.epsilon = epsilons[rng.uniform_index(3)];

  const MpcController controller(config, power::device_model(Device::kPixel3),
                                 objective);

  const std::size_t h = 1 + rng.uniform_index(4);            // 1..4
  const auto horizon = random_horizon(rng, h, 6);            // 1..6 options
  const double bandwidth = rng.uniform(5e4, 2e6);
  // Bias towards near-empty buffers, where stalls and the strict/relaxed
  // fallback are actually exercised.
  const double buffer =
      rng.bernoulli(0.5) ? rng.uniform(0.0, 0.3) : rng.uniform(0.0, 4.0);
  const double prev_qo = rng.bernoulli(0.25) ? -1.0 : rng.uniform(0.0, 100.0);

  expect_matches_exhaustive(controller, horizon, bandwidth, buffer, prev_qo,
                            "seed " + std::to_string(seed) + " energy_mode " +
                                std::to_string(energy_mode));
}

INSTANTIATE_TEST_SUITE_P(RandomHorizons, SolverDifferential,
                         ::testing::Combine(::testing::Range(0, 200),
                                            ::testing::Bool()));

// One controller per objective, reused for 240 seeded calls: the scratch
// arena keeps its transition tables, frontier and per-option rows from call
// to call, so a value left over from an earlier call would surface here as
// a mismatch. Horizon length, ladder width, bandwidth and buffer all change
// between calls; one call in four re-solves the previous horizon under a
// new bandwidth and buffer, and one in five has a hopeless bandwidth (every
// download outlasts the buffer), which forces the energy objective's strict
// pass to fail and the relaxed pass to run.
class ReusedControllerDifferential : public ::testing::TestWithParam<bool> {};

TEST_P(ReusedControllerDifferential, EverySeededCallMatchesExhaustive) {
  const bool energy_mode = GetParam();
  util::Rng rng(util::derive_seed(0x2E05Eu, 0, energy_mode ? 1 : 0));
  MpcController controller(MpcConfig{}, power::device_model(Device::kPixel3),
                           energy_mode ? MpcObjective::kMinEnergyQoEConstrained
                                       : MpcObjective::kMaxQoE);
  obs::MetricsRegistry metrics;
  obs::Observer observer{&metrics, nullptr};
  controller.set_observer(&observer, /*session=*/0);

  constexpr int kCalls = 240;
  std::vector<SegmentChoices> horizon;
  for (int call = 0; call < kCalls; ++call) {
    if (horizon.empty() || !rng.bernoulli(0.25)) {
      horizon = random_horizon(rng, 1 + rng.uniform_index(4),
                               1 + rng.uniform_index(6));
    }
    const double bandwidth =
        rng.bernoulli(0.2) ? rng.uniform(1e3, 1e4) : rng.uniform(5e4, 2e6);
    const double buffer =
        rng.bernoulli(0.5) ? rng.uniform(0.0, 0.3) : rng.uniform(0.0, 4.0);
    const double prev_qo = rng.bernoulli(0.25) ? -1.0 : rng.uniform(0.0, 100.0);
    expect_matches_exhaustive(controller, horizon, bandwidth, buffer, prev_qo,
                              "call " + std::to_string(call) + " energy_mode " +
                                  std::to_string(energy_mode));
  }
  EXPECT_EQ(metrics.value("mpc.decides"), static_cast<double>(kCalls));
  if (energy_mode) {
    EXPECT_GT(metrics.value("mpc.relaxed_fallbacks"), 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(BothObjectives, ReusedControllerDifferential,
                         ::testing::Bool());

// ------------------------------------------------- Scratch arena contract

std::vector<SegmentChoices> fixed_horizon(std::size_t h, std::size_t options_n,
                                          std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<SegmentChoices> horizon(h);
  for (auto& seg : horizon) {
    for (std::size_t o = 0; o < options_n; ++o) {
      QualityOption option;
      option.quality = static_cast<int>(o % 5) + 1;
      option.frame_index = 1 + o % 4;
      option.fps = 21.0 + 3.0 * static_cast<double>(o % 4);
      option.bytes = rng.uniform(5e4, 2e6);
      option.qo = rng.uniform(10.0, 95.0);
      option.profile = DecodeProfile::kPtile;
      seg.options.push_back(option);
    }
  }
  return horizon;
}

class ScratchReuse : public ::testing::TestWithParam<bool> {};

TEST_P(ScratchReuse, SteadyStateDecideDoesNotReallocate) {
  const bool energy_mode = GetParam();
  MpcConfig config;
  const MpcController controller(
      config, power::device_model(Device::kPixel3),
      energy_mode ? MpcObjective::kMinEnergyQoEConstrained
                  : MpcObjective::kMaxQoE);

  // Warm up with the largest shape this test will ever solve.
  const auto big = fixed_horizon(20, 20, 7);
  (void)controller.decide(big, util::BytesPerSec(5e5), util::Seconds(2.5), 50.0);

  const std::size_t capacity = controller.scratch_capacity_bytes();
  const std::uint64_t grows = controller.scratch_grow_events();
  EXPECT_GT(capacity, 0u);
  EXPECT_GT(grows, 0u);  // the warm-up itself had to allocate

  // Steady state: repeated solves — including smaller shapes, low-bandwidth
  // horizons that trigger the relaxed fallback, and near-empty buffers —
  // must never grow the arena again.
  const auto small = fixed_horizon(3, 5, 11);
  for (int rep = 0; rep < 100; ++rep) {
    (void)controller.decide(big, util::BytesPerSec(5e5), util::Seconds(2.5), 50.0);
    (void)controller.decide(small, util::BytesPerSec(2e5), util::Seconds(0.0), -1.0);
    (void)controller.decide(big, util::BytesPerSec(1e3), util::Seconds(0.0), 50.0);  // hopeless: fallback path
  }
  EXPECT_EQ(controller.scratch_capacity_bytes(), capacity);
  EXPECT_EQ(controller.scratch_grow_events(), grows);
}

INSTANTIATE_TEST_SUITE_P(BothObjectives, ScratchReuse, ::testing::Bool());

TEST(ScratchGrowAccounting, FirstDecideCountsEveryVectorThatGrows) {
  // Each vector that grows within one decide() is its own growth event. The
  // arena has 14 vectors on the energy path (8 precompute/transition + 6
  // frontier) and 13 on the kMaxQoE path (no cand_cost), all growing from
  // empty on the first call — so the first-call count is pinned exactly,
  // not just "positive". A lumped per-call counter would report 1 here.
  const MpcConfig config;
  const power::DeviceModel& device = power::device_model(Device::kPixel3);
  const auto horizon = fixed_horizon(5, 8, 3);

  const MpcController energy(config, device,
                             MpcObjective::kMinEnergyQoEConstrained);
  (void)energy.decide(horizon, util::BytesPerSec(5e5), util::Seconds(2.5), 50.0);
  EXPECT_EQ(energy.scratch_grow_events(), 14u);

  const MpcController qoe(config, device, MpcObjective::kMaxQoE);
  (void)qoe.decide(horizon, util::BytesPerSec(5e5), util::Seconds(2.5), 50.0);
  EXPECT_EQ(qoe.scratch_grow_events(), 13u);
}

TEST(ScratchGrowAccounting, SteadyStateIsZeroAndDeeperHorizonGrowsPerSegmentVectors) {
  const MpcConfig config;
  const power::DeviceModel& device = power::device_model(Device::kPixel3);
  const MpcController controller(config, device,
                                 MpcObjective::kMinEnergyQoEConstrained);
  const auto h5 = fixed_horizon(5, 8, 3);
  (void)controller.decide(h5, util::BytesPerSec(5e5), util::Seconds(2.5), 50.0);
  const std::uint64_t after_warm = controller.scratch_grow_events();

  // Steady state: repeated same-shape solves never grow anything.
  for (int rep = 0; rep < 10; ++rep)
    (void)controller.decide(h5, util::BytesPerSec(5e5), util::Seconds(2.5), 50.0);
  EXPECT_EQ(controller.scratch_grow_events(), after_warm);

  // Doubling the horizon (same option count) grows exactly the six h-scaled
  // vectors: step_cost, download_s, eps_ok, q_ref, plus the per-step
  // transition tables (next_bucket, stall_s). Buckets and max_options are
  // unchanged, so the frontier stays put.
  const auto h10 = fixed_horizon(10, 8, 3);
  (void)controller.decide(h10, util::BytesPerSec(5e5), util::Seconds(2.5), 50.0);
  EXPECT_EQ(controller.scratch_grow_events(), after_warm + 6u);
}

// ------------------------------------------ BufferModel dense-table sizing

TEST(BufferModelDenseTest, BucketCountCoversRoundedUpCap) {
  // cap = 4 s, quantum 0.6 s: quantize(4.0) rounds to 4.2 (bucket 7), so the
  // grid must have 8 states — a floor-based count would be overrun.
  const BufferModel model(util::Seconds(1.0), util::Seconds(3.0), util::Seconds(0.6));
  EXPECT_DOUBLE_EQ(model.quantize(util::Seconds(4.0)), 4.2);
  EXPECT_EQ(model.bucket_of(util::Seconds(4.0)), 7);
  EXPECT_EQ(model.bucket_count(), 8u);
  EXPECT_DOUBLE_EQ(model.level_of(7), 4.2);
}

TEST(BufferModelDenseTest, LevelOfInvertsBucketOfOnTheGrid) {
  const BufferModel model(util::Seconds(1.0), util::Seconds(3.0), util::Seconds(0.5));
  for (std::size_t b = 0; b < model.bucket_count(); ++b) {
    const double level = model.level_of(static_cast<int>(b));
    EXPECT_EQ(model.bucket_of(util::Seconds(level)), static_cast<int>(b));
  }
  EXPECT_THROW(model.level_of(-1), std::invalid_argument);
  EXPECT_THROW(model.level_of(static_cast<int>(model.bucket_count())),
               std::invalid_argument);
}

}  // namespace
}  // namespace ps360::core
