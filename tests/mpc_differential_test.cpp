// Differential validation of the flat-arena DP solver (core/mpc.cpp):
// decide() must agree with the exhaustive reference decide_exhaustive() on
// randomized horizons across both objectives, config grids (including buffer
// quanta that do not divide the buffer cap), bandwidth regimes and
// near-empty buffers — for fresh controllers and for one controller whose
// scratch arena is reused across hundreds of calls; decide() against the
// table DP it replaced, bit for bit; plus the scratch arena's allocation
// contract, observed through the MpcController scratch hooks: a first
// decide() counts each vector that grows, steady state stays at zero, and a
// deeper horizon grows exactly the h-scaled vectors.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "core/buffer.h"
#include "core/mpc.h"
#include "power/energy.h"
#include "util/rng.h"

namespace ps360::core {
namespace {

using power::DecodeProfile;
using power::Device;

// The segment length L every controller and reference here plans with.
constexpr util::Seconds kSegment{1.0};

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
// Returns the DP's decision.
MpcDecision expect_matches_exhaustive(const MpcController& controller,
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
  EXPECT_EQ(dp.relaxed, brute.relaxed) << label;
  EXPECT_EQ(dp.choice.quality, brute.choice.quality) << label;
  EXPECT_EQ(dp.choice.frame_index, brute.choice.frame_index) << label;
  EXPECT_DOUBLE_EQ(dp.choice.bytes, brute.choice.bytes) << label;
  return dp;
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
  config.buffer_threshold_s = 3.0;
  // Exercise grid-aligned and non-aligned quanta (cap = 4 s): 0.6 and 0.75
  // make the cap round up to an extra bucket.
  const double quanta[] = {0.5, 0.6, 0.75};
  config.buffer_quantum_s = quanta[rng.uniform_index(3)];
  const double epsilons[] = {0.0, 0.05, 0.2};
  config.epsilon = epsilons[rng.uniform_index(3)];

  const MpcController controller(kSegment, config, power::device_model(Device::kPixel3),
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
  MpcController controller(kSegment, MpcConfig{}, power::device_model(Device::kPixel3),
                           energy_mode ? MpcObjective::kMinEnergyQoEConstrained
                                       : MpcObjective::kMaxQoE);
  int decides = 0;
  int relaxed_fallbacks = 0;

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
    const MpcDecision dp =
        expect_matches_exhaustive(controller, horizon, bandwidth, buffer, prev_qo,
                                  "call " + std::to_string(call) + " energy_mode " +
                                      std::to_string(energy_mode));
    ++decides;
    if (dp.relaxed) ++relaxed_fallbacks;
  }
  EXPECT_EQ(decides, kCalls);
  if (energy_mode) {
    EXPECT_GT(relaxed_fallbacks, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(BothObjectives, ReusedControllerDifferential,
                         ::testing::Bool());

// ---------------------------------------- Bit-identity vs the table DP

// The table DP decide() ran before it computed Eq. 6 rows per live bucket,
// transcribed as a test-only reference: per-(segment, option) invariants
// with Eq. 1 from one power::segment_energy call per option, then a
// quantized Eq. 6 table of every (step, bucket, option) filled with
// std::lround, then per pass and step a sweep over every frontier state —
// in energy mode a phase that stages every (bucket, option) candidate cost
// (+inf where strict constraints fail) and a phase that scatter-mins all of
// them, liveness from a min-scan of the next frontier. `relaxed` reports
// whether the strict pass found no plan.
struct TableDpResult {
  MpcDecision decision;
  bool relaxed = false;
};

TableDpResult table_dp_reference(const MpcConfig& config,
                                 const power::DeviceModel& device,
                                 MpcObjective objective,
                                 const std::vector<SegmentChoices>& horizon,
                                 double bandwidth, double buffer_s, double prev_qo) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kStallPenaltyMjPerS = 1e7;
  const bool energy_mode = objective == MpcObjective::kMinEnergyQoEConstrained;
  const std::size_t h = horizon.size();
  const BufferModel buffers(kSegment,
                            util::Seconds(config.buffer_threshold_s),
                            util::Seconds(config.buffer_quantum_s));
  std::size_t max_options = 0;
  for (const auto& seg : horizon) max_options = std::max(max_options, seg.options.size());
  const std::size_t buckets = buffers.bucket_count();
  const std::size_t prev_stride = energy_mode ? 1 : max_options + 1;

  std::vector<double> q_ref(h, 0.0);
  if (energy_mode) {
    for (std::size_t i = 0; i < h; ++i)
      q_ref[i] = reference_option(horizon[i], util::BytesPerSec(bandwidth),
                                  kSegment)
                     .qo;
  }
  std::vector<double> step_cost(h * max_options), download_s(h * max_options);
  std::vector<unsigned char> eps_ok(h * max_options);
  for (std::size_t i = 0; i < h; ++i) {
    const auto& options = horizon[i].options;
    for (std::size_t oi = 0; oi < options.size(); ++oi) {
      const auto& option = options[oi];
      const std::size_t flat = i * max_options + oi;
      download_s[flat] = option.bytes / bandwidth;
      if (energy_mode) {
        step_cost[flat] =
            power::segment_energy(device, option.profile,
                                  util::Seconds(option.bytes / bandwidth), option.fps,
                                  kSegment)
                .total_mj();
        eps_ok[flat] = option.qo >= (1.0 - config.epsilon) * q_ref[i] ? 1 : 0;
      } else {
        step_cost[flat] = option.qo;
        eps_ok[flat] = 1;
      }
    }
  }
  std::vector<double> at_request_s(buckets);
  for (std::size_t b = 0; b < buckets; ++b) {
    const double level = buffers.level_of(static_cast<int>(b));
    at_request_s[b] = level - std::max(level - config.buffer_threshold_s, 0.0);
  }
  const double cap = buffers.cap_s();
  const double quantum = buffers.quantum_s();
  std::vector<std::int32_t> next_bucket(h * buckets * max_options);
  std::vector<double> stall_s(h * buckets * max_options);
  for (std::size_t i = 0; i < h; ++i) {
    for (std::size_t b = 0; b < buckets; ++b) {
      const std::size_t row = (i * buckets + b) * max_options;
      for (std::size_t oi = 0; oi < horizon[i].options.size(); ++oi) {
        const double d = download_s[i * max_options + oi];
        const double raw_next =
            std::max(at_request_s[b] - d, 0.0) + kSegment.value();
        stall_s[row + oi] = std::max(d - at_request_s[b], 0.0);
        next_bucket[row + oi] =
            static_cast<std::int32_t>(std::lround(std::min(raw_next, cap) / quantum));
      }
    }
  }
  std::vector<double> cand_cost(buckets * max_options);

  const std::size_t table_size = buckets * prev_stride;
  const std::size_t start =
      static_cast<std::size_t>(buffers.bucket_of(util::Seconds(buffer_s))) * prev_stride;
  auto run = [&](bool strict, MpcDecision& decision) -> bool {
    std::vector<double> frontier_cost(table_size, kInf), next_cost(table_size);
    std::vector<std::int32_t> frontier_root(table_size, -1), next_root(table_size);
    std::vector<unsigned char> frontier_stall(table_size, 0), next_stall(table_size);
    frontier_cost[start] = 0.0;
    bool any_alive = true;
    for (std::size_t i = 0; i < h && any_alive; ++i) {
      std::fill(next_cost.begin(), next_cost.end(), kInf);
      std::fill(next_root.begin(), next_root.end(), std::int32_t{-1});
      std::fill(next_stall.begin(), next_stall.end(), static_cast<unsigned char>(0));
      any_alive = false;
      const std::size_t n_options = horizon[i].options.size();
      const double* cost_row = step_cost.data() + i * max_options;
      const unsigned char* ok_row = eps_ok.data() + i * max_options;
      const std::size_t table_base = i * buckets * max_options;
      if (energy_mode) {
        for (std::size_t b = 0; b < table_size; ++b) {
          const double base = frontier_cost[b];
          const double* stall_row = stall_s.data() + table_base + b * max_options;
          double* cand = cand_cost.data() + b * max_options;
          for (std::size_t oi = 0; oi < n_options; ++oi) {
            if (strict) {
              const bool ok = ok_row[oi] != 0 && stall_row[oi] == 0.0;
              cand[oi] = ok ? base + cost_row[oi] : kInf;
            } else {
              cand[oi] = base + (cost_row[oi] + kStallPenaltyMjPerS * stall_row[oi]);
            }
          }
        }
        for (std::size_t b = 0; b < table_size; ++b) {
          const double* cand = cand_cost.data() + b * max_options;
          const std::int32_t* nb_row = next_bucket.data() + table_base + b * max_options;
          const double* stall_row = stall_s.data() + table_base + b * max_options;
          for (std::size_t oi = 0; oi < n_options; ++oi) {
            const double total = cand[oi];
            const auto nb = static_cast<std::size_t>(nb_row[oi]);
            const std::int32_t root =
                i == 0 ? static_cast<std::int32_t>(oi) : frontier_root[b];
            const unsigned char had =
                (frontier_stall[b] != 0 || stall_row[oi] > 0.0) ? 1 : 0;
            if (total < next_cost[nb] ||
                (total == next_cost[nb] && root < next_root[nb])) {
              next_cost[nb] = total;
              next_root[nb] = root;
              next_stall[nb] = had;
            }
          }
        }
        double min_cost = kInf;
        for (const double c : next_cost) min_cost = std::min(min_cost, c);
        any_alive = min_cost < kInf;
      } else {
        for (std::size_t state = 0; state < table_size; ++state) {
          const double node_cost = frontier_cost[state];
          if (node_cost == kInf) continue;
          any_alive = true;
          const std::size_t b = state / prev_stride;
          const std::size_t prev_slot = state % prev_stride;
          const double qo_prev =
              prev_slot == 0 ? prev_qo : horizon[i - 1].options[prev_slot - 1].qo;
          const std::int32_t* nb_row = next_bucket.data() + table_base + b * max_options;
          const double* stall_row = stall_s.data() + table_base + b * max_options;
          for (std::size_t oi = 0; oi < n_options; ++oi) {
            const double stall = stall_row[oi];
            const double variation =
                qo_prev >= 0.0 ? std::fabs(cost_row[oi] - qo_prev) : 0.0;
            const double q = cost_row[oi] - config.weights.variation * variation -
                             config.stall_penalty_per_s * stall;
            const std::size_t next_state =
                static_cast<std::size_t>(nb_row[oi]) * prev_stride + oi + 1;
            const double total = node_cost - q;
            const std::int32_t root =
                i == 0 ? static_cast<std::int32_t>(oi) : frontier_root[state];
            const unsigned char had =
                (frontier_stall[state] != 0 || stall > 0.0) ? 1 : 0;
            if (total < next_cost[next_state] ||
                (total == next_cost[next_state] && root < next_root[next_state])) {
              next_cost[next_state] = total;
              next_root[next_state] = root;
              next_stall[next_state] = had;
            }
          }
        }
      }
      frontier_cost.swap(next_cost);
      frontier_root.swap(next_root);
      frontier_stall.swap(next_stall);
    }
    if (!any_alive) return false;
    double best_cost = kInf;
    std::int32_t best_root = -1;
    bool best_stall = false;
    bool found = false;
    for (std::size_t s = 0; s < table_size; ++s) {
      const double cost = frontier_cost[s];
      if (cost == kInf) continue;
      const std::int32_t root = frontier_root[s];
      if (!found || cost < best_cost || (cost == best_cost && root < best_root)) {
        best_cost = cost;
        best_root = root;
        best_stall = frontier_stall[s] != 0;
        found = true;
      }
    }
    decision.choice = horizon[0].options[static_cast<std::size_t>(best_root)];
    decision.objective = best_cost;
    decision.feasible = !best_stall;
    return true;
  };

  TableDpResult result;
  if (!run(/*strict=*/energy_mode, result.decision)) {
    const bool found = run(/*strict=*/false, result.decision);
    EXPECT_TRUE(found) << "relaxed table DP must always find a plan";
    result.decision.feasible = false;
    result.relaxed = true;
  }
  return result;
}

std::uint64_t bits_of(double v) {
  std::uint64_t out = 0;
  std::memcpy(&out, &v, sizeof out);
  return out;
}

// Seeded horizons for the bit-identity check. Bandwidth is a power of two
// and one option in three downloads for a multiple of 0.25 s, so on the
// 0.5 s grid a landing level's quotient often sits exactly on a .5 — where
// only lround's half-away-from-zero gives the table's bucket. Qo values come
// from a coarse ladder, so equal-Qo options (and exact objective ties
// between roots) are common; one option in four is a copy of its left
// neighbour.
std::vector<SegmentChoices> bit_identity_horizon(util::Rng& rng, std::size_t h,
                                                 std::size_t n_options, double bandwidth) {
  std::vector<SegmentChoices> horizon(h);
  for (auto& seg : horizon) {
    for (std::size_t o = 0; o < n_options; ++o) {
      QualityOption option;
      if (o > 0 && rng.bernoulli(0.25)) {
        option = seg.options.back();
      } else {
        option.quality = static_cast<int>(o % 5) + 1;
        option.frame_index = 1 + o % 4;
        option.fps = 21.0 + 3.0 * static_cast<double>(o % 4);
        option.bytes = rng.bernoulli(1.0 / 3.0)
                           ? bandwidth * 0.25 * static_cast<double>(rng.uniform_index(17))
                           : rng.uniform(0.0, 4.0) * bandwidth;
        option.qo = 10.0 * static_cast<double>(1 + rng.uniform_index(9));
        option.profile = o % 2 == 0 ? DecodeProfile::kPtile : DecodeProfile::kCtile;
      }
      seg.options.push_back(option);
    }
  }
  return horizon;
}

// decide() against the table DP, EXPECT_EQ on every field of the choice,
// the objective's bits and feasibility, over both objectives, (quantum, β)
// grids on and off the cap, H in {1, 5, 10}, 5 and 20 options, buffers on
// and off the grid, and bandwidth regimes from comfortable to hopeless (so
// the energy objective's relaxed pass runs). One controller per grid is
// reused across its calls, as a session reuses its own.
class SolverBitIdentity : public ::testing::TestWithParam<bool> {};

TEST_P(SolverBitIdentity, DecideMatchesTableDpReference) {
  const bool energy_mode = GetParam();
  const MpcObjective objective = energy_mode ? MpcObjective::kMinEnergyQoEConstrained
                                             : MpcObjective::kMaxQoE;
  const power::DeviceModel& device = power::device_model(Device::kPixel3);
  struct Grid {
    double quantum, beta;
  };
  std::size_t relaxed = 0;
  std::size_t cases = 0;
  for (const Grid grid : {Grid{0.5, 3.0}, Grid{0.3, 2.9}, Grid{0.7, 3.0}}) {
    MpcConfig config;
    config.buffer_quantum_s = grid.quantum;
    config.buffer_threshold_s = grid.beta;
    config.epsilon = 0.1;
    const MpcController controller(kSegment, config, device, objective);
    util::Rng rng(util::derive_seed(0xB17Eu, static_cast<std::uint64_t>(grid.quantum * 10),
                                    energy_mode ? 1 : 0));
    for (const std::size_t h : {1u, 5u, 10u}) {
      for (const std::size_t n_options : {5u, 20u}) {
        for (int rep = 0; rep < 12; ++rep) {
          // 2^19 B/s, a quarter of it, or a hopeless 2^10 B/s.
          const double bandwidths[] = {524288.0, 131072.0, 1024.0};
          const double bandwidth = bandwidths[rng.uniform_index(3)];
          const auto horizon = bit_identity_horizon(rng, h, n_options, bandwidth);
          const double buffer =
              rng.bernoulli(0.5)
                  ? grid.quantum * static_cast<double>(rng.uniform_index(
                                       static_cast<std::uint64_t>(grid.beta / grid.quantum) + 2))
                  : rng.uniform(0.0, grid.beta + 1.0);
          const double prev_qo = rng.bernoulli(0.25) ? -1.0 : 10.0 * static_cast<double>(
                                                                        rng.uniform_index(10));
          const MpcDecision got = controller.decide(horizon, util::BytesPerSec(bandwidth),
                                                    util::Seconds(buffer), prev_qo);
          const TableDpResult want = table_dp_reference(config, device, objective, horizon,
                                                        bandwidth, buffer, prev_qo);
          const std::string where = "quantum " + std::to_string(grid.quantum) + " h " +
                                    std::to_string(h) + " options " +
                                    std::to_string(n_options) + " rep " +
                                    std::to_string(rep);
          EXPECT_EQ(got.choice.quality, want.decision.choice.quality) << where;
          EXPECT_EQ(got.choice.frame_index, want.decision.choice.frame_index) << where;
          EXPECT_EQ(bits_of(got.choice.fps), bits_of(want.decision.choice.fps)) << where;
          EXPECT_EQ(bits_of(got.choice.bytes), bits_of(want.decision.choice.bytes)) << where;
          EXPECT_EQ(bits_of(got.choice.qo), bits_of(want.decision.choice.qo)) << where;
          EXPECT_EQ(got.choice.profile, want.decision.choice.profile) << where;
          EXPECT_EQ(bits_of(got.objective), bits_of(want.decision.objective)) << where;
          EXPECT_EQ(got.feasible, want.decision.feasible) << where;
          relaxed += want.relaxed ? 1 : 0;
          ++cases;
        }
      }
    }
  }
  if (energy_mode) {
    EXPECT_GT(relaxed, 0u);
    EXPECT_LT(relaxed, cases);
  }
}

INSTANTIATE_TEST_SUITE_P(BothObjectives, SolverBitIdentity, ::testing::Bool());

// The max-QoE DP folds each live bucket's prev-option states per option
// before it scatters; pinned to the table DP's per-state scatter over ladders
// of 1 to 24 options (Pano's 20 among them, and per-segment ladders of
// different lengths), coarse Qo ladders with equal-Qo copies (exact
// objective ties between roots and between prev-option states), variation
// weights and stall penalties from 0 up, and three (quantum, β) grids.
TEST(MaxQoeBitIdentity, FoldedBucketsMatchTableDpOverVariedLadders) {
  const power::DeviceModel& device = power::device_model(Device::kPixel3);
  util::Rng rng(0xF01Du);
  std::size_t cases = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    MpcConfig config;
    const double grids[][2] = {{0.5, 3.0}, {0.3, 2.9}, {0.7, 3.0}};
    const std::size_t grid = rng.uniform_index(3);
    config.buffer_quantum_s = grids[grid][0];
    config.buffer_threshold_s = grids[grid][1];
    const double weights[] = {0.0, 1.0, 0.5, 3.0};
    config.weights.variation =
        rng.bernoulli(0.75) ? weights[rng.uniform_index(4)] : rng.uniform(0.0, 4.0);
    const double penalties[] = {0.0, 150.0, 1.0};
    config.stall_penalty_per_s =
        rng.bernoulli(0.75) ? penalties[rng.uniform_index(3)] : rng.uniform(0.0, 400.0);
    const MpcController controller(kSegment, config, device, MpcObjective::kMaxQoE);

    const std::size_t h = 1 + rng.uniform_index(6);
    const double bandwidths[] = {524288.0, 131072.0, 1024.0};
    const double bandwidth = bandwidths[rng.uniform_index(3)];
    std::vector<SegmentChoices> horizon;
    const std::size_t fixed_options = rng.bernoulli(0.3) ? 20 : 1 + rng.uniform_index(24);
    for (std::size_t i = 0; i < h; ++i) {
      const std::size_t n_options =
          rng.bernoulli(0.2) ? 1 + rng.uniform_index(24) : fixed_options;
      const auto segment = bit_identity_horizon(rng, 1, n_options, bandwidth);
      horizon.push_back(segment.front());
    }
    const double buffer =
        rng.bernoulli(0.5)
            ? config.buffer_quantum_s *
                  static_cast<double>(rng.uniform_index(
                      static_cast<std::uint64_t>(config.buffer_threshold_s /
                                                 config.buffer_quantum_s) +
                      2))
            : rng.uniform(0.0, config.buffer_threshold_s + 1.0);
    const double prev_qo =
        rng.bernoulli(0.25) ? -1.0 : 10.0 * static_cast<double>(rng.uniform_index(10));
    const MpcDecision got = controller.decide(horizon, util::BytesPerSec(bandwidth),
                                              util::Seconds(buffer), prev_qo);
    const TableDpResult want = table_dp_reference(config, device, MpcObjective::kMaxQoE,
                                                  horizon, bandwidth, buffer, prev_qo);
    const std::string where = "trial " + std::to_string(trial);
    ASSERT_EQ(got.choice.quality, want.decision.choice.quality) << where;
    ASSERT_EQ(got.choice.frame_index, want.decision.choice.frame_index) << where;
    ASSERT_EQ(bits_of(got.choice.bytes), bits_of(want.decision.choice.bytes)) << where;
    ASSERT_EQ(bits_of(got.choice.qo), bits_of(want.decision.choice.qo)) << where;
    ASSERT_EQ(bits_of(got.objective), bits_of(want.decision.objective)) << where;
    ASSERT_EQ(got.feasible, want.decision.feasible) << where;
    ++cases;
  }
  EXPECT_EQ(cases, 3000u);
}

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
      kSegment, config, power::device_model(Device::kPixel3),
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
  // energy path uses 13 vectors (5 per-option/per-bucket invariants, the 2
  // Eq. 6 row buffers of the live bucket being expanded, and 6 frontier);
  // kMaxQoE adds a 14th, the live prev-option states of the bucket being
  // expanded. All grow from empty on the first call — so the first-call
  // count is pinned exactly, not just "positive". A lumped per-call counter
  // would report 1 here.
  const MpcConfig config;
  const power::DeviceModel& device = power::device_model(Device::kPixel3);
  const auto horizon = fixed_horizon(5, 8, 3);

  const MpcController energy(kSegment, config, device,
                             MpcObjective::kMinEnergyQoEConstrained);
  (void)energy.decide(horizon, util::BytesPerSec(5e5), util::Seconds(2.5), 50.0);
  EXPECT_EQ(energy.scratch_grow_events(), 13u);

  const MpcController qoe(kSegment, config, device, MpcObjective::kMaxQoE);
  (void)qoe.decide(horizon, util::BytesPerSec(5e5), util::Seconds(2.5), 50.0);
  EXPECT_EQ(qoe.scratch_grow_events(), 14u);
}

TEST(ScratchGrowAccounting, SteadyStateIsZeroAndDeeperHorizonGrowsPerSegmentVectors) {
  const MpcConfig config;
  const power::DeviceModel& device = power::device_model(Device::kPixel3);
  const MpcController controller(kSegment, config, device,
                                 MpcObjective::kMinEnergyQoEConstrained);
  const auto h5 = fixed_horizon(5, 8, 3);
  (void)controller.decide(h5, util::BytesPerSec(5e5), util::Seconds(2.5), 50.0);
  const std::uint64_t after_warm = controller.scratch_grow_events();

  // Steady state: repeated same-shape solves never grow anything.
  for (int rep = 0; rep < 10; ++rep)
    (void)controller.decide(h5, util::BytesPerSec(5e5), util::Seconds(2.5), 50.0);
  EXPECT_EQ(controller.scratch_grow_events(), after_warm);

  // Doubling the horizon (same option count) grows exactly the four
  // h-scaled vectors: step_cost, download_s, eps_ok, q_ref. Buckets and
  // max_options are unchanged, so the frontier and the option-long Eq. 6
  // row buffers stay put.
  const auto h10 = fixed_horizon(10, 8, 3);
  (void)controller.decide(h10, util::BytesPerSec(5e5), util::Seconds(2.5), 50.0);
  EXPECT_EQ(controller.scratch_grow_events(), after_warm + 4u);
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
