#include "core/mpc.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "core/buffer.h"
#include "util/check.h"
#include "util/strings.h"
#include "util/units.h"

namespace ps360::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Relaxed-mode stall penalty in the energy objective: large enough to
// dominate any realistic horizon energy, so the fallback minimises stall
// first and energy second.
constexpr double kStallPenaltyMjPerS = 1e7;

// Eq. 6 buffer dynamics on the paper's 500 ms DP grid.
BufferModel buffer_model_of(util::Seconds segment, const MpcConfig& config) {
  return BufferModel(segment, util::Seconds(config.buffer_threshold_s),
                     util::Seconds(config.buffer_quantum_s));
}

// std::lround of a DP bucket quotient, in (0, kMaxBufferStates) once the
// constructor bounds the grid: x - trunc(x) is exact below 2^52, so rounding
// it half up is lround's half-away-from-zero, without the libm call.
std::int32_t round_bucket(double x) {
  const auto whole = static_cast<std::int32_t>(x);
  return whole + (x - static_cast<double>(whole) >= 0.5 ? 1 : 0);
}

// resize() that tracks reallocations for the zero-allocation contract.
template <typename T>
void grow(std::vector<T>& vec, std::size_t n, std::uint64_t& grow_events) {
  if (vec.capacity() < n) ++grow_events;
  vec.resize(n);
}

}  // namespace

std::size_t MpcScratch::capacity_bytes() const {
  return (step_cost.capacity() + download_s.capacity() + q_ref.capacity() +
          at_request_s.capacity() + row_stall.capacity() +
          frontier_cost.capacity() + next_cost.capacity()) *
             sizeof(double) +
         (eps_ok.capacity() + frontier_stall.capacity() +
          next_stall.capacity()) *
             sizeof(unsigned char) +
         (row_next.capacity() + frontier_root.capacity() + next_root.capacity()) *
             sizeof(std::int32_t) +
         live.capacity() * sizeof(LiveState);
}

const QualityOption& reference_option(const SegmentChoices& choices,
                                      util::BytesPerSec bandwidth,
                                      util::Seconds budget) {
  const double bandwidth_bytes_per_s = bandwidth.value();
  const double budget_seconds = budget.value();
  PS360_CHECK(!choices.options.empty());
  PS360_CHECK(bandwidth_bytes_per_s > 0.0);
  PS360_CHECK(budget_seconds > 0.0);
  // "Highest possible bitrate level and frame rate": f_m is by definition
  // the original (maximal) frame rate, so the reference is the best
  // perceived quality sustainable *at the original frame rate* — the quality
  // a non-energy-aware client would fetch. Ours and Ptile therefore share
  // the same anchor; the frame ladder only ever trades quality downward.
  std::size_t max_frame = 0;
  for (const auto& option : choices.options)
    max_frame = std::max(max_frame, option.frame_index);
  const QualityOption* best = nullptr;
  const QualityOption* cheapest = &choices.options.front();
  for (const auto& option : choices.options) {
    if (option.bytes < cheapest->bytes) cheapest = &option;
    if (option.frame_index != max_frame) continue;
    if (option.bytes / bandwidth_bytes_per_s > budget_seconds) continue;
    if (best == nullptr || option.qo > best->qo ||
        (option.qo == best->qo && option.bytes < best->bytes)) {
      best = &option;
    }
  }
  return best != nullptr ? *best : *cheapest;
}

MpcController::MpcController(util::Seconds segment, MpcConfig config,
                             const power::DeviceModel& device, MpcObjective objective)
    : segment_(segment), config_(config), device_(&device), objective_(objective) {
  // Finite, and at most kMaxBufferStates grid states (decide() sizes its
  // frontier by the grid and rounds bucket quotients as int32s).
  PS360_CHECK_MSG(std::isfinite(segment_.value()) && segment_.value() > 0.0,
                  "MpcController segment length must be finite and > 0");
  PS360_CHECK_MSG(
      std::isfinite(config_.buffer_threshold_s) && config_.buffer_threshold_s > 0.0,
      "MpcConfig.buffer_threshold_s must be finite and > 0");
  PS360_CHECK_MSG(config_.buffer_quantum_s > 0.0 &&
                      config_.buffer_quantum_s <= config_.buffer_threshold_s,
                  "MpcConfig.buffer_quantum_s must be in (0, buffer_threshold_s]");
  PS360_CHECK_MSG((config_.buffer_threshold_s + segment_.value()) /
                          config_.buffer_quantum_s <
                      kMaxBufferStates - 0.5,
                  "MpcConfig.buffer_quantum_s gives the MPC more than 4096 buffer states");
  PS360_CHECK(config_.epsilon >= 0.0 && config_.epsilon < 1.0);
  // Finite too: an infinite weight or penalty turns the first ∞ × 0 into NaN.
  PS360_CHECK(std::isfinite(config_.stall_penalty_per_s) &&
              config_.stall_penalty_per_s >= 0.0);
  PS360_CHECK(std::isfinite(config_.weights.variation) &&
              config_.weights.variation >= 0.0);
}

power::SegmentEnergy MpcController::option_energy(const QualityOption& option,
                                                  util::BytesPerSec bandwidth) const {
  const double bandwidth_bytes_per_s = bandwidth.value();
  PS360_CHECK(bandwidth_bytes_per_s > 0.0);
  return power::segment_energy(
      *device_, option.profile,
      util::Seconds(option.bytes / bandwidth_bytes_per_s), option.fps, segment_);
}

void MpcController::reference_qualities(const std::vector<SegmentChoices>& horizon,
                                        util::BytesPerSec bandwidth,
                                        std::vector<double>& q_ref) const {
  for (std::size_t i = 0; i < horizon.size(); ++i) {
    q_ref[i] = reference_option(horizon[i], bandwidth, segment_).qo;
  }
}

// The DP of Eq. 8 over dense tables. State = (quantized buffer bucket,
// option chosen for the previous segment); the previous option matters only
// through its Qo (the kMaxQoE variation term), so in energy mode — where the
// step cost is state-independent — that dimension collapses to a single slot
// and the frontier is just the buffer grid.
//
// Everything that depends on neither the DP state nor the buffer level is
// precomputed once per decide() call into the scratch arena:
//   * step_cost[i][oi]   — option energy (Eq. 1) or raw Qo,
//   * eps_ok[i][oi]      — constraint (8c) vs the shared reference ladder.
// The Eq. 6 transitions depend on the buffer level as well, and most
// (step, bucket) pairs are never reached, so they are not tabulated: each
// step walks the frontier in ascending state order, skips dead states, and
// computes a bucket's row (row_next / row_stall) right before the first
// live state of that bucket scatters its options.
//
// Energy mode scatter-mins each live bucket's candidates into the next
// frontier in (bucket, option) order, the lexicographic (cost, root)
// tie-break as two selects. A strict pass skips the candidates that stall
// or miss (8c): their cost would be +inf, which never wins — on an
// inf == inf tie a candidate root could only beat a target root of -1, and
// no candidate root of a live state is negative. kMaxQoE keeps a per-state
// alive check too (dead prev-option slots would index past the previous
// segment's ladder); its states are bucket-major, so one row serves every
// live prev-option slot of a bucket. Those slots all send option oi to the
// same next state, so kMaxQoE first folds each option's candidates over the
// bucket's live slots, in slot order and by relax's own rule, and scatters
// only the winner: one read-modify-write per (bucket, option) instead of
// per (state, option). relax keeps the earliest lexicographic (cost, root)
// minimum of a target's candidates, a NaN cost never wins, and the
// candidates still reach each target in (bucket, slot) order, so the
// regrouped fold picks the same candidate, with the same stall flag.
//
// Ties on the optimal objective are broken toward the smallest horizon[0]
// option index — (cost, root choice) propagates lexicographically through
// the DP — matching decide_exhaustive(), whose depth-first enumeration
// visits root options in ascending order and only replaces on strictly
// better cost. Such ties are structural, not exotic: with variation weight
// 1, every no-stall option above the previous quality scores identically.
MpcDecision MpcController::decide(const std::vector<SegmentChoices>& horizon,
                                  util::BytesPerSec bandwidth,
                                  util::Seconds buffer, double prev_qo) const {
  const double bandwidth_bytes_per_s = bandwidth.value();
  const double buffer_s = buffer.value();
  PS360_CHECK(!horizon.empty());
  PS360_CHECK(bandwidth_bytes_per_s > 0.0);
  PS360_CHECK(buffer_s >= 0.0);
  // Every option is checked before any is read: a NaN or negative size
  // would otherwise be absorbed by the comparisons below or fail inside
  // Eq. 1 without saying which option carried it.
  std::size_t max_options = 0;
  for (std::size_t i = 0; i < horizon.size(); ++i) {
    const auto& options = horizon[i].options;
    PS360_CHECK(!options.empty());
    max_options = std::max(max_options, options.size());
    for (std::size_t oi = 0; oi < options.size(); ++oi) {
      PS360_CHECK_MSG(std::isfinite(options[oi].bytes) && options[oi].bytes >= 0.0 &&
                          std::isfinite(options[oi].qo),
                      "MPC horizon segment " + std::to_string(i) + " option " +
                          std::to_string(oi) + ": bytes must be finite and >= 0, qo finite");
    }
  }

  const bool energy_mode = objective_ == MpcObjective::kMinEnergyQoEConstrained;
  const std::size_t h = horizon.size();

  const BufferModel buffers = buffer_model_of(segment_, config_);

  const std::size_t buckets = buffers.bucket_count();
  // Frontier stride over the prev-option dimension: slot 0 is the virtual
  // "no previous option" state (prev_qo), slots 1.. are option indices of
  // the previous segment. Energy mode collapses the dimension entirely.
  const std::size_t prev_stride = energy_mode ? 1 : max_options + 1;

  MpcScratch& scratch = scratch_;
  grow(scratch.step_cost, h * max_options, scratch.grow_events);
  grow(scratch.download_s, h * max_options, scratch.grow_events);
  grow(scratch.eps_ok, h * max_options, scratch.grow_events);
  grow(scratch.q_ref, h, scratch.grow_events);
  grow(scratch.at_request_s, buckets, scratch.grow_events);
  grow(scratch.row_next, max_options, scratch.grow_events);
  grow(scratch.row_stall, max_options, scratch.grow_events);
  if (!energy_mode) grow(scratch.live, prev_stride, scratch.grow_events);

  // ε-constraint reference quality per segment (energy mode).
  if (energy_mode) reference_qualities(horizon, bandwidth, scratch.q_ref);

  // Per-(segment, option) invariants: download time, energy cost / raw Qo,
  // and constraint-(8c) feasibility — none of which depend on the DP state,
  // so the old per-(frontier-state × option) recomputation collapses to one
  // pass here.
  for (std::size_t i = 0; i < h; ++i) {
    const auto& options = horizon[i].options;
    for (std::size_t oi = 0; oi < options.size(); ++oi) {
      const auto& option = options[oi];
      const std::size_t flat = i * max_options + oi;
      scratch.download_s[flat] = option.bytes / bandwidth_bytes_per_s;
      if (energy_mode) {
        scratch.step_cost[flat] =
            option_energy(option, bandwidth).total_mj();
        scratch.eps_ok[flat] =
            option.qo >= (1.0 - config_.epsilon) * scratch.q_ref[i] ? 1 : 0;
      } else {
        scratch.step_cost[flat] = option.qo;
        scratch.eps_ok[flat] = 1;
      }
    }
  }

  // Buffer available at request time per bucket: level - Δt, with the exact
  // arithmetic of BufferModel::advance so the DP transitions below stay
  // bit-identical to the reference implementations.
  for (std::size_t b = 0; b < buckets; ++b) {
    const double level = buffers.level_of(static_cast<int>(b));
    scratch.at_request_s[b] = level - std::max(level - config_.buffer_threshold_s, 0.0);
  }

  // The Eq. 6 row of bucket b under step i's download times: stall and next
  // bucket per option. raw_next lies in [L, cap], so the quantize() clamp
  // reduces to the min(), and dividing by the quantum directly reproduces
  // bucket_of(quantize(raw_next)) without materialising the level.
  const double cap = buffers.cap_s();
  const double quantum = buffers.quantum_s();
  const auto fill_row = [&](std::size_t i, std::size_t b) {
    const std::size_t n_options = horizon[i].options.size();
    const double* download_s = scratch.download_s.data() + i * max_options;
    const double at_request = scratch.at_request_s[b];
    for (std::size_t oi = 0; oi < n_options; ++oi) {
      const double d = download_s[oi];
      const double raw_next = std::max(at_request - d, 0.0) + segment_.value();
      scratch.row_stall[oi] = std::max(d - at_request, 0.0);
      scratch.row_next[oi] = round_bucket(std::min(raw_next, cap) / quantum);
    }
  };

  const std::size_t table_size = buckets * prev_stride;
  const std::size_t start =
      static_cast<std::size_t>(buffers.bucket_of(buffer)) * prev_stride;

  // strict = enforce no-stall + ε-constraint (energy mode); relaxed = allow
  // everything, penalise stalls — used as fallback and as the kMaxQoE mode.
  // Returns false if no complete finite-cost path exists under the strictness.
  auto run = [&](bool strict, MpcDecision& decision) -> bool {
    grow(scratch.frontier_cost, table_size, scratch.grow_events);
    grow(scratch.next_cost, table_size, scratch.grow_events);
    grow(scratch.frontier_root, table_size, scratch.grow_events);
    grow(scratch.next_root, table_size, scratch.grow_events);
    grow(scratch.frontier_stall, table_size, scratch.grow_events);
    grow(scratch.next_stall, table_size, scratch.grow_events);
    std::fill(scratch.frontier_cost.begin(), scratch.frontier_cost.end(), kInf);
    std::fill(scratch.frontier_root.begin(), scratch.frontier_root.end(),
              std::int32_t{-1});
    std::fill(scratch.frontier_stall.begin(), scratch.frontier_stall.end(),
              static_cast<unsigned char>(0));
    scratch.frontier_cost[start] = 0.0;
    bool any_alive = true;

    // Scatter-min one candidate into the next frontier: the lexicographic
    // (cost, root) tie-break is two selects, never a taken branch.
    const auto relax = [&](std::size_t next_state, double total, std::int32_t root,
                           unsigned char had) {
      const bool better = total < scratch.next_cost[next_state] ||
                          (total == scratch.next_cost[next_state] &&
                           root < scratch.next_root[next_state]);
      scratch.next_cost[next_state] = better ? total : scratch.next_cost[next_state];
      scratch.next_root[next_state] = better ? root : scratch.next_root[next_state];
      scratch.next_stall[next_state] = better ? had : scratch.next_stall[next_state];
    };

    for (std::size_t i = 0; i < h && any_alive; ++i) {
      std::fill(scratch.next_cost.begin(), scratch.next_cost.end(), kInf);
      std::fill(scratch.next_root.begin(), scratch.next_root.end(),
                std::int32_t{-1});
      std::fill(scratch.next_stall.begin(), scratch.next_stall.end(),
                static_cast<unsigned char>(0));
      any_alive = false;
      const std::size_t n_options = horizon[i].options.size();
      const double* step_cost = scratch.step_cost.data() + i * max_options;
      const unsigned char* eps_ok = scratch.eps_ok.data() + i * max_options;
      const std::int32_t* row_next = scratch.row_next.data();
      const double* row_stall = scratch.row_stall.data();

      if (energy_mode) {
        for (std::size_t b = 0; b < buckets; ++b) {
          const double base = scratch.frontier_cost[b];
          if (base == kInf) continue;
          fill_row(i, b);
          const std::int32_t node_root = scratch.frontier_root[b];
          const unsigned char node_stall = scratch.frontier_stall[b];
          for (std::size_t oi = 0; oi < n_options; ++oi) {
            const double stall = row_stall[oi];
            if (strict && (eps_ok[oi] == 0 || stall != 0.0)) continue;
            // Relaxed: parenthesised as (step + penalty·stall) first, the
            // exact FP association of the reference implementation.
            const double total =
                strict ? base + step_cost[oi]
                       : base + (step_cost[oi] + kStallPenaltyMjPerS * stall);
            // Some next state survives iff a finite candidate lands.
            any_alive = any_alive || total < kInf;
            const std::int32_t root = i == 0 ? static_cast<std::int32_t>(oi) : node_root;
            const unsigned char had = (node_stall != 0 || stall > 0.0) ? 1 : 0;
            relax(static_cast<std::size_t>(row_next[oi]), total, root, had);
          }
        }
      } else {
        MpcScratch::LiveState* const live = scratch.live.data();
        for (std::size_t b = 0; b < buckets; ++b) {
          // The bucket's live prev-option states, in slot order. Dead slots
          // must be skipped: their slot index can exceed the previous
          // segment's ladder, so the qo_prev read is only defined for
          // reachable states.
          std::size_t n_live = 0;
          for (std::size_t prev_slot = 0; prev_slot < prev_stride; ++prev_slot) {
            const std::size_t state = b * prev_stride + prev_slot;
            const double node_cost = scratch.frontier_cost[state];
            if (node_cost == kInf) continue;
            // Slot 0 is the virtual pre-horizon state; negative prev_qo then
            // means "no previous segment": no variation penalty on the first
            // decision of a session.
            live[n_live++] = {node_cost,
                              prev_slot == 0 ? prev_qo
                                             : horizon[i - 1].options[prev_slot - 1].qo,
                              scratch.frontier_root[state], scratch.frontier_stall[state]};
          }
          if (n_live == 0) continue;
          any_alive = true;  // alive state ⇒ finite candidates land below
          fill_row(i, b);
          // Option oi's candidates all target one next state: fold them in
          // slot order by relax's rule, then scatter the winner.
          for (std::size_t oi = 0; oi < n_options; ++oi) {
            const double stall = row_stall[oi];
            double best_cost = kInf;
            std::int32_t best_root = -1;
            unsigned char best_stall = 0;
            for (std::size_t s = 0; s < n_live; ++s) {
              const MpcScratch::LiveState& node = live[s];
              const double variation =
                  node.qo_prev >= 0.0 ? std::fabs(step_cost[oi] - node.qo_prev) : 0.0;
              const double q = step_cost[oi] - config_.weights.variation * variation -
                               config_.stall_penalty_per_s * stall;
              const double total = node.cost - q;
              const std::int32_t root = i == 0 ? static_cast<std::int32_t>(oi) : node.root;
              const bool better =
                  total < best_cost || (total == best_cost && root < best_root);
              best_cost = better ? total : best_cost;
              best_root = better ? root : best_root;
              best_stall = better ? ((node.stall != 0 || stall > 0.0) ? 1 : 0) : best_stall;
            }
            relax(static_cast<std::size_t>(row_next[oi]) * prev_stride + oi + 1, best_cost,
                  best_root, best_stall);
          }
        }
      }
      scratch.frontier_cost.swap(scratch.next_cost);
      scratch.frontier_root.swap(scratch.next_root);
      scratch.frontier_stall.swap(scratch.next_stall);
    }

    if (!any_alive) return false;  // no path at all
    double best_cost = kInf;
    std::int32_t best_root = -1;
    bool best_stall = false;
    bool found = false;
    for (std::size_t s = 0; s < table_size; ++s) {
      const double cost = scratch.frontier_cost[s];
      if (cost == kInf) continue;
      const std::int32_t root = scratch.frontier_root[s];
      if (!found || cost < best_cost ||
          (cost == best_cost && root < best_root)) {
        best_cost = cost;
        best_root = root;
        best_stall = scratch.frontier_stall[s] != 0;
        found = true;
      }
    }
    if (!found) return false;  // every candidate's cost overflowed to +inf
    PS360_ASSERT(best_root >= 0);
    decision.choice = horizon[0].options[static_cast<std::size_t>(best_root)];
    decision.objective = best_cost;
    decision.feasible = !best_stall;
    return true;
  };

  MpcDecision decision;
  if (!run(/*strict=*/energy_mode, decision)) {
    // No plan satisfies the constraints (e.g. bandwidth collapse): fall back
    // to the relaxed problem — reusing the per-option invariants and
    // recomputing its live rows — and report infeasibility.
    const bool found = run(/*strict=*/false, decision);
    PS360_CHECK_MSG(found, util::strfmt("bandwidth %g B/s overflows every plan's cost",
                                        bandwidth_bytes_per_s));
    decision.feasible = false;
    decision.relaxed = true;
  }
  return decision;
}

MpcDecision MpcController::decide_exhaustive(const std::vector<SegmentChoices>& horizon,
                                             util::BytesPerSec bandwidth,
                                             util::Seconds buffer_level,
                                             double prev_qo) const {
  const double bandwidth_bytes_per_s = bandwidth.value();
  PS360_CHECK(!horizon.empty());
  PS360_CHECK(bandwidth_bytes_per_s > 0.0);
  const bool energy_mode = objective_ == MpcObjective::kMinEnergyQoEConstrained;

  std::vector<double> q_ref(horizon.size(), 0.0);
  if (energy_mode) reference_qualities(horizon, bandwidth, q_ref);

  struct Best {
    double cost = kInf;
    int root = -1;
    bool stalled = false;
  };
  const BufferModel buffers = buffer_model_of(segment_, config_);

  auto search = [&](bool strict) {
    Best best;
    // Depth-first enumeration of complete option sequences.
    std::vector<std::size_t> picks(horizon.size(), 0);
    auto recurse = [&](auto&& self, std::size_t depth, double buffer, double qo_prev,
                       double cost, bool stalled) -> void {
      if (depth == horizon.size()) {
        // Roots are enumerated in ascending order, so the strict < keeps the
        // smallest root option among cost ties — the same canonical
        // tie-break the DP applies lexicographically.
        if (cost < best.cost) {
          best.cost = cost;
          best.root = static_cast<int>(picks[0]);
          best.stalled = stalled;
        }
        return;
      }
      for (std::size_t oi = 0; oi < horizon[depth].options.size(); ++oi) {
        const auto& option = horizon[depth].options[oi];
        const BufferStep step = buffers.advance_quantized(
            util::Seconds(buffer), util::Seconds(option.bytes / bandwidth_bytes_per_s));
        if (strict && energy_mode) {
          if (step.stall_s > 0.0) continue;
          if (option.qo < (1.0 - config_.epsilon) * q_ref[depth]) continue;
        }
        double step_cost;
        if (energy_mode) {
          step_cost = option_energy(option, bandwidth).total_mj();
          if (!strict) step_cost += kStallPenaltyMjPerS * step.stall_s;
        } else {
          const double variation =
              qo_prev >= 0.0 ? std::fabs(option.qo - qo_prev) : 0.0;
          const double q = option.qo - config_.weights.variation * variation -
                           config_.stall_penalty_per_s * step.stall_s;
          step_cost = -q;
        }
        picks[depth] = oi;
        self(self, depth + 1, step.next_buffer_s, option.qo, cost + step_cost,
             stalled || step.stall_s > 0.0);
      }
    };
    // Match decide(): the initial buffer is quantized before the first step.
    recurse(recurse, 0, buffers.quantize(buffer_level), prev_qo, 0.0, false);
    return best;
  };

  Best best = search(/*strict=*/energy_mode);
  bool feasible = best.root >= 0 && !best.stalled;
  const bool relaxed = energy_mode && best.root < 0;
  if (relaxed) {
    best = search(/*strict=*/false);
    feasible = false;
  }
  MpcDecision decision;
  if (best.root >= 0) {
    decision.choice = horizon[0].options[static_cast<std::size_t>(best.root)];
    decision.objective = best.cost;
    decision.feasible = feasible;
  }
  decision.relaxed = relaxed;
  return decision;
}

}  // namespace ps360::core
