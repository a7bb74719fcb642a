#include "core/mpc.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/buffer.h"
#include "util/check.h"
#include "util/units.h"

namespace ps360::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Relaxed-mode stall penalty in the energy objective: large enough to
// dominate any realistic horizon energy, so the fallback minimises stall
// first and energy second.
constexpr double kStallPenaltyMjPerS = 1e7;

// Eq. 6 buffer dynamics on the paper's 500 ms DP grid.
BufferModel buffer_model_of(const MpcConfig& config) {
  return BufferModel(util::Seconds(config.segment_seconds),
                     util::Seconds(config.buffer_threshold_s),
                     util::Seconds(config.buffer_quantum_s));
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
          at_request_s.capacity() + stall_s.capacity() + cand_cost.capacity() +
          frontier_cost.capacity() + next_cost.capacity()) *
             sizeof(double) +
         (eps_ok.capacity() + frontier_stall.capacity() +
          next_stall.capacity()) *
             sizeof(unsigned char) +
         (next_bucket.capacity() + frontier_root.capacity() +
          next_root.capacity()) *
             sizeof(std::int32_t);
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

MpcController::MpcController(MpcConfig config, const power::DeviceModel& device,
                             MpcObjective objective)
    : config_(config), device_(&device), objective_(objective) {
  PS360_CHECK(config_.segment_seconds > 0.0);
  PS360_CHECK(config_.buffer_threshold_s > 0.0);
  PS360_CHECK(config_.buffer_quantum_s > 0.0 &&
              config_.buffer_quantum_s <= config_.buffer_threshold_s);
  PS360_CHECK(config_.epsilon >= 0.0 && config_.epsilon < 1.0);
  PS360_CHECK(config_.stall_penalty_per_s >= 0.0);
}

void MpcController::set_observer(obs::Observer* observer, std::uint32_t session) {
  observer_ = observer;
  obs_session_ = session;
  if (observer_ != nullptr && observer_->metrics != nullptr) {
    id_decides_ = observer_->metrics->counter("mpc.decides");
    id_relaxed_ = observer_->metrics->counter("mpc.relaxed_fallbacks");
    id_infeasible_ = observer_->metrics->counter("mpc.infeasible");
  }
}

power::SegmentEnergy MpcController::option_energy(const QualityOption& option,
                                                  util::BytesPerSec bandwidth) const {
  const double bandwidth_bytes_per_s = bandwidth.value();
  PS360_CHECK(bandwidth_bytes_per_s > 0.0);
  return power::segment_energy(
      *device_, option.profile,
      util::Seconds(option.bytes / bandwidth_bytes_per_s), option.fps,
      util::Seconds(config_.segment_seconds));
}

void MpcController::reference_qualities(const std::vector<SegmentChoices>& horizon,
                                        util::BytesPerSec bandwidth,
                                        std::vector<double>& q_ref) const {
  for (std::size_t i = 0; i < horizon.size(); ++i) {
    q_ref[i] = reference_option(horizon[i], bandwidth,
                                util::Seconds(config_.segment_seconds))
                   .qo;
  }
}

// The DP of Eq. 8 over dense tables. State = (quantized buffer bucket,
// option chosen for the previous segment); the previous option matters only
// through its Qo (the kMaxQoE variation term), so in energy mode — where the
// step cost is state-independent — that dimension collapses to a single slot
// and the frontier is just the buffer grid.
//
// Everything that does not depend on the DP state is precomputed once per
// decide() call into the scratch arena:
//   * step_cost[i][oi]   — option energy (Eq. 1) or raw Qo,
//   * eps_ok[i][oi]      — constraint (8c) vs the shared reference ladder,
//   * next_bucket/stall_s[i][b][oi] — the quantized Eq. 6 transition of
//     every step over the (small) buffer grid, read by both DP passes.
//
// The inner cost sweep is branch-free. Energy mode runs in two phases:
// phase 1 computes every (bucket, option) candidate cost with strictness
// applied as a +inf mask (a select, not a branch — the loop has no
// data-dependent control flow, so the compiler can vectorise it); phase 2
// scatter-mins the candidates into the next frontier with branchless
// selects. Masked (+inf) candidates are harmless in phase 2: +inf never
// compares strictly less than any target, and on an inf == inf tie the
// candidate root can only win against a target root of -1 — which no
// nonnegative candidate root does — so dead states keep root -1 and are
// never observed. kMaxQoE keeps a per-state alive check (dead prev-option
// slots would index past the previous segment's ladder) but its option loop
// uses the same branchless selects.
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
  for (const auto& seg : horizon) PS360_CHECK(!seg.options.empty());

  const bool energy_mode = objective_ == MpcObjective::kMinEnergyQoEConstrained;
  const std::size_t h = horizon.size();

  const BufferModel buffers = buffer_model_of(config_);

  std::size_t max_options = 0;
  for (const auto& seg : horizon)
    max_options = std::max(max_options, seg.options.size());

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
  const double cap = buffers.cap_s();
  const double quantum = buffers.quantum_s();
  for (std::size_t b = 0; b < buckets; ++b) {
    const double level = buffers.level_of(static_cast<int>(b));
    scratch.at_request_s[b] = level - std::max(level - config_.buffer_threshold_s, 0.0);
  }

  // Per-step (bucket × option) Eq. 6 transition tables, filled once here
  // and read by both the strict and the relaxed pass: stall and next bucket
  // from bucket b under download time d. raw_next lies in [L, cap], so the
  // quantize() clamp reduces to the min(), and dividing by the quantum
  // directly reproduces bucket_of(quantize(raw_next)) without materialising
  // the level. lround stays confined to this fill; the hot sweep below only
  // reads the materialised tables.
  grow(scratch.next_bucket, h * buckets * max_options, scratch.grow_events);
  grow(scratch.stall_s, h * buckets * max_options, scratch.grow_events);
  for (std::size_t i = 0; i < h; ++i) {
    const std::size_t n_options = horizon[i].options.size();
    const double* download_s = scratch.download_s.data() + i * max_options;
    for (std::size_t b = 0; b < buckets; ++b) {
      const double at_request = scratch.at_request_s[b];
      const std::size_t row = (i * buckets + b) * max_options;
      for (std::size_t oi = 0; oi < n_options; ++oi) {
        const double d = download_s[oi];
        const double raw_next =
            std::max(at_request - d, 0.0) + config_.segment_seconds;
        scratch.stall_s[row + oi] = std::max(d - at_request, 0.0);
        scratch.next_bucket[row + oi] = static_cast<std::int32_t>(
            std::lround(std::min(raw_next, cap) / quantum));
      }
    }
  }
  // The energy sweep additionally stages its masked candidate costs.
  if (energy_mode)
    grow(scratch.cand_cost, buckets * max_options, scratch.grow_events);

  const std::size_t table_size = buckets * prev_stride;
  const std::size_t start =
      static_cast<std::size_t>(buffers.bucket_of(buffer)) * prev_stride;

  // strict = enforce no-stall + ε-constraint (energy mode); relaxed = allow
  // everything, penalise stalls — used as fallback and as the kMaxQoE mode.
  // Returns false if no complete path exists under the given strictness.
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
      // This step's transition tables, one row per bucket.
      const std::size_t table_base = i * buckets * max_options;
      const std::int32_t* nb_tab = scratch.next_bucket.data() + table_base;
      const double* stall_tab = scratch.stall_s.data() + table_base;

      if (energy_mode) {
        // Phase 1 — masked candidate costs, no branches in the loop body:
        // infeasible (strict) candidates become +inf via a select. A dead
        // frontier bucket (cost +inf) propagates +inf through the addition,
        // so no alive-check is needed either.
        if (strict) {
          for (std::size_t b = 0; b < table_size; ++b) {
            const double base = scratch.frontier_cost[b];
            const double* stall_row = stall_tab + b * max_options;
            double* cand = scratch.cand_cost.data() + b * max_options;
            for (std::size_t oi = 0; oi < n_options; ++oi) {
              const bool ok = eps_ok[oi] != 0 && stall_row[oi] == 0.0;
              cand[oi] = ok ? base + step_cost[oi] : kInf;
            }
          }
        } else {
          for (std::size_t b = 0; b < table_size; ++b) {
            const double base = scratch.frontier_cost[b];
            const double* stall_row = stall_tab + b * max_options;
            double* cand = scratch.cand_cost.data() + b * max_options;
            for (std::size_t oi = 0; oi < n_options; ++oi) {
              // Parenthesised as (step + penalty·stall) first: the exact
              // FP association of the reference implementation.
              cand[oi] = base + (step_cost[oi] +
                                 kStallPenaltyMjPerS * stall_row[oi]);
            }
          }
        }
        // Phase 2 — scatter-min with branchless selects; the lexicographic
        // (cost, root) tie-break is two selects, never a taken branch.
        for (std::size_t b = 0; b < table_size; ++b) {
          const std::int32_t node_root = scratch.frontier_root[b];
          const unsigned char node_stall = scratch.frontier_stall[b];
          const double* cand = scratch.cand_cost.data() + b * max_options;
          const std::int32_t* nb_row = nb_tab + b * max_options;
          const double* stall_row = stall_tab + b * max_options;
          for (std::size_t oi = 0; oi < n_options; ++oi) {
            const double total = cand[oi];
            const std::size_t nb = static_cast<std::size_t>(nb_row[oi]);
            const std::int32_t root =
                i == 0 ? static_cast<std::int32_t>(oi) : node_root;
            const unsigned char had =
                (node_stall != 0 || stall_row[oi] > 0.0) ? 1 : 0;
            const bool better =
                total < scratch.next_cost[nb] ||
                (total == scratch.next_cost[nb] && root < scratch.next_root[nb]);
            scratch.next_cost[nb] = better ? total : scratch.next_cost[nb];
            scratch.next_root[nb] = better ? root : scratch.next_root[nb];
            scratch.next_stall[nb] = better ? had : scratch.next_stall[nb];
          }
        }
        // Finite-min liveness: some next state survived iff any candidate
        // landed below +inf.
        double min_cost = kInf;
        for (std::size_t s = 0; s < table_size; ++s)
          min_cost = std::min(min_cost, scratch.next_cost[s]);
        any_alive = min_cost < kInf;
      } else {
        for (std::size_t state = 0; state < table_size; ++state) {
          const double node_cost = scratch.frontier_cost[state];
          // Dead prev-option slots must be skipped: their slot index can
          // exceed the previous segment's ladder, so the qo_prev read below
          // is only defined for reachable states.
          if (node_cost == kInf) continue;
          any_alive = true;  // alive state ⇒ finite candidates land below
          const std::size_t b = state / prev_stride;
          const std::size_t prev_slot = state % prev_stride;
          // Slot 0 is the virtual pre-horizon state; negative prev_qo then
          // means "no previous segment": no variation penalty on the first
          // decision of a session.
          const double qo_prev =
              prev_slot == 0 ? prev_qo : horizon[i - 1].options[prev_slot - 1].qo;
          const std::int32_t node_root = scratch.frontier_root[state];
          const unsigned char node_stall = scratch.frontier_stall[state];
          const std::int32_t* nb_row = nb_tab + b * max_options;
          const double* stall_row = stall_tab + b * max_options;
          for (std::size_t oi = 0; oi < n_options; ++oi) {
            const double stall = stall_row[oi];
            const double variation =
                qo_prev >= 0.0 ? std::fabs(step_cost[oi] - qo_prev) : 0.0;
            const double q = step_cost[oi] - config_.weights.variation * variation -
                             config_.stall_penalty_per_s * stall;
            const std::size_t next_state =
                static_cast<std::size_t>(nb_row[oi]) * prev_stride + oi + 1;
            const double total = node_cost - q;
            const std::int32_t root =
                i == 0 ? static_cast<std::int32_t>(oi) : node_root;
            const unsigned char had =
                (node_stall != 0 || stall > 0.0) ? 1 : 0;
            const bool better =
                total < scratch.next_cost[next_state] ||
                (total == scratch.next_cost[next_state] &&
                 root < scratch.next_root[next_state]);
            scratch.next_cost[next_state] =
                better ? total : scratch.next_cost[next_state];
            scratch.next_root[next_state] =
                better ? root : scratch.next_root[next_state];
            scratch.next_stall[next_state] =
                better ? had : scratch.next_stall[next_state];
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
    PS360_ASSERT(found && best_root >= 0);
    decision.choice = horizon[0].options[static_cast<std::size_t>(best_root)];
    decision.objective = best_cost;
    decision.feasible = !best_stall;
    return true;
  };

  MpcDecision decision;
  bool relaxed_fallback = false;
  if (!run(/*strict=*/energy_mode, decision)) {
    // No plan satisfies the constraints (e.g. bandwidth collapse): fall back
    // to the relaxed problem — reusing the same precomputed tables — and
    // report infeasibility.
    const bool found = run(/*strict=*/false, decision);
    PS360_ASSERT_MSG(found, "relaxed MPC must always find a plan");
    decision.feasible = false;
    relaxed_fallback = true;
  }
  if (observer_ != nullptr) {
    if (observer_->metrics != nullptr) {
      observer_->metrics->add(id_decides_);
      if (relaxed_fallback) observer_->metrics->add(id_relaxed_);
      if (!decision.feasible) observer_->metrics->add(id_infeasible_);
    }
    obs::trace(observer_, obs_session_,
               relaxed_fallback ? obs::TraceEventKind::kMpcRelaxed
                                : obs::TraceEventKind::kMpcStrict,
               static_cast<std::int64_t>(h), decision.objective);
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
  const BufferModel buffers = buffer_model_of(config_);

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
  if (energy_mode && best.root < 0) {
    best = search(/*strict=*/false);
    feasible = false;
  }
  MpcDecision decision;
  if (best.root >= 0) {
    decision.choice = horizon[0].options[static_cast<std::size_t>(best.root)];
    decision.objective = best.cost;
    decision.feasible = feasible;
  }
  return decision;
}

}  // namespace ps360::core
