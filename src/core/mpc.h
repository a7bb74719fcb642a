// The model-predictive streaming controller — Section IV-C of the paper.
//
// Every segment, the client:
//   (a) reads the buffer level and the metadata of the next H segments,
//   (b) predicts bandwidth (harmonic mean, predict::HarmonicMeanEstimator),
//   (c) solves the finite-horizon optimization of Eq. 8 by dynamic
//       programming over discretised buffer states (500 ms granularity),
//   (d) downloads segment k at the (v, f) the solution prescribes,
//   (e) slides the window forward.
//
// Two objectives share the machinery:
//   * kMinEnergyQoEConstrained — the paper's problem: minimise Σ E(T_k^{v,f})
//     subject to no rebuffering (Eq. 6-7), one version per segment (8b), and
//     the ε-constraint Q(v,f) >= (1-ε) Q(vm,fm) (8c), where (vm,fm) is the
//     best version the estimated bandwidth could sustain.
//   * kMaxQoE — the conventional MPC baseline (Yin et al. [24]) the Ctile /
//     Ftile / Nontile / Ptile schemes run: maximise Σ Q with the Eq. 2
//     variation and rebuffer penalties.
//
// The DP state is (buffer level, last chosen option); the transition follows
// the buffer evolution of Eq. 6 exactly, including the pre-request wait
// Δt = max(B - β, 0). Complexity O(H · states · V · F), as in the paper.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/observer.h"
#include "power/device_models.h"
#include "power/energy.h"
#include "qoe/qoe_model.h"
#include "util/units.h"

namespace ps360::core {

// One downloadable version of a segment: the (v, f) tuple plus everything
// the controller needs to evaluate it.
struct QualityOption {
  int quality = 1;               // bitrate level v in [1, V]
  std::size_t frame_index = 1;   // frame-rate ladder index (max = original)
  double fps = 30.0;             // decoded/rendered frame rate
  double bytes = 0.0;            // segment size at this version
  double qo = 0.0;               // predicted perceived quality Qo (Eq. 3+4)
  power::DecodeProfile profile = power::DecodeProfile::kPtile;
};

// The candidate versions of one future segment. Options must be non-empty.
struct SegmentChoices {
  std::vector<QualityOption> options;
};

enum class MpcObjective { kMaxQoE, kMinEnergyQoEConstrained };

struct MpcConfig {
  double segment_seconds = 1.0;    // L
  double buffer_threshold_s = 3.0; // β
  double buffer_quantum_s = 0.5;   // DP discretisation (paper: 500 ms)
  double epsilon = 0.05;           // QoE loss tolerance of constraint (8c)
  qoe::QoEWeights weights;         // (ω_v, ω_r) for the QoE objective
  // Penalty per second of stall in the kMaxQoE objective (in Q units); the
  // energy objective treats stalls as infeasible instead.
  double stall_penalty_per_s = 150.0;
};

struct MpcDecision {
  QualityOption choice;      // what to download for the head segment
  bool feasible = false;     // false if every plan stalls (choice = fallback)
  double objective = 0.0;    // optimal DP objective over the horizon
};

// Flat scratch arena for the DP solver, owned by the controller and reused
// across decide() calls so the steady state performs zero heap allocations.
// Layouts (all flattened, row-major):
//   per (segment, option):  [segment * option_stride + option]
//   per (bucket, option):   [bucket * option_stride + option]  (one step)
//   DP frontier:            [bucket * prev_stride + prev_option + 1]
// In kMinEnergyQoEConstrained mode the step cost does not depend on the
// previous option, so prev_stride collapses to 1 and the frontier shrinks by
// a factor of |options|. The frontier is structure-of-arrays — parallel
// cost / root / stall vectors instead of an array of nodes — so the cost
// sweep reads and writes contiguous doubles the compiler can vectorise (see
// the branch-free sweep in mpc.cpp). Internal: the only stable surface is
// the observability accessors on MpcController.
struct MpcScratch {
  // Per-option invariants of one decide() call (independent of DP state).
  std::vector<double> step_cost;        // energy mJ, or raw qo in kMaxQoE mode
  std::vector<double> download_s;       // bytes / estimated bandwidth
  std::vector<unsigned char> eps_ok;    // constraint (8c) feasibility
  std::vector<double> q_ref;            // per-segment reference quality
  // Buffer level available at request time per bucket (Eq. 6 Δt applied).
  std::vector<double> at_request_s;
  // Quantized Eq. 6 transition tables, one (bucket × option) slot per
  // horizon step (slot i at offset i · buckets · max_options), filled once
  // per decide() call before the strict and relaxed passes read them: each
  // bucket row is shared by every prev-option slot in kMaxQoE mode and feeds
  // the two-phase masked sweep in energy mode.
  std::vector<std::int32_t> next_bucket;
  std::vector<double> stall_s;
  // Energy-mode phase-1 candidate costs per (bucket, option): masked to
  // +inf where strict constraints fail, so phase 2 is a pure min-scatter.
  std::vector<double> cand_cost;
  // Dense DP frontier tables (double-buffered, structure-of-arrays): the
  // minimal cost to reach each state, the option chosen at horizon[0] on
  // that minimal path, and whether that path stalled.
  std::vector<double> frontier_cost;
  std::vector<double> next_cost;
  std::vector<std::int32_t> frontier_root;
  std::vector<std::int32_t> next_root;
  std::vector<unsigned char> frontier_stall;
  std::vector<unsigned char> next_stall;

  // Bytes currently reserved across all vectors, and how many times any of
  // them had to grow — each vector that grows within one decide() counts as
  // its own growth event. Stable values across repeated same-shaped decide()
  // calls are the observable "zero allocations in steady state" contract.
  std::size_t capacity_bytes() const;
  std::uint64_t grow_events = 0;
};

class MpcController {
 public:
  MpcController(MpcConfig config, const power::DeviceModel& device,
                MpcObjective objective);

  const MpcConfig& config() const { return config_; }
  MpcObjective objective() const { return objective_; }

  // Energy of one option under the bandwidth estimate (Eq. 1).
  power::SegmentEnergy option_energy(const QualityOption& option,
                                     util::BytesPerSec bandwidth) const;

  // Solve the horizon. horizon[0] is the segment about to be requested;
  // buffer_s is B_k; prev_qo is Qo_{k-1} for the variation term.
  MpcDecision decide(const std::vector<SegmentChoices>& horizon,
                     util::BytesPerSec bandwidth, util::Seconds buffer,
                     double prev_qo) const;

  // Exhaustive-search reference implementation (exponential in H); used by
  // tests to validate the DP. Semantics identical to decide().
  MpcDecision decide_exhaustive(const std::vector<SegmentChoices>& horizon,
                                util::BytesPerSec bandwidth,
                                util::Seconds buffer, double prev_qo) const;

  // Scratch-arena observability (see MpcScratch): total reserved bytes and
  // the number of reallocation events so far. After a warm-up decide() call,
  // both stay constant for repeated calls of the same horizon shape.
  std::size_t scratch_capacity_bytes() const { return scratch_.capacity_bytes(); }
  std::uint64_t scratch_grow_events() const { return scratch_.grow_events; }

  // Attach a nullable metrics/trace observer (obs/observer.h). `session`
  // labels the trace records. decide() then counts solves and strict-vs-
  // relaxed outcomes (the Eq. 8c ε-constraint forcing a fallback is the
  // signal this exposes); observation is write-only and never alters the
  // decision — the observer-inertness differential test pins this.
  void set_observer(obs::Observer* observer, std::uint32_t session);

 private:
  // Fill q_ref[i] with the constraint-(8c) reference quality of horizon[i].
  // Shared by decide() and decide_exhaustive() so the ε-constraint anchor
  // cannot drift between the two implementations.
  void reference_qualities(const std::vector<SegmentChoices>& horizon,
                           util::BytesPerSec bandwidth,
                           std::vector<double>& q_ref) const;

  MpcConfig config_;
  const power::DeviceModel* device_;
  MpcObjective objective_;
  // decide() is logically const but reuses this arena; a single controller
  // must therefore not run decide() concurrently from multiple threads
  // (sessions and benches each own their controllers, so this holds today).
  mutable MpcScratch scratch_;

  // Nullable observer plus the metric ids registered at attach time, so the
  // instrumented hot path is an index-add, never a name lookup.
  obs::Observer* observer_ = nullptr;
  std::uint32_t obs_session_ = 0;
  obs::MetricsRegistry::Id id_decides_ = 0;
  obs::MetricsRegistry::Id id_relaxed_ = 0;
  obs::MetricsRegistry::Id id_infeasible_ = 0;
};

// Reference quality for constraint (8c): the highest-(v,f) option the
// bandwidth can *sustain* — i.e. whose download takes no longer than
// `budget_seconds` (one segment duration: any more and the buffer drains a
// little every segment until it stalls). Falls back to the cheapest option
// if none qualifies.
const QualityOption& reference_option(const SegmentChoices& choices,
                                      util::BytesPerSec bandwidth,
                                      util::Seconds budget);

}  // namespace ps360::core
