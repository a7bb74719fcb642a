// The registered controller zoo: the five streaming approaches compared in
// Section V plus the competitor schemes of ROADMAP item 3, all behind one
// string-keyed factory registry (controller_info / make_scheme) so new
// controllers are drop-in rows, not switch-statement edits.
//
// In-paper (Section V):
//   Ctile   — conventional fixed 4x8 tiling; FoV tiles at the chosen quality,
//             the 23 remaining tiles at the lowest quality; four concurrent
//             decoders; QoE-maximising MPC (Yin et al. [24]).
//   Ftile   — fixed *count* of view-clustered variable-size tiles (after
//             ClusTile [12]); tiles overlapping the predicted FoV at the
//             chosen quality, the rest at the lowest; QoE-maximising MPC.
//   Nontile — the whole frame as one stream (YouTube-style); one decoder;
//             QoE-maximising MPC.
//   Ptile   — the paper's popularity tile at the original frame rate, plus
//             low-quality background blocks; one decoder; the paper's
//             energy-minimising ε-constrained MPC with F pinned to the
//             original frame rate.
//   Ours    — Ptile plus the frame-rate ladder {original, -10%, -20%, -30%};
//             the full energy-minimising ε-constrained MPC over (v, f).
//
// Competitors:
//   GhoshLP     — Ghosh/Aggarwal/Qian LP tile rate allocation
//                 (arXiv:1812.00816): per-segment budgeted quality levels
//                 for the predicted-FoV tiles, no MPC buffer control
//                 (sim/competitors.cpp).
//   GhoshRobust — the robust variant: candidate tiles weighted by the
//                 viewport-visibility probabilities from predict/visibility
//                 (sim/competitors.cpp).
//   Pano        — Pano-style perceptual objective (arXiv:1911.04139): a
//                 Ctile with the frame-rate ladder open, whose QoE-maximising
//                 MPC scales the predicted Qo by the viewport-speed/luminance
//                 sensitivity, composed with the existing S_fov frame-rate
//                 factor (sim/schemes.cpp).
//
// Every scheme but the two Ghosh allocators plans through the one MPC path,
// MpcScheme in sim/scheme_base.h.
//
// When the predicted viewport is not covered by any Ptile, Ptile/Ours fall
// back to conventional tiles at the best possible quality for that segment,
// exactly as Section IV-B prescribes.
//
// A scheme reads its knobs (H, L, β, ε, the coverage and tile rules, the
// device) from the session's one SessionConfig, SchemeEnv::session.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/mpc.h"
#include "sim/session_config.h"
#include "sim/workload.h"
#include "video/encoding.h"
#include "util/units.h"

namespace ps360::sim {

enum class SchemeKind {
  kCtile = 0,
  kFtile = 1,
  kNontile = 2,
  kPtile = 3,
  kOurs = 4,
  // Competitor zoo (ROADMAP item 3).
  kGhoshLp = 5,
  kGhoshRobust = 6,
  kPano = 7,
};
inline constexpr std::size_t kSchemeCount = 8;
// The Section V comparison set (the four baselines + Ours).
inline constexpr std::size_t kPaperSchemeCount = 5;
// Enum-count sentinel: adding a SchemeKind without growing kSchemeCount (and
// with it the registry table, a std::array<_, kSchemeCount> whose rows the
// round-trip regression test walks) fails to compile instead of drifting.
static_assert(static_cast<std::size_t>(SchemeKind::kPano) + 1 == kSchemeCount,
              "kSchemeCount must cover every SchemeKind enumerator");

// The solver a controller plans with: the Section IV-C MPC+DP, or the Ghosh
// LP allocation. kNone marks a plan that ran no solve.
enum class PlanSolver : std::uint8_t { kNone, kMpc, kLp };

// One registry row: the stable identity of a controller. The name is fixed
// at registration and independent of any configuration knob (a Ptile
// controller is "Ptile" whether or not frame adaptation is wired — results
// keyed by scheme can never be misattributed by a config flag).
struct ControllerInfo {
  SchemeKind kind = SchemeKind::kCtile;
  std::string_view name;
  bool in_paper = false;  // member of the Section V comparison set
  // What each plan() solves, and so which solver metrics an observed
  // fleet registers (fleet::run_fleet's reporter).
  PlanSolver solver = PlanSolver::kMpc;
};

// Registry lookups. All bound-checked: an out-of-range kind or unknown name
// throws std::invalid_argument instead of indexing out of bounds.
const ControllerInfo& controller_info(SchemeKind kind);
const std::string& scheme_name(SchemeKind kind);
SchemeKind scheme_kind(std::string_view name);

// The Section V comparison set, derived from the registry (in_paper rows in
// registration order) — the evaluation grid and figure benches iterate this.
std::vector<SchemeKind> all_schemes();
// Every registered controller, competitors included (registration order) —
// the tournament default.
std::vector<SchemeKind> registered_schemes();

// Shared, non-owning environment a scheme plans against; each pointee must
// outlive the scheme, which checks validated(*session, *workload).
struct SchemeEnv {
  const VideoWorkload* workload = nullptr;
  const video::EncodingModel* encoding = nullptr;
  const qoe::QoModel* qo_model = nullptr;
  const SessionConfig* session = nullptr;
};

// What a plan's one solve did. plan() emits nothing: it returns this with
// the plan, and the fleet engine reports it on the coordinator when the
// download is issued. Feasibility is DownloadPlan::mpc_feasible.
struct SolveRecord {
  PlanSolver solver = PlanSolver::kNone;  // kLp: one LP allocation
  // kMpc only: the horizon length, the DP objective, and whether the
  // strict pass failed and the relaxed one ran.
  std::size_t horizon = 0;
  double objective = 0.0;
  bool relaxed = false;
};

// What the scheme decided to download for one segment.
struct DownloadPlan {
  core::QualityOption option;   // (v, f) plus bytes / Qo / decode profile
  double frame_ratio = 1.0;     // f / fm
  bool used_ptile = false;      // Ptile/Ours: a Ptile covered the prediction
  bool mpc_feasible = true;     // false if the MPC had to relax constraints
  SolveRecord solve;
  // High-quality region for coverage evaluation:
  geometry::EquirectRect hq_region;                    // Ctile/Nontile/Ptile
  const ptile::FtileLayout* ftile_layout = nullptr;    // Ftile only
  std::vector<std::size_t> ftile_tiles;                // Ftile only
};

class Scheme {
 public:
  explicit Scheme(SchemeKind kind) : kind_(kind) {}
  virtual ~Scheme() = default;

  // Registered identity: assigned at construction by the factory registry,
  // never derived from configuration (PR 10 bugfix — kind() used to flip
  // between kPtile and kOurs on the frame_adaptation_ knob).
  SchemeKind kind() const { return kind_; }
  const std::string& name() const { return scheme_name(kind_); }

  // Plan segment k's download. `predicted` is the viewport prediction for
  // the segment's playback time, `predicted_sfov` the recent switching speed
  // (deg/s), `bandwidth` the estimated throughput, `buffer` B_k, and
  // `prev_qo` the previous segment's planned Qo. A pure function of its
  // arguments and the SchemeEnv: it emits nothing (the plan's SolveRecord
  // says what its solve did), so any thread may run it.
  virtual DownloadPlan plan(std::size_t k, const geometry::Viewport& predicted,
                            double predicted_sfov, util::BytesPerSec bandwidth,
                            util::Seconds buffer, double prev_qo) const = 0;

  // Fraction of the actual viewport the plan serves at high quality.
  virtual double coverage(const DownloadPlan& plan,
                          const geometry::Viewport& actual) const = 0;

 private:
  const SchemeKind kind_;
};

// Factory: by registered kind, or by registered name ("Ctile", "GhoshLP",
// ...). The returned scheme's kind()/name() round-trip through the registry.
std::unique_ptr<Scheme> make_scheme(SchemeKind kind, const SchemeEnv& env);
std::unique_ptr<Scheme> make_scheme(std::string_view name, const SchemeEnv& env);

}  // namespace ps360::sim
