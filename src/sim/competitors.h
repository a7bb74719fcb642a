// The competitor zoo's LP allocators (ROADMAP item 3): controllers from the
// literature the paper did not compare against, registered alongside the
// Section V schemes so the tournament harness ranks everything on equal
// footing. Pano, the zoo's MPC competitor, is a Ctile with a perceptual
// objective and lives with the other MPC schemes in schemes.cpp.
//
//   GhoshLP     — Ghosh/Aggarwal/Qian (arXiv:1812.00816): each segment's
//                 byte budget (estimated bandwidth × segment length) is
//                 allocated across the predicted-FoV tiles by a budgeted
//                 quality-level assignment; no MPC buffer control, no frame
//                 rate adaptation. The LP relaxation's optimum is integral
//                 at concave per-tile utilities, so we solve it greedily by
//                 maximum weighted marginal utility per byte (lp_allocate).
//   GhoshRobust — the robust variant (§IV of the same paper): candidate
//                 tiles are everything the viewport might touch, weighted by
//                 the visibility probabilities from predict/visibility.h, so
//                 bits hedge against prediction error instead of betting on
//                 the point estimate.
//
// Both are deterministic pure planners, same as the in-paper schemes.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "sim/schemes.h"
#include "util/units.h"

namespace ps360::sim {

// Result of the budgeted per-tile quality assignment.
struct LpAllocation {
  std::vector<int> level;  // per tile: chosen level, an index into its ladder
  double utility = 0.0;    // total weighted utility at the chosen levels
  double spent = 0.0;      // bytes spent at the chosen levels
  bool feasible = true;    // the floor (all tiles at level 0) fit the budget
};

// Allocate `budget` bytes across tiles of `levels` quality levels each, over
// flat ladders: tile i at level l costs tile_bytes[i * levels + l] and
// yields weights[i] * utility[i * levels + l] — or weights[i] * utility[l]
// when `utility` holds one ladder of `levels` values that every tile shares.
// Every tile starts at level 0 (the floor; if even that exceeds the budget
// the allocation is marked infeasible and stays at the floor). Upgrades are
// applied greedily by maximum weighted marginal utility per marginal byte —
// free-or-negative-cost upgrades with positive gain first — with ties broken
// toward the lower tile index; an upgrade that gains nothing is never taken,
// and neither is any above it. Each upgrade's cost, gain and ratio are
// computed once, when its tile reaches the level below it, and the greedy
// takes the same upgrade at every step as a rescan that re-prices them
// would. For utilities concave in bytes (per tile, increasing levels) the
// greedy solution is exactly the LP/knapsack-relaxation optimum rounded down
// to integral levels. Deterministic.
LpAllocation lp_allocate(std::span<const double> weights, std::size_t levels,
                         std::span<const double> tile_bytes,
                         std::span<const double> utility, util::Bytes budget);

// Registry factories (rows in sim/schemes.cpp's controller registry).
std::unique_ptr<Scheme> make_ghosh_lp(const VideoWorkload& workload,
                                       const SessionConfig& session);
std::unique_ptr<Scheme> make_ghosh_robust(const VideoWorkload& workload,
                                           const SessionConfig& session);

}  // namespace ps360::sim
