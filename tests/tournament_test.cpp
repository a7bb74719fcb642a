// Tournament + controller-registry tests (ISSUE 10):
//  * Registry round-trip: every entry survives make -> name -> make with a
//    stable, config-independent identity (the headline bugfix — Ptile's
//    kind() used to flip between kPtile and kOurs on frame_adaptation_),
//    all_schemes()/registered_schemes() derive from the registry, and
//    out-of-range kinds / unknown names throw instead of misindexing.
//  * lp_allocate: hand-computed fixtures plus an exhaustive-search sweep
//    (concave utilities, budget ramp) pin the Ghosh allocator's optimality,
//    floor handling, and lower-tile-index tie-breaking; a seeded battery pins
//    it bit for bit to the rescanning greedy it replaced.
//  * Hook forwarding audit: for every registered controller, observer-on is
//    bit-identical to observer-off (the observer inertness guarantee), and
//    the attached observer actually receives the controller's solve
//    counters — forwarding is neither results-altering nor silently dropped.
//  * Tournament determinism: same seed => byte-identical ranked report
//    across PS360_THREADS in {1, 2, 8, hw} and shards in {0, 1, 4}; report
//    shape, rank permutation, and borda arithmetic hold, and a cell's
//    failure reaches the caller from the cell pool.
//  * Tournament golden: every cell's FleetMetrics and every standing of the
//    default report (the --quick matrix in unoptimized builds) pinned bit
//    for bit in tests/data/tournament_golden.csv.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/observer.h"
#include "sim/competitors.h"
#include "sim/session.h"
#include "sim/tournament.h"
#include "trace/video_catalog.h"
#include "util/rng.h"
#include "util/worker_pool.h"

#include "ghosh_reference.h"
#include "test_support.h"

namespace ps360::sim {
namespace {

// Short clip so per-scheme session sims stay quick.
const VideoWorkload& tiny_workload() {
  static const VideoWorkload workload = [] {
    trace::VideoInfo video = trace::test_videos()[5];
    video.duration_s = 30.0;
    return VideoWorkload(video, WorkloadConfig{});
  }();
  return workload;
}

const trace::NetworkTrace& paper_trace1() {
  static const trace::NetworkTrace t =
      trace::make_paper_traces(7, util::Seconds(120.0)).first;
  return t;
}

using test::ScopedThreadsEnv;

// ------------------------------------------------------------ Registry

TEST(ControllerRegistryTest, EveryEntryRoundTripsMakeNameMake) {
  const VideoWorkload& workload = tiny_workload();
  const SessionConfig session;
  const auto kinds = registered_schemes();
  ASSERT_EQ(kinds.size(), kSchemeCount);
  std::set<std::string> names;
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    // Registration order is enum order — accessors index by enum value.
    EXPECT_EQ(static_cast<std::size_t>(kinds[i]), i);
    const ControllerInfo& info = controller_info(kinds[i]);
    EXPECT_EQ(info.kind, kinds[i]);
    EXPECT_EQ(info.name, scheme_name(kinds[i]));
    EXPECT_TRUE(names.insert(scheme_name(kinds[i])).second)
        << "duplicate registered name " << scheme_name(kinds[i]);

    // make -> name -> make: identity survives both factory paths.
    const auto by_kind = make_scheme(kinds[i], workload, session);
    EXPECT_EQ(by_kind->kind(), kinds[i]);
    EXPECT_EQ(by_kind->name(), scheme_name(kinds[i]));
    const auto by_name = make_scheme(by_kind->name(), workload, session);
    EXPECT_EQ(by_name->kind(), kinds[i]);
  }
}

TEST(ControllerRegistryTest, IdentityIsIndependentOfConfiguration) {
  // The headline ISSUE 10 bug: PtileScheme::kind() used to return kOurs or
  // kPtile depending on its frame_adaptation_ flag. Identity is now assigned
  // by the registry at construction: the two registry rows that share the
  // PtileScheme implementation keep distinct, stable kinds.
  const VideoWorkload& workload = tiny_workload();
  const SessionConfig session;
  EXPECT_EQ(make_scheme(SchemeKind::kPtile, workload, session)->kind(), SchemeKind::kPtile);
  EXPECT_EQ(make_scheme(SchemeKind::kOurs, workload, session)->kind(), SchemeKind::kOurs);
  EXPECT_EQ(make_scheme("Ptile", workload, session)->name(), "Ptile");
  EXPECT_EQ(make_scheme("Ours", workload, session)->name(), "Ours");
}

TEST(ControllerRegistryTest, InPaperSubsetIsAllSchemes) {
  const auto paper = all_schemes();
  ASSERT_EQ(paper.size(), kPaperSchemeCount);
  for (const SchemeKind kind : paper) EXPECT_TRUE(controller_info(kind).in_paper);
  // Competitors are registered but not in the Section V comparison set.
  for (const SchemeKind kind :
       {SchemeKind::kGhoshLp, SchemeKind::kGhoshRobust, SchemeKind::kPano}) {
    EXPECT_FALSE(controller_info(kind).in_paper);
  }
}

TEST(ControllerRegistryTest, UnknownKindOrNameThrows) {
  const VideoWorkload& workload = tiny_workload();
  const SessionConfig session;
  EXPECT_THROW(scheme_name(static_cast<SchemeKind>(99)), std::invalid_argument);
  EXPECT_THROW(controller_info(static_cast<SchemeKind>(99)), std::invalid_argument);
  EXPECT_THROW(make_scheme(static_cast<SchemeKind>(99), workload, session),
               std::invalid_argument);
  EXPECT_THROW(scheme_kind("NoSuchScheme"), std::invalid_argument);
  EXPECT_THROW(make_scheme("NoSuchScheme", workload, session), std::invalid_argument);
}

// ---------------------------------------------------------- lp_allocate

// Exhaustive search over all level combinations (tiny fixtures only).
double exhaustive_best_utility(const std::vector<double>& weights,
                               const std::vector<std::vector<double>>& bytes,
                               const std::vector<std::vector<double>>& utility,
                               double budget) {
  const std::size_t n = weights.size();
  std::vector<std::size_t> level(n, 0);
  double best = -1.0;
  for (;;) {
    double cost = 0.0, value = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      cost += bytes[i][level[i]];
      value += weights[i] * utility[i][level[i]];
    }
    if (cost <= budget && value > best) best = value;
    std::size_t i = 0;
    while (i < n && ++level[i] == bytes[i].size()) level[i++] = 0;
    if (i == n) break;
  }
  return best;
}

std::vector<double> flatten(const std::vector<std::vector<double>>& ladders) {
  std::vector<double> flat;
  for (const std::vector<double>& ladder : ladders)
    flat.insert(flat.end(), ladder.begin(), ladder.end());
  return flat;
}

// lp_allocate on the fixtures' nested per-tile ladders, flattened.
LpAllocation allocate(const std::vector<double>& weights,
                      const std::vector<std::vector<double>>& bytes,
                      const std::vector<std::vector<double>>& utility, double budget) {
  return lp_allocate(weights, bytes.front().size(), flatten(bytes), flatten(utility),
                     util::Bytes(budget));
}

TEST(LpAllocateTest, HandComputedFixture) {
  // Three identical tiles (levels cost 1/3/6 bytes for utility 0/10/16),
  // weights 1.0/2.0/0.5, budget 10. Floor costs 3; the weighted gain/byte
  // ladder is then tile 1 L1 (20/2 = 10.0), tile 0 L1 (10/2 = 5.0), tile 1
  // L2 (12/3 = 4.0) — spending 3 + 2 + 2 + 3 = 10, the exact budget — and
  // tile 2 never upgrades (2.5/byte but no bytes left).
  const std::vector<double> weights = {1.0, 2.0, 0.5};
  const std::vector<std::vector<double>> bytes = {{1, 3, 6}, {1, 3, 6}, {1, 3, 6}};
  const std::vector<std::vector<double>> utility = {{0, 10, 16}, {0, 10, 16}, {0, 10, 16}};
  const LpAllocation alloc = allocate(weights, bytes, utility, 10.0);
  EXPECT_TRUE(alloc.feasible);
  EXPECT_EQ(alloc.level, (std::vector<int>{1, 2, 0}));
  EXPECT_DOUBLE_EQ(alloc.utility, 1.0 * 10 + 2.0 * 16 + 0.5 * 0);
  EXPECT_DOUBLE_EQ(alloc.spent, 10.0);
}

TEST(LpAllocateTest, MatchesExhaustiveSearchAcrossBudgets) {
  // Concave per-tile utilities with per-tile decreasing gain/cost ratios —
  // the regime where the greedy solution equals the LP optimum.
  const std::vector<double> weights = {1.0, 1.7, 0.6};
  const std::vector<std::vector<double>> bytes = {
      {2, 5, 11, 20}, {1, 4, 9, 17}, {3, 7, 14, 24}};
  const std::vector<std::vector<double>> utility = {
      {0, 9, 15, 18}, {0, 8, 13, 15}, {0, 10, 17, 21}};
  for (double budget = 6.0; budget <= 62.0; budget += 1.0) {
    const LpAllocation alloc = allocate(weights, bytes, utility, budget);
    ASSERT_TRUE(alloc.feasible) << "budget " << budget;
    const double best = exhaustive_best_utility(weights, bytes, utility, budget);
    EXPECT_NEAR(alloc.utility, best, 1e-9) << "budget " << budget;
    EXPECT_LE(alloc.spent, budget + 1e-9);
  }
}

TEST(LpAllocateTest, InfeasibleFloorStaysAtFloor) {
  const std::vector<double> weights = {1.0, 1.0};
  const std::vector<std::vector<double>> bytes = {{5, 9}, {5, 9}};
  const std::vector<std::vector<double>> utility = {{0, 4}, {0, 4}};
  const LpAllocation alloc = allocate(weights, bytes, utility, 7.0);
  EXPECT_FALSE(alloc.feasible);
  EXPECT_EQ(alloc.level, (std::vector<int>{0, 0}));
  EXPECT_DOUBLE_EQ(alloc.spent, 10.0);
}

TEST(LpAllocateTest, TiesBreakTowardLowerTileIndex) {
  // Identical tiles, budget for exactly one upgrade: tile 0 gets it.
  const std::vector<double> weights = {1.0, 1.0};
  const std::vector<std::vector<double>> bytes = {{1, 3}, {1, 3}};
  const std::vector<std::vector<double>> utility = {{0, 5}, {0, 5}};
  const LpAllocation alloc = allocate(weights, bytes, utility, 4.0);
  EXPECT_EQ(alloc.level, (std::vector<int>{1, 0}));
}

TEST(LpAllocateTest, FreeUpgradesAlwaysTaken) {
  // A level that shrinks bytes while gaining utility must be taken even at
  // budget == floor cost.
  const std::vector<double> weights = {1.0};
  const std::vector<std::vector<double>> bytes = {{4, 3}};
  const std::vector<std::vector<double>> utility = {{0, 2}};
  const LpAllocation alloc = allocate(weights, bytes, utility, 4.0);
  EXPECT_EQ(alloc.level, (std::vector<int>{1}));
  EXPECT_DOUBLE_EQ(alloc.spent, 3.0);
}

TEST(LpAllocateTest, SharedUtilityLadderMatchesPerTileCopies) {
  const std::vector<double> weights = {1.0, 1.7, 0.6};
  const std::vector<std::vector<double>> bytes = {
      {2, 5, 11, 20}, {1, 4, 9, 17}, {3, 7, 14, 24}};
  const std::vector<double> ladder = {0, 9, 15, 18};
  for (double budget = 6.0; budget <= 62.0; budget += 1.0) {
    const LpAllocation shared =
        lp_allocate(weights, 4, flatten(bytes), ladder, util::Bytes(budget));
    const LpAllocation copies = allocate(weights, bytes, {ladder, ladder, ladder}, budget);
    EXPECT_EQ(shared.level, copies.level) << "budget " << budget;
    EXPECT_EQ(shared.spent, copies.spent) << "budget " << budget;
    EXPECT_EQ(shared.utility, copies.utility) << "budget " << budget;
  }
}

TEST(LpAllocateTest, RejectsMismatchedLadders) {
  const std::vector<double> weights = {1.0, 1.0};
  const std::vector<double> bytes = {1, 3, 1, 3};
  EXPECT_THROW(lp_allocate(weights, 3, bytes, std::vector<double>{0, 5, 6},
                           util::Bytes(4.0)),
               std::invalid_argument);
  EXPECT_THROW(lp_allocate(weights, 2, bytes, std::vector<double>{0, 5, 6},
                           util::Bytes(4.0)),
               std::invalid_argument);
  EXPECT_THROW(lp_allocate(weights, 0, std::vector<double>{}, std::vector<double>{},
                           util::Bytes(4.0)),
               std::invalid_argument);
}

// lp_allocate prices each upgrade once and drops closed tiles from its
// scan; pinned bit for bit (level, spent, utility, feasible) to the
// nested-vector greedy that re-priced every upgrade on each rescan
// (tests/ghosh_reference.h). The seeded battery mixes shared and per-tile
// utility ladders, negative- and zero-cost upgrades, non-positive gains,
// equal ratios from coarse integer ladders, zero weights, infeasible floors
// and budgets equal to partial sums of the ladders.
TEST(LpAllocateTest, MatchesRescanningReferenceBitForBit) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  util::Rng rng(0x1A5Bu);
  std::size_t upgraded = 0, infeasible = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    const std::size_t n = rng.uniform_index(34);
    const std::size_t levels = 1 + rng.uniform_index(6);
    const bool coarse = rng.bernoulli(0.5);  // integer ladders: equal ratios
    const auto step = [&](double lo, double hi) {
      return coarse ? std::floor(rng.uniform(lo, hi)) : rng.uniform(lo, hi);
    };
    std::vector<double> weights(n);
    std::vector<std::vector<double>> bytes(n), utility(n);
    for (std::size_t i = 0; i < n; ++i) {
      weights[i] = rng.bernoulli(0.1) ? 0.0 : rng.bernoulli(0.3) ? 1.0 : step(0.0, 3.0);
      double b = step(0.0, 20.0), u = step(0.0, 10.0);
      for (std::size_t l = 0; l < levels; ++l) {
        bytes[i].push_back(b);
        utility[i].push_back(u);
        // Mostly costlier and better; sometimes free, cheaper or no better.
        b += rng.bernoulli(0.15) ? -step(0.0, 6.0) : rng.bernoulli(0.1) ? 0.0 : step(0.0, 30.0);
        u += rng.bernoulli(0.15) ? -step(0.0, 4.0) : rng.bernoulli(0.1) ? 0.0 : step(0.0, 12.0);
      }
    }
    const bool shared = n > 0 && rng.bernoulli(0.5);
    if (shared) {
      for (std::size_t i = 1; i < n; ++i) utility[i] = utility[0];
    }
    // The floor, a partial sum of ladder costs, a draw, or below the floor.
    double floor = 0.0;
    for (std::size_t i = 0; i < n; ++i) floor += bytes[i][0];
    double budget = 0.0;
    switch (rng.uniform_index(4)) {
      case 0:
        budget = floor;
        break;
      case 1: {
        budget = floor;
        for (std::size_t i = 0; i < n; ++i) {
          const std::size_t top = rng.uniform_index(levels);
          budget += bytes[i][top] - bytes[i][0];
        }
        break;
      }
      case 2:
        budget = rng.uniform(0.0, 2.0 * floor + 100.0);
        break;
      default:
        budget = floor - step(1.0, 10.0);
        break;
    }
    budget = std::max(budget, 0.0);

    const std::vector<double> flat_utility = shared ? utility.front() : flatten(utility);
    const LpAllocation got =
        lp_allocate(weights, levels, flatten(bytes), flat_utility, util::Bytes(budget));
    const LpAllocation want =
        reference::lp_allocate(weights, bytes, utility, util::Bytes(budget));
    const std::string where = "trial " + std::to_string(trial);
    ASSERT_EQ(got.level, want.level) << where;
    ASSERT_EQ(bits(got.spent), bits(want.spent)) << where;
    ASSERT_EQ(bits(got.utility), bits(want.utility)) << where;
    ASSERT_EQ(got.feasible, want.feasible) << where;
    for (const int level : got.level) upgraded += level > 0 ? 1 : 0;
    infeasible += got.feasible ? 0 : 1;
  }
  // The battery reached both outcomes.
  EXPECT_GT(upgraded, 1000u);
  EXPECT_GT(infeasible, 100u);
}

// ------------------------------------------------- Hook-forwarding audit

// Per-segment fingerprint of everything accounting derives from planning.
std::vector<double> fingerprint(const SessionResult& result) {
  std::vector<double> out;
  for (const SegmentRecord& record : result.segments) {
    out.push_back(static_cast<double>(record.quality));
    out.push_back(static_cast<double>(record.frame_index));
    out.push_back(record.bytes);
    out.push_back(record.download_s);
    out.push_back(record.stall_s);
    out.push_back(record.coverage);
    out.push_back(record.energy.total_mj());
    out.push_back(record.qoe.qo);
  }
  out.push_back(result.energy.total_mj());
  out.push_back(result.qoe.mean_q);
  return out;
}

TEST(HookForwardingTest, ObserverIsInertForEveryScheme) {
  SessionConfig config;
  for (const SchemeKind kind : registered_schemes()) {
    SCOPED_TRACE(scheme_name(kind));
    const SessionResult plain = simulate_session(tiny_workload(), 0, kind,
                                                 paper_trace1(), config);
    ASSERT_FALSE(plain.segments.empty());
    const std::vector<double> expected = fingerprint(plain);

    // Observer arm: bit-identical results, and the solve counters the
    // client publishes actually arrive for every registry entry, under
    // exactly the names of the scheme's solver: the six MPC schemes register
    // the three mpc.* counters and no lp.allocations, the two Ghosh
    // allocators the reverse.
    obs::MetricsRegistry metrics;
    obs::Observer observer{&metrics, nullptr};
    const SessionResult observed = simulate_session(tiny_workload(), 0, kind,
                                                    paper_trace1(), config, &observer);
    EXPECT_EQ(fingerprint(observed), expected);
    const bool lp = kind == SchemeKind::kGhoshLp || kind == SchemeKind::kGhoshRobust;
    EXPECT_EQ(metrics.has("lp.allocations"), lp);
    for (const char* name : {"mpc.decides", "mpc.relaxed_fallbacks", "mpc.infeasible"})
      EXPECT_EQ(metrics.has(name), !lp) << name;
    const double segments = static_cast<double>(plain.segments.size());
    EXPECT_EQ(metrics.value(lp ? "lp.allocations" : "mpc.decides"), segments);
  }
}

// ------------------------------------------------------------ Tournament

TournamentConfig tiny_tournament() {
  TournamentConfig config;
  config.video_duration_s = 8.0;
  config.trace_duration_s = 60.0;
  config.fleet_sizes = {2, 3};
  return config;  // schemes/traces/faults default: 8 x 2 x 2
}

TEST(TournamentTest, ReportShapeRanksAndBorda) {
  const TournamentReport report = run_tournament(tiny_tournament());
  const std::size_t n = kSchemeCount;
  const std::size_t groups = 2 * 2 * 2;  // traces x faults x sizes
  ASSERT_EQ(report.standings.size(), n);
  ASSERT_EQ(report.cells.size(), n * groups);

  std::set<std::size_t> ranks;
  std::set<SchemeKind> schemes;
  double prev_borda = 0.0;
  for (std::size_t i = 0; i < report.standings.size(); ++i) {
    const TournamentStanding& s = report.standings[i];
    EXPECT_TRUE(ranks.insert(s.rank).second);
    EXPECT_TRUE(schemes.insert(s.scheme).second);
    EXPECT_EQ(s.rank, i + 1);
    EXPECT_DOUBLE_EQ(s.borda, s.energy_rank + s.qoe_rank + s.stall_rank);
    EXPECT_GE(s.energy_rank, 1.0);
    EXPECT_LE(s.energy_rank, static_cast<double>(n));
    if (i > 0) {
      EXPECT_GE(s.borda, prev_borda);
    }
    prev_borda = s.borda;
    EXPECT_GT(s.mean_energy_mj, 0.0);
    EXPECT_GE(s.mean_stall_ratio, 0.0);
  }
  // Cells are in grid order (trace, fault profile, fleet size, scheme),
  // whatever order the cell pool ran them in: every scheme appears once per
  // environment group, and each group is one (trace, faults, size).
  const TournamentConfig config = tiny_tournament();
  const auto profiles = default_fault_profiles();
  for (std::size_t g = 0; g < groups; ++g) {
    for (std::size_t s = 0; s < n; ++s) {
      const TournamentCell& cell = report.cells[g * n + s];
      EXPECT_EQ(cell.scheme, registered_schemes()[s]);
      EXPECT_EQ(cell.trace_id, config.trace_ids[g / 4]);
      EXPECT_EQ(cell.fault_profile, profiles[g / 2 % 2].name);
      EXPECT_EQ(cell.sessions, config.fleet_sizes[g % 2]);
      EXPECT_EQ(cell.metrics.sessions, cell.sessions);
    }
  }
}

TEST(TournamentTest, ByteIdenticalAcrossThreadAndShardCounts) {
  // PS360_THREADS caps the threads the cells run on, and at 1 keeps every
  // fleet serial; the serial baseline runs the cells in grid order. The
  // pool is sized once, by the first call that can use a second thread, so
  // the serial arms come first and must leave it unsized: the hardware arm
  // then sizes it, and the later arms cap it per call.
  TournamentConfig config = tiny_tournament();
  std::string baseline;
  {
    const ScopedThreadsEnv env("1");
    config.shards = 1;
    baseline = run_tournament(config).to_json();
  }
  ASSERT_FALSE(baseline.empty());

  const char* thread_arms[] = {"1", nullptr, "2", "8"};  // nullptr = hardware
  const std::size_t shard_arms[] = {0, 1, 4};            // 1 is serial
  for (const char* threads : thread_arms) {
    for (const std::size_t shards : shard_arms) {
      const ScopedThreadsEnv env(threads);
      config.shards = shards;
      const std::string arm = std::string("threads=") +
                              (threads != nullptr ? threads : "hw") +
                              " shards=" + std::to_string(shards);
      EXPECT_EQ(run_tournament(config).to_json(), baseline) << arm;
      // A threaded arm ran on workers, not on a pool a serial arm sized.
      if (util::resolve_thread_count() > 1) {
        EXPECT_GT(util::pool_workers(), 0u) << arm;
      }
    }
  }
}

TEST(TournamentTest, CellFailureReachesTheCaller) {
  // run_fleet rejects the config inside every cell; the pool must hand the
  // rejection to the caller, never std::terminate.
  TournamentConfig config = tiny_tournament();
  config.session.mpc.buffer_quantum_s = 1e-9;
  const ScopedThreadsEnv env("4");
  try {
    run_tournament(config);
    ADD_FAILURE() << "run_tournament accepted mpc.buffer_quantum_s = 1e-9";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("mpc.buffer_quantum_s"), std::string::npos)
        << e.what();
  }
}

// A non-finite video or trace duration is rejected naming its field, before
// any workload or trace is built from it.
TEST(TournamentTest, RejectsNonFiniteDurations) {
  for (const double bad : {std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
    for (const std::string field : {"video_duration_s", "trace_duration_s"}) {
      TournamentConfig config = tiny_tournament();
      (field == "video_duration_s" ? config.video_duration_s : config.trace_duration_s) = bad;
      try {
        run_tournament(config);
        ADD_FAILURE() << "accepted " << field << " = " << bad;
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(field + " must be finite"), std::string::npos)
            << e.what();
      }
    }
  }
}

TEST(TournamentTest, GroupSeedsAreSchemeInvariant) {
  // Fairness: restricting the field must not change the surviving schemes'
  // cell metrics — each group's fleet seed and link depend only on the
  // environment, never on which schemes entered.
  TournamentConfig full = tiny_tournament();
  full.fleet_sizes = {2};
  full.trace_ids = {1};
  const TournamentReport all = run_tournament(full);

  TournamentConfig pair = full;
  pair.schemes = {SchemeKind::kOurs, SchemeKind::kGhoshLp};
  const TournamentReport two = run_tournament(pair);

  for (const TournamentCell& cell : two.cells) {
    bool matched = false;
    for (const TournamentCell& ref : all.cells) {
      if (ref.scheme == cell.scheme && ref.trace_id == cell.trace_id &&
          ref.fault_profile == cell.fault_profile && ref.sessions == cell.sessions) {
        EXPECT_EQ(ref.metrics.energy_per_session_mj,
                  cell.metrics.energy_per_session_mj);
        EXPECT_EQ(ref.metrics.mean_qoe, cell.metrics.mean_qoe);
        EXPECT_EQ(ref.metrics.stall_ratio, cell.metrics.stall_ratio);
        matched = true;
      }
    }
    EXPECT_TRUE(matched);
  }
}

// A scheme entered twice would rank against itself: identical play, two
// different ranks.
TEST(TournamentTest, RejectsADuplicateScheme) {
  TournamentConfig config = tiny_tournament();
  config.schemes = {SchemeKind::kOurs, SchemeKind::kOurs, SchemeKind::kCtile};
  try {
    run_tournament(config);
    ADD_FAILURE() << "run_tournament accepted Ours twice";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("Ours"), std::string::npos) << e.what();
  }
}

// The fault environment comes from default_fault_profiles() alone: a fault
// setting on the session template would be replaced in every cell, so it is
// rejected by name instead of running "clean" cells clean anyway.
TEST(TournamentTest, RejectsFaultsOnTheSessionTemplate) {
  TournamentConfig config = tiny_tournament();
  config.session.faults.enabled = true;
  try {
    run_tournament(config);
    ADD_FAILURE() << "accepted session.faults.enabled";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("session.faults.enabled"), std::string::npos) << what;
    EXPECT_NE(what.find("default_fault_profiles()"), std::string::npos) << what;
  }
}

TEST(TournamentTest, ValidatesConfig) {
  TournamentConfig config = tiny_tournament();
  config.trace_ids = {3};
  EXPECT_THROW(run_tournament(config), std::invalid_argument);
  config = tiny_tournament();
  config.fleet_sizes = {0};
  EXPECT_THROW(run_tournament(config), std::invalid_argument);
  config = tiny_tournament();
  config.video_index = 99;
  EXPECT_THROW(run_tournament(config), std::invalid_argument);
}

// ------------------------------------------------------ Tournament golden

// Pins the tournament report across commits: TournamentTest compares runs of
// one build, so it cannot see a change that moves every run alike.
// tests/data/tournament_golden.csv holds one `config,key,value` line per
// number, precision-17 (exact round trip): every cell's FleetMetrics and
// every standing, in report order. An optimized build runs the default
// config (examples/tournament); an unoptimized one (Debug, sanitizers,
// coverage) runs the --quick matrix. To regenerate deliberately, run
// tournament_test --gtest_filter='TournamentGoldenTest.*' in an optimized
// build with PS360_TOURNAMENT_GOLDEN_OUT=tests/data/tournament_golden.csv
// (it writes both configs' rows) and review the diff: any moved line is an
// output change.
#if defined(__OPTIMIZE__)
constexpr bool kFullTournament = true;
#else
constexpr bool kFullTournament = false;
#endif

std::string golden_number(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::vector<std::string> tournament_golden_lines(bool quick) {
  TournamentConfig config;
  if (quick) {  // examples/tournament --quick
    config.fleet_sizes = {2, 3};
    config.video_duration_s = 10.0;
  }
  const TournamentReport report = run_tournament(config);
  const std::string mode = quick ? "quick" : "full";
  std::vector<std::string> lines;
  const auto add = [&](const std::string& key, const std::string& value) {
    lines.push_back(mode + "," + key + "," + value);
  };
  for (std::size_t i = 0; i < report.cells.size(); ++i) {
    const TournamentCell& cell = report.cells[i];
    const fleet::FleetMetrics& m = cell.metrics;
    const std::string key = "cell." + std::to_string(i) + "." + scheme_name(cell.scheme) +
                            ".t" + std::to_string(cell.trace_id) + "." +
                            cell.fault_profile + ".n" + std::to_string(cell.sessions) + ".";
    add(key + "sessions", std::to_string(m.sessions));
    add(key + "energy_per_session_mj", golden_number(m.energy_per_session_mj));
    add(key + "p50_energy_mj", golden_number(m.p50_energy_mj));
    add(key + "p95_energy_mj", golden_number(m.p95_energy_mj));
    add(key + "mean_qoe", golden_number(m.mean_qoe));
    add(key + "p50_qoe", golden_number(m.p50_qoe));
    add(key + "p95_qoe", golden_number(m.p95_qoe));
    add(key + "stall_ratio", golden_number(m.stall_ratio));
    add(key + "link_utilization", golden_number(m.link_utilization));
    add(key + "mean_download_s", golden_number(m.mean_download_s));
    add(key + "cache_hit_rate", golden_number(m.cache_hit_rate));
    add(key + "origin_bytes", golden_number(m.origin_bytes.value()));
  }
  for (const TournamentStanding& s : report.standings) {
    const std::string key =
        "standing." + std::to_string(s.rank) + "." + scheme_name(s.scheme) + ".";
    add(key + "borda", golden_number(s.borda));
    add(key + "energy_rank", golden_number(s.energy_rank));
    add(key + "qoe_rank", golden_number(s.qoe_rank));
    add(key + "stall_rank", golden_number(s.stall_rank));
    add(key + "mean_energy_mj", golden_number(s.mean_energy_mj));
    add(key + "mean_qoe", golden_number(s.mean_qoe));
    add(key + "mean_stall_ratio", golden_number(s.mean_stall_ratio));
  }
  return lines;
}

TEST(TournamentGoldenTest, ReportMatchesCheckedInGolden) {
  const std::string mode = kFullTournament ? "full," : "quick,";
  std::vector<std::string> actual;
  if (const char* out = std::getenv("PS360_TOURNAMENT_GOLDEN_OUT")) {
    // Writes both configs' rows; only this build's config is compared below.
    std::vector<std::string> all = tournament_golden_lines(/*quick=*/false);
    const std::vector<std::string> quick = tournament_golden_lines(/*quick=*/true);
    all.insert(all.end(), quick.begin(), quick.end());
    std::ofstream file(out);
    file << "config,key,value\n";
    for (const std::string& line : all) {
      file << line << "\n";
      if (line.rfind(mode, 0) == 0) actual.push_back(line);
    }
  } else {
    actual = tournament_golden_lines(/*quick=*/!kFullTournament);
  }

  const std::filesystem::path golden_path =
      std::filesystem::path(PS360_TEST_DATA_DIR) / "tournament_golden.csv";
  std::ifstream in(golden_path);
  ASSERT_TRUE(in.good()) << "cannot open " << golden_path;
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header, "config,key,value");
  std::vector<std::string> expected;
  for (std::string line; std::getline(in, line);) {
    if (line.rfind(mode, 0) == 0) expected.push_back(line);
  }

  // Line by line, so a drift names the cell or standing and both values.
  const std::size_t common = std::min(expected.size(), actual.size());
  for (std::size_t i = 0; i < common; ++i)
    EXPECT_EQ(actual[i], expected[i]) << "tournament drift at " << mode << " row " << i;
  EXPECT_EQ(actual.size(), expected.size())
      << "row count changed (golden " << expected.size() << " " << mode << " rows, actual "
      << actual.size() << ")";
}

}  // namespace
}  // namespace ps360::sim
