// Tournament + controller-registry tests (ISSUE 10):
//  * Registry round-trip: every entry survives make -> name -> make with a
//    stable, config-independent identity (the headline bugfix — Ptile's
//    kind() used to flip between kPtile and kOurs on frame_adaptation_),
//    all_schemes()/registered_schemes() derive from the registry, and
//    out-of-range kinds / unknown names throw instead of misindexing.
//  * lp_allocate: hand-computed fixtures plus an exhaustive-search sweep
//    (concave utilities, budget ramp) pin the Ghosh allocator's optimality,
//    floor handling, and lower-tile-index tie-breaking.
//  * Hook forwarding audit: for every registered controller, observer-on is
//    bit-identical to observer-off (the observer inertness guarantee), and
//    the attached observer actually receives the controller's solve
//    counters — forwarding is neither results-altering nor silently dropped.
//  * Tournament determinism: same seed => byte-identical ranked report
//    across PS360_THREADS in {1, 4, hw} and shards in {0, 1, 4}; report
//    shape, rank permutation, and borda arithmetic hold.
#include <gtest/gtest.h>

#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/observer.h"
#include "sim/competitors.h"
#include "sim/session.h"
#include "sim/tournament.h"
#include "trace/video_catalog.h"

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

struct RegistryFixture {
  RegistryFixture() {
    env.workload = &tiny_workload();
    env.encoding = &encoding;
    env.qo_model = &qo_model;
    env.device = &power::device_model(power::Device::kPixel3);
  }

  video::EncodingModel encoding;
  qoe::QoModel qo_model{qoe::QoParams{}, 4.0};
  SchemeEnv env;
};

// RAII PS360_THREADS override so determinism arms can't leak into other
// tests.
class ScopedThreadsEnv {
 public:
  explicit ScopedThreadsEnv(const char* value) {
    const char* old = std::getenv("PS360_THREADS");
    had_old_ = old != nullptr;
    if (had_old_) old_ = old;
    if (value != nullptr) {
      ::setenv("PS360_THREADS", value, 1);
    } else {
      ::unsetenv("PS360_THREADS");
    }
  }
  ~ScopedThreadsEnv() {
    if (had_old_) {
      ::setenv("PS360_THREADS", old_.c_str(), 1);
    } else {
      ::unsetenv("PS360_THREADS");
    }
  }

 private:
  bool had_old_ = false;
  std::string old_;
};

// ------------------------------------------------------------ Registry

TEST(ControllerRegistryTest, EveryEntryRoundTripsMakeNameMake) {
  const RegistryFixture fixture;
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
    const auto by_kind = make_scheme(kinds[i], fixture.env);
    EXPECT_EQ(by_kind->kind(), kinds[i]);
    EXPECT_EQ(by_kind->name(), scheme_name(kinds[i]));
    const auto by_name = make_scheme(by_kind->name(), fixture.env);
    EXPECT_EQ(by_name->kind(), kinds[i]);
  }
}

TEST(ControllerRegistryTest, IdentityIsIndependentOfConfiguration) {
  // The headline ISSUE 10 bug: PtileScheme::kind() used to return kOurs or
  // kPtile depending on its frame_adaptation_ flag. Identity is now assigned
  // by the registry at construction: the two registry rows that share the
  // PtileScheme implementation keep distinct, stable kinds.
  const RegistryFixture fixture;
  EXPECT_EQ(make_scheme(SchemeKind::kPtile, fixture.env)->kind(), SchemeKind::kPtile);
  EXPECT_EQ(make_scheme(SchemeKind::kOurs, fixture.env)->kind(), SchemeKind::kOurs);
  EXPECT_EQ(make_scheme("Ptile", fixture.env)->name(), "Ptile");
  EXPECT_EQ(make_scheme("Ours", fixture.env)->name(), "Ours");
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
  const RegistryFixture fixture;
  EXPECT_THROW(scheme_name(static_cast<SchemeKind>(99)), std::invalid_argument);
  EXPECT_THROW(controller_info(static_cast<SchemeKind>(99)), std::invalid_argument);
  EXPECT_THROW(make_scheme(static_cast<SchemeKind>(99), fixture.env),
               std::invalid_argument);
  EXPECT_THROW(scheme_kind("NoSuchScheme"), std::invalid_argument);
  EXPECT_THROW(make_scheme("NoSuchScheme", fixture.env), std::invalid_argument);
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

TEST(LpAllocateTest, HandComputedFixture) {
  // Three identical tiles (levels cost 1/3/6 bytes for utility 0/10/16),
  // weights 1.0/2.0/0.5, budget 10. Floor costs 3; the weighted gain/byte
  // ladder is then tile 1 L1 (20/2 = 10.0), tile 0 L1 (10/2 = 5.0), tile 1
  // L2 (12/3 = 4.0) — spending 3 + 2 + 2 + 3 = 10, the exact budget — and
  // tile 2 never upgrades (2.5/byte but no bytes left).
  const std::vector<double> weights = {1.0, 2.0, 0.5};
  const std::vector<std::vector<double>> bytes = {{1, 3, 6}, {1, 3, 6}, {1, 3, 6}};
  const std::vector<std::vector<double>> utility = {{0, 10, 16}, {0, 10, 16}, {0, 10, 16}};
  const LpAllocation alloc = lp_allocate(weights, bytes, utility, util::Bytes(10.0));
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
    const LpAllocation alloc = lp_allocate(weights, bytes, utility, util::Bytes(budget));
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
  const LpAllocation alloc = lp_allocate(weights, bytes, utility, util::Bytes(7.0));
  EXPECT_FALSE(alloc.feasible);
  EXPECT_EQ(alloc.level, (std::vector<int>{0, 0}));
  EXPECT_DOUBLE_EQ(alloc.spent, 10.0);
}

TEST(LpAllocateTest, TiesBreakTowardLowerTileIndex) {
  // Identical tiles, budget for exactly one upgrade: tile 0 gets it.
  const std::vector<double> weights = {1.0, 1.0};
  const std::vector<std::vector<double>> bytes = {{1, 3}, {1, 3}};
  const std::vector<std::vector<double>> utility = {{0, 5}, {0, 5}};
  const LpAllocation alloc = lp_allocate(weights, bytes, utility, util::Bytes(4.0));
  EXPECT_EQ(alloc.level, (std::vector<int>{1, 0}));
}

TEST(LpAllocateTest, FreeUpgradesAlwaysTaken) {
  // A level that shrinks bytes while gaining utility must be taken even at
  // budget == floor cost.
  const std::vector<double> weights = {1.0};
  const std::vector<std::vector<double>> bytes = {{4, 3}};
  const std::vector<std::vector<double>> utility = {{0, 2}};
  const LpAllocation alloc = lp_allocate(weights, bytes, utility, util::Bytes(4.0));
  EXPECT_EQ(alloc.level, (std::vector<int>{1}));
  EXPECT_DOUBLE_EQ(alloc.spent, 3.0);
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

    // Observer arm: bit-identical results, and the controller's solve
    // counters actually arrive — attach_observer forwarding is wired for
    // every registry entry, not just the MPC-based ones.
    obs::MetricsRegistry metrics;
    obs::Observer observer{&metrics, nullptr};
    const SessionResult observed = simulate_session(tiny_workload(), 0, kind,
                                                    paper_trace1(), config, &observer);
    EXPECT_EQ(fingerprint(observed), expected);
    if (kind == SchemeKind::kGhoshLp || kind == SchemeKind::kGhoshRobust) {
      EXPECT_GT(metrics.value("lp.allocations"), 0.0);
    } else {
      EXPECT_GT(metrics.value("mpc.decides"), 0.0);
    }
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
  // Every scheme appears exactly once per environment group, and groups are
  // internally consistent (same trace/faults/sessions for all n schemes).
  for (std::size_t g = 0; g < groups; ++g) {
    std::set<SchemeKind> in_group;
    for (std::size_t s = 0; s < n; ++s) {
      const TournamentCell& cell = report.cells[g * n + s];
      EXPECT_TRUE(in_group.insert(cell.scheme).second);
      EXPECT_EQ(cell.trace_id, report.cells[g * n].trace_id);
      EXPECT_EQ(cell.fault_profile, report.cells[g * n].fault_profile);
      EXPECT_EQ(cell.sessions, report.cells[g * n].sessions);
      EXPECT_EQ(cell.metrics.sessions, cell.sessions);
    }
  }
}

TEST(TournamentTest, ByteIdenticalAcrossThreadAndShardCounts) {
  TournamentConfig config = tiny_tournament();
  std::string baseline;
  {
    const ScopedThreadsEnv env("1");
    config.shards = 1;
    baseline = run_tournament(config).to_json();
  }
  ASSERT_FALSE(baseline.empty());

  const char* thread_arms[] = {"1", "4", nullptr};  // nullptr = hardware
  const std::size_t shard_arms[] = {0, 4};          // 0 resolves threads env
  for (const char* threads : thread_arms) {
    for (const std::size_t shards : shard_arms) {
      const ScopedThreadsEnv env(threads);
      config.shards = shards;
      EXPECT_EQ(run_tournament(config).to_json(), baseline)
          << "threads=" << (threads != nullptr ? threads : "hw")
          << " shards=" << shards;
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

}  // namespace
}  // namespace ps360::sim
