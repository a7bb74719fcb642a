// The tournament harness: every registered controller × the paper's LTE
// traces × the default fault profiles × fleet sizes, ranked into one
// deterministic energy/QoE/stall report.
//
// Fairness contract: within one (trace, fault profile, fleet size) group,
// every scheme runs the *same* fleet — same seed, same staggered arrivals,
// same head traces, same fault draws, same link — so metric differences are
// attributable to the controller alone. The group fleet seed is derived from
// (tournament seed, group indices) and never folds in the scheme.
//
// Determinism contract: run_tournament is a pure function of its config.
// Each cell runs through fleet::run_fleet, which is bit-identical for any
// shard count and any PS360_THREADS (DESIGN.md §15). The cells run on the
// worker pool through util::for_each_slot(cells, …), largest fleets
// first, each into its own report slot (PS360_THREADS=1 runs them
// serially). Ranking happens after the join in grid order, and it and the
// to_json() serialization are branch-free over ordered containers with
// printf-free, precision(17) float formatting — so the full report byte
// stream is reproducible across machines, thread counts, and shard counts
// (pinned by tests/tournament_test.cpp).
//
// Lives in ps360::sim alongside the scheme registry it enumerates. See
// tools/tournament_report.py for rendering the JSON.
#pragma once

#include <string>
#include <vector>

#include "fleet/engine.h"
#include "trace/fault_schedule.h"

namespace ps360::sim {

// A named fault environment the whole grid runs under.
struct TournamentFaultProfile {
  std::string name;
  trace::FaultConfig faults;
};

// The fault environments every tournament runs: "clean" (faults off) and
// "hostile" (outages every ~20 s, 10% request loss, 20% latency spikes;
// fleet_contention --faults reads it from here).
std::vector<TournamentFaultProfile> default_fault_profiles();

struct TournamentConfig {
  std::uint64_t seed = 42;
  // Schemes to enter, each at most once; empty -> registered_schemes() (the
  // full zoo).
  std::vector<SchemeKind> schemes;
  // Paper traces to run (1 = the 7.8 Mbps-mean trace, 2 = the 3.9 Mbps one).
  std::vector<int> trace_ids = {1, 2};
  // Concurrent sessions per fleet; the link is provisioned at one
  // trace-share per session (trace.scaled(sessions)), so every size runs at
  // the same nominal contention level and size sweeps probe burstiness, not
  // starvation.
  std::vector<std::size_t> fleet_sizes = {4, 16};
  // Every cell's FleetConfig::shards (bit-identical for any value, wall
  // clock only): 1 solves a fleet's plans on its cell's thread; any other
  // sends them to the pool the cells run on, within the same thread budget
  // (PS360_THREADS=1 keeps every value serial).
  std::size_t shards = 1;
  // Content: trace::test_videos()[video_index] trimmed to video_duration_s.
  std::size_t video_index = 1;
  double video_duration_s = 20.0;
  double trace_duration_s = 300.0;
  double start_spread_s = 2.0;
  // Per-session template. Its faults must stay disabled (run_tournament
  // throws otherwise): each cell runs under its default_fault_profiles()
  // entry's FaultConfig.
  SessionConfig session;
};

// One grid point: one scheme's fleet metrics under one environment.
struct TournamentCell {
  SchemeKind scheme = SchemeKind::kCtile;
  int trace_id = 1;
  std::string fault_profile;
  std::size_t sessions = 0;
  fleet::FleetMetrics metrics;
};

// One scheme's aggregate standing. Ranks are averaged over the environment
// groups (per group: 1 = lowest energy / highest QoE / lowest stall, ties
// broken by scheme enum order); borda is the sum of the three mean ranks,
// lower = better all-round.
struct TournamentStanding {
  SchemeKind scheme = SchemeKind::kCtile;
  double mean_energy_mj = 0.0;
  double mean_qoe = 0.0;
  double mean_stall_ratio = 0.0;
  double energy_rank = 0.0;
  double qoe_rank = 0.0;
  double stall_rank = 0.0;
  double borda = 0.0;
  std::size_t rank = 0;  // final 1-based position (borda, then energy)
};

struct TournamentReport {
  std::uint64_t seed = 0;
  std::vector<TournamentCell> cells;          // grid order: trace, fault, size, scheme
  std::vector<TournamentStanding> standings;  // final rank order

  // Deterministic serialization: fixed key order, precision(17) floats, no
  // locale, no timestamps — byte-identical for identical results.
  std::string to_json() const;
};

TournamentReport run_tournament(const TournamentConfig& config);

}  // namespace ps360::sim
