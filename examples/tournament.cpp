// tournament — rank every registered controller (the Section V schemes plus
// the competitor zoo) across the paper's LTE traces, fault profiles, and
// fleet sizes, in one deterministic report.
//
// Build & run:
//   cmake -B build && cmake --build build
//   ./build/examples/tournament
//
// Flags:
//   --quick         tiny matrix (2/3-session fleets) for CI smoke runs
//   --json PATH     also write the full report as JSON (render with
//                   tools/tournament_report.py)
//   --shards N      every fleet's FleetConfig::shards: 1 (the default)
//                   solves each fleet's plans on its cell's thread, any
//                   other N sends them to the worker pool (PS360_THREADS=1
//                   keeps every N serial); every number printed is
//                   bit-identical for any N — only the wall clock moves.
//                   The cells themselves run on the same pool, one thread
//                   per core (PS360_THREADS=1 runs them one after another),
//                   so no N runs more threads than that
//   --schemes A,B   enter only the named schemes, each once (registry names,
//                   e.g. Ours,Ctile,GhoshLP)
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "sim/tournament.h"

using namespace ps360;

namespace {

std::vector<sim::SchemeKind> parse_schemes(const std::string& csv) {
  std::vector<sim::SchemeKind> kinds;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    const std::string name =
        csv.substr(start, comma == std::string::npos ? csv.size() - start
                                                     : comma - start);
    if (!name.empty()) kinds.push_back(sim::scheme_kind(name));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return kinds;
}

}  // namespace

int main(int argc, char** argv) {
  sim::TournamentConfig config;
  std::string json_path;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      config.shards = static_cast<std::size_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--schemes") == 0 && i + 1 < argc) {
      config.schemes = parse_schemes(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--quick] [--json PATH] [--shards N] "
                   "[--schemes A,B,...]\n",
                   argv[0]);
      return 1;
    }
  }
  if (quick) {
    config.fleet_sizes = {2, 3};
    config.video_duration_s = 10.0;
  }

  const sim::TournamentReport report = sim::run_tournament(config);

  const std::size_t schemes = report.standings.size();
  const std::size_t groups = schemes > 0 ? report.cells.size() / schemes : 0;
  std::printf("tournament: %zu schemes x %zu environment groups "
              "(seed %llu)\n\n",
              schemes, groups, static_cast<unsigned long long>(report.seed));
  std::printf("%4s  %-12s %7s | %8s %6s %6s | %6s %5s %5s\n", "rank", "scheme",
              "borda", "mJ/user", "QoE", "stall", "rE", "rQ", "rS");
  std::printf("----------------------------+------------------------+--------"
              "-----------\n");
  for (const sim::TournamentStanding& s : report.standings) {
    std::printf("%4zu  %-12s %7.2f | %8.0f %6.1f %5.2f%% | %6.2f %5.2f %5.2f\n",
                s.rank, sim::scheme_name(s.scheme).c_str(), s.borda,
                s.mean_energy_mj, s.mean_qoe, s.mean_stall_ratio * 100.0,
                s.energy_rank, s.qoe_rank, s.stall_rank);
  }
  std::printf("\nrE/rQ/rS: mean per-group rank on energy / QoE / stall "
              "(1 = best); borda = rE + rQ + rS.\n");
  std::printf("Same seed, any --shards, any PS360_THREADS: every number above "
              "is bit-identical.\n");

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out.good()) {
      std::fprintf(stderr, "cannot open %s for writing\n", json_path.c_str());
      return 1;
    }
    out << report.to_json() << "\n";
    std::printf("wrote %s (render: python3 tools/tournament_report.py %s)\n",
                json_path.c_str(), json_path.c_str());
  }
  return 0;
}
