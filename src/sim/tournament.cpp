// Tournament harness implementation. Deterministic contract: the report is
// a pure function of TournamentConfig. Group fleet seeds derive from
// (config.seed, group indices) only, never the scheme, preserving the
// fairness contract in tournament.h. The cells are independent fleets on
// the bit-identical fleet engine; they run on the worker pool
// (util::for_each_slot), largest fleets first, and each writes only its own
// pre-sized report.cells slot. Ranking runs after the join, serially and in
// grid order, with stable sorts and enum-order tie-breaks, and to_json() emits
// fixed key order with locale-free precision(17) floats — so the byte
// stream is identical for any PS360_THREADS or shard count (pinned by
// tests/tournament_test.cpp).
#include "sim/tournament.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

#include "trace/network_trace.h"
#include "trace/video_catalog.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/worker_pool.h"

namespace ps360::sim {

namespace {

// Seed stream tag for per-group fleet seeds:
// derive_seed(tournament seed, kTournamentSeedStream, group index).
constexpr std::uint64_t kTournamentSeedStream = 0x70DE42ULL;

// Rank the schemes of one group on one metric: 1 = best, ties broken by
// entry order (the scheme enum order of config.schemes). `better(a, b)` is a
// strict "a beats b".
template <typename Better>
std::vector<std::size_t> group_ranks(const std::vector<double>& values,
                                     const Better& better) {
  std::vector<std::size_t> order(values.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return better(values[a], values[b]);
  });
  std::vector<std::size_t> rank(values.size(), 0);
  for (std::size_t pos = 0; pos < order.size(); ++pos) rank[order[pos]] = pos + 1;
  return rank;
}

void append_double(std::ostringstream& out, double v) { out << v; }

void append_metrics(std::ostringstream& out, const fleet::FleetMetrics& m) {
  out << "{\"energy_per_session_mj\":";
  append_double(out, m.energy_per_session_mj);
  out << ",\"p50_energy_mj\":";
  append_double(out, m.p50_energy_mj);
  out << ",\"p95_energy_mj\":";
  append_double(out, m.p95_energy_mj);
  out << ",\"mean_qoe\":";
  append_double(out, m.mean_qoe);
  out << ",\"p50_qoe\":";
  append_double(out, m.p50_qoe);
  out << ",\"p95_qoe\":";
  append_double(out, m.p95_qoe);
  out << ",\"stall_ratio\":";
  append_double(out, m.stall_ratio);
  out << ",\"link_utilization\":";
  append_double(out, m.link_utilization);
  out << ",\"mean_download_s\":";
  append_double(out, m.mean_download_s);
  out << "}";
}

}  // namespace

std::vector<TournamentFaultProfile> default_fault_profiles() {
  TournamentFaultProfile clean;
  clean.name = "clean";
  clean.faults.enabled = false;

  TournamentFaultProfile hostile;
  hostile.name = "hostile";
  hostile.faults.enabled = true;
  hostile.faults.outage_spacing_s = 20.0;
  hostile.faults.loss_probability = 0.1;
  hostile.faults.spike_probability = 0.2;

  return {clean, hostile};
}

TournamentReport run_tournament(const TournamentConfig& config) {
  const std::vector<SchemeKind> schemes =
      config.schemes.empty() ? registered_schemes() : config.schemes;
  const std::vector<TournamentFaultProfile> profiles =
      config.fault_profiles.empty() ? default_fault_profiles()
                                    : config.fault_profiles;
  PS360_CHECK(!schemes.empty());
  // A scheme entered twice would rank against itself: identical cells,
  // different ranks.
  for (auto it = schemes.begin(); it != schemes.end(); ++it) {
    PS360_CHECK_MSG(std::find(schemes.begin(), it, *it) == it,
                    "TournamentConfig::schemes lists " + scheme_name(*it) + " twice");
  }
  PS360_CHECK(!config.trace_ids.empty());
  PS360_CHECK(!config.fleet_sizes.empty());
  PS360_CHECK(config.video_index < trace::test_videos().size());
  PS360_CHECK_MSG(std::isfinite(config.video_duration_s) && config.video_duration_s > 0.0,
                  "video_duration_s must be finite and > 0");
  PS360_CHECK_MSG(std::isfinite(config.trace_duration_s) && config.trace_duration_s > 0.0,
                  "trace_duration_s must be finite and > 0");
  // Each cell runs under its fault profile's FaultConfig, so a fault setting
  // on the session template would never reach a cell.
  PS360_CHECK_MSG(!config.session.faults.enabled,
                  "TournamentConfig::session.faults.enabled must be false; set the fault "
                  "environments through fault_profiles");
  for (const int id : config.trace_ids) PS360_CHECK(id == 1 || id == 2);
  for (const std::size_t size : config.fleet_sizes) PS360_CHECK(size >= 1);

  trace::VideoInfo video = trace::test_videos()[config.video_index];
  video.duration_s = config.video_duration_s;
  const VideoWorkload workload(video, WorkloadConfig{});

  // Paper traces at unit (one-session) provisioning, scaled once per
  // (trace, fleet size): both fault profiles share the link.
  const auto paper = trace::make_paper_traces(
      config.seed, util::Seconds(config.trace_duration_s));
  const std::size_t n_sizes = config.fleet_sizes.size();
  std::vector<trace::NetworkTrace> links;
  links.reserve(config.trace_ids.size() * n_sizes);
  for (const int trace_id : config.trace_ids)
    for (const std::size_t sessions : config.fleet_sizes)
      links.push_back((trace_id == 1 ? paper.first : paper.second)
                          .scaled(static_cast<double>(sessions)));

  // Cell c runs scheme c % n in group g = c / n. Groups are in grid order
  // (trace, fault profile, fleet size): g = (ti * profiles + fi) * sizes + si.
  const std::size_t n = schemes.size();
  const std::size_t groups = config.trace_ids.size() * profiles.size() * n_sizes;
  const auto fleet_size = [&](std::size_t c) {
    return config.fleet_sizes[c / n % n_sizes];
  };

  TournamentReport report;
  report.seed = config.seed;
  report.cells.resize(groups * n);

  // Threads claim the largest fleets first, so no big fleet starts last and
  // leaves the other threads idle; the stable sort keeps ties in grid order.
  std::vector<std::size_t> claim_order(report.cells.size());
  std::iota(claim_order.begin(), claim_order.end(), 0);
  std::stable_sort(claim_order.begin(), claim_order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return fleet_size(a) > fleet_size(b);
                   });

  util::for_each_slot(claim_order.size(), [&](std::size_t slot) {
    const std::size_t c = claim_order[slot];
    const std::size_t g = c / n, s = c % n;
    const std::size_t si = g % n_sizes;
    const std::size_t fi = g / n_sizes % profiles.size();
    const std::size_t ti = g / n_sizes / profiles.size();
    // One link, one seed, one arrival pattern for the whole group: the
    // scheme is the only thing that varies between its cells.
    fleet::FleetConfig fc;
    fc.sessions = config.fleet_sizes[si];
    fc.seed = util::derive_seed(config.seed, kTournamentSeedStream,
                                (ti * 1000ULL + fi) * 1000ULL + si);
    fc.scheme = schemes[s];
    fc.start_spread_s = config.start_spread_s;
    fc.session = config.session;
    fc.session.faults = profiles[fi].faults;
    fc.shards = config.shards;
    const fleet::FleetResult result =
        run_fleet(workload, links[ti * n_sizes + si], fc);

    TournamentCell& cell = report.cells[c];
    cell.scheme = schemes[s];
    cell.trace_id = config.trace_ids[ti];
    cell.fault_profile = profiles[fi].name;
    cell.sessions = fc.sessions;
    cell.metrics = result.metrics(workload.config().segment_seconds);
  });

  // Rank after the join, group by group in grid order, so every sum adds
  // its terms in the same order as a serial run.
  std::vector<double> sum_energy(n, 0.0), sum_qoe(n, 0.0), sum_stall(n, 0.0);
  std::vector<double> sum_energy_rank(n, 0.0), sum_qoe_rank(n, 0.0),
      sum_stall_rank(n, 0.0);
  std::vector<double> energy(n), qoe(n), stall(n);
  for (std::size_t g = 0; g < groups; ++g) {
    for (std::size_t s = 0; s < n; ++s) {
      const fleet::FleetMetrics& m = report.cells[g * n + s].metrics;
      energy[s] = m.energy_per_session_mj;
      qoe[s] = m.mean_qoe;
      stall[s] = m.stall_ratio;
      sum_energy[s] += energy[s];
      sum_qoe[s] += qoe[s];
      sum_stall[s] += stall[s];
    }
    const auto energy_rank =
        group_ranks(energy, [](double a, double b) { return a < b; });
    const auto qoe_rank =
        group_ranks(qoe, [](double a, double b) { return a > b; });
    const auto stall_rank =
        group_ranks(stall, [](double a, double b) { return a < b; });
    for (std::size_t s = 0; s < n; ++s) {
      sum_energy_rank[s] += static_cast<double>(energy_rank[s]);
      sum_qoe_rank[s] += static_cast<double>(qoe_rank[s]);
      sum_stall_rank[s] += static_cast<double>(stall_rank[s]);
    }
  }

  PS360_ASSERT(groups > 0);
  const double g = static_cast<double>(groups);
  for (std::size_t s = 0; s < n; ++s) {
    TournamentStanding standing;
    standing.scheme = schemes[s];
    standing.mean_energy_mj = sum_energy[s] / g;
    standing.mean_qoe = sum_qoe[s] / g;
    standing.mean_stall_ratio = sum_stall[s] / g;
    standing.energy_rank = sum_energy_rank[s] / g;
    standing.qoe_rank = sum_qoe_rank[s] / g;
    standing.stall_rank = sum_stall_rank[s] / g;
    standing.borda = standing.energy_rank + standing.qoe_rank + standing.stall_rank;
    report.standings.push_back(standing);
  }
  std::stable_sort(report.standings.begin(), report.standings.end(),
                   [](const TournamentStanding& a, const TournamentStanding& b) {
                     if (a.borda != b.borda) return a.borda < b.borda;
                     if (a.mean_energy_mj != b.mean_energy_mj)
                       return a.mean_energy_mj < b.mean_energy_mj;
                     return a.scheme < b.scheme;
                   });
  for (std::size_t pos = 0; pos < report.standings.size(); ++pos)
    report.standings[pos].rank = pos + 1;
  return report;
}

std::string TournamentReport::to_json() const {
  std::ostringstream out;
  out.precision(17);  // round-trip exact; the obs/metrics.cpp JSON idiom
  out << "{\"seed\":" << seed << ",\"standings\":[";
  for (std::size_t i = 0; i < standings.size(); ++i) {
    const TournamentStanding& s = standings[i];
    if (i > 0) out << ",";
    out << "{\"rank\":" << s.rank << ",\"scheme\":\"" << scheme_name(s.scheme)
        << "\",\"borda\":";
    append_double(out, s.borda);
    out << ",\"energy_rank\":";
    append_double(out, s.energy_rank);
    out << ",\"qoe_rank\":";
    append_double(out, s.qoe_rank);
    out << ",\"stall_rank\":";
    append_double(out, s.stall_rank);
    out << ",\"mean_energy_mj\":";
    append_double(out, s.mean_energy_mj);
    out << ",\"mean_qoe\":";
    append_double(out, s.mean_qoe);
    out << ",\"mean_stall_ratio\":";
    append_double(out, s.mean_stall_ratio);
    out << "}";
  }
  out << "],\"cells\":[";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const TournamentCell& c = cells[i];
    if (i > 0) out << ",";
    out << "{\"scheme\":\"" << scheme_name(c.scheme)
        << "\",\"trace\":" << c.trace_id << ",\"faults\":\"" << c.fault_profile
        << "\",\"sessions\":" << c.sessions << ",\"metrics\":";
    append_metrics(out, c.metrics);
    out << "}";
  }
  out << "]}";
  return out.str();
}

}  // namespace ps360::sim
