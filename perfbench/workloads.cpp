#include "workloads.h"

#include <atomic>
#include <cmath>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "fleet/engine.h"
#include "layers.h"
#include "obs/observer.h"
#include "sim/tournament.h"
#include "trace/network_trace.h"
#include "trace/video_catalog.h"
#include "util/rng.h"
#include "video/content.h"

namespace perfbench {

namespace ps = ps360;
using ps::sim::SchemeKind;

namespace {

// Shared by every sim:: default (MpcConfig::segment_seconds, WorkloadConfig).
constexpr double kSegmentSeconds = 1.0;
// The paper's fixed inputs (network traces, fleet content, tournament grid)
// use the library's default seed; the benchmark seed generates the
// session-level inputs on top of them, so a run's amount of work stays
// comparable from seed to seed.
constexpr std::uint64_t kPaperSeed = 42;

void add_session(Fingerprint& fp, const ps::sim::SessionResult& r) {
  fp.add(static_cast<std::uint64_t>(r.scheme));
  fp.add(r.energy.transmit_mj);
  fp.add(r.energy.decode_mj);
  fp.add(r.energy.render_mj);
  fp.add(r.qoe.mean_qo);
  fp.add(r.qoe.mean_variation);
  fp.add(r.qoe.mean_rebuffer);
  fp.add(r.qoe.mean_q);
  fp.add(static_cast<std::uint64_t>(r.qoe.segments));
  fp.add(r.total_stall_s);
  fp.add(static_cast<std::uint64_t>(r.rebuffer_events));
  fp.add(r.mean_quality);
  fp.add(r.mean_fps);
  fp.add(r.mean_coverage);
  fp.add(r.ptile_usage);
  fp.add(r.total_bytes);
  fp.add(static_cast<std::uint64_t>(r.segments.size()));
}

void add_stats(Fingerprint& fp, const ps::fleet::FleetStats& s) {
  for (const std::uint64_t v :
       {s.events, s.stale_completions, s.flow_aborts, s.queue_grow_events,
        static_cast<std::uint64_t>(s.queue_peak), s.reallocations, s.plan_cache_hits,
        s.plan_cache_misses, s.cache_hits, s.cache_misses, s.cache_evictions,
        s.cache_insertions, static_cast<std::uint64_t>(s.cache_entries), s.origin_flows})
    fp.add(v);
  for (const double v : {s.makespan_s, s.delivered_bytes.value(), s.offered_bytes.value(),
                         s.cache_resident.value(), s.origin_bytes.value()})
    fp.add(v);
}

// Fingerprint plus the two balances: every session played the whole video,
// and the edge link carried at least every completed segment's bytes.
OpResult summarize_fleet(const ps::fleet::FleetResult& result, std::size_t video_segments) {
  OpResult out;
  Fingerprint fp;
  double completed_bytes = 0.0;
  for (const ps::fleet::FleetSessionResult& s : result.sessions) {
    fp.add(static_cast<std::uint64_t>(s.session));
    fp.add(static_cast<std::uint64_t>(s.test_user));
    fp.add(static_cast<std::uint64_t>(s.video));
    fp.add(s.start_s);
    fp.add(s.finish_s);
    add_session(fp, s.result);
    out.segments += s.result.segments.size();
    completed_bytes += s.result.total_bytes;
    if (out.violation.empty() && s.result.segments.size() != video_segments)
      out.violation = "session " + std::to_string(s.session) + " played " +
                      std::to_string(s.result.segments.size()) + " of " +
                      std::to_string(video_segments) + " segments";
  }
  add_stats(fp, result.stats);
  if (out.violation.empty() &&
      result.stats.delivered_bytes.value() < completed_bytes * (1.0 - 1e-12))
    out.violation = "edge link delivered fewer bytes than the completed segments";
  out.fingerprint = fp.value();
  return out;
}

double saving_pct(double ours, double ctile) { return 100.0 * (1.0 - ours / ctile); }

Outcome fleet_outcome(const ps::fleet::FleetResult& ours, const ps::fleet::FleetResult& ctile) {
  const ps::fleet::FleetMetrics m = ours.metrics(kSegmentSeconds);
  std::vector<double> qoes;
  for (const auto& s : ours.sessions) qoes.push_back(s.result.qoe.mean_q);
  Outcome out;
  out.energy_j_per_session = m.energy_per_session_mj / 1e3;
  out.qoe_mean = m.mean_qoe;
  out.qoe_p5 = percentile(qoes, 5.0);
  out.stall_ratio = m.stall_ratio;
  out.energy_saving_vs_ctile_pct = saving_pct(
      m.energy_per_session_mj, ctile.metrics(kSegmentSeconds).energy_per_session_mj);
  return out;
}

std::string scheme_list(const std::vector<SchemeKind>& schemes) {
  std::string out;
  for (const SchemeKind k : schemes) out += (out.empty() ? "" : ",") + ps::sim::scheme_name(k);
  return out;
}

// ---------------------------------------------------------------------------
// fleet-steady / fleet-hostile: one large fleet through fleet::run_fleet.
// ---------------------------------------------------------------------------
class FleetWorkload final : public Workload {
 public:
  FleetWorkload(const Settings& settings, bool hostile)
      : settings_(settings), hostile_(hostile) {
    sessions_ = settings.smoke ? 12 : (hostile ? 250 : 500);
    video_s_ = settings.smoke ? 8.0 : 60.0;
    spread_s_ = settings.smoke ? 2.0 : 10.0;
  }

  void setup() override {
    const double t0 = wall_now();
    const auto paper =
        ps::trace::make_paper_traces(kPaperSeed, ps::util::Seconds(kTraceSeconds));
    // Paper trace 1 (steady) or 2 (hostile), provisioned one share per session.
    link_.emplace((hostile_ ? paper.second : paper.first)
                      .scaled(static_cast<double>(sessions_)));
    const double t1 = wall_now();
    ps::trace::VideoInfo video = ps::trace::test_videos()[1];
    video.duration_s = video_s_;
    ps::sim::WorkloadConfig config;
    config.seed = kPaperSeed;
    workload_.emplace(video, config);
    const double t2 = wall_now();
    trace_setup_s_.push_back(t1 - t0);
    workload_setup_s_.push_back(t2 - t1);
  }

  OpResult run() override {
    return summarize(run_with(settings_.shards, SchemeKind::kOurs, Observe::kAsWorkload));
  }

  OpResult reference(Outcome& outcome) override {
    reference_ = run_with(1, SchemeKind::kOurs, Observe::kMetrics, &reference_metrics_);
    const ps::fleet::FleetResult ctile =
        run_with(settings_.shards, SchemeKind::kCtile, Observe::kAsWorkload);
    outcome = fleet_outcome(*reference_, ctile);
    reference_summary_ = summarize(*reference_);
    return reference_summary_;
  }

  void trace_layers(LayerContext& context) override {
    MetricList& metrics = *context.metrics;
    set_layer(metrics, "setup.network_trace_s", median(trace_setup_s_));
    set_layer(metrics, "setup.video_workload_s", median(workload_setup_s_));
    set_layer(metrics, "setup.ftile_s", measure([&] { workload_->ftile(0); }).wall_s);

    const std::size_t segments = reference_summary_.segments;
    report_registry(reference_metrics_, segments, metrics);
    report_fleet_stats(reference_->stats, segments, metrics);

    // Serial vs sharded on identical inputs, and the cost of observation.
    std::optional<ps::fleet::FleetResult> serial_result;
    const Span serial = measure(
        [&] { serial_result = run_with(1, SchemeKind::kOurs, Observe::kAsWorkload); });
    std::optional<ps::fleet::FleetResult> traced_result;
    const Span traced = measure([&] {
      traced_result = run_with(settings_.shards, SchemeKind::kOurs, Observe::kTraced);
    });
    for (const auto* result : {&*serial_result, &*traced_result}) {
      ++context.attempted;
      if (summarize(*result).fingerprint != reference_summary_.fingerprint) ++context.failed;
    }
    set_layer(metrics, "fleet.run_fleet_s", serial.wall_s);
    set_layer(metrics, "shard.speedup", serial.wall_s / context.timed_wall_s);
    set_layer(metrics, "shard.cpu_ratio", context.timed_cpu_s / serial.cpu_s);
    set_layer(metrics, "obs.traced_over_untraced", traced.wall_s / context.timed_wall_s);

    std::ostringstream line;
    if (hostile_) {
      line << "fleet ledger: not replayable (faulted sessions); serial run_fleet "
           << serial.wall_s << " s";
      context.notes->push_back(line.str());
      return;
    }
    // The ledger: replayed client time + engine residual = serial run_fleet.
    ReplayTotals replay;
    const ps::fleet::FleetConfig config = fleet_config(1, SchemeKind::kOurs);
    for (const ps::fleet::FleetSessionResult& s : reference_->sessions)
      replay_session(*workload_, s.test_user, SchemeKind::kOurs, config.session, s.result,
                     replay);
    context.attempted += replay.sessions;
    context.failed += replay.mismatched_sessions;
    report_replay(replay, metrics);
    const double residual = serial.wall_s - replay.client_s();
    set_layer(metrics, "fleet.client_replay_s", replay.client_s());
    set_layer(metrics, "fleet.engine_residual_s", residual);
    line << "fleet ledger: serial run_fleet " << serial.wall_s << " s = replayed client "
         << replay.client_s() << " s (begin_plan " << replay.begin_s << ", finish_plan "
         << replay.finish_s << " [scheme plan " << replay.plan_s << "], complete_download "
         << replay.complete_s << ") + engine residual " << residual << " s ("
         << 100.0 * residual / serial.wall_s
         << "% of run_fleet: event loop, link, accounting, session construction)";
    context.notes->push_back(line.str());
  }

  std::string describe() const override {
    std::ostringstream out;
    out << "sessions=" << sessions_ << " video_s=" << video_s_ << " spread_s=" << spread_s_
        << " trace=" << (hostile_ ? 2 : 1) << " shards=" << settings_.shards
        << (hostile_ ? " cap_mbps=6 faults=hostile edge_cache_mib=16 observer=metrics"
                     : " observer=none");
    return out.str();
  }

 private:
  static constexpr double kTraceSeconds = 300.0;

  // kAsWorkload: the workload's own observer (metrics-only on fleet-hostile,
  // none on fleet-steady); kMetrics: a metrics registry; kTraced: a metrics
  // registry plus an event tracer.
  enum class Observe { kAsWorkload, kMetrics, kTraced };

  ps::fleet::FleetConfig fleet_config(std::size_t shards, SchemeKind scheme) const {
    ps::fleet::FleetConfig config;
    config.sessions = sessions_;
    config.seed = settings_.seed;
    config.scheme = scheme;
    config.start_spread_s = spread_s_;
    config.session.seed = settings_.seed;
    config.shards = shards;
    if (hostile_) {
      config.access_cap_mbps = 6.0;
      config.session.faults = ps::sim::default_fault_profiles()[1].faults;
      config.server.enabled = true;
      config.server.cache_capacity = ps::util::mebibytes(16.0);
      config.server.origin_mbps = 2.0 * static_cast<double>(sessions_);
    }
    return config;
  }

  ps::fleet::FleetResult run_with(std::size_t shards, SchemeKind scheme, Observe observe,
                                  ps::obs::MetricsRegistry* metrics = nullptr) const {
    ps::fleet::FleetConfig config = fleet_config(shards, scheme);
    ps::obs::MetricsRegistry own_metrics;
    ps::obs::EventTracer tracer(1 << 16);
    ps::obs::Observer observer;
    if (observe != Observe::kAsWorkload || hostile_) {
      observer.metrics = metrics != nullptr ? metrics : &own_metrics;
      if (observe == Observe::kTraced) observer.tracer = &tracer;
      config.observer = &observer;
    }
    return ps::fleet::run_fleet(*workload_, *link_, config);
  }

  OpResult summarize(const ps::fleet::FleetResult& result) const {
    return summarize_fleet(result, workload_->segment_count());
  }

  Settings settings_;
  bool hostile_ = false;
  std::size_t sessions_ = 0;
  double video_s_ = 0.0;
  double spread_s_ = 0.0;
  std::optional<ps::trace::NetworkTrace> link_;
  std::optional<ps::sim::VideoWorkload> workload_;
  std::vector<double> trace_setup_s_;
  std::vector<double> workload_setup_s_;
  std::optional<ps::fleet::FleetResult> reference_;
  OpResult reference_summary_;
  ps::obs::MetricsRegistry reference_metrics_;
};

// ---------------------------------------------------------------------------
// paper-grid: the Section V grid (videos x paper traces x paper schemes x
// test users) with the run_evaluation_grid structure: per-video workload
// construction inside the call, videos fanned out over worker threads.
// ---------------------------------------------------------------------------
class GridWorkload final : public Workload {
 public:
  explicit GridWorkload(const Settings& settings) : settings_(settings) {
    videos_n_ = settings.smoke ? 2 : 8;
    video_s_ = settings.smoke ? 4.0 : 20.0;
  }

  void setup() override {
    const double t0 = wall_now();
    traces_.emplace(
        ps::trace::make_paper_traces(kPaperSeed, ps::util::Seconds(kTraceSeconds)));
    trace_setup_s_.push_back(wall_now() - t0);
    videos_.assign(ps::trace::test_videos().begin(),
                   ps::trace::test_videos().begin() + static_cast<long>(videos_n_));
    for (ps::trace::VideoInfo& video : videos_) video.duration_s = video_s_;
  }

  OpResult run() override { return summarize(run_grid(settings_.threads, nullptr)); }

  OpResult reference(Outcome& outcome) override {
    spans_ = Spans{};
    const std::vector<Cell> cells = run_grid(1, &spans_);
    // Every cell is a mean over the same number of users, so cell means
    // weigh sessions equally.
    std::vector<double> qoes;
    double energy = 0.0, qoe = 0.0, stall = 0.0, playback = 0.0, ratio_sum = 0.0;
    std::size_t ratios = 0;
    for (const Cell& cell : cells) {
      energy += cell.result.energy.total_mj() / 1e3;
      qoe += cell.result.qoe.mean_q;
      qoes.push_back(cell.result.qoe.mean_q);
      stall += cell.result.total_stall_s;
      playback += static_cast<double>(cell.segments) * kSegmentSeconds;
      if (cell.scheme != SchemeKind::kOurs) continue;
      for (const Cell& base : cells)
        if (base.scheme == SchemeKind::kCtile && base.video_id == cell.video_id &&
            base.trace_id == cell.trace_id) {
          ratio_sum += cell.result.energy.total_mj() / base.result.energy.total_mj();
          ++ratios;
        }
    }
    const double n = static_cast<double>(cells.size());
    outcome.energy_j_per_session = energy / n;
    outcome.qoe_mean = qoe / n;
    outcome.qoe_p5 = percentile(qoes, 5.0);
    outcome.stall_ratio = stall / (stall + playback);
    outcome.energy_saving_vs_ctile_pct =
        100.0 * (1.0 - ratio_sum / static_cast<double>(ratios));
    return summarize(cells);
  }

  void trace_layers(LayerContext& context) override {
    MetricList& metrics = *context.metrics;
    set_layer(metrics, "setup.network_trace_s", median(trace_setup_s_));
    set_layer(metrics, "setup.video_workload_s", spans_.workload_s);
    set_layer(metrics, "setup.ftile_s", spans_.ftile_s);
    double untraced_sessions_s = 0.0;
    for (const auto& [scheme, seconds] : spans_.scheme_s) {
      set_layer(metrics, "session.scheme_s." + ps::sim::scheme_name(scheme), seconds);
      untraced_sessions_s += seconds;
    }

    // Observed pass: every grid session through simulate_session with a
    // metrics observer, each then replayed through a fresh client.
    ps::obs::MetricsRegistry registry;
    ps::obs::Observer observer{&registry, nullptr};
    ReplayTotals replay;
    double traced_sessions_s = 0.0;
    std::size_t segments = 0;
    const ps::sim::SessionConfig config = session_config();
    for (const ps::trace::VideoInfo& video : videos_) {
      const ps::sim::VideoWorkload workload(video, workload_config());
      for (int trace_id = 1; trace_id <= 2; ++trace_id) {
        const ps::trace::NetworkTrace& net = trace_id == 1 ? traces_->first : traces_->second;
        for (const SchemeKind scheme : ps::sim::all_schemes()) {
          for (std::size_t u = 0; u < workload.test_user_count(); ++u) {
            std::optional<ps::sim::SessionResult> result;
            traced_sessions_s += measure([&] {
              result = ps::sim::simulate_session(workload, u, scheme, net, config, &observer);
            }).wall_s;
            segments += result->segments.size();
            replay_session(workload, u, scheme, config, *result, replay);
          }
        }
      }
    }
    context.attempted += replay.sessions;
    context.failed += replay.mismatched_sessions;
    report_registry(registry, segments, metrics);
    report_replay(replay, metrics);
    set_layer(metrics, "obs.traced_over_untraced", traced_sessions_s / untraced_sessions_s);
    std::ostringstream line;
    line << "session ledger: serial sessions " << untraced_sessions_s
         << " s; replayed client " << replay.client_s() << " s (scheme plan "
         << replay.plan_s << " s); no fleet or server work on this workload";
    context.notes->push_back(line.str());
  }

  std::string describe() const override {
    std::ostringstream out;
    out << "videos=" << videos_n_ << " video_s=" << video_s_
        << " traces=1,2 schemes=" << scheme_list(ps::sim::all_schemes())
        << " users=8 threads=" << settings_.threads;
    return out.str();
  }

 private:
  static constexpr double kTraceSeconds = 300.0;

  struct Cell {
    int video_id = 0;
    int trace_id = 0;
    SchemeKind scheme = SchemeKind::kCtile;
    std::size_t segments = 0;
    ps::sim::SessionResult result;
  };
  // Host-time spans of the serial reference.
  struct Spans {
    double workload_s = 0.0;  // VideoWorkload construction
    double ftile_s = 0.0;     // first ftile() call
    std::map<SchemeKind, double> scheme_s;
  };

  ps::sim::WorkloadConfig workload_config() const {
    ps::sim::WorkloadConfig config;
    config.seed = kPaperSeed;
    return config;
  }

  ps::sim::SessionConfig session_config() const {
    ps::sim::SessionConfig config;
    config.seed = settings_.seed;
    config.device = ps::power::Device::kPixel3;
    return config;
  }

  // With `spans` the grid runs serially and times each layer call.
  std::vector<Cell> run_grid(std::size_t threads, Spans* spans) const {
    std::vector<std::vector<Cell>> per_video(videos_.size());
    std::atomic<std::size_t> next{0};
    const ps::sim::SessionConfig config = session_config();
    auto worker = [&] {
      for (std::size_t vi = next.fetch_add(1); vi < videos_.size(); vi = next.fetch_add(1)) {
        const double t0 = wall_now();
        const ps::sim::VideoWorkload workload(videos_[vi], workload_config());
        if (spans != nullptr) {
          spans->workload_s += wall_now() - t0;
          spans->ftile_s += measure([&] { workload.ftile(0); }).wall_s;
        }
        for (int trace_id = 1; trace_id <= 2; ++trace_id) {
          const ps::trace::NetworkTrace& net =
              trace_id == 1 ? traces_->first : traces_->second;
          for (const SchemeKind scheme : ps::sim::all_schemes()) {
            Cell cell{videos_[vi].id, trace_id, scheme, workload.segment_count(), {}};
            const double s0 = wall_now();
            cell.result = ps::sim::simulate_all_test_users(workload, scheme, net, config);
            if (spans != nullptr) spans->scheme_s[scheme] += wall_now() - s0;
            per_video[vi].push_back(std::move(cell));
          }
        }
      }
    };
    const std::size_t n = spans != nullptr ? 1 : std::min(threads, videos_.size());
    if (n <= 1) {
      worker();
    } else {
      std::vector<std::thread> pool;
      for (std::size_t t = 0; t < n; ++t) pool.emplace_back(worker);
      for (std::thread& thread : pool) thread.join();
    }
    std::vector<Cell> cells;
    for (auto& video_cells : per_video)
      for (Cell& cell : video_cells) cells.push_back(std::move(cell));
    return cells;
  }

  OpResult summarize(const std::vector<Cell>& cells) const {
    OpResult out;
    Fingerprint fp;
    const std::size_t expected_cells = videos_.size() * 2 * ps::sim::all_schemes().size();
    if (cells.size() != expected_cells)
      out.violation = "grid has " + std::to_string(cells.size()) + " cells, expected " +
                      std::to_string(expected_cells);
    // Every video is trimmed to the same length.
    const std::size_t expected = ps::video::segment_count(videos_.front(), kSegmentSeconds);
    for (const Cell& cell : cells) {
      fp.add(static_cast<std::uint64_t>(cell.video_id));
      fp.add(static_cast<std::uint64_t>(cell.trace_id));
      fp.add(static_cast<std::uint64_t>(cell.segments));
      add_session(fp, cell.result);
      out.segments += cell.segments * kTestUsers;
      if (out.violation.empty() &&
          (cell.segments != expected || !(cell.result.energy.total_mj() > 0.0) ||
           !std::isfinite(cell.result.qoe.mean_q)))
        out.violation = "grid cell (video " + std::to_string(cell.video_id) + ", trace " +
                        std::to_string(cell.trace_id) + ", " +
                        ps::sim::scheme_name(cell.scheme) + ") is unbalanced";
    }
    out.fingerprint = fp.value();
    return out;
  }

  static constexpr std::size_t kTestUsers =
      ps::trace::kDatasetUsers - ps::trace::kTrainingUsers;

  Settings settings_;
  std::size_t videos_n_ = 0;
  double video_s_ = 0.0;
  std::optional<std::pair<ps::trace::NetworkTrace, ps::trace::NetworkTrace>> traces_;
  std::vector<ps::trace::VideoInfo> videos_;
  std::vector<double> trace_setup_s_;
  Spans spans_;
};

// ---------------------------------------------------------------------------
// tournament: sim::run_tournament with the default TournamentConfig.
// ---------------------------------------------------------------------------
class TournamentWorkload final : public Workload {
 public:
  explicit TournamentWorkload(const Settings& settings) : settings_(settings) {
    config_.session.seed = settings.seed;
    config_.shards = 1;
    if (settings.smoke) {
      config_.fleet_sizes = {2, 3};
      config_.video_duration_s = 6.0;
    }
  }

  // The tournament builds its own workload and traces inside the call; the
  // benchmark builds the same ones for the traced reproduction and to count
  // segments.
  void setup() override {
    const double t0 = wall_now();
    traces_.emplace(ps::trace::make_paper_traces(
        config_.seed, ps::util::Seconds(config_.trace_duration_s)));
    const double t1 = wall_now();
    ps::trace::VideoInfo video = ps::trace::test_videos()[config_.video_index];
    video.duration_s = config_.video_duration_s;
    workload_.emplace(video, ps::sim::WorkloadConfig{});
    trace_setup_s_.push_back(t1 - t0);
    workload_setup_s_.push_back(wall_now() - t1);
  }

  OpResult run() override { return summarize(ps::sim::run_tournament(config_)); }

  OpResult reference(Outcome& outcome) override {
    reference_ = ps::sim::run_tournament(config_);
    // Cells hold fleet means; weigh them by their session counts.
    double sessions = 0.0, energy = 0.0, qoe = 0.0, stall = 0.0, ratio_sum = 0.0;
    std::size_t ratios = 0;
    std::vector<double> cell_qoes;
    for (const ps::sim::TournamentCell& cell : reference_->cells) {
      const double n = static_cast<double>(cell.sessions);
      sessions += n;
      energy += n * cell.metrics.energy_per_session_mj / 1e3;
      qoe += n * cell.metrics.mean_qoe;
      stall += n * cell.metrics.stall_ratio;
      cell_qoes.push_back(cell.metrics.mean_qoe);
      if (cell.scheme != SchemeKind::kOurs) continue;
      for (const ps::sim::TournamentCell& base : reference_->cells)
        if (base.scheme == SchemeKind::kCtile && base.trace_id == cell.trace_id &&
            base.fault_profile == cell.fault_profile && base.sessions == cell.sessions) {
          ratio_sum += cell.metrics.energy_per_session_mj / base.metrics.energy_per_session_mj;
          ++ratios;
        }
    }
    outcome.energy_j_per_session = energy / sessions;
    outcome.qoe_mean = qoe / sessions;
    outcome.qoe_p5 = percentile(cell_qoes, 5.0);
    outcome.stall_ratio = stall / sessions;
    outcome.energy_saving_vs_ctile_pct =
        100.0 * (1.0 - ratio_sum / static_cast<double>(ratios));
    return summarize(*reference_);
  }

  void trace_layers(LayerContext& context) override {
    MetricList& metrics = *context.metrics;
    set_layer(metrics, "setup.network_trace_s", median(trace_setup_s_));
    set_layer(metrics, "setup.video_workload_s", median(workload_setup_s_));
    set_layer(metrics, "setup.ftile_s", measure([&] { workload_->ftile(0); }).wall_s);

    // Restricted single-scheme runs reproduce the full run's cells exactly.
    for (const SchemeKind scheme : ps::sim::registered_schemes()) {
      ps::sim::TournamentConfig restricted = config_;
      restricted.schemes = {scheme};
      std::optional<ps::sim::TournamentReport> report;
      const Span span = measure([&] { report = ps::sim::run_tournament(restricted); });
      set_layer(metrics, "tournament.scheme_s." + ps::sim::scheme_name(scheme), span.wall_s);
      ++context.attempted;
      if (cells_fingerprint(*report, scheme) != cells_fingerprint(*reference_, scheme))
        ++context.failed;
    }

    // Observed reproduction of every cell through fleet::run_fleet, for the
    // counters the tournament API does not expose; clean cells are replayed.
    ps::obs::MetricsRegistry registry;
    ps::obs::Observer observer{&registry, nullptr};
    ps::fleet::FleetStats stats;
    ReplayTotals replay;
    double fleets_s = 0.0;
    std::size_t segments = 0, unreproduced = 0, cell_index = 0;
    const auto profiles = ps::sim::default_fault_profiles();
    for (std::size_t ti = 0; ti < config_.trace_ids.size(); ++ti) {
      const ps::trace::NetworkTrace& base =
          config_.trace_ids[ti] == 1 ? traces_->first : traces_->second;
      for (std::size_t fi = 0; fi < profiles.size(); ++fi) {
        for (std::size_t si = 0; si < config_.fleet_sizes.size(); ++si) {
          const std::size_t sessions = config_.fleet_sizes[si];
          const ps::trace::NetworkTrace link = base.scaled(static_cast<double>(sessions));
          for (const SchemeKind scheme : ps::sim::registered_schemes()) {
            ps::fleet::FleetConfig fc;
            fc.sessions = sessions;
            fc.seed = ps::util::derive_seed(config_.seed, kTournamentSeedStream,
                                            (ti * 1000ULL + fi) * 1000ULL + si);
            fc.scheme = scheme;
            fc.start_spread_s = config_.start_spread_s;
            fc.session = config_.session;
            fc.session.faults = profiles[fi].faults;
            fc.shards = 1;
            fc.observer = &observer;
            std::optional<ps::fleet::FleetResult> result;
            fleets_s += measure([&] { result = ps::fleet::run_fleet(*workload_, link, fc); }).wall_s;
            accumulate(stats, result->stats);
            for (const auto& s : result->sessions) segments += s.result.segments.size();
            if (!same_metrics(result->metrics(kSegmentSeconds),
                              reference_->cells[cell_index++].metrics))
              ++unreproduced;
            if (profiles[fi].faults.enabled) continue;
            for (const auto& s : result->sessions)
              replay_session(*workload_, s.test_user, scheme, fc.session, s.result, replay);
          }
        }
      }
    }
    context.attempted += replay.sessions;
    context.failed += replay.mismatched_sessions;
    report_registry(registry, segments, metrics);
    report_fleet_stats(stats, segments, metrics);
    report_replay(replay, metrics);
    set_layer(metrics, "fleet.run_fleet_s", fleets_s);
    set_layer(metrics, "obs.traced_over_untraced", fleets_s / context.timed_wall_s);
    std::ostringstream line;
    line << "tournament reproduction: " << cell_index << " cells through run_fleet in "
         << fleets_s << " s, " << unreproduced
         << " differ from run_tournament (counters describe equivalent work if > 0); "
         << "clean cells replayed: client " << replay.client_s() << " s (scheme plan "
         << replay.plan_s << " s)";
    context.notes->push_back(line.str());
  }

  std::string describe() const override {
    std::ostringstream out;
    out << "schemes=" << scheme_list(ps::sim::registered_schemes())
        << " traces=1,2 faults=clean,hostile fleets=";
    for (std::size_t i = 0; i < config_.fleet_sizes.size(); ++i)
      out << (i ? "," : "") << config_.fleet_sizes[i];
    out << " video_s=" << config_.video_duration_s << " shards=" << config_.shards;
    return out.str();
  }

 private:
  // The tournament's group-seed stream (src/sim/tournament.cpp), needed to
  // reproduce its cells; a mismatch is reported, not hidden.
  static constexpr std::uint64_t kTournamentSeedStream = 0x70DE42ULL;

  static bool same_metrics(const ps::fleet::FleetMetrics& a, const ps::fleet::FleetMetrics& b) {
    return a.energy_per_session_mj == b.energy_per_session_mj && a.mean_qoe == b.mean_qoe &&
           a.stall_ratio == b.stall_ratio && a.mean_download_s == b.mean_download_s;
  }

  static std::uint64_t cells_fingerprint(const ps::sim::TournamentReport& report,
                                         SchemeKind scheme) {
    Fingerprint fp;
    for (const ps::sim::TournamentCell& cell : report.cells) {
      if (cell.scheme != scheme) continue;
      const ps::fleet::FleetMetrics& m = cell.metrics;
      for (const double v : {m.energy_per_session_mj, m.p50_energy_mj, m.p95_energy_mj,
                             m.mean_qoe, m.p50_qoe, m.p95_qoe, m.stall_ratio,
                             m.link_utilization, m.mean_download_s})
        fp.add(v);
    }
    return fp.value();
  }

  OpResult summarize(const ps::sim::TournamentReport& report) const {
    OpResult out;
    Fingerprint fp;
    fp.add(report.to_json());
    out.fingerprint = fp.value();
    const std::size_t expected = ps::sim::registered_schemes().size() *
                                 config_.trace_ids.size() *
                                 ps::sim::default_fault_profiles().size() *
                                 config_.fleet_sizes.size();
    for (const ps::sim::TournamentCell& cell : report.cells)
      out.segments += cell.sessions * workload_->segment_count();
    if (report.cells.size() != expected || report.standings.size() != ps::sim::registered_schemes().size())
      out.violation = "tournament report has " + std::to_string(report.cells.size()) +
                      " cells, expected " + std::to_string(expected);
    return out;
  }

  Settings settings_;
  ps::sim::TournamentConfig config_;
  std::optional<std::pair<ps::trace::NetworkTrace, ps::trace::NetworkTrace>> traces_;
  std::optional<ps::sim::VideoWorkload> workload_;
  std::vector<double> trace_setup_s_;
  std::vector<double> workload_setup_s_;
  std::optional<ps::sim::TournamentReport> reference_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const Settings& settings) {
  if (settings.workload == "paper-grid") return std::make_unique<GridWorkload>(settings);
  if (settings.workload == "fleet-steady")
    return std::make_unique<FleetWorkload>(settings, /*hostile=*/false);
  if (settings.workload == "fleet-hostile")
    return std::make_unique<FleetWorkload>(settings, /*hostile=*/true);
  if (settings.workload == "tournament")
    return std::make_unique<TournamentWorkload>(settings);
  throw std::invalid_argument("unknown workload " + settings.workload);
}

}  // namespace perfbench
