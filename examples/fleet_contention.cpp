// fleet_contention — how the paper's controller behaves when it is not
// alone: sweep the number of concurrent clients sharing one bottleneck link
// and compare "Ours" against the conventional-tile baseline at every fleet
// size.
//
// The link is provisioned at roughly one LTE trace-2 share per client at
// fleet size 16, so small fleets run uncongested and large fleets fight for
// the fair share — the interesting regime for an energy-aware scheme, since
// slower downloads keep the radio powered longer (Eq. 1).
//
// Build & run:
//   cmake -B build && cmake --build build
//   ./build/examples/fleet_contention
//
// With `--trace PATH` it instead runs one observed 16-session fleet and
// writes the event trace to PATH as JSON-lines (plus the merged metrics
// registry to PATH.metrics.json); render either with tools/trace_report.py.
//
// With `--faults` it instead runs one observed 16-session fleet under the
// seeded fault model (outages, request loss, latency spikes) and prints the
// recovery counters — retries, timeouts, degradations, aborted flows. Runs
// are reproducible: the same seed gives the same faults and counters.
//
// With `--edge-cache BYTES` it instead runs one 16-session fleet through the
// server/CDN tier twice — edge cache disabled (capacity 0: every request
// pays the origin round trip), then with a BYTES-sized cache — and prints
// the hit rate, origin traffic, and the stall delta the cache buys.
// `--zipf ALPHA` sets the catalog popularity skew (default 0.8).
//
// `--shards N` composes with every mode: any N other than 1 sends each
// replication's MPC solves speculatively to the worker pool its
// replications run on, within the same thread budget (PS360_THREADS=1
// keeps every N serial; see DESIGN.md §15). Every number printed is
// bit-identical for any N — only the wall clock moves.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "fleet/runner.h"
#include "obs/metrics.h"
#include "obs/observer.h"
#include "obs/tracer.h"
#include "sim/workload.h"
#include "trace/video_catalog.h"
#include "util/units.h"

using namespace ps360;

namespace {

// One observed fleet run at the provisioning point; dumps the trace JSONL
// and the metrics JSON for tools/trace_report.py.
int run_traced(const sim::VideoWorkload& workload,
               const fleet::FleetConfig& base,
               const fleet::FleetRunOptions& base_options,
               const std::string& path) {
  obs::MetricsRegistry metrics;
  obs::EventTracer tracer(1 << 18);
  obs::Observer observer{&metrics, &tracer};

  fleet::FleetConfig config = base;
  config.sessions = 16;
  config.observer = &observer;
  fleet::FleetRunOptions options = base_options;
  options.replications = 1;
  const fleet::FleetAggregate agg =
      fleet::run_fleet_aggregate(workload, config, options);

  std::ofstream jsonl(path);
  if (!jsonl.good()) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return 1;
  }
  tracer.export_jsonl(jsonl);
  const std::string metrics_path = path + ".metrics.json";
  std::ofstream json(metrics_path);
  metrics.write_json(json);
  json << "\n";

  std::printf("traced %zu sessions: %llu events, %llu trace records "
              "(%llu dropped)\n",
              config.sessions,
              static_cast<unsigned long long>(agg.stats.events),
              static_cast<unsigned long long>(tracer.recorded()),
              static_cast<unsigned long long>(tracer.dropped()));
  std::printf("wrote %s and %s\n", path.c_str(), metrics_path.c_str());
  std::printf("render: python3 tools/trace_report.py %s --chrome trace.json\n",
              path.c_str());
  return 0;
}

// One observed fleet under the seeded fault model; prints the recovery
// counters the fault layer feeds through obs::Observer.
int run_faulted(const sim::VideoWorkload& workload,
                const fleet::FleetConfig& base,
                const fleet::FleetRunOptions& base_options) {
  obs::MetricsRegistry metrics;
  obs::Observer observer{&metrics, nullptr};

  fleet::FleetConfig config = base;
  config.sessions = 16;
  config.observer = &observer;
  config.session.faults.enabled = true;
  config.session.faults.outage_spacing_s = 20.0;
  config.session.faults.loss_probability = 0.1;
  config.session.faults.spike_probability = 0.2;
  // A tight deadline so slow fair-share downloads actually hit it and the
  // abort/retry path is visible in the counters below.
  config.session.recovery.timeout_s = 1.5;
  fleet::FleetRunOptions options = base_options;
  options.replications = 1;
  const fleet::FleetAggregate agg =
      fleet::run_fleet_aggregate(workload, config, options);

  std::printf("faulted fleet of %zu sessions (seed %llu): all sessions "
              "completed\n",
              config.sessions, static_cast<unsigned long long>(config.seed));
  std::printf("  retries:          %8.0f\n", metrics.value("client.retries"));
  std::printf("    timeouts:       %8.0f\n", metrics.value("client.timeouts"));
  std::printf("    losses:         %8.0f\n", metrics.value("client.losses"));
  std::printf("    outage hits:    %8.0f\n",
              metrics.value("client.outage_failures"));
  std::printf("  degradations:     %8.0f\n",
              metrics.value("client.degradations"));
  std::printf("  aborted flows:    %8llu\n",
              static_cast<unsigned long long>(agg.stats.flow_aborts));
  std::printf("  backoff+retry:    %8.1f s radio-idle recovery time\n",
              metrics.value("client.recovery_seconds"));
  std::printf("  energy/session:   %8.0f mJ, QoE %.1f, stall %.1f%%\n",
              agg.metrics.energy_per_session_mj, agg.metrics.mean_qoe,
              agg.metrics.stall_ratio * 100.0);
  std::printf("\nSame seed, same faults: rerun and every number above is "
              "bit-identical.\n");
  return 0;
}

// The server/CDN demo: the same 16-session fleet through the two-tier
// topology, first with a capacity-0 edge cache (every request pays the
// origin latency and occupies the origin link), then with a real one. The
// Zipf catalog makes a modest cache absorb most of the request stream; the
// origin-traffic and stall columns show what that buys.
int run_edge_cached(const sim::VideoWorkload& workload,
                    const fleet::FleetConfig& base,
                    const fleet::FleetRunOptions& base_options,
                    double cache_bytes, double zipf_alpha) {
  fleet::FleetRunOptions options = base_options;
  options.replications = 1;

  fleet::FleetConfig config = base;
  config.sessions = 16;
  config.server.enabled = true;
  config.server.catalog = {/*videos=*/8, zipf_alpha};

  fleet::FleetAggregate agg[2];
  for (int arm = 0; arm < 2; ++arm) {
    config.server.cache_capacity = util::Bytes(arm == 1 ? cache_bytes : 0.0);
    agg[arm] = fleet::run_fleet_aggregate(workload, config, options);
  }

  std::printf("edge-cache demo: 16 sessions, Zipf(%.2f) over %zu videos, "
              "origin %.0f Mbps + %.0f ms\n\n",
              zipf_alpha, config.server.catalog.videos,
              config.server.origin_mbps,
              fleet::kOriginLatencyS * 1e3);
  for (int arm = 0; arm < 2; ++arm) {
    const fleet::FleetStats& s = agg[arm].stats;
    const double requests = static_cast<double>(s.cache_hits + s.cache_misses);
    const double hit_rate =
        requests > 0.0 ? static_cast<double>(s.cache_hits) / requests : 0.0;
    std::printf("  cache %8.1f MiB  hit rate %5.1f%%  origin %7.1f MiB "
                "(%llu fetches)  stall %5.2f%%\n",
                arm == 1 ? cache_bytes / (1024.0 * 1024.0) : 0.0,
                hit_rate * 100.0, s.origin_bytes.value() / (1024.0 * 1024.0),
                static_cast<unsigned long long>(s.origin_flows),
                agg[arm].metrics.stall_ratio * 100.0);
  }
  const double origin_saved =
      agg[0].stats.origin_bytes.value() - agg[1].stats.origin_bytes.value();
  std::printf("\n  the cache absorbed %.1f MiB of origin traffic; stall delta "
              "%+.2f points vs cache-off\n",
              origin_saved / (1024.0 * 1024.0),
              (agg[0].metrics.stall_ratio - agg[1].metrics.stall_ratio) *
                  100.0);
  std::printf("  same seed, same catalog draw: rerun and every number above "
              "is bit-identical.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_path;
  bool faults = false;
  double edge_cache_bytes = -1.0;
  double zipf_alpha = 0.8;
  std::size_t shards = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--faults") == 0) {
      faults = true;
    } else if (std::strcmp(argv[i], "--edge-cache") == 0 && i + 1 < argc) {
      edge_cache_bytes = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--zipf") == 0 && i + 1 < argc) {
      zipf_alpha = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      shards = static_cast<std::size_t>(std::atoi(argv[++i]));
    } else {
      std::fprintf(stderr,
                   "usage: %s [--trace PATH] [--faults] "
                   "[--edge-cache BYTES] [--zipf ALPHA] [--shards N]\n",
                   argv[0]);
      return 1;
    }
  }

  // A short focused clip keeps 170+ simulated sessions quick.
  trace::VideoInfo video = trace::test_videos()[1];
  video.duration_s = 30.0;
  std::printf("video: %d (%s), %.0f s\n", video.id, video.name.c_str(),
              video.duration_s);

  const sim::VideoWorkload workload(video, sim::WorkloadConfig{});

  // Bottleneck provisioned for ~16 concurrent trace-2 clients.
  fleet::FleetRunOptions options;
  options.replications = 2;  // on all cores (PS360_THREADS caps them)
  options.link.duration_s = 400.0;
  options.link.mean_mbps *= 16.0;
  options.link.min_mbps *= 16.0;
  options.link.max_mbps *= 16.0;

  fleet::FleetConfig base;
  base.start_spread_s = 2.0;
  // Speculative solves on the worker pool (bit-identical; wall clock only).
  base.shards = shards;

  if (!trace_path.empty()) return run_traced(workload, base, options, trace_path);
  if (faults) return run_faulted(workload, base, options);
  if (edge_cache_bytes >= 0.0)
    return run_edge_cached(workload, base, options, edge_cache_bytes,
                           zipf_alpha);

  const std::vector<std::size_t> sizes = {1, 4, 16, 64};
  std::printf("link: %.0f Mbps mean, %zu replications per point\n\n",
              options.link.mean_mbps, options.replications);

  std::printf("%7s | %26s | %26s\n", "", "Ours", "Ctile");
  std::printf("%7s | %8s %6s %5s %4s | %8s %6s %5s %4s\n", "fleet",
              "mJ/user", "QoE", "stall", "util", "mJ/user", "QoE", "stall",
              "util");
  std::printf("--------+----------------------------+--------------------------"
              "--\n");
  for (const std::size_t size : sizes) {
    fleet::FleetMetrics metrics[2];
    const sim::SchemeKind schemes[2] = {sim::SchemeKind::kOurs,
                                        sim::SchemeKind::kCtile};
    for (int i = 0; i < 2; ++i) {
      fleet::FleetConfig config = base;
      config.sessions = size;
      config.scheme = schemes[i];
      metrics[i] =
          fleet::run_fleet_aggregate(workload, config, options).metrics;
    }
    std::printf("%7zu | %8.0f %6.1f %4.1f%% %3.0f%% | %8.0f %6.1f %4.1f%% "
                "%3.0f%%\n",
                size, metrics[0].energy_per_session_mj, metrics[0].mean_qoe,
                metrics[0].stall_ratio * 100.0,
                metrics[0].link_utilization * 100.0,
                metrics[1].energy_per_session_mj, metrics[1].mean_qoe,
                metrics[1].stall_ratio * 100.0,
                metrics[1].link_utilization * 100.0);
  }

  std::printf("\nReading the table: past the provisioning point (16) every "
              "session's fair\nshare shrinks, downloads stretch, and the radio "
              "stays up longer — the\nenergy gap between the schemes is what "
              "survives contention.\n");
  return 0;
}
