// The fleet engine: N concurrent MPC-controlled streaming sessions
// contending for one shared bottleneck link.
//
// Each session is a full sim::StreamingClient running the paper's
// Section IV loop (predict viewport, predict bandwidth, solve the horizon,
// download, advance Eq. 6), and every in-flight download receives its
// max-min fair share of the SharedLink, so one client's byte budget changes
// everyone else's download time. This is the regime server-side
// rate-adaptation schemes target and the single-client evaluation of the
// paper assumes away. The paper's single client is the fleet of one:
// sim::simulate_session runs through this engine, so both share one
// download integrator and one fault state machine.
//
// Determinism: one EventLoop drives the whole fleet; ties break by
// (time, session_id, sequence); the only randomness is the session start
// stagger, keyed off (seed, session_id). Results are bit-identical for any
// shard count and any PS360_THREADS (enforced by the differential battery in
// tests/fleet_shard_test.cpp): every shared-resource mutation — link rate
// updates, cache admissions, event scheduling, every metric and trace
// record — runs on the coordinator thread in event order, and the only work
// that leaves it for the worker pool (util/worker_pool.h) is the per-session
// plan, a pure function of session-local state frozen when its Eq. 6 wait
// began that emits nothing; the coordinator reports it at the flow start
// (see sim::StreamingClient::begin_plan / finish_plan and DESIGN.md §15).
// fleet::FleetRunner fans independent replications out on the same pool,
// within the same thread budget.
#pragma once

#include <vector>

#include "fleet/event_loop.h"
#include "fleet/shared_link.h"
#include "obs/observer.h"
#include "server/edge_cache.h"
#include "server/popularity.h"
#include "sim/accounting.h"

namespace ps360::fleet {

// The fixed edge→origin latency every cache miss pays before its origin
// fetch starts (seconds).
inline constexpr double kOriginLatencyS = 0.05;
static_assert(kOriginLatencyS >= 0.0);

// Server/CDN tier for the fleet (DESIGN.md §14): a Zipf(α) catalog assigns
// each session a video id at spawn, an edge cache of encoded Ptile segments
// absorbs repeat requests, and cache misses fetch through a shared origin
// link (its own capacity, plus kOriginLatencyS) before the device-side flow
// starts — so a miss costs real time and origin bytes. Disabled (the
// default) the engine takes the exact pre-server code path: no cache, no
// origin link, no extra events, bit-identical output.
struct FleetServerConfig {
  bool enabled = false;
  // Catalog popularity. Sessions draw their video id via
  // derive_seed(fleet seed, server::kVideoPopularityStream, session).
  server::ZipfConfig catalog{/*videos=*/16, /*alpha=*/0.8};
  // Edge cache byte budget (LRU eviction).
  util::Bytes cache_capacity{64.0 * 1024.0 * 1024.0};
  // Origin link: capacity shared equally by every concurrent miss fetch
  // (finite and > 0 when enabled).
  double origin_mbps = 200.0;
};

struct FleetConfig {
  std::size_t sessions = 8;
  std::uint64_t seed = 42;
  sim::SchemeKind scheme = sim::SchemeKind::kOurs;
  // Per-session access-link cap in Mbps (last-mile radio limit); <= 0
  // disables it and the bottleneck alone divides throughput. Must be finite.
  double access_cap_mbps = 0.0;
  // Session arrivals are staggered uniformly over [0, start_spread_s],
  // keyed off (seed, session_id); 0 starts every session at t = 0. Must be
  // finite.
  double start_spread_s = 1.0;
  // Per-session template (device, MPC knobs, estimators). The session seed
  // is shared — every client streams the same CDN-encoded files.
  sim::SessionConfig session;
  // Nullable metrics/trace observer (obs/observer.h). The engine is its one
  // writer: on the coordinator, in event order, it records link-level
  // events and what every session's client and accountant return, stamped
  // with the event time or the session's own clock (client wall clock
  // offset by the start stagger, so the timelines line up). The client and
  // the accountant hold no observer, so attaching one never changes which
  // code runs: plans still go to the pool, they emit nothing, and the
  // engine reports each one at its flow start. The sinks must only be fed
  // from one thread: when FleetRunner fans replications out, it gives each
  // replication a private observer and merges them in slot order, so
  // aggregates stay thread-count invariant.
  obs::Observer* observer = nullptr;
  // Server/CDN tier (edge cache + origin link): one catalog/cache/origin
  // link per run_fleet call — FleetRunner gives each replication its own
  // run_fleet call — so results stay bit-identical for any PS360_THREADS;
  // provably inert when disabled.
  FleetServerConfig server;
  // Speculative solves (DESIGN.md §15). 1 (the default) is the serial
  // engine; any other value sends session i's MPC plan to the worker pool
  // (util/worker_pool.h) whenever its Eq. 6 wait is nonzero, observed or
  // not, and the coordinator joins it at the flow start, running it itself
  // if no worker has. A fleet of one, or a one-thread budget
  // (PS360_THREADS=1), is serial; 0 and every value above 1 mean the same
  // and cap nothing, since no caller needs a cap below the pool's budget.
  // Output is bit-identical for every value, observer bytes included.
  std::size_t shards = 1;
};

// The event-heap reservation run_fleet uses for a fleet of
// `config.sessions`, sized so heap growth stays zero from 1 session to 1M:
// events resident per session are bounded by a small per-feature constant
// (pending start/flow-start, the live completion prediction, and stale
// predictions/deadlines that drain as they pop), NOT by anything that grows
// with fleet size. Exposed so the regression tests can pin both the
// zero-growth contract and the formula's linearity.
std::size_t recommended_reserve_events(const FleetConfig& config);

// Engine internals exposed for regression tests and capacity planning.
struct FleetStats {
  std::uint64_t events = 0;              // events processed
  std::uint64_t stale_completions = 0;   // lazily discarded predictions
  std::uint64_t flow_aborts = 0;         // flows killed by a fault deadline
  std::uint64_t queue_grow_events = 0;   // EventLoop heap reallocations
  std::size_t queue_peak = 0;            // max simultaneous queued events
  std::uint64_t reallocations = 0;       // link fair-share recomputes
  double makespan_s = 0.0;               // last session finish time
  util::Bytes delivered_bytes;           // bytes the edge link actually carried
  util::Bytes offered_bytes;             // integral of C(t) over the makespan
  // Always zero: the engine has no plan cache. These two stay only because
  // the frozen perfbench/workloads.cpp fingerprints them.
  std::uint64_t plan_cache_hits = 0;
  std::uint64_t plan_cache_misses = 0;
  // Server/CDN outcome of this run (all zero when the server tier is off).
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t cache_insertions = 0;
  std::size_t cache_entries = 0;         // resident objects at end of run
  util::Bytes cache_resident;            // resident bytes at end of run
  std::uint64_t origin_flows = 0;        // miss fetches that hit the origin
  util::Bytes origin_bytes;              // bytes the origin link carried
};

struct FleetSessionResult {
  std::size_t session = 0;
  std::size_t test_user = 0;  // head trace replayed by this session
  std::size_t video = 0;      // Zipf-drawn video id (0 when the server is off)
  double start_s = 0.0;       // staggered entry time
  double finish_s = 0.0;      // wall time of the last segment completion
  sim::SessionResult result;  // per-segment records and session aggregates
};

// Fleet-level aggregates (see FleetResult::metrics).
struct FleetMetrics {
  std::size_t sessions = 0;
  double energy_per_session_mj = 0.0;  // mean of per-session Eq. 1 totals
  double p50_energy_mj = 0.0;
  double p95_energy_mj = 0.0;
  double mean_qoe = 0.0;  // mean of per-session Eq. 2 session QoE
  double p50_qoe = 0.0;
  // 95th percentile of per-session QoE: the best-off sessions, not the bad
  // tail (higher QoE is better).
  double p95_qoe = 0.0;
  double stall_ratio = 0.0;        // Σ stall / (Σ stall + Σ playback)
  double link_utilization = 0.0;   // delivered / offered bytes
  double mean_download_s = 0.0;    // mean per-segment download time
  double cache_hit_rate = 0.0;     // edge hits / requests (0 when server off)
  util::Bytes origin_bytes;        // origin-link traffic (0 when server off)
};

struct FleetResult {
  std::vector<FleetSessionResult> sessions;
  FleetStats stats;

  // Aggregate the per-session results (percentiles via util/stats).
  FleetMetrics metrics(double segment_seconds) const;
};

// Run one fleet: `config.sessions` clients over `link_trace`, session i
// replaying test user (first_test_user + i) mod test_user_count.
// sim::simulate_session passes its own user to a fleet of one.
// Deterministic in (workload, link_trace, config, first_test_user).
FleetResult run_fleet(const sim::VideoWorkload& workload,
                      const trace::NetworkTrace& link_trace,
                      const FleetConfig& config, std::size_t first_test_user = 0);

}  // namespace ps360::fleet
