// simulate_session: the paper's single client as a fleet of one, so the
// fleet engine is the one session driver: it times every download on its
// link's byte clock and runs the one fault state machine. Deterministic: no
// step reads a real clock.
#include "sim/session.h"

#include <algorithm>
#include <vector>

#include "fleet/engine.h"
#include "util/check.h"

namespace ps360::sim {

void aggregate_segments(SessionResult& result) {
  power::SegmentEnergy energy;
  double total_stall_s = 0.0;
  std::size_t rebuffer_events = 0;
  double quality = 0.0, fps = 0.0, coverage = 0.0, ptile = 0.0, bytes = 0.0;
  std::vector<qoe::SegmentQoE> qoe;
  qoe.reserve(result.segments.size());
  for (const SegmentRecord& seg : result.segments) {
    energy += seg.energy;
    total_stall_s += seg.stall_s;
    if (seg.stall_s > 0.0) ++rebuffer_events;
    quality += static_cast<double>(seg.quality);
    fps += seg.fps;
    coverage += seg.coverage;
    ptile += seg.used_ptile ? 1.0 : 0.0;
    bytes += seg.bytes;
    qoe.push_back(seg.qoe);
  }
  const double n = static_cast<double>(std::max<std::size_t>(result.segments.size(), 1));
  result.energy = energy;
  result.total_stall_s = total_stall_s;
  result.rebuffer_events = rebuffer_events;
  result.mean_quality = quality / n;
  result.mean_fps = fps / n;
  result.mean_coverage = coverage / n;
  result.ptile_usage = ptile / n;
  result.total_bytes = bytes;
  result.qoe = qoe::SessionQoE::aggregate(qoe);
}

SessionResult simulate_session(const VideoWorkload& workload, std::size_t test_user,
                               SchemeKind scheme_kind,
                               const trace::NetworkTrace& network,
                               const SessionConfig& config, obs::Observer* observer) {
  PS360_CHECK(test_user < workload.test_user_count());
  fleet::FleetConfig fleet;
  fleet.sessions = 1;
  fleet.seed = config.seed;
  fleet.scheme = scheme_kind;
  fleet.start_spread_s = 0.0;
  fleet.session = config;
  fleet.observer = observer;
  fleet::FleetResult result = fleet::run_fleet(workload, network, fleet, test_user);
  return std::move(result.sessions.front().result);
}

SessionResult simulate_all_test_users(const VideoWorkload& workload,
                                      SchemeKind scheme,
                                      const trace::NetworkTrace& network,
                                      const SessionConfig& config) {
  const std::size_t users = workload.test_user_count();
  PS360_CHECK(users > 0);
  SessionResult mean;
  mean.scheme = scheme;
  for (std::size_t u = 0; u < users; ++u) {
    const SessionResult r = simulate_session(workload, u, scheme, network, config);
    mean.energy += r.energy;
    mean.total_stall_s += r.total_stall_s;
    mean.rebuffer_events += r.rebuffer_events;
    mean.mean_quality += r.mean_quality;
    mean.mean_fps += r.mean_fps;
    mean.mean_coverage += r.mean_coverage;
    mean.ptile_usage += r.ptile_usage;
    mean.total_bytes += r.total_bytes;
    mean.qoe.mean_qo += r.qoe.mean_qo;
    mean.qoe.mean_variation += r.qoe.mean_variation;
    mean.qoe.mean_rebuffer += r.qoe.mean_rebuffer;
    mean.qoe.mean_q += r.qoe.mean_q;
    mean.qoe.segments += r.qoe.segments;
  }
  const double n = static_cast<double>(users);
  mean.energy.transmit_mj /= n;
  mean.energy.decode_mj /= n;
  mean.energy.render_mj /= n;
  mean.total_stall_s /= n;
  mean.mean_quality /= n;
  mean.mean_fps /= n;
  mean.mean_coverage /= n;
  mean.ptile_usage /= n;
  mean.total_bytes /= n;
  mean.qoe.mean_qo /= n;
  mean.qoe.mean_variation /= n;
  mean.qoe.mean_rebuffer /= n;
  mean.qoe.mean_q /= n;
  return mean;
}

}  // namespace ps360::sim
