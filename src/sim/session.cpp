// simulate_session: drives a StreamingClient against a private NetworkTrace,
// fault-free. Deterministic: downloads integrate the trace and no step reads
// a real clock. Fault injection runs only in the fleet engine.
#include "sim/session.h"

#include "sim/accounting.h"
#include "sim/client.h"

#include "util/check.h"

namespace ps360::sim {

SessionResult simulate_session(const VideoWorkload& workload, std::size_t test_user,
                               SchemeKind scheme_kind,
                               const trace::NetworkTrace& network,
                               const SessionConfig& config) {
  return simulate_session(workload, test_user, scheme_kind, network, config,
                          /*observer=*/nullptr);
}

SessionResult simulate_session(const VideoWorkload& workload, std::size_t test_user,
                               SchemeKind scheme_kind,
                               const trace::NetworkTrace& network,
                               const SessionConfig& config, obs::Observer* observer) {
  PS360_CHECK(test_user < workload.test_user_count());
  PS360_CHECK_MSG(!config.faults.enabled,
                  "simulate_session runs fault-free; run a faulted session through "
                  "fleet::run_fleet (a fleet of one with start_spread_s = 0)");

  // The accountant owns the per-session models and the delivered-QoE/energy
  // bookkeeping (shared with the fleet engine); this function supplies the
  // network: each planned download takes whatever the throughput trace says.
  SessionAccountant accountant(workload, test_user, scheme_kind, config);
  const trace::HeadTrace& head = workload.test_trace(test_user);
  StreamingClient client(accountant.client_config(), workload,
                         accountant.scheme(), head);
  if (observer != nullptr) {
    accountant.attach_observer(observer, /*session=*/0);
    client.attach_observer(observer, /*session=*/0);
  }

  while (auto request = client.plan_next()) {
    const double download_s =
        network.time_to_download(request->plan.option.bytes, client.wall_time_s());
    PS360_ASSERT(download_s > 0.0);
    const double stall = client.complete_download(util::Seconds(download_s));
    accountant.record(*request, util::Seconds(download_s), util::Seconds(stall));
  }
  return accountant.finish();
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
