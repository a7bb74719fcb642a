// Per-session accounting shared by every simulator front-end.
//
// simulate_session (one client over a private trace) and the fleet engine
// (many clients contending for a shared link) drive the same per-segment
// loop; what differs is only *where the download time comes from*. This
// class owns everything else: the per-session models (encoding, Qo, QoE,
// device), the scheme instance, and the delivered-QoE/energy bookkeeping of
// Section V — so a fleet-of-one is the single-session simulator by
// construction, not by parallel reimplementation.
//
// Protocol: construct, drive the client with client_config()/scheme(), call
// record() once per completed segment in order, then finish() exactly once.
#pragma once

#include <memory>
#include <vector>

#include "sim/client.h"
#include "sim/session.h"
#include "util/units.h"

namespace ps360::sim {

class SessionAccountant {
 public:
  // `workload` must outlive the accountant; `test_user` indexes the held-out
  // users (see VideoWorkload::test_trace).
  SessionAccountant(const VideoWorkload& workload, std::size_t test_user,
                    SchemeKind scheme, const SessionConfig& config);

  // The scheme instance the client should plan against.
  const Scheme& scheme() const { return *scheme_; }

  // The ClientConfig matching this session's SessionConfig.
  ClientConfig client_config() const;

  // Attach a nullable metrics/trace observer; forwards to the scheme's MPC
  // controller(s) so solver outcomes carry the same session label. record()
  // then emits the per-segment delivered choice (Ptile vs fallback, frame
  // rate) and energy/QoE counters. Write-only: accounting is unchanged.
  void attach_observer(obs::Observer* observer, std::uint32_t session);

  // Account segment `request.segment`: delivered QoE against the user's
  // ground-truth viewport, Eq. 1 energy, and the per-segment record.
  // Segments must arrive in order, each exactly once.
  void record(const ClientRequest& request, util::Seconds download,
              util::Seconds stall);

  // Aggregate into the SessionResult (Eq. 2 session QoE, means). Call once,
  // after the final record().
  SessionResult finish();

 private:
  const VideoWorkload* workload_;
  std::size_t test_user_;
  SessionConfig config_;
  video::EncodingModel encoding_;
  qoe::QoModel qo_model_;
  qoe::QoEModel qoe_model_;
  std::unique_ptr<Scheme> scheme_;
  const power::DeviceModel* device_;

  SessionResult result_;
  std::vector<qoe::SegmentQoE> qoe_segments_;
  double prev_actual_qo_ = -1.0;
  bool finished_ = false;

  // Observability (nullable; ids cached at attach).
  obs::Observer* observer_ = nullptr;
  std::uint32_t obs_session_ = 0;
  obs::MetricsRegistry::Id id_segments_ = 0;
  obs::MetricsRegistry::Id id_ptile_segments_ = 0;
  obs::MetricsRegistry::Id id_fallback_segments_ = 0;
  obs::MetricsRegistry::Id id_reduced_frame_segments_ = 0;
  obs::MetricsRegistry::Id id_energy_mj_ = 0;
  obs::MetricsRegistry::Id id_qoe_q_ = 0;
  obs::MetricsRegistry::Id id_energy_hist_ = 0;
};

}  // namespace ps360::sim
