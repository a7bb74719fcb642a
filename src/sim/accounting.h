// Per-session accounting for the one session driver.
//
// The fleet engine (many clients contending for a shared link;
// simulate_session is its fleet of one) supplies the download times. This
// class owns everything else: the per-session models (encoding, Qo, QoE,
// device), the scheme instance, and the delivered-QoE/energy bookkeeping of
// Section V. It validates the session's SessionConfig (validated()) and keeps
// the one copy its scheme reads.
//
// Protocol: construct, build the client from the same SessionConfig against
// scheme(), call record() once per completed segment in order, then finish()
// exactly once.
#pragma once

#include <memory>

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
  // The scheme keeps the addresses of the config and models, so the
  // accountant never moves.
  SessionAccountant(const SessionAccountant&) = delete;
  SessionAccountant& operator=(const SessionAccountant&) = delete;

  // The scheme instance the client should plan against.
  const Scheme& scheme() const { return *scheme_; }

  // The validated SessionConfig, unchanged (perfbench's replay builds its
  // client from it).
  const SessionConfig& client_config() const { return config_; }

  // Account segment `request.segment`: delivered QoE against the user's
  // ground-truth viewport, Eq. 1 energy, and the per-segment record, which
  // it returns (valid until the next record() or finish()). Segments must
  // arrive in order, each exactly once.
  const SegmentRecord& record(const ClientRequest& request, util::Seconds download,
                              util::Seconds stall);

  // Aggregate the records into the SessionResult (aggregate_segments: Eq. 2
  // session QoE, sums, means). Call once, after the session's last segment
  // is recorded; throws if any segment is missing.
  SessionResult finish();

 private:
  const VideoWorkload* workload_;
  std::size_t test_user_;
  SessionConfig config_;
  video::EncodingModel encoding_;
  qoe::QoModel qo_model_;
  qoe::QoEModel qoe_model_;
  std::unique_ptr<Scheme> scheme_;

  SessionResult result_;
  double prev_actual_qo_ = -1.0;
  bool finished_ = false;
};

}  // namespace ps360::sim
