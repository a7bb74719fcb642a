// Fluid model of one shared bottleneck link.
//
// N in-flight downloads (flows) divide the instantaneous capacity C(t) — a
// piecewise-constant trace::NetworkTrace — equally, each limited by one
// link-wide per-flow cap fixed at construction: every flow runs at
// r(t) = min(cap, C(t)/N), which is the max-min fair share when all flows
// share one cap. With no cap this is C(t)/N, the classic processor-sharing
// model of a TCP bottleneck. The fleet engine builds two links: the device
// link, capped at FleetConfig::access_cap_mbps, and the server tier's
// uncapped origin link.
//
// Because every flow runs at the same rate, the link keeps one virtual
// per-flow byte clock V(t) (dV = r dt): a flow started at V_start completes
// when V reaches V_start + bytes, so completions live in a (V_end, session)
// min-heap with lazy per-flow tombstones — O(1) integration and O(log n)
// per start/finish, which is what lets one fleet scale to 100k–1M
// sessions (DESIGN.md §9). When the link drains empty it resets the virtual
// clock, keeping V small.
//
// The link is advanced by an exterior event loop: the rate is constant
// between events, advance_to() integrates V forward and recomputes r from
// C(t), and next_completion() predicts the earliest finish at the current
// rate. Every change that can invalidate that prediction bumps
// generation(), which the engine uses to lazily discard stale completion
// events.
//
// Invariants (differential-tested against a brute-force fluid simulation):
//  * Σ rates == min(C(t), N·cap) — the link never invents or wastes
//    deliverable capacity;
//  * determinism: completion ties break on the smaller session id; ordering
//    never depends on insertion or pointer order.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "trace/network_trace.h"
#include "util/units.h"

namespace ps360::fleet {

class SharedLink {
 public:
  struct Completion {
    double t = 0.0;
    std::size_t session = 0;
  };

  // `trace` must outlive the link; Mbps samples are converted to bytes/s.
  // `max_sessions` bounds the session ids (flow slots are preallocated).
  // `cap` limits every flow's rate and must be finite; <= 0 means uncapped.
  SharedLink(const trace::NetworkTrace& trace, std::size_t max_sessions,
             util::BytesPerSec cap);

  double now() const { return now_; }
  std::size_t active_flows() const { return active_count_; }
  std::uint64_t generation() const { return generation_; }
  util::Bytes delivered_bytes() const { return util::Bytes(delivered_bytes_); }
  std::uint64_t reallocations() const { return reallocations_; }

  // Current fair-share capacity at time t, bytes/s.
  double capacity_bytes_per_s(double t) const;

  // Earliest time strictly after now() at which C(t) may change.
  double next_capacity_change() const;

  // Register a flow of `bytes` (> 0) for `session` starting at now(). One
  // flow per session at a time.
  void start(std::size_t session, util::Bytes bytes);

  // Integrate every in-flight flow forward to t (>= now()) at the current
  // rate, then recompute the rate from C(t). The caller must not step across
  // a capacity breakpoint or a flow completion (that is what the event
  // loop's kCapacityChange / kFlowCompletion events are for).
  void advance_to(double t);

  // Remove `session`'s flow; its remaining bytes must have drained to ~0.
  void finish(std::size_t session);

  // Remove `session`'s flow mid-transfer (deadline expired / request failed).
  // Unlike finish(), remaining bytes are discarded; already-delivered bytes
  // stay counted. Frees the flow's share for everyone else (bumps
  // generation(), so pending completion predictions invalidate lazily).
  void abort(std::size_t session);

  // Earliest completion if the rate stays constant; ties break on the
  // smaller session id. nullopt when no flow is in flight.
  std::optional<Completion> next_completion() const;

  // The session's current rate, bytes/s (0 when it has no flow in flight).
  double rate_bytes_per_s(std::size_t session) const;

 private:
  struct Flow {
    double v_end = 0.0;          // V at which the flow ends
    std::uint32_t flow_seq = 0;  // tombstones stale completion-heap entries
    bool active = false;
  };

  // Completion-heap entry; stale when flow_seq no longer matches the
  // session's flow (finished/aborted/restarted).
  struct HeapEntry {
    double v_end = 0.0;
    std::size_t session = 0;
    std::uint32_t flow_seq = 0;
  };
  static bool heap_after(const HeapEntry& a, const HeapEntry& b);

  // Recompute the shared rate from C(now) and the active count. Bumps
  // generation_ when it changed.
  void refresh_rate();
  // Pop tombstoned entries so the heap top is always a live flow.
  void prune_heap();
  // Link drained empty: reset the virtual clock, the rate and the heap.
  void reset_epoch();
  void remove_flow(std::size_t session);

  const trace::NetworkTrace* trace_;
  double cap_bytes_per_s_ = 0.0;  // <= 0: uncapped
  std::vector<Flow> flows_;       // indexed by session id
  std::vector<HeapEntry> heap_;   // completion min-heap
  std::size_t active_count_ = 0;
  double rate_ = 0.0;             // shared per-flow rate r(t)
  double virtual_bytes_ = 0.0;    // V(t): per-flow bytes since the epoch
  double now_ = 0.0;
  std::uint64_t generation_ = 0;
  double delivered_bytes_ = 0.0;
  std::uint64_t reallocations_ = 0;
};

}  // namespace ps360::fleet
