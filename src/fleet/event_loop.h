// Deterministic discrete-event queue for the fleet engine.
//
// The fleet simulation advances through eight event kinds: a session
// entering the system, a download (flow) starting after its Eq. 6 wait, a
// flow completing on the shared link, the bottleneck capacity changing at a
// trace breakpoint, under fault injection a per-attempt deadline expiring
// and a latency-spiked flow finally admitting onto the link, and — with the
// server/CDN layer enabled — an edge-cache miss reaching the origin link
// after the edge→origin latency and that origin fetch completing.
// EventLoop totally orders them by (time, session_id, sequence) — never by
// pointer value or hash-container iteration order — so a fleet run is
// bit-reproducible across platforms and thread counts. One EventLoop holds
// every event of a fleet run, and only the engine's coordinator thread
// schedules and pops (speculative solves on the worker pool never touch it).
//
// Zero steady-state allocation: the queue is a binary heap over a vector
// reserved up front (same discipline as core::MpcScratch); every reallocation
// is counted in grow_events() so a regression test can pin the steady state
// to zero growth.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace ps360::fleet {

// Session id carried by link-wide events (capacity changes). Larger than any
// real session id, so at equal timestamps session events are processed first.
inline constexpr std::size_t kLinkSession = std::numeric_limits<std::size_t>::max();

enum class EventKind : std::uint8_t {
  kSessionStart = 0,    // session enters and plans its first request
  kFlowStart = 1,       // the planned download hits the link (wait elapsed)
  kFlowCompletion = 2,  // predicted completion (validated via `generation`)
  kCapacityChange = 3,  // shared-link capacity trace breakpoint
  // Fault-injection kinds (scheduled only when FaultConfig.enabled; both
  // carry the session's attempt sequence number in `generation` so stale
  // ones are discarded lazily, mirroring kFlowCompletion):
  kFlowDeadline = 4,    // per-attempt timeout expires; abort and retry
  kFlowAdmit = 5,       // latency spike over; the flow actually hits the link
  // Server/CDN kinds (scheduled only when FleetServerConfig.enabled):
  kOriginStart = 6,      // edge miss reaches the origin link (latency over);
                         // carries the attempt sequence in `generation`
  kOriginCompletion = 7, // predicted origin-fetch finish (validated against
                         // the origin link's generation, like kFlowCompletion)
};

struct Event {
  double t = 0.0;
  std::size_t session = kLinkSession;
  std::uint64_t seq = 0;  // schedule() counter: the final tie-break
  EventKind kind = EventKind::kCapacityChange;
  // Lazy-invalidation tag for kFlowCompletion: the link generation the
  // prediction was made under. A popped completion whose generation no
  // longer matches the link is stale and must be discarded.
  std::uint64_t generation = 0;
};

class EventLoop {
 public:
  // `reserve_events` bounds the expected peak queue size; schedule() beyond
  // it still works but counts a grow event.
  explicit EventLoop(std::size_t reserve_events);

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }
  double now() const { return now_; }

  // Enqueue an event at time t >= now().
  void schedule(double t, std::size_t session, EventKind kind,
                std::uint64_t generation = 0);

  // Remove and return the next event in (t, session, seq) order, advancing
  // now() to its timestamp.
  Event pop();

  // Observability for the zero-growth regression test.
  std::uint64_t grow_events() const { return grow_events_; }
  std::size_t peak_size() const { return peak_size_; }

 private:
  // Min-heap order: a sorts after b when (t, session, seq) is greater.
  static bool after(const Event& a, const Event& b);

  std::vector<Event> heap_;
  double now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t grow_events_ = 0;
  std::size_t peak_size_ = 0;
};

}  // namespace ps360::fleet
