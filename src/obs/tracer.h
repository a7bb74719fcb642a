// EventTracer — bounded ring buffer of typed per-session trace records.
//
// Records are small POD rows (simulated timestamp, session id, kind, three
// kind-specific payload slots) appended in O(1) with zero allocation: the
// ring is sized once at construction and wraps by overwriting the oldest
// record (`dropped()` counts the overwritten ones, so truncation is always
// visible, never silent).
//
// Timestamps are *simulated* seconds supplied by the emitter (the client's
// wall clock, the fleet engine's event clock). Nothing in src/obs may read
// real time — the tracer must never introduce a nondeterministic input into
// a replayable simulation (tools/lint.py enforces the clock ban).
//
// Export is JSON-lines (one record per line, stable field order);
// tools/trace_report.py renders the JSONL into a human summary and the
// Chrome about://tracing format.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <vector>

namespace ps360::obs {

enum class TraceEventKind : std::uint8_t {
  kSegmentPlanned = 0,    // a = segment, v0 = bandwidth estimate B/s, v1 = buffer s
  kDownloadStart = 1,     // a = segment, v0 = bytes
  kDownloadComplete = 2,  // a = segment, v0 = download s, v1 = stall s
  kStallBegin = 3,        // a = segment
  kStallEnd = 4,          // a = segment, v0 = stall s
  kMpcStrict = 5,         // a = horizon length, v0 = objective
  kMpcRelaxed = 6,        // a = horizon length, v0 = objective (fallback solve)
  kPtileChoice = 7,       // a = quality v, v0 = fps, v1 = used_ptile (0/1)
  kLinkRateChange = 8,    // a = active flows, v0 = capacity B/s
  kDownloadTimeout = 9,   // a = segment, v0 = elapsed s, v1 = attempt
  kDownloadRetry = 10,    // a = segment, v0 = backoff s, v1 = attempt
  kDownloadDegraded = 11, // a = segment, v0 = degrade level, v1 = bandwidth B/s
};
inline constexpr std::size_t kTraceEventKinds = 12;

// Stable wire name of a record kind ("segment_planned", ...).
const char* trace_event_name(TraceEventKind kind);

struct TraceRecord {
  double t = 0.0;             // simulated seconds
  std::uint32_t session = 0;  // emitting session (0 in single-session runs)
  TraceEventKind kind = TraceEventKind::kSegmentPlanned;
  std::int64_t a = 0;         // kind-specific integer payload
  double v0 = 0.0;            // kind-specific payloads
  double v1 = 0.0;
};

class EventTracer {
 public:
  // `capacity` >= 1: how many records the ring retains.
  explicit EventTracer(std::size_t capacity = 4096);

  std::size_t capacity() const { return ring_.size(); }
  std::size_t size() const { return count_; }
  std::uint64_t recorded() const { return recorded_; }
  std::uint64_t dropped() const { return recorded_ - count_; }

  // Append one record; O(1), never allocates. Overwrites the oldest record
  // once the ring is full.
  void record(double t, std::uint32_t session, TraceEventKind kind,
              std::int64_t a = 0, double v0 = 0.0, double v1 = 0.0);

  // Retained records, oldest first.
  std::vector<TraceRecord> snapshot() const;

  void clear();

  // One JSON object per line: {"t":..,"session":..,"kind":"..","a":..,
  // "v0":..,"v1":..}. Oldest record first.
  void export_jsonl(std::ostream& out) const;

 private:
  std::vector<TraceRecord> ring_;  // fixed capacity, sized at construction
  std::size_t head_ = 0;           // next write slot
  std::size_t count_ = 0;          // retained records (<= capacity)
  std::uint64_t recorded_ = 0;     // lifetime record() calls
};

}  // namespace ps360::obs
