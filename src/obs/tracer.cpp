// EventTracer implementation: fixed-size ring with wraparound-overwrite,
// plus the JSONL exporter that defines the trace wire format.
#include "obs/tracer.h"

#include <array>
#include <ostream>

#include "util/check.h"

namespace ps360::obs {

const char* trace_event_name(TraceEventKind kind) {
  static constexpr std::array<const char*, kTraceEventKinds> names = {
      "segment_planned",  "download_start", "download_complete",
      "stall_begin",      "stall_end",      "mpc_strict",
      "mpc_relaxed",      "ptile_choice",   "link_rate_change",
      "download_timeout", "download_retry", "download_degraded"};
  const auto index = static_cast<std::size_t>(kind);
  PS360_CHECK(index < names.size());
  return names[index];
}

EventTracer::EventTracer(std::size_t capacity) {
  PS360_CHECK(capacity >= 1);
  ring_.resize(capacity);
}

void EventTracer::record(double t, std::uint32_t session, TraceEventKind kind,
                         std::int64_t a, double v0, double v1) {
  ring_[head_] = TraceRecord{t, session, kind, a, v0, v1};
  head_ = head_ + 1 == ring_.size() ? 0 : head_ + 1;
  if (count_ < ring_.size()) ++count_;
  ++recorded_;
}

std::vector<TraceRecord> EventTracer::snapshot() const {
  std::vector<TraceRecord> out;
  out.reserve(count_);
  // Oldest record sits at head_ when the ring has wrapped, at 0 otherwise.
  const std::size_t start = count_ == ring_.size() ? head_ : 0;
  for (std::size_t i = 0; i < count_; ++i)
    out.push_back(ring_[(start + i) % ring_.size()]);
  return out;
}

void EventTracer::clear() {
  head_ = 0;
  count_ = 0;
  recorded_ = 0;
}

void EventTracer::export_jsonl(std::ostream& out) const {
  out.precision(17);
  for (const TraceRecord& r : snapshot()) {
    out << "{\"t\":" << r.t << ",\"session\":" << r.session << ",\"kind\":\""
        << trace_event_name(r.kind) << "\",\"a\":" << r.a << ",\"v0\":" << r.v0
        << ",\"v1\":" << r.v1 << "}\n";
  }
}

}  // namespace ps360::obs
