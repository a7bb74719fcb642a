// SharedLink implementation: one shared rate min(cap, C/N) integrated on a
// virtual per-flow byte clock (O(1) integration, O(log n) starts/finishes),
// and a generation counter that lazily invalidates completion predictions.
#include "fleet/shared_link.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace ps360::fleet {

namespace {
// Residual bytes tolerated when a flow is declared complete: float error from
// rate * dt integration is many orders of magnitude below one byte for any
// realistic segment, so anything above this indicates an engine bug.
constexpr double kCompletionSlackBytes = 1e-2;
}  // namespace

SharedLink::SharedLink(const trace::NetworkTrace& trace, std::size_t max_sessions,
                       util::BytesPerSec cap)
    : trace_(&trace), cap_bytes_per_s_(cap.value()), flows_(max_sessions) {
  PS360_CHECK(max_sessions >= 1);
  PS360_CHECK_MSG(std::isfinite(cap_bytes_per_s_),
                  "cap must be finite (<= 0 means uncapped)");
  // One live heap entry per session plus tombstones from aborts that have
  // not yet surfaced; doubling leaves ample slack before any regrowth.
  heap_.reserve(2 * max_sessions + 16);
}

double SharedLink::capacity_bytes_per_s(double t) const {
  return trace_->throughput_at(t) * 1e6 / 8.0;
}

double SharedLink::next_capacity_change() const {
  return trace_->next_rate_change_after(now_);
}

bool SharedLink::heap_after(const HeapEntry& a, const HeapEntry& b) {
  if (a.v_end != b.v_end) return a.v_end > b.v_end;
  return a.session > b.session;
}

void SharedLink::refresh_rate() {
  if (active_count_ == 0) return;
  ++reallocations_;
  const double share =
      capacity_bytes_per_s(now_) / static_cast<double>(active_count_);
  const double rate =
      cap_bytes_per_s_ > 0.0 ? std::min(cap_bytes_per_s_, share) : share;
  if (rate != rate_) {
    rate_ = rate;
    ++generation_;
  }
}

void SharedLink::prune_heap() {
  while (!heap_.empty()) {
    const HeapEntry& top = heap_.front();
    const Flow& flow = flows_[top.session];
    if (flow.active && flow.flow_seq == top.flow_seq) return;
    std::pop_heap(heap_.begin(), heap_.end(), &SharedLink::heap_after);
    heap_.pop_back();
  }
}

void SharedLink::reset_epoch() {
  rate_ = 0.0;
  virtual_bytes_ = 0.0;
  heap_.clear();
}

void SharedLink::start(std::size_t session, util::Bytes bytes) {
  PS360_CHECK(session < flows_.size());
  PS360_CHECK_MSG(!flows_[session].active, "session already has a flow in flight");
  PS360_CHECK(bytes.value() > 0.0);

  Flow& flow = flows_[session];
  flow.active = true;
  ++flow.flow_seq;
  ++active_count_;
  flow.v_end = virtual_bytes_ + bytes.value();
  heap_.push_back(HeapEntry{flow.v_end, session, flow.flow_seq});
  std::push_heap(heap_.begin(), heap_.end(), &SharedLink::heap_after);
  refresh_rate();
  ++generation_;  // a new flow always invalidates completion predictions
}

void SharedLink::advance_to(double t) {
  PS360_CHECK_MSG(t >= now_, "the link cannot move backwards in time");
  const double dt = t - now_;
  if (dt > 0.0) {
    const double moved = rate_ * dt;
    virtual_bytes_ += moved;
    delivered_bytes_ += moved * static_cast<double>(active_count_);
    now_ = t;
  }
  refresh_rate();
}

void SharedLink::remove_flow(std::size_t session) {
  flows_[session].active = false;
  --active_count_;
  prune_heap();
  if (active_count_ == 0) {
    reset_epoch();
  } else {
    refresh_rate();
  }
  ++generation_;
}

void SharedLink::finish(std::size_t session) {
  PS360_CHECK(session < flows_.size());
  const Flow& flow = flows_[session];
  PS360_CHECK_MSG(flow.active, "no flow in flight for this session");
  PS360_ASSERT_MSG(flow.v_end - virtual_bytes_ <= kCompletionSlackBytes,
                   "flow finished with bytes still outstanding");
  remove_flow(session);
}

void SharedLink::abort(std::size_t session) {
  PS360_CHECK(session < flows_.size());
  PS360_CHECK_MSG(flows_[session].active, "no flow in flight for this session");
  remove_flow(session);
}

std::optional<SharedLink::Completion> SharedLink::next_completion() const {
  if (active_count_ == 0) return std::nullopt;
  // prune_heap() runs after every removal, so the top entry is live; the
  // (v_end, session) heap order equals (dt, session) order because every
  // flow shares one rate.
  PS360_ASSERT(!heap_.empty());
  PS360_ASSERT(rate_ > 0.0);
  const HeapEntry& top = heap_.front();
  const double dt = std::max(top.v_end - virtual_bytes_, 0.0) / rate_;
  return Completion{now_ + dt, top.session};
}

double SharedLink::rate_bytes_per_s(std::size_t session) const {
  PS360_CHECK(session < flows_.size());
  return flows_[session].active ? rate_ : 0.0;
}

}  // namespace ps360::fleet
