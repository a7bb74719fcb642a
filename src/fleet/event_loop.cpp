// EventLoop implementation: vector-backed binary min-heap ordered by
// (time, session, sequence); reservation up front, growth counted so tests
// can pin the zero-allocation steady state.
#include "fleet/event_loop.h"

#include <algorithm>

#include "util/check.h"

namespace ps360::fleet {

EventLoop::EventLoop(std::size_t reserve_events) {
  heap_.reserve(std::max<std::size_t>(reserve_events, 1));
}

bool EventLoop::after(const Event& a, const Event& b) {
  if (a.t != b.t) return a.t > b.t;
  if (a.session != b.session) return a.session > b.session;
  return a.seq > b.seq;
}

void EventLoop::schedule(double t, std::size_t session, EventKind kind,
                         std::uint64_t generation) {
  PS360_CHECK_MSG(t >= now_, "events cannot be scheduled in the past");
  Event event;
  event.t = t;
  event.session = session;
  event.seq = next_seq_++;
  event.kind = kind;
  event.generation = generation;
  const std::size_t capacity_before = heap_.capacity();
  heap_.push_back(event);
  if (heap_.capacity() != capacity_before) ++grow_events_;
  std::push_heap(heap_.begin(), heap_.end(), &EventLoop::after);
  peak_size_ = std::max(peak_size_, heap_.size());
}

Event EventLoop::pop() {
  PS360_CHECK_MSG(!heap_.empty(), "pop() on an empty event loop");
  std::pop_heap(heap_.begin(), heap_.end(), &EventLoop::after);
  const Event event = heap_.back();
  heap_.pop_back();
  PS360_ASSERT(event.t >= now_);
  now_ = event.t;
  return event;
}

}  // namespace ps360::fleet
