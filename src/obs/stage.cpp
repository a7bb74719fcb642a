// EmissionStage implementation: a fixed array of ops, replayed in order.
#include "obs/stage.h"

#include "util/check.h"

namespace ps360::obs {

EmissionStage::Entry& EmissionStage::push(Op op) {
  PS360_ASSERT_MSG(size_ < kCapacity,
                   "emission stage full: a plan-path solve emitted more than "
                   "EmissionStage::kCapacity ops");
  Entry& entry = entries_[size_++];
  entry.op = op;
  return entry;
}

void EmissionStage::add(MetricsRegistry::Id id, double delta) {
  Entry& entry = push(Op::kAdd);
  entry.record.a = static_cast<std::int64_t>(id);
  entry.record.v0 = delta;
}

void EmissionStage::observe(MetricsRegistry::Id id, double value) {
  Entry& entry = push(Op::kObserve);
  entry.record.a = static_cast<std::int64_t>(id);
  entry.record.v0 = value;
}

void EmissionStage::trace(const TraceRecord& record) {
  push(Op::kTrace).record = record;
}

void EmissionStage::replay(MetricsRegistry* metrics, EventTracer* tracer) {
  for (std::size_t i = 0; i < size_; ++i) {
    const Entry& entry = entries_[i];
    const auto id = static_cast<MetricsRegistry::Id>(entry.record.a);
    switch (entry.op) {
      case Op::kAdd:
        PS360_CHECK(metrics != nullptr);
        metrics->add(id, entry.record.v0);
        break;
      case Op::kObserve:
        PS360_CHECK(metrics != nullptr);
        metrics->observe(id, entry.record.v0);
        break;
      case Op::kTrace:
        PS360_CHECK(tracer != nullptr);
        tracer->record(entry.record);
        break;
    }
  }
  size_ = 0;
}

}  // namespace ps360::obs
