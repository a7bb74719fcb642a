// EmissionStage — one fleet session's observer emissions, held while its
// MPC solve is out on the worker pool and replayed on the coordinator.
//
// A MetricsRegistry and an EventTracer are single-threaded, and their bytes
// depend on emission order (counters are floating-point sums, the trace is
// a sequence), so a worker must not feed them. While a session's speculative
// solve is outstanding, the fleet engine points that session's Observer at
// its stage: obs::add, obs::observe and obs::trace (observer.h) append here
// instead of reaching the sinks. When the session's flow-start event pops —
// the point where the serial engine emits the same calls — the coordinator
// replays the stage in order, so the registry JSON and the trace JSONL are
// byte-identical to a solve made on the coordinator (DESIGN.md §15).
//
// Capacity is the emission bound of one plan-path solve:
//  * StreamingClient::finish_plan makes 5: client.segments_planned,
//    client.wait_seconds, client.bytes_requested, the client.segment_bytes
//    histogram and the segment_planned record;
//  * the scheme's solve adds at most 4 from core::MpcController::decide
//    (mpc.decides, mpc.relaxed_fallbacks, mpc.infeasible and the
//    mpc_strict/mpc_relaxed record), or 1 from the Ghosh LP allocator
//    (lp.allocations). Every scheme runs exactly one of the two per plan.
// So a solve stages at most 5 + 4 = 9 ops. One op past kCapacity throws
// std::logic_error: a new emitter on the plan path must raise the bound.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "obs/metrics.h"
#include "obs/tracer.h"

namespace ps360::obs {

class EmissionStage {
 public:
  static constexpr std::size_t kCapacity = 9;

  // Stage MetricsRegistry::add / observe and EventTracer::record calls.
  void add(MetricsRegistry::Id id, double delta);
  void observe(MetricsRegistry::Id id, double value);
  void trace(const TraceRecord& record);

  // Apply the staged ops to the sinks in staging order, then empty the
  // stage. A sink may be null only if no op for it was staged.
  void replay(MetricsRegistry* metrics, EventTracer* tracer);

  std::size_t size() const { return size_; }

 private:
  enum class Op : std::uint8_t { kAdd, kObserve, kTrace };
  // Metric ops keep their id in record.a and their value in record.v0.
  struct Entry {
    Op op = Op::kAdd;
    TraceRecord record;
  };

  Entry& push(Op op);

  std::array<Entry, kCapacity> entries_{};
  std::size_t size_ = 0;
};

}  // namespace ps360::obs
