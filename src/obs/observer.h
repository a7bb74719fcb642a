// Observer — the nullable instrumentation hook threaded through the client,
// the MPC solver, and the fleet engine.
//
// The contract (DESIGN.md §10):
//  * An instrumented component holds a plain `obs::Observer*` that defaults
//    to nullptr; the disabled path is one branch on that pointer, nothing
//    else. No component may ever *read* state back out of the observer —
//    observation is strictly write-only, which is what makes the
//    observer-on/off differential test (bit-identical energy/QoE/stall
//    results) hold by construction.
//  * `now_s` is the simulated clock the next trace record is stamped with.
//    Exactly one driver owns it at a time: the StreamingClient sets it to
//    its wall clock (plus the session's start offset in a fleet) before any
//    nested emitter (scheme → MpcController) runs; the fleet engine sets the
//    caller's `now_s` at every event for link-level records, and copies a
//    session's planning clock into it once that session's plan is in hand
//    (the download_start record that follows carries the planning clock).
//    Nothing in src/obs reads real time (tools/lint.py bans wall clocks
//    here).
//  * `metrics` and `tracer` are optional independently; either may be null.
//  * A single Observer's sinks must only be fed from one thread. The fleet
//    runner gives every replication a private Observer and merges in slot
//    order. Inside one replication (DESIGN.md §15) the engine gives each
//    session its own Observer with the caller's sinks and a private `now_s`;
//    while that session's MPC solve is released to the worker pool, `stage`
//    points at the session's EmissionStage, so the plan path's obs::add /
//    obs::observe / obs::trace calls are staged, not emitted. The
//    coordinator replays the stage when the session's flow-start event pops
//    — where a serial run emits them — so every sink is still fed from one
//    thread, in global event order, and the metrics JSON and trace JSONL
//    are byte-identical for any shard count (FleetShardTest, FleetGoldenTest).
#pragma once

#include <cstdint>

#include "obs/metrics.h"
#include "obs/stage.h"
#include "obs/tracer.h"

namespace ps360::obs {

struct Observer {
  MetricsRegistry* metrics = nullptr;
  EventTracer* tracer = nullptr;
  // Simulated seconds for the next trace record; see the ownership rule
  // above. Mutable-by-design: the clock owner advances it, emitters stamp it.
  double now_s = 0.0;
  // Non-null while emissions through the helpers below must be held for
  // replay on the owning thread (a fleet session's off-coordinator solve).
  EmissionStage* stage = nullptr;
};

// Emit helpers for code that may run while a stage is set: each records
// into the stage when there is one, else into the sink. All are safe to call
// with a null observer or a null sink (then nothing is recorded).
inline void add(Observer* observer, MetricsRegistry::Id id, double delta = 1.0) {
  if (observer == nullptr || observer->metrics == nullptr) return;
  if (observer->stage != nullptr) {
    observer->stage->add(id, delta);
  } else {
    observer->metrics->add(id, delta);
  }
}

inline void observe(Observer* observer, MetricsRegistry::Id id, double value) {
  if (observer == nullptr || observer->metrics == nullptr) return;
  if (observer->stage != nullptr) {
    observer->stage->observe(id, value);
  } else {
    observer->metrics->observe(id, value);
  }
}

// A trace record at the observer's current clock.
inline void trace(Observer* observer, std::uint32_t session, TraceEventKind kind,
                  std::int64_t a = 0, double v0 = 0.0, double v1 = 0.0) {
  if (observer == nullptr || observer->tracer == nullptr) return;
  const TraceRecord record{observer->now_s, session, kind, a, v0, v1};
  if (observer->stage != nullptr) {
    observer->stage->trace(record);
  } else {
    observer->tracer->record(record);
  }
}

}  // namespace ps360::obs
