// Observer — the nullable instrumentation hook threaded through the client,
// the session accountant, and the fleet engine.
//
// The contract (DESIGN.md §10):
//  * An instrumented component holds a plain `obs::Observer*` that defaults
//    to nullptr; the disabled path is one branch on that pointer, nothing
//    else. No component may ever *read* state back out of the observer —
//    observation is strictly write-only, which is what makes the
//    observer-on/off differential test (bit-identical energy/QoE/stall
//    results) hold by construction.
//  * The plan path emits nothing. A scheme's plan() and the MPC solver's
//    decide() return what their solve did inside the DownloadPlan, and the
//    StreamingClient reports it on the thread that owns the observer
//    (StreamingClient::publish_plan), so a plan may run on any thread.
//  * `now_s` is the simulated clock the next trace record is stamped with.
//    Exactly one driver owns it at a time: the StreamingClient sets it to
//    its wall clock (plus the session's start offset in a fleet) when it
//    publishes a plan, reports a failure or completes a download; the fleet
//    engine sets it at every event for link-level records (the
//    download_start record after a publish keeps the planning clock).
//    Nothing in src/obs reads real time (tools/lint.py bans wall clocks
//    here).
//  * `metrics` and `tracer` are optional independently; either may be null.
//  * A single Observer's sinks must only be fed from one thread. The fleet
//    runner gives every replication a private Observer and merges in slot
//    order; inside one replication only the coordinator emits (DESIGN.md
//    §15), in global event order, so the metrics JSON and trace JSONL are
//    byte-identical for any shard count (FleetShardTest, FleetGoldenTest).
#pragma once

#include <cstdint>

#include "obs/metrics.h"
#include "obs/tracer.h"

namespace ps360::obs {

struct Observer {
  MetricsRegistry* metrics = nullptr;
  EventTracer* tracer = nullptr;
  // Simulated seconds for the next trace record; see the ownership rule
  // above. Mutable-by-design: the clock owner advances it, emitters stamp it.
  double now_s = 0.0;
};

// A trace record at the observer's current clock. Safe to call with a null
// observer or a null tracer (then nothing is recorded).
inline void trace(Observer* observer, std::uint32_t session, TraceEventKind kind,
                  std::int64_t a = 0, double v0 = 0.0, double v1 = 0.0) {
  if (observer == nullptr || observer->tracer == nullptr) return;
  observer->tracer->record(observer->now_s, session, kind, a, v0, v1);
}

}  // namespace ps360::obs
