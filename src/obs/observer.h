// Observer — the nullable instrumentation hook of a fleet run.
//
// The contract (DESIGN.md §10):
//  * A caller attaches one through FleetConfig::observer (or
//    sim::simulate_session's last argument); nullptr, the default, records
//    nothing. One writer fills it: the fleet engine's reporter, on the
//    coordinator thread, from what the clients and accountants return. The
//    client, the accountant, the schemes and the solver hold no observer, so
//    attaching one never changes which code runs, and nothing reads state
//    back out of it — which is what makes the observer-on/off differential
//    test (bit-identical energy/QoE/stall results) hold by construction.
//  * Trace records carry simulated seconds that the reporter supplies: the
//    event time, or the session's own clock (its start stagger plus the
//    client's wall clock). Nothing in src/obs reads real time (tools/lint.py
//    bans wall clocks here).
//  * `metrics` and `tracer` are optional independently; either may be null.
//  * A single Observer's sinks must only be fed from one thread. Inside a
//    fleet run only the coordinator writes (DESIGN.md §15), in global event
//    order, so the metrics JSON and trace JSONL are byte-identical for any
//    shard count (FleetShardTest, FleetGoldenTest).
#pragma once

#include "obs/metrics.h"
#include "obs/tracer.h"

namespace ps360::obs {

struct Observer {
  MetricsRegistry* metrics = nullptr;
  EventTracer* tracer = nullptr;
};

}  // namespace ps360::obs
