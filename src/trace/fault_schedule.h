// Deterministic fault injection for the download path.
//
// Contract: a FaultSchedule is a pure function of (FaultConfig, session seed).
// Outage windows are generated lazily by a renewal process driven by a single
// ps360::util::Rng stream, and per-attempt faults (request loss, latency
// spikes) are drawn from seeds derived per (segment, attempt) — so the answer
// never depends on the order callers ask, the thread count, or how far the
// outage horizon has been extended. No wall-clock time anywhere: all times
// are simulated seconds. The fleet engine (fleet::run_fleet) is the only
// simulator that reads a schedule.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "util/rng.h"

namespace ps360::trace {

// Knobs for the fault process. Defaults are a moderately hostile LTE link:
// a couple-second outage every two minutes, one request in twenty lost,
// one in ten delayed by a few hundred milliseconds. Every duration must be
// finite (FaultSchedule rejects the config otherwise).
struct FaultConfig {
  bool enabled = false;          // master switch; false must be provably inert
  double outage_spacing_s = 120.0;  // mean gap between outages (<= 0: none)
  double outage_mean_s = 2.0;       // mean outage duration (exponential)
  double outage_max_s = 10.0;       // hard cap on a single outage
  double loss_probability = 0.05;   // chance a request vanishes entirely
  double spike_probability = 0.1;   // chance of an added latency spike
  double spike_mean_s = 0.3;        // mean spike duration (exponential)
};

// Per-attempt verdict: the request is either lost outright or delayed by a
// latency spike (possibly zero).
struct AttemptFault {
  bool lost = false;
  double spike_s = 0.0;
};

// Half-open outage interval [begin, end). A request issued inside it cannot
// reach the link before `end`; a flow already in flight keeps running
// (outages gate issue, they do not pause transfers).
struct OutageWindow {
  double begin = 0.0;
  double end = 0.0;
};

// Seed stream tag for deriving per-session fault seeds from a driver seed:
// derive_seed(driver_seed, kFaultSeedStream, session_index).
inline constexpr std::uint64_t kFaultSeedStream = 0xFA017ULL;

class FaultSchedule {
 public:
  FaultSchedule(const FaultConfig& config, std::uint64_t session_seed);

  // The outage window covering time t, if any. Extends the lazily generated
  // window list as needed; windows are disjoint and strictly ordered.
  std::optional<OutageWindow> outage_at(double t);

  // Fault verdict for a given (segment, attempt) pair. Stateless and
  // order-invariant: derived from the session seed alone.
  AttemptFault attempt_fault(std::size_t segment, std::size_t attempt) const;

  // Windows generated so far (grows as outage_at looks ahead).
  const std::vector<OutageWindow>& windows() const { return windows_; }

 private:
  // Extend the window list until the renewal process has passed time t.
  void ensure_horizon(double t);

  FaultConfig config_;
  std::uint64_t session_seed_ = 0;
  std::vector<OutageWindow> windows_;
  double horizon_ = 0.0;
  util::Rng outage_rng_;
};

}  // namespace ps360::trace
