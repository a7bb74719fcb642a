// Deterministic fault injection for the download path. See fault_schedule.h
// for the reproducibility contract: everything here is a pure function of
// (FaultConfig, session seed) and simulated time — no wall clocks, no global
// state, no order sensitivity.
#include "trace/fault_schedule.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace ps360::trace {

namespace {

// Sub-stream tags under the session seed, so the outage renewal process and
// the per-attempt draws never share a stream.
constexpr std::uint64_t kOutageStream = 0x0A7A6EULL;
constexpr std::uint64_t kAttemptStream = 0xA77E3D7ULL;

}  // namespace

FaultSchedule::FaultSchedule(const FaultConfig& config,
                             std::uint64_t session_seed)
    : config_(config),
      session_seed_(session_seed),
      outage_rng_(util::derive_seed(session_seed, kOutageStream)) {
  PS360_CHECK_MSG(std::isfinite(config.outage_spacing_s),
                  "outage_spacing_s must be finite (<= 0 disables outages)");
  PS360_CHECK_MSG(std::isfinite(config.outage_mean_s) && config.outage_mean_s > 0.0,
                  "outage_mean_s must be finite and > 0");
  PS360_CHECK_MSG(std::isfinite(config.outage_max_s) && config.outage_max_s > 0.0,
                  "outage_max_s must be finite and > 0");
  PS360_CHECK_MSG(
      config.loss_probability >= 0.0 && config.loss_probability <= 1.0,
      "loss probability must be in [0, 1]");
  PS360_CHECK_MSG(
      config.spike_probability >= 0.0 && config.spike_probability <= 1.0,
      "spike probability must be in [0, 1]");
  PS360_CHECK_MSG(std::isfinite(config.spike_mean_s) && config.spike_mean_s >= 0.0,
                  "spike_mean_s must be finite and >= 0");
}

void FaultSchedule::ensure_horizon(double t) {
  if (config_.outage_spacing_s <= 0.0) return;
  // Renewal process: exponential gap, exponential-but-capped duration. The
  // single Rng stream advances monotonically with the horizon, so the window
  // list depends only on how far ahead anyone has looked — never on who asked.
  while (horizon_ <= t) {
    const double gap = outage_rng_.exponential(config_.outage_spacing_s);
    const double len = std::min(outage_rng_.exponential(config_.outage_mean_s),
                                config_.outage_max_s);
    const double begin = horizon_ + gap;
    windows_.push_back(OutageWindow{begin, begin + len});
    horizon_ = begin + len;
  }
}

std::optional<OutageWindow> FaultSchedule::outage_at(double t) {
  PS360_CHECK(t >= 0.0);
  if (!config_.enabled || config_.outage_spacing_s <= 0.0) return std::nullopt;
  ensure_horizon(t);
  // Windows are sorted and disjoint; find the first ending after t.
  const auto it = std::upper_bound(
      windows_.begin(), windows_.end(), t,
      [](double value, const OutageWindow& w) { return value < w.end; });
  if (it != windows_.end() && it->begin <= t && t < it->end) return *it;
  return std::nullopt;
}

AttemptFault FaultSchedule::attempt_fault(std::size_t segment,
                                          std::size_t attempt) const {
  AttemptFault fault;
  if (!config_.enabled) return fault;
  // Stateless: a fresh Rng per (segment, attempt) keyed off the session seed,
  // so the verdict is identical no matter when or how often it is queried.
  util::Rng rng(util::derive_seed(
      util::derive_seed(session_seed_, kAttemptStream, segment), attempt));
  fault.lost = rng.bernoulli(config_.loss_probability);
  if (!fault.lost && rng.bernoulli(config_.spike_probability))
    fault.spike_s = rng.exponential(config_.spike_mean_s);
  return fault;
}

}  // namespace ps360::trace
