// Network throughput traces.
//
// The paper drives its evaluation with an LTE throughput trace from van der
// Hooft et al. [27], linearly scaled into two conditions: trace 2 averages
// 3.9 Mbps (range 2.3-8.4 Mbps) and trace 1 is twice that. NetworkTrace is a
// piecewise-constant (t, Mbps) series; the synthesizer produces a bounded
// mean-reverting walk with the published statistics, and `scaled()`
// implements the paper's linear scaling.
#pragma once

#include <cstdint>
#include <filesystem>
#include <vector>

#include "util/units.h"

namespace ps360::trace {

struct ThroughputSample {
  double t = 0.0;     // seconds
  double mbps = 0.0;  // throughput valid on [t, next.t)
};

class NetworkTrace {
 public:
  // Samples must be non-empty, finite, strictly increasing in t, positive in
  // mbps.
  // The last sample is assumed to last as long as the one before it (1 s for
  // a single-sample trace), so the trace covers [first.t, end_time()).
  explicit NetworkTrace(std::vector<ThroughputSample> samples);

  const std::vector<ThroughputSample>& samples() const { return samples_; }
  double end_time() const { return end_time_; }

  // Length of one trace period (end_time() - first sample time) and the
  // bytes one full period delivers. Because the trace is periodic past its
  // end, any window of exactly period_s() seconds delivers bytes_per_period()
  // regardless of phase — which is what lets bytes_in fast-forward whole
  // wraps instead of stepping sample by sample.
  double period_s() const { return end_time_ - samples_.front().t; }
  double bytes_per_period() const { return bytes_per_period_; }

  // Throughput at time t (piecewise-constant; clamps outside the range,
  // and wraps around for t beyond the trace end so long sessions can loop).
  double throughput_at(double t) const;

  // Earliest time strictly after t at which throughput_at may change value
  // (the next sample boundary, wrap-aware). The fleet engine schedules its
  // capacity-change events here so flow rates are constant between events.
  double next_rate_change_after(double t) const;

  // Bytes deliverable in [t0, t1] (integrates the piecewise-constant rate).
  double bytes_in(double t0, double t1) const;

  // Mean throughput over [t0, t1] in Mbps.
  double mean_mbps(double t0, double t1) const;

  // All sample rates (for summary statistics).
  std::vector<double> rates_mbps() const;

  // Linearly scaled copy (trace 1 of the paper = trace 2 scaled by 2).
  NetworkTrace scaled(double factor) const;

 private:
  // Index of the sample whose interval contains (wrapped) time t.
  std::size_t index_at(double wrapped_t) const;
  double wrap_time(double t) const;
  // Sample index at time t plus the seconds until that interval ends,
  // stepping exactly onto a fresh period at the wrap boundary.
  struct WrapStep {
    std::size_t index = 0;
    double chunk_s = 0.0;
  };
  WrapStep step_at(double t) const;

  std::vector<ThroughputSample> samples_;
  double end_time_ = 0.0;
  double bytes_per_period_ = 0.0;
};

struct NetworkSynthConfig {
  double duration_s = 600.0;
  double step_s = 1.0;       // sample spacing
  double mean_mbps = 3.9;    // long-run mean (trace 2 of the paper)
  double min_mbps = 2.3;     // hard floor
  double max_mbps = 8.4;     // hard ceiling
  double reversion = 0.25;   // mean-reversion strength per step
  double volatility = 0.85;  // per-step innovation std-dev (Mbps)
};

// Bounded mean-reverting walk reproducing the paper's trace-2 statistics,
// deterministic in (seed, config).
NetworkTrace synthesize_network_trace(std::uint64_t seed, const NetworkSynthConfig& config);

// The two evaluation conditions of Section V: first element is trace 1
// (2x bandwidth), second is trace 2.
std::pair<NetworkTrace, NetworkTrace> make_paper_traces(std::uint64_t seed,
                                                        util::Seconds duration);

// CSV persistence. Columns: t,mbps.
void save_network_trace(const std::filesystem::path& path, const NetworkTrace& trace);
NetworkTrace load_network_trace(const std::filesystem::path& path);

}  // namespace ps360::trace
