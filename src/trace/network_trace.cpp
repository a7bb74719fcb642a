// Piecewise-constant throughput traces, including the paper's two 4G/5G
// profiles. Seeded generation + pure integration queries keep download
// times identical across reruns.
#include "trace/network_trace.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "util/check.h"
#include "util/csv.h"
#include "util/rng.h"

namespace ps360::trace {

NetworkTrace::NetworkTrace(std::vector<ThroughputSample> samples)
    : samples_(std::move(samples)) {
  PS360_CHECK_MSG(!samples_.empty(), "network trace must have samples");
  for (std::size_t i = 0; i < samples_.size(); ++i) {
    PS360_CHECK_MSG(std::isfinite(samples_[i].t) && std::isfinite(samples_[i].mbps),
                    "network trace sample " + std::to_string(i) +
                        " has a non-finite t or mbps");
    if (i == 0) PS360_CHECK_MSG(samples_[i].t >= 0.0, "trace must start at t >= 0");
    PS360_CHECK_MSG(samples_[i].mbps > 0.0, "throughput must be positive");
    if (i > 0)
      PS360_CHECK_MSG(samples_[i].t > samples_[i - 1].t,
                      "trace timestamps must be strictly increasing");
  }
  const double last_step =
      samples_.size() >= 2
          ? samples_.back().t - samples_[samples_.size() - 2].t
          : 1.0;
  end_time_ = samples_.back().t + last_step;
  for (std::size_t i = 0; i < samples_.size(); ++i) {
    const double seg_end = i + 1 < samples_.size() ? samples_[i + 1].t : end_time_;
    bytes_per_period_ += samples_[i].mbps * 1e6 / 8.0 * (seg_end - samples_[i].t);
  }
}

double NetworkTrace::wrap_time(double t) const {
  if (t < samples_.front().t) return samples_.front().t;
  const double span = end_time_ - samples_.front().t;
  double w = std::fmod(t - samples_.front().t, span);
  return samples_.front().t + w;
}

std::size_t NetworkTrace::index_at(double wrapped_t) const {
  const auto it = std::upper_bound(
      samples_.begin(), samples_.end(), wrapped_t,
      [](double value, const ThroughputSample& s) { return value < s.t; });
  if (it == samples_.begin()) return 0;
  return static_cast<std::size_t>(it - samples_.begin()) - 1;
}

double NetworkTrace::throughput_at(double t) const {
  return samples_[index_at(wrap_time(t))].mbps;
}

double NetworkTrace::next_rate_change_after(double t) const {
  // Before the trace starts the rate is clamped to the first sample, so the
  // first possible change is that sample's interval end.
  if (t < samples_.front().t) {
    return samples_.size() >= 2 ? samples_[1].t : end_time_;
  }
  const double wt = wrap_time(t);
  const std::size_t idx = index_at(wt);
  // Boundary of the interval containing wt. When t sits on (or within float
  // dust of) that boundary, step one interval further — "strictly after".
  double dt = ((idx + 1 < samples_.size()) ? samples_[idx + 1].t : end_time_) - wt;
  if (dt <= 1e-12) {
    if (idx + 1 < samples_.size()) {
      // Next interval is [samples_[idx+1].t, following boundary).
      const double after =
          (idx + 2 < samples_.size()) ? samples_[idx + 2].t : end_time_;
      dt += after - samples_[idx + 1].t;
    } else {
      // Wrapping past end_time(): the trace restarts at its first interval.
      dt += (samples_.size() >= 2 ? samples_[1].t : end_time_) - samples_.front().t;
    }
  }
  return t + dt;
}

// Interval of the (wrapped) trace containing time t: sample index plus the
// seconds left in that interval. When wrap_time's fmod rounding lands wt on
// the trace end itself, t is really at the start of a fresh period, so step
// exactly into the first interval at the first sample's rate — never a
// fabricated chunk at the pre-wrap sample's rate (that overcounted integrals
// spanning the boundary and could degenerate into 1e-6-second crawling).
NetworkTrace::WrapStep NetworkTrace::step_at(double t) const {
  const double wt = wrap_time(t);
  const std::size_t idx = index_at(wt);
  const double seg_end =
      (idx + 1 < samples_.size()) ? samples_[idx + 1].t : end_time_;
  const double chunk = seg_end - wt;
  if (chunk > 0.0) return WrapStep{idx, chunk};
  const double first_end = samples_.size() >= 2 ? samples_[1].t : end_time_;
  return WrapStep{0, first_end - samples_.front().t};
}

double NetworkTrace::bytes_in(double t0, double t1) const {
  PS360_CHECK(t1 >= t0);
  // Integrate piecewise-constant Mbps over wall time; step through samples,
  // wrapping at the trace end. Mbps -> bytes/s is * 1e6 / 8.
  double bytes = 0.0;
  double t = t0;
  // Whole periods contribute a phase-independent constant; fast-forward them
  // (the clamped region before the first sample is not periodic, so only
  // once t is inside the trace).
  const double span = period_s();
  if (t >= samples_.front().t && t1 - t >= span) {
    const double periods = std::floor((t1 - t) / span);
    bytes += periods * bytes_per_period_;
    t += periods * span;
  }
  while (t < t1 - 1e-12) {
    const WrapStep step = step_at(t);
    const double chunk = std::min(step.chunk_s, t1 - t);
    bytes += samples_[step.index].mbps * 1e6 / 8.0 * chunk;
    t += chunk;
  }
  return bytes;
}

double NetworkTrace::mean_mbps(double t0, double t1) const {
  PS360_CHECK(t1 > t0);
  return bytes_in(t0, t1) * 8.0 / 1e6 / (t1 - t0);
}

std::vector<double> NetworkTrace::rates_mbps() const {
  std::vector<double> rates;
  rates.reserve(samples_.size());
  for (const auto& s : samples_) rates.push_back(s.mbps);
  return rates;
}

NetworkTrace NetworkTrace::scaled(double factor) const {
  PS360_CHECK(factor > 0.0);
  std::vector<ThroughputSample> scaled_samples = samples_;
  for (auto& s : scaled_samples) s.mbps *= factor;
  return NetworkTrace(std::move(scaled_samples));
}

namespace {

// The synthesized walk's shape: sample spacing (s), mean-reversion strength
// per step, and per-step innovation std-dev (Mbps).
constexpr double kStepS = 1.0;
constexpr double kReversion = 0.25;
constexpr double kVolatility = 0.85;
static_assert(kStepS > 0.0);

}  // namespace

NetworkTrace synthesize_network_trace(std::uint64_t seed, const NetworkSynthConfig& config) {
  PS360_CHECK(config.min_mbps > 0.0 && config.min_mbps < config.max_mbps);
  PS360_CHECK(config.mean_mbps > config.min_mbps && config.mean_mbps < config.max_mbps);
  const std::size_t n = ceil_count(config.duration_s / kStepS, "duration_s");
  util::Rng rng(util::derive_seed(seed, 0x4E7770ULL));
  std::vector<ThroughputSample> samples;
  samples.reserve(n);
  double rate = config.mean_mbps;
  for (std::size_t i = 0; i < n; ++i) {
    samples.push_back(ThroughputSample{static_cast<double>(i) * kStepS, rate});
    const double innovation = rng.normal(0.0, kVolatility);
    rate += kReversion * (config.mean_mbps - rate) + innovation;
    // Reflect at the bounds rather than clamping, so the walk does not stick
    // to the floor/ceiling (LTE traces show excursions, not saturation).
    if (rate < config.min_mbps) rate = config.min_mbps + (config.min_mbps - rate);
    if (rate > config.max_mbps) rate = config.max_mbps - (rate - config.max_mbps);
    rate = std::clamp(rate, config.min_mbps, config.max_mbps);
  }
  return NetworkTrace(std::move(samples));
}

std::pair<NetworkTrace, NetworkTrace> make_paper_traces(std::uint64_t seed,
                                                        util::Seconds duration) {
  const double duration_s = duration.value();
  NetworkSynthConfig config;
  config.duration_s = duration_s;
  NetworkTrace trace2 = synthesize_network_trace(seed, config);
  NetworkTrace trace1 = trace2.scaled(2.0);
  return {std::move(trace1), std::move(trace2)};
}

void save_network_trace(const std::filesystem::path& path, const NetworkTrace& trace) {
  util::CsvTable table;
  table.header = {"t", "mbps"};
  for (const auto& s : trace.samples()) table.rows.push_back({s.t, s.mbps});
  util::write_csv_file(path, table);
}

NetworkTrace load_network_trace(const std::filesystem::path& path) {
  // Malformed inputs (ragged rows, non-numeric cells, missing columns, bad
  // sample values) surface as std::runtime_error naming the file, never as
  // an out-of-bounds row access.
  util::CsvTable table;
  std::size_t ct = 0, cm = 0;
  try {
    table = util::read_csv_file(path, /*has_header=*/true);
    ct = table.column("t");
    cm = table.column("mbps");
  } catch (const std::invalid_argument& e) {
    throw std::runtime_error("malformed network trace " + path.string() + ": " +
                             e.what());
  }
  if (table.rows.empty())
    throw std::runtime_error("network trace " + path.string() +
                             " has no data rows");
  const std::size_t need = std::max(ct, cm) + 1;
  std::vector<ThroughputSample> samples;
  samples.reserve(table.rows.size());
  for (std::size_t i = 0; i < table.rows.size(); ++i) {
    const auto& row = table.rows[i];
    // Defense in depth: the parser rejects ragged rows against the header,
    // but never index a row narrower than the named columns. Data row i is
    // line i + 2 of the file (after the header), modulo comment lines.
    if (row.size() < need)
      throw std::runtime_error("network trace " + path.string() + " line " +
                               std::to_string(i + 2) + ": row has " +
                               std::to_string(row.size()) +
                               " columns, need at least " + std::to_string(need));
    samples.push_back(ThroughputSample{row[ct], row[cm]});
  }
  try {
    return NetworkTrace(std::move(samples));
  } catch (const std::invalid_argument& e) {
    throw std::runtime_error("invalid network trace " + path.string() + ": " +
                             e.what());
  }
}

}  // namespace ps360::trace
