// MetricsRegistry — named counters, gauges, and fixed-bucket histograms for
// the simulation hot paths.
//
// Usage discipline (what keeps the hot path allocation-free):
//  * Registration (`counter()` / `gauge()` / `histogram()`) happens once, at
//    attach/setup time, and may allocate; it returns a dense integer Id.
//  * Recording (`add()` / `set_max()` / `observe()`) is an index plus
//    arithmetic on preallocated storage — no lookups, no allocation, no
//    branches beyond the bucket search over a fixed boundary table.
//  * A registry is single-threaded by design: one fleet run's coordinator
//    feeds it (obs/observer.h). Counters and histogram bins add and gauges
//    take the max (every gauge in this codebase is a high-water mark), so
//    several runs recorded into one registry, one after another, sum their
//    counters and keep the highest gauge.
//
// Histograms use log-spaced bucket boundaries (bound[i] = first * growth^i)
// with explicit underflow/overflow bins, sized for latency/size style
// distributions that span orders of magnitude.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace ps360::obs {

enum class MetricKind : std::uint8_t { kCounter = 0, kGauge = 1, kHistogram = 2 };

// Log-spaced histogram shape: finite bucket i covers
// (first_bound * growth^(i-1), first_bound * growth^i] for i in [0, buckets),
// with bucket 0's lower edge at 0 (all non-positive values underflow).
struct HistogramSpec {
  double first_bound = 1e-3;
  double growth = 2.0;
  std::size_t buckets = 24;
};

class MetricsRegistry {
 public:
  using Id = std::size_t;

  // --- registration (setup path; may allocate; get-or-create by name) -----
  Id counter(const std::string& name);
  Id gauge(const std::string& name);
  Id histogram(const std::string& name, const HistogramSpec& spec = {});

  // --- recording (hot path; never allocates) ------------------------------
  void add(Id id, double delta = 1.0);   // counter +=
  void set_max(Id id, double value);     // gauge = max(gauge, value)
  void observe(Id id, double value);     // histogram bin ++

  // --- readback -----------------------------------------------------------
  std::size_t size() const { return metrics_.size(); }
  bool has(const std::string& name) const;
  double value(const std::string& name) const;            // counter or gauge
  std::uint64_t histogram_count(const std::string& name) const;  // Σ bins
  // Bin counts, length spec.buckets + 2: [underflow, bins..., overflow].
  const std::vector<std::uint64_t>& histogram_bins(const std::string& name) const;
  // Finite upper bounds, length spec.buckets.
  const std::vector<double>& histogram_bounds(const std::string& name) const;

  // --- export -------------------------------------------------------------
  // One JSON object, metrics sorted by name — the stable wire format the
  // tools read and the determinism tests compare.
  std::string to_json() const;
  void write_json(std::ostream& out) const;

 private:
  struct Metric {
    std::string name;
    MetricKind kind = MetricKind::kCounter;
    double value = 0.0;                     // counter total / gauge max
    HistogramSpec spec;                     // histogram only
    std::vector<double> bounds;             // histogram only (finite bounds)
    std::vector<std::uint64_t> bins;        // histogram only (buckets + 2)
  };

  Id get_or_create(const std::string& name, MetricKind kind);
  const Metric& find(const std::string& name, MetricKind kind) const;

  std::vector<Metric> metrics_;  // dense, indexed by Id, registration order
};

}  // namespace ps360::obs
