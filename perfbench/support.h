// Measurement plumbing for the benchmark program: clocks, spans, result
// fingerprints, order statistics, process facts and the named-metric list
// that becomes the final JSON line.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

// Host clocks: monotonic wall seconds and CPU seconds of the whole process
// (all threads).
double wall_now();
double cpu_now();

double median(std::vector<double> values);
// Linear-interpolated percentile, p in [0, 100].
double percentile(std::vector<double> values, double p);

// Wall and CPU time of one measured call.
struct Span {
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

template <typename F>
Span measure(F&& f) {
  const double w0 = wall_now();
  const double c0 = cpu_now();
  f();
  return {wall_now() - w0, cpu_now() - c0};
}

// FNV-1a over the exact bits of the values fed to it, so two outputs match
// only if every double is bit-identical.
class Fingerprint {
 public:
  void add(double value);
  void add(std::uint64_t value);
  void add(std::string_view bytes);
  std::uint64_t value() const { return hash_; }

 private:
  void mix(const void* data, std::size_t size);
  std::uint64_t hash_ = 1469598103934665603ULL;
};

// Peak resident set size of this process so far, MiB.
double peak_rss_mib();
// CPUs this process may run on (what `nproc` prints).
std::size_t cpu_count();

// How the benchmark binary was compiled. optimized() is false for a build
// without an -O level, which perfbench refuses to report from.
struct BuildInfo {
  std::string build_type;
  std::string cxx_flags;
  std::string compiler;
  bool optimized = false;
};
BuildInfo build_info();

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// Metrics in print order; set() overwrites an existing name.
class MetricList {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  const std::vector<Metric>& items() const { return items_; }

 private:
  std::vector<Metric> items_;
};

// %.17g with a JSON-safe fallback for non-finite values.
std::string json_number(double value);
std::string json_string(std::string_view text);

}  // namespace perfbench
