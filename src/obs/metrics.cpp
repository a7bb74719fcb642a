// MetricsRegistry implementation. Registration is linear-scan get-or-create
// (registries hold tens of metrics, registered once); recording is a vector
// index; export sorts by name so the JSON is independent of registration
// order.
#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <sstream>

#include "util/check.h"

namespace ps360::obs {

namespace {

std::vector<double> make_bounds(const HistogramSpec& spec) {
  PS360_CHECK(spec.first_bound > 0.0);
  PS360_CHECK(spec.growth > 1.0);
  PS360_CHECK(spec.buckets >= 1);
  std::vector<double> bounds(spec.buckets);
  double bound = spec.first_bound;
  for (std::size_t i = 0; i < spec.buckets; ++i) {
    bounds[i] = bound;
    bound *= spec.growth;
  }
  return bounds;
}

bool same_shape(const HistogramSpec& a, const HistogramSpec& b) {
  return a.first_bound == b.first_bound && a.growth == b.growth &&
         a.buckets == b.buckets;
}

}  // namespace

MetricsRegistry::Id MetricsRegistry::get_or_create(const std::string& name,
                                                   MetricKind kind) {
  PS360_CHECK_MSG(!name.empty(), "metric names must be non-empty");
  for (Id id = 0; id < metrics_.size(); ++id) {
    if (metrics_[id].name == name) {
      PS360_CHECK_MSG(metrics_[id].kind == kind,
                      "metric '" + name + "' re-registered with a different kind");
      return id;
    }
  }
  Metric metric;
  metric.name = name;
  metric.kind = kind;
  metrics_.push_back(std::move(metric));
  return metrics_.size() - 1;
}

MetricsRegistry::Id MetricsRegistry::counter(const std::string& name) {
  return get_or_create(name, MetricKind::kCounter);
}

MetricsRegistry::Id MetricsRegistry::gauge(const std::string& name) {
  return get_or_create(name, MetricKind::kGauge);
}

MetricsRegistry::Id MetricsRegistry::histogram(const std::string& name,
                                               const HistogramSpec& spec) {
  const Id id = get_or_create(name, MetricKind::kHistogram);
  Metric& metric = metrics_[id];
  if (metric.bins.empty()) {
    metric.spec = spec;
    metric.bounds = make_bounds(spec);
    metric.bins.assign(spec.buckets + 2, 0);
  } else {
    PS360_CHECK_MSG(same_shape(metric.spec, spec),
                    "histogram '" + name + "' re-registered with a different shape");
  }
  return id;
}

void MetricsRegistry::add(Id id, double delta) {
  PS360_ASSERT(id < metrics_.size());
  PS360_ASSERT(metrics_[id].kind == MetricKind::kCounter);
  metrics_[id].value += delta;
}

void MetricsRegistry::set_max(Id id, double value) {
  PS360_ASSERT(id < metrics_.size());
  PS360_ASSERT(metrics_[id].kind == MetricKind::kGauge);
  metrics_[id].value = std::max(metrics_[id].value, value);
}

void MetricsRegistry::observe(Id id, double value) {
  PS360_ASSERT(id < metrics_.size());
  Metric& metric = metrics_[id];
  PS360_ASSERT(metric.kind == MetricKind::kHistogram);
  // bins[0] is underflow (value <= 0), bins[1 + i] is finite bucket i
  // (upper bound inclusive), bins[buckets + 1] is overflow.
  std::size_t bin;
  if (!(value > 0.0)) {
    bin = 0;  // non-positive and NaN both land in underflow
  } else {
    const auto it =
        std::lower_bound(metric.bounds.begin(), metric.bounds.end(), value);
    bin = 1 + static_cast<std::size_t>(it - metric.bounds.begin());
  }
  ++metric.bins[bin];
}

bool MetricsRegistry::has(const std::string& name) const {
  for (const Metric& m : metrics_)
    if (m.name == name) return true;
  return false;
}

const MetricsRegistry::Metric& MetricsRegistry::find(const std::string& name,
                                                     MetricKind kind) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) {
      PS360_CHECK_MSG(m.kind == kind, "metric '" + name + "' has a different kind");
      return m;
    }
  }
  throw std::invalid_argument("unknown metric: " + name);
}

double MetricsRegistry::value(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) {
      PS360_CHECK_MSG(m.kind != MetricKind::kHistogram,
                      "value() on histogram '" + name + "'; use histogram_bins()");
      return m.value;
    }
  }
  throw std::invalid_argument("unknown metric: " + name);
}

std::uint64_t MetricsRegistry::histogram_count(const std::string& name) const {
  const Metric& m = find(name, MetricKind::kHistogram);
  std::uint64_t total = 0;
  for (const std::uint64_t c : m.bins) total += c;
  return total;
}

const std::vector<std::uint64_t>& MetricsRegistry::histogram_bins(
    const std::string& name) const {
  return find(name, MetricKind::kHistogram).bins;
}

const std::vector<double>& MetricsRegistry::histogram_bounds(
    const std::string& name) const {
  return find(name, MetricKind::kHistogram).bounds;
}

void MetricsRegistry::write_json(std::ostream& out) const {
  std::vector<const Metric*> sorted;
  sorted.reserve(metrics_.size());
  for (const Metric& m : metrics_) sorted.push_back(&m);
  std::sort(sorted.begin(), sorted.end(),
            [](const Metric* a, const Metric* b) { return a->name < b->name; });

  out << "{";
  bool first = true;
  const auto key = [&](const std::string& name) -> std::ostream& {
    if (!first) out << ",";
    first = false;
    out << "\"" << name << "\":";
    return out;
  };
  out.precision(17);
  for (const Metric* m : sorted) {
    switch (m->kind) {
      case MetricKind::kCounter:
      case MetricKind::kGauge:
        key(m->name) << m->value;
        break;
      case MetricKind::kHistogram: {
        key(m->name) << "{\"bounds\":[";
        for (std::size_t i = 0; i < m->bounds.size(); ++i)
          out << (i ? "," : "") << m->bounds[i];
        out << "],\"bins\":[";
        for (std::size_t i = 0; i < m->bins.size(); ++i)
          out << (i ? "," : "") << m->bins[i];
        out << "]}";
        break;
      }
    }
  }
  out << "}";
}

std::string MetricsRegistry::to_json() const {
  std::ostringstream out;
  write_json(out);
  return out.str();
}

}  // namespace ps360::obs
