// Head-orientation trace container: causal sampling/interpolation over
// recorded samples. Query results depend only on the stored samples and
// the query time, never on external state.
#include "trace/head_trace.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "util/check.h"
#include "util/csv.h"

namespace ps360::trace {

using geometry::EquirectPoint;

namespace {

void check_finite_sample(std::size_t index, double t, double x, double y) {
  PS360_CHECK_MSG(std::isfinite(t) && std::isfinite(x) && std::isfinite(y),
                  "head trace sample " + std::to_string(index) +
                      " has a non-finite t, x or y");
}

bool sample_before(const HeadSample& s, double t) { return s.t < t; }
bool sample_after(double t, const HeadSample& s) { return t < s.t; }

}  // namespace

HeadTrace::HeadTrace(int video_id, int user_id, std::vector<HeadSample> samples)
    : video_id_(video_id), user_id_(user_id), samples_(std::move(samples)) {
  PS360_CHECK_MSG(!samples_.empty(), "head trace must have samples");
  for (std::size_t i = 0; i < samples_.size(); ++i) {
    const HeadSample& s = samples_[i];
    check_finite_sample(i, s.t, s.center.x, s.center.y);
    // Eq. 5's orientation vectors exist only on the sphere.
    PS360_CHECK_MSG(s.center.y >= 0.0 && s.center.y <= 180.0,
                    "head trace sample " + std::to_string(i) +
                        " has a colatitude outside [0, 180]");
    if (i > 0)
      PS360_CHECK_MSG(s.t > samples_[i - 1].t,
                      "head trace timestamps must be strictly increasing");
  }
}

namespace {

// Interpolate between two equirect points, taking the short way around in
// longitude. frac in [0,1].
EquirectPoint lerp_center(const EquirectPoint& a, const EquirectPoint& b, double frac) {
  const double dx =
      geometry::wrap_delta(geometry::Degrees(b.x), geometry::Degrees(a.x)).value();
  const double x = geometry::wrap360(geometry::Degrees(a.x + dx * frac)).value();
  const double y = a.y + (b.y - a.y) * frac;
  return EquirectPoint{x, y};
}

// center_at(t) given its bracket hi = lower_bound(t): an end sample outside
// the trace, else interpolated between hi - 1 and hi.
EquirectPoint center_from(const std::vector<HeadSample>& samples,
                          std::vector<HeadSample>::const_iterator hi, double t) {
  if (t <= samples.front().t) return samples.front().center;
  if (t >= samples.back().t) return samples.back().center;
  const auto& lo = *(hi - 1);
  const double frac = (t - lo.t) / (hi->t - lo.t);
  return lerp_center(lo.center, hi->center, frac);
}

}  // namespace

EquirectPoint HeadTrace::center_at(double t) const {
  return center_from(samples_,
                     std::lower_bound(samples_.begin(), samples_.end(), t, sample_before),
                     t);
}

geometry::Viewport HeadTrace::viewport_at(double t, util::Degrees fov) const {
  return geometry::Viewport(center_at(t), fov, fov);
}

std::span<const HeadSample> HeadTrace::samples_in(double t0, double t1) const {
  PS360_CHECK(t1 >= t0);
  const auto first = std::lower_bound(samples_.begin(), samples_.end(), t0, sample_before);
  const auto last = std::upper_bound(first, samples_.end(), t1, sample_after);
  return {first, last};
}

EquirectPoint HeadTrace::mean_center(double t0, double t1) const {
  // Circular mean on x via unit-vector averaging; plain mean on y.
  double sx = 0.0, sy = 0.0, y_sum = 0.0;
  std::size_t n = 0;
  for (const auto& s : samples_in(t0, t1)) {
    const double rad = geometry::to_radians(geometry::Degrees(s.center.x)).value();
    sx += std::cos(rad);
    sy += std::sin(rad);
    y_sum += s.center.y;
    ++n;
  }
  if (n == 0) return center_at((t0 + t1) / 2.0);
  double x;
  if (sx == 0.0 && sy == 0.0) {
    x = center_at((t0 + t1) / 2.0).x;  // degenerate: antipodal spread
  } else {
    x = geometry::wrap360(geometry::to_degrees(geometry::Radians(std::atan2(sy, sx))))
            .value();
  }
  return EquirectPoint{x, y_sum / static_cast<double>(n)};
}

const std::vector<double>& HeadTrace::pair_degrees() const {
  std::call_once(pairs_->built, [this] {
    std::vector<double>& deg = pairs_->deg;
    deg.assign(samples_.size(), 0.0);
    geometry::Vec3 prev = samples_.front().center.orientation();
    for (std::size_t i = 1; i < samples_.size(); ++i) {
      const geometry::Vec3 cur = samples_[i].center.orientation();
      deg[i] = geometry::angular_distance(prev, cur).value();
      prev = cur;
    }
  });
  return pairs_->deg;
}

double HeadTrace::switching_speed(double t0, double t1) const {
  PS360_CHECK(t1 > t0);
  // Great-circle path length over the window / elapsed time (Eq. 5 applied
  // per consecutive sample pair and aggregated): start -> the samples
  // strictly inside (t0, t1) -> end, whose endpoints are interpolated.
  const auto first = std::upper_bound(samples_.begin(), samples_.end(), t0, sample_after);
  const auto last = std::lower_bound(first, samples_.end(), t1, sample_before);
  // The two searches also give center_at's brackets: no sample before
  // `first` reaches t1, so lower_bound(t1) is `last`; lower_bound(t0) is
  // `first`, or the sample just before it when that one sits exactly at t0.
  const auto t0_hi =
      first != samples_.begin() && (first - 1)->t == t0 ? first - 1 : first;
  const geometry::Vec3 start = center_from(samples_, t0_hi, t0).orientation();
  const geometry::Vec3 end = center_from(samples_, last, t1).orientation();
  if (first == last) return geometry::angular_distance(start, end).value() / (t1 - t0);
  const std::vector<double>& deg = pair_degrees();
  double path_deg = geometry::angular_distance(start, first->center.orientation()).value();
  for (auto i = static_cast<std::size_t>(first - samples_.begin()) + 1;
       i < static_cast<std::size_t>(last - samples_.begin()); ++i)
    path_deg += deg[i];
  path_deg += geometry::angular_distance((last - 1)->center.orientation(), end).value();
  return path_deg / (t1 - t0);
}

std::vector<double> HeadTrace::switching_speed_series() const {
  std::vector<double> speeds;
  if (samples_.size() < 2) return speeds;
  speeds.reserve(samples_.size() - 1);
  geometry::Vec3 prev = samples_.front().center.orientation();
  for (std::size_t i = 1; i < samples_.size(); ++i) {
    const geometry::Vec3 cur = samples_[i].center.orientation();
    const double dt = samples_[i].t - samples_[i - 1].t;
    speeds.push_back(
        geometry::switching_speed_deg_per_s(prev, cur, geometry::Seconds(dt)));
    prev = cur;
  }
  return speeds;
}

void save_head_trace(const std::filesystem::path& path, const HeadTrace& trace) {
  util::CsvTable table;
  table.header = {"t", "x", "y"};
  table.rows.reserve(trace.samples().size());
  for (const auto& s : trace.samples())
    table.rows.push_back({s.t, s.center.x, s.center.y});
  util::write_csv_file(path, table);
}

HeadTrace load_head_trace(const std::filesystem::path& path, int video_id, int user_id) {
  const util::CsvTable table = util::read_csv_file(path, /*has_header=*/true);
  const std::size_t ct = table.column("t");
  const std::size_t cx = table.column("x");
  const std::size_t cy = table.column("y");
  std::vector<HeadSample> samples;
  samples.reserve(table.rows.size());
  for (std::size_t i = 0; i < table.rows.size(); ++i) {
    const auto& row = table.rows[i];
    // Checked before EquirectPoint::make so the message names the sample.
    check_finite_sample(i, row[ct], row[cx], row[cy]);
    samples.push_back(
        HeadSample{row[ct], geometry::EquirectPoint::make(geometry::Degrees(row[cx]),
                                                          geometry::Degrees(row[cy]))});
  }
  return HeadTrace(video_id, user_id, std::move(samples));
}

}  // namespace ps360::trace
