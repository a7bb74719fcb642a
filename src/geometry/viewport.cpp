#include "geometry/viewport.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace ps360::geometry {

EquirectPoint EquirectPoint::make(Degrees lon, Degrees colat) {
  PS360_CHECK_MSG(std::isfinite(lon.value()), "longitude is not finite");
  PS360_CHECK_MSG(colat.value() >= 0.0 && colat.value() <= 180.0,
                  "colatitude out of [0,180]");
  return EquirectPoint{wrap360(lon).value(), colat.value()};
}

Vec3 EquirectPoint::orientation() const {
  return orientation_vector(Degrees(x), Degrees(y));
}

Degrees angular_distance(const EquirectPoint& a, const EquirectPoint& b) {
  return angular_distance(a.orientation(), b.orientation());
}

LonInterval LonInterval::make(Degrees lo, Degrees width) {
  PS360_CHECK_MSG(width.value() >= 0.0 && width.value() <= 360.0,
                  "arc width out of [0,360]");
  return LonInterval{wrap360(lo).value(), width.value()};
}

bool LonInterval::contains(Degrees lon_deg) const {
  if (width >= 360.0) return true;
  const double offset = wrap360(lon_deg - Degrees(lo)).value();
  return offset <= width;
}

LonInterval LonInterval::united(const LonInterval& other) const {
  if (width >= 360.0 || other.width >= 360.0) return LonInterval{0.0, 360.0};
  // Try both orderings: extend this to cover other, or vice versa; take the
  // smaller covering arc.
  auto cover = [](const LonInterval& a, const LonInterval& b) {
    // Arc starting at a.lo that covers both a and b.
    const double end_a = a.width;
    const double b_lo = wrap360(Degrees(b.lo - a.lo)).value();
    const double b_hi = b_lo + b.width;
    return std::max(end_a, b_hi);
  };
  const double w1 = cover(*this, other);
  const double w2 = cover(other, *this);
  if (w1 <= w2) {
    return LonInterval{lo, std::min(w1, 360.0)};
  }
  return LonInterval{other.lo, std::min(w2, 360.0)};
}

EquirectRect EquirectRect::make(LonInterval lon, Degrees y_lo, Degrees y_hi) {
  PS360_CHECK(y_lo.value() >= 0.0 && y_hi.value() <= 180.0 && y_lo <= y_hi);
  return EquirectRect{lon, y_lo.value(), y_hi.value()};
}

bool EquirectRect::contains(const EquirectPoint& p) const {
  return lon.contains(Degrees(p.x)) && contains_colat(Degrees(p.y));
}

EquirectRect EquirectRect::united(const EquirectRect& other) const {
  return EquirectRect{lon.united(other.lon), std::min(y_lo, other.y_lo),
                      std::max(y_hi, other.y_hi)};
}

double EquirectRect::coverage_of(const EquirectRect& other) const {
  if (other.area_deg2() <= 0.0)
    return contains(EquirectPoint{other.lon.lo, other.y_lo}) ? 1.0 : 0.0;
  // Vertical overlap is a plain interval intersection.
  const double oy =
      std::max(0.0, std::min(y_hi, other.y_hi) - std::max(y_lo, other.y_lo));
  if (oy <= 0.0) return 0.0;
  // Horizontal overlap on the circle: shift into this->lon's frame.
  double ox = 0.0;
  if (lon.width >= 360.0) {
    ox = other.lon.width;
  } else if (other.lon.width >= 360.0) {
    ox = lon.width;
  } else {
    // Intersection of [0, w] with [s, s + ow] (mod 360), where s is other's
    // start in this frame. The second interval may wrap past 360 and
    // re-enter at 0; account for both pieces.
    const double w = lon.width;
    const double s = wrap360(Degrees(other.lon.lo - lon.lo)).value();
    const double ow = other.lon.width;
    const double piece1 = std::max(0.0, std::min(w, s + ow) - s);  // [s, min(...)]
    double piece2 = 0.0;
    if (s + ow > 360.0) {
      const double re = s + ow - 360.0;  // re-entry portion [0, re]
      piece2 = std::max(0.0, std::min(w, re));
    }
    ox = std::min(piece1 + piece2, std::min(w, ow));
  }
  return (ox * oy) / other.area_deg2();
}

Viewport::Viewport(EquirectPoint center, Degrees fov_h, Degrees fov_v)
    : center_(center), fov_h_(fov_h.value()), fov_v_(fov_v.value()) {
  PS360_CHECK(fov_h_ > 0.0 && fov_h_ <= 360.0);
  PS360_CHECK(fov_v_ > 0.0 && fov_v_ <= 180.0);
}

EquirectRect Viewport::area() const {
  const double y_lo = std::max(0.0, center_.y - fov_v_ / 2.0);
  const double y_hi = std::min(180.0, center_.y + fov_v_ / 2.0);
  return EquirectRect{LonInterval::make(Degrees(center_.x - fov_h_ / 2.0), Degrees(fov_h_)),
                      y_lo, y_hi};
}

}  // namespace ps360::geometry
