// Viewing centers and viewports (FoV regions) on the equirectangular plane.
//
// Angle-valued parameters on this API are strongly typed (util::Degrees);
// struct data members stay `double` degrees per the units convention in
// util/units.h.
#pragma once

#include <algorithm>
#include <cmath>
#include <vector>

#include "geometry/angles.h"

namespace ps360::geometry {

// A point on the equirectangular plane: x = longitude in [0,360) (wraps),
// y = colatitude in [0,180], both in degrees.
struct EquirectPoint {
  double x = 0.0;
  double y = 90.0;

  // Construct with validation (lon is wrapped, colat must be within [0,180]).
  static EquirectPoint make(Degrees lon, Degrees colat);

  Degrees lon() const { return Degrees(x); }
  Degrees colat() const { return Degrees(y); }

  // 3-D unit orientation for Eq. 5.
  Vec3 orientation() const;
};

// Distance on the equirectangular plane with longitude wraparound. This is
// the dist(u, n) used by the Ptile clustering (Algorithm 1): the paper
// clusters (x, y) viewing centers with Euclidean distance; we additionally
// honour the x wraparound so that centers at 359 and 1 degree are close.
//
// The longitude gap is circular_distance's, bit for bit: the difference d
// is reduced below one turn (fmod, the identity for |d| < 360), and for
// 180 < |d| < 360 wrapping it by a turn gives 360 - |d|, exact by
// Sterbenz's lemma, so the gap is min(|d|, 360 - |d|), also at |d| = 180.
// Inline and without a branch on the wrap, for k-means' argmin loops.
inline double wrapped_distance(const EquirectPoint& a, const EquirectPoint& b) {
  double diff = a.x - b.x;
  if (!(std::fabs(diff) < kDegreesPerTurn)) diff = std::fmod(diff, kDegreesPerTurn);
  const double abs_dx = std::fabs(diff);
  const double dx = std::min(abs_dx, kDegreesPerTurn - abs_dx);
  const double dy = a.y - b.y;
  return std::sqrt(dx * dx + dy * dy);
}

// Angular (great-circle) distance between two viewing centers.
Degrees angular_distance(const EquirectPoint& a, const EquirectPoint& b);

// A closed interval of longitudes [lo, lo+width] that may wrap around 360.
// width is in [0, 360].
struct LonInterval {
  double lo = 0.0;     // degrees, wrapped into [0,360)
  double width = 0.0;  // degrees

  static LonInterval make(Degrees lo, Degrees width);

  bool contains(Degrees lon) const;

  // The smallest interval containing both (used when growing cluster spans).
  // If the union cannot be covered by a single arc < 360 degrees, returns a
  // full-circle interval.
  LonInterval united(const LonInterval& other) const;
};

// Minimal arc (lo, width) covering all given longitudes. For an empty input
// returns a zero-width arc at 0. Works by sorting and finding the largest
// angular gap.
LonInterval minimal_covering_arc(std::vector<Degrees> lons);

// Rectangular viewing area on the equirect plane: a longitude interval that
// may wrap, and a colatitude interval clamped to [0,180].
struct EquirectRect {
  LonInterval lon;
  double y_lo = 0.0;  // degrees colatitude
  double y_hi = 0.0;  // degrees colatitude, y_lo <= y_hi

  static EquirectRect make(LonInterval lon, Degrees y_lo, Degrees y_hi);

  double height() const { return y_hi - y_lo; }
  double area_deg2() const { return lon.width * height(); }
  // Fraction of the full 360x180 frame.
  double area_fraction() const { return area_deg2() / (360.0 * 180.0); }

  // A longitude test AND a colatitude test: lon.contains(p.lon()) &&
  // contains_colat(p.colat()).
  bool contains(const EquirectPoint& p) const;
  bool contains_colat(Degrees colat) const {
    return colat.value() >= y_lo && colat.value() <= y_hi;
  }

  // Smallest rect covering both.
  EquirectRect united(const EquirectRect& other) const;

  // Fraction of `other`'s area that this rect covers (0 if disjoint).
  double coverage_of(const EquirectRect& other) const;
};

// A user's viewport: viewing center plus the device field of view
// (100 x 100 degrees by default, per the paper).
class Viewport {
 public:
  explicit Viewport(EquirectPoint center, Degrees fov_h = Degrees(100.0),
                    Degrees fov_v = Degrees(100.0));

  const EquirectPoint& center() const { return center_; }
  Degrees fov_h() const { return Degrees(fov_h_); }
  Degrees fov_v() const { return Degrees(fov_v_); }

  // The viewing area as an equirect rect. The vertical extent is clamped to
  // the frame; the horizontal extent may wrap.
  EquirectRect area() const;

  bool contains(const EquirectPoint& p) const { return area().contains(p); }

 private:
  EquirectPoint center_;
  double fov_h_;  // degrees
  double fov_v_;  // degrees
};

}  // namespace ps360::geometry
