#include "geometry/angles.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace ps360::geometry {

namespace {

// fmod(x, 360) returns x itself, sign of zero included, whenever |x| < 360,
// so skipping the libm call there is bit-identical; nearly every angle the
// geometry wraps is within one turn. NaN and ±inf still go through fmod.
double fmod360(double deg) {
  return std::fabs(deg) < kDegreesPerTurn ? deg : std::fmod(deg, kDegreesPerTurn);
}

// Internal double-valued wrap; the typed wrap360 below is the public face.
double wrap360_value(double deg) {
  double w = fmod360(deg);
  if (w < 0.0) w += kDegreesPerTurn;
  // fmod of a value just below a multiple of 360 can round to exactly 360.
  if (w >= kDegreesPerTurn) w = 0.0;
  return w;
}

}  // namespace

Degrees wrap360(Degrees deg) { return Degrees(wrap360_value(deg.value())); }

Degrees wrap_delta(Degrees a, Degrees b) {
  double d = fmod360(a.value() - b.value());
  if (d > 180.0) d -= kDegreesPerTurn;
  if (d <= -180.0) d += kDegreesPerTurn;
  return Degrees(d);
}

Degrees circular_distance(Degrees a, Degrees b) {
  return Degrees(std::fabs(wrap_delta(a, b).value()));
}

double Vec3::dot(const Vec3& other) const {
  return x * other.x + y * other.y + z * other.z;
}

double Vec3::norm() const { return std::sqrt(dot(*this)); }

Vec3 Vec3::normalized() const {
  const double n = norm();
  PS360_CHECK_MSG(n > 0.0, "cannot normalize a zero vector");
  return Vec3{x / n, y / n, z / n};
}

Vec3 orientation_vector(Degrees lon, Degrees colat) {
  PS360_CHECK(colat.value() >= 0.0 && colat.value() <= 180.0);
  const double lon_rad = to_radians(wrap360(lon)).value();
  const double colat_rad = to_radians(colat).value();
  return Vec3{std::sin(colat_rad) * std::cos(lon_rad),
              std::sin(colat_rad) * std::sin(lon_rad), std::cos(colat_rad)};
}

Degrees angular_distance(const Vec3& a, const Vec3& b) {
  const double na = a.norm();
  const double nb = b.norm();
  PS360_CHECK(na > 0.0 && nb > 0.0);
  const double cosine = std::clamp(a.dot(b) / (na * nb), -1.0, 1.0);
  return to_degrees(Radians(std::acos(cosine)));
}

double switching_speed_deg_per_s(const Vec3& from, const Vec3& to, Seconds dt) {
  PS360_CHECK(dt.value() > 0.0);
  return angular_distance(from, to).value() / dt.value();
}

}  // namespace ps360::geometry
