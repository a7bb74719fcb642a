// Strong unit types for quantities that cross public API boundaries.
//
// Every value in pstream360 that has a physical dimension — angles
// (degrees/radians), time (seconds), bandwidth (Mbps), energy (joules),
// power (watts) — silently shared `double` in the seed code, which makes
// degree/radian and seconds/segments confusion a runtime bug instead of a
// compile error. `Quantity<Tag>` is a zero-overhead wrapper (one double,
// all constexpr, no virtuals) with *explicit* construction and *explicit*
// conversion helpers, so mixing units fails to compile:
//
//   wrap360(Degrees{370.0})            // ok
//   wrap360(Radians{1.0})              // error: no matching overload
//   to_radians(Degrees{90.0}).value()  // explicit, greppable conversion
//
// Conventions:
//  - Public APIs of migrated modules (geometry, power, qoe) take and return
//    Quantity types; struct data members and private math may stay `double`
//    with a unit suffix in the name.
//  - `.value()` is the only way out of a Quantity; every call site of
//    `.value()` is an auditable unit boundary.
//  - Dimensioned products that the codebase actually uses are overloaded
//    (Watts * Seconds = Joules); everything else must go through `.value()`.
#pragma once

#include <compare>

namespace ps360::util {

inline constexpr double kPi = 3.141592653589793238462643383279502884;

template <class Tag>
class Quantity {
 public:
  constexpr Quantity() = default;
  constexpr explicit Quantity(double v) : value_(v) {}

  constexpr double value() const { return value_; }

  constexpr Quantity operator-() const { return Quantity(-value_); }
  constexpr Quantity operator+() const { return *this; }

  constexpr Quantity& operator+=(Quantity o) {
    value_ += o.value_;
    return *this;
  }
  constexpr Quantity& operator-=(Quantity o) {
    value_ -= o.value_;
    return *this;
  }
  constexpr Quantity& operator*=(double s) {
    value_ *= s;
    return *this;
  }
  constexpr Quantity& operator/=(double s) {
    value_ /= s;
    return *this;
  }

  friend constexpr Quantity operator+(Quantity a, Quantity b) {
    return Quantity(a.value_ + b.value_);
  }
  friend constexpr Quantity operator-(Quantity a, Quantity b) {
    return Quantity(a.value_ - b.value_);
  }
  friend constexpr Quantity operator*(Quantity a, double s) {
    return Quantity(a.value_ * s);
  }
  friend constexpr Quantity operator*(double s, Quantity a) {
    return Quantity(s * a.value_);
  }
  friend constexpr Quantity operator/(Quantity a, double s) {
    return Quantity(a.value_ / s);
  }
  // Ratio of two like quantities is dimensionless.
  friend constexpr double operator/(Quantity a, Quantity b) {
    return a.value_ / b.value_;
  }

  friend constexpr auto operator<=>(Quantity, Quantity) = default;

 private:
  double value_ = 0.0;
};

using Degrees = Quantity<struct DegreesTag>;
using Radians = Quantity<struct RadiansTag>;
using Seconds = Quantity<struct SecondsTag>;
using Mbps = Quantity<struct MbpsTag>;
using Joules = Quantity<struct JoulesTag>;
using Watts = Quantity<struct WattsTag>;
// Transfer rates on the wire are tracked in bytes/second (the traces and
// the shared-link fluid model both work in bytes); Mbps is the presentation
// unit. Keeping them distinct types makes the 1e6/8 factor an explicit,
// greppable conversion instead of a latent ×8 bug.
using BytesPerSec = Quantity<struct BytesPerSecTag>;
// Viewport scan speed (the paper's S_fov): degrees of head motion per
// second, the input to the frame-rate sensitivity factor.
using DegPerSec = Quantity<struct DegPerSecTag>;
// Byte counts crossing public APIs: segment sizes, link deliveries, cache
// capacities. A double (not an integer) because the fluid link model and
// the rate-x-time products that feed it are continuous; fractional bytes
// are meaningful mid-transfer.
using Bytes = Quantity<struct BytesTag>;

// --- explicit conversions ---------------------------------------------------

constexpr Radians to_radians(Degrees d) {
  return Radians(d.value() * (kPi / 180.0));
}

constexpr Degrees to_degrees(Radians r) {
  return Degrees(r.value() * (180.0 / kPi));
}

// Power integrated over time is energy.
constexpr Joules operator*(Watts p, Seconds t) {
  return Joules(p.value() * t.value());
}
constexpr Joules operator*(Seconds t, Watts p) { return p * t; }

// Energy over time is power (t must be non-zero).
constexpr Watts operator/(Joules e, Seconds t) {
  return Watts(e.value() / t.value());
}

// The power tables (Table I) and energy accounting are in mW / mJ.
constexpr Watts milliwatts(double mw) { return Watts(mw * 1e-3); }
constexpr Joules millijoules(double mj) { return Joules(mj * 1e-3); }

// Typed rate/volume algebra: rate × time = volume, volume / rate = time,
// volume / time = rate.
constexpr Bytes operator*(BytesPerSec rate, Seconds t) {
  return Bytes(rate.value() * t.value());
}
constexpr Bytes operator*(Seconds t, BytesPerSec rate) { return rate * t; }
constexpr Seconds operator/(Bytes b, BytesPerSec rate) {
  return Seconds(b.value() / rate.value());
}
constexpr BytesPerSec operator/(Bytes b, Seconds t) {
  return BytesPerSec(b.value() / t.value());
}

// Cache capacities are quoted in MiB in configs and docs.
constexpr Bytes mebibytes(double mib) { return Bytes(mib * 1024.0 * 1024.0); }

// Head-motion speed over an interval: degrees swept / elapsed time.
constexpr DegPerSec operator/(Degrees d, Seconds t) {
  return DegPerSec(d.value() / t.value());
}

// --- literals ----------------------------------------------------------------
//
// `using namespace ps360::util::literals;` gives tests and benches readable
// typed constants: 90.0_deg, 1.5_s, 20.0_mbps.
namespace literals {

constexpr Degrees operator""_deg(long double v) {
  return Degrees(static_cast<double>(v));
}
constexpr Degrees operator""_deg(unsigned long long v) {
  return Degrees(static_cast<double>(v));
}
constexpr Radians operator""_rad(long double v) {
  return Radians(static_cast<double>(v));
}
constexpr Seconds operator""_s(long double v) {
  return Seconds(static_cast<double>(v));
}
constexpr Seconds operator""_s(unsigned long long v) {
  return Seconds(static_cast<double>(v));
}
constexpr Mbps operator""_mbps(long double v) {
  return Mbps(static_cast<double>(v));
}
constexpr Joules operator""_J(long double v) {
  return Joules(static_cast<double>(v));
}
constexpr Watts operator""_W(long double v) {
  return Watts(static_cast<double>(v));
}

}  // namespace literals

}  // namespace ps360::util
