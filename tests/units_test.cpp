// Tests for the strong unit types in util/units.h: zero-overhead layout,
// arithmetic, explicit conversions, dimensioned products, and literals.
#include <gtest/gtest.h>

#include <type_traits>

#include "util/units.h"

namespace ps360::util {
namespace {

using namespace ps360::util::literals;

// ------------------------------------------------------------- Zero overhead

static_assert(sizeof(Degrees) == sizeof(double));
static_assert(sizeof(Watts) == sizeof(double));
static_assert(std::is_trivially_copyable_v<Degrees>);
static_assert(std::is_trivially_copyable_v<Seconds>);

// Distinct tags are distinct types: no accidental cross-unit assignment.
static_assert(!std::is_convertible_v<Degrees, Radians>);
static_assert(!std::is_convertible_v<Seconds, Degrees>);
// Construction from double is explicit.
static_assert(!std::is_convertible_v<double, Degrees>);
static_assert(std::is_constructible_v<Degrees, double>);

TEST(UnitsTest, DefaultIsZero) {
  EXPECT_DOUBLE_EQ(Degrees{}.value(), 0.0);
  EXPECT_DOUBLE_EQ(Joules{}.value(), 0.0);
}

// ------------------------------------------------------------- Arithmetic

TEST(UnitsTest, SameUnitArithmetic) {
  const Degrees a(30.0);
  const Degrees b(12.5);
  EXPECT_DOUBLE_EQ((a + b).value(), 42.5);
  EXPECT_DOUBLE_EQ((a - b).value(), 17.5);
  EXPECT_DOUBLE_EQ((-a).value(), -30.0);
  EXPECT_DOUBLE_EQ((a * 2.0).value(), 60.0);
  EXPECT_DOUBLE_EQ((2.0 * a).value(), 60.0);
  EXPECT_DOUBLE_EQ((a / 2.0).value(), 15.0);
  // Ratio of like quantities is dimensionless.
  EXPECT_DOUBLE_EQ(a / b, 2.4);
}

TEST(UnitsTest, CompoundAssignment) {
  Seconds t(1.0);
  t += Seconds(0.5);
  EXPECT_DOUBLE_EQ(t.value(), 1.5);
  t -= Seconds(1.0);
  EXPECT_DOUBLE_EQ(t.value(), 0.5);
  t *= 4.0;
  EXPECT_DOUBLE_EQ(t.value(), 2.0);
  t /= 8.0;
  EXPECT_DOUBLE_EQ(t.value(), 0.25);
}

TEST(UnitsTest, Comparisons) {
  EXPECT_LT(Degrees(10.0), Degrees(20.0));
  EXPECT_EQ(Degrees(10.0), Degrees(10.0));
  EXPECT_GE(Mbps(5.0), Mbps(5.0));
}

// ------------------------------------------------------------- Conversions

TEST(UnitsTest, DegreesRadiansRoundTrip) {
  EXPECT_NEAR(to_radians(Degrees(180.0)).value(), kPi, 1e-15);
  EXPECT_NEAR(to_degrees(Radians(kPi / 2.0)).value(), 90.0, 1e-12);
  EXPECT_NEAR(to_degrees(to_radians(Degrees(123.4))).value(), 123.4, 1e-12);
}

TEST(UnitsTest, PowerTimesTimeIsEnergy) {
  const Joules e = Watts(2.0) * Seconds(3.0);
  EXPECT_DOUBLE_EQ(e.value(), 6.0);
  EXPECT_DOUBLE_EQ((Seconds(3.0) * Watts(2.0)).value(), 6.0);
  EXPECT_DOUBLE_EQ((e / Seconds(3.0)).value(), 2.0);
}

TEST(UnitsTest, MilliHelpers) {
  EXPECT_DOUBLE_EQ(milliwatts(1500.0).value(), 1.5);
  EXPECT_DOUBLE_EQ(millijoules(250.0).value(), 0.25);
}

// ---------------------------------------------------------------- Literals

TEST(UnitsTest, Literals) {
  EXPECT_DOUBLE_EQ((90.0_deg).value(), 90.0);
  EXPECT_DOUBLE_EQ((90_deg).value(), 90.0);
  EXPECT_DOUBLE_EQ((1.5_s).value(), 1.5);
  EXPECT_DOUBLE_EQ((2_s).value(), 2.0);
  EXPECT_DOUBLE_EQ((20.0_mbps).value(), 20.0);
  EXPECT_DOUBLE_EQ((3.5_J).value(), 3.5);
  EXPECT_DOUBLE_EQ((2.5_W).value(), 2.5);
  EXPECT_NEAR((1.0_rad).value(), 1.0, 1e-15);
}

TEST(UnitsTest, ConstexprUsable) {
  constexpr Degrees kFov(100.0);
  static_assert(kFov.value() == 100.0);
  constexpr Joules kE = Watts(1.0) * Seconds(2.0);
  static_assert(kE.value() == 2.0);
}

}  // namespace
}  // namespace ps360::util
