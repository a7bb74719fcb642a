#include "power/battery.h"

#include "util/check.h"

namespace ps360::power {

static_assert(kBatteryCapacityMah > 0.0 && kBatteryVoltageV > 0.0);

double battery_capacity_joules() {
  // mAh * V = mWh; * 3.6 = J.
  return kBatteryCapacityMah * kBatteryVoltageV * 3.6;
}

double battery_percent_for(double mw, double seconds) {
  PS360_CHECK(mw >= 0.0);
  PS360_CHECK(seconds >= 0.0);
  const double joules = mw / 1000.0 * seconds;
  return joules / battery_capacity_joules() * 100.0;
}

double battery_percent_per_hour(double mw) { return battery_percent_for(mw, 3600.0); }

double battery_hours_at(double mw) {
  PS360_CHECK(mw > 0.0);
  return 100.0 / battery_percent_per_hour(mw);
}

}  // namespace ps360::power
