// Battery impact: translate the mJ-level energy accounting of Eq. 1 into
// what a user experiences — percent of battery per hour of streaming.
//
// The paper motivates the work with battery drain on phones; these helpers
// close the loop from the per-segment energy numbers back to that framing
// (used by examples/energy_study and available to library users). They hold
// no state: the battery is a typical phone's, the constants below.
#pragma once

namespace ps360::power {

// Typical phone battery: 3000 mAh at 3.85 V nominal (~41.6 kJ).
inline constexpr double kBatteryCapacityMah = 3000.0;
inline constexpr double kBatteryVoltageV = 3.85;

// Total stored energy in joules.
double battery_capacity_joules();

// Battery percentage consumed by drawing `mw` milliwatts for `seconds`.
double battery_percent_for(double mw, double seconds);

// Battery percentage per hour at a steady draw of `mw` milliwatts.
double battery_percent_per_hour(double mw);

// Hours of streaming until empty at a steady draw of `mw` milliwatts.
double battery_hours_at(double mw);

}  // namespace ps360::power
