// Tests for the power module: the Table I device models, per-segment energy
// accounting (Eq. 1), the measurement/fitting pipeline that regenerates
// Table I, and the Fig. 2(b)/(c) decoder-concurrency model.
#include <gtest/gtest.h>

#include "power/battery.h"
#include "power/decoder_model.h"
#include "power/device_models.h"
#include "power/energy.h"
#include "power/measurement.h"
#include "util/units.h"

namespace ps360::power {
namespace {

// ------------------------------------------------------------ DeviceModels

TEST(DeviceModelTest, TableOneValuesTranscribed) {
  const auto& pixel3 = device_model(Device::kPixel3);
  EXPECT_DOUBLE_EQ(pixel3.transmit_mw, 1429.08);
  EXPECT_DOUBLE_EQ(pixel3.decode_power(DecodeProfile::kCtile, 0.0).value(),
                   util::milliwatts(574.89).value());
  EXPECT_NEAR(pixel3.decode_power(DecodeProfile::kCtile, 30.0).value(),
              util::milliwatts(574.89 + 15.46 * 30.0).value(), 1e-12);
  EXPECT_NEAR(pixel3.decode_power(DecodeProfile::kPtile, 30.0).value(),
              util::milliwatts(140.73 + 5.96 * 30.0).value(), 1e-12);
  EXPECT_NEAR(pixel3.render_power(30.0).value(),
              util::milliwatts(57.76 + 4.19 * 30.0).value(), 1e-12);

  const auto& nexus = device_model(Device::kNexus5X);
  EXPECT_DOUBLE_EQ(nexus.transmit_mw, 1709.12);
  EXPECT_NEAR(nexus.decode_power(DecodeProfile::kFtile, 10.0).value(),
              util::milliwatts(832.45 + 153.1).value(), 1e-12);

  const auto& s20 = device_model(Device::kGalaxyS20);
  EXPECT_DOUBLE_EQ(s20.transmit_mw, 1527.39);
  EXPECT_NEAR(s20.decode_power(DecodeProfile::kNontile, 30.0).value() * 1e3, 305.55 + 11.41 * 30.0,
              1e-9);
}

TEST(DeviceModelTest, PtileDecodesCheapestAtEveryFrameRate) {
  // The whole premise: one decoder on one large tile beats every other
  // pipeline.
  for (Device device : kAllDevices) {
    const auto& model = device_model(device);
    for (double fps : {15.0, 21.0, 30.0}) {
      const util::Watts ptile = model.decode_power(DecodeProfile::kPtile, fps);
      EXPECT_LT(ptile, model.decode_power(DecodeProfile::kCtile, fps));
      EXPECT_LT(ptile, model.decode_power(DecodeProfile::kFtile, fps));
      EXPECT_LT(ptile, model.decode_power(DecodeProfile::kNontile, fps));
    }
  }
}

TEST(DeviceModelTest, NamesAreStable) {
  EXPECT_EQ(device_name(Device::kPixel3), "Pixel 3");
  EXPECT_EQ(decode_profile_name(DecodeProfile::kPtile), "Ptile");
}

TEST(DeviceModelTest, InvalidKindsThrowInsteadOfIndexingOutOfBounds) {
  EXPECT_THROW(device_name(static_cast<Device>(99)), std::invalid_argument);
  EXPECT_THROW(decode_profile_name(static_cast<DecodeProfile>(99)),
               std::invalid_argument);
  EXPECT_THROW(device_model(static_cast<Device>(99)), std::invalid_argument);
}

TEST(DeviceModelTest, NegativeFpsRejected) {
  EXPECT_THROW(device_model(Device::kPixel3).render_power(-1.0),
               std::invalid_argument);
}

// ----------------------------------------------------------------- Energy

TEST(EnergyTest, SegmentEnergyEq1) {
  const auto& pixel3 = device_model(Device::kPixel3);
  const SegmentEnergy e =
      segment_energy(pixel3, DecodeProfile::kPtile, util::Seconds(0.5), 30.0,
                     util::Seconds(1.0));
  EXPECT_NEAR(e.transmit_mj, 1429.08 * 0.5, 1e-9);
  EXPECT_NEAR(e.decode_mj, (140.73 + 5.96 * 30.0) * 1.0, 1e-9);
  EXPECT_NEAR(e.render_mj, (57.76 + 4.19 * 30.0) * 1.0, 1e-9);
  EXPECT_NEAR(e.total_mj(), e.transmit_mj + e.decode_mj + e.render_mj, 1e-12);
}

TEST(EnergyTest, LowerFrameRateLowersProcessingEnergy) {
  const auto& pixel3 = device_model(Device::kPixel3);
  const SegmentEnergy full = segment_energy(pixel3, DecodeProfile::kPtile, util::Seconds(0.5), 30.0,
                     util::Seconds(1.0));
  const SegmentEnergy reduced =
      segment_energy(pixel3, DecodeProfile::kPtile, util::Seconds(0.5), 21.0,
                     util::Seconds(1.0));
  EXPECT_LT(reduced.decode_mj, full.decode_mj);
  EXPECT_LT(reduced.render_mj, full.render_mj);
  EXPECT_DOUBLE_EQ(reduced.transmit_mj, full.transmit_mj);
}

TEST(EnergyTest, AccumulationOperator) {
  SegmentEnergy total;
  total += SegmentEnergy{1.0, 2.0, 3.0};
  total += SegmentEnergy{10.0, 20.0, 30.0};
  EXPECT_DOUBLE_EQ(total.transmit_mj, 11.0);
  EXPECT_DOUBLE_EQ(total.total_mj(), 66.0);
}

TEST(EnergyTest, RejectsInvalidInputs) {
  const auto& pixel3 = device_model(Device::kPixel3);
  EXPECT_THROW(segment_energy(pixel3, DecodeProfile::kPtile, util::Seconds(-0.1), 30.0,
                     util::Seconds(1.0)),
               std::invalid_argument);
  EXPECT_THROW(segment_energy(pixel3, DecodeProfile::kPtile, util::Seconds(0.1), 0.0,
                     util::Seconds(1.0)),
               std::invalid_argument);
  EXPECT_THROW(segment_energy(pixel3, DecodeProfile::kPtile, util::Seconds(0.1), 30.0,
                     util::Seconds(0.0)),
               std::invalid_argument);
}

// -------------------------------------------------------------- Fitting

TEST(FitLinearTest, ExactLineRecovered) {
  std::vector<PowerSample> samples;
  for (double x : {10.0, 20.0, 30.0}) samples.push_back({x, 100.0 + 5.0 * x});
  const LinearFit fit = fit_linear(samples);
  EXPECT_NEAR(fit.intercept, 100.0, 1e-9);
  EXPECT_NEAR(fit.slope, 5.0, 1e-9);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
}

TEST(FitLinearTest, ConstantSamplesYieldConstantFit) {
  std::vector<PowerSample> samples = {{0.0, 42.0}, {0.0, 44.0}, {0.0, 40.0}};
  const LinearFit fit = fit_linear(samples);
  EXPECT_DOUBLE_EQ(fit.slope, 0.0);
  EXPECT_NEAR(fit.intercept, 42.0, 1e-9);
}

TEST(FitLinearTest, NeedsTwoSamples) {
  EXPECT_THROW(fit_linear({{1.0, 2.0}}), std::invalid_argument);
}

// Parameterized: the measurement simulator + linear fit regenerates every
// Table I decode model on every device within the noise floor.
class TableOneRegeneration
    : public ::testing::TestWithParam<std::tuple<Device, DecodeProfile>> {};

TEST_P(TableOneRegeneration, FitRecoversGroundTruth) {
  const auto [device, profile] = GetParam();
  const MeasurementSimulator simulator;
  const LinearFit fit = fit_linear(simulator.measure_decode(device, profile));
  const auto& truth =
      device_model(device).decode[static_cast<std::size_t>(profile)];
  EXPECT_NEAR(fit.intercept, truth.base_mw, 15.0);
  EXPECT_NEAR(fit.slope, truth.slope_mw_per_fps, 1.0);
  EXPECT_GT(fit.r_squared, 0.8);
}

INSTANTIATE_TEST_SUITE_P(
    AllDevicesAndProfiles, TableOneRegeneration,
    ::testing::Combine(::testing::Values(Device::kNexus5X, Device::kPixel3,
                                         Device::kGalaxyS20),
                       ::testing::Values(DecodeProfile::kCtile, DecodeProfile::kFtile,
                                         DecodeProfile::kNontile,
                                         DecodeProfile::kPtile)));

TEST(MeasurementTest, RenderAndTransmitRecovered) {
  const MeasurementSimulator simulator;
  for (Device device : kAllDevices) {
    const LinearFit render = fit_linear(simulator.measure_render(device));
    EXPECT_NEAR(render.intercept, device_model(device).render.base_mw, 15.0);
    EXPECT_NEAR(render.slope, device_model(device).render.slope_mw_per_fps, 1.0);
    const LinearFit transmit = fit_linear(simulator.measure_transmit(device));
    EXPECT_NEAR(transmit.intercept, device_model(device).transmit_mw, 20.0);
    EXPECT_DOUBLE_EQ(transmit.slope, 0.0);
  }
}

TEST(MeasurementTest, MeasurementsAreDeterministic) {
  const MeasurementSimulator a, b;
  const auto sa = a.measure_decode(Device::kPixel3, DecodeProfile::kPtile);
  const auto sb = b.measure_decode(Device::kPixel3, DecodeProfile::kPtile);
  ASSERT_EQ(sa.size(), sb.size());
  EXPECT_DOUBLE_EQ(sa[10].mw, sb[10].mw);
}

// ----------------------------------------------------- DecoderConcurrency

TEST(DecoderModelTest, PaperEndpoints) {
  const DecoderConcurrencyModel model;
  // Fig. 2(b), Pixel 3: 1 decoder 1.3 s @ 241 mW; 9 decoders ~0.5 s @ 846 mW.
  EXPECT_NEAR(model.decode_time_s(1), 1.3, 1e-9);
  EXPECT_NEAR(model.decode_power_mw(1), 241.0, 1e-9);
  EXPECT_NEAR(model.decode_time_s(9), 0.5, 0.08);
  EXPECT_NEAR(model.decode_power_mw(9), 846.0, 15.0);
  EXPECT_DOUBLE_EQ(model.ptile_decode_time_s(), 0.24);
  EXPECT_DOUBLE_EQ(model.ptile_decode_power_mw(), 287.0);
}

TEST(DecoderModelTest, TimeShrinksPowerGrows) {
  const DecoderConcurrencyModel model;
  for (std::size_t n = 2; n <= 9; ++n) {
    EXPECT_LT(model.decode_time_s(n), model.decode_time_s(n - 1));
    EXPECT_GT(model.decode_power_mw(n), model.decode_power_mw(n - 1));
  }
}

TEST(DecoderModelTest, IntermediateDecoderCountMinimisesEnergy) {
  // Fig. 2(c): an intermediate decoder count (4 in the paper) is the best
  // conventional configuration.
  const DecoderConcurrencyModel model;
  const std::size_t best = model.best_decoder_count(9);
  EXPECT_GE(best, 3u);
  EXPECT_LE(best, 5u);
  EXPECT_LT(model.processing_energy_mj(best), model.processing_energy_mj(1));
  EXPECT_LT(model.processing_energy_mj(best), model.processing_energy_mj(9));
}

TEST(DecoderModelTest, PtileBeatsBestConventional) {
  // Fig. 2(c): the Ptile pipeline saves ~40-55% of processing energy versus
  // the best multi-decoder configuration.
  const DecoderConcurrencyModel model;
  const double best = model.processing_energy_mj(model.best_decoder_count(9));
  const double ptile = model.ptile_processing_energy_mj();
  const double saving = 1.0 - ptile / best;
  EXPECT_GT(saving, 0.35);
  EXPECT_LT(saving, 0.65);
}

TEST(DecoderModelTest, RejectsZeroDecoders) {
  const DecoderConcurrencyModel model;
  EXPECT_THROW(model.decode_time_s(0), std::invalid_argument);
}

// ----------------------------------------------------------------- Battery

TEST(BatteryModelTest, CapacityAndPercentages) {
  const BatteryModel battery(3000.0, 3.85);
  EXPECT_NEAR(battery.capacity_joules(), 3000.0 * 3.85 * 3.6, 1e-9);
  // Drawing 2 W for an hour: 7200 J of ~41.6 kJ ~ 17.3%.
  EXPECT_NEAR(battery.percent_per_hour(2000.0), 7200.0 / 41580.0 * 100.0, 1e-9);
  EXPECT_NEAR(battery.percent_for(2000.0, 1800.0),
              battery.percent_per_hour(2000.0) / 2.0, 1e-12);
  EXPECT_NEAR(battery.hours_at(2000.0), 100.0 / battery.percent_per_hour(2000.0),
              1e-12);
}

TEST(BatteryModelTest, StreamingSavingsInBatteryTerms) {
  // The headline in user terms: at the Fig. 9 per-segment energies (~2.6 W
  // Ctile vs ~1.5 W Ours), the Ptile pipeline buys hours of extra playback.
  const BatteryModel battery;
  EXPECT_GT(battery.hours_at(1500.0), battery.hours_at(2600.0) * 1.5);
}

TEST(BatteryModelTest, Validation) {
  EXPECT_THROW(BatteryModel(0.0, 3.85), std::invalid_argument);
  EXPECT_THROW(BatteryModel(3000.0, 0.0), std::invalid_argument);
  const BatteryModel battery;
  EXPECT_THROW(battery.percent_for(-1.0, 10.0), std::invalid_argument);
  EXPECT_THROW(battery.hours_at(0.0), std::invalid_argument);
}

}  // namespace
}  // namespace ps360::power
