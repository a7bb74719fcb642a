// energy_study — where does the energy go, and on which phone?
//
// Streams one video with every scheme on all three Table I devices and
// prints the energy budget split into radio / decoder / renderer, plus the
// battery impact: how many minutes of a typical phone battery one hour of
// streaming would burn.
//
// Run: ./build/examples/energy_study [video_id 1..8]
#include <cstdio>
#include <cstdlib>

#include "power/battery.h"
#include "sim/session.h"
#include "util/strings.h"

using namespace ps360;

int main(int argc, char** argv) {
  const int video_id = argc > 1 ? std::atoi(argv[1]) : 2;
  const trace::VideoInfo& video = trace::video_by_id(video_id);
  std::printf("energy study: video %d (%s), network trace 2 (3.9 Mbps LTE)\n",
              video.id, video.name.c_str());

  sim::VideoWorkload workload(video, sim::WorkloadConfig{});
  const auto traces = trace::make_paper_traces(7, util::Seconds(700.0));

  for (power::Device device : power::kAllDevices) {
    std::printf("\n=== %s ===\n", power::device_name(device).c_str());
    util::TextTable table({"scheme", "radio mJ/s", "decode mJ/s", "render mJ/s",
                           "total mJ/s", "battery %/hour"});
    for (sim::SchemeKind scheme : sim::all_schemes()) {
      sim::SessionConfig config;
      config.device = device;
      const auto result =
          sim::simulate_all_test_users(workload, scheme, traces.second, config);
      const double n = static_cast<double>(workload.segment_count());
      const double total = result.energy.total_mj() / n;
      table.add_row({sim::scheme_name(scheme),
                     util::strfmt("%.0f", result.energy.transmit_mj / n),
                     util::strfmt("%.0f", result.energy.decode_mj / n),
                     util::strfmt("%.0f", result.energy.render_mj / n),
                     util::strfmt("%.0f", total),
                     // total mJ per 1-second segment == average draw in mW.
                     util::strfmt("%.1f", power::battery_percent_per_hour(total))});
    }
    std::printf("%s", table.render().c_str());
  }

  std::printf("\n(battery figure: one hour of streaming as %% of a 3000 mAh / "
              "3.85 V battery, excluding the screen)\n");
  return 0;
}
