// dataset_export — materialise the synthetic dataset as CSV files.
//
// Writes the head-movement traces (48 users x chosen videos) and the two
// network traces in the same directory layout the loaders expect, so you
// can inspect the data, plot it, or verify the format before swapping in a
// real dataset (e.g. the MMSys'17 corpus the paper uses):
//
//   <out>/video<id>_user<uid>.csv   t,x,y        (50 Hz viewing centers)
//   <out>/network_trace1.csv        t,mbps
//   <out>/network_trace2.csv        t,mbps
//
// Run: ./build/examples/dataset_export [out_dir] [video_id...]
#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "trace/dataset.h"
#include "trace/head_synth.h"

using namespace ps360;

int main(int argc, char** argv) {
  const std::filesystem::path out = argc > 1 ? argv[1] : "ps360_dataset";
  std::vector<int> video_ids;
  for (int i = 2; i < argc; ++i) video_ids.push_back(std::atoi(argv[i]));
  if (video_ids.empty()) video_ids = {2, 8};  // one focused, one free video

  const trace::HeadTraceSynthesizer synth(42);
  std::size_t files = 0;
  for (int id : video_ids) {
    const trace::VideoInfo& video = trace::video_by_id(id);
    std::printf("synthesizing video %d (%s): %zu users x %.0f s...\n", id,
                video.name.c_str(), trace::kDatasetUsers, video.duration_s);
    const auto traces = synth.synthesize_all(video, trace::kDatasetUsers);
    trace::export_video_traces(out, traces);
    files += traces.size();
  }

  const auto [trace1, trace2] = trace::make_paper_traces(7, util::Seconds(700.0));
  trace::save_network_trace(out / "network_trace1.csv", trace1);
  trace::save_network_trace(out / "network_trace2.csv", trace2);
  files += 2;

  std::printf("wrote %zu files under %s\n", files, out.string().c_str());
  std::printf("reload head traces with trace::load_video_traces(\"%s\", id);\n",
              out.string().c_str());
  return 0;
}
