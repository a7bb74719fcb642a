// perfbench: the repository benchmark program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--smoke] [--commit ID]
//
// Builds the workload's inputs from the seed (several times; the median is
// setup_s), repeats the timed operation for S seconds, then runs the serial
// reference and checks every timed output against it bit for bit. End-to-end
// host times are normalized by a calibration kernel (see calibration.h). With
// --trace 0 it prints the end-to-end metrics, with --trace 1 the per-layer
// metrics; the last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}. --smoke runs toy sizes
// through the same code. PS360_THREADS is cleared: threads and shards are
// set explicitly from the CPU count.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "calibration.h"
#include "layers.h"
#include "support.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct Args {
  Settings settings;
  std::string commit = "unknown";
};

Args parse(int argc, char** argv) {
  Args args;
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--workload") {
      args.settings.workload = value();
      have_workload = true;
    } else if (flag == "--seed") {
      args.settings.seed = std::stoull(value());
      have_seed = true;
    } else if (flag == "--seconds") {
      args.settings.seconds = std::stod(value());
      have_seconds = args.settings.seconds > 0.0;
    } else if (flag == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") throw std::invalid_argument("--trace takes 0 or 1");
      args.settings.trace = v == "1";
      have_trace = true;
    } else if (flag == "--smoke") {
      args.settings.smoke = true;
    } else if (flag == "--commit") {
      args.commit = value();
    } else {
      throw std::invalid_argument("unknown argument " + flag);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace)
    throw std::invalid_argument(
        "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 [--smoke]");
  return args;
}

int run(const Args& args) {
  Settings settings = args.settings;
  // Thread discipline: nothing inherited decides parallelism.
  unsetenv("PS360_THREADS");
  const std::size_t nproc = cpu_count();
  settings.threads = nproc;
  // Shard workers plus the coordinator never exceed nproc; never 0, which
  // would resolve from the environment.
  settings.shards = nproc > 1 ? nproc - 1 : 1;

  const BuildInfo build = build_info();
  if (!build.optimized) {
    std::fprintf(stderr, "perfbench: refusing to report from an unoptimized build "
                         "(CMAKE_BUILD_TYPE='%s', flags '%s')\n",
                 build.build_type.c_str(), build.cxx_flags.c_str());
    return 3;
  }

  std::unique_ptr<Workload> workload = make_workload(settings);

  // Set-up, in batches of one call or of enough cheap calls to take about
  // 10 ms, repeated at least 9 times and for 1.5 s; setup_s is the median
  // normalized time per call. The first, cold call sizes the batch.
  const double first_setup_s = measure([&] { workload->setup(); }).wall_s;
  const int batch = static_cast<int>(std::clamp(0.01 / first_setup_s, 1.0, 10000.0));
  std::vector<double> setups;
  const double setup_until = wall_now() + 1.5;
  while (setups.size() < 9 || wall_now() < setup_until) {
    const CalibratedSpan span = measure_calibrated([&] {
      for (int i = 0; i < batch; ++i) workload->setup();
    });
    setups.push_back(span.host.wall_s / batch);
  }

  // Timed operations: at least three, then until the time is used.
  constexpr std::size_t kMinOps = 3;
  std::vector<OpResult> outputs;
  std::vector<double> seg_per_s, cpu_us_per_seg, raw_seg_per_s, walls, cpus, calibrations;
  const double deadline = wall_now() + settings.seconds;
  while (outputs.size() < kMinOps || wall_now() < deadline) {
    OpResult result;
    const CalibratedSpan span = measure_calibrated([&] { result = workload->run(); });
    const double segments = static_cast<double>(result.segments);
    seg_per_s.push_back(segments / span.host.wall_s);
    cpu_us_per_seg.push_back(span.host.cpu_s / segments * 1e6);
    raw_seg_per_s.push_back(segments / span.raw.wall_s);
    walls.push_back(span.raw.wall_s);
    cpus.push_back(span.raw.cpu_s);
    calibrations.push_back(span.kernel_s);
    outputs.push_back(std::move(result));
  }

  // The serial reference, and the output check.
  Outcome outcome;
  const OpResult reference = workload->reference(outcome);
  std::size_t attempted = outputs.size(), failed = 0;
  if (!reference.violation.empty())
    std::fprintf(stderr, "perfbench: reference unbalanced: %s\n", reference.violation.c_str());
  for (std::size_t i = 0; i < outputs.size(); ++i) {
    const OpResult& out = outputs[i];
    if (out.fingerprint == reference.fingerprint && out.violation.empty()) continue;
    ++failed;
    std::fprintf(stderr, "perfbench: operation %zu failed its check: %s\n", i,
                 out.violation.empty() ? "output differs from the serial reference"
                                       : out.violation.c_str());
  }

  MetricList metrics;
  std::vector<std::string> notes;
  if (!settings.trace) {
    metrics.set("segments_per_s", median(seg_per_s), "segments/s");
    metrics.set("cpu_us_per_segment", median(cpu_us_per_seg), "us");
    metrics.set("setup_s", median(setups), "s");
    metrics.set("peak_rss_mib", peak_rss_mib(), "MiB");
    metrics.set("energy_j_per_session", outcome.energy_j_per_session, "J");
    metrics.set("qoe_mean", outcome.qoe_mean, "qoe");
    metrics.set("energy_saving_vs_ctile_pct", outcome.energy_saving_vs_ctile_pct, "%");
  } else {
    for (const auto& [name, unit] : per_layer_metrics()) metrics.set(name, 0.0, unit);
    LayerContext context;
    context.timed_wall_s = median(walls);
    context.timed_cpu_s = median(cpus);
    context.metrics = &metrics;
    context.notes = &notes;
    workload->trace_layers(context);
    attempted += context.attempted;
    failed += context.failed;
    set_layer(metrics, "qoe_p5", outcome.qoe_p5);
    set_layer(metrics, "stall_ratio", outcome.stall_ratio);
    set_layer(metrics, "failed_fraction",
              static_cast<double>(failed) / static_cast<double>(attempted));
    set_layer(metrics, "host.raw_segments_per_s", median(raw_seg_per_s));
    set_layer(metrics, "host.calibration_ms", median(calibrations) * 1e3);
  }

  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d smoke=%d\n",
              settings.workload.c_str(), static_cast<unsigned long long>(settings.seed),
              settings.seconds, settings.trace ? 1 : 0, settings.smoke ? 1 : 0);
  std::printf("# build: CMAKE_BUILD_TYPE=%s flags='%s' compiler='%s' commit=%s\n",
              build.build_type.c_str(), build.cxx_flags.c_str(), build.compiler.c_str(),
              args.commit.c_str());
  std::printf("# host: nproc=%zu threads=%zu shards=%zu\n", nproc, settings.threads,
              settings.shards);
  std::printf("# config: %s\n", workload->describe().c_str());
  std::printf("# timed operations: %zu, wall min/p25/median/p75/max %.4f/%.4f/%.4f/%.4f/%.4f s\n",
              outputs.size(), percentile(walls, 0.0), percentile(walls, 25.0), median(walls),
              percentile(walls, 75.0), percentile(walls, 100.0));
  std::printf("# calibration kernel: median %.3f ms (nominal %.3f ms), min/max %.3f/%.3f ms\n",
              median(calibrations) * 1e3, kNominalKernelS * 1e3,
              percentile(calibrations, 0.0) * 1e3, percentile(calibrations, 100.0) * 1e3);
  for (const std::string& note : notes) std::printf("# %s\n", note.c_str());
  for (const Metric& m : metrics.items())
    std::printf("%-34s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());

  std::string json = "{\"correct\": ";
  json += failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics.items()) {
    json += first ? "" : ", ";
    first = false;
    json += json_string(m.name) + ": {\"value\": " + json_number(m.value) +
            ", \"unit\": " + json_string(m.unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
