// google-benchmark microbenchmarks for the hot algorithmic pieces: the MPC
// dynamic program (O(H V F) per decision, Section IV-C), Algorithm 1
// clustering, the ridge-regression viewport predictor, and the encoding
// model.
//
// The MPC rows are the repo's tracked perf trajectory: CI (and any local
// run) emits machine-readable results with
//   bench_micro_solver --benchmark_filter=BM_Mpc --benchmark_min_time=0.05
//     --benchmark_out=BENCH_mpc.json --benchmark_out_format=json
// and tools/bench_report.py renders the summary/speedup table against the
// committed snapshots in bench/results/. Pin PS360_THREADS=1 when an eval
// grid shares the machine.
#include <benchmark/benchmark.h>

#include "core/mpc.h"
#include "obs/metrics.h"
#include "obs/observer.h"
#include "obs/tracer.h"
#include "predict/viewport_predictor.h"
#include "ptile/clusterer.h"
#include "trace/head_synth.h"
#include "util/rng.h"
#include "video/encoding.h"

namespace {

using namespace ps360;

std::vector<core::SegmentChoices> make_horizon(std::size_t h, std::size_t options_n) {
  util::Rng rng(7);
  std::vector<core::SegmentChoices> horizon(h);
  for (auto& seg : horizon) {
    for (std::size_t o = 0; o < options_n; ++o) {
      core::QualityOption option;
      option.quality = static_cast<int>(o % 5) + 1;
      option.frame_index = 1 + o % 4;
      option.fps = 21.0 + 3.0 * static_cast<double>(o % 4);
      option.bytes = rng.uniform(5e4, 2e6);
      option.qo = rng.uniform(10.0, 95.0);
      seg.options.push_back(option);
    }
  }
  return horizon;
}

void BM_MpcDecide(benchmark::State& state) {
  const auto horizon = make_horizon(static_cast<std::size_t>(state.range(0)), 20);
  core::MpcConfig config;
  const core::MpcController controller(config,
                                       power::device_model(power::Device::kPixel3),
                                       core::MpcObjective::kMinEnergyQoEConstrained);
  for (auto _ : state) {
    benchmark::DoNotOptimize(controller.decide(horizon, util::BytesPerSec(5e5), util::Seconds(2.5),
                                         50.0));
  }
}
BENCHMARK(BM_MpcDecide)->Arg(3)->Arg(5)->Arg(10)->Arg(20);

// Same solve but with a freshly constructed controller (cold scratch arena)
// every iteration: the gap to BM_MpcDecide is what the steady-state
// zero-allocation reuse buys.
void BM_MpcDecideColdScratch(benchmark::State& state) {
  const auto horizon = make_horizon(static_cast<std::size_t>(state.range(0)), 20);
  core::MpcConfig config;
  const auto& device = power::device_model(power::Device::kPixel3);
  for (auto _ : state) {
    const core::MpcController controller(config, device,
                                         core::MpcObjective::kMinEnergyQoEConstrained);
    benchmark::DoNotOptimize(controller.decide(horizon, util::BytesPerSec(5e5), util::Seconds(2.5),
                                         50.0));
  }
}
BENCHMARK(BM_MpcDecideColdScratch)->Arg(10)->Arg(20);

// Observer-on variant of BM_MpcDecide: same solves with a metrics registry
// and tracer attached. The delta to BM_MpcDecide is the whole observability
// tax, which must stay within noise (the counters are index-adds and the
// trace append is a ring write). Picked up by the CI BM_Mpc filter.
void BM_MpcDecideObserved(benchmark::State& state) {
  const auto horizon = make_horizon(static_cast<std::size_t>(state.range(0)), 20);
  core::MpcConfig config;
  core::MpcController controller(config,
                                 power::device_model(power::Device::kPixel3),
                                 core::MpcObjective::kMinEnergyQoEConstrained);
  obs::MetricsRegistry metrics;
  obs::EventTracer tracer(4096);
  obs::Observer observer{&metrics, &tracer};
  controller.set_observer(&observer, /*session=*/0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(controller.decide(horizon, util::BytesPerSec(5e5), util::Seconds(2.5),
                                         50.0));
  }
}
BENCHMARK(BM_MpcDecideObserved)->Arg(10)->Arg(20);

void BM_MpcDecideQoeMax(benchmark::State& state) {
  const auto horizon = make_horizon(static_cast<std::size_t>(state.range(0)), 5);
  core::MpcConfig config;
  const core::MpcController controller(config,
                                       power::device_model(power::Device::kPixel3),
                                       core::MpcObjective::kMaxQoE);
  for (auto _ : state) {
    benchmark::DoNotOptimize(controller.decide(horizon, util::BytesPerSec(5e5), util::Seconds(2.5),
                                         50.0));
  }
}
BENCHMARK(BM_MpcDecideQoeMax)->Arg(5)->Arg(10);

void BM_Clustering(benchmark::State& state) {
  util::Rng rng(11);
  std::vector<geometry::EquirectPoint> centers;
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  for (std::size_t i = 0; i < n; ++i) {
    const double lon = rng.uniform(0.0, 360.0);
    centers.push_back(
        geometry::EquirectPoint::make(geometry::Degrees(lon), geometry::Degrees(rng.uniform(40.0, 140.0))));
  }
  const ptile::ViewClusterer clusterer;
  for (auto _ : state) {
    benchmark::DoNotOptimize(clusterer.cluster(centers));
  }
}
BENCHMARK(BM_Clustering)->Arg(40)->Arg(200)->Arg(1000);

void BM_ViewportPredict(benchmark::State& state) {
  const trace::HeadTraceSynthesizer synth;
  const trace::HeadTrace head = synth.synthesize(trace::test_videos()[7], 0);
  const predict::ViewportPredictor predictor;
  double t = 10.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(predictor.predict(head, t, t + 1.5));
    t += 0.37;
    if (t > 150.0) t = 10.0;
  }
}
BENCHMARK(BM_ViewportPredict);

void BM_EncodingBytes(benchmark::State& state) {
  const video::EncodingModel model;
  const video::ContentFeatures content{55.0, 35.0};
  std::uint64_t key = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        model.region_bytes(0.3, 9, 3, content, 1.0, 0.9, ++key));
  }
}
BENCHMARK(BM_EncodingBytes);

void BM_SwitchingSpeedSeries(benchmark::State& state) {
  const trace::HeadTraceSynthesizer synth;
  const trace::HeadTrace head = synth.synthesize(trace::test_videos()[5], 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(head.switching_speed_series());
  }
}
BENCHMARK(BM_SwitchingSpeedSeries);

}  // namespace
