// Tests for the trace module: the video catalog (Table III), head traces
// and their synthesizer (including the Fig. 5 switching-speed calibration),
// and network traces (including the paper's trace-1/trace-2 statistics).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "trace/dataset.h"
#include "trace/head_synth.h"
#include "trace/head_trace.h"
#include "trace/network_trace.h"
#include "trace/video_catalog.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/worker_pool.h"

namespace ps360::trace {
namespace {

// ----------------------------------------------------------- VideoCatalog

TEST(VideoCatalogTest, TableThreeContents) {
  const auto& videos = test_videos();
  ASSERT_EQ(videos.size(), 8u);
  EXPECT_EQ(videos[0].name, "Basketball Match");
  EXPECT_NEAR(videos[0].duration_s, 361.0, 1e-9);  // 6:01
  EXPECT_EQ(videos[7].name, "Freestyle Skiing");
  EXPECT_NEAR(videos[7].duration_s, 201.0, 1e-9);  // 3:21
  for (int i = 0; i < 8; ++i) EXPECT_EQ(videos[i].id, i + 1);
}

TEST(VideoCatalogTest, FocusSplitMatchesPaper) {
  // Users were instructed to focus for videos 1-4 and left free for 5-8.
  for (const auto& v : test_videos()) {
    EXPECT_EQ(v.focused, v.id <= 4) << "video " << v.id;
  }
}

TEST(VideoCatalogTest, ExtendedCatalogHasEighteenVideos) {
  EXPECT_EQ(extended_videos().size(), 18u);
  // The first 8 are the Table III test videos.
  for (int i = 0; i < 8; ++i)
    EXPECT_EQ(extended_videos()[i].id, test_videos()[i].id);
}

TEST(VideoCatalogTest, LookupByIdWorksAndThrows) {
  EXPECT_EQ(video_by_id(8).name, "Freestyle Skiing");
  EXPECT_EQ(video_by_id(15).name, "Art Museum");
  EXPECT_THROW(video_by_id(99), std::invalid_argument);
}

TEST(VideoCatalogTest, SiTiCoverAWideRange) {
  // Fig. 4(a): the dataset spans a wide range of genres.
  double si_min = 1e9, si_max = -1e9, ti_min = 1e9, ti_max = -1e9;
  for (const auto& v : extended_videos()) {
    si_min = std::min(si_min, v.si_base);
    si_max = std::max(si_max, v.si_base);
    ti_min = std::min(ti_min, v.ti_base);
    ti_max = std::max(ti_max, v.ti_base);
  }
  EXPECT_LT(si_min, 35.0);
  EXPECT_GT(si_max, 70.0);
  EXPECT_LT(ti_min, 10.0);
  EXPECT_GT(ti_max, 25.0);
}

// -------------------------------------------------------------- HeadTrace

std::vector<HeadSample> ramp_samples() {
  // 0..10 s, x advancing 10 deg/s through the wrap, y fixed.
  std::vector<HeadSample> samples;
  for (int i = 0; i <= 100; ++i) {
    const double t = i * 0.1;
    samples.push_back(
        {t, geometry::EquirectPoint::make(geometry::Degrees(350.0 + 10.0 * t), geometry::Degrees(90.0))});
  }
  return samples;
}

TEST(HeadTraceTest, ValidatesMonotoneTimestamps) {
  std::vector<HeadSample> bad = {{0.0, {}}, {0.0, {}}};
  EXPECT_THROW(HeadTrace(1, 0, bad), std::invalid_argument);
  EXPECT_THROW(HeadTrace(1, 0, {}), std::invalid_argument);
}

TEST(HeadTraceTest, CenterAtInterpolatesAcrossWrap) {
  const HeadTrace trace(1, 0, ramp_samples());
  // At t = 1.05 the center is at 350 + 10.5 = 0.5 degrees (wrapped).
  EXPECT_NEAR(trace.center_at(1.05).x, 0.5, 1e-9);
  // Clamping outside the range.
  EXPECT_NEAR(trace.center_at(-5.0).x, 350.0, 1e-9);
  EXPECT_NEAR(trace.center_at(99.0).x, geometry::wrap360(geometry::Degrees(350.0 + 100.0)).value(), 1e-9);
}

TEST(HeadTraceTest, SwitchingSpeedMatchesRamp) {
  const HeadTrace trace(1, 0, ramp_samples());
  // Constant 10 deg/s at the equator.
  EXPECT_NEAR(trace.switching_speed(2.0, 8.0), 10.0, 0.1);
  const auto series = trace.switching_speed_series();
  ASSERT_EQ(series.size(), 100u);
  for (double s : series) EXPECT_NEAR(s, 10.0, 0.2);
}

TEST(HeadTraceTest, MeanCenterHandlesWrap) {
  // Samples at 355 and 5 degrees: the circular mean is 0, not 180.
  std::vector<HeadSample> samples = {
      {0.0, geometry::EquirectPoint::make(geometry::Degrees(355.0), geometry::Degrees(90.0))},
      {1.0, geometry::EquirectPoint::make(geometry::Degrees(5.0), geometry::Degrees(90.0))}};
  const HeadTrace trace(1, 0, std::move(samples));
  const auto mean = trace.mean_center(0.0, 1.0);
  EXPECT_LT(geometry::circular_distance(geometry::Degrees(mean.x), geometry::Degrees(0.0)).value(), 1.0);
}

TEST(HeadTraceTest, CsvRoundTrip) {
  const HeadTrace trace(3, 7, ramp_samples());
  const auto path = std::filesystem::temp_directory_path() / "ps360_head.csv";
  save_head_trace(path, trace);
  const HeadTrace loaded = load_head_trace(path, 3, 7);
  ASSERT_EQ(loaded.samples().size(), trace.samples().size());
  EXPECT_NEAR(loaded.samples()[50].center.x, trace.samples()[50].center.x, 1e-9);
  EXPECT_EQ(loaded.video_id(), 3);
  std::filesystem::remove(path);
}

void write_text_file(const std::filesystem::path& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
}

// Expects `fn` to throw E with a message containing `needle`.
template <typename E, typename Fn>
void expect_throw_naming(Fn fn, const std::string& needle) {
  try {
    fn();
    ADD_FAILURE() << "expected a throw naming '" << needle << "'";
  } catch (const E& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos) << e.what();
  }
}

TEST(HeadTraceTest, RejectsNonFiniteSamples) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const auto with = [](std::size_t index, HeadSample bad) {
    auto samples = ramp_samples();
    samples[index] = bad;
    return samples;
  };
  // A lone NaN sample, an infinite last timestamp and a NaN longitude all
  // passed the strictly-increasing check before.
  expect_throw_naming<std::invalid_argument>(
      [&] { HeadTrace(1, 0, {HeadSample{nan, {}}}); }, "head trace sample 0");
  expect_throw_naming<std::invalid_argument>(
      [&] { HeadTrace(1, 0, with(100, HeadSample{inf, {}})); }, "head trace sample 100");
  expect_throw_naming<std::invalid_argument>(
      [&] { HeadTrace(1, 0, with(3, HeadSample{0.3, {nan, 90.0}})); }, "head trace sample 3");
  expect_throw_naming<std::invalid_argument>(
      [&] { HeadTrace(1, 0, with(4, HeadSample{0.4, {10.0, -inf}})); }, "head trace sample 4");
}

TEST(HeadTraceTest, RejectsColatitudeOffTheSphere) {
  // Eq. 5's orientation vectors need a colatitude in [0, 180], so the trace
  // rejects one outside it up front, naming the sample, rather than failing
  // at its first switching_speed call without the index.
  auto samples = ramp_samples();
  samples[7].center.y = 180.5;
  expect_throw_naming<std::invalid_argument>([&] { HeadTrace(1, 0, samples); },
                                             "head trace sample 7");
  samples[7].center.y = -1e-9;
  expect_throw_naming<std::invalid_argument>([&] { HeadTrace(1, 0, samples); },
                                             "head trace sample 7");
  samples[7].center.y = 180.0;
  EXPECT_NO_THROW(HeadTrace(1, 0, samples));
}

TEST(HeadTraceTest, LoadRejectsNonFiniteCells) {
  const auto path = std::filesystem::temp_directory_path() / "ps360_head_nonfinite.csv";
  for (const char* row :
       {"nan,10,90", "3,inf,90", "3,-inf,90", "3,10,nan", "inf,10,90", "3,nan,nan"}) {
    write_text_file(path, std::string("t,x,y\n0,10,90\n1,11,90\n") + row + "\n");
    expect_throw_naming<std::invalid_argument>([&] { load_head_trace(path, 1, 0); },
                                               "head trace sample 2");
  }
  std::filesystem::remove(path);
}

// mean_center and switching_speed as they were before their windows were
// binary-searched: a scan of the whole trace that tests every sample
// against the window. The rewritten methods must match them bit for bit.
geometry::EquirectPoint mean_center_full_scan(const HeadTrace& trace, double t0,
                                              double t1) {
  double sx = 0.0, sy = 0.0, y_sum = 0.0;
  std::size_t n = 0;
  for (const auto& s : trace.samples()) {
    if (s.t < t0 || s.t > t1) continue;
    const double rad = geometry::to_radians(geometry::Degrees(s.center.x)).value();
    sx += std::cos(rad);
    sy += std::sin(rad);
    y_sum += s.center.y;
    ++n;
  }
  if (n == 0) return trace.center_at((t0 + t1) / 2.0);
  double x;
  if (sx == 0.0 && sy == 0.0) {
    x = trace.center_at((t0 + t1) / 2.0).x;
  } else {
    x = geometry::wrap360(geometry::to_degrees(geometry::Radians(std::atan2(sy, sx))))
            .value();
  }
  return geometry::EquirectPoint{x, y_sum / static_cast<double>(n)};
}

double switching_speed_full_scan(const HeadTrace& trace, double t0, double t1) {
  double path_deg = 0.0;
  geometry::Vec3 prev = trace.center_at(t0).orientation();
  for (const auto& s : trace.samples()) {
    if (s.t <= t0 || s.t >= t1) continue;
    const geometry::Vec3 cur = s.center.orientation();
    path_deg += geometry::angular_distance(prev, cur).value();
    prev = cur;
  }
  const geometry::Vec3 last = trace.center_at(t1).orientation();
  path_deg += geometry::angular_distance(prev, last).value();
  return path_deg / (t1 - t0);
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// Windows over a trace's sample times: endpoints exactly on samples,
// windows before the first and after the last sample, windows holding zero
// or one sample (endpoints strictly between neighbours), and random spans.
std::vector<std::pair<double, double>> seeded_windows(const HeadTrace& trace,
                                                      std::uint64_t seed) {
  const auto& s = trace.samples();
  const double first = s.front().t, last = s.back().t;
  std::vector<std::pair<double, double>> windows = {
      {first - 3.0, first - 1.0}, {first - 1.0, first},  {first - 2.0, first + 0.5},
      {last + 1.0, last + 2.0},   {last, last + 1.0},    {last - 0.5, last + 3.0},
      {first, last},              {first - 1.0, last + 1.0}};
  util::Rng rng(seed);
  for (int k = 0; k < 300; ++k) {
    const std::size_t i = rng.uniform_index(s.size() - 1);
    const double gap = s[i + 1].t - s[i].t;
    switch (k % 4) {
      case 0: {  // both endpoints on sample times
        const std::size_t span = std::min<std::size_t>(60, s.size() - 1 - i);
        const std::size_t j = i + 1 + rng.uniform_index(span);
        windows.emplace_back(s[i].t, s[j].t);
        break;
      }
      case 1:  // zero samples: strictly between two neighbours
        windows.emplace_back(s[i].t + 0.25 * gap, s[i].t + 0.75 * gap);
        break;
      case 2:  // exactly one sample, not on an endpoint
        windows.emplace_back(s[i + 1].t - 0.5 * gap, s[i + 1].t + 1e-9);
        break;
      default: {  // random span anywhere around the trace
        const double t0 = rng.uniform(first - 2.0, last + 2.0);
        windows.emplace_back(t0, t0 + rng.uniform(1e-6, 3.0));
        break;
      }
    }
  }
  return windows;
}

// A sparse trace with irregular gaps (0.05-2 s) whose longitude random-walks
// across the 0/360 seam. Every other sample's longitude is scaled down by
// 100, so neighbours differ in magnitude and interpolating exactly onto a
// sample time rounds: whether a window keeps its endpoint sample then shows
// in the bits, as it would not on a smooth trace.
HeadTrace irregular_trace(std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<HeadSample> samples;
  double t = 0.3, x = 350.0;
  for (int i = 0; i < 200; ++i) {
    x += rng.uniform(-40.0, 40.0);
    samples.push_back(HeadSample{t, geometry::EquirectPoint::make(
                                        geometry::Degrees(i % 2 == 0 ? x : 0.01 * x),
                                        geometry::Degrees(rng.uniform(0.0, 180.0)))});
    t += rng.uniform(0.05, 2.0);
  }
  return HeadTrace(1, 0, std::move(samples));
}

TEST(HeadTraceTest, WindowsMatchFullScanReference) {
  VideoInfo video = test_videos()[2];
  video.duration_s = 20.0;
  const HeadTrace synthesized = HeadTraceSynthesizer(42).synthesize(video, 5);
  const HeadTrace irregular = irregular_trace(77);
  for (const HeadTrace* trace : {&synthesized, &irregular}) {
    for (const auto& [t0, t1] : seeded_windows(*trace, 99)) {
      const auto got = trace->mean_center(t0, t1);
      const auto want = mean_center_full_scan(*trace, t0, t1);
      ASSERT_EQ(bits(got.x), bits(want.x)) << "[" << t0 << ", " << t1 << "]";
      ASSERT_EQ(bits(got.y), bits(want.y)) << "[" << t0 << ", " << t1 << "]";
      ASSERT_EQ(bits(trace->switching_speed(t0, t1)),
                bits(switching_speed_full_scan(*trace, t0, t1)))
          << "(" << t0 << ", " << t1 << ")";
      // A zero-width window holds at most the one sample it sits on.
      const auto point = trace->mean_center(t0, t0);
      const auto point_want = mean_center_full_scan(*trace, t0, t0);
      ASSERT_EQ(bits(point.x), bits(point_want.x));
      ASSERT_EQ(bits(point.y), bits(point_want.y));
    }
  }
}

TEST(HeadTraceTest, PairPathsFirstUseIsThreadSafe) {
  // Solve workers and grid threads replay one workload's test traces, so the
  // first Eq. 5 call, which builds the trace's pair distances, may come from
  // many threads at once (TSan flags the build if it is not safe). Every
  // thread's windows must read what a serial walk of a fresh trace reads.
  VideoInfo video = test_videos()[3];
  video.duration_s = 30.0;
  const HeadTrace shared = HeadTraceSynthesizer(42).synthesize(video, 6);
  const HeadTrace serial = HeadTraceSynthesizer(42).synthesize(video, 6);
  constexpr std::size_t kSlots = 8, kWindows = 200;
  const auto window = [&](std::size_t slot, std::size_t w) {
    const double t1 = 1.0 + 0.0137 * static_cast<double>(slot * kWindows + w);
    return std::pair{t1 - 1.0, t1};
  };
  std::vector<std::vector<double>> speeds(kSlots);
  util::for_each_slot(kSlots, [&](std::size_t slot) {
    for (std::size_t w = 0; w < kWindows; ++w) {
      const auto [t0, t1] = window(slot, w);
      speeds[slot].push_back(shared.switching_speed(t0, t1));
    }
  });
  for (std::size_t slot = 0; slot < kSlots; ++slot) {
    for (std::size_t w = 0; w < kWindows; ++w) {
      const auto [t0, t1] = window(slot, w);
      ASSERT_EQ(bits(speeds[slot][w]), bits(serial.switching_speed(t0, t1)))
          << "slot " << slot << " window (" << t0 << ", " << t1 << ")";
    }
  }
}

// -------------------------------------------------------- HeadSynthesizer

TEST(HeadSynthTest, DeterministicPerSeedAndUser) {
  const HeadTraceSynthesizer synth(42);
  const auto& video = test_videos()[1];
  const HeadTrace a = synth.synthesize(video, 3);
  const HeadTrace b = synth.synthesize(video, 3);
  ASSERT_EQ(a.samples().size(), b.samples().size());
  EXPECT_DOUBLE_EQ(a.samples()[1000].center.x, b.samples()[1000].center.x);
  const HeadTrace c = synth.synthesize(video, 4);
  EXPECT_NE(a.samples()[1000].center.x, c.samples()[1000].center.x);
}

TEST(HeadSynthTest, CoversVideoDurationAtSampleRate) {
  const HeadTraceSynthesizer synth(42);
  const auto& video = test_videos()[5];  // 164 s
  const HeadTrace trace = synth.synthesize(video, 0);
  EXPECT_GE(trace.duration(), video.duration_s - 0.1);
  // 50 Hz sampling.
  const double dt = trace.samples()[1].t - trace.samples()[0].t;
  EXPECT_NEAR(dt, 0.02, 1e-9);
}

TEST(HeadSynthTest, SwitchingSpeedDistributionMatchesFig5) {
  // Fig. 5 calibration: users exceed 10 deg/s for >30% of samples across
  // the dataset (the paper reports "more than 30%").
  const HeadTraceSynthesizer synth(42);
  std::vector<double> speeds;
  for (const auto& video : extended_videos()) {
    for (int u = 0; u < 3; ++u) {
      const auto series = synth.synthesize(video, u).switching_speed_series();
      speeds.insert(speeds.end(), series.begin(), series.end());
    }
  }
  const double frac10 = util::fraction_above(speeds, 10.0);
  EXPECT_GT(frac10, 0.30);
  EXPECT_LT(frac10, 0.60);  // not implausibly frantic
  // A heavy but not absurd tail.
  EXPECT_GT(util::fraction_above(speeds, 30.0), 0.01);
  EXPECT_LT(util::fraction_above(speeds, 100.0), 0.02);
}

TEST(HeadSynthTest, FocusedUsersClusterTighterThanFreeUsers) {
  // The premise of Ptile construction: viewers of a focused video look at
  // nearly the same place.
  const HeadTraceSynthesizer synth(42);
  auto spread = [&](const VideoInfo& video) {
    const auto traces = synth.synthesize_all(video, 20);
    double total = 0.0;
    int count = 0;
    for (double t : {30.0, 60.0, 90.0}) {
      for (std::size_t i = 0; i < traces.size(); ++i) {
        for (std::size_t j = i + 1; j < traces.size(); ++j) {
          total += geometry::wrapped_distance(traces[i].center_at(t),
                                              traces[j].center_at(t));
          ++count;
        }
      }
    }
    return total / count;
  };
  EXPECT_LT(spread(test_videos()[2]), spread(test_videos()[6]));
}

TEST(HeadSynthTest, SamplesStayOnTheSphere) {
  const HeadTraceSynthesizer synth(42);
  const auto trace = synth.synthesize(test_videos()[7], 11);
  for (const auto& s : trace.samples()) {
    EXPECT_GE(s.center.x, 0.0);
    EXPECT_LT(s.center.x, 360.0);
    EXPECT_GE(s.center.y, 0.0);
    EXPECT_LE(s.center.y, 180.0);
  }
}

TEST(HeadSynthTest, AttractorPathsAreSmoothAndDeterministic) {
  const HeadTraceSynthesizer synth(42);
  const auto paths = synth.attractors(test_videos()[0]);
  ASSERT_EQ(paths.size(), 1u);
  // The attractor's own speed stays within ~2.5x the genre speed (sinusoid
  // peak + drift).
  const auto& path = paths[0];
  for (double t = 0.0; t < 100.0; t += 0.5) {
    const double d = geometry::wrapped_distance(path.at(t), path.at(t + 0.1));
    EXPECT_LT(d / 0.1, 2.5 * test_videos()[0].attractor_speed + 5.0);
  }
  EXPECT_DOUBLE_EQ(path.at(12.3).x, synth.attractors(test_videos()[0])[0].at(12.3).x);
}

// The synthesizer as it was before the attractor table: every user calls
// paths[a].at(t) at every sample. Kept verbatim as the reference the table
// and the pooled users must reproduce bit for bit.
namespace reference {

std::size_t pick_attractor(const std::vector<AttractorPath>& paths, util::Rng& rng) {
  double total = 0.0;
  for (const auto& p : paths) total += p.weight();
  double u = rng.uniform() * total;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    u -= paths[i].weight();
    if (u <= 0.0) return i;
  }
  return paths.size() - 1;
}

HeadTrace synthesize(const HeadTraceSynthesizer& synth, const VideoInfo& video,
                     int user_id) {
  const HeadSynthConfig& config = synth.config();
  const auto paths = synth.attractors(video);
  util::Rng rng(util::derive_seed(synth.seed(),
                                  static_cast<std::uint64_t>(video.id) * 977 + 13,
                                  0x5EEDULL + static_cast<std::uint64_t>(user_id)));

  const double offset_sigma = video.focused ? kOffsetSigmaFocused : kOffsetSigmaFree;
  const double dwell_mean = video.focused ? kDwellMeanFocused : kDwellMeanFree;
  const double explore_prob = video.focused ? kExploreProbFocused : kExploreProbFree;

  const double offset_x = rng.normal(0.0, offset_sigma);
  const double offset_y = rng.normal(0.0, offset_sigma * 0.7);

  const double dt = 1.0 / config.sample_rate_hz;
  const std::size_t n_samples =
      1 + ceil_count(video.duration_s * config.sample_rate_hz, "duration_s * sample_rate_hz");

  bool exploring = false;
  std::size_t target_attractor = pick_attractor(paths, rng);
  geometry::EquirectPoint explore_target{0.0, 90.0};
  double next_decision_t = rng.exponential(dwell_mean);

  geometry::EquirectPoint pos = paths[target_attractor].at(0.0);
  pos.x = geometry::wrap360(geometry::Degrees(pos.x + offset_x)).value();
  pos.y = std::clamp(pos.y + offset_y, 0.0, 180.0);

  std::vector<HeadSample> samples;
  samples.reserve(n_samples);
  for (std::size_t i = 0; i < n_samples; ++i) {
    const double t = static_cast<double>(i) * dt;
    if (t >= next_decision_t) {
      if (!exploring && rng.bernoulli(explore_prob)) {
        exploring = true;
        explore_target = geometry::EquirectPoint{
            rng.uniform(0.0, 360.0), std::clamp(rng.normal(90.0, 25.0), 10.0, 170.0)};
        next_decision_t = t + rng.exponential(kExploreMeanS);
      } else {
        exploring = false;
        target_attractor = pick_attractor(paths, rng);
        next_decision_t = t + rng.exponential(dwell_mean);
      }
    }
    geometry::EquirectPoint target;
    if (exploring) {
      target = explore_target;
    } else {
      target = paths[target_attractor].at(t);
      target.x = geometry::wrap360(geometry::Degrees(target.x + offset_x)).value();
      target.y = std::clamp(target.y + offset_y, 0.0, 180.0);
    }
    const double err_x =
        geometry::wrap_delta(geometry::Degrees(target.x), geometry::Degrees(pos.x)).value();
    const double err_y = target.y - pos.y;
    const double vx = std::clamp(kPursuitGain * err_x, -kMaxSpeedX, kMaxSpeedX) +
                      rng.normal(0.0, kVelocityNoise);
    const double vy = std::clamp(kPursuitGain * err_y, -kMaxSpeedY, kMaxSpeedY) +
                      rng.normal(0.0, kVelocityNoise);
    pos.x = geometry::wrap360(geometry::Degrees(pos.x + vx * dt)).value();
    pos.y = std::clamp(pos.y + vy * dt, 0.0, 180.0);
    const geometry::EquirectPoint recorded{
        geometry::wrap360(geometry::Degrees(pos.x + rng.normal(0.0, kSensorJitter))).value(),
        std::clamp(pos.y + rng.normal(0.0, kSensorJitter), 0.0, 180.0)};
    samples.push_back(HeadSample{t, recorded});
  }
  return HeadTrace(video.id, user_id, std::move(samples));
}

}  // namespace reference

// Every sample's time and center, bit for bit; stops at the first mismatch.
void expect_same_samples(const HeadTrace& got, const HeadTrace& want,
                         const std::string& label) {
  ASSERT_EQ(got.samples().size(), want.samples().size()) << label;
  for (std::size_t i = 0; i < got.samples().size(); ++i) {
    const HeadSample& g = got.samples()[i];
    const HeadSample& w = want.samples()[i];
    ASSERT_EQ(std::bit_cast<std::uint64_t>(g.t), std::bit_cast<std::uint64_t>(w.t))
        << label << " sample " << i;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(g.center.x), std::bit_cast<std::uint64_t>(w.center.x))
        << label << " sample " << i;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(g.center.y), std::bit_cast<std::uint64_t>(w.center.y))
        << label << " sample " << i;
  }
}

// The attractor table holds paths[a].at(i * dt) for every sample i, the call
// the per-sample loop made, so every user's samples keep their bits: at every
// extended video's full length and at two cuts (one off the sample grid),
// at the dataset's 50 Hz and two other rates (one whose dt is inexact).
// synthesize_all, whose users share one table and run on the pool, returns
// synthesize's traces.
TEST(HeadSynthTest, TabulatedAttractorsMatchPerSampleReference) {
  for (const double rate : {50.0, 30.0, 7.3}) {
    HeadSynthConfig config;
    config.sample_rate_hz = rate;
    const HeadTraceSynthesizer synth(42, config);
    for (const VideoInfo& full : extended_videos()) {
      for (const double duration : {20.0, 60.37, full.duration_s}) {
        VideoInfo video = full;
        video.duration_s = duration;
        const std::string label = "video " + std::to_string(video.id) + " duration " +
                                  std::to_string(duration) + " rate " + std::to_string(rate);
        const std::vector<HeadTrace> all =
            duration == 20.0 ? synth.synthesize_all(video, 48) : std::vector<HeadTrace>{};
        for (const int user : {0, 23, 47}) {
          const HeadTrace fast = synth.synthesize(video, user);
          expect_same_samples(fast, reference::synthesize(synth, video, user),
                              label + " user " + std::to_string(user));
          if (!all.empty())
            expect_same_samples(all[static_cast<std::size_t>(user)], fast,
                                label + " synthesize_all user " + std::to_string(user));
        }
      }
    }
  }
}

// ------------------------------------------------------------ NetworkTrace

TEST(NetworkTraceTest, ValidatesInput) {
  EXPECT_THROW(NetworkTrace({}), std::invalid_argument);
  EXPECT_THROW(NetworkTrace({{0.0, 1.0}, {0.0, 2.0}}), std::invalid_argument);
  EXPECT_THROW(NetworkTrace({{0.0, 0.0}}), std::invalid_argument);
}

TEST(NetworkTraceTest, RejectsNonFiniteSamples) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  expect_throw_naming<std::invalid_argument>(
      [&] { NetworkTrace({{nan, 4.0}}); }, "network trace sample 0");
  expect_throw_naming<std::invalid_argument>(
      [&] { NetworkTrace({{0.0, 4.0}, {1.0, inf}}); }, "network trace sample 1");
  // An infinite last timestamp is still strictly increasing.
  expect_throw_naming<std::invalid_argument>(
      [&] { NetworkTrace({{0.0, 4.0}, {1.0, 4.0}, {inf, 4.0}}); },
      "network trace sample 2");
}

TEST(NetworkTraceTest, LoadRejectsNonFiniteCells) {
  const auto path = std::filesystem::temp_directory_path() / "ps360_net_nonfinite.csv";
  for (const char* row : {"nan,4", "inf,4", "2,inf", "2,nan", "2,-inf"}) {
    write_text_file(path, std::string("t,mbps\n0,4\n1,5\n") + row + "\n");
    expect_throw_naming<std::runtime_error>([&] { load_network_trace(path); },
                                            "network trace sample 2");
  }
  std::filesystem::remove(path);
}

TEST(NetworkTraceTest, ThroughputAtPiecewiseConstant) {
  const NetworkTrace trace({{0.0, 4.0}, {1.0, 8.0}, {2.0, 2.0}});
  EXPECT_DOUBLE_EQ(trace.throughput_at(0.5), 4.0);
  EXPECT_DOUBLE_EQ(trace.throughput_at(1.0), 8.0);
  EXPECT_DOUBLE_EQ(trace.throughput_at(1.999), 8.0);
}

TEST(NetworkTraceTest, BytesInIntegratesRate) {
  const NetworkTrace trace({{0.0, 4.0}, {1.0, 8.0}, {2.0, 2.0}});
  EXPECT_NEAR(trace.bytes_in(0.0, 0.5), 4e6 / 8.0 * 0.5, 1.0);
  // Across the boundary: 1 s at 4 + 0.5 s at 8 Mbps.
  EXPECT_NEAR(trace.bytes_in(0.0, 1.5), 4e6 / 8.0 + 8e6 / 8.0 * 0.5, 1.0);
}

TEST(NetworkTraceTest, ScaledMultipliesRates) {
  const NetworkTrace trace({{0.0, 4.0}, {1.0, 8.0}});
  const NetworkTrace doubled = trace.scaled(2.0);
  EXPECT_DOUBLE_EQ(doubled.throughput_at(0.5), 8.0);
  EXPECT_DOUBLE_EQ(doubled.throughput_at(1.5), 16.0);
}

TEST(NetworkTraceTest, SynthesizedTraceMatchesPaperStatistics) {
  // Trace 2: average 3.9 Mbps, varying between 2.3 and 8.4 Mbps.
  const auto [trace1, trace2] = make_paper_traces(7, util::Seconds(600.0));
  const auto rates = trace2.rates_mbps();
  EXPECT_NEAR(util::mean(rates), 3.9, 0.5);
  EXPECT_GE(*std::min_element(rates.begin(), rates.end()), 2.3 - 1e-9);
  EXPECT_LE(*std::max_element(rates.begin(), rates.end()), 8.4 + 1e-9);
  // Genuine variability, not a constant.
  EXPECT_GT(util::stddev(rates), 0.4);
  // Trace 1 is exactly 2x trace 2.
  const auto rates1 = trace1.rates_mbps();
  for (std::size_t i = 0; i < rates.size(); ++i) {
    EXPECT_DOUBLE_EQ(rates1[i], rates[i] * 2.0);
  }
}

TEST(NetworkTraceTest, SynthesizerIsDeterministic) {
  const NetworkSynthConfig config;
  const auto a = synthesize_network_trace(99, config);
  const auto b = synthesize_network_trace(99, config);
  ASSERT_EQ(a.samples().size(), b.samples().size());
  EXPECT_DOUBLE_EQ(a.samples()[100].mbps, b.samples()[100].mbps);
}

// A duration no sample count can come from (+inf, NaN, one whose count
// overflows std::size_t, zero) is rejected by name before any allocation,
// never cast to a count.
TEST(NetworkTraceTest, SynthesisRejectsNonFiniteDuration) {
  for (const double duration : {std::numeric_limits<double>::infinity(),
                                std::numeric_limits<double>::quiet_NaN(), 1e300, 0.0}) {
    NetworkSynthConfig config;
    config.duration_s = duration;
    expect_throw_naming<std::invalid_argument>(
        [&] { synthesize_network_trace(7, config); }, "duration_s must be finite");
  }
}

// A non-finite or zero rate is rejected naming sample_rate_hz, before the
// sample count could report it as a bad duration_s.
TEST(HeadTraceTest, SynthesizerRejectsNonFiniteSampleRate) {
  for (const double rate : {std::numeric_limits<double>::infinity(),
                            std::numeric_limits<double>::quiet_NaN(), 0.0}) {
    HeadSynthConfig config;
    config.sample_rate_hz = rate;
    expect_throw_naming<std::invalid_argument>([&] { HeadTraceSynthesizer(42, config); },
                                               "sample_rate_hz must be finite");
  }
  // A finite rate whose sample count overflows with a sound duration is
  // blamed on the product, naming the rate.
  HeadSynthConfig config;
  config.sample_rate_hz = 1e300;
  const HeadTraceSynthesizer synth(42, config);
  expect_throw_naming<std::invalid_argument>(
      [&] { synth.synthesize(test_videos()[1], 0); }, "duration_s * sample_rate_hz");
}

TEST(NetworkTraceTest, CsvRoundTrip) {
  const NetworkTrace trace({{0.0, 4.0}, {1.0, 8.0}});
  const auto path = std::filesystem::temp_directory_path() / "ps360_net.csv";
  save_network_trace(path, trace);
  const NetworkTrace loaded = load_network_trace(path);
  ASSERT_EQ(loaded.samples().size(), 2u);
  EXPECT_DOUBLE_EQ(loaded.samples()[1].mbps, 8.0);
  std::filesystem::remove(path);
}

TEST(NetworkTraceTest, BytesInConservesAcrossWrap) {
  // Regression: the old wrap guard credited a fabricated 1e-6 s chunk at the
  // pre-wrap sample's rate, so integrals straddling the trace end
  // overcounted. Additivity must hold exactly through the boundary.
  const NetworkTrace trace({{0.0, 4.0}, {1.0, 8.0}, {2.0, 2.0}});
  ASSERT_DOUBLE_EQ(trace.end_time(), 3.0);
  ASSERT_DOUBLE_EQ(trace.period_s(), 3.0);
  ASSERT_DOUBLE_EQ(trace.bytes_per_period(), 1.75e6);
  const double split[] = {2.5, 2.999999, 3.0, 3.000001, 3.5};
  for (const double t1 : split) {
    EXPECT_NEAR(trace.bytes_in(2.0, t1) + trace.bytes_in(t1, 4.0),
                trace.bytes_in(2.0, 4.0), 1e-3)
        << "split at " << t1;
  }
  // Any window of exactly one period delivers bytes_per_period, any phase.
  for (const double t0 : {0.0, 0.7, 2.9, 3.0, 10.4}) {
    EXPECT_NEAR(trace.bytes_in(t0, t0 + 3.0), 1.75e6, 1e-3) << "t0 " << t0;
  }
  // The wrapped second period is identical to the first.
  EXPECT_NEAR(trace.bytes_in(3.0, 4.5), trace.bytes_in(0.0, 1.5), 1e-3);
}

TEST(NetworkTraceTest, LoadRejectsMalformedCsv) {
  namespace fs = std::filesystem;
  const auto dir = fs::temp_directory_path();

  const auto write_file = [](const fs::path& p, const std::string& text) {
    std::ofstream out(p);
    out << text;
  };

  // Ragged row: line 3 has one column, or a trailing comma gives it three.
  // The error names file and line.
  const auto ragged = dir / "ps360_net_ragged.csv";
  for (const char* text : {"t,mbps\n0,4\n1\n", "t,mbps\n0,4\n1,6,\n"}) {
    write_file(ragged, text);
    try {
      load_network_trace(ragged);
      ADD_FAILURE() << "ragged CSV must throw: " << text;
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("ps360_net_ragged.csv"), std::string::npos) << what;
      EXPECT_NE(what.find("line 3"), std::string::npos) << what;
    }
  }
  fs::remove(ragged);

  // Missing column.
  const auto missing = dir / "ps360_net_missing.csv";
  write_file(missing, "t,rate\n0,4\n1,8\n");
  try {
    load_network_trace(missing);
    FAIL() << "missing-column CSV must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("ps360_net_missing.csv"),
              std::string::npos);
  }
  fs::remove(missing);

  // Empty file / header-only file: no data rows.
  const auto empty = dir / "ps360_net_empty.csv";
  write_file(empty, "");
  EXPECT_THROW(load_network_trace(empty), std::runtime_error);
  write_file(empty, "t,mbps\n");
  EXPECT_THROW(load_network_trace(empty), std::runtime_error);
  fs::remove(empty);

  // Nonexistent file still reports cleanly.
  EXPECT_THROW(load_network_trace(dir / "ps360_net_nonexistent.csv"),
               std::runtime_error);
}

TEST(HeadSynthTest, AttractorPopularityIsSkewed) {
  // The first attractor carries the crowd (why one Ptile usually suffices).
  const HeadTraceSynthesizer synth(42);
  const auto paths = synth.attractors(test_videos()[7]);  // 3 attractors
  ASSERT_EQ(paths.size(), 3u);
  EXPECT_GT(paths[0].weight(), paths[1].weight());
  EXPECT_GT(paths[1].weight(), paths[2].weight());
}

TEST(HeadSynthTest, FocusedUsersRarelyLeaveTheMainAttractor) {
  const HeadTraceSynthesizer synth(42);
  const auto& video = test_videos()[2];  // Festival Gala, focused
  const auto paths = synth.attractors(video);
  const auto trace = synth.synthesize(video, 5);
  std::size_t near = 0, total = 0;
  for (double t = 5.0; t < 120.0; t += 1.0) {
    const double d =
        geometry::wrapped_distance(trace.center_at(t), paths[0].at(t));
    ++total;
    if (d < 40.0) ++near;
  }
  EXPECT_GT(static_cast<double>(near) / static_cast<double>(total), 0.8);
}

// ----------------------------------------------------------------- Dataset

TEST(DatasetTest, FilenamesAreStable) {
  EXPECT_EQ(dataset_trace_filename(3, 17), "video3_user17.csv");
}

TEST(DatasetTest, ExportLoadRoundTrip) {
  const auto root = std::filesystem::temp_directory_path() / "ps360_dataset_test";
  std::filesystem::remove_all(root);

  // Export a few synthetic users of a shortened video.
  VideoInfo video = test_videos()[5];
  video.duration_s = 10.0;
  const HeadTraceSynthesizer synth(42);
  const auto traces = synth.synthesize_all(video, 3);
  export_video_traces(root, traces);

  EXPECT_EQ(count_video_users(root, video.id), 3u);
  const auto loaded = load_video_traces(root, video.id);
  ASSERT_EQ(loaded.size(), 3u);
  for (std::size_t u = 0; u < 3; ++u) {
    ASSERT_EQ(loaded[u].samples().size(), traces[u].samples().size());
    EXPECT_EQ(loaded[u].user_id(), static_cast<int>(u));
    const auto& a = loaded[u].samples()[100];
    const auto& b = traces[u].samples()[100];
    EXPECT_NEAR(a.center.x, b.center.x, 1e-9);
    EXPECT_NEAR(a.t, b.t, 1e-12);
  }
  std::filesystem::remove_all(root);
}

TEST(DatasetTest, MissingVideoThrows) {
  const auto root = std::filesystem::temp_directory_path() / "ps360_dataset_empty";
  std::filesystem::create_directories(root);
  EXPECT_EQ(count_video_users(root, 1), 0u);
  EXPECT_THROW(load_video_traces(root, 1), std::invalid_argument);
  std::filesystem::remove_all(root);
}

}  // namespace
}  // namespace ps360::trace
