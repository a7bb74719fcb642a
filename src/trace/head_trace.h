// Head-movement traces: the (timestamp, viewing-center) series recorded by a
// headset at a fixed sampling rate (50 Hz in the dataset the paper uses).
//
// A HeadTrace is what every downstream consumer sees — the Ptile clusterer,
// the ridge-regression viewport predictor, the switching-speed model (Eq. 5)
// and the streaming simulator. Traces can come from the built-in synthesizer
// (trace/head_synth.h) or be loaded from CSV in the dataset's (t, x, y)
// form, so the real dataset can be swapped in.
#pragma once

#include <filesystem>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "geometry/viewport.h"
#include "util/units.h"

namespace ps360::trace {

struct HeadSample {
  double t = 0.0;  // seconds from video start
  geometry::EquirectPoint center;
};

class HeadTrace {
 public:
  // Samples must be non-empty, finite, strictly increasing in time, with
  // colatitudes in [0, 180].
  HeadTrace(int video_id, int user_id, std::vector<HeadSample> samples);

  int video_id() const { return video_id_; }
  int user_id() const { return user_id_; }
  const std::vector<HeadSample>& samples() const { return samples_; }
  double duration() const { return samples_.back().t; }

  // The samples with t in the closed window [t0, t1] (t0 <= t1), in time
  // order; binary-searched, so the cost is the window's, not the trace's.
  std::span<const HeadSample> samples_in(double t0, double t1) const;

  // Viewing center at time t (clamped to the trace's time range), linearly
  // interpolated with longitude-wraparound awareness.
  geometry::EquirectPoint center_at(double t) const;

  // The user's viewport at time t with the given FoV.
  geometry::Viewport viewport_at(double t,
                                 util::Degrees fov = util::Degrees(100.0)) const;

  // Mean viewing center over [t0, t1] (wrap-aware circular mean on x).
  geometry::EquirectPoint mean_center(double t0, double t1) const;

  // Eq. 5 view-switching speed (degrees/second) averaged over [t0, t1]:
  // total great-circle path length between consecutive samples divided by
  // the elapsed time. The distance between each pair of consecutive samples
  // is computed once per trace, at the first call, under a std::call_once,
  // so any number of threads may make that first call at once; each call
  // then computes only its two interpolated endpoints' distances.
  double switching_speed(double t0, double t1) const;

  // Instantaneous switching speeds for every consecutive sample pair; used
  // to build the Fig. 5 distribution.
  std::vector<double> switching_speed_series() const;

 private:
  // Great-circle degrees from sample i - 1 to sample i at [i] ([0] is 0),
  // built on first use: only replayed traces are ever walked, so no
  // constructor pays for it.
  const std::vector<double>& pair_degrees() const;

  struct PairDegrees {
    // Lets exactly one of the threads racing to a trace's first Eq. 5 call
    // build `deg`; the others wait, then all read the same values. Each is a
    // pure function of two samples, so no result depends on who built it.
    std::once_flag built;
    std::vector<double> deg;
  };

  int video_id_;
  int user_id_;
  std::vector<HeadSample> samples_;
  // Behind a pointer so the trace stays movable (a once_flag is not).
  std::unique_ptr<PairDegrees> pairs_ = std::make_unique<PairDegrees>();
};

// CSV persistence. Columns: t,x,y (header included on write).
void save_head_trace(const std::filesystem::path& path, const HeadTrace& trace);
HeadTrace load_head_trace(const std::filesystem::path& path, int video_id, int user_id);

}  // namespace ps360::trace
