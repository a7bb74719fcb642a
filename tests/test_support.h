// Helpers shared by the test binaries: an RAII PS360_THREADS override, so an
// arm that pins the thread budget cannot leak into other tests, and a
// bitwise comparison of session results.
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <string>

#include "sim/session.h"

namespace ps360::test {

// Sets PS360_THREADS to `value` (nullptr unsets it) for the object's
// lifetime, then restores what was there. PS360_THREADS=1 is the serial
// path; unset, the worker pool's budget is the hardware concurrency.
class ScopedThreadsEnv {
 public:
  explicit ScopedThreadsEnv(const char* value) {
    const char* old = std::getenv("PS360_THREADS");
    had_old_ = old != nullptr;
    if (had_old_) old_ = old;
    if (value != nullptr) {
      ::setenv("PS360_THREADS", value, 1);
    } else {
      ::unsetenv("PS360_THREADS");
    }
  }
  ~ScopedThreadsEnv() {
    if (had_old_) {
      ::setenv("PS360_THREADS", old_.c_str(), 1);
    } else {
      ::unsetenv("PS360_THREADS");
    }
  }
  ScopedThreadsEnv(const ScopedThreadsEnv&) = delete;
  ScopedThreadsEnv& operator=(const ScopedThreadsEnv&) = delete;

 private:
  bool had_old_ = false;
  std::string old_;
};

inline std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// The scheme, every SegmentRecord field and every aggregate of two session
// results, doubles compared bit for bit.
inline void expect_bit_identical(const sim::SessionResult& a, const sim::SessionResult& b) {
  EXPECT_EQ(a.scheme, b.scheme);
  ASSERT_EQ(a.segments.size(), b.segments.size());
  for (std::size_t k = 0; k < a.segments.size(); ++k) {
    SCOPED_TRACE("segment " + std::to_string(k));
    const sim::SegmentRecord& x = a.segments[k];
    const sim::SegmentRecord& y = b.segments[k];
    EXPECT_EQ(x.index, y.index);
    EXPECT_EQ(x.quality, y.quality);
    EXPECT_EQ(x.frame_index, y.frame_index);
    EXPECT_EQ(bits(x.fps), bits(y.fps));
    EXPECT_EQ(bits(x.bytes), bits(y.bytes));
    EXPECT_EQ(bits(x.download_s), bits(y.download_s));
    EXPECT_EQ(bits(x.stall_s), bits(y.stall_s));
    EXPECT_EQ(bits(x.buffer_before_s), bits(y.buffer_before_s));
    EXPECT_EQ(bits(x.coverage), bits(y.coverage));
    EXPECT_EQ(x.used_ptile, y.used_ptile);
    EXPECT_EQ(x.mpc_feasible, y.mpc_feasible);
    EXPECT_EQ(bits(x.qoe.qo), bits(y.qoe.qo));
    EXPECT_EQ(bits(x.qoe.variation), bits(y.qoe.variation));
    EXPECT_EQ(bits(x.qoe.rebuffer), bits(y.qoe.rebuffer));
    EXPECT_EQ(bits(x.qoe.q), bits(y.qoe.q));
    EXPECT_EQ(bits(x.energy.transmit_mj), bits(y.energy.transmit_mj));
    EXPECT_EQ(bits(x.energy.decode_mj), bits(y.energy.decode_mj));
    EXPECT_EQ(bits(x.energy.render_mj), bits(y.energy.render_mj));
  }
  EXPECT_EQ(bits(a.qoe.mean_qo), bits(b.qoe.mean_qo));
  EXPECT_EQ(bits(a.qoe.mean_variation), bits(b.qoe.mean_variation));
  EXPECT_EQ(bits(a.qoe.mean_rebuffer), bits(b.qoe.mean_rebuffer));
  EXPECT_EQ(bits(a.qoe.mean_q), bits(b.qoe.mean_q));
  EXPECT_EQ(a.qoe.segments, b.qoe.segments);
  EXPECT_EQ(bits(a.energy.transmit_mj), bits(b.energy.transmit_mj));
  EXPECT_EQ(bits(a.energy.decode_mj), bits(b.energy.decode_mj));
  EXPECT_EQ(bits(a.energy.render_mj), bits(b.energy.render_mj));
  EXPECT_EQ(bits(a.total_stall_s), bits(b.total_stall_s));
  EXPECT_EQ(a.rebuffer_events, b.rebuffer_events);
  EXPECT_EQ(bits(a.mean_quality), bits(b.mean_quality));
  EXPECT_EQ(bits(a.mean_fps), bits(b.mean_fps));
  EXPECT_EQ(bits(a.mean_coverage), bits(b.mean_coverage));
  EXPECT_EQ(bits(a.ptile_usage), bits(b.ptile_usage));
  EXPECT_EQ(bits(a.total_bytes), bits(b.total_bytes));
}

}  // namespace ps360::test
