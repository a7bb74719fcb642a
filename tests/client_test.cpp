// Tests for sim::StreamingClient — the paper's per-segment loop driven
// manually, with hand-chosen download times instead of a network trace.
#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>

#include "sim/client.h"
#include "sim/session.h"

namespace ps360::sim {
namespace {

struct ClientFixture {
  ClientFixture() {
    static const trace::VideoInfo video = [] {
      trace::VideoInfo v = trace::test_videos()[1];  // focused video
      v.duration_s = 20.0;
      return v;
    }();
    static const VideoWorkload shared_workload(video, WorkloadConfig{});
    workload = &shared_workload;
    session.ptile_min_coverage = 0.9;  // the coverage floor these tests were written for
    env.workload = workload;
    env.encoding = &encoding;
    env.qo_model = &qo_model;
    env.session = &session;
    scheme = make_scheme(SchemeKind::kOurs, env);
  }

  StreamingClient make_client() const {
    return StreamingClient(session, *workload, *scheme, workload->test_trace(0));
  }

  const VideoWorkload* workload;
  video::EncodingModel encoding{42};
  qoe::QoModel qo_model{qoe::QoParams{}, 4.0};
  SessionConfig session;
  SchemeEnv env;
  std::unique_ptr<Scheme> scheme;
};

// Plans the next segment as the fleet engine does: the Eq. 6 wait, then
// the solve.
ClientRequest plan(StreamingClient& client) {
  client.begin_plan();
  return client.finish_plan();
}

TEST(StreamingClientTest, WalksEverySegmentExactlyOnce) {
  const ClientFixture fixture;
  auto client = fixture.make_client();
  std::size_t planned = 0;
  while (!client.finished()) {
    EXPECT_EQ(plan(client).segment, planned);
    client.complete_download(util::Seconds(0.4));
    ++planned;
  }
  EXPECT_EQ(planned, fixture.workload->segment_count());
  EXPECT_THROW(plan(client), std::invalid_argument);
}

TEST(StreamingClientTest, BufferFollowsEq6) {
  const ClientFixture fixture;
  auto client = fixture.make_client();
  const double L = 1.0;
  const double beta = 3.0;

  // Fast downloads fill the buffer to the threshold, then the Δt wait kicks
  // in and holds it there.
  double expected_buffer = 0.0;
  for (int k = 0; k < 8; ++k) {
    const ClientRequest request = plan(client);
    // Eq. 6 wait: the client never requests with more than β buffered.
    EXPECT_LE(request.buffer_at_request_s, beta + 1e-12);
    const double expected_wait = std::max(expected_buffer - beta, 0.0);
    EXPECT_NEAR(request.wait_s, expected_wait, 1e-12);
    const double download_s = 0.25;
    const double stall = client.complete_download(util::Seconds(download_s));
    EXPECT_DOUBLE_EQ(stall, 0.0);
    expected_buffer =
        std::max(expected_buffer - expected_wait - download_s, 0.0) + L;
    EXPECT_NEAR(client.buffer_s(), expected_buffer, 1e-12);
  }
  EXPECT_NEAR(client.buffer_s(), beta + L - 0.25, 1e-9);
}

TEST(StreamingClientTest, StallAccountedWhenDownloadOutlastsBuffer) {
  const ClientFixture fixture;
  auto client = fixture.make_client();
  plan(client);
  EXPECT_DOUBLE_EQ(client.complete_download(util::Seconds(5.0)), 0.0);  // startup excluded
  plan(client);
  // Buffer is 1 s (one segment); a 2.5 s download stalls 1.5 s.
  const double stall = client.complete_download(util::Seconds(2.5));
  EXPECT_NEAR(stall, 1.5, 1e-12);
  EXPECT_NEAR(client.buffer_s(), 1.0, 1e-12);  // drained, then refilled by L
}

TEST(StreamingClientTest, WallClockAdvancesByWaitAndDownload) {
  const ClientFixture fixture;
  auto client = fixture.make_client();
  double expected_wall = 0.0;
  for (int k = 0; k < 6; ++k) {
    expected_wall += plan(client).wait_s;
    client.complete_download(util::Seconds(0.5));
    expected_wall += 0.5;
    EXPECT_NEAR(client.wall_time_s(), expected_wall, 1e-12);
  }
}

TEST(StreamingClientTest, PlayheadLagsDownloadsByBuffer) {
  const ClientFixture fixture;
  auto client = fixture.make_client();
  for (int k = 0; k < 5; ++k) {
    plan(client);
    client.complete_download(util::Seconds(0.5));
  }
  EXPECT_NEAR(client.playhead_s(),
              static_cast<double>(client.next_segment()) - client.buffer_s(), 1e-12);
}

TEST(StreamingClientTest, ProtocolMisuseThrows) {
  const ClientFixture fixture;
  auto client = fixture.make_client();
  EXPECT_THROW(client.complete_download(util::Seconds(0.5)), std::invalid_argument);
  plan(client);
  EXPECT_THROW(plan(client), std::invalid_argument);
  EXPECT_THROW(client.complete_download(util::Seconds(0.0)), std::invalid_argument);
  EXPECT_NO_THROW(client.complete_download(util::Seconds(0.5)));
}

// Misuse must fail loudly *and* leave the client's buffer/wall state exactly
// where it was, so a caller that catches the exception can recover.
TEST(StreamingClientTest, MisuseDoesNotCorruptState) {
  const ClientFixture fixture;
  auto client = fixture.make_client();
  plan(client);
  const double buffer_before = client.buffer_s();
  const double wall_before = client.wall_time_s();
  const std::size_t segment_before = client.next_segment();

  // Planning twice without completing, and completing with a negative or
  // zero download time, are protocol violations.
  EXPECT_THROW(plan(client), std::invalid_argument);
  EXPECT_THROW(client.complete_download(util::Seconds(-1.0)), std::invalid_argument);
  EXPECT_THROW(client.complete_download(util::Seconds(0.0)), std::invalid_argument);

  EXPECT_DOUBLE_EQ(client.buffer_s(), buffer_before);
  EXPECT_DOUBLE_EQ(client.wall_time_s(), wall_before);
  EXPECT_EQ(client.next_segment(), segment_before);

  // The in-flight download is still completable and the loop proceeds.
  EXPECT_NO_THROW(client.complete_download(util::Seconds(0.5)));
  EXPECT_EQ(client.next_segment(), segment_before + 1);
  plan(client);
  EXPECT_NO_THROW(client.complete_download(util::Seconds(0.5)));
}

TEST(StreamingClientTest, RejectsNonFiniteDownloadTime) {
  const ClientFixture fixture;
  auto client = fixture.make_client();
  plan(client);
  // NaN fails the download_s > 0 precondition, same as zero and negative.
  EXPECT_THROW(client.complete_download(util::Seconds(std::numeric_limits<double>::quiet_NaN())),
               std::invalid_argument);
  EXPECT_NO_THROW(client.complete_download(util::Seconds(0.5)));
}

// The client validates its SessionConfig itself, so a client built without
// an accountant rejects a bad recovery policy too, naming the field.
TEST(StreamingClientTest, RejectsAnInvalidConfigWithoutAnAccountant) {
  const ClientFixture fixture;
  SessionConfig config = fixture.session;
  config.recovery.timeout_s = std::numeric_limits<double>::quiet_NaN();
  try {
    const StreamingClient client(config, *fixture.workload, *fixture.scheme,
                                 fixture.workload->test_trace(0));
    ADD_FAILURE() << "accepted recovery.timeout_s = NaN";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("recovery.timeout_s"), std::string::npos)
        << e.what();
  }
}

// After the last segment, the protocol is over: planning past it and
// completing a download are both violations, and the first rejection leaves
// the client where it was.
TEST(StreamingClientTest, PostFinishContract) {
  const ClientFixture fixture;
  auto client = fixture.make_client();
  while (!client.finished()) {
    plan(client);
    client.complete_download(util::Seconds(0.4));
  }
  const double wall_before = client.wall_time_s();
  const double buffer_before = client.buffer_s();
  EXPECT_THROW(plan(client), std::invalid_argument);
  EXPECT_THROW(plan(client), std::invalid_argument);  // still rejected
  EXPECT_THROW(client.complete_download(util::Seconds(0.5)), std::invalid_argument);
  EXPECT_DOUBLE_EQ(client.wall_time_s(), wall_before);
  EXPECT_DOUBLE_EQ(client.buffer_s(), buffer_before);
}

TEST(StreamingClientTest, SlowBandwidthEstimateLowersQuality) {
  const ClientFixture fixture;
  auto fast_client = fixture.make_client();
  auto slow_client = fixture.make_client();
  int fast_quality = 0, slow_quality = 0;
  for (int k = 0; k < 10; ++k) {
    const ClientRequest fast_request = plan(fast_client);
    const ClientRequest slow_request = plan(slow_client);
    if (k >= 6) {  // after the estimators converge
      fast_quality += fast_request.plan.option.quality;
      slow_quality += slow_request.plan.option.quality;
    }
    // Feed very different observed rates.
    fast_client.complete_download(util::Seconds(std::max(fast_request.plan.option.bytes / 2e6, 1e-3)));
    slow_client.complete_download(util::Seconds(std::max(slow_request.plan.option.bytes / 1e5, 1e-3)));
  }
  EXPECT_GT(fast_quality, slow_quality);
}

}  // namespace
}  // namespace ps360::sim
