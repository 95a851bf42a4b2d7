// Tests for the Paraver-style tracer (a world's obs::TraceSink) and the IMB
// benchmark suite.

#include <gtest/gtest.h>

#include "tibsim/arch/registry.hpp"
#include "tibsim/common/units.hpp"
#include "tibsim/mpi/imb.hpp"
#include "tibsim/obs/exporters.hpp"

namespace tibsim::mpi {
namespace {

using namespace units;
using obs::SpanKind;
using obs::TraceSpan;

WorldConfig twoNodeConfig() {
  WorldConfig cfg;
  cfg.platform = arch::PlatformRegistry::tegra2();
  cfg.frequencyHz = ghz(1.0);
  cfg.protocol = net::Protocol::TcpIp;
  cfg.ranksPerNode = 1;
  return cfg;
}

// ---- Tracer -----------------------------------------------------------------

TEST(Tracer, RecordsNothingWhenDisabled) {
  MpiWorld world(twoNodeConfig(), 2);
  world.run([](MpiContext& ctx) { ctx.computeSeconds(0.01); });
  EXPECT_EQ(world.tracer().spansRecorded(), 0u);
}

TEST(Tracer, ComputeSpansCoverComputeTime) {
  MpiWorld world(twoNodeConfig(), 2);
  world.enableTracing();
  const auto stats = world.run([](MpiContext& ctx) {
    ctx.computeSeconds(0.02);
    ctx.computeSeconds(0.03);
  });
  const auto summaries = world.tracer().summarize(2, stats.wallClockSeconds);
  for (const auto& s : summaries) {
    EXPECT_NEAR(s.computeSeconds, 0.05, 1e-9);
    EXPECT_DOUBLE_EQ(s.sendSeconds, 0.0);
  }
}

TEST(Tracer, MessageProducesSendRecvAndWaitSpans) {
  MpiWorld world(twoNodeConfig(), 2);
  world.enableTracing();
  const auto stats = world.run([](MpiContext& ctx) {
    if (ctx.rank() == 0) {
      ctx.send(1, 1, 1024);
    } else {
      ctx.recv(0, 1);
    }
  });
  const auto summaries = world.tracer().summarize(2, stats.wallClockSeconds);
  EXPECT_GT(summaries[0].sendSeconds, 0.0);
  EXPECT_GT(summaries[1].recvSeconds, 0.0);
  EXPECT_GT(summaries[1].waitSeconds, 0.0);  // receiver entered recv first
  // Span kinds carry peer and byte information.
  bool foundSend = false;
  for (const auto& span : world.tracer().retainedSpans()) {
    if (span.kind == SpanKind::Send) {
      foundSend = true;
      EXPECT_EQ(span.rank, 0);
      EXPECT_EQ(span.peer, 1);
      EXPECT_EQ(span.bytes, 1024u);
    }
  }
  EXPECT_TRUE(foundSend);
}

TEST(Tracer, NonComputeFractionReflectsCommHeaviness) {
  auto fraction = [](double computeSeconds) {
    MpiWorld world(twoNodeConfig(), 2);
    world.enableTracing();
    const auto stats = world.run([computeSeconds](MpiContext& ctx) {
      for (int i = 0; i < 4; ++i) {
        ctx.computeSeconds(computeSeconds);
        ctx.sendrecv(1 - ctx.rank(), 1, 4096);
      }
    });
    return world.tracer().nonComputeFraction(2, stats.wallClockSeconds);
  };
  EXPECT_GT(fraction(1e-4), fraction(1e-1));  // less compute => more comm
  EXPECT_LT(fraction(1e-1), 0.10);
}

TEST(Tracer, CsvExportHasHeaderAndRows) {
  obs::TraceSink tracer;
  tracer.record(TraceSpan{0, SpanKind::Compute, 0.0, 1.0, -1, 0});
  tracer.record(TraceSpan{1, SpanKind::Send, 1.0, 1.5, 0, 64});
  const std::string csv = obs::exportCsv(tracer.retainedSpans());
  EXPECT_NE(csv.find("rank,kind,begin,end,peer,bytes"), std::string::npos);
  EXPECT_NE(csv.find("1,send,1,1.5,0,64"), std::string::npos);
}

TEST(Tracer, SummariesAccountForWholeTimeline) {
  MpiWorld world(twoNodeConfig(), 2);
  world.enableTracing();
  const auto stats = world.run([](MpiContext& ctx) {
    ctx.computeSeconds(0.01);
    ctx.barrier();
  });
  for (const auto& s : world.tracer().summarize(2, stats.wallClockSeconds)) {
    const double covered = s.computeSeconds + s.sendSeconds +
                           s.recvSeconds + s.waitSeconds + s.otherSeconds;
    EXPECT_NEAR(covered, stats.wallClockSeconds, 1e-9);
  }
}

// ---- IMB suite ----------------------------------------------------------------

TEST(Imb, MessageSizeLadder) {
  const auto sizes = imb::messageSizes(4096);
  EXPECT_EQ(sizes.front(), 0u);
  EXPECT_EQ(sizes.back(), 4096u);
  for (std::size_t i = 2; i < sizes.size(); ++i)
    EXPECT_EQ(sizes[i], 2 * sizes[i - 1]);
}

TEST(Imb, PingPongMatchesProtocolModel) {
  const auto cfg = twoNodeConfig();
  const auto results = imb::pingPong(cfg, {1}, 8);
  const net::ProtocolModel model(cfg.protocol, cfg.platform,
                                 cfg.frequencyHz);
  EXPECT_NEAR(results[0].seconds, model.pingPongLatency(1),
              0.15 * model.pingPongLatency(1));
}

TEST(Imb, PingPingNoSlowerThanTwicePingPong) {
  const auto cfg = twoNodeConfig();
  const auto pong = imb::pingPong(cfg, {1024}, 4);
  const auto ping = imb::pingPing(cfg, {1024}, 4);
  EXPECT_GE(ping[0].seconds, pong[0].seconds * 0.9);
  EXPECT_LE(ping[0].seconds, pong[0].seconds * 2.5);
}

TEST(Imb, ExchangeTimeGrowsWithMessageSize) {
  const auto cfg = twoNodeConfig();
  const auto results = imb::exchange(cfg, 8, {64, 65536}, 2);
  EXPECT_GT(results[1].seconds, results[0].seconds);
}

TEST(Imb, AllreduceGrowsWithRanks) {
  const auto cfg = twoNodeConfig();
  const auto small = imb::allreduce(cfg, 4, {8}, 2);
  const auto large = imb::allreduce(cfg, 32, {8}, 2);
  EXPECT_GT(large[0].seconds, small[0].seconds);
}

TEST(Imb, BarrierScalesLogarithmically) {
  const auto cfg = twoNodeConfig();
  const double b2 = imb::barrier(cfg, 2).seconds;
  const double b32 = imb::barrier(cfg, 32).seconds;
  const double b128 = imb::barrier(cfg, 128).seconds;
  EXPECT_GT(b32, b2);
  EXPECT_GT(b128, b32);
  // Dissemination barrier: cost ~ ceil(log2 n) rounds, far from linear.
  EXPECT_LT(b128, b2 * 10.0);
}

TEST(Imb, BcastFasterThanAllreduceForSamePayload) {
  const auto cfg = twoNodeConfig();
  const auto bc = imb::bcast(cfg, 16, {1024}, 2);
  const auto ar = imb::allreduce(cfg, 16, {1024}, 2);
  EXPECT_LT(bc[0].seconds, ar[0].seconds);
}

}  // namespace
}  // namespace tibsim::mpi
