// The observability layer: bounded-memory trace sinks (full / sampled /
// aggregate), their exactness and determinism guarantees, the exporters,
// fiber stack telemetry, and the stats hooks threaded through the IMB
// helpers and cluster jobs.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "host_threads.hpp"
#include "tibsim/arch/registry.hpp"
#include "tibsim/cluster/cluster.hpp"
#include "tibsim/common/assert.hpp"
#include "tibsim/common/json.hpp"
#include "tibsim/common/units.hpp"
#include "tibsim/mpi/imb.hpp"
#include "tibsim/mpi/simmpi.hpp"
#include "tibsim/obs/exporters.hpp"
#include "tibsim/obs/stall_report.hpp"
#include "tibsim/obs/trace_sink.hpp"
#include "tibsim/sim/simulation.hpp"

namespace {

using namespace tibsim;
using namespace tibsim::units;
using obs::SpanKind;
using obs::TraceMode;
using obs::TraceSpan;
using testhost::Host;
using testhost::onHost;

// ---------------------------------------------------------------------------
// Trace mode plumbing
// ---------------------------------------------------------------------------

TEST(TraceMode, ParseAndToStringRoundTrip) {
  for (TraceMode mode :
       {TraceMode::Full, TraceMode::Sampled, TraceMode::Aggregate}) {
    EXPECT_EQ(obs::parseTraceMode(obs::toString(mode)), mode);
  }
  EXPECT_THROW(obs::parseTraceMode("firehose"), ContractError);
  EXPECT_THROW(obs::parseTraceMode(""), ContractError);
}

TEST(TraceMode, ScopedOverrideRestoresPrevious) {
  const TraceMode before = obs::defaultTraceMode();
  {
    obs::ScopedTraceMode scoped(TraceMode::Aggregate);
    EXPECT_EQ(obs::defaultTraceMode(), TraceMode::Aggregate);
    // WorldConfig snapshots the default at construction.
    mpi::WorldConfig cfg;
    EXPECT_EQ(cfg.traceMode, TraceMode::Aggregate);
  }
  EXPECT_EQ(obs::defaultTraceMode(), before);
}

// ---------------------------------------------------------------------------
// DurationHistogram
// ---------------------------------------------------------------------------

TEST(DurationHistogram, BucketsArePowerOfTwoNanoseconds) {
  using H = obs::DurationHistogram;
  EXPECT_EQ(H::bucketFor(0.0), 0);
  EXPECT_EQ(H::bucketFor(-1.0), 0);
  EXPECT_EQ(H::bucketFor(1e-9), 0);   // 1 ns
  EXPECT_EQ(H::bucketFor(3e-9), 1);   // [2, 4) ns
  EXPECT_EQ(H::bucketFor(4e-9), 2);   // [4, 8) ns
  EXPECT_EQ(H::bucketFor(1.0), 29);   // 1 s ~ 2^29.9 ns
  EXPECT_EQ(H::bucketFor(1e6), H::kBuckets - 1);  // tail absorbs
  EXPECT_DOUBLE_EQ(H::bucketLowerSeconds(0), 1e-9);
  EXPECT_DOUBLE_EQ(H::bucketLowerSeconds(10), 1024e-9);
}

TEST(DurationHistogram, RecordCountsAndTotals) {
  obs::DurationHistogram h;
  h.record(1e-9);
  h.record(3e-9);
  h.record(3.5e-9);
  EXPECT_EQ(h.counts[0], 1u);
  EXPECT_EQ(h.counts[1], 2u);
  EXPECT_EQ(h.total(), 3u);
}

// ---------------------------------------------------------------------------
// Sinks: exact totals in every mode, bounded retention
// ---------------------------------------------------------------------------

std::vector<TraceSpan> syntheticSpans(int ranks, int perRank) {
  std::vector<TraceSpan> spans;
  double t = 0.0;
  for (int i = 0; i < perRank; ++i) {
    for (int r = 0; r < ranks; ++r) {
      const auto kind = static_cast<SpanKind>((i + r) % obs::kSpanKinds);
      spans.push_back(TraceSpan{r, kind, t, t + 1e-4 * (r + 1), -1, 0});
    }
    t += 1e-3;
  }
  return spans;
}

TEST(TraceSink, SummariesAreExactInEveryMode) {
  const auto spans = syntheticSpans(4, 100);
  const auto full = obs::TraceSink::create({TraceMode::Full, 512, 0});
  const auto sampled = obs::TraceSink::create({TraceMode::Sampled, 8, 42});
  const auto aggregate = obs::TraceSink::create({TraceMode::Aggregate, 0, 0});
  for (const auto& span : spans) {
    full->record(span);
    sampled->record(span);
    aggregate->record(span);
  }
  const double wall = 0.2;
  const auto expected = full->summarize(4, wall);
  for (const obs::TraceSink* sink : {sampled.get(), aggregate.get()}) {
    EXPECT_EQ(sink->spansRecorded(), spans.size());
    const auto got = sink->summarize(4, wall);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t r = 0; r < got.size(); ++r) {
      EXPECT_DOUBLE_EQ(got[r].computeSeconds, expected[r].computeSeconds);
      EXPECT_DOUBLE_EQ(got[r].sendSeconds, expected[r].sendSeconds);
      EXPECT_DOUBLE_EQ(got[r].recvSeconds, expected[r].recvSeconds);
      EXPECT_DOUBLE_EQ(got[r].waitSeconds, expected[r].waitSeconds);
      EXPECT_DOUBLE_EQ(got[r].otherSeconds, expected[r].otherSeconds);
    }
    EXPECT_DOUBLE_EQ(sink->nonComputeFraction(4, wall),
                     full->nonComputeFraction(4, wall));
  }
}

TEST(TraceSink, SampledReservoirIsDeterministicAndBounded) {
  const auto spans = syntheticSpans(4, 200);
  const obs::SinkConfig cfg{TraceMode::Sampled, 8, 1234};
  const auto a = obs::TraceSink::create(cfg);
  const auto b = obs::TraceSink::create(cfg);
  const auto other = obs::TraceSink::create({TraceMode::Sampled, 8, 99});
  for (const auto& span : spans) {
    a->record(span);
    b->record(span);
    other->record(span);
  }
  EXPECT_EQ(a->spansRetained(), 4u * 8u);
  EXPECT_LT(a->spansRetained(), a->spansRecorded());
  const auto ra = a->retainedSpans();
  const auto rb = b->retainedSpans();
  ASSERT_EQ(ra.size(), rb.size());
  for (std::size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i].rank, rb[i].rank);
    EXPECT_EQ(ra[i].kind, rb[i].kind);
    EXPECT_DOUBLE_EQ(ra[i].begin, rb[i].begin);
    EXPECT_DOUBLE_EQ(ra[i].end, rb[i].end);
  }
  // A different seed keeps a different sample of the same stream.
  const auto ro = other->retainedSpans();
  bool differs = false;
  for (std::size_t i = 0; i < ra.size() && !differs; ++i)
    differs = ra[i].begin != ro[i].begin || ra[i].kind != ro[i].kind;
  EXPECT_TRUE(differs);
}

TEST(TraceSink, AggregateRetainsNoSpansButCountsEverything) {
  const auto spans = syntheticSpans(3, 50);
  const auto sink = obs::TraceSink::create({TraceMode::Aggregate, 0, 0});
  for (const auto& span : spans) sink->record(span);
  EXPECT_EQ(sink->spansRetained(), 0u);
  EXPECT_TRUE(sink->retainedSpans().empty());
  EXPECT_EQ(sink->spansRecorded(), spans.size());
  std::uint64_t histogramTotal = 0;
  for (int r = 0; r < 3; ++r) {
    for (int k = 0; k < obs::kSpanKinds; ++k) {
      const auto* h = sink->histogram(r, static_cast<SpanKind>(k));
      ASSERT_NE(h, nullptr);
      histogramTotal += h->total();
    }
  }
  EXPECT_EQ(histogramTotal, spans.size());
  EXPECT_EQ(sink->histogram(99, SpanKind::Compute), nullptr);
  // The other modes expose no histograms.
  const auto full = obs::TraceSink::create({TraceMode::Full, 0, 0});
  full->record(spans[0]);
  EXPECT_EQ(full->histogram(0, SpanKind::Compute), nullptr);
}

TEST(TraceSink, AggregateMemoryIsFarBelowFullOnLongStreams) {
  const auto spans = syntheticSpans(8, 2000);
  const auto full = obs::TraceSink::create({TraceMode::Full, 0, 0});
  const auto aggregate = obs::TraceSink::create({TraceMode::Aggregate, 0, 0});
  for (const auto& span : spans) {
    full->record(span);
    aggregate->record(span);
  }
  EXPECT_LT(aggregate->memoryBytes(), full->memoryBytes() / 10);
  // Aggregate memory depends on the rank count, not the span count.
  const auto longer = obs::TraceSink::create({TraceMode::Aggregate, 0, 0});
  for (int rep = 0; rep < 3; ++rep)
    for (const auto& span : spans) longer->record(span);
  EXPECT_EQ(longer->memoryBytes(), aggregate->memoryBytes());
}

TEST(TraceSink, OtherSecondsClampedWhenSpansOverlap) {
  const auto sink = obs::TraceSink::create({TraceMode::Full, 0, 0});
  sink->record(TraceSpan{0, SpanKind::Compute, 0.0, 1.0, -1, 0});
  sink->record(TraceSpan{0, SpanKind::Wait, 0.0, 1.0, -1, 0});  // overlaps
  const auto overlapped = sink->summarize(1, 1.5);
  EXPECT_DOUBLE_EQ(overlapped[0].otherSeconds, 0.0);  // 1.5 - 2.0 clamps
  sink->clear();
  sink->record(TraceSpan{0, SpanKind::Compute, 0.0, 1.0, -1, 0});
  const auto disjoint = sink->summarize(1, 1.5);
  EXPECT_DOUBLE_EQ(disjoint[0].otherSeconds, 0.5);
}

TEST(TraceSink, ClearResetsEverything) {
  const auto sink = obs::TraceSink::create({TraceMode::Sampled, 4, 7});
  for (const auto& span : syntheticSpans(2, 20)) sink->record(span);
  sink->clear();
  EXPECT_EQ(sink->spansRecorded(), 0u);
  EXPECT_EQ(sink->spansRetained(), 0u);
  const auto summaries = sink->summarize(2, 1.0);
  EXPECT_DOUBLE_EQ(summaries[0].computeSeconds, 0.0);
  EXPECT_DOUBLE_EQ(summaries[1].otherSeconds, 1.0);
}

// ---------------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------------

TEST(Exporters, ChromeJsonEmitsCompleteEvents) {
  const std::vector<TraceSpan> spans = {
      TraceSpan{1, SpanKind::Send, 0.5, 1.0, 0, 64},
      TraceSpan{0, SpanKind::Compute, 0.0, 0.5, -1, 0},
  };
  const std::string json = obs::exportChromeJson(spans);
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"tid\":1"), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"peer\":0,\"bytes\":64}"),
            std::string::npos);
  // Compute spans have no peer, so no args block on the second event.
  EXPECT_EQ(json.find("\"tid\":0,\"ts\":0,\"dur\":500000,\"args\""),
            std::string::npos);
}

TEST(Exporters, PrvHeaderAndStateRecords) {
  const std::vector<TraceSpan> spans = {
      TraceSpan{0, SpanKind::Compute, 0.0, 0.5, -1, 0},
      TraceSpan{1, SpanKind::Wait, 0.5, 1.0, -1, 0},
  };
  const std::string prv = obs::exportPrv(spans, 2, 1.0);
  EXPECT_EQ(prv.rfind("#Paraver ():1000000000_ns:1(2):1:2(1:1,1:1)\n", 0),
            0u);
  EXPECT_NE(prv.find("1:1:1:1:1:0:500000000:1\n"), std::string::npos);
  EXPECT_NE(prv.find("1:2:1:2:1:500000000:1000000000:3\n"),
            std::string::npos);
}

TEST(Exporters, ChromeJsonEscapesProcessNames) {
  const std::vector<TraceSpan> spans = {
      TraceSpan{0, SpanKind::Compute, 0.0, 0.5, -1, 0},
  };
  const std::string name = "hydro \"async\" C:\\traces\n";
  const std::string json = obs::exportChromeJson(spans, name);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("hydro \\\"async\\\" C:\\\\traces\\n"),
            std::string::npos)
      << json;
  // The document must stay valid JSON and round-trip the raw name.
  const json::Value doc = json::Value::parse(json);
  const json::Value* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->size(), 2u);  // metadata event + the span
  const json::Value* args = events->at(0).find("args");
  ASSERT_NE(args, nullptr);
  EXPECT_EQ(args->find("name")->asString(), name);
}

TEST(Exporters, ChromeJsonWithoutNameHasNoMetadataEvent) {
  const std::vector<TraceSpan> spans = {
      TraceSpan{0, SpanKind::Compute, 0.0, 0.5, -1, 0},
  };
  const std::string json = obs::exportChromeJson(spans);
  EXPECT_EQ(json.find("process_name"), std::string::npos);
  EXPECT_EQ(json::Value::parse(json).find("traceEvents")->size(), 1u);
}

TEST(Exporters, BreakdownCsvHasOneRowPerRank) {
  obs::RankSummary s0;
  s0.rank = 0;
  s0.computeSeconds = 1.5;
  s0.otherSeconds = 0.5;
  obs::RankSummary s1;
  s1.rank = 1;
  s1.sendSeconds = 0.25;
  const std::string csv = obs::exportBreakdownCsv({s0, s1});
  EXPECT_EQ(csv,
            "rank,compute_s,send_s,recv_s,wait_s,other_s\n"
            "0,1.5,0,0,0,0.5\n"
            "1,0,0.25,0,0,0\n");
}

// ---------------------------------------------------------------------------
// World-level accounting and host determinism
// ---------------------------------------------------------------------------

mpi::WorldConfig tegraConfig() {
  mpi::WorldConfig cfg;
  cfg.platform = arch::PlatformRegistry::tegra2();
  cfg.frequencyHz = ghz(1.0);
  cfg.protocol = net::Protocol::TcpIp;
  cfg.ranksPerNode = 1;
  return cfg;
}

void commHeavyBody(mpi::MpiContext& ctx) {
  for (int i = 0; i < 20; ++i) {
    ctx.computeSeconds(1e-4);
    ctx.sendrecv(ctx.rank() ^ 1, 1, 4096);  // pairwise exchange (even size)
    ctx.barrier();
  }
}

TEST(WorldTrace, StatsCarryTraceAccounting) {
  mpi::WorldConfig cfg = tegraConfig();
  cfg.traceMode = TraceMode::Aggregate;
  mpi::MpiWorld world(cfg, 4);
  world.enableTracing();
  const auto stats = world.run(commHeavyBody);
  EXPECT_GT(stats.traceSpansRecorded, 0u);
  EXPECT_EQ(stats.traceSpansRetained, 0u);
  EXPECT_GT(stats.traceMemoryBytes, 0u);
  EXPECT_EQ(world.tracer().mode(), TraceMode::Aggregate);

  // An untraced world reports zeros.
  mpi::MpiWorld quiet(tegraConfig(), 4);
  const auto quietStats = quiet.run(commHeavyBody);
  EXPECT_EQ(quietStats.traceSpansRecorded, 0u);
  EXPECT_EQ(quietStats.traceMemoryBytes, 0u);
}

std::vector<TraceSpan> sampledRun(Host host) {
  mpi::WorldConfig cfg = tegraConfig();
  cfg.traceMode = TraceMode::Sampled;
  cfg.traceReservoirPerRank = 16;
  cfg.traceSeed = 7;
  mpi::MpiWorld world(cfg, 4);
  world.enableTracing();
  onHost(host, [&] { return world.run(commHeavyBody); });
  return world.tracer().retainedSpans();
}

TEST(WorldTrace, SampledReservoirIdenticalAcrossBackends) {
  // The reservoir draws from a seeded stream, so the retained spans must
  // not depend on which host thread drove the ranks (host_threads.hpp).
  const auto fiber = sampledRun(Host::Fiber);
  const auto thread = sampledRun(Host::Thread);
  ASSERT_FALSE(fiber.empty());
  ASSERT_EQ(fiber.size(), thread.size());
  for (std::size_t i = 0; i < fiber.size(); ++i) {
    EXPECT_EQ(fiber[i].rank, thread[i].rank);
    EXPECT_EQ(fiber[i].kind, thread[i].kind);
    EXPECT_DOUBLE_EQ(fiber[i].begin, thread[i].begin);
    EXPECT_DOUBLE_EQ(fiber[i].end, thread[i].end);
    EXPECT_EQ(fiber[i].peer, thread[i].peer);
    EXPECT_EQ(fiber[i].bytes, thread[i].bytes);
  }
}

// ---------------------------------------------------------------------------
// Link telemetry, critical path and exporter identity
// ---------------------------------------------------------------------------

mpi::WorldConfig shardableConfig() {
  mpi::WorldConfig cfg = tegraConfig();
  cfg.topology.nodesPerLeafSwitch = 2;  // tiny leaves: traffic crosses the core
  return cfg;
}

TEST(WorldLinks, TelemetryCountsTransfersAndIsShardInvariant) {
  const auto run = [](Host host, bool telemetry) {
    mpi::WorldConfig cfg = shardableConfig();
    cfg.linkTelemetry = telemetry;
    mpi::MpiWorld world(cfg, 8);
    return onHost(host, [&] { return world.run(commHeavyBody); });
  };
  const auto base = run(Host::Fiber, true);
  ASSERT_TRUE(base.linkStats.any());
  EXPECT_GT(base.linkStats.uplink.transfers, 0u);
  EXPECT_GT(base.linkStats.uplink.busySeconds, 0.0);
  EXPECT_GT(base.linkStats.uplink.bytes, 0.0);
  // Every transfer climbs one uplink and descends one downlink.
  EXPECT_EQ(base.linkStats.uplink.transfers,
            base.linkStats.downlink.transfers);
  EXPECT_EQ(base.linkStats.uplink.queueDelay.total(),
            base.linkStats.uplink.transfers);
  EXPECT_LE(base.linkStats.uplink.maxLinkBusySeconds,
            base.linkStats.uplink.busySeconds);
  // Fabric occupancy happens at canonical wire-scheduling points only, so
  // the counters repeat exactly on a rerun and on either host, not merely
  // closely.
  for (const Host host : {Host::Fiber, Host::Thread}) {
    const auto got = run(host, true);
    EXPECT_EQ(got.linkStats.uplink.transfers,
              base.linkStats.uplink.transfers);
    EXPECT_DOUBLE_EQ(got.linkStats.uplink.busySeconds,
                     base.linkStats.uplink.busySeconds);
    EXPECT_DOUBLE_EQ(got.linkStats.core.queueSeconds,
                     base.linkStats.core.queueSeconds);
    EXPECT_DOUBLE_EQ(got.linkStats.downlink.maxLinkBusySeconds,
                     base.linkStats.downlink.maxLinkBusySeconds);
    for (int b = 0; b < obs::DurationHistogram::kBuckets; ++b) {
      EXPECT_EQ(got.linkStats.uplink.queueDelay.counts[
                    static_cast<std::size_t>(b)],
                base.linkStats.uplink.queueDelay.counts[
                    static_cast<std::size_t>(b)]);
    }
  }
  // Telemetry off: same simulation, empty counters.
  const auto off = run(Host::Fiber, false);
  EXPECT_FALSE(off.linkStats.any());
  EXPECT_DOUBLE_EQ(off.wallClockSeconds, base.wallClockSeconds);
}

TEST(CriticalPath, DecomposesWallClockExactly) {
  mpi::MpiWorld world(shardableConfig(), 8);
  const auto stats = world.run(commHeavyBody);
  const obs::CriticalPath& path = stats.criticalPath;
  EXPECT_GE(path.endRank, 0);
  EXPECT_LT(path.endRank, 8);
  EXPECT_GT(path.edges, 0u);
  EXPECT_GT(path.computeSeconds, 0.0);
  EXPECT_GT(path.sendSeconds + path.recvSeconds, 0.0);
  // waitSeconds is defined as the residual, so the decomposition covers
  // the wall clock up to FP rounding of the segment sums (the residual is
  // clamped at zero, so a chain that over-accounts by an ulp shows up as
  // length > wallClock by that ulp).
  EXPECT_NEAR(path.lengthSeconds(), stats.wallClockSeconds,
              1e-12 * stats.wallClockSeconds);
}

TEST(CriticalPath, IdenticalAcrossShardsAndBackends) {
  // The chain must repeat exactly on a rerun and on either host.
  const auto run = [](Host host) {
    mpi::MpiWorld world(shardableConfig(), 8);
    return onHost(host, [&] { return world.run(commHeavyBody); })
        .criticalPath;
  };
  const obs::CriticalPath base = run(Host::Fiber);
  for (const Host host : {Host::Fiber, Host::Thread}) {
    const obs::CriticalPath got = run(host);
    EXPECT_EQ(got.endRank, base.endRank);
    EXPECT_EQ(got.edges, base.edges);
    EXPECT_DOUBLE_EQ(got.computeSeconds, base.computeSeconds);
    EXPECT_DOUBLE_EQ(got.sendSeconds, base.sendSeconds);
    EXPECT_DOUBLE_EQ(got.recvSeconds, base.recvSeconds);
    EXPECT_DOUBLE_EQ(got.linkSeconds, base.linkSeconds);
    EXPECT_DOUBLE_EQ(got.waitSeconds, base.waitSeconds);
  }
}

std::pair<std::string, std::string> sampledArtefacts(Host host) {
  mpi::WorldConfig cfg = shardableConfig();
  cfg.traceMode = TraceMode::Sampled;
  cfg.traceReservoirPerRank = 16;
  cfg.traceSeed = 7;
  mpi::MpiWorld world(cfg, 8);
  world.enableTracing();
  const auto stats =
      onHost(host, [&] { return world.run(commHeavyBody); });
  const std::string prv =
      world.tracer().exportPrv(8, stats.wallClockSeconds);
  const std::string breakdown = obs::exportBreakdownCsv(
      world.tracer().summarize(8, stats.wallClockSeconds));
  return {prv, breakdown};
}

TEST(Exporters, ShardedRunsExportByteIdenticalArtefacts) {
  // A rerun, on either host, exports the same sampled timeline bytes.
  const auto base = sampledArtefacts(Host::Fiber);
  ASSERT_EQ(base.first.rfind("#Paraver", 0), 0u);
  ASSERT_NE(base.second.find("rank,compute_s"), std::string::npos);
  for (const Host host : {Host::Fiber, Host::Thread}) {
    const auto got = sampledArtefacts(host);
    const std::string name = testhost::hostName(host);
    EXPECT_EQ(got.first, base.first) << "prv differs: host=" << name;
    EXPECT_EQ(got.second, base.second) << "breakdown differs: host=" << name;
  }
}

// ---------------------------------------------------------------------------
// Stall watchdog
// ---------------------------------------------------------------------------

TEST(StallReport, ScopedOverrideRestoresPrevious) {
  const bool before = obs::defaultStallReport();
  {
    obs::ScopedStallReport scoped(true);
    EXPECT_TRUE(obs::defaultStallReport());
    mpi::WorldConfig cfg;  // snapshots the default at construction
    EXPECT_TRUE(cfg.stallReport);
  }
  EXPECT_EQ(obs::defaultStallReport(), before);
}

TEST(StallReport, FormatSortsByRankAndRendersWildcards) {
  obs::StallEntry late;
  late.rank = 3;
  late.node = 1;
  late.op = "recv";
  late.peer = -1;  // kAnySource
  late.tag = -1;   // kAnyTag
  late.comm = 7;
  late.blockedSince = 0.5;
  obs::StallEntry early;
  early.rank = 0;
  early.node = 0;
  early.op = "rendezvous-send";
  early.peer = 2;
  early.tag = 9;
  early.blockedSince = 0.25;
  early.lastSpans.push_back(TraceSpan{0, SpanKind::Compute, 0.0, 0.25, -1, 0});
  const std::string report = obs::formatStallReport({late, early}, 1.0);
  EXPECT_EQ(report,
            "stall report: 2 rank(s) blocked at t=1s\n"
            "  rank 0 node 0: rendezvous-send(peer=2, tag=9) comm=0 "
            "blocked 0.75s since t=0.25s\n"
            "    recent: compute[0s..0.25s]\n"
            "  rank 3 node 1: recv(peer=*, tag=*) comm=7 "
            "blocked 0.5s since t=0.5s\n");
}

TEST(Imb, StatsHookSeesEveryWorld) {
  const auto cfg = tegraConfig();
  int calls = 0;
  std::uint64_t messages = 0;
  const mpi::imb::StatsHook hook = [&](const mpi::WorldStats& stats) {
    ++calls;
    messages += stats.messageCount;
  };
  mpi::imb::pingPong(cfg, {64, 1024}, 2, hook);
  EXPECT_EQ(calls, 2);  // one world per message size
  EXPECT_GT(messages, 0u);
  calls = 0;
  mpi::imb::barrier(cfg, 8, 2, hook);
  EXPECT_EQ(calls, 1);
}

// ---------------------------------------------------------------------------
// Fiber stack telemetry
// ---------------------------------------------------------------------------

TEST(StackTelemetry, HighWaterWithinConfiguredStack) {
  mpi::MpiWorld world(tegraConfig(), 4);
  const auto stats = world.run(commHeavyBody);
  EXPECT_EQ(stats.engine.fiberStackBytes,
            sim::ExecutionContext::defaultStackBytes());
  EXPECT_GT(stats.engine.stackHighWaterBytes, 0u);
  EXPECT_LE(stats.engine.stackHighWaterBytes, stats.engine.fiberStackBytes);
}

// Burn stack frames with a volatile local so the frames cannot be elided;
// the result depends on the recursion so the call cannot be a tail call.
int burnStack(int depth) {
  volatile char buffer[256];
  buffer[0] = static_cast<char>(depth);
  if (depth <= 0) return buffer[0];
  return burnStack(depth - 1) + buffer[0];
}

std::size_t highWaterAtDepth(int depth, bool pooledStack = false) {
  sim::Simulation sim;
  sim.setPooledStacks(pooledStack);
  sim.spawn("burner", [depth](sim::Process&) { burnStack(depth); });
  sim.run();
  return sim.engineStats().stackHighWaterBytes;
}

TEST(StackTelemetry, HighWaterGrowsWithRecursionDepth) {
  const std::size_t shallow = highWaterAtDepth(4);
  const std::size_t deep = highWaterAtDepth(96);
  EXPECT_GT(shallow, 0u);
  EXPECT_GT(deep, shallow);
  // ~92 extra frames each holding a 256-byte buffer; exact frame size is
  // the compiler's business, so only require the bulk of that growth.
  EXPECT_GE(deep - shallow, 92u * 192u);
}

TEST(StackTelemetry, RecycledPooledStackReportsItsOwnTenant) {
  // The pooled world's one stack goes back to the arena's free list, and
  // the next pooled world leases it again. Release hands its pages back to
  // the kernel, so the deep tenant leaves no resident page behind for the
  // shallow one to inherit.
  const std::size_t fresh = highWaterAtDepth(4);
  const std::size_t deep = highWaterAtDepth(96, true);
  const std::size_t recycled = highWaterAtDepth(4, true);
  EXPECT_GT(deep, fresh);
  EXPECT_EQ(recycled, fresh);
}

TEST(StackTelemetry, SubSixtyFourKiBStackChosenFromReportedHighWater) {
  // Big-cluster-style job: the reported high-water mark, doubled for
  // margin, says a TIBSIM_FIBER_STACK_KB under 64 would do.
  const cluster::ClusterSpec spec = cluster::ClusterSpec::tibidaboScaled(16);
  const auto body = [](mpi::MpiContext& ctx) {
    ctx.computeSeconds(1e-3);
    ctx.neighborExchange(4096, 1);
    ctx.allreduceSum(static_cast<double>(ctx.rank()));
    ctx.barrier();
  };
  cluster::ClusterSimulation probeSim(spec);
  const cluster::JobResult probe = probeSim.runJob(16, body);

  std::size_t stackBytes = 16 * 1024;  // the engine's minimum
  if (probe.stats.engine.stackHighWaterBytes > 0) {
    // Round the observed high water up to 4 KiB and double it for margin.
    const std::size_t hwm = probe.stats.engine.stackHighWaterBytes;
    stackBytes = std::max<std::size_t>(stackBytes, ((hwm + 4095) / 4096) * 4096 * 2);
  }
  ASSERT_LT(stackBytes, 64u * 1024u)
      << "reported high water " << probe.stats.engine.stackHighWaterBytes;
}

}  // namespace
