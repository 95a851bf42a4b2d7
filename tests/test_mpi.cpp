// Tests for simMPI: point-to-point semantics, payload integrity, tag
// matching, rendezvous, collectives, deadlock detection, accounting.
// Every suite runs on both hosts (host_threads.hpp): simMPI semantics may
// not depend on which host thread drives the ranks.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <numeric>
#include <string>
#include <tuple>
#include <utility>

#include "host_threads.hpp"
#include "tibsim/apps/taskfarm.hpp"
#include "tibsim/arch/registry.hpp"
#include "tibsim/common/assert.hpp"
#include "tibsim/common/units.hpp"
#include "tibsim/mpi/payload_pool.hpp"
#include "tibsim/mpi/simmpi.hpp"

namespace tibsim::mpi {
namespace {

using namespace units;
using testhost::Host;
using testhost::onHost;

WorldConfig testConfig(int ranksPerNode = 1,
                       net::Protocol proto = net::Protocol::TcpIp) {
  WorldConfig cfg;
  cfg.platform = arch::PlatformRegistry::tegra2();
  cfg.frequencyHz = ghz(1.0);
  cfg.protocol = proto;
  cfg.ranksPerNode = ranksPerNode;
  return cfg;
}

// Run `world` on `host`. Construction and teardown, which unwinds ranks
// still blocked after a throw, stay on the test thread.
WorldStats runOn(Host host, MpiWorld& world, const MpiWorld::RankBody& body) {
  return onHost(host, [&] { return world.run(body); });
}

class SimMpiTest : public ::testing::TestWithParam<Host> {
 protected:
  static WorldStats run(MpiWorld& world, const MpiWorld::RankBody& body) {
    return runOn(GetParam(), world, body);
  }
};

#define TIBSIM_INSTANTIATE_BACKENDS(fixture)                              \
  INSTANTIATE_TEST_SUITE_P(Backends, fixture,                             \
                           ::testing::Values(Host::Fiber, Host::Thread),  \
                           [](const auto& paramInfo) {                    \
                             return testhost::hostName(paramInfo.param);  \
                           })

class SimMpiNonblockingTest : public SimMpiTest {};
class SimMpiCollectivesTest : public SimMpiTest {};
class SimMpiCollectiveVerifyTest : public SimMpiTest {};
TIBSIM_INSTANTIATE_BACKENDS(SimMpiTest);
TIBSIM_INSTANTIATE_BACKENDS(SimMpiNonblockingTest);
TIBSIM_INSTANTIATE_BACKENDS(SimMpiCollectivesTest);
TIBSIM_INSTANTIATE_BACKENDS(SimMpiCollectiveVerifyTest);

TEST_P(SimMpiTest, RankAndSizeVisible) {
  MpiWorld world(testConfig(), 4);
  std::vector<int> seen(4, -1);
  run(world, [&](MpiContext& ctx) {
    seen[static_cast<std::size_t>(ctx.rank())] = ctx.size();
  });
  for (int s : seen) EXPECT_EQ(s, 4);
}

TEST_P(SimMpiTest, NodePlacementFollowsRanksPerNode) {
  MpiWorld world(testConfig(2), 6);
  EXPECT_EQ(world.nodes(), 3);
  std::vector<int> nodeOf(6, -1);
  run(world, [&](MpiContext& ctx) {
    nodeOf[static_cast<std::size_t>(ctx.rank())] = ctx.node();
  });
  EXPECT_EQ(nodeOf, (std::vector<int>{0, 0, 1, 1, 2, 2}));
}

TEST_P(SimMpiTest, PayloadRoundTrips) {
  MpiWorld world(testConfig(), 2);
  std::vector<double> received;
  run(world, [&](MpiContext& ctx) {
    if (ctx.rank() == 0) {
      const std::vector<double> data = {1.5, -2.25, 3.75};
      ctx.sendDoubles(1, 42, data);
    } else {
      received = ctx.recvDoubles(0, 42);
    }
  });
  EXPECT_EQ(received, (std::vector<double>{1.5, -2.25, 3.75}));
}

TEST_P(SimMpiTest, SizeOnlyMessagesReportBytes) {
  MpiWorld world(testConfig(), 2);
  std::size_t got = 0;
  run(world, [&](MpiContext& ctx) {
    if (ctx.rank() == 0) {
      ctx.send(1, 1, 123456);
    } else {
      const auto payload = ctx.recv(0, 1, &got);
      EXPECT_TRUE(payload.empty());
    }
  });
  EXPECT_EQ(got, 123456u);
}

TEST_P(SimMpiTest, TagMatchingSelectsCorrectMessage) {
  MpiWorld world(testConfig(), 2);
  std::vector<double> first, second;
  run(world, [&](MpiContext& ctx) {
    if (ctx.rank() == 0) {
      ctx.sendDoubles(1, /*tag=*/7, std::vector<double>{7.0});
      ctx.sendDoubles(1, /*tag=*/8, std::vector<double>{8.0});
    } else {
      // Receive in the opposite order from the sends.
      second = ctx.recvDoubles(0, 8);
      first = ctx.recvDoubles(0, 7);
    }
  });
  EXPECT_EQ(first, std::vector<double>{7.0});
  EXPECT_EQ(second, std::vector<double>{8.0});
}

TEST_P(SimMpiTest, FifoPerSourceAndTag) {
  MpiWorld world(testConfig(), 2);
  std::vector<double> order;
  run(world, [&](MpiContext& ctx) {
    if (ctx.rank() == 0) {
      for (int i = 0; i < 5; ++i)
        ctx.sendDoubles(1, 3, std::vector<double>{static_cast<double>(i)});
    } else {
      for (int i = 0; i < 5; ++i)
        order.push_back(ctx.recvDoubles(0, 3)[0]);
    }
  });
  EXPECT_EQ(order, (std::vector<double>{0, 1, 2, 3, 4}));
}

TEST_P(SimMpiTest, MailboxKeepsDeliveryOrderAcrossOutOfOrderReceives) {
  // Rank 1's mailbox holds five delivered messages (payload = tag). It
  // takes the middle, the tail and the head out of order, then lets one
  // more message append behind the new tail; a kAnyTag drain must still
  // see the survivors oldest first.
  MpiWorld world(testConfig(), 2);
  std::vector<double> taken;
  std::vector<double> drained;
  run(world, [&](MpiContext& ctx) {
    if (ctx.rank() == 0) {
      for (int tag = 0; tag < 5; ++tag)
        ctx.sendDoubles(1, tag, std::vector<double>{static_cast<double>(tag)});
      ctx.recv(1, 9);  // rank 1 has unlinked its tail
      ctx.sendDoubles(1, 5, std::vector<double>{5.0});
    } else {
      ctx.computeSeconds(1.0);  // all five arrive while rank 1 computes
      for (int tag : {2, 4, 0}) taken.push_back(ctx.recvDoubles(0, tag)[0]);
      ctx.send(0, 9, 0);
      for (int i = 0; i < 3; ++i)
        drained.push_back(  // tibsim-lint: allow(wildcard-recv)
            ctx.recvDoubles(0, kAnyTag)[0]);
    }
  });
  EXPECT_EQ(taken, (std::vector<double>{2, 4, 0}));
  EXPECT_EQ(drained, (std::vector<double>{1, 3, 5}));
}

TEST_P(SimMpiTest, MessagesTakeSimulatedTime) {
  MpiWorld world(testConfig(), 2);
  double recvDone = 0.0;
  const auto stats = run(world, [&](MpiContext& ctx) {
    if (ctx.rank() == 0) {
      ctx.send(1, 1, 64);
    } else {
      ctx.recv(0, 1);
      recvDone = ctx.now();
    }
  });
  // One small TCP message on Tegra2 @ 1 GHz: ~100 us one-way.
  EXPECT_GT(recvDone, 50e-6);
  EXPECT_LT(recvDone, 200e-6);
  EXPECT_EQ(stats.messageCount, 1u);
}

TEST_P(SimMpiTest, RendezvousLargeMessageCompletes) {
  MpiWorld world(testConfig(1, net::Protocol::OpenMx), 2);
  const std::size_t big = 256 * 1024;  // > 32 KiB threshold
  std::size_t got = 0;
  double senderDone = 0.0, receiverDone = 0.0;
  run(world, [&](MpiContext& ctx) {
    if (ctx.rank() == 0) {
      ctx.send(1, 5, big);
      senderDone = ctx.now();
    } else {
      ctx.computeSeconds(0.01);  // receiver arrives late: RTS must wait
      ctx.recv(0, 5, &got);
      receiverDone = ctx.now();
    }
  });
  EXPECT_EQ(got, big);
  // Rendezvous: the sender cannot complete before the receiver showed up.
  EXPECT_GT(senderDone, 0.01);
  EXPECT_GT(receiverDone, senderDone * 0.5);
}

TEST_P(SimMpiTest, RendezvousBothDirectionsViaSendrecv) {
  MpiWorld world(testConfig(1, net::Protocol::OpenMx), 2);
  const std::size_t big = 128 * 1024;
  run(world, [&](MpiContext& ctx) {
    const int peer = 1 - ctx.rank();
    ctx.sendrecv(peer, 9, big);
  });
  SUCCEED();  // completing without deadlock is the assertion
}

TEST_P(SimMpiTest, SameNodeMessagesAreFast) {
  MpiWorld world(testConfig(2), 2);  // both ranks on node 0
  double elapsed = 0.0;
  run(world, [&](MpiContext& ctx) {
    if (ctx.rank() == 0) {
      ctx.send(1, 1, 1024);
    } else {
      ctx.recv(0, 1);
      elapsed = ctx.now();
    }
  });
  EXPECT_LT(elapsed, 20e-6);  // shared memory, no NIC
}

TEST_P(SimMpiTest, DeadlockIsDetected) {
  MpiWorld world(testConfig(), 2);
  EXPECT_THROW(run(world, [](MpiContext& ctx) {
    // Both ranks receive first: classic deadlock.
    ctx.recv(1 - ctx.rank(), 1);
  }),
               ContractError);
}

TEST_P(SimMpiTest, StallReportListsEveryBlockedRank) {
  // The report is derived from simulated state only, so the exact lines
  // can be pinned: identical on both hosts and on every run.
  MpiWorld world(testConfig(), 4);
  try {
    run(world, [](MpiContext& ctx) {
      // Every rank receives from its left neighbour first: a 4-cycle.
      ctx.recv((ctx.rank() + 1) % ctx.size(), 7);
    });
    FAIL() << "deadlock not detected";
  } catch (const ContractError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("stall report: 4 rank(s) blocked at t=0s"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("rank 0 node 0: recv(peer=1, tag=7)"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("rank 3 node 3: recv(peer=0, tag=7)"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("blocked 0s since t=0s"), std::string::npos) << what;
  }
}

TEST_P(SimMpiTest, StallReportCoversRendezvousSenders) {
  // A rendezvous send with no matching receive blocks on the CTS; the
  // report must attribute the stall to the send side, not the mailbox.
  MpiWorld world(testConfig(1, net::Protocol::OpenMx), 2);
  try {
    run(world, [](MpiContext& ctx) {
      if (ctx.rank() == 0) ctx.send(1, 5, 64 * 1024);
    });
    FAIL() << "deadlock not detected";
  } catch (const ContractError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("stall report: 1 rank(s) blocked"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("rank 0 node 0: rendezvous-send(peer=1, tag=5)"),
              std::string::npos)
        << what;
  }
}

TEST_P(SimMpiTest, StallReportShowsEachBlockedRanksLastSpans) {
  // A traced world's report lists each blocked rank's last three retained
  // spans, oldest first. Rank r computes five spans of 0.25 * (r + 1) s;
  // ranks 0..2 then block in a 3-cycle while rank 3 finishes.
  MpiWorld world(testConfig(), 4);
  world.enableTracing();
  try {
    run(world, [](MpiContext& ctx) {
      for (int i = 0; i < 5; ++i) ctx.computeSeconds(0.25 * (ctx.rank() + 1));
      if (ctx.rank() < 3) ctx.recv((ctx.rank() + 1) % 3, 99);
    });
    FAIL() << "deadlock not detected";
  } catch (const ContractError& error) {
    const std::string what = error.what();
    const std::size_t at = what.find("stall report:");
    ASSERT_NE(at, std::string::npos) << what;
    EXPECT_EQ(what.substr(at),
              "stall report: 3 rank(s) blocked at t=5s\n"
              "  rank 0 node 0: recv(peer=1, tag=99) comm=0 blocked 3.75s "
              "since t=1.25s\n"
              "    recent: compute[0.5s..0.75s] compute[0.75s..1s] "
              "compute[1s..1.25s]\n"
              "  rank 1 node 1: recv(peer=2, tag=99) comm=0 blocked 2.5s "
              "since t=2.5s\n"
              "    recent: compute[1s..1.5s] compute[1.5s..2s] "
              "compute[2s..2.5s]\n"
              "  rank 2 node 2: recv(peer=0, tag=99) comm=0 blocked 1.25s "
              "since t=3.75s\n"
              "    recent: compute[1.5s..2.25s] compute[2.25s..3s] "
              "compute[3s..3.75s]\n");
  }
}

TEST_P(SimMpiTest, TracedRerunReportsPerRunTraceAccounting) {
  // A traced world run twice traces each run from an empty sink, so its
  // trace accounting matches its per-run counters.
  MpiWorld world(WorldConfig::tibidaboNode(), 4);
  world.enableTracing();
  const auto body = [](MpiContext& ctx) {
    ctx.computeSeconds(1e-3);
    ctx.barrier();
  };
  const WorldStats first = run(world, body);
  const WorldStats second = run(world, body);
  EXPECT_EQ(second.messageCount, first.messageCount);
  EXPECT_GT(first.traceSpansRecorded, 0u);
  EXPECT_EQ(second.traceSpansRecorded, first.traceSpansRecorded);
  EXPECT_EQ(second.traceSpansRetained, first.traceSpansRetained);
  EXPECT_EQ(second.traceMemoryBytes, first.traceMemoryBytes);
  const std::vector<obs::RankSummary> summary =
      world.tracer().summarize(4, second.wallClockSeconds);
  ASSERT_EQ(summary.size(), 4u);
  EXPECT_DOUBLE_EQ(summary[0].computeSeconds, 1e-3);
}

TEST_P(SimMpiTest, StallReportIsByteIdenticalAcrossShards) {
  // The report must not change on a repeat run or with the host thread.
  const auto report = [](Host host) {
    WorldConfig cfg = testConfig();
    cfg.topology.nodesPerLeafSwitch = 2;
    MpiWorld world(cfg, 6);
    try {
      runOn(host, world, [](MpiContext& ctx) {
        if (ctx.rank() < 3) {
          ctx.recv((ctx.rank() + 1) % 3, 9);  // 3-cycle among ranks 0..2
        } else {
          ctx.computeSeconds(1e-5 * ctx.rank());  // these ranks finish
        }
      });
    } catch (const ContractError& error) {
      // Strip the TIB_REQUIRE prefix (expression and file:line); the
      // report body itself must be byte-identical.
      const std::string what = error.what();
      const std::size_t at = what.find("stall report:");
      return at == std::string::npos ? what : what.substr(at);
    }
    return std::string();
  };
  const std::string base = report(GetParam());
  ASSERT_NE(base.find("stall report: 3 rank(s) blocked"), std::string::npos)
      << base;
  EXPECT_EQ(report(GetParam()), base);
  EXPECT_EQ(report(Host::Fiber), base);
  EXPECT_EQ(report(Host::Thread), base);
}

// ---- Runtime collective-matching verifier ---------------------------------

TEST_P(SimMpiCollectiveVerifyTest, CleanRunPassesAndCountsChecks) {
  WorldConfig cfg = testConfig();
  cfg.verifyCollectives = true;
  MpiWorld world(cfg, 4);
  const WorldStats stats = run(world, [](MpiContext& ctx) {
    ctx.allreduce(1.0, ReduceOp::Sum);
    ctx.barrier();
    ctx.bcastBytes(4096, 0);
  });
  EXPECT_GT(stats.collectiveChecks, 0u);
}

TEST_P(SimMpiCollectiveVerifyTest, OffByDefaultPerformsNoChecks) {
  MpiWorld world(testConfig(), 4);
  const WorldStats stats = run(world, [](MpiContext& ctx) {
    ctx.allreduce(1.0, ReduceOp::Sum);
    ctx.barrier();
  });
  EXPECT_EQ(stats.collectiveChecks, 0u);
}

TEST_P(SimMpiCollectiveVerifyTest, DivergentReduceOpIsReported) {
  WorldConfig cfg = testConfig();
  cfg.verifyCollectives = true;
  MpiWorld world(cfg, 4);
  try {
    run(world, [](MpiContext& ctx) {
      Communicator comm = ctx.commWorld();
      // One rank votes with a sum while the others run a max — same tag
      // space, same message schedule, divergent stamps.
      if (ctx.rank() == 2) {
        comm.allreduce(1.0, ReduceOp::Sum);
      } else {
        comm.allreduce(1.0, ReduceOp::Max);
      }
    });
    FAIL() << "collective mismatch not detected";
  } catch (const ContractError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("collective mismatch on comm 0"), std::string::npos)
        << what;
    EXPECT_NE(what.find("op=sum"), std::string::npos) << what;
    EXPECT_NE(what.find("op=max"), std::string::npos) << what;
    EXPECT_NE(what.find("every rank of a communicator must run the same "
                        "collective sequence"),
              std::string::npos)
        << what;
  }
}

TEST_P(SimMpiCollectiveVerifyTest, CollectiveVsPointToPointIsReported) {
  WorldConfig cfg = testConfig();
  cfg.verifyCollectives = true;
  MpiWorld world(cfg, 2);
  try {
    run(world, [](MpiContext& ctx) {
      // Rank 0's dissemination-barrier signal is stamped; rank 1 consumes
      // it with a plain receive on the reserved plumbing tag instead of
      // entering the barrier: a one-sided engagement.
      // Deliberate divergence: exactly what the lint rule exists to stop.
      if (ctx.rank() == 0) {  // tibsim-lint: allow(collective-match)
        ctx.barrier();
      } else {
        ctx.recv(0, 1 << 24);  // kBarrierTag round 0
      }
    });
    FAIL() << "collective mismatch not detected";
  } catch (const ContractError& error) {
    EXPECT_NE(std::string(error.what()).find("point-to-point traffic"),
              std::string::npos)
        << error.what();
  }
}

TEST_P(SimMpiCollectiveVerifyTest, MismatchReportIsByteIdenticalAcrossShards) {
  // The report must not change on a repeat run or with the host thread.
  const auto report = [](Host host) {
    WorldConfig cfg = testConfig();
    cfg.verifyCollectives = true;
    cfg.topology.nodesPerLeafSwitch = 2;
    MpiWorld world(cfg, 6);
    try {
      runOn(host, world, [](MpiContext& ctx) {
        Communicator comm = ctx.commWorld();
        if (ctx.rank() == 3) {
          comm.allreduce(2.0, ReduceOp::Sum);
        } else {
          comm.allreduce(2.0, ReduceOp::Max);
        }
      });
    } catch (const ContractError& error) {
      // Strip the TIB_REQUIRE prefix, as in the stall-report test; the
      // report body must be byte-identical.
      const std::string what = error.what();
      const std::size_t at = what.find("collective mismatch");
      return at == std::string::npos ? what : what.substr(at);
    }
    return std::string();
  };
  const std::string base = report(GetParam());
  ASSERT_NE(base.find("collective mismatch on comm 0"), std::string::npos)
      << base;
  EXPECT_EQ(report(GetParam()), base);
  EXPECT_EQ(report(Host::Fiber), base);
  EXPECT_EQ(report(Host::Thread), base);
}

TEST_P(SimMpiTest, RankExceptionsPropagate) {
  MpiWorld world(testConfig(), 2);
  EXPECT_THROW(run(world, [](MpiContext& ctx) {
    if (ctx.rank() == 1) throw std::runtime_error("rank failure");
    ctx.computeSeconds(0.001);
  }),
               std::runtime_error);
}

TEST_P(SimMpiTest, ComputeAdvancesClockAndAccounts) {
  MpiWorld world(testConfig(), 1);
  const auto stats = run(world, [&](MpiContext& ctx) {
    ctx.compute(perfmodel::WorkProfile{1e9, 0.0,
                                       perfmodel::AccessPattern::Resident,
                                       1.0, 1.0, 0.0});
  });
  EXPECT_GT(stats.wallClockSeconds, 1.0);  // 1 GFLOP at ~0.55 GFLOP/s
  EXPECT_DOUBLE_EQ(stats.totalFlops, 1e9);
  EXPECT_GT(stats.nodeBusySeconds[0], 1.0);
}

// ---- Collectives -----------------------------------------------------------

class CollectiveSizes
    : public ::testing::TestWithParam<std::tuple<int, Host>> {
 protected:
  int ranks() const { return std::get<0>(GetParam()); }
  static WorldStats run(MpiWorld& world, const MpiWorld::RankBody& body) {
    return runOn(std::get<1>(GetParam()), world, body);
  }
};

TEST_P(CollectiveSizes, BarrierSynchronises) {
  const int n = ranks();
  MpiWorld world(testConfig(), n);
  std::vector<double> after(static_cast<std::size_t>(n), 0.0);
  run(world, [&](MpiContext& ctx) {
    // Rank r works r milliseconds, then hits the barrier.
    ctx.computeSeconds(1e-3 * ctx.rank());
    ctx.barrier();
    after[static_cast<std::size_t>(ctx.rank())] = ctx.now();
  });
  // Nobody leaves the barrier before the slowest rank reached it.
  const double slowest = 1e-3 * (n - 1);
  for (double t : after) EXPECT_GE(t, slowest);
}

TEST_P(CollectiveSizes, BcastDeliversRootData) {
  const int n = ranks();
  const int root = n > 2 ? 2 : 0;
  MpiWorld world(testConfig(), n);
  std::vector<std::vector<double>> results(static_cast<std::size_t>(n));
  run(world, [&](MpiContext& ctx) {
    std::vector<double> data;
    if (ctx.rank() == root) data = {3.0, 1.0, 4.0, 1.0, 5.0};
    results[static_cast<std::size_t>(ctx.rank())] =
        ctx.bcast(std::move(data), root);
  });
  for (const auto& r : results)
    EXPECT_EQ(r, (std::vector<double>{3.0, 1.0, 4.0, 1.0, 5.0}));
}

TEST_P(CollectiveSizes, ReduceSumsContributions) {
  const int n = ranks();
  MpiWorld world(testConfig(), n);
  std::vector<double> rootResult;
  run(world, [&](MpiContext& ctx) {
    const std::vector<double> mine = {static_cast<double>(ctx.rank()),
                                      1.0};
    const auto out = ctx.reduce(mine, ReduceOp::Sum, 0);
    if (ctx.rank() == 0) rootResult = out;
  });
  ASSERT_EQ(rootResult.size(), 2u);
  EXPECT_DOUBLE_EQ(rootResult[0], n * (n - 1) / 2.0);
  EXPECT_DOUBLE_EQ(rootResult[1], n);
}

TEST_P(CollectiveSizes, AllreduceGivesEveryoneTheSum) {
  const int n = ranks();
  MpiWorld world(testConfig(), n);
  std::vector<double> sums(static_cast<std::size_t>(n), 0.0);
  run(world, [&](MpiContext& ctx) {
    sums[static_cast<std::size_t>(ctx.rank())] =
        ctx.allreduce(static_cast<double>(ctx.rank() + 1), ReduceOp::Sum);
  });
  for (double s : sums) EXPECT_DOUBLE_EQ(s, n * (n + 1) / 2.0);
}

TEST_P(CollectiveSizes, AllreduceMaxFindsGlobalMax) {
  const int n = ranks();
  MpiWorld world(testConfig(), n);
  std::vector<double> maxes(static_cast<std::size_t>(n), 0.0);
  run(world, [&](MpiContext& ctx) {
    // Values peak in the middle to exercise non-root extremes.
    const double mine = -std::abs(ctx.rank() - n / 2.0);
    maxes[static_cast<std::size_t>(ctx.rank())] = ctx.allreduceMax(mine);
  });
  const double expected = n % 2 == 0 ? 0.0 : -0.5;
  for (double m : maxes) EXPECT_DOUBLE_EQ(m, expected);
}

TEST_P(CollectiveSizes, GatherCollectsInRankOrder) {
  const int n = ranks();
  MpiWorld world(testConfig(), n);
  std::vector<double> gathered;
  run(world, [&](MpiContext& ctx) {
    const auto all = ctx.gather(static_cast<double>(ctx.rank() * 10), 0);
    if (ctx.rank() == 0) gathered = all;
  });
  ASSERT_EQ(gathered.size(), static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r)
    EXPECT_DOUBLE_EQ(gathered[static_cast<std::size_t>(r)], r * 10.0);
}

TEST_P(CollectiveSizes, AllgatherEveryoneSeesAll) {
  const int n = ranks();
  MpiWorld world(testConfig(), n);
  std::vector<std::vector<double>> results(static_cast<std::size_t>(n));
  run(world, [&](MpiContext& ctx) {
    results[static_cast<std::size_t>(ctx.rank())] =
        ctx.allgather(static_cast<double>(ctx.rank()));
  });
  for (const auto& r : results) {
    ASSERT_EQ(r.size(), static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
      EXPECT_DOUBLE_EQ(r[static_cast<std::size_t>(i)], i);
  }
}

TEST_P(CollectiveSizes, AlltoallCompletes) {
  const int n = ranks();
  MpiWorld world(testConfig(), n);
  const auto stats = run(world, [&](MpiContext& ctx) {
    ctx.alltoallBytes(4096);
  });
  // Every ordered pair exchanged one message.
  EXPECT_EQ(stats.messageCount, static_cast<std::uint64_t>(n) * (n - 1));
}

INSTANTIATE_TEST_SUITE_P(
    RankCounts, CollectiveSizes,
    ::testing::Combine(::testing::Values(2, 3, 4, 5, 8, 13, 16),
                       ::testing::Values(Host::Fiber, Host::Thread)),
    [](const auto& paramInfo) {
      return std::to_string(std::get<0>(paramInfo.param)) + "_" +
             testhost::hostName(std::get<1>(paramInfo.param));
    });

TEST_P(SimMpiNonblockingTest, IrecvOverlapsComputeWithArrival) {
  // Rank 1 posts irecv, computes 10 ms while the message flies, then
  // waits: total time ~= max(compute, message), not the sum.
  MpiWorld world(testConfig(), 2);
  double finish = 0.0;
  run(world, [&](MpiContext& ctx) {
    if (ctx.rank() == 0) {
      ctx.send(1, 3, 64);
    } else {
      const auto req = ctx.irecv(0, 3);
      ctx.computeSeconds(10e-3);
      ctx.wait(req);
      finish = ctx.now();
    }
  });
  EXPECT_LT(finish, 10e-3 + 120e-6);  // overlapped, only recv CPU added
  EXPECT_GT(finish, 10e-3);
}

TEST_P(SimMpiNonblockingTest, IsendDoesNotBlockEvenAboveRendezvousThreshold) {
  MpiWorld world(testConfig(1, net::Protocol::OpenMx), 2);
  double sendDone = 0.0;
  run(world, [&](MpiContext& ctx) {
    if (ctx.rank() == 0) {
      const auto req = ctx.isend(1, 4, 512 * 1024);  // would rendezvous
      sendDone = ctx.now();
      ctx.wait(req);
    } else {
      ctx.computeSeconds(0.5);  // receiver very late
      ctx.recv(0, 4);
    }
  });
  // The blocking rendezvous path would have waited ~0.5 s for the CTS.
  EXPECT_LT(sendDone, 0.1);
}

TEST_P(SimMpiNonblockingTest, PayloadDeliveredThroughWait) {
  MpiWorld world(testConfig(), 2);
  std::vector<double> got;
  run(world, [&](MpiContext& ctx) {
    if (ctx.rank() == 0) {
      const std::vector<double> data = {2.5, 7.5};
      // Deliberate raw-byte round trip of the payload path; production code
      // should use sendDoubles/recvDoubles instead.
      ctx.isend(1, 9, data.size() * sizeof(double),  // tibsim-lint: allow(mpi-contract)
                std::as_bytes(std::span<const double>(data)));
    } else {
      const auto req = ctx.irecv(0, 9);
      const auto raw = ctx.wait(req);
      got.resize(raw.size() / sizeof(double));
      std::memcpy(got.data(), raw.data(), raw.size());
    }
  });
  EXPECT_EQ(got, (std::vector<double>{2.5, 7.5}));
}

TEST_P(SimMpiNonblockingTest, WaitallCompletesManyRequests) {
  MpiWorld world(testConfig(), 4);
  int completed = 0;
  run(world, [&](MpiContext& ctx) {
    if (ctx.rank() == 0) {
      std::vector<MpiContext::Request> reqs;
      for (int r = 1; r < 4; ++r) reqs.push_back(ctx.irecv(r, r));
      ctx.waitall(reqs);
      completed = static_cast<int>(reqs.size());
    } else {
      ctx.send(0, ctx.rank(), 128);
    }
  });
  EXPECT_EQ(completed, 3);
}

TEST_P(SimMpiNonblockingTest, DoubleWaitThrows) {
  MpiWorld world(testConfig(), 2);
  EXPECT_THROW(run(world, [&](MpiContext& ctx) {
    if (ctx.rank() == 0) {
      ctx.send(1, 1, 8);
    } else {
      const auto req = ctx.irecv(0, 1);
      ctx.wait(req);
      ctx.wait(req);  // already consumed
    }
  }),
               ContractError);
}

TEST_P(SimMpiCollectivesTest, NeighborExchangeHasNoChainSerialisation) {
  // With the red-black schedule the halo exchange completes in O(1)
  // message times regardless of rank count.
  auto haloTime = [](int ranks) {
    MpiWorld world(testConfig(), ranks);
    const auto stats = run(world, [](MpiContext& ctx) {
      ctx.neighborExchange(65536, 5);
    });
    return stats.wallClockSeconds;
  };
  const double small = haloTime(8);
  const double large = haloTime(64);
  EXPECT_LT(large, 2.5 * small);
}

TEST_P(SimMpiCollectivesTest, NeighborExchangeWorksForOddRankCounts) {
  for (int ranks : {2, 3, 5, 7}) {
    MpiWorld world(testConfig(), ranks);
    const auto stats = run(world, [](MpiContext& ctx) {
      ctx.neighborExchange(1024, 6);
    });
    // Each interior rank exchanges with 2 neighbours; ends with 1.
    EXPECT_EQ(stats.messageCount,
              static_cast<std::uint64_t>(2 * (ranks - 1)))
        << ranks;
  }
}

TEST_P(SimMpiCollectivesTest, PipelinedBcastFasterThanBinomialForBigPayloads) {
  const std::size_t bytes = 8 << 20;
  auto wallClock = [&](bool pipelined) {
    MpiWorld world(testConfig(), 16);
    const auto stats = run(world, [&](MpiContext& ctx) {
      if (pipelined) {
        ctx.pipelinedBcastBytes(bytes, 0);
      } else {
        ctx.bcastBytes(bytes, 0);
      }
    });
    return stats.wallClockSeconds;
  };
  EXPECT_LT(wallClock(true), wallClock(false));
}

TEST_P(SimMpiCollectivesTest, PipelinedBcastCausality) {
  // No rank may finish the broadcast before the root produced the data.
  MpiWorld world(testConfig(), 8);
  std::vector<double> finish(8, 0.0);
  run(world, [&](MpiContext& ctx) {
    if (ctx.rank() == 3) ctx.computeSeconds(0.05);  // root is late
    ctx.pipelinedBcastBytes(1 << 20, 3);
    finish[static_cast<std::size_t>(ctx.rank())] = ctx.now();
  });
  for (double t : finish) EXPECT_GT(t, 0.05);
}

TEST(PayloadPool, AcquireCopiesAndCountsAllocations) {
  PayloadPool pool;
  std::vector<std::byte> data(4096);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<std::byte>(i);
  const std::vector<std::byte> buf = pool.acquire(data);
  ASSERT_EQ(buf.size(), data.size());
  EXPECT_EQ(std::memcmp(buf.data(), data.data(), data.size()), 0);
  EXPECT_EQ(pool.stats().allocations, 1u);
  EXPECT_EQ(pool.stats().reuses, 0u);
  EXPECT_EQ(pool.freeBuffers(), 0u);
}

TEST(PayloadPool, ReleasedBuffersAreReusedLifoWithoutAllocating) {
  PayloadPool pool;
  const std::vector<std::byte> data(1024, std::byte{0x5a});
  std::vector<std::byte> buf = pool.acquire(data);
  pool.release(std::move(buf));
  EXPECT_EQ(pool.stats().returns, 1u);
  EXPECT_EQ(pool.freeBuffers(), 1u);
  const std::vector<std::byte> again = pool.acquire(data);
  EXPECT_EQ(pool.stats().allocations, 1u);  // unchanged: served from pool
  EXPECT_EQ(pool.stats().reuses, 1u);
  EXPECT_EQ(pool.freeBuffers(), 0u);
  EXPECT_EQ(again.size(), data.size());
  EXPECT_EQ(std::memcmp(again.data(), data.data(), data.size()), 0);
}

TEST(PayloadPool, EveryAcquireIsEitherReuseOrAllocation) {
  PayloadPool pool;
  const std::vector<std::byte> data(512, std::byte{7});
  for (int round = 0; round < 5; ++round) {
    std::vector<std::byte> a = pool.acquire(data);
    std::vector<std::byte> b = pool.acquire(data);
    pool.release(std::move(a));
    pool.release(std::move(b));
  }
  const PayloadPool::Stats& s = pool.stats();
  EXPECT_EQ(s.reuses + s.allocations, 10u);
  EXPECT_EQ(s.allocations, 2u);  // the first round's two buffers
  EXPECT_EQ(s.returns, 10u);
  EXPECT_EQ(pool.freeBuffers(), 2u);
}

TEST(PayloadPool, LiveHighWaterTracksPeakSimultaneousBuffers) {
  PayloadPool pool;
  const std::vector<std::byte> data(256, std::byte{3});
  std::vector<std::byte> a = pool.acquire(data);
  std::vector<std::byte> b = pool.acquire(data);
  std::vector<std::byte> c = pool.acquire(data);
  EXPECT_EQ(pool.outstandingBuffers(), 3u);
  EXPECT_EQ(pool.stats().liveHighWater, 3u);
  pool.release(std::move(a));
  pool.release(std::move(b));
  pool.release(std::move(c));
  EXPECT_EQ(pool.outstandingBuffers(), 0u);
  // The mark records the peak, not the current level.
  EXPECT_EQ(pool.stats().liveHighWater, 3u);
  // Serial churn afterwards never raises it.
  for (int i = 0; i < 4; ++i) pool.release(pool.acquire(data));
  EXPECT_EQ(pool.stats().liveHighWater, 3u);
}

TEST(PayloadPool, TrimToHighWaterFreesColdSurplus) {
  PayloadPool pool;
  const std::vector<std::byte> data(256, std::byte{4});
  // Burst: five buffers live at once, then all parked.
  std::vector<std::vector<std::byte>> live;
  for (int i = 0; i < 5; ++i) live.push_back(pool.acquire(data));
  for (auto& buf : live) pool.release(std::move(buf));
  live.clear();
  EXPECT_EQ(pool.freeBuffers(), 5u);
  // Peak demand was 5 simultaneous buffers, so nothing is surplus yet.
  EXPECT_EQ(pool.trimToHighWater(), 0u);
  EXPECT_EQ(pool.freeBuffers(), 5u);
  // A new accounting window with only serial traffic: the observed peak
  // drops to 1, and the next trim frees the four cold buffers.
  pool.resetStats();
  pool.release(pool.acquire(data));
  EXPECT_EQ(pool.stats().liveHighWater, 1u);
  EXPECT_EQ(pool.trimToHighWater(), 4u);
  EXPECT_EQ(pool.freeBuffers(), 1u);
  EXPECT_EQ(pool.stats().trimmedBuffers, 4u);
  // Idempotent at the mark.
  EXPECT_EQ(pool.trimToHighWater(), 0u);
}

TEST(PayloadPool, TrimAccountsForBuffersStillOutstanding) {
  PayloadPool pool;
  const std::vector<std::byte> data(128, std::byte{5});
  std::vector<std::byte> held = pool.acquire(data);
  std::vector<std::byte> other = pool.acquire(data);
  pool.release(std::move(other));
  // Peak 2, one checked out, one parked: parked + outstanding == peak, so
  // the parked buffer must survive the trim.
  EXPECT_EQ(pool.trimToHighWater(), 0u);
  EXPECT_EQ(pool.freeBuffers(), 1u);
  pool.release(std::move(held));
}

TEST(PayloadPool, LifoGrowsAnUndersizedNewestBufferToExactlyTheRequest) {
  // Release order large-then-small leaves the small buffer on top of the
  // LIFO, so a large request pops it, finds it too small, and grows it to
  // exactly the request: an allocation, while the large buffer stays parked.
  PayloadPool pool;
  const std::vector<std::byte> small(100, std::byte{1});
  const std::vector<std::byte> large(4000, std::byte{2});
  std::vector<std::byte> l = pool.acquire(large);
  std::vector<std::byte> s = pool.acquire(small);
  EXPECT_EQ(l.capacity(), large.size());
  EXPECT_EQ(s.capacity(), small.size());
  pool.release(std::move(l));
  pool.release(std::move(s));  // the small buffer is now the newest
  std::vector<std::byte> l2 = pool.acquire(large);
  EXPECT_EQ(l2.capacity(), large.size());
  EXPECT_EQ(l2, large);
  EXPECT_EQ(pool.stats().allocations, 3u);
  EXPECT_EQ(pool.stats().reuses, 0u);
  EXPECT_EQ(pool.freeBuffers(), 1u);  // the large buffer, still parked
  pool.release(std::move(l2));
}

TEST(PayloadPool, WorldRunReportsTrimAndHighWater) {
  // A world whose ranks exchange pool-sized payloads must report a nonzero
  // live high-water mark, and the teardown trim keeps the parked-buffer
  // count at or below it.
  MpiWorld world(WorldConfig::tibidaboNode(), 2);
  const WorldStats stats = world.run([](MpiContext& ctx) {
    std::vector<double> data(512, 1.5);  // 4 KiB: pooled, not inline
    if (ctx.rank() == 0)
      for (int i = 0; i < 8; ++i) ctx.sendDoubles(1, 7, data);
    else
      for (int i = 0; i < 8; ++i) (void)ctx.recvDoubles(0, 7);
  });
  EXPECT_GT(stats.payloadPooledMessages, 0u);
  EXPECT_GE(stats.payloadPoolLiveHighWater, 1u);
  // All payloads are the same size here, so every pool hit is a reuse and
  // the parked-buffer count is returns - reuses - trimmed; after the
  // teardown trim it must not exceed the observed peak demand.
  EXPECT_LE(stats.payloadPoolReturns - stats.payloadPoolReuses -
                stats.payloadPoolTrimmedBuffers,
            stats.payloadPoolLiveHighWater);
}

TEST(PayloadPool, UnreceivedPayloadsGoBackToThePoolWhenTheRunEnds) {
  // A message nobody receives dies with the run that sent it. Its pooled
  // buffer must come back, or the pool counts it as checked out for the
  // rest of the world's life and every later run inherits the peak.
  MpiWorld world(WorldConfig::tibidaboNode(), 4);
  const std::vector<std::byte> payload(4096, std::byte{0x3c});
  const WorldStats first = world.run([&](MpiContext& ctx) {
    if (ctx.rank() == 0) ctx.send(2, 9, payload.size(), payload);
  });
  EXPECT_EQ(first.payloadPooledMessages, 1u);
  EXPECT_EQ(first.payloadPoolReturns, 1u);
  EXPECT_EQ(first.payloadPoolLiveHighWater, 1u);
  for (int rerun = 1; rerun <= 2; ++rerun) {
    const WorldStats quiet = world.run([](MpiContext&) {});
    EXPECT_EQ(quiet.payloadPooledMessages, 0u) << "rerun " << rerun;
    EXPECT_EQ(quiet.payloadPoolLiveHighWater, 0u) << "rerun " << rerun;
  }
}

TEST(MessagePayloadStorage, InlineUpToCapacityPooledAbove) {
  PayloadPool pool;
  const std::vector<std::byte> small(MessagePayload::kInlineCapacity,
                                     std::byte{1});
  const std::vector<std::byte> big(MessagePayload::kInlineCapacity + 1,
                                   std::byte{2});
  MessagePayload inlined(small, pool);
  MessagePayload pooled(big, pool);
  EXPECT_FALSE(inlined.pooled());
  EXPECT_TRUE(pooled.pooled());
  EXPECT_EQ(pool.stats().inlineMessages, 1u);
  EXPECT_EQ(pool.stats().pooledMessages, 1u);
  EXPECT_EQ(pool.stats().allocations, 1u);

  // Moves hand over the storage and leave the source empty.
  MessagePayload moved(std::move(pooled));
  EXPECT_TRUE(moved.pooled());
  EXPECT_EQ(moved.size(), big.size());
  EXPECT_EQ(pooled.size(), 0u);  // NOLINT(bugprone-use-after-move)

  // intoVector hands the bytes to the caller and recycles the buffer.
  const std::vector<std::byte> out = moved.intoVector(pool);
  EXPECT_EQ(out, big);
  EXPECT_EQ(pool.stats().returns, 1u);
  EXPECT_EQ(pool.freeBuffers(), 1u);

  const std::vector<std::byte> outInline = inlined.intoVector(pool);
  EXPECT_EQ(outInline, small);
  EXPECT_EQ(pool.stats().returns, 1u);  // inline payloads touch no buffer
}

TEST_P(SimMpiTest, PayloadRoundTripsAcrossInlineBoundary) {
  // Byte-exact round trips on both storage paths, straddling the 64-byte
  // inline capacity (inline below, pooled above).
  for (const std::size_t bytes :
       {std::size_t{1}, MessagePayload::kInlineCapacity - 1,
        MessagePayload::kInlineCapacity, MessagePayload::kInlineCapacity + 1,
        std::size_t{4096}}) {
    MpiWorld world(testConfig(), 2);
    std::vector<std::byte> sent(bytes);
    for (std::size_t i = 0; i < bytes; ++i)
      sent[i] = static_cast<std::byte>(i * 37 + 11);
    std::vector<std::byte> got;
    const WorldStats stats = run(world, [&](MpiContext& ctx) {
      if (ctx.rank() == 0) {
        ctx.send(1, 5, sent.size(), sent);
      } else {
        got = ctx.recv(0, 5);
      }
    });
    EXPECT_EQ(got, sent) << bytes << " bytes";
    if (bytes <= MessagePayload::kInlineCapacity) {
      EXPECT_EQ(stats.payloadInlineMessages, 1u) << bytes << " bytes";
      EXPECT_EQ(stats.payloadPooledMessages, 0u) << bytes << " bytes";
    } else {
      EXPECT_EQ(stats.payloadPooledMessages, 1u) << bytes << " bytes";
      EXPECT_EQ(stats.payloadPoolReturns, 1u) << bytes << " bytes";
    }
  }
}

TEST_P(SimMpiTest, SteadyStatePooledSendsStopAllocating) {
  // The tentpole invariant: once the pool is warm, pooled sends are served
  // from recycled buffers — reuses grow, allocations stay at the warm-up
  // constant, and every pooled buffer comes back.
  MpiWorld world(testConfig(), 2);
  constexpr int kReps = 100;
  const WorldStats stats = run(world, [&](MpiContext& ctx) {
    std::vector<std::byte> payload(4096, std::byte{0x5a});
    const int peer = 1 - ctx.rank();
    const int sendTag = ctx.rank() == 0 ? 7 : 8;
    const int recvTag = ctx.rank() == 0 ? 8 : 7;
    for (int rep = 0; rep < kReps; ++rep) {
      ctx.send(peer, sendTag, payload.size(), payload);
      ctx.recv(peer, recvTag);
    }
  });
  EXPECT_EQ(stats.payloadPooledMessages, 2u * kReps);
  EXPECT_EQ(stats.payloadPoolReturns, stats.payloadPooledMessages);
  EXPECT_EQ(stats.payloadPoolReuses + stats.payloadPoolAllocations,
            stats.payloadPooledMessages);
  // Warm-up allocates at most one buffer per in-flight message direction;
  // everything after that is reuse.
  EXPECT_LE(stats.payloadPoolAllocations, 4u);
  EXPECT_GE(stats.payloadPoolReuses, 2u * kReps - 4u);
}

// ---------------------------------------------------------------------------
// Communicators: wildcard matching, split/dup, reductions, non-blocking
// collectives, and the task-farm proxy built on them.
// ---------------------------------------------------------------------------

class SimMpiCommunicatorTest : public SimMpiTest {};
TIBSIM_INSTANTIATE_BACKENDS(SimMpiCommunicatorTest);

TEST_P(SimMpiCommunicatorTest, WorldCommunicatorIsIdentity) {
  MpiWorld world(testConfig(), 4);
  run(world, [](MpiContext& ctx) {
    const Communicator comm = ctx.commWorld();
    EXPECT_TRUE(comm.isWorld());
    EXPECT_EQ(comm.id(), 0u);
    EXPECT_EQ(comm.rank(), ctx.rank());
    EXPECT_EQ(comm.size(), ctx.size());
    for (int r = 0; r < ctx.size(); ++r) {
      EXPECT_EQ(comm.worldRank(r), r);
      EXPECT_EQ(comm.commRankOf(r), r);
    }
  });
}

TEST_P(SimMpiCommunicatorTest, WildcardRecvReportsSourceAndTag) {
  MpiWorld world(testConfig(), 2);
  run(world, [](MpiContext& ctx) {
    const Communicator comm = ctx.commWorld();
    if (ctx.rank() == 0) {
      comm.sendDoubles(1, 17, std::vector<double>{3.5});
    } else {
      int src = -2;
      int tag = -2;
      const auto bytes =  // tibsim-lint: allow(wildcard-recv)
          comm.recv(kAnySource, kAnyTag, nullptr, &src, &tag);
      EXPECT_EQ(src, 0);
      EXPECT_EQ(tag, 17);
      EXPECT_EQ(bytes.size(), sizeof(double));
    }
  });
}

TEST_P(SimMpiCommunicatorTest, WildcardRecvIsDeterministicAcrossShards) {
  // Four senders race into one wildcard receiver; the matched (src, tag)
  // sequence must be identical on every run and on both hosts.
  auto sequence = [](Host host) {
    WorldConfig cfg = testConfig();
    cfg.topology.nodesPerLeafSwitch = 2;
    MpiWorld world(cfg, 5);
    std::vector<std::pair<int, int>> matched;
    runOn(host, world, [&](MpiContext& ctx) {
      const Communicator comm = ctx.commWorld();
      if (ctx.rank() == 0) {
        for (int i = 0; i < 4; ++i) {
          int src = -1;
          const std::vector<double> v =  // tibsim-lint: allow(wildcard-recv)
              comm.recvDoubles(kAnySource, 100, &src);
          ASSERT_EQ(v.size(), 1u);
          EXPECT_EQ(v[0], static_cast<double>(src));
          matched.emplace_back(src, 100);
        }
      } else {
        ctx.computeSeconds(1e-6 * (ctx.rank() % 3));
        comm.sendDoubles(0, 100,
                         std::vector<double>{static_cast<double>(ctx.rank())});
      }
    });
    return matched;
  };
  const auto base = sequence(GetParam());
  ASSERT_EQ(base.size(), 4u);
  EXPECT_EQ(sequence(GetParam()), base);  // rerun stability
  EXPECT_EQ(sequence(Host::Fiber), base);
  EXPECT_EQ(sequence(Host::Thread), base);
}

TEST_P(SimMpiCommunicatorTest, SplitOrdersMembersByKeyThenWorldRank) {
  MpiWorld world(testConfig(), 6);
  run(world, [](MpiContext& ctx) {
    const Communicator comm = ctx.commWorld();
    // Even/odd halves, keyed by descending world rank: comm-local order
    // inside each colour is reversed relative to world order.
    const Communicator half = comm.split(ctx.rank() % 2, -ctx.rank());
    ASSERT_FALSE(half.isNull());
    EXPECT_EQ(half.size(), 3);
    const std::vector<int> evens = {4, 2, 0};
    const std::vector<int> odds = {5, 3, 1};
    const auto& members = ctx.rank() % 2 == 0 ? evens : odds;
    for (int r = 0; r < 3; ++r) EXPECT_EQ(half.worldRank(r), members[r]);
    EXPECT_EQ(half.worldRank(half.rank()), ctx.rank());
    // Traffic stays comm-local even with clashing tags: neighbours in the
    // ring exchange on the same tag the world also uses elsewhere.
    const int peer = (half.rank() + 1) % half.size();
    const int from = (half.rank() + 2) % half.size();
    half.sendDoubles(peer, 5,
                     std::vector<double>{static_cast<double>(half.rank())});
    const std::vector<double> got = half.recvDoubles(from, 5);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0], static_cast<double>(from));
  });
}

TEST_P(SimMpiCommunicatorTest, SplitUndefinedColorYieldsNull) {
  MpiWorld world(testConfig(), 4);
  run(world, [](MpiContext& ctx) {
    const Communicator comm = ctx.commWorld();
    const Communicator leaders =
        comm.split(ctx.rank() == 0 ? 0 : kUndefinedColor, ctx.rank());
    if (ctx.rank() == 0) {
      ASSERT_FALSE(leaders.isNull());
      EXPECT_EQ(leaders.size(), 1);
      EXPECT_EQ(leaders.rank(), 0);
    } else {
      EXPECT_TRUE(leaders.isNull());
    }
  });
}

TEST_P(SimMpiCommunicatorTest, SplitMintsDistinctDeterministicIds) {
  auto ids = [this] {
    MpiWorld world(testConfig(), 4);
    std::vector<std::uint64_t> out;
    run(world, [&](MpiContext& ctx) {
      const Communicator comm = ctx.commWorld();
      const Communicator a = comm.split(ctx.rank() % 2, ctx.rank());
      const Communicator b = comm.split(0, ctx.rank());
      if (ctx.rank() == 0) out = {a.id(), b.id()};
    });
    return out;
  };
  const auto first = ids();
  ASSERT_EQ(first.size(), 2u);
  EXPECT_NE(first[0], 0u);
  EXPECT_NE(first[1], 0u);
  EXPECT_NE(first[0], first[1]);
  EXPECT_EQ(ids(), first);
}

TEST_P(SimMpiCommunicatorTest, DupIsolatesTrafficFromParent) {
  MpiWorld world(testConfig(), 2);
  run(world, [](MpiContext& ctx) {
    const Communicator comm = ctx.commWorld();
    const Communicator clone = comm.dup();
    EXPECT_NE(clone.id(), comm.id());
    EXPECT_EQ(clone.size(), comm.size());
    if (ctx.rank() == 0) {
      // Same destination, same tag, two communicators — delivery order
      // would cross-match them if matching ignored the communicator.
      comm.sendDoubles(1, 9, std::vector<double>{1.0});
      clone.sendDoubles(1, 9, std::vector<double>{2.0});
    } else {
      const std::vector<double> onClone = clone.recvDoubles(0, 9);
      const std::vector<double> onWorld = comm.recvDoubles(0, 9);
      ASSERT_EQ(onClone.size(), 1u);
      ASSERT_EQ(onWorld.size(), 1u);
      EXPECT_EQ(onClone[0], 2.0);
      EXPECT_EQ(onWorld[0], 1.0);
    }
  });
}

TEST_P(SimMpiCommunicatorTest, ReduceOpsMatchExpectedValues) {
  MpiWorld world(testConfig(), 4);
  run(world, [](MpiContext& ctx) {
    const Communicator comm = ctx.commWorld();
    const double mine = static_cast<double>(ctx.rank() + 1);  // 1..4
    EXPECT_DOUBLE_EQ(comm.allreduce(mine, ReduceOp::Sum), 10.0);
    EXPECT_DOUBLE_EQ(comm.allreduce(mine, ReduceOp::Min), 1.0);
    EXPECT_DOUBLE_EQ(comm.allreduce(mine, ReduceOp::Max), 4.0);
    EXPECT_DOUBLE_EQ(comm.allreduce(mine, ReduceOp::Prod), 24.0);
    const double values[2] = {mine, -mine};
    const std::vector<double> atRoot =
        comm.reduce(std::span<const double>(values, 2), ReduceOp::Max, 2);
    if (ctx.rank() == 2) {
      ASSERT_EQ(atRoot.size(), 2u);
      EXPECT_DOUBLE_EQ(atRoot[0], 4.0);
      EXPECT_DOUBLE_EQ(atRoot[1], -1.0);
    } else {
      EXPECT_TRUE(atRoot.empty());
    }
  });
}

TEST_P(SimMpiCommunicatorTest, ReduceAcceptsUserCombineFn) {
  MpiWorld world(testConfig(), 4);
  run(world, [](MpiContext& ctx) {
    const Communicator comm = ctx.commWorld();
    const double mine[1] = {static_cast<double>(ctx.rank() + 1)};
    // Commutative-associative user combiner: max of squares.
    const std::vector<double> got = comm.reduce(
        std::span<const double>(mine, 1),
        [](double a, double b) { return a * a > b * b ? a : b; }, 0);
    if (ctx.rank() == 0) {
      ASSERT_EQ(got.size(), 1u);
      EXPECT_DOUBLE_EQ(got[0], 4.0);
    }
  });
}

TEST_P(SimMpiCommunicatorTest, NonblockingCollectivesCompleteAtWait) {
  MpiWorld world(testConfig(), 4);
  run(world, [](MpiContext& ctx) {
    const Communicator comm = ctx.commWorld();
    const Communicator::Request barrier = comm.ibarrier();
    comm.wait(barrier);

    std::vector<double> payload;
    if (ctx.rank() == 1) payload = {2.5, -0.5};
    const Communicator::Request bcast = comm.ibcast(std::move(payload), 1);
    const std::vector<double> fromRoot = comm.waitDoubles(bcast);
    EXPECT_EQ(fromRoot, (std::vector<double>{2.5, -0.5}));

    const double mine[1] = {static_cast<double>(ctx.rank() + 1)};
    const Communicator::Request sum =
        comm.iallreduce(std::span<const double>(mine, 1), ReduceOp::Sum);
    const std::vector<double> total = comm.waitDoubles(sum);
    ASSERT_EQ(total.size(), 1u);
    EXPECT_DOUBLE_EQ(total[0], 10.0);
  });
}

TEST_P(SimMpiCommunicatorTest, CollectivesRunOnSplitCommunicators) {
  MpiWorld world(testConfig(), 6);
  run(world, [](MpiContext& ctx) {
    const Communicator comm = ctx.commWorld();
    const Communicator half = comm.split(ctx.rank() % 2, ctx.rank());
    half.barrier();
    const std::vector<double> all =
        half.allgather(static_cast<double>(ctx.rank()));
    ASSERT_EQ(all.size(), 3u);
    // Members in comm-local order are world ranks parity, parity+2, ...
    for (int r = 0; r < 3; ++r)
      EXPECT_DOUBLE_EQ(all[static_cast<std::size_t>(r)],
                       static_cast<double>(2 * r + ctx.rank() % 2));
    EXPECT_DOUBLE_EQ(half.allreduce(1.0, ReduceOp::Sum), 3.0);
  });
}

TEST_P(SimMpiCommunicatorTest, RecvDoublesReportsByteCountAndSource) {
  MpiWorld world(testConfig(), 2);
  try {
    run(world, [](MpiContext& ctx) {
      if (ctx.rank() == 0) {
        const std::vector<std::byte> raw(12, std::byte{0});
        ctx.send(1, 3, raw.size(), raw);
      } else {
        ctx.recvDoubles(0, 3);
      }
    });
    FAIL() << "recvDoubles accepted a 12-byte payload";
  } catch (const ContractError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("12-byte payload"), std::string::npos) << what;
    EXPECT_NE(what.find("from rank 0"), std::string::npos) << what;
  }
}

TEST_P(SimMpiCommunicatorTest, TaskFarmDistributesEveryTaskDeterministically) {
  auto distribution = [] {
    WorldConfig cfg = testConfig();
    cfg.topology.nodesPerLeafSwitch = 2;
    MpiWorld world(cfg, 9);
    apps::TaskFarm::Params params;
    params.tasks = 40;
    std::vector<std::uint64_t> perWorker;
    params.tasksPerWorkerOut = &perWorker;
    run(world, apps::TaskFarm::rankBody(params));
    return perWorker;
  };
  const std::vector<std::uint64_t> base = distribution();
  ASSERT_EQ(base.size(), 9u);
  EXPECT_EQ(base[0], 0u);  // the master serves, it does not compute
  std::uint64_t total = 0;
  for (std::uint64_t n : base) total += n;
  EXPECT_EQ(total, 40u);
  for (std::size_t w = 1; w < base.size(); ++w)
    EXPECT_GE(base[w], 1u) << "worker " << w << " starved";
  EXPECT_EQ(distribution(), base);  // rerun stability
}

TEST_P(SimMpiTest, DeterministicAcrossRuns) {
  auto once = [] {
    MpiWorld world(testConfig(2, net::Protocol::OpenMx), 8);
    const auto stats = run(world, [](MpiContext& ctx) {
      ctx.computeSeconds(1e-4 * (ctx.rank() % 3));
      ctx.allreduce(1.0, ReduceOp::Sum);
      ctx.alltoallBytes(10000);
      ctx.barrier();
    });
    return stats.wallClockSeconds;
  };
  EXPECT_DOUBLE_EQ(once(), once());
}

}  // namespace
}  // namespace tibsim::mpi
