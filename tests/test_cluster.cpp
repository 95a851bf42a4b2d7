// Tests for the cluster layer: the Tibidabo spec, job running, energy
// accounting, and small distributed app runs.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "stack_mappings.hpp"
#include "tibsim/apps/hpl.hpp"
#include "tibsim/apps/hydro.hpp"
#include "tibsim/cluster/cluster.hpp"
#include "tibsim/common/assert.hpp"
#include "tibsim/common/units.hpp"
#include "tibsim/sim/simulation.hpp"

namespace tibsim::cluster {
namespace {

using namespace units;

TEST(ClusterSpec, TibidaboMatchesPaper) {
  const ClusterSpec spec = ClusterSpec::tibidabo();
  EXPECT_EQ(spec.nodes, 192);
  EXPECT_EQ(spec.nodePlatform.shortName, "Tegra2");
  EXPECT_EQ(spec.ranksPerNode, 2);
  EXPECT_EQ(spec.protocol, net::Protocol::TcpIp);
  EXPECT_DOUBLE_EQ(spec.topology.linkRateBytesPerS, gbps(1.0));
  EXPECT_DOUBLE_EQ(spec.topology.bisectionBytesPerS, gbps(8.0));
}

TEST(ClusterSpec, TibidaboScaledKeepsNodeAndGrowsBisection) {
  const ClusterSpec base = ClusterSpec::tibidabo();
  const ClusterSpec big = ClusterSpec::tibidaboScaled(1024);
  EXPECT_EQ(big.nodes, 1024);
  EXPECT_EQ(big.ranksPerNode, base.ranksPerNode);
  EXPECT_EQ(big.nodePlatform.shortName, base.nodePlatform.shortName);
  EXPECT_DOUBLE_EQ(big.topology.linkRateBytesPerS,
                   base.topology.linkRateBytesPerS);
  // Bisection scales with node count so oversubscription stays at the
  // prototype's ratio rather than collapsing at 1024 nodes.
  EXPECT_DOUBLE_EQ(big.topology.bisectionBytesPerS,
                   gbps(8.0 * 1024.0 / 192.0));
  // At or below the prototype size the spec matches the real machine.
  EXPECT_DOUBLE_EQ(ClusterSpec::tibidaboScaled(128).topology.bisectionBytesPerS,
                   gbps(8.0));
  EXPECT_EQ(ClusterSpec::tibidaboScaled(128).nodes, 128);
}

TEST(ClusterSpec, OpenMxVariantDiffersOnlyInProtocol) {
  const ClusterSpec a = ClusterSpec::tibidabo();
  const ClusterSpec b = ClusterSpec::tibidaboOpenMx();
  EXPECT_EQ(b.protocol, net::Protocol::OpenMx);
  EXPECT_EQ(a.nodes, b.nodes);
  EXPECT_EQ(a.nodePlatform.shortName, b.nodePlatform.shortName);
}

TEST(ClusterSim, JobProducesSensibleEnergyAccounting) {
  ClusterSimulation sim(ClusterSpec::tibidabo());
  const JobResult result = sim.runJob(4, [](mpi::MpiContext& ctx) {
    ctx.computeSeconds(0.5);
    ctx.barrier();
  });
  EXPECT_EQ(result.nodes, 4);
  EXPECT_EQ(result.ranks, 8);
  EXPECT_GT(result.wallClockSeconds, 0.5);
  EXPECT_GT(result.energyJ, 0.0);
  // 4 Tegra2 nodes: static power alone is ~27 W; busy adds a little.
  EXPECT_GT(result.averagePowerW, 4 * 6.0);
  EXPECT_LT(result.averagePowerW, 4 * 12.0);
}

TEST(ClusterSim, IdleJobStillPaysStaticPower) {
  ClusterSimulation sim(ClusterSpec::tibidabo());
  const JobResult busy = sim.runJob(2, [](mpi::MpiContext& ctx) {
    ctx.computeSeconds(1.0);
  });
  const JobResult idle = sim.runJob(2, [](mpi::MpiContext& ctx) {
    if (ctx.rank() == 0) ctx.computeSeconds(1.0);
  });
  EXPECT_GT(busy.energyJ, idle.energyJ);
  EXPECT_GT(idle.energyJ, 0.5 * busy.energyJ);  // static dominates
}

TEST(ClusterSim, RejectsOversizedJob) {
  ClusterSimulation sim(ClusterSpec::tibidabo());
  EXPECT_THROW(sim.runJob(193, [](mpi::MpiContext&) {}), ContractError);
}

TEST(ClusterSim, PeakGflopsScalesWithNodes) {
  ClusterSimulation sim(ClusterSpec::tibidabo());
  const auto r2 = sim.runJob(2, [](mpi::MpiContext& ctx) {
    ctx.computeSeconds(0.01);
  });
  const auto r8 = sim.runJob(8, [](mpi::MpiContext& ctx) {
    ctx.computeSeconds(0.01);
  });
  EXPECT_NEAR(r8.peakGflops / r2.peakGflops, 4.0, 1e-9);
  EXPECT_NEAR(r2.peakGflops, 2.0 * 2, 1e-9);  // 2 GFLOPS per Tegra2 node
}

TEST(ClusterSim, SmallHplRunsAndReportsEfficiency) {
  ClusterSimulation sim(ClusterSpec::tibidabo());
  const JobResult result = apps::HplBenchmark::run(sim, 2, 0.05);
  EXPECT_GT(result.gflops, 0.0);
  EXPECT_GT(result.efficiency(), 0.2);
  EXPECT_LT(result.efficiency(), 0.7);
  EXPECT_GT(result.mflopsPerWatt, 20.0);
  EXPECT_LT(result.mflopsPerWatt, 400.0);
}

// One deep world's engine counters, pinned exactly: 1,024 HPL ranks on one
// event queue, four panels wide. The values are goldens from an engine
// without the latency-hiding prefetch (DESIGN.md decision 14): how the loop
// reaches its events may not move them. A change here is a behaviour
// change, not noise; a deliberate one updates the values and says why.
TEST(ClusterSim, DeepHplWorldEngineCountersArePinned) {
  ClusterSimulation sim(ClusterSpec::tibidaboScaled(512));
  apps::HplBenchmark::Params params;
  params.nb = 512;
  params.n = 4 * params.nb;
  const JobResult result =
      sim.runJob(512, apps::HplBenchmark::rankBody(params));
  ASSERT_EQ(result.ranks, 1024);
  const sim::EngineStats& engine = result.stats.engine;
  EXPECT_EQ(engine.eventsDispatched, 59377u);
  EXPECT_EQ(engine.contextSwitches, 42999u);
  EXPECT_EQ(engine.queueHighWater, 1024u);
  EXPECT_EQ(engine.peakLiveProcesses, 1024u);
  EXPECT_EQ(result.stats.messageCount, 16378u);
  // 0.5983528580229593 s, compared bit for bit.
  EXPECT_EQ(std::bit_cast<std::uint64_t>(engine.simSeconds),
            0x3fe325b4e495a7deull);
}

TEST(ClusterSim, HydroStrongScalingImprovesWallclock) {
  ClusterSimulation sim(ClusterSpec::tibidabo());
  apps::HydroBenchmark::Params params;
  params.nx = 512;
  params.ny = 512;
  params.steps = 3;
  const auto r2 = sim.runJob(2, apps::HydroBenchmark::rankBody(params));
  const auto r8 = sim.runJob(8, apps::HydroBenchmark::rankBody(params));
  EXPECT_LT(r8.wallClockSeconds, r2.wallClockSeconds);
  // ...but sublinearly (halo + allreduce overhead).
  EXPECT_GT(r8.wallClockSeconds, r2.wallClockSeconds / 4.0 * 0.8);
}

TEST(ClusterSim, ArndaleClusterUsesUsbNic) {
  const ClusterSpec spec = ClusterSpec::arndaleCluster(8);
  EXPECT_EQ(spec.nodePlatform.nicAttachment, arch::NicAttachment::Usb3);
  ClusterSimulation sim(spec);
  const auto result = sim.runJob(2, [](mpi::MpiContext& ctx) {
    if (ctx.rank() == 0) ctx.send(2, 1, 64);  // rank 2 = node 1
    if (ctx.rank() == 2) ctx.recv(0, 1);
  });
  EXPECT_GT(result.wallClockSeconds, 80e-6);  // USB-laden small message
}

// Private fiber stacks are capped per host process, not per world. Worlds
// below kPooledStacksMinRanks ranks each, live at once as in a campaign at
// --jobs 32, must not together map more than the cap: at 2 VMAs a stack
// they would exhaust vm.max_map_count, and the next guard mprotect would
// fail mid-spawn. Past the cap a rank runs on a pooled stack. (CI's TSan
// job does not run this binary: TSan cannot hold this many fibers.)
TEST(FiberStacks, LiveWorldsMapAtMostTheCapOfPrivateStacks) {
  constexpr int kWorlds = 3;
  constexpr int kRanks = sim::kPooledStacksMinRanks / 2;
  std::vector<std::unique_ptr<sim::Simulation>> worlds;
  int finished = 0;
  for (int w = 0; w < kWorlds; ++w) {
    sim::Simulation& world =
        *worlds.emplace_back(std::make_unique<sim::Simulation>());
    for (int r = 0; r < kRanks; ++r)
      world.spawn(std::string("r").append(std::to_string(r)),
                  [&finished](sim::Process& p) {
                    p.delay(1.0);
                    ++finished;
                  });
  }
  EXPECT_LE(testmaps::privateStackMappings(),
            static_cast<std::size_t>(sim::kPooledStacksMinRanks));
  for (auto& world : worlds) world->run();
  EXPECT_EQ(finished, kWorlds * kRanks);
}

}  // namespace
}  // namespace tibsim::cluster
