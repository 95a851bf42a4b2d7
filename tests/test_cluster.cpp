// Tests for the cluster layer: the Tibidabo spec, job running, energy
// accounting, and small distributed app runs.

#include <gtest/gtest.h>

#include "tibsim/apps/hpl.hpp"
#include "tibsim/apps/hydro.hpp"
#include "tibsim/cluster/cluster.hpp"
#include "tibsim/common/assert.hpp"
#include "tibsim/common/units.hpp"

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

}  // namespace
}  // namespace tibsim::cluster
