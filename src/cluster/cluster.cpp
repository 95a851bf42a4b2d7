#include "tibsim/cluster/cluster.hpp"

#include <algorithm>

#include "tibsim/arch/registry.hpp"
#include "tibsim/common/assert.hpp"
#include "tibsim/common/units.hpp"
#include "tibsim/power/power_model.hpp"

namespace tibsim::cluster {

using namespace tibsim::units;

ClusterSpec ClusterSpec::tibidabo() {
  ClusterSpec spec;
  spec.name = "Tibidabo";
  spec.nodePlatform = arch::PlatformRegistry::tegra2();
  spec.nodes = 192;
  spec.frequencyHz = spec.nodePlatform.maxFrequencyHz();
  spec.protocol = net::Protocol::TcpIp;
  spec.ranksPerNode = 2;
  spec.topology.nodesPerLeafSwitch = 32;
  spec.topology.linkRateBytesPerS = gbps(1.0);
  spec.topology.bisectionBytesPerS = gbps(8.0);
  spec.topology.switchLatency = 2.0e-6;
  return spec;
}

ClusterSpec ClusterSpec::tibidaboOpenMx() {
  ClusterSpec spec = tibidabo();
  spec.name = "Tibidabo (Open-MX)";
  spec.protocol = net::Protocol::OpenMx;
  return spec;
}

ClusterSpec ClusterSpec::tibidaboScaled(int nodes) {
  TIB_REQUIRE(nodes >= 1);
  ClusterSpec spec = tibidabo();
  spec.name = "Tibidabo x" + std::to_string(nodes);
  spec.nodes = nodes;
  // Keep the prototype's oversubscription: 8 Gb/s of bisection per 192
  // nodes (a fatter spine for a bigger tree, never thinner than the real
  // machine's).
  spec.topology.bisectionBytesPerS =
      std::max(gbps(8.0), gbps(8.0 * static_cast<double>(nodes) / 192.0));
  return spec;
}

ClusterSpec ClusterSpec::arndaleCluster(int nodes) {
  ClusterSpec spec;
  spec.name = "Arndale cluster";
  spec.nodePlatform = arch::PlatformRegistry::exynos5250();
  spec.nodes = nodes;
  spec.frequencyHz = spec.nodePlatform.maxFrequencyHz();
  spec.protocol = net::Protocol::OpenMx;
  spec.ranksPerNode = 2;
  spec.topology.nodesPerLeafSwitch = 32;
  spec.topology.linkRateBytesPerS = gbps(1.0);
  spec.topology.bisectionBytesPerS = gbps(8.0);
  return spec;
}

ClusterSimulation::ClusterSimulation(ClusterSpec spec)
    : spec_(std::move(spec)) {
  TIB_REQUIRE(spec_.nodes >= 1);
}

double ClusterSimulation::frequencyHz() const {
  return spec_.frequencyHz > 0.0 ? spec_.frequencyHz
                                 : spec_.nodePlatform.maxFrequencyHz();
}

JobResult ClusterSimulation::runJob(int nodesUsed,
                                    const mpi::MpiWorld::RankBody& body) {
  return runJob(nodesUsed, body, JobOptions{});
}

JobResult ClusterSimulation::runJob(int nodesUsed,
                                    const mpi::MpiWorld::RankBody& body,
                                    const JobOptions& options) {
  TIB_REQUIRE(nodesUsed >= 1 && nodesUsed <= spec_.nodes);

  mpi::WorldConfig cfg;
  cfg.platform = spec_.nodePlatform;
  cfg.frequencyHz = frequencyHz();
  cfg.protocol = spec_.protocol;
  cfg.ranksPerNode = spec_.ranksPerNode;
  cfg.topology = spec_.topology;
  cfg.traceSeed = options.traceSeed;

  const int ranks = nodesUsed * spec_.ranksPerNode;
  mpi::MpiWorld world(cfg, ranks);
  if (options.enableTracing) world.enableTracing();
  JobResult result;
  result.stats = world.run(body);
  result.nodes = nodesUsed;
  result.ranks = ranks;
  result.wallClockSeconds = result.stats.wallClockSeconds;

  // Whole-cluster energy: every participating node draws its static power
  // for the full job; busy core-seconds add dynamic power; DRAM traffic and
  // NIC activity add their shares. Nodes run the "performance" governor, so
  // idle cores still sit at the job frequency (as on the real machine).
  const power::PowerModel powerModel(spec_.nodePlatform);
  const double f = frequencyHz();
  const auto& pp = spec_.nodePlatform.power;
  double energy = 0.0;
  for (int nd = 0; nd < result.stats.nodes; ++nd) {
    const double busy =
        result.stats.nodeBusySeconds[static_cast<std::size_t>(nd)];
    energy += result.wallClockSeconds * (pp.boardStaticW + pp.socStaticW);
    energy += busy * powerModel.coreDynamicWatts(f);
    energy += result.stats.nodeCommCpuSeconds[static_cast<std::size_t>(nd)] *
              pp.nicActiveW;
  }
  energy += (result.stats.totalDramBytes / kGB) * pp.memDynamicWPerGBs;

  result.energyJ = energy;
  result.averagePowerW =
      result.wallClockSeconds > 0.0 ? energy / result.wallClockSeconds : 0.0;
  result.gflops = toGflops(result.stats.achievedFlopsPerSecond());
  result.peakGflops =
      toGflops(spec_.nodePlatform.soc.peakFlops(f, spec_.nodePlatform.soc.cores)) *
      nodesUsed;
  if (result.averagePowerW > 0.0 && result.wallClockSeconds > 0.0) {
    result.mflopsPerWatt = power::mflopsPerWatt(
        result.stats.totalFlops, result.wallClockSeconds,
        result.averagePowerW);
  }
  if (options.observer) options.observer(world, result);
  return result;
}

}  // namespace tibsim::cluster
