#pragma once
// Cluster-level simulation: a named machine built from identical SoC nodes
// and a switched Ethernet tree, with whole-cluster energy integration.
// ClusterSpec::tibidabo() reproduces the paper's 192-node Tegra 2 machine.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

#include "tibsim/arch/platform.hpp"
#include "tibsim/mpi/simmpi.hpp"
#include "tibsim/net/fabric.hpp"
#include "tibsim/net/protocol.hpp"

namespace tibsim::cluster {

struct ClusterSpec {
  std::string name;
  arch::Platform nodePlatform;
  int nodes = 1;
  double frequencyHz = 0.0;  ///< 0 = platform maximum
  net::Protocol protocol = net::Protocol::TcpIp;
  int ranksPerNode = 1;
  net::TopologySpec topology;  ///< .nodes is filled per job

  /// Fraction of node DRAM usable by an application (the rest is OS, MPI
  /// buffers, NFS cache — Tibidabo nodes ran a full Debian).
  double usableMemoryFraction = 0.75;

  /// The paper's prototype: 192 SECO Q7 Tegra 2 boards, 1 GbE tree of
  /// 48-port switches, 8 Gb/s bisection, MPI over TCP/IP, 2 ranks/node.
  static ClusterSpec tibidabo();

  /// Variant with Open-MX instead of TCP/IP (the Section 4.1 ablation).
  static ClusterSpec tibidaboOpenMx();

  /// A Tibidabo-style machine scaled to `nodes` (same Tegra 2 boards, same
  /// switched tree recipe, bisection grown proportionally with the leaf
  /// count so the fabric keeps the prototype's oversubscription ratio).
  /// The paper's own arguments assume such machines — §6.3's ECC estimate
  /// uses 1,500 nodes — so this is the spec behind `scale_bigcluster`.
  static ClusterSpec tibidaboScaled(int nodes);

  /// Hypothetical Exynos 5250 cluster (Arndale boards, USB-attached GbE).
  static ClusterSpec arndaleCluster(int nodes);

  double usableBytesPerNode() const {
    return static_cast<double>(nodePlatform.dramBytes) * usableMemoryFraction;
  }
};

/// Outcome of one job on the cluster.
struct JobResult {
  mpi::WorldStats stats;
  int nodes = 0;
  int ranks = 0;
  double wallClockSeconds = 0.0;
  double energyJ = 0.0;        ///< whole-cluster energy over the job
  double averagePowerW = 0.0;  ///< whole-cluster average draw
  double gflops = 0.0;         ///< achieved (totalFlops / wallclock)
  double peakGflops = 0.0;     ///< nodes x per-node peak at job frequency
  double mflopsPerWatt = 0.0;  ///< the Green500 metric

  double efficiency() const {
    return peakGflops > 0.0 ? gflops / peakGflops : 0.0;
  }
};

/// Per-job observability knobs for ClusterSimulation::runJob. The world a
/// job runs on is built and torn down inside runJob, so anything that must
/// inspect it (the tracer, above all) goes through the observer callback.
struct JobOptions {
  /// Record spans during the job; the recording mode comes from the
  /// process-wide default (obs::defaultTraceMode / --trace-mode).
  bool enableTracing = false;
  std::uint64_t traceSeed = 0;      ///< sampled-mode reservoir seed
  std::size_t fiberStackBytes = 0;  ///< per-rank stack override (0 = default)
  /// Called once, after the run, while the world (and its tracer) is still
  /// alive.
  std::function<void(const mpi::MpiWorld&, const JobResult&)> observer;
};

class ClusterSimulation {
 public:
  explicit ClusterSimulation(ClusterSpec spec);

  /// Run `body` on `nodesUsed` nodes (ranks = nodesUsed * ranksPerNode).
  JobResult runJob(int nodesUsed, const mpi::MpiWorld::RankBody& body);

  /// As above, with tracing/stack-telemetry options.
  JobResult runJob(int nodesUsed, const mpi::MpiWorld::RankBody& body,
                   const JobOptions& options);

  const ClusterSpec& spec() const { return spec_; }
  double frequencyHz() const;

 private:
  ClusterSpec spec_;
};

/// Probe-then-sweep stack auto-sizing: run `body` once on a `probeNodes`
/// slice of `spec`, read the fiber stack high-water telemetry, and return
/// sim::recommendedStackBytes(hwm) — the value to put in
/// JobOptions::fiberStackBytes for the full-scale sweep. Returns 0 (keep
/// the engine default) when the probe recorded no stack use. The result
/// depends on the host ABI, so use it only for runtime sizing — never serialise it into
/// campaign artefacts. When `probeResult` is non-null the probe job's
/// JobResult is copied out so callers can fold its (deterministic) world
/// accounting into their experiment totals.
std::size_t autoFiberStackBytes(const ClusterSpec& spec, int probeNodes,
                                const mpi::MpiWorld::RankBody& body,
                                JobResult* probeResult = nullptr);

}  // namespace tibsim::cluster
