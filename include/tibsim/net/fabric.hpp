#pragma once
// Switched-Ethernet fabric model: the Tibidabo network is a tree of 48-port
// 1 GbE switches with 8 Gb/s bisection bandwidth and at most three switch
// hops (Section 4). The fabric owns per-node uplink/downlink occupancy and
// a shared core capacity so concurrent transfers contend realistically.

#include <cstdint>
#include <vector>

#include "tibsim/common/assert.hpp"
#include "tibsim/obs/link_stats.hpp"

namespace tibsim::net {

struct TopologySpec {
  int nodes = 2;
  int nodesPerLeafSwitch = 32;         ///< ports used for nodes on each leaf
  double linkRateBytesPerS = 125.0e6;  ///< 1 GbE
  double bisectionBytesPerS = 1.0e9;   ///< 8 Gb/s core capacity
  double switchLatency = 2.0e-6;       ///< per-hop cut-through latency
};

/// Tracks wire-level occupancy. Not tied to the DES: callers pass the
/// current simulated time and get back the arrival time; the class keeps
/// per-resource next-free bookkeeping, which is valid because simulation
/// events execute in time order.
class Fabric {
 public:
  /// `telemetry` enables the per-link counter blocks; the structural
  /// occupancy model (and every arrival time) is identical either way.
  explicit Fabric(TopologySpec spec, bool telemetry = true);

  /// Reserve the path src -> dst for `wireBytes` starting no earlier than
  /// `startTime`; returns the time the last byte arrives at dst's NIC.
  double scheduleWire(int src, int dst, double wireBytes, double startTime);

  /// Switch hops between two nodes (1 within a leaf, 3 across the core).
  int hopCount(int src, int dst) const;

  bool sameLeaf(int src, int dst) const;

  const TopologySpec& spec() const { return spec_; }
  double totalWireBytes() const { return totalWireBytes_; }
  std::uint64_t transferCount() const { return transferCount_; }
  /// Total time transfers spent queued behind busy links (contention).
  double totalQueueingSeconds() const { return totalQueueingSeconds_; }

  bool telemetryEnabled() const { return telemetry_; }

  /// Per-link occupancy counters folded per link class. Every counter is
  /// zero when the fabric was built with telemetry disabled.
  obs::LinkStats linkStats() const;

 private:
  struct Resource {
    double rateBytesPerS = 0.0;
    double nextFree = 0.0;
    // Telemetry block (only written when telemetry_ is set).
    double busySeconds = 0.0;
    double bytes = 0.0;
    double queueSeconds = 0.0;
    std::uint64_t transfers = 0;
  };

  /// Serialise through one resource; returns completion time. Queueing
  /// delay for this occupancy lands in `delayHistogram`.
  double occupy(Resource& resource, obs::DurationHistogram& delayHistogram,
                double bytes, double earliest);

  static void fold(const Resource& resource, obs::LinkKindCounters& into);

  TopologySpec spec_;
  bool telemetry_;
  std::vector<Resource> uplink_;    // node NIC -> leaf switch
  std::vector<Resource> downlink_;  // leaf switch -> node NIC
  Resource core_;                   // shared bisection capacity
  obs::DurationHistogram uplinkDelay_;
  obs::DurationHistogram coreDelay_;
  obs::DurationHistogram downlinkDelay_;
  double totalWireBytes_ = 0.0;
  double totalQueueingSeconds_ = 0.0;
  std::uint64_t transferCount_ = 0;
};

}  // namespace tibsim::net
