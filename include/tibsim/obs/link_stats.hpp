#pragma once
// Per-link fabric telemetry — which wire actually saturated.
//
// The fabric keeps one counter block per physical resource (every node
// uplink, every node downlink, the shared core), so memory is O(links).
// For export they are folded into one LinkKindCounters per link class:
// scalar totals plus the busiest single link, and a log2 queueing-delay
// histogram per class (per-link histograms would cost ~10 KiB/node at
// 32,768 nodes for no analytic gain — contention is a class property).
//
// Everything here is derived from simulated time only, and every
// scheduleWire call is made in the event queue's dispatch order, so the
// counters are deterministic and safe to serialise into artefacts.

#include <cstdint>

#include "tibsim/obs/trace_sink.hpp"

namespace tibsim::obs {

/// Aggregated occupancy counters for one class of fabric link.
struct LinkKindCounters {
  double busySeconds = 0.0;   ///< serialisation time summed over links
  double bytes = 0.0;         ///< wire bytes pushed through this class
  std::uint64_t transfers = 0;  ///< occupancies (one per hop traversal)
  double queueSeconds = 0.0;  ///< time transfers waited for a busy link
  double maxLinkBusySeconds = 0.0;  ///< busiest single link of the class
  DurationHistogram queueDelay;     ///< log2 buckets of per-transfer delay

  void accumulate(const LinkKindCounters& other) {
    busySeconds += other.busySeconds;
    bytes += other.bytes;
    transfers += other.transfers;
    queueSeconds += other.queueSeconds;
    if (other.maxLinkBusySeconds > maxLinkBusySeconds)
      maxLinkBusySeconds = other.maxLinkBusySeconds;
    for (int b = 0; b < DurationHistogram::kBuckets; ++b)
      queueDelay.counts[static_cast<std::size_t>(b)] +=
          other.queueDelay.counts[static_cast<std::size_t>(b)];
  }
};

/// Per-world link telemetry, one counter block per link class.
struct LinkStats {
  LinkKindCounters uplink;    ///< node NIC -> leaf switch
  LinkKindCounters core;      ///< shared bisection capacity
  LinkKindCounters downlink;  ///< leaf switch -> node NIC

  void accumulate(const LinkStats& other) {
    uplink.accumulate(other.uplink);
    core.accumulate(other.core);
    downlink.accumulate(other.downlink);
  }

  std::uint64_t transfers() const {
    return uplink.transfers + core.transfers + downlink.transfers;
  }
  bool any() const { return transfers() > 0; }
};

}  // namespace tibsim::obs
