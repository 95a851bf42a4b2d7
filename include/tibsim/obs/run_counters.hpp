#pragma once
// Deterministic per-world accounting rolled up across an experiment. Every
// simMPI world a campaign builds — traced or not — contributes one
// RunCounters record, so campaign artefacts account for all message traffic
// and trace memory, not just the worlds an experiment chose to showcase
// (the imb_suite under-reporting the ROADMAP called out).
//
// All fields are functions of the simulated run only (no host clocks, no
// allocator introspection), so they are safe to serialise into the
// byte-identical campaign JSON/CSV.

#include <algorithm>
#include <cstdint>

#include "tibsim/obs/critical_path.hpp"
#include "tibsim/obs/link_stats.hpp"

namespace tibsim::obs {

struct RunCounters {
  std::uint64_t worlds = 0;  ///< simMPI worlds accounted
  std::uint64_t messages = 0;
  /// Collective-verifier stamp comparisons (mpi/collective_verify.hpp);
  /// zero unless the runs executed with --verify-collectives.
  std::uint64_t collectiveChecks = 0;
  double payloadBytes = 0.0;
  double wireBytes = 0.0;
  std::uint64_t spansRecorded = 0;  ///< spans seen by trace sinks
  std::uint64_t spansRetained = 0;  ///< spans still resident after the runs
  std::uint64_t traceMemoryPeakBytes = 0;  ///< largest single-world sink
  // Payload memory behaviour (see mpi/payload_pool.hpp): how many messages
  // carried real bytes inline vs in a pooled buffer, and whether the pool
  // served sends from warm buffers (reuses) or had to allocate.
  std::uint64_t payloadInlineMessages = 0;
  std::uint64_t payloadPooledMessages = 0;
  std::uint64_t payloadPoolReuses = 0;
  std::uint64_t payloadPoolAllocations = 0;
  std::uint64_t payloadPoolReturns = 0;
  std::uint64_t payloadPoolTrimmedBuffers = 0;  ///< freed at teardown trims
  std::uint64_t payloadPoolLiveHighWater = 0;   ///< worst single-world peak
  /// Per-link-kind fabric telemetry summed across worlds (net/fabric.hpp).
  LinkStats links;
  /// Sim-time critical-path attribution summed across worlds
  /// (obs/critical_path.hpp); endRank survives only single-world roll-ups.
  CriticalPath criticalPath;

  /// Fold another record into this one. Sums and maxes only, so the total
  /// is order-independent up to floating-point rounding; accumulate in a
  /// canonical order (ExperimentContext does) for byte-determinism.
  void accumulate(const RunCounters& other) {
    worlds += other.worlds;
    messages += other.messages;
    collectiveChecks += other.collectiveChecks;
    payloadBytes += other.payloadBytes;
    wireBytes += other.wireBytes;
    spansRecorded += other.spansRecorded;
    spansRetained += other.spansRetained;
    traceMemoryPeakBytes =
        std::max(traceMemoryPeakBytes, other.traceMemoryPeakBytes);
    payloadInlineMessages += other.payloadInlineMessages;
    payloadPooledMessages += other.payloadPooledMessages;
    payloadPoolReuses += other.payloadPoolReuses;
    payloadPoolAllocations += other.payloadPoolAllocations;
    payloadPoolReturns += other.payloadPoolReturns;
    payloadPoolTrimmedBuffers += other.payloadPoolTrimmedBuffers;
    payloadPoolLiveHighWater =
        std::max(payloadPoolLiveHighWater, other.payloadPoolLiveHighWater);
    links.accumulate(other.links);
    criticalPath.accumulate(other.criticalPath);
  }
};

}  // namespace tibsim::obs
