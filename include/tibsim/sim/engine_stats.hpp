#pragma once
// Observability counters for the discrete-event engine.
//
// Every Simulation tracks how much machinery it turned over: events
// dispatched, process context switches, peak concurrently-live processes,
// the event-queue high-water mark, and how much host wall-clock each
// simulated second cost. Everything except `hostSeconds` is deterministic
// and safe to serialise into campaign artefacts. `hostSeconds` is a host
// measurement and must stay out of the byte-identical JSON; it only feeds
// the human-facing run summary.

#include <algorithm>
#include <cstddef>
#include <cstdint>

namespace tibsim::sim {

struct EngineStats {
  std::uint64_t eventsDispatched = 0;
  std::uint64_t contextSwitches = 0;
  std::uint64_t processesSpawned = 0;
  std::size_t peakLiveProcesses = 0;
  std::size_t queueHighWater = 0;
  double simSeconds = 0.0;
  double hostSeconds = 0.0;  // wall-clock; nondeterministic, never serialised
  /// Largest per-process fiber stack configured.
  std::size_t fiberStackBytes = 0;
  /// Deepest fiber stack use observed across all finished processes
  /// (page-granular: lowest resident stack page to the stack top). Depends
  /// on compiler frame layout, so — like hostSeconds — it feeds the run
  /// summary, never the serialised artefacts.
  std::size_t stackHighWaterBytes = 0;
  // Always 0: the event loop is one queue per world. perfbench's engineJson
  // (perfbench/src/main.cpp) still reads these six fields for its
  // sim.shard.* metrics, so they stay until the benchmark drops them.
  std::uint64_t shardWindows = 0;
  std::uint64_t shardParallelWindows = 0;
  std::uint64_t shardBarrierCalls = 0;
  std::uint64_t shardBarrierSkips = 0;
  std::uint64_t shardMergeRecords = 0;
  double shardBarrierHostSeconds = 0.0;

  /// Fold another simulation's stats into this one. Order-independent
  /// (sums and maxes only) so accumulation across parallelFor cells yields
  /// the same totals for any --jobs value.
  void accumulate(const EngineStats& other) {
    eventsDispatched += other.eventsDispatched;
    contextSwitches += other.contextSwitches;
    processesSpawned += other.processesSpawned;
    peakLiveProcesses = std::max(peakLiveProcesses, other.peakLiveProcesses);
    queueHighWater = std::max(queueHighWater, other.queueHighWater);
    simSeconds += other.simSeconds;
    hostSeconds += other.hostSeconds;
    fiberStackBytes = std::max(fiberStackBytes, other.fiberStackBytes);
    stackHighWaterBytes =
        std::max(stackHighWaterBytes, other.stackHighWaterBytes);
  }

  /// Host wall-clock cost per simulated second (0 when nothing simulated).
  double hostSecondsPerSimSecond() const {
    return simSeconds > 0.0 ? hostSeconds / simSeconds : 0.0;
  }
};

}  // namespace tibsim::sim
