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
  /// (pattern-scan high-water mark). Depends on compiler frame layout, so —
  /// like hostSeconds — it feeds the run summary, never the serialised
  /// artefacts.
  std::size_t stackHighWaterBytes = 0;
  // Sharded-engine counters (1 / 0 / 0 on the single-queue engine). Window
  // counts depend on how work happened to spread over shards, so — like
  // hostSeconds — they feed the run summary only, never the serialised
  // artefacts.
  std::size_t shardCount = 1;       ///< logical-process shards in the run
  std::uint64_t shardWindows = 0;   ///< conservative windows executed
  std::uint64_t shardParallelWindows = 0;  ///< windows with >1 active shard
  // Shard-gang profiling (zero on the single-queue engine): what the
  // window barriers actually cost and how much merge work they did, so
  // --sim-shards tuning is measurable. Barrier host time is wall-clock and
  // stays out of serialised artefacts, like hostSeconds.
  std::uint64_t shardBarrierCalls = 0;  ///< barriers that ran a merge
  std::uint64_t shardBarrierSkips = 0;  ///< barriers batched away (no merge)
  std::uint64_t shardMergeRecords = 0;  ///< dispatch records merged
  double shardBarrierHostSeconds = 0.0;  ///< host time inside merges

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
    shardCount = std::max(shardCount, other.shardCount);
    shardWindows += other.shardWindows;
    shardParallelWindows += other.shardParallelWindows;
    shardBarrierCalls += other.shardBarrierCalls;
    shardBarrierSkips += other.shardBarrierSkips;
    shardMergeRecords += other.shardMergeRecords;
    shardBarrierHostSeconds += other.shardBarrierHostSeconds;
  }

  /// Mean events per conservative window — the lookahead-efficiency
  /// figure: higher means the shards amortise each barrier better.
  double eventsPerShardWindow() const {
    return shardWindows > 0
               ? static_cast<double>(eventsDispatched) /
                     static_cast<double>(shardWindows)
               : 0.0;
  }

  /// Host wall-clock cost per simulated second (0 when nothing simulated).
  double hostSecondsPerSimSecond() const {
    return simSeconds > 0.0 ? hostSeconds / simSeconds : 0.0;
  }
};

}  // namespace tibsim::sim
