#pragma once
// Task farm: the master/worker throughput proxy (Monte Carlo batches,
// parameter sweeps, render farms — the other canonical cluster workload
// next to the paper's tightly-coupled HPC codes).
//
// Rank 0 is the master. It seeds every worker with one task, then sits in a
// wildcard receive (kAnySource): whichever worker finishes first gets the
// next task — classic self-scheduling work-stealing, so faster-draining
// workers automatically take more of the queue. Task costs are drawn
// deterministically from the farm seed, and the wildcard match order is the
// engine's canonical delivery order, so the whole farm is byte-reproducible
// for every --sim-shards value even at thousands of workers.

#include <cstdint>
#include <vector>

#include "tibsim/mpi/simmpi.hpp"

namespace tibsim::apps {

class TaskFarm {
 public:
  /// Master rank; everyone else is a worker (needs >= 2 ranks).
  static constexpr int kMasterRank = 0;

  struct Params {
    int tasks = 256;                 ///< total tasks in the queue
    double meanTaskSeconds = 1e-3;   ///< costs ~ Uniform(0.5, 1.5) * mean
    std::uint64_t seed = 42;         ///< task-cost stream seed
    /// Optional result sink (single-threaded sim, so a plain pointer is
    /// safe): tasks completed per world rank, filled by the master.
    std::vector<std::uint64_t>* tasksPerWorkerOut = nullptr;
  };

  static mpi::MpiWorld::RankBody rankBody(Params params);
};

}  // namespace tibsim::apps
