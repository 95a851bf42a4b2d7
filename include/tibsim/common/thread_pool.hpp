#pragma once
// The one thread pool: a dynamic task scheduler for socbench campaigns and
// tibsim_lint, which also runs the native micro-kernels' OpenMP-style
// fork-join (the chunked parallelFor overload).

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace tibsim {

/// parallelFor hands out indices one at a time (experiments and sweep
/// cells have wildly unequal runtimes), and it is safe to call from
/// *inside* a running task: the nested caller claims its own batch's
/// indices itself, so an experiment scheduled on the pool can parallelise
/// its inner sweep over the same workers without deadlock. The first
/// exception thrown by a task is rethrown to the caller after the batch
/// drains.
class TaskPool {
 public:
  /// The most threads one pool may hold. Workers start eagerly, so a
  /// larger request (a mistyped --jobs) is refused before any starts.
  static constexpr std::size_t kMaxThreads = 1024;

  /// Creates `threads` workers total (including the calling thread);
  /// 0 means std::thread::hardware_concurrency(), capped at kMaxThreads.
  /// Throws ContractError above kMaxThreads.
  explicit TaskPool(std::size_t threads = 0);
  ~TaskPool();

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  std::size_t threadCount() const { return workers_.size() + 1; }

  /// Run fn(i) for every i in [0, n), pulling indices dynamically; the
  /// calling thread claims index 0 before any worker can, then helps with
  /// the rest. Blocks until the whole batch has completed.
  void parallelFor(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Static fork-join, like an OpenMP parallel-for: split [0, n) into
  /// threadCount() contiguous chunks of ceil(n / threadCount()) indices
  /// and run body(begin, end, chunk) for each non-empty one. The chunks
  /// are the indices of the dynamic parallelFor above, so `chunk` can key
  /// per-chunk partials, and exceptions and nesting behave the same.
  void parallelFor(
      std::size_t n,
      const std::function<void(std::size_t, std::size_t, std::size_t)>& body);

 private:
  struct Batch {
    const std::function<void(std::size_t)>* fn = nullptr;
    std::size_t n = 0;
    std::size_t next = 0;  ///< next unclaimed index (guarded by pool mutex)
    std::size_t done = 0;  ///< completed indices (guarded by pool mutex)
    std::exception_ptr error;
  };

  void workerLoop();
  /// Stop and join every started worker.
  void stopWorkers();
  /// Claim and run one index of `batch`; returns false if none were left.
  bool runOneIndex(std::unique_lock<std::mutex>& lock,
                   const std::shared_ptr<Batch>& batch);

  std::mutex mutex_;
  std::condition_variable wake_;  ///< workers: a batch has unclaimed work
  std::condition_variable done_;  ///< callers: some batch index completed
  std::vector<std::shared_ptr<Batch>> open_;  ///< batches with unclaimed work
  std::vector<std::thread> workers_;
  bool stop_ = false;
};

}  // namespace tibsim
