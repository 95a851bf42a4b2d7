#include "tibsim/common/thread_pool.hpp"

#include <algorithm>
#include <string>

#include "tibsim/common/assert.hpp"

namespace tibsim {

TaskPool::TaskPool(std::size_t threads) {
  std::size_t total = threads;
  if (total == 0)
    total = std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1,
                                    kMaxThreads);
  TIB_REQUIRE_MSG(total <= kMaxThreads,
                  "a TaskPool holds at most " + std::to_string(kMaxThreads) +
                      " threads, asked for " + std::to_string(total));
  workers_.reserve(total - 1);
  try {
    for (std::size_t i = 1; i < total; ++i)
      workers_.emplace_back([this] { workerLoop(); });
  } catch (...) {
    // The workers already started are joinable: destroying them unjoined
    // would terminate the process instead of reporting the failure.
    stopWorkers();
    throw;
  }
}

TaskPool::~TaskPool() { stopWorkers(); }

void TaskPool::stopWorkers() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  for (auto& w : workers_) w.join();
}

bool TaskPool::runOneIndex(std::unique_lock<std::mutex>& lock,
                          const std::shared_ptr<Batch>& batch) {
  if (batch->next >= batch->n) return false;
  const std::size_t index = batch->next++;
  if (batch->next == batch->n) {
    // Batch exhausted: stop offering it to workers.
    std::erase(open_, batch);
  }
  lock.unlock();
  std::exception_ptr error;
  try {
    (*batch->fn)(index);
  } catch (...) {
    error = std::current_exception();
  }
  lock.lock();
  if (error && !batch->error) batch->error = error;
  ++batch->done;
  if (batch->done == batch->n) done_.notify_all();
  return true;
}

void TaskPool::parallelFor(std::size_t n,
                           const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  auto batch = std::make_shared<Batch>();
  batch->fn = &fn;
  batch->n = n;

  std::unique_lock lock(mutex_);
  open_.push_back(batch);
  if (n > 1) wake_.notify_all();
  // Help run this batch; in-flight indices claimed by workers may still be
  // running after the last claim, so wait for the completion count.
  while (runOneIndex(lock, batch)) {
  }
  done_.wait(lock, [&batch] { return batch->done == batch->n; });
  if (batch->error) std::rethrow_exception(batch->error);
}

void TaskPool::parallelFor(
    std::size_t n,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& body) {
  const std::size_t chunk = (n + threadCount() - 1) / threadCount();
  parallelFor(threadCount(), [&](std::size_t c) {
    const std::size_t begin = std::min(c * chunk, n);
    const std::size_t end = std::min(begin + chunk, n);
    if (begin < end) body(begin, end, c);
  });
}

void TaskPool::workerLoop() {
  std::unique_lock lock(mutex_);
  while (true) {
    wake_.wait(lock, [this] { return stop_ || !open_.empty(); });
    if (stop_) return;
    const std::shared_ptr<Batch> batch = open_.front();
    runOneIndex(lock, batch);
  }
}

}  // namespace tibsim
