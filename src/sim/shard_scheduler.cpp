#include "tibsim/sim/shard_scheduler.hpp"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <string>

#include "tibsim/common/assert.hpp"

namespace tibsim::sim {

namespace {

int clampShards(int shards) { return std::clamp(shards, 1, 1024); }

int readDefaultSimShards() {
  // Same pattern as TIBSIM_TRACE_MODE: the environment
  // seeds the process-wide default once; --sim-shards and ScopedSimShards
  // override it explicitly afterwards.
  const char* env = std::getenv("TIBSIM_SIM_SHARDS");
  if (env == nullptr || *env == '\0') return 1;
  char* end = nullptr;
  const long value = std::strtol(env, &end, 10);
  if (end == env || *end != '\0') return 1;
  return clampShards(static_cast<int>(value));
}

int& defaultSimShardsSlot() {
  // tibsim-lint: allow(shard-shared) — host-side config slot, set before runs
  static int shards = readDefaultSimShards();
  return shards;
}

// One busy-wait step. Windows are so short that parked workers would pay a
// futex wake per window; spinning across the serial barrier keeps the gang
// hot through communication bursts.
inline void cpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__) || defined(__arm__)
  asm volatile("yield");
#else
  // tibsim-lint: allow(fiber-block) — gang-worker spin hint, not fiber code
  std::this_thread::yield();
#endif
}

// Spin budget before a worker parks on the condition variable: long enough
// to cover a typical barrier (~tens of µs), short enough not to burn a core
// through a compute phase (single-shard windows run inline, so the gang
// sees no epochs for milliseconds at a time there).
constexpr std::uint32_t kGangSpinLimit = 20000;

}  // namespace

int defaultSimShards() { return defaultSimShardsSlot(); }

void setDefaultSimShards(int shards) {
  defaultSimShardsSlot() = clampShards(shards);
}

ShardScheduler::ShardScheduler(double lookaheadSeconds)
    : lookahead_(lookaheadSeconds) {
  TIB_REQUIRE_MSG(lookahead_ > 0.0,
                  "shard scheduler needs a positive lookahead; a zero-latency"
                  " fabric must run single-shard");
}

ShardScheduler::~ShardScheduler() { stopGang(); }

std::size_t ShardScheduler::addShard(Simulation* shard) {
  TIB_REQUIRE(shard != nullptr);
  TIB_REQUIRE_MSG(gang_.empty(), "cannot add shards while the gang runs");
  shards_.push_back(shard);
  return shards_.size() - 1;
}

void ShardScheduler::teardownShard(std::size_t shard) {
  TIB_REQUIRE(shard < shards_.size());
  shards_[shard] = nullptr;
}

Simulation& ShardScheduler::shard(std::size_t index) {
  TIB_REQUIRE(index < shards_.size() && shards_[index] != nullptr);
  return *shards_[index];
}

void ShardScheduler::channelPush(std::size_t dstShard, double t,
                                 std::uint64_t g, std::uint64_t pushIdx,
                                 UniqueFunction fn) {
  TIB_REQUIRE_MSG(dstShard < shards_.size() && shards_[dstShard] != nullptr,
                  "cross-shard event routed to a torn-down shard");
  shards_[dstShard]->scheduleChannel(t, g, pushIdx, std::move(fn));
}

std::size_t ShardScheduler::gangParticipants() const {
  const char* env = std::getenv("TIBSIM_SHARD_THREADS");
  if (env != nullptr && *env != '\0') {
    char* end = nullptr;
    const long value = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && value >= 1) {
      return std::min(static_cast<std::size_t>(value), shards_.size());
    }
  }
  const std::size_t cores =
      std::max<std::size_t>(std::thread::hardware_concurrency(), 1);
  return std::min(shards_.size(), cores);
}

void ShardScheduler::startGang() {
  const std::size_t participants = gangParticipants();
  if (participants < 2) return;  // caller-only: every window runs inline
  gang_.reserve(participants - 1);
  for (std::size_t i = 0; i + 1 < participants; ++i)
    gang_.emplace_back([this] { gangLoop(); });
}

void ShardScheduler::stopGang() {
  if (gang_.empty()) return;
  gangStop_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(gangMutex_);
  }
  gangWake_.notify_all();
  for (std::thread& t : gang_) t.join();
  gang_.clear();
  gangStop_.store(false, std::memory_order_relaxed);
}

void ShardScheduler::runClaimedShards() {
  for (;;) {
    const std::uint32_t i = nextShard_.fetch_add(1, std::memory_order_relaxed);
    if (i >= active_.size()) return;
    try {
      shards_[active_[i]]->runWindow(windowEnd_);
    } catch (...) {
      std::lock_guard<std::mutex> lock(gangMutex_);
      if (gangError_ == nullptr) gangError_ = std::current_exception();
    }
  }
}

void ShardScheduler::gangLoop() {
  std::uint64_t seen = 0;
  for (;;) {
    std::uint32_t spins = 0;
    while (epoch_.load(std::memory_order_acquire) == seen) {
      if (gangStop_.load(std::memory_order_acquire)) return;
      if (++spins >= kGangSpinLimit) {
        std::unique_lock<std::mutex> lock(gangMutex_);
        sleepers_.fetch_add(1, std::memory_order_relaxed);
        gangWake_.wait(lock, [&] {
          return epoch_.load(std::memory_order_acquire) != seen ||
                 gangStop_.load(std::memory_order_acquire);
        });
        sleepers_.fetch_sub(1, std::memory_order_relaxed);
        spins = 0;
      } else {
        cpuRelax();
      }
    }
    seen = epoch_.load(std::memory_order_acquire);
    runClaimedShards();
    doneWorkers_.fetch_add(1, std::memory_order_release);
  }
}

double ShardScheduler::run(const std::function<void()>& barrier) {
  startGang();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (;;) {
    double minNext = kInf;
    for (Simulation* shard : shards_) {
      if (shard != nullptr && shard->hasEvents())
        minNext = std::min(minNext, shard->nextEventTime());
    }
    if (minNext == kInf) {
      // Queues drained — but the barrier may still hold deferred ops whose
      // replay pushes fresh events (a window that ended exactly on a batch
      // of cross-shard sends). One flush decides: still empty means done.
      barrier();
      bool any = false;
      for (Simulation* shard : shards_) {
        if (shard != nullptr && shard->hasEvents()) any = true;
      }
      if (!any) break;
      continue;
    }

    const double windowEnd = minNext + lookahead_;
    active_.clear();
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      Simulation* shard = shards_[i];
      if (shard != nullptr && shard->hasEvents() &&
          shard->nextEventTime() < windowEnd)
        active_.push_back(i);
    }
    TIB_ASSERT(!active_.empty());
    windowEnd_ = windowEnd;
    if (active_.size() == 1 || gang_.empty()) {
      // Inline path: serial and pipelined phases put all the work in one
      // shard per window, where even a hot gang's fan-out would dominate —
      // and a single-core host (empty gang) runs everything here.
      nextShard_.store(0, std::memory_order_relaxed);
      runClaimedShards();
    } else {
      ++parallelWindowsRun_;
      nextShard_.store(0, std::memory_order_relaxed);
      doneWorkers_.store(0, std::memory_order_relaxed);
      epoch_.fetch_add(1, std::memory_order_release);
      if (sleepers_.load(std::memory_order_relaxed) > 0) {
        // Pairing the notify with the lock closes the park/bump race: a
        // worker re-checks the epoch under the mutex before sleeping.
        std::lock_guard<std::mutex> lock(gangMutex_);
        gangWake_.notify_all();
      }
      runClaimedShards();
      while (doneWorkers_.load(std::memory_order_acquire) <
             static_cast<std::uint32_t>(gang_.size())) {
        cpuRelax();
      }
    }
    if (gangError_ != nullptr) {
      std::exception_ptr error;
      {
        std::lock_guard<std::mutex> lock(gangMutex_);
        error = gangError_;
        gangError_ = nullptr;
      }
      stopGang();
      std::rethrow_exception(error);
    }
    ++windowsRun_;
    barrier();
  }
  stopGang();

  double finalTime = 0.0;
  for (Simulation* shard : shards_) {
    if (shard != nullptr) finalTime = std::max(finalTime, shard->now());
  }
  return finalTime;
}

}  // namespace tibsim::sim
