#pragma once
// The cooperative execution context behind every simulation Process.
//
// A Process needs exactly three transfers of control: host -> process
// (switchIn), process -> host (yieldToHost), and the initial entry into the
// process body (the first switchIn). ExecutionContext performs them with a
// stackful user-space fiber on an owned, lazily committed stack: a switch
// is a register-file swap in user space, with no kernel wake-up and no OS
// thread per process. That is what makes 65,536-rank worlds feasible.
//
// Contract: exactly one party (host or process) runs at any moment,
// transfers are synchronous, and the entry function runs to completion
// before the context is destroyed (Process guarantees this by unwinding
// via ProcessKilled on teardown). AddressSanitizer and ThreadSanitizer
// builds announce every switch through the sanitizers' fiber interfaces,
// so both tools follow the ranks across stacks.

#include <cstddef>

// The sanitizer a build runs under decides which switch announcements it
// makes and which bookkeeping fields a context carries.
#if defined(__SANITIZE_THREAD__)
#define TIBSIM_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define TIBSIM_TSAN 1
#endif
#endif
#ifndef TIBSIM_TSAN
#define TIBSIM_TSAN 0
#endif

#if defined(__SANITIZE_ADDRESS__)
#define TIBSIM_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define TIBSIM_ASAN 1
#endif
#endif
#ifndef TIBSIM_ASAN
#define TIBSIM_ASAN 0
#endif

namespace tibsim::sim {

/// Smallest fiber stack TIBSIM_FIBER_STACK_KB accepts: enough for the
/// entry thunk and a few application frames. Pages a fiber never touches
/// are never committed, so a smaller stack saves address space, not RSS.
inline constexpr std::size_t kMinFiberStackBytes = 16 * 1024;

/// The cache line size the engine lays its hot state out for (x86-64 and
/// the common AArch64 cores).
inline constexpr std::size_t kCacheLineBytes = 64;

/// The host's VM page size (sysconf(_SC_PAGESIZE); 4096 when unavailable).
/// Fiber stacks and their guard pages are page-granular.
std::size_t pageBytes();

/// Worlds with at least this many ranks lease fiber stacks from the shared
/// slab arena (2 kernel VMAs per multi-megabyte slab, sentinel page under
/// each stack) instead of a private guarded stack per fiber (2 VMAs each).
/// A 65,536-rank world needs ~131k private mappings — past the kernel's
/// default vm.max_map_count of 65530, so the per-fiber guard mprotect
/// would fail mid-spawn. It is also the cap on private stacks per host
/// process, across all worlds, live or finished: at most this many are
/// ever mapped (32,768 VMAs), and a private request past the cap takes a
/// pooled stack instead, so concurrent worlds cannot exhaust the map
/// count either. Stacks of both kinds are recycled across worlds.
inline constexpr int kPooledStacksMinRanks = 16384;

/// One cooperative execution context (the "how" of a Process). Not
/// thread-safe: the host side drives switchIn from one thread at a time.
class ExecutionContext {
 public:
  /// The function the fiber runs, once, with the argument given at
  /// construction.
  using Entry = void (*)(void*);

  /// The stack is defaultStackBytes() long. When pooledStack is true it is
  /// leased from the process-wide slab arena (see kPooledStacksMinRanks)
  /// instead of a private guarded mapping; overflow detection then moves
  /// from an immediate guard-page fault to a sentinel-page check when the
  /// stack is released. A private request takes a pooled stack too once
  /// the private-stack cap is reached. `entry(arg)` does not run until the
  /// first switchIn(), which writes its first frame at the stack top.
  ExecutionContext(Entry entry, void* arg, bool pooledStack);
  ~ExecutionContext();
  ExecutionContext(const ExecutionContext&) = delete;
  ExecutionContext& operator=(const ExecutionContext&) = delete;

  /// Host -> context. Runs the context until it yields or its entry
  /// returns; blocks the host for the duration.
  void switchIn();

  /// Context -> host. Callable only from inside the running entry.
  void yieldToHost();

  /// Size of the owned stack.
  std::size_t stackBytes() const { return stackBytes_; }

  /// Deepest observed use of the owned stack, page-granular: the distance
  /// from the lowest resident page (mincore) to the top of the stack. The
  /// kernel commits a stack page on its first touch, so untouched pages
  /// cost nothing and read as unused. A value equal to stackBytes() means
  /// the whole stack was touched — treat the stack as undersized. Once the
  /// entry has returned, the scan also records which pages release drops.
  std::size_t stackHighWaterBytes();

  /// The engine-wide fiber stack size, page-rounded:
  /// TIBSIM_FIBER_STACK_KB (a plain decimal KiB count >= 16) when set,
  /// else 256 KiB. Read once; a malformed value is a ContractError.
  static std::size_t defaultStackBytes();

 private:
  static void run(ExecutionContext* self);

  // The switch state, first in the object, so that a Process holding its
  // context right after its own hot fields keeps both in its first line.
  void* hostSp_ = nullptr;  ///< host stack pointer, saved by switchIn()
  /// Fiber stack pointer, saved by yieldToHost(); nullptr until the first
  /// switchIn() writes the entry frame.
  void* fiberSp_ = nullptr;
  Entry entry_;
  void* arg_;
  char* stack_ = nullptr;  ///< lowest usable address (grows down)
  std::size_t stackBytes_;  ///< usable bytes, page-rounded
  /// Offset of the lowest resident stack page, found by the finish-time
  /// stackHighWaterBytes() scan: release drops the pages from here up.
  /// 0 (drop them all) until that scan.
  std::size_t residentFrom_ = 0;
  bool pooled_;  ///< stack leased from the slab arena
  bool done_ = false;
#if TIBSIM_ASAN
  // The host stack yieldToHost() announces, as ASan last reported it.
  const void* hostStackBottom_ = nullptr;
  std::size_t hostStackSize_ = 0;
#endif
#if TIBSIM_TSAN
  void* tsanFiber_ = nullptr;  ///< this fiber's TSan handle
  void* tsanHost_ = nullptr;   ///< the host fiber the last switchIn() left
#endif
};

// One per rank: at 65,536 ranks every byte here is 64 KiB of host memory.
static_assert(sizeof(ExecutionContext) <= 128,
              "a context holds two saved stack pointers; the registers they "
              "resume sit on the stacks");

}  // namespace tibsim::sim
