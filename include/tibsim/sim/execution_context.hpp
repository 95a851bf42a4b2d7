#pragma once
// The cooperative execution context behind every simulation Process.
//
// A Process needs exactly three transfers of control: host -> process
// (switchIn), process -> host (yieldToHost), and the initial entry into the
// process body (start + first switchIn). ExecutionContext performs them
// with a stackful user-space fiber on an owned, configurable-size stack: a
// switch is a register-file swap in user space, with no kernel wake-up and
// no OS thread per process. That is what makes 65,536-rank worlds
// feasible.
//
// Contract: exactly one party (host or process) runs at any moment,
// transfers are synchronous, and the entry function runs to completion
// before the context is destroyed (Process guarantees this by unwinding
// via ProcessKilled on teardown). AddressSanitizer and ThreadSanitizer
// builds announce every switch through the sanitizers' fiber interfaces,
// so both tools follow the ranks across stacks.

#include <setjmp.h>
#include <ucontext.h>

#include <cstddef>
#include <functional>

namespace tibsim::sim {

/// Smallest usable fiber stack. Low enough that stack-sizing experiments
/// guided by the high-water telemetry can go well below the 256 KiB engine
/// default; high enough that the entry thunk itself always fits.
inline constexpr std::size_t kMinFiberStackBytes = 16 * 1024;

/// The host's VM page size (sysconf(_SC_PAGESIZE); 4096 when unavailable).
/// Fiber stacks and their guard pages are page-granular.
std::size_t pageBytes();

/// Worlds with at least this many ranks lease fiber stacks from the shared
/// slab arena (2 kernel VMAs per multi-megabyte slab, pattern sentinel page
/// under each stack, stacks recycled across worlds) instead of mmap'ing a
/// private guarded stack per fiber (2 VMAs each). A 65,536-rank world needs
/// ~131k private mappings — past the kernel's default vm.max_map_count of
/// 65530, so the per-fiber guard mprotect would fail mid-spawn.
inline constexpr int kPooledStacksMinRanks = 16384;

/// Stack size to use for a sweep whose probe run measured
/// `highWaterBytes` of peak stack use: 2x headroom, rounded up to a whole
/// page, floored at kMinFiberStackBytes. Returns 0 when highWaterBytes is 0
/// (no telemetry), meaning "keep the default".
std::size_t recommendedStackBytes(std::size_t highWaterBytes);

/// One cooperative execution context (the "how" of a Process). Not
/// thread-safe: the host side drives start/switchIn from one thread.
class ExecutionContext {
 public:
  using Entry = std::function<void()>;

  /// stackBytes == 0 means defaultStackBytes(). When pooledStack is true
  /// the stack is leased from the process-wide slab arena (see
  /// kPooledStacksMinRanks) instead of a private guarded mapping; overflow
  /// detection then moves from an immediate guard-page fault to a
  /// sentinel-page check when the stack is released.
  explicit ExecutionContext(std::size_t stackBytes = 0,
                            bool pooledStack = false);
  ~ExecutionContext();
  ExecutionContext(const ExecutionContext&) = delete;
  ExecutionContext& operator=(const ExecutionContext&) = delete;

  /// Arm the context with its entry function. The entry does not run until
  /// the first switchIn(). Must be called exactly once, before switchIn().
  void start(Entry entry);

  /// Host -> context. Runs the context until it yields or its entry
  /// returns; blocks the host for the duration.
  void switchIn();

  /// Context -> host. Callable only from inside the running entry.
  void yieldToHost();

  /// Size of the owned stack.
  std::size_t stackBytes() const { return stackBytes_; }

  /// Deepest observed use of the owned stack, measured by scanning for the
  /// first overwritten fill byte (obs::scanStackHighWater). A value equal
  /// to stackBytes() means the whole stack was scribbled — treat the stack
  /// as undersized.
  std::size_t stackHighWaterBytes() const;

  /// Fiber stack size: TIBSIM_FIBER_STACK_KB (KiB) when set, else 256 KiB.
  static std::size_t defaultStackBytes();

 private:
  static void run(unsigned selfHi, unsigned selfLo);

  Entry entry_;
  char* stack_ = nullptr;       ///< lowest usable address (grows down)
  std::size_t stackBytes_ = 0;  ///< usable bytes, page-rounded
  bool pooled_ = false;         ///< stack leased from the slab arena
  bool armed_ = false;
  bool entered_ = false;
  bool done_ = false;
  ucontext_t fiberCtx_{};
  ucontext_t hostCtx_{};
  jmp_buf hostJmp_{};
  jmp_buf fiberJmp_{};
  // Sanitizer fiber bookkeeping (left untouched in plain builds): the
  // host stack ASan switches back to, and the TSan fiber handles.
  const void* hostStackBottom_ = nullptr;
  std::size_t hostStackSize_ = 0;
  void* tsanFiber_ = nullptr;
  void* tsanHost_ = nullptr;
};

}  // namespace tibsim::sim
