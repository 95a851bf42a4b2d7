#pragma once
// The cooperative execution context behind every simulation Process.
//
// A Process needs exactly three transfers of control: host -> process
// (switchIn), process -> host (yieldToHost), and the initial entry into the
// process body (start + first switchIn). ExecutionContext performs them
// with a stackful user-space fiber on an owned, lazily committed stack: a
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

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>

namespace tibsim::sim {

/// Smallest fiber stack TIBSIM_FIBER_STACK_KB accepts: enough for the
/// entry thunk and a few application frames. Pages a fiber never touches
/// are never committed, so a smaller stack saves address space, not RSS.
inline constexpr std::size_t kMinFiberStackBytes = 16 * 1024;

/// The cache line size the engine lays its hot state out for (x86-64 and
/// the common AArch64 cores).
inline constexpr std::size_t kCacheLineBytes = 64;

/// The bytes of a jump buffer that _setjmp writes and _longjmp reads: the
/// register block and the signal-mask flag. The saved mask behind them is
/// used only by sigsetjmp.
inline constexpr std::size_t kJmpBufUsedBytes =
    offsetof(__jmp_buf_tag, __saved_mask);

/// The host's VM page size (sysconf(_SC_PAGESIZE); 4096 when unavailable).
/// Fiber stacks and their guard pages are page-granular.
std::size_t pageBytes();

/// Worlds with at least this many ranks lease fiber stacks from the shared
/// slab arena (2 kernel VMAs per multi-megabyte slab, sentinel page under
/// each stack, stacks recycled across worlds) instead of mmap'ing a
/// private guarded stack per fiber (2 VMAs each). A 65,536-rank world needs
/// ~131k private mappings — past the kernel's default vm.max_map_count of
/// 65530, so the per-fiber guard mprotect would fail mid-spawn.
inline constexpr int kPooledStacksMinRanks = 16384;

/// One cooperative execution context (the "how" of a Process). Not
/// thread-safe: the host side drives start/switchIn from one thread.
class ExecutionContext {
 public:
  using Entry = std::function<void()>;

  /// The stack is defaultStackBytes() long. When pooledStack is true it is
  /// leased from the process-wide slab arena (see kPooledStacksMinRanks)
  /// instead of a private guarded mapping; overflow detection then moves
  /// from an immediate guard-page fault to a sentinel-page check when the
  /// stack is released.
  explicit ExecutionContext(bool pooledStack = false);
  ~ExecutionContext();
  ExecutionContext(const ExecutionContext&) = delete;
  ExecutionContext& operator=(const ExecutionContext&) = delete;

  /// Arm the context with its entry function. The entry does not run until
  /// the first switchIn(), which builds its first frame on the stack. Must
  /// be called exactly once, before switchIn().
  void start(Entry entry);

  /// Host -> context. Runs the context until it yields or its entry
  /// returns; blocks the host for the duration.
  void switchIn();

  /// Context -> host. Callable only from inside the running entry.
  void yieldToHost();

  /// Request the cache lines the next switchIn() touches first: the entry
  /// flag it tests, the saved fiber registers it resumes from and the host
  /// save area it writes (the kJmpBufUsedBytes of each jump buffer). A
  /// hint only: it reads nothing, so it is safe on a context in any state.
  /// Always inlined: GCC drops calls to a function that only prefetches.
  [[gnu::always_inline]] void prefetchSwitchState() const {
    __builtin_prefetch(&entered_);
    const auto fiber = reinterpret_cast<std::uintptr_t>(&fiberJmp_);
    for (std::uintptr_t line = fiber & ~(kCacheLineBytes - 1);
         line < fiber + kJmpBufUsedBytes; line += kCacheLineBytes)
      __builtin_prefetch(reinterpret_cast<const void*>(line));
    const auto host = reinterpret_cast<std::uintptr_t>(&hostJmp_);
    for (std::uintptr_t line = host & ~(kCacheLineBytes - 1);
         line < host + kJmpBufUsedBytes; line += kCacheLineBytes)
      __builtin_prefetch(reinterpret_cast<const void*>(line), 1);
  }

  /// Size of the owned stack.
  std::size_t stackBytes() const { return stackBytes_; }

  /// Deepest observed use of the owned stack, page-granular: the distance
  /// from the lowest resident page (mincore) to the top of the stack. The
  /// kernel commits a stack page on its first touch, so untouched pages
  /// cost nothing and read as unused. A value equal to stackBytes() means
  /// the whole stack was touched — treat the stack as undersized.
  std::size_t stackHighWaterBytes() const;

  /// The engine-wide fiber stack size, page-rounded:
  /// TIBSIM_FIBER_STACK_KB (a plain decimal KiB count >= 16) when set,
  /// else 256 KiB. Read once; a malformed value is a ContractError.
  static std::size_t defaultStackBytes();

 private:
  /// The host/fiber ucontext_t pair of sanitizer builds (defined in the
  /// .cpp), which switch through swapcontext every time.
  struct SwapContexts;

  static void run(unsigned selfHi, unsigned selfLo);

  Entry entry_;
  char* stack_ = nullptr;       ///< lowest usable address (grows down)
  std::size_t stackBytes_ = 0;  ///< usable bytes, page-rounded
  bool pooled_ = false;         ///< stack leased from the slab arena
  bool armed_ = false;
  bool entered_ = false;
  bool done_ = false;
  jmp_buf hostJmp_{};
  jmp_buf fiberJmp_{};
  // Sanitizer fiber bookkeeping (left untouched in plain builds): the
  // host stack ASan switches back to, the TSan fiber handles and the
  // swapcontext pair.
  const void* hostStackBottom_ = nullptr;
  std::size_t hostStackSize_ = 0;
  void* tsanFiber_ = nullptr;
  void* tsanHost_ = nullptr;
  std::unique_ptr<SwapContexts> swap_;
};

// One per rank: at 65,536 ranks every byte here is 64 KiB of host memory.
static_assert(sizeof(ExecutionContext) <= 512,
              "a context holds its jump buffers, not a ucontext_t pair");

}  // namespace tibsim::sim
