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

#include <cstddef>
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

/// The host's VM page size (sysconf(_SC_PAGESIZE); 4096 when unavailable).
/// Fiber stacks and their guard pages are page-granular.
std::size_t pageBytes();

/// Worlds with at least this many ranks lease fiber stacks from the shared
/// slab arena (2 kernel VMAs per multi-megabyte slab, sentinel page under
/// each stack) instead of a private guarded stack per fiber (2 VMAs each).
/// A 65,536-rank world needs ~131k private mappings — past the kernel's
/// default vm.max_map_count of 65530, so the per-fiber guard mprotect
/// would fail mid-spawn. Stacks of both kinds are recycled across worlds;
/// at most this many idle private stacks stay mapped (32,768 VMAs), so any
/// one private world fits under the cap.
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
  /// the first switchIn(), which writes its first frame at the stack top.
  /// Must be called exactly once, before switchIn().
  void start(Entry entry);

  /// Host -> context. Runs the context until it yields or its entry
  /// returns; blocks the host for the duration.
  void switchIn();

  /// Context -> host. Callable only from inside the running entry.
  void yieldToHost();

  /// Request the context line the next switchIn() touches: the one that
  /// holds both saved stack pointers, the fiber's doubling as the entry
  /// flag. The fiber's saved registers sit on its own stack, just below
  /// the frame it blocked in. A hint only: it reads nothing, so it is safe
  /// on a context in any state. Always inlined: GCC drops calls to a
  /// function that only prefetches.
  [[gnu::always_inline]] void prefetchSwitchState() const {
    __builtin_prefetch(&hostSp_, 1);
  }

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
  /// The host/fiber ucontext_t pair of sanitizer builds and of ISAs without
  /// the register-only switch (defined in the .cpp), which switch through
  /// swapcontext every time.
  struct SwapContexts;

  static void run(ExecutionContext* self);

  // The switch state, first in the object: operator new returns 16-byte
  // aligned storage, so both pointers always share one cache line.
  void* hostSp_ = nullptr;   ///< host stack pointer, saved by switchIn()
  /// Fiber stack pointer, saved by yieldToHost(); nullptr until the first
  /// switchIn() writes the entry frame.
  void* fiberSp_ = nullptr;
  Entry entry_;
  char* stack_ = nullptr;       ///< lowest usable address (grows down)
  std::size_t stackBytes_ = 0;  ///< usable bytes, page-rounded
  /// Offset of the lowest resident stack page, found by the finish-time
  /// stackHighWaterBytes() scan: release drops the pages from here up.
  /// 0 (drop them all) until that scan.
  std::size_t residentFrom_ = 0;
  bool pooled_ = false;  ///< stack leased from the slab arena
  bool armed_ = false;
  bool done_ = false;
  // Sanitizer fiber bookkeeping (left untouched by the register-only
  // switch): the host stack ASan switches back to, the TSan fiber handles
  // and the swapcontext pair.
  const void* hostStackBottom_ = nullptr;
  std::size_t hostStackSize_ = 0;
  void* tsanFiber_ = nullptr;
  void* tsanHost_ = nullptr;
  std::unique_ptr<SwapContexts> swap_;
};

// One per rank: at 65,536 ranks every byte here is 64 KiB of host memory.
static_assert(sizeof(ExecutionContext) <= 128,
              "a context holds two saved stack pointers; the registers they "
              "resume sit on the stacks");
static_assert(__STDCPP_DEFAULT_NEW_ALIGNMENT__ >= 2 * sizeof(void*),
              "prefetchSwitchState() requests one line for both pointers");

}  // namespace tibsim::sim
