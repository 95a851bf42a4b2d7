#include "tibsim/sim/execution_context.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <mutex>
#include <string>
#include <vector>

#include "tibsim/common/assert.hpp"

// AddressSanitizer and ThreadSanitizer both intercept longjmp: ASan rejects
// a jump onto a different stack and TSan loses track of which stack it is
// on. Sanitizer builds therefore switch through swapcontext and announce
// every switch through the sanitizer's fiber interface.
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

#if TIBSIM_ASAN
#include <sanitizer/common_interface_defs.h>
#endif
#if TIBSIM_TSAN
#include <sanitizer/tsan_interface.h>
#endif

namespace tibsim::sim {

namespace {

#if TIBSIM_ASAN
void asanStartSwitch(void** fakeStackSave, const void* bottom,
                     std::size_t size) {
  __sanitizer_start_switch_fiber(fakeStackSave, bottom, size);
}
void asanFinishSwitch(void* fakeStackSave, const void** bottomOld,
                      std::size_t* sizeOld) {
  __sanitizer_finish_switch_fiber(fakeStackSave, bottomOld, sizeOld);
}
#else
[[maybe_unused]] void asanStartSwitch(void**, const void*, std::size_t) {}
[[maybe_unused]] void asanFinishSwitch(void*, const void**, std::size_t*) {}
#endif

#if TIBSIM_TSAN
void* tsanCreateFiber() { return __tsan_create_fiber(0); }
void tsanDestroyFiber(void* fiber) { __tsan_destroy_fiber(fiber); }
void* tsanCurrentFiber() { return __tsan_get_current_fiber(); }
void tsanSwitchTo(void* fiber) { __tsan_switch_to_fiber(fiber, 0); }
#else
void* tsanCreateFiber() { return nullptr; }
void tsanDestroyFiber(void*) {}
[[maybe_unused]] void* tsanCurrentFiber() { return nullptr; }
[[maybe_unused]] void tsanSwitchTo(void*) {}
#endif

// Offset of the lowest resident page in [base, base + bytes), or `bytes`
// when none is. Both ends are page-aligned. An anonymous page becomes
// resident on its first touch, so on a downward-growing stack this is
// where the deepest frame reached.
std::size_t firstResidentOffset(char* base, std::size_t bytes) {
  const std::size_t page = pageBytes();
  constexpr std::size_t kChunkPages = 64;
  unsigned char resident[kChunkPages] = {};
  for (std::size_t offset = 0; offset < bytes; offset += kChunkPages * page) {
    const std::size_t pages = std::min(kChunkPages, (bytes - offset) / page);
    TIB_REQUIRE_MSG(mincore(base + offset, pages * page, resident) == 0,
                    "fiber stack mincore failed");
    for (std::size_t i = 0; i < pages; ++i)
      if ((resident[i] & 1) != 0) return offset + i * page;
  }
  return bytes;
}

// An anonymous read-write mapping whose lowest page becomes the guard.
// Residency is only page-accurate on base pages: a transparent huge page,
// or any multi-page anonymous folio, commits a whole run on one touch.
char* mapGuardedStackMemory(std::size_t bytes) {
  void* map = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  TIB_REQUIRE_MSG(map != MAP_FAILED, "fiber stack mmap failed");
  madvise(map, bytes, MADV_NOHUGEPAGE);
  TIB_REQUIRE_MSG(mprotect(map, pageBytes(), PROT_NONE) == 0,
                  "fiber stack guard mprotect failed");
  return static_cast<char*>(map);
}

// ---------------------------------------------------------------------------
// FiberStackArena — slab-allocated fiber stacks for huge worlds. Each kernel
// VMA is a protection boundary, so the per-fiber layout (PROT_NONE guard +
// RW stack) costs 2 VMAs per fiber and a 65,536-rank world blows through
// vm.max_map_count (default 65530) before the last rank spawns. The arena
// instead mmaps multi-megabyte slabs of [sentinel page][stack] units behind
// a single PROT_NONE guard page: uniform RW protection keeps the whole unit
// run in one VMA, so a slab costs 2 VMAs regardless of how many stacks it
// carries. Nothing ever writes a sentinel page, so release checks that it
// is still not resident and aborts with a report otherwise, converting a
// silent overflow into a deterministic failure (detection moves from
// fault-at-write to checked-at-release — the bottom stack of each slab
// still faults on the slab guard). Released stacks are recycled across
// worlds and their pages returned to the kernel with MADV_DONTNEED, so
// campaign RSS tracks the largest live world, not the sum of worlds run,
// and every tenant starts on a non-resident stack.
// ---------------------------------------------------------------------------

class FiberStackArena {
 public:
  static FiberStackArena& instance() {
    // tibsim-lint: allow(sim-static) — mutex-guarded process-wide arena
    static FiberStackArena arena;
    return arena;
  }

  /// Lowest usable address of a stack; its sentinel page sits directly
  /// below.
  char* acquire() {
    std::lock_guard lock(mutex_);
    if (free_.empty()) addSlab();
    char* stack = free_.back();
    free_.pop_back();
    return stack;
  }

  void release(char* stack) {
    const std::size_t page = pageBytes();
    if (firstResidentOffset(stack - page, page) != page) {
      // Release runs in a destructor, where a ContractError would terminate
      // without its message: report, then abort.
      std::fputs(
          "fiber stack overflow: the sentinel page below a pooled stack was "
          "touched (raise TIBSIM_FIBER_STACK_KB)\n",
          stderr);
      std::abort();
    }
    // Hand the pages back to the kernel: the next tenant starts with no
    // resident page, which keeps campaign RSS bounded by the largest
    // concurrently-live world and its high-water mark its own.
    madvise(stack, ExecutionContext::defaultStackBytes(), MADV_DONTNEED);
    std::lock_guard lock(mutex_);
    free_.push_back(stack);
  }

 private:
  void addSlab() {
    const std::size_t page = pageBytes();
    const std::size_t unit =
        ExecutionContext::defaultStackBytes() + page;  // sentinel + stack
    const std::size_t count =
        std::clamp<std::size_t>(kSlabTargetBytes / unit, 16, 512);
    char* base = mapGuardedStackMemory(page + count * unit) + page;
    for (std::size_t i = 0; i < count; ++i)
      free_.push_back(base + i * unit + page);
    // Slabs are never unmapped: stacks reference into them for the process
    // lifetime and MADV_DONTNEED already returns idle pages.
  }

  static constexpr std::size_t kSlabTargetBytes = std::size_t{4} << 20;

  std::mutex mutex_;
  std::vector<char*> free_;
};

}  // namespace

std::size_t pageBytes() {
  static const std::size_t page = [] {
    const long v = sysconf(_SC_PAGESIZE);
    return v > 0 ? static_cast<std::size_t>(v) : std::size_t{4096};
  }();
  return page;
}

std::size_t ExecutionContext::defaultStackBytes() {
  static const std::size_t bytes = [] {
    const char* env = std::getenv("TIBSIM_FIBER_STACK_KB");
    if (env == nullptr) return std::size_t{256} * 1024;
    const std::size_t page = pageBytes();
    const std::size_t maxKb =
        (std::numeric_limits<std::size_t>::max() - page) / 1024;
    const char* end = env + std::strlen(env);
    std::size_t kb = 0;
    const auto [stop, error] = std::from_chars(env, end, kb);
    TIB_REQUIRE_MSG(
        error == std::errc() && stop == end &&
            kb >= kMinFiberStackBytes / 1024 && kb <= maxKb,
        "TIBSIM_FIBER_STACK_KB must be a plain decimal KiB count >= " +
            std::to_string(kMinFiberStackBytes / 1024) +
            " whose byte count fits std::size_t, got \"" + env + "\"");
    return (kb * 1024 + page - 1) / page * page;
  }();
  return bytes;
}

// ---------------------------------------------------------------------------
// The fiber: an owned mmap'd stack with one PROT_NONE guard page below it
// (stacks grow down), so an overflow faults immediately instead of silently
// corrupting whatever the allocator placed next door. Stack pages are
// committed lazily by the kernel, so a fiber costs only the pages it
// touches, and those resident pages are the stack telemetry. ucontext
// (getcontext/makecontext) builds the initial stack frame and performs the
// first entry; steady-state switches use _setjmp/_longjmp, which save and
// restore only the register file — glibc's swapcontext issues a
// rt_sigprocmask syscall on every call, and that syscall is the bulk of its
// cost (the libtask/libaco technique). Sanitizer builds take the
// swapcontext path for every switch instead; the perf budget does not
// apply to them.
// ---------------------------------------------------------------------------

ExecutionContext::ExecutionContext(bool pooledStack)
    : stackBytes_(defaultStackBytes()), pooled_(pooledStack) {
  if (pooled_) {
    stack_ = FiberStackArena::instance().acquire();
  } else {
    stack_ = mapGuardedStackMemory(stackBytes_ + pageBytes()) + pageBytes();
  }
  tsanFiber_ = tsanCreateFiber();
}

// Process guarantees the entry has returned before destruction, so the
// stack is quiescent here: release the lease (which checks the overflow
// sentinel) or unmap the private mapping and its guard page.
ExecutionContext::~ExecutionContext() {
  tsanDestroyFiber(tsanFiber_);
  if (pooled_) {
    FiberStackArena::instance().release(stack_);
  } else {
    const std::size_t page = pageBytes();
    munmap(stack_ - page, stackBytes_ + page);
  }
}

void ExecutionContext::start(Entry entry) {
  TIB_ASSERT(!armed_);
  entry_ = std::move(entry);
  TIB_REQUIRE(getcontext(&fiberCtx_) == 0);
  fiberCtx_.uc_stack.ss_sp = stack_;
  fiberCtx_.uc_stack.ss_size = stackBytes_;
  fiberCtx_.uc_link = nullptr;  // exit is an explicit transfer in run()
  // makecontext passes ints only; smuggle `this` as two 32-bit halves.
  const auto self = reinterpret_cast<std::uintptr_t>(this);
  makecontext(&fiberCtx_, reinterpret_cast<void (*)()>(&ExecutionContext::run),
              2, static_cast<unsigned>(self >> 32),
              static_cast<unsigned>(self & 0xffffffffu));
  armed_ = true;
}

std::size_t ExecutionContext::stackHighWaterBytes() const {
  return stackBytes_ - firstResidentOffset(stack_, stackBytes_);
}

#if TIBSIM_ASAN || TIBSIM_TSAN

void ExecutionContext::switchIn() {
  TIB_ASSERT(armed_ && !done_);
  void* fakeStack = nullptr;
  asanStartSwitch(&fakeStack, stack_, stackBytes_);
  // The resuming host thread may differ between switches: a world run on
  // one thread can be torn down, unwinding its blocked fibers, on another.
  // So the host fiber is looked up every time.
  tsanHost_ = tsanCurrentFiber();
  tsanSwitchTo(tsanFiber_);
  TIB_REQUIRE(swapcontext(&hostCtx_, &fiberCtx_) == 0);
  // Back on the host stack; tell ASan and remember where the host stack
  // lives so yieldToHost() can announce the reverse switch.
  asanFinishSwitch(fakeStack, &hostStackBottom_, &hostStackSize_);
}

void ExecutionContext::yieldToHost() {
  void* fakeStack = nullptr;
  asanStartSwitch(&fakeStack, hostStackBottom_, hostStackSize_);
  tsanSwitchTo(tsanHost_);
  TIB_REQUIRE(swapcontext(&fiberCtx_, &hostCtx_) == 0);
  asanFinishSwitch(fakeStack, &hostStackBottom_, &hostStackSize_);
}

#else

void ExecutionContext::switchIn() {
  TIB_ASSERT(armed_ && !done_);
  if (_setjmp(hostJmp_) == 0) {
    if (!entered_) {
      // First entry: only makecontext can start a frame on the new stack.
      // Control returns via _longjmp(hostJmp_), never through this
      // swapcontext call.
      entered_ = true;
      TIB_REQUIRE(swapcontext(&hostCtx_, &fiberCtx_) == 0);
    } else {
      _longjmp(fiberJmp_, 1);
    }
  }
}

void ExecutionContext::yieldToHost() {
  if (_setjmp(fiberJmp_) == 0) _longjmp(hostJmp_, 1);
}

#endif  // TIBSIM_ASAN || TIBSIM_TSAN

void ExecutionContext::run(unsigned selfHi, unsigned selfLo) {
  auto* self = reinterpret_cast<ExecutionContext*>(
      (static_cast<std::uintptr_t>(selfHi) << 32) |
      static_cast<std::uintptr_t>(selfLo));
  // First time on the fiber stack: complete the switch the host started.
  asanFinishSwitch(nullptr, &self->hostStackBottom_, &self->hostStackSize_);
  self->entry_();
  self->done_ = true;
#if TIBSIM_ASAN || TIBSIM_TSAN
  // Final exit: a nullptr fake-stack save tells ASan this fiber is dying.
  asanStartSwitch(nullptr, self->hostStackBottom_, self->hostStackSize_);
  tsanSwitchTo(self->tsanHost_);
  swapcontext(&self->fiberCtx_, &self->hostCtx_);
#else
  _longjmp(self->hostJmp_, 1);
#endif
  TIB_ASSERT(false && "resumed a finished fiber");
}

}  // namespace tibsim::sim
