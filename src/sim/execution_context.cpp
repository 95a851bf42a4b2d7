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

#if !defined(__LP64__) || !(defined(__x86_64__) || defined(__aarch64__))
#error "the fiber switch is written for LP64 x86-64 and AArch64 hosts only"
#endif

// Sanitizer builds switch through the same routine as every other build
// and announce each switch through the sanitizer's fiber interface, so
// ASan and TSan follow each rank onto its stack.
#if TIBSIM_ASAN
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif
#if TIBSIM_TSAN
#include <sanitizer/tsan_interface.h>
#endif

namespace tibsim::sim {

namespace {

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
  // A refused mprotect (the map count is exhausted) leaves no mapping.
  const bool guarded = mprotect(map, pageBytes(), PROT_NONE) == 0;
  if (!guarded) munmap(map, bytes);
  TIB_REQUIRE_MSG(guarded, "fiber stack guard mprotect failed");
  return static_cast<char*>(map);
}

// ---------------------------------------------------------------------------
// FiberStackArena — fiber stacks outlive their world. Mapping a guarded
// stack (mmap + madvise + mprotect) and unmapping it cost about as much as
// the rest of a rank's lifecycle, so released stacks go back on a free
// list and the next world's contexts take them from there. Two kinds:
//
// - Private stacks: one mapping each, a PROT_NONE guard page below the
//   stack, so an overflow faults at once. At most kPooledStacksMinRanks
//   are ever mapped (2 VMAs each), whether leased or parked, so release
//   always parks; a private request past the cap takes a pooled stack.
//   Without the cap, concurrent worlds below kPooledStacksMinRanks ranks
//   each (a campaign at --jobs 32) would together exhaust the map count.
// - Pooled stacks, for huge worlds. Each kernel VMA is a protection
//   boundary, so the private layout costs 2 VMAs per fiber and a
//   65,536-rank world blows through vm.max_map_count (default 65530)
//   before the last rank spawns. The arena instead mmaps multi-megabyte
//   slabs of [sentinel page][stack] units behind a single PROT_NONE guard
//   page: uniform RW protection keeps the whole unit run in one VMA, so a
//   slab costs 2 VMAs regardless of how many stacks it carries. Nothing
//   ever writes a sentinel page, so release checks that it is still not
//   resident and aborts with a report otherwise, converting a silent
//   overflow into a deterministic failure (detection moves from
//   fault-at-write to checked-at-release — the bottom stack of each slab
//   still faults on the slab guard).
//
// Release hands the pages the tenant made resident back to the kernel with
// MADV_DONTNEED, so a parked stack holds no resident page: campaign RSS
// tracks the largest live world, not the sum of worlds run, and every
// tenant starts on a non-resident stack and reports its own high water.
// ---------------------------------------------------------------------------

class FiberStackArena {
 public:
  static FiberStackArena& instance() {
    // tibsim-lint: allow(sim-static) — mutex-guarded process-wide arena
    static FiberStackArena arena;
    return arena;
  }

  /// Lowest usable address of a stack; a private stack's guard page, or a
  /// pooled stack's sentinel page, sits directly below. A private request
  /// takes a parked stack, else a fresh mapping while the cap allows, else
  /// a pooled stack, and then sets `pooled`.
  char* acquire(bool& pooled) {
    std::lock_guard lock(mutex_);
    if (!pooled) {
      if (!parked_.empty()) {
        char* stack = parked_.back();
        parked_.pop_back();
        return stack;
      }
      if (privateStacks_ < kPooledStacksMinRanks) {
        const std::size_t page = pageBytes();
        char* stack = mapGuardedStackMemory(
                          ExecutionContext::defaultStackBytes() + page) +
                      page;
        ++privateStacks_;
        return stack;
      }
      pooled = true;
    }
    if (free_.empty()) addSlab();
    char* stack = free_.back();
    free_.pop_back();
    return stack;
  }

  /// Return a stack whose pages from `residentFrom` up may be resident to
  /// its free list.
  void release(char* stack, bool pooled, std::size_t residentFrom) {
    const std::size_t page = pageBytes();
    if (pooled && firstResidentOffset(stack - page, page) != page) {
      // Release runs in a destructor, where a ContractError would terminate
      // without its message: report, then abort.
      std::fputs(
          "fiber stack overflow: the sentinel page below a pooled stack was "
          "touched (raise TIBSIM_FIBER_STACK_KB)\n",
          stderr);
      std::abort();
    }
    dropTenantPages(stack, residentFrom);
    std::lock_guard lock(mutex_);
    (pooled ? free_ : parked_).push_back(stack);
  }

 private:
  // Pages below residentFrom were never touched, so one madvise over the
  // rest leaves the stack with no resident page. A fiber dies inside
  // run(), so under ASan its last frames leave their redzones poisoned,
  // and the next tenant's first switch writes its entry frame there: the
  // same range is unpoisoned, never the whole stack, whose shadow would
  // then cost 1/8 of its size per parked stack.
  static void dropTenantPages(char* stack, std::size_t residentFrom) {
    const std::size_t bytes = ExecutionContext::defaultStackBytes();
    if (residentFrom >= bytes) return;
    madvise(stack + residentFrom, bytes - residentFrom, MADV_DONTNEED);
#if TIBSIM_ASAN
    __asan_unpoison_memory_region(stack + residentFrom, bytes - residentFrom);
#endif
  }

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
  std::vector<char*> free_;    ///< pooled stacks
  std::vector<char*> parked_;  ///< private stacks
  int privateStacks_ = 0;      ///< private stacks mapped, leased or parked
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
// touches, and those resident pages are the stack telemetry.
//
// A switch is one call to tibsim_switch_stacks(save, load): it pushes the
// callee-saved registers onto the current stack, stores the stack pointer
// through `save`, loads `load` and pops the other side's registers from
// there. Everything else a switch must preserve the compiler has already
// spilled around the call, so a context holds only the two saved stack
// pointers, and no switch makes a syscall (the signal mask is the host
// thread's and stays as it is). The first switchIn() writes a frame at the
// stack top that the switch pops like any other, with tibsim_fiber_entry
// as its return address and `self` and run() in two of its registers.
//
// Sanitizer builds run the same routine, with each switch announced around
// it: ASan's start/finish_switch_fiber pair and TSan's switch_to_fiber.
// ---------------------------------------------------------------------------

extern "C" {
void tibsim_switch_stacks(void** save, void* load);
void tibsim_fiber_entry();
}

namespace {

#if defined(__x86_64__)
// The SysV x86-64 callee-saved registers: rbx, rbp and r12-r15. A saved
// stack pointer addresses r15, then r14, r13, r12, rbx, rbp and the return
// address.
asm(R"(
    .pushsection .text
    .p2align 4
    .globl tibsim_switch_stacks
    .hidden tibsim_switch_stacks
    .type tibsim_switch_stacks, @function
tibsim_switch_stacks:
    pushq %rbp
    pushq %rbx
    pushq %r12
    pushq %r13
    pushq %r14
    pushq %r15
    movq %rsp, (%rdi)
    movq %rsi, %rsp
    popq %r15
    popq %r14
    popq %r13
    popq %r12
    popq %rbx
    popq %rbp
    ret
    .size tibsim_switch_stacks, .-tibsim_switch_stacks

    .p2align 4
    .globl tibsim_fiber_entry
    .hidden tibsim_fiber_entry
    .type tibsim_fiber_entry, @function
tibsim_fiber_entry:
    .cfi_startproc
    .cfi_undefined rip
    movq %rbx, %rdi
    call *%r12
    ud2
    .cfi_endproc
    .size tibsim_fiber_entry, .-tibsim_fiber_entry
    .popsection
)");
// The entry frame: r15 r14 r13 r12 rbx rbp and the return address, so the
// trampoline starts with the stack pointer at the (16-byte aligned) top.
constexpr std::size_t kEntryFrameWords = 7;
constexpr std::size_t kEntrySelfWord = 4;  // rbx
constexpr std::size_t kEntryRunWord = 3;   // r12
constexpr std::size_t kEntryReturnWord = 6;
#else
// The AAPCS64 callee-saved registers: x19-x28, the frame pointer x29, the
// link register x30 and d8-d15, in one 160-byte block that a saved stack
// pointer addresses.
asm(R"(
    .pushsection .text
    .p2align 4
    .globl tibsim_switch_stacks
    .hidden tibsim_switch_stacks
    .type tibsim_switch_stacks, %function
tibsim_switch_stacks:
    sub sp, sp, #160
    stp x19, x20, [sp, #0]
    stp x21, x22, [sp, #16]
    stp x23, x24, [sp, #32]
    stp x25, x26, [sp, #48]
    stp x27, x28, [sp, #64]
    stp x29, x30, [sp, #80]
    stp d8, d9, [sp, #96]
    stp d10, d11, [sp, #112]
    stp d12, d13, [sp, #128]
    stp d14, d15, [sp, #144]
    mov x9, sp
    str x9, [x0]
    mov sp, x1
    ldp x19, x20, [sp, #0]
    ldp x21, x22, [sp, #16]
    ldp x23, x24, [sp, #32]
    ldp x25, x26, [sp, #48]
    ldp x27, x28, [sp, #64]
    ldp x29, x30, [sp, #80]
    ldp d8, d9, [sp, #96]
    ldp d10, d11, [sp, #112]
    ldp d12, d13, [sp, #128]
    ldp d14, d15, [sp, #144]
    add sp, sp, #160
    ret
    .size tibsim_switch_stacks, .-tibsim_switch_stacks

    .p2align 4
    .globl tibsim_fiber_entry
    .hidden tibsim_fiber_entry
    .type tibsim_fiber_entry, %function
tibsim_fiber_entry:
    .cfi_startproc
    .cfi_undefined x30
    mov x0, x19
    blr x20
    brk #0
    .cfi_endproc
    .size tibsim_fiber_entry, .-tibsim_fiber_entry
    .popsection
)");
// The entry frame is one register block, so the trampoline starts with the
// stack pointer at the top.
constexpr std::size_t kEntryFrameWords = 20;
constexpr std::size_t kEntrySelfWord = 0;  // x19
constexpr std::size_t kEntryRunWord = 1;   // x20
constexpr std::size_t kEntryReturnWord = 11;  // x30
#endif

// The frame the first switch into a fiber pops: zeroed registers (a zero
// frame pointer ends frame-pointer backtraces) except `self` and `run`,
// and the trampoline as the return address.
void* writeEntryFrame(char* top, void (*run)(ExecutionContext*),
                      ExecutionContext* self) {
  auto* frame = reinterpret_cast<std::uintptr_t*>(top) - kEntryFrameWords;
  std::fill_n(frame, kEntryFrameWords, std::uintptr_t{0});
  frame[kEntrySelfWord] = reinterpret_cast<std::uintptr_t>(self);
  frame[kEntryRunWord] = reinterpret_cast<std::uintptr_t>(run);
  frame[kEntryReturnWord] =
      reinterpret_cast<std::uintptr_t>(&tibsim_fiber_entry);
  return frame;
}

}  // namespace

ExecutionContext::ExecutionContext(Entry entry, void* arg, bool pooledStack)
    : entry_(entry),
      arg_(arg),
      stackBytes_(defaultStackBytes()),
      pooled_(pooledStack) {
  stack_ = FiberStackArena::instance().acquire(pooled_);
#if TIBSIM_TSAN
  tsanFiber_ = __tsan_create_fiber(0);
#endif
}

// Process guarantees the entry has returned before destruction, so the
// stack is quiescent here: hand it back to its free list (a pooled release
// also checks the overflow sentinel).
ExecutionContext::~ExecutionContext() {
#if TIBSIM_TSAN
  __tsan_destroy_fiber(tsanFiber_);
#endif
  FiberStackArena::instance().release(stack_, pooled_, residentFrom_);
}

std::size_t ExecutionContext::stackHighWaterBytes() {
  const std::size_t offset = firstResidentOffset(stack_, stackBytes_);
  // Once the entry has returned nothing touches the stack again, so these
  // are exactly the pages release must drop.
  if (done_) residentFrom_ = offset;
  return stackBytes_ - offset;
}

void ExecutionContext::switchIn() {
  TIB_ASSERT(!done_);
  if (fiberSp_ == nullptr)
    fiberSp_ = writeEntryFrame(stack_ + stackBytes_, &run, this);
#if TIBSIM_ASAN
  void* fakeStack = nullptr;
  __sanitizer_start_switch_fiber(&fakeStack, stack_, stackBytes_);
#endif
#if TIBSIM_TSAN
  // The resuming host thread may differ between switches: a world run on
  // one thread can be torn down, unwinding its blocked fibers, on another.
  // So the host fiber is looked up every time.
  tsanHost_ = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(tsanFiber_, 0);
#endif
  tibsim_switch_stacks(&hostSp_, fiberSp_);
#if TIBSIM_ASAN
  // Back on the host stack. The fiber side learns where the host stack
  // lives from its own finish call.
  __sanitizer_finish_switch_fiber(fakeStack, nullptr, nullptr);
#endif
}

void ExecutionContext::yieldToHost() {
#if TIBSIM_ASAN
  void* fakeStack = nullptr;
  __sanitizer_start_switch_fiber(&fakeStack, hostStackBottom_,
                                 hostStackSize_);
#endif
#if TIBSIM_TSAN
  __tsan_switch_to_fiber(tsanHost_, 0);
#endif
  tibsim_switch_stacks(&fiberSp_, hostSp_);
#if TIBSIM_ASAN
  __sanitizer_finish_switch_fiber(fakeStack, &hostStackBottom_,
                                  &hostStackSize_);
#endif
}

void ExecutionContext::run(ExecutionContext* self) {
#if TIBSIM_ASAN
  // First time on the fiber stack: complete the switch the host started.
  __sanitizer_finish_switch_fiber(nullptr, &self->hostStackBottom_,
                                  &self->hostStackSize_);
#endif
  self->entry_(self->arg_);
  self->done_ = true;
#if TIBSIM_ASAN
  // Final exit: a nullptr fake-stack save tells ASan this fiber is dying.
  __sanitizer_start_switch_fiber(nullptr, self->hostStackBottom_,
                                 self->hostStackSize_);
#endif
#if TIBSIM_TSAN
  __tsan_switch_to_fiber(self->tsanHost_, 0);
#endif
  tibsim_switch_stacks(&self->fiberSp_, self->hostSp_);
  TIB_ASSERT(false && "resumed a finished fiber");
}

}  // namespace tibsim::sim
