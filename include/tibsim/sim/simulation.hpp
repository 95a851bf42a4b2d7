#pragma once
// Discrete-event simulation engine.
//
// tibsim runs distributed applications (real control flow, modelled costs)
// against simulated hardware. Application code executes inside cooperative
// `Process`es scheduled one-at-a-time by the event loop; each process runs
// on its own user-space fiber (ExecutionContext, execution_context.hpp).
// Exactly one party — the scheduler or a single process — runs at any
// moment, giving deterministic, data-race-free simulation while letting
// application code be written as straight-line code (SimGrid-style)
// instead of event callbacks.
//
// Time is a double in seconds. Events with equal timestamps fire in the
// order they were scheduled (FIFO tie-break via a sequence number).

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "tibsim/sim/engine_stats.hpp"
#include "tibsim/sim/execution_context.hpp"

namespace tibsim::sim {

class Simulation;

/// Thrown inside a process body when the simulation is torn down while the
/// process is still blocked; unwinds the fiber stack. Never catch it: a body
/// that swallows it and blocks again is reported and the host aborts.
class ProcessKilled {};

/// A cooperative simulation process. Created via Simulation::spawn; the
/// body receives a reference to its Process and may call delay()/suspend().
/// Line-aligned so that its hot fields share one cache line (see below).
class alignas(kCacheLineBytes) Process {
 public:
  using Body = std::function<void(Process&)>;

  ~Process();
  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  /// Advance simulated time by dt seconds (dt >= 0). Callable only from
  /// inside this process's body.
  void delay(double dt);

  /// Block until another party calls Simulation::resume on this process.
  /// Callable only from inside this process's body.
  void suspend();

  /// Current simulated time, in seconds.
  double now() const;

  Simulation& simulation() { return sim_; }
  const std::string& name() const { return name_; }
  std::uint64_t id() const { return id_; }
  bool finished() const { return finished_; }
  /// True while the process is suspended waiting for an external resume.
  bool suspended() const { return suspended_; }
  /// Exception that escaped the body, if any (rethrow with std::rethrow).
  std::exception_ptr exception() const { return exception_; }

 private:
  friend class Simulation;
  Process(Simulation& sim, std::uint64_t id, std::string name, Body body,
          bool pooledStack);

  static void fiberMain(void* self);  // the context's entry: runs the body
  void switchIn();      // scheduler -> process; blocks scheduler until yield
  void yieldToHost();   // process -> scheduler
  void kill();          // request ProcessKilled unwind and run it to the end
  std::uint64_t beginSuspend();  // mark suspended, mint a suspension id

  // Hot line: everything Simulation::dispatch and switchIn() read or write
  // to wake this process, in the object's first cache line, with the
  // context's two saved stack pointers at its end. The event loop requests
  // that line two dispatches ahead and reads resumeSp_ from it one dispatch
  // ahead (see "Latency-hiding dispatch" in DESIGN.md).
  /// The fiber-stack address where the delay()/suspend() call the body
  /// last blocked in was made (the caller's stack pointer): the next
  /// switchIn() resumes in the frames around it. nullptr until the body
  /// first blocks.
  const char* resumeSp_ = nullptr;
  std::uint64_t suspendSeq_ = 0;  ///< tag of the current suspension
  Simulation& sim_;
  bool finished_ = false;
  bool suspended_ = false;
  bool killRequested_ = false;
  ExecutionContext context_;  ///< the fiber; its switch state leads

  // Cold: identity, body and the escaped exception.
  std::uint64_t id_;
  std::string name_;
  Body body_;
  std::exception_ptr exception_;
};

// One per rank, and line-aligned: 192 B on x86-64 with libstdc++.
static_assert(sizeof(Process) <= 4 * kCacheLineBytes,
              "a Process holds its fiber context and its body");

/// The event loop: a time-ordered queue of callbacks plus the set of spawned
/// processes. Not thread-safe: drive it from a single thread.
class Simulation {
 public:
  /// Every process runs on a fiber stack of
  /// ExecutionContext::defaultStackBytes().
  Simulation() = default;
  ~Simulation();

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  double now() const { return now_; }

  /// When enabled, fiber processes lease their stacks from the process-wide
  /// slab arena instead of mmap'ing private guarded stacks (2 kernel VMAs
  /// each — a 65,536-rank world would exceed vm.max_map_count). Worlds turn
  /// this on at/above kPooledStacksMinRanks. Call before the first spawn.
  void setPooledStacks(bool on) { pooledStacks_ = on; }

  /// Schedule a callback at absolute time t (>= now()). The callback waits
  /// in the closure slab, not in the queue entry. A capture that fits
  /// std::function's inline buffer (16 trivially copyable bytes in
  /// libstdc++, e.g. a message delivery's [this, dst, slot]) never touches
  /// the heap; process wake-ups take no closure at all (resumeAt).
  void scheduleAt(double t, std::function<void()> fn);

  /// Schedule a callback dt seconds from now (dt >= 0).
  void scheduleIn(double dt, std::function<void()> fn);

  /// Create a process and schedule it to start at the current time.
  Process& spawn(std::string name, Process::Body body);

  /// Wake a suspended process at time t (>= now()).
  void resumeAt(double t, Process& p);

  /// Wake a suspended process at the current time (after pending events at
  /// this timestamp that were scheduled earlier).
  void resume(Process& p);

  /// Run until the event queue drains. Returns the final simulation time.
  double run();

  /// Run until the event queue drains or time would exceed `deadline`.
  double runUntil(double deadline);

  /// Pre-size the event queue (e.g. to ~4x the expected process count).
  void reserveEvents(std::size_t n) {
    queue_.reserve(n);
    closures_.reserve(n);
  }

  std::size_t liveProcessCount() const { return liveNow_; }
  std::uint64_t processedEvents() const { return stats_.eventsDispatched; }

  /// Engine observability counters accumulated so far (simSeconds = now()).
  EngineStats engineStats() const;

 private:
  friend class Process;

  /// One queued event, 32 trivially-copyable bytes: the binary-heap sift
  /// moves entries by value, so keeping closures out of the heap (and the
  /// entry POD) is what makes push/pop cheap. A process wake-up — the
  /// dominant event type, one per delay()/resume() — is encoded directly as
  /// (proc, suspendSeq tag) and never touches a closure; callback events
  /// set proc to nullptr and point `aux` at a slot in the closure slab.
  /// The entry carries no prefetch hints: the loop finds what to prefetch
  /// through `proc`'s hot line (Process), and a wider entry costs more in
  /// the sift than the hints save (DESIGN.md, "Latency-hiding dispatch").
  /// Ordering is (t, seq): push order breaks ties at equal t.
  struct Event {
    double t;
    std::uint64_t seq;  ///< global push sequence
    Process* proc;      ///< non-null: wake this process
    std::uint64_t aux;  ///< proc ? suspension tag : closure slab slot
  };
  static_assert(sizeof(Event) == 32,
                "the queue entry stays 32 bytes: the heap sift copies it");
  static_assert(2 * sizeof(Event) == kCacheLineBytes,
                "two sibling heap slots fill one cache line");

  /// Two-tier queue ordered by (t, seq). A small binary min-heap (the near
  /// tier) holds exactly the events with t < bound_; an unsorted far tier
  /// holds the rest. A push below the bound sifts into the heap, any other
  /// push appends to the far tier. When the heap empties, a refill picks
  /// the t of about the earliest quarter of the far tier as the new bound
  /// and heapifies every far event below it. All events of one t sit in
  /// one tier, so pops come out in exact (t, seq) order (DESIGN.md, "The
  /// two-tier event queue").
  ///
  /// Both tiers share one buffer, so the queue touches no more memory than
  /// one heap of the same size would. Slot 0 sits on a cache-line boundary
  /// and is unused, the heap is 1-based in slots [1, near_] (the children
  /// 2i and 2i+1 of slot i share one line), and the far tier follows it in
  /// [near_ + 1, near_ + far_]. The heap is empty only when the whole
  /// queue is.
  class EventQueue {
   public:
    bool empty() const { return near_ == 0; }
    std::size_t size() const { return near_ + far_; }
    void reserve(std::size_t n);
    const Event& top() const { return slots_[1]; }
    /// Heap slot i (2 <= i <= nearSize()); slots 2 and 3 are the top's
    /// children, one of which becomes the top after the next pop.
    const Event& near(std::size_t i) const { return slots_[i]; }
    std::size_t nearSize() const { return near_; }
    void push(const Event& ev);
    Event pop();

   private:
    /// (t, seq) order without a data-dependent branch, for the child pick.
    static bool before(const Event& a, const Event& b) {
      return (a.t < b.t) | ((a.t == b.t) & (a.seq < b.seq));
    }
    /// The heap is empty and the far tier is not: heapify its earliest
    /// quarter.
    void refill();
    void grow(std::size_t bytes);

    /// The bound of a queue whose events all sit in the heap.
    static constexpr double kNoBound = std::numeric_limits<double>::infinity();
    /// A refill that finds at most this many far events takes them all and
    /// lifts the bound, so a shallow queue runs as one heap with no refills.
    static constexpr std::size_t kShallowEvents = 32;
    /// A heap that grows past this with the bound lifted hands its events
    /// back to the far tier and refills: the queue has become deep.
    static constexpr std::size_t kDeepEvents = 64;

    std::unique_ptr<std::byte[]> storage_;
    Event* slots_ = nullptr;    ///< the first line boundary in storage_
    std::size_t capacity_ = 0;  ///< slots, including the unused slot 0
    std::size_t near_ = 0;
    std::size_t far_ = 0;
    double bound_ = kNoBound;
  };

  /// Latency-hiding dispatch: pop the queue top and, before the caller
  /// dispatches it, request the cache lines dispatching the new top will
  /// touch — its Process hot line (which holds the context's saved stack
  /// pointers) and a window of fiber-stack lines around resumeSp_, or its
  /// closure slab slot — plus the hot lines of the processes in the top's
  /// child slots of the near heap. The requests are hints only: nothing
  /// dispatch observes changes.
  Event popAndPrefetch();
  /// Fiber-stack lines popAndPrefetch requests below and above resumeSp_.
  /// The stack grows down: below lie the registers the switch pops and the
  /// yieldToHost frames the resumed fiber returns through first (72-136 B
  /// on x86-64), above the body frames that delay()/suspend() return into.
  static constexpr int kStackLinesBelow = 4;
  static constexpr int kStackLinesAbove = 12;

  void dispatch(const Event& ev);
  std::uint32_t stashClosure(std::function<void()> fn);
  void noteContextSwitch() { ++stats_.contextSwitches; }
  void noteProcessFinished(Process& p);
  void pushQueue(double t, Process* proc, std::uint64_t aux);

  double now_ = 0.0;
  bool pooledStacks_ = false;
  std::uint64_t nextSeq_ = 0;
  std::uint64_t nextProcessId_ = 0;
  std::size_t liveNow_ = 0;
  EngineStats stats_;
  EventQueue queue_;
  // Closure slab for callback events; slots are recycled LIFO, so a steady
  // stream of scheduleIn() calls reuses the same few slots with no
  // allocator traffic.
  std::vector<std::function<void()>> closures_;
  std::vector<std::uint32_t> freeClosureSlots_;
  std::vector<std::unique_ptr<Process>> processes_;
};

}  // namespace tibsim::sim
