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

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "tibsim/common/unique_function.hpp"
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
  /// Identifier of the current (or most recent) suspension; resumes are
  /// tagged with this so stale wake-ups cannot disturb a later suspension.
  std::uint64_t suspendId() const { return suspendSeq_; }
  /// Exception that escaped the body, if any (rethrow with std::rethrow).
  std::exception_ptr exception() const { return exception_; }

 private:
  friend class Simulation;
  Process(Simulation& sim, std::uint64_t id, std::string name, Body body);

  void start(bool pooledStack);
  void switchIn();      // scheduler -> process; blocks scheduler until yield
  void yieldToHost();   // process -> scheduler
  void kill();          // request ProcessKilled unwind and run it to the end
  std::uint64_t beginSuspend();  // mark suspended, mint a suspension id

  // Hot line: everything Simulation::dispatch and switchIn() read or write
  // to wake this process, in the object's first cache line. The event loop
  // requests that line two dispatches ahead and reads context_ and
  // resumeSp_ from it one dispatch ahead (see "Latency-hiding dispatch" in
  // DESIGN.md).
  std::unique_ptr<ExecutionContext> context_;
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

  // Cold: identity, body and the escaped exception.
  std::uint64_t id_;
  std::string name_;
  Body body_;
  std::exception_ptr exception_;
};

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
  bool pooledStacks() const { return pooledStacks_; }

  /// Schedule a callback at absolute time t (>= now()). The callback type
  /// is move-only with 48 bytes of inline storage (UniqueFunction), so the
  /// hot-path closures — message delivery, process wake-ups — never touch
  /// the heap.
  void scheduleAt(double t, UniqueFunction fn);

  /// Schedule a callback dt seconds from now (dt >= 0).
  void scheduleIn(double dt, UniqueFunction fn);

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

  std::size_t liveProcessCount() const;
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

  /// Explicit binary min-heap over a reserved vector, ordered by (t, seq).
  /// Unlike std::priority_queue it hands out the popped element by value
  /// (no const_cast of top()) and exposes its size for high-water tracking.
  class EventQueue {
   public:
    bool empty() const { return heap_.empty(); }
    std::size_t size() const { return heap_.size(); }
    void reserve(std::size_t n) { heap_.reserve(n); }
    const Event& top() const { return heap_.front(); }
    /// The entry at heap index i (< size()); 1 and 2 are the top's
    /// children, one of which becomes the top after the next pop.
    const Event& at(std::size_t i) const { return heap_[i]; }
    void push(Event ev);
    Event pop();

   private:
    static bool before(const Event& a, const Event& b) {
      if (a.t != b.t) return a.t < b.t;
      return a.seq < b.seq;
    }
    std::vector<Event> heap_;
  };

  /// Latency-hiding dispatch: pop the queue top and, before the caller
  /// dispatches it, request the cache lines dispatching the new top will
  /// touch — its Process hot line, the ExecutionContext state switchIn()
  /// touches and a window of fiber-stack lines around resumeSp_, or its
  /// closure slab slot — plus the hot lines of the processes at heap
  /// indices 1..kProcessLookahead. The requests are hints only: nothing
  /// dispatch observes changes.
  Event popAndPrefetch();
  /// Heap entries after the top whose Process hot line popAndPrefetch
  /// requests: the top's two children, one of which is the next top.
  static constexpr std::size_t kProcessLookahead = 2;
  /// Fiber-stack lines popAndPrefetch requests below and above resumeSp_.
  /// The stack grows down: below lie the yieldToHost frames the resumed
  /// fiber returns through first, above the body frames that
  /// delay()/suspend() return into.
  static constexpr int kStackLinesBelow = 4;
  static constexpr int kStackLinesAbove = 12;

  void dispatch(const Event& ev);
  std::uint32_t stashClosure(UniqueFunction fn);
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
  std::vector<UniqueFunction> closures_;
  std::vector<std::uint32_t> freeClosureSlots_;
  std::vector<std::unique_ptr<Process>> processes_;
};

}  // namespace tibsim::sim
