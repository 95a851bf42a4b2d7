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
//
// Sharded (logical-process) mode: a Simulation can also act as one shard of
// a partitioned world (see shard_scheduler.hpp). In shard mode every event
// carries a *canonical key* — (push time, owner id, per-owner sequence) —
// instead of the single global sequence, so the merged event order across
// shards is a pure function of the simulated workload and not of how many
// shards executed it. The single-shard queue order (t, 0, global seq) is
// bit-identical to the legacy order, so shard mode never perturbs existing
// single-queue runs.

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
/// process is still blocked; unwinds the fiber stack. Never catch it.
class ProcessKilled {};

/// A cooperative simulation process. Created via Simulation::spawn; the
/// body receives a reference to its Process and may call delay()/suspend().
class Process {
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

  Simulation& sim_;
  std::uint64_t id_;
  std::string name_;
  Body body_;

  std::unique_ptr<ExecutionContext> context_;
  bool finished_ = false;
  std::exception_ptr exception_;
  bool killRequested_ = false;
  bool suspended_ = false;
  std::uint64_t suspendSeq_ = 0;
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

  // -- sharded (logical-process) mode --------------------------------------
  // See shard_scheduler.hpp for the window loop that drives these.
  //
  // Ordering model. The legacy engine's tie-break at equal t is push order
  // (a global sequence). Shard mode reconstructs that order exactly: the
  // window barrier merges the shards' dispatch logs and assigns every
  // dispatch a global ordinal G in merged order — which IS the legacy
  // dispatch order, because conservative windows partition simulated time
  // (every event of window W+1 is later than every event of window W).
  // An event pushed during dispatch D with per-dispatch push index i sorts
  // at (t, G(D), i): exactly the legacy (t, seq) order, since legacy seqs
  // at equal t are grouped by pushing dispatch in dispatch order.
  //
  // G(D) is only known once D's window has been merged, so in-window
  // pushes carry a *provisional* key — kProvisionalOrd | local dispatch
  // index — which orders correctly against everything dispatchable before
  // the next barrier (provisional sorts after final at equal t: final keys
  // come from earlier windows, hence smaller G). At the barrier, surviving
  // provisional entries are resolved to their final G and the heap is
  // rebuilt. Cross-shard (channel) pushes are performed at the barrier
  // itself, where G of the submitting dispatch is already final.

  /// Provisional-key tag: ord1 = kProvisionalOrd | local dispatch index.
  /// Global ordinals stay far below this bit for any realistic run.
  static constexpr std::uint64_t kProvisionalOrd = 1ull << 62;

  /// One dispatched event, as recorded by the shard-mode dispatch log: its
  /// queue ordering key plus how many pushes it caused (own-queue pushes
  /// made during the dispatch plus deferred cross-shard pushes declared via
  /// notePendingPush). The barrier merges these logs in key order to
  /// reconstruct the exact single-queue dispatch sequence and its size
  /// evolution.
  struct DispatchRecord {
    double t;
    std::uint64_t ord1;  ///< final G(pusher) or kProvisionalOrd | pusher D
    std::uint64_t ord2;  ///< push index within the pushing dispatch
    std::uint32_t pushes;
  };

  /// Switch this Simulation into shard mode. Process ids start at
  /// `firstProcessId`, which must be the shard's first global rank so spawn
  /// start events (keyed by process id) merge in global rank order — the
  /// legacy spawn-order tie-break. Call before the first spawn.
  void enableShardMode(std::uint64_t firstProcessId);
  bool shardMode() const { return shardMode_; }

  bool hasEvents() const { return !queue_.empty(); }
  /// Timestamp of the earliest queued event. Requires hasEvents().
  double nextEventTime() const;

  /// Dispatch every event with t strictly below `windowEnd` (the
  /// conservative-synchronisation window bound); returns the number of
  /// events dispatched. Does not measure host time — the shard scheduler
  /// accounts wall-clock once for the whole window loop.
  std::uint64_t runWindow(double windowEnd);

  /// Shard-mode dispatch log for the current window (cleared by the barrier
  /// after merging). Entries are in dispatch order, which within one shard
  /// is canonical key order.
  const std::vector<DispatchRecord>& dispatchLog() const {
    return dispatchLog_;
  }
  void clearDispatchLog() { dispatchLog_.clear(); }
  /// Index of the dispatch currently executing (log.size() - 1). Callers
  /// attribute deferred side effects (cross-shard ops, trace spans) to it.
  std::uint32_t currentDispatchIndex() const {
    return static_cast<std::uint32_t>(dispatchLog_.size() - 1);
  }
  /// Declare that the current dispatch will push one more event later (a
  /// deferred cross-shard push executed at the window barrier). Returns the
  /// push's index within this dispatch — its legacy intra-dispatch push
  /// position — and counts it for the canonical queue-size replay exactly
  /// like the legacy engine counted the immediate push.
  std::uint32_t notePendingPush() { return dispatchLog_.back().pushes++; }

  /// Barrier-side push of a callback under a final key: `g` is the global
  /// ordinal the barrier merge assigned to the submitting dispatch and
  /// `pushIdx` the value notePendingPush() returned there. Used only by the
  /// cross-shard channel, never from inside a dispatch; bypasses the
  /// dispatch log.
  void scheduleChannel(double t, std::uint64_t g, std::uint64_t pushIdx,
                       UniqueFunction fn);

  /// Barrier epilogue: resolve surviving provisional keys against this
  /// window's dispatch-ordinal map (`gByD[d]` = global ordinal of local
  /// dispatch d) and restore the heap order. Also resets the dispatch log.
  void finalizeWindowKeys(const std::vector<std::uint64_t>& gByD);

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

  /// One queued event, 40 trivially-copyable bytes: the binary-heap sift
  /// moves entries by value, so keeping closures out of the heap (and the
  /// entry POD) is what makes push/pop cheap. A process wake-up — the
  /// dominant event type, one per delay()/resume() — is encoded directly as
  /// (proc, suspendSeq tag) and never touches a closure; callback events
  /// set proc to nullptr and point `aux` at a slot in the closure slab.
  ///
  /// Ordering is (t, ord1, ord2). Legacy single-queue pushes use
  /// ord1 = global sequence, ord2 = 0 — exactly the historical (t, seq)
  /// order. Shard-mode pushes use ord1 = pushing dispatch's global ordinal
  /// (or its provisional stand-in, see kProvisionalOrd) and ord2 = push
  /// index within that dispatch, which reconstructs the legacy order
  /// exactly once the barrier resolves ordinals.
  struct Event {
    double t;
    std::uint64_t ord1;  ///< legacy: global seq; shard: G(pusher)
    std::uint64_t ord2;  ///< legacy: 0; shard: intra-dispatch push index
    Process* proc;       ///< non-null: wake this process
    std::uint64_t aux;   ///< proc ? suspension tag : closure slab slot
  };

  /// Explicit binary min-heap over a reserved vector, ordered by
  /// (t, ord1, ord2). Unlike std::priority_queue it hands out the popped
  /// element by value (no const_cast of top()) and exposes its size for
  /// high-water tracking.
  class EventQueue {
   public:
    bool empty() const { return heap_.empty(); }
    std::size_t size() const { return heap_.size(); }
    void reserve(std::size_t n) { heap_.reserve(n); }
    const Event& top() const { return heap_.front(); }
    void push(Event ev);
    Event pop();
    /// Rewrite provisional ord1 values via `gByD` and restore heap order
    /// (shard-mode barrier epilogue).
    void finalizeKeys(const std::vector<std::uint64_t>& gByD);

   private:
    static bool before(const Event& a, const Event& b) {
      if (a.t != b.t) return a.t < b.t;
      if (a.ord1 != b.ord1) return a.ord1 < b.ord1;
      return a.ord2 < b.ord2;
    }
    std::vector<Event> heap_;
    std::size_t provisional_ = 0;  ///< heap entries with a provisional ord1
  };

  void dispatch(const Event& ev);
  std::uint32_t stashClosure(UniqueFunction fn);
  void noteContextSwitch() { ++stats_.contextSwitches; }
  void noteProcessFinished(Process& p);
  /// Keyed (seq) outside shard mode; (G(pusher)|provisional, push index)
  /// inside it — see the shard-mode ordering model above.
  void pushQueue(double t, Process* proc, std::uint64_t aux);

  double now_ = 0.0;
  bool pooledStacks_ = false;
  std::uint64_t nextSeq_ = 0;
  std::uint64_t nextProcessId_ = 0;
  std::size_t liveNow_ = 0;
  EngineStats stats_;
  EventQueue queue_;
  // Shard mode (see enableShardMode): canonical key bookkeeping.
  bool shardMode_ = false;
  bool inDispatch_ = false;
  std::uint64_t idBase_ = 0;   ///< first process id (the shard's first rank)
  std::uint64_t hostSeq_ = 0;  ///< tie-break for host pushes (ord1 = 0)
  /// Process id whose spawn start event is being pushed (spawn() only):
  /// spawn events sort by process id so shards merge them in global rank
  /// order, matching the legacy spawn-order tie-break.
  std::uint64_t spawnOrdHint_ = 0;
  bool inSpawnPush_ = false;
  std::vector<DispatchRecord> dispatchLog_;
  // Closure slab for callback events; slots are recycled LIFO, so a steady
  // stream of scheduleIn() calls reuses the same few slots with no
  // allocator traffic.
  std::vector<UniqueFunction> closures_;
  std::vector<std::uint32_t> freeClosureSlots_;
  std::vector<std::unique_ptr<Process>> processes_;
};

}  // namespace tibsim::sim
