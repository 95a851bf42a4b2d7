#include "tibsim/sim/simulation.hpp"

#include <chrono>

#include "tibsim/common/assert.hpp"

namespace tibsim::sim {

namespace {
// Host-side engine profiling only (EngineStats::hostSeconds, the run-summary
// host s/sim s column) — never serialised into campaign artefacts, so the
// wall-clock reads are safe to allow here.
using HostTimePoint = std::chrono::steady_clock::time_point;  // tibsim-lint: allow(wall-clock)

double secondsSince(HostTimePoint start) {
  const auto now = std::chrono::steady_clock::now();  // tibsim-lint: allow(wall-clock)
  return std::chrono::duration<double>(now - start).count();
}
}  // namespace

// ---------------------------------------------------------------------------
// Process
// ---------------------------------------------------------------------------

Process::Process(Simulation& sim, std::uint64_t id, std::string name,
                 Body body)
    : sim_(sim), id_(id), name_(std::move(name)), body_(std::move(body)) {}

Process::~Process() { kill(); }

void Process::start(bool pooledStack) {
  context_ = std::make_unique<ExecutionContext>(pooledStack);
  context_->start([this] {
    if (!killRequested_) {
      try {
        body_(*this);
      } catch (const ProcessKilled&) {
        // Simulation torn down while this process was blocked: unwind.
      } catch (...) {
        // Keep the simulation alive; the owner inspects exception() after
        // the event loop drains and rethrows on its own thread.
        exception_ = std::current_exception();
      }
    }
    finished_ = true;
  });
}

void Process::switchIn() {
  TIB_ASSERT(context_ != nullptr && !finished_);
  sim_.noteContextSwitch();
  context_->switchIn();
  if (finished_) sim_.noteProcessFinished(*this);
}

void Process::yieldToHost() {
  context_->yieldToHost();
  if (killRequested_) throw ProcessKilled{};
}

std::uint64_t Process::beginSuspend() {
  suspended_ = true;
  return ++suspendSeq_;
}

void Process::delay(double dt) {
  TIB_REQUIRE_MSG(dt >= 0.0, "cannot delay by negative time");
  beginSuspend();
  sim_.resumeAt(sim_.now() + dt, *this);
  yieldToHost();
}

void Process::suspend() {
  beginSuspend();
  yieldToHost();
}

double Process::now() const { return sim_.now(); }

void Process::kill() {
  if (context_ == nullptr || finished_) return;
  killRequested_ = true;
  // Run the context until the body has unwound (yieldToHost rethrows the
  // kill as ProcessKilled). A body that swallows ProcessKilled and keeps
  // blocking would loop here.
  while (!finished_) switchIn();
}

// ---------------------------------------------------------------------------
// Simulation::EventQueue
// ---------------------------------------------------------------------------

void Simulation::EventQueue::push(Event ev) {
  if ((ev.ord1 & kProvisionalOrd) != 0) ++provisional_;
  heap_.push_back(std::move(ev));
  std::size_t i = heap_.size() - 1;
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!before(heap_[i], heap_[parent])) break;
    std::swap(heap_[i], heap_[parent]);
    i = parent;
  }
}

Simulation::Event Simulation::EventQueue::pop() {
  TIB_ASSERT(!heap_.empty());
  Event out = std::move(heap_.front());
  if ((out.ord1 & kProvisionalOrd) != 0) --provisional_;
  Event last = std::move(heap_.back());
  heap_.pop_back();
  if (!heap_.empty()) {
    // Sift the former tail down from the root without intermediate swaps.
    std::size_t i = 0;
    const std::size_t n = heap_.size();
    for (;;) {
      std::size_t child = 2 * i + 1;
      if (child >= n) break;
      if (child + 1 < n && before(heap_[child + 1], heap_[child])) ++child;
      if (!before(heap_[child], last)) break;
      heap_[i] = std::move(heap_[child]);
      i = child;
    }
    heap_[i] = std::move(last);
  }
  return out;
}

void Simulation::EventQueue::finalizeKeys(
    const std::vector<std::uint64_t>& gByD) {
  // Most windows leave no provisional survivors (compute phases push and
  // consume within the window); the counter makes those barriers O(1)
  // instead of a full heap walk per shard per window.
  if (provisional_ == 0) return;
  for (Event& ev : heap_) {
    if ((ev.ord1 & kProvisionalOrd) == 0) continue;
    const std::uint64_t d = ev.ord1 & ~kProvisionalOrd;
    TIB_ASSERT(d < gByD.size());
    ev.ord1 = gByD[d];
  }
  provisional_ = 0;
  // Final ordinals order provisional entries exactly as their (D, idx)
  // provisional keys did within this shard, but the sift keeps the heap
  // valid against channel pushes that interleaved between them.
  for (std::size_t i = 1; i < heap_.size(); ++i) {
    std::size_t j = i;
    while (j > 0) {
      const std::size_t parent = (j - 1) / 2;
      if (!before(heap_[j], heap_[parent])) break;
      std::swap(heap_[j], heap_[parent]);
      j = parent;
    }
  }
}

// ---------------------------------------------------------------------------
// Simulation
// ---------------------------------------------------------------------------

Simulation::~Simulation() {
  // Kill blocked processes before members are destroyed; Process::~Process
  // would do it too, but doing it explicitly keeps the order obvious.
  for (auto& p : processes_) p->kill();
}

std::uint32_t Simulation::stashClosure(UniqueFunction fn) {
  if (freeClosureSlots_.empty()) {
    closures_.push_back(std::move(fn));
    return static_cast<std::uint32_t>(closures_.size() - 1);
  }
  const std::uint32_t slot = freeClosureSlots_.back();
  freeClosureSlots_.pop_back();
  closures_[slot] = std::move(fn);
  return slot;
}

void Simulation::pushQueue(double t, Process* proc, std::uint64_t aux) {
  if (!shardMode_) {
    // Legacy single-queue order: (t, global sequence) — bit-identical to
    // the historical tie-break.
    queue_.push(Event{t, nextSeq_++, 0, proc, aux});
  } else if (inDispatch_) {
    // Key by pushing dispatch (provisionally, by its local index — the
    // barrier resolves it to the global ordinal) and push position within
    // the dispatch: the legacy push-sequence order, reconstructed.
    const std::uint64_t d = dispatchLog_.size() - 1;
    queue_.push(Event{t, kProvisionalOrd | d,
                      dispatchLog_.back().pushes++, proc, aux});
  } else if (inSpawnPush_) {
    // Spawn start events sort by process id (= global rank): final key,
    // ordinal 0 — before every dispatched event's pushes, as in the legacy
    // engine where all spawns precede the first dispatch.
    queue_.push(Event{t, 0, spawnOrdHint_, proc, aux});
  } else {
    // Other host-context pushes (generic Simulation API use; simMPI never
    // schedules from the host mid-run). Keyed after all spawn ids.
    queue_.push(Event{t, 0, (1ull << 40) + hostSeq_++, proc, aux});
  }
  stats_.queueHighWater = std::max(stats_.queueHighWater, queue_.size());
}

void Simulation::enableShardMode(std::uint64_t firstProcessId) {
  TIB_REQUIRE_MSG(processes_.empty() && queue_.empty(),
                  "enableShardMode must precede the first spawn/schedule");
  shardMode_ = true;
  idBase_ = firstProcessId;
  nextProcessId_ = firstProcessId;
}

double Simulation::nextEventTime() const {
  TIB_ASSERT(!queue_.empty());
  return queue_.top().t;
}

std::uint64_t Simulation::runWindow(double windowEnd) {
  std::uint64_t dispatched = 0;
  while (!queue_.empty() && queue_.top().t < windowEnd) {
    Event ev = queue_.pop();
    dispatch(ev);
    ++dispatched;
  }
  return dispatched;
}

void Simulation::scheduleChannel(double t, std::uint64_t g,
                                 std::uint64_t pushIdx, UniqueFunction fn) {
  TIB_REQUIRE_MSG(t >= now_,
                  "cross-shard event would land in this shard's past "
                  "(lookahead bound violated)");
  TIB_ASSERT((g & kProvisionalOrd) == 0);
  queue_.push(Event{t, g, pushIdx, nullptr, stashClosure(std::move(fn))});
  stats_.queueHighWater = std::max(stats_.queueHighWater, queue_.size());
}

void Simulation::finalizeWindowKeys(const std::vector<std::uint64_t>& gByD) {
  queue_.finalizeKeys(gByD);
  dispatchLog_.clear();
}

void Simulation::scheduleAt(double t, UniqueFunction fn) {
  TIB_REQUIRE_MSG(t >= now_, "cannot schedule an event in the past");
  pushQueue(t, nullptr, stashClosure(std::move(fn)));
}

void Simulation::scheduleIn(double dt, UniqueFunction fn) {
  TIB_REQUIRE(dt >= 0.0);
  scheduleAt(now_ + dt, std::move(fn));
}

Process& Simulation::spawn(std::string name, Process::Body body) {
  auto process = std::unique_ptr<Process>(
      new Process(*this, nextProcessId_++, std::move(name), std::move(body)));
  Process& ref = *process;
  ref.start(pooledStacks_);
  processes_.push_back(std::move(process));
  ++stats_.processesSpawned;
  ++liveNow_;
  stats_.peakLiveProcesses = std::max(stats_.peakLiveProcesses, liveNow_);
  // The start event is keyed by the new process id in shard mode so start
  // events across shards merge in spawn (rank) order.
  inSpawnPush_ = true;
  spawnOrdHint_ = ref.id_;
  scheduleAt(now_, [&ref] {
    if (!ref.finished()) ref.switchIn();
  });
  inSpawnPush_ = false;
  return ref;
}

void Simulation::resumeAt(double t, Process& p) {
  TIB_REQUIRE_MSG(t >= now_, "cannot resume a process in the past");
  // Tag the wake-up with the suspension it belongs to: a resume scheduled
  // against suspension N must not fire into suspension N+1 (e.g. a stale
  // mailbox wake-up arriving while the process already sleeps in delay()).
  // Encoded directly in the event — no closure, no slab slot.
  pushQueue(t, &p, p.suspendSeq_);
}

void Simulation::resume(Process& p) { resumeAt(now_, p); }

double Simulation::run() {
  const auto start = std::chrono::steady_clock::now();  // tibsim-lint: allow(wall-clock)
  while (!queue_.empty()) {
    Event ev = queue_.pop();
    dispatch(ev);
  }
  stats_.hostSeconds += secondsSince(start);
  return now_;
}

double Simulation::runUntil(double deadline) {
  const auto start = std::chrono::steady_clock::now();  // tibsim-lint: allow(wall-clock)
  while (!queue_.empty() && queue_.top().t <= deadline) {
    Event ev = queue_.pop();
    dispatch(ev);
  }
  if (now_ < deadline && queue_.empty()) now_ = deadline;
  stats_.hostSeconds += secondsSince(start);
  return now_;
}

void Simulation::dispatch(const Event& ev) {
  TIB_ASSERT(ev.t >= now_);
  now_ = ev.t;
  ++stats_.eventsDispatched;
  if (shardMode_) {
    dispatchLog_.push_back(DispatchRecord{ev.t, ev.ord1, ev.ord2, 0});
    inDispatch_ = true;
  }
  if (ev.proc != nullptr) {
    Process& p = *ev.proc;
    if (!p.finished_ && p.suspended_ && p.suspendSeq_ == ev.aux) {
      p.suspended_ = false;
      p.switchIn();
    }
    inDispatch_ = false;
    return;
  }
  // Move the closure out and free its slot before invoking: the callback
  // may schedule again and immediately reuse the slot.
  UniqueFunction fn =
      std::move(closures_[static_cast<std::size_t>(ev.aux)]);
  freeClosureSlots_.push_back(static_cast<std::uint32_t>(ev.aux));
  fn();
  inDispatch_ = false;
}

void Simulation::noteProcessFinished(Process& p) {
  TIB_ASSERT(liveNow_ > 0);
  --liveNow_;
  // Harvest stack telemetry while the context is still alive: the body has
  // unwound, so the stack's resident pages are final.
  stats_.fiberStackBytes =
      std::max(stats_.fiberStackBytes, p.context_->stackBytes());
  stats_.stackHighWaterBytes =
      std::max(stats_.stackHighWaterBytes, p.context_->stackHighWaterBytes());
}

std::size_t Simulation::liveProcessCount() const {
  std::size_t live = 0;
  for (const auto& p : processes_)
    if (!p->finished()) ++live;
  return live;
}

EngineStats Simulation::engineStats() const {
  EngineStats out = stats_;
  out.simSeconds = now_;
  return out;
}

}  // namespace tibsim::sim
