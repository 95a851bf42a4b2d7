#include "tibsim/sim/simulation.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

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
  if (killRequested_) {
    // kill() already threw ProcessKilled into this body, which caught it
    // and blocked again: rerunning it would loop forever. Teardown runs in
    // destructors, where a ContractError would terminate without its
    // message: report, then abort.
    std::fprintf(stderr,
                 "process '%s' caught ProcessKilled and blocked again during "
                 "teardown\n",
                 name_.c_str());
    std::abort();
  }
  context_->yieldToHost();
  if (killRequested_) throw ProcessKilled{};
}

std::uint64_t Process::beginSuspend() {
  suspended_ = true;
  return ++suspendSeq_;
}

void Process::delay(double dt) {
  TIB_REQUIRE_MSG(dt >= 0.0, "cannot delay by negative time");
  // The caller's stack pointer at this call (the CFA): unlike the frame
  // address it needs no frame pointer, so recording it is one store.
  resumeSp_ = static_cast<const char*>(__builtin_dwarf_cfa());
  beginSuspend();
  sim_.resumeAt(sim_.now() + dt, *this);
  yieldToHost();
}

void Process::suspend() {
  resumeSp_ = static_cast<const char*>(__builtin_dwarf_cfa());
  beginSuspend();
  yieldToHost();
}

double Process::now() const { return sim_.now(); }

void Process::kill() {
  if (context_ == nullptr || finished_) return;
  killRequested_ = true;
  // Run the context until the body has unwound (yieldToHost rethrows the
  // kill as ProcessKilled). A body that swallows ProcessKilled and blocks
  // again aborts in yieldToHost, so this loop ends.
  while (!finished_) switchIn();
}

// ---------------------------------------------------------------------------
// Simulation::EventQueue
// ---------------------------------------------------------------------------

void Simulation::EventQueue::push(Event ev) {
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
  queue_.push(Event{t, nextSeq_++, proc, aux});
  stats_.queueHighWater = std::max(stats_.queueHighWater, queue_.size());
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
  scheduleAt(now_, [&ref] {
    if (!ref.finished()) ref.switchIn();
  });
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
  while (!queue_.empty()) dispatch(popAndPrefetch());
  stats_.hostSeconds += secondsSince(start);
  return now_;
}

double Simulation::runUntil(double deadline) {
  const auto start = std::chrono::steady_clock::now();  // tibsim-lint: allow(wall-clock)
  while (!queue_.empty() && queue_.top().t <= deadline)
    dispatch(popAndPrefetch());
  if (now_ < deadline && queue_.empty()) now_ = deadline;
  stats_.hostSeconds += secondsSince(start);
  return now_;
}

// A deep queue's wake-ups land on processes, contexts and fiber stacks
// that have gone cold since they blocked; dispatching one then stalls on
// each of those lines in turn. The loop therefore works two stages ahead:
// the hot Process lines of the top's children are requested one dispatch
// before either can be the top, so when one is, its context_ and resumeSp_
// read from a line already in flight, and the lines they point at get the
// whole current dispatch to arrive.
//
// The prefetches stay in this function's body on purpose: GCC judges a
// function that only prefetches to be free of side effects and drops calls
// to it.
Simulation::Event Simulation::popAndPrefetch() {
  Event ev = queue_.pop();
  if (queue_.empty()) return ev;
  const Event& next = queue_.top();
  if (next.proc != nullptr) {
    const Process& p = *next.proc;
    __builtin_prefetch(&p, 1);
    p.context_->prefetchSwitchState();
    if (p.resumeSp_ != nullptr) {
      // Integer arithmetic: the window may run past the stack's ends, and a
      // prefetch of an unmapped line is simply dropped.
      const auto sp = reinterpret_cast<std::uintptr_t>(p.resumeSp_);
      for (int line = -kStackLinesBelow; line < kStackLinesAbove; ++line)
        __builtin_prefetch(
            reinterpret_cast<const void*>(
                sp + static_cast<std::uintptr_t>(line) * kCacheLineBytes),
            1);
    }
  } else {
    const auto* slot = reinterpret_cast<const char*>(
        &closures_[static_cast<std::size_t>(next.aux)]);
    __builtin_prefetch(slot, 1);
    __builtin_prefetch(slot + sizeof(UniqueFunction) - 1, 1);
  }
  const std::size_t last = std::min(kProcessLookahead, queue_.size() - 1);
  for (std::size_t i = 1; i <= last; ++i)
    if (const Process* q = queue_.at(i).proc) __builtin_prefetch(q, 1);
  return ev;
}

void Simulation::dispatch(const Event& ev) {
  TIB_ASSERT(ev.t >= now_);
  now_ = ev.t;
  ++stats_.eventsDispatched;
  if (ev.proc != nullptr) {
    Process& p = *ev.proc;
    if (!p.finished_ && p.suspended_ && p.suspendSeq_ == ev.aux) {
      p.suspended_ = false;
      p.switchIn();
    }
    return;
  }
  // Move the closure out and free its slot before invoking: the callback
  // may schedule again and immediately reuse the slot.
  UniqueFunction fn =
      std::move(closures_[static_cast<std::size_t>(ev.aux)]);
  freeClosureSlots_.push_back(static_cast<std::uint32_t>(ev.aux));
  fn();
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
