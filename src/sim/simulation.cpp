#include "tibsim/sim/simulation.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

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

// An infinite or NaN time would order after (or beside) every finite event
// and end the world at it; name the value so the caller can trace it. The
// throw stays out of line: its string temporaries would otherwise widen the
// frames of delay() and resumeAt(), which sit on a fiber's stack while it
// blocks, and with them each rank's resident stack.
[[noreturn, gnu::cold, gnu::noinline]] void throwNonFinite(const char* what,
                                                           double value) {
  throw ContractError(std::string(what) + " must be finite, got " +
                      std::to_string(value));
}

void requireFinite(const char* what, double value) {
  if (!std::isfinite(value)) throwNonFinite(what, value);
}
}  // namespace

// ---------------------------------------------------------------------------
// Process
// ---------------------------------------------------------------------------

Process::Process(Simulation& sim, std::uint64_t id, std::string name,
                 Body body, bool pooledStack)
    : sim_(sim),
      context_(&Process::fiberMain, this, pooledStack),
      id_(id),
      name_(std::move(name)),
      body_(std::move(body)) {}

Process::~Process() { kill(); }

void Process::fiberMain(void* self) {
  Process& p = *static_cast<Process*>(self);
  if (!p.killRequested_) {
    try {
      p.body_(p);
    } catch (const ProcessKilled&) {
      // Simulation torn down while this process was blocked: unwind.
    } catch (...) {
      // Keep the simulation alive; the owner inspects exception() after
      // the event loop drains and rethrows on its own thread.
      p.exception_ = std::current_exception();
    }
  }
  p.finished_ = true;
}

void Process::switchIn() {
  TIB_ASSERT(!finished_);
  sim_.noteContextSwitch();
  context_.switchIn();
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
  context_.yieldToHost();
  if (killRequested_) throw ProcessKilled{};
}

std::uint64_t Process::beginSuspend() {
  suspended_ = true;
  return ++suspendSeq_;
}

void Process::delay(double dt) {
  requireFinite("delay", dt);
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
  if (finished_) return;
  killRequested_ = true;
  // Run the context until the body has unwound (yieldToHost rethrows the
  // kill as ProcessKilled). A body that swallows ProcessKilled and blocks
  // again aborts in yieldToHost, so this loop ends.
  while (!finished_) switchIn();
}

// ---------------------------------------------------------------------------
// Simulation::EventQueue
// ---------------------------------------------------------------------------

void Simulation::EventQueue::grow(std::size_t bytes) {
  // Plain new[] of the bytes a vector of the same capacity would take, and
  // the slots start at the first line boundary inside: an aligned or larger
  // request takes a different path through malloc, and over a run of worlds
  // that leaves ~0.3 MiB more resident. new[] aligns to 16 bytes, so up to
  // 48 bytes go unused, and two lines always hold a boundary and a slot.
  bytes = std::max(bytes, 2 * kCacheLineBytes);
  auto storage = std::make_unique_for_overwrite<std::byte[]>(bytes);
  void* base = storage.get();
  std::size_t space = bytes;
  auto* const slots = static_cast<Event*>(
      std::align(kCacheLineBytes, sizeof(Event), base, space));
  if (slots_ != nullptr) std::copy(slots_ + 1, slots_ + 1 + size(), slots + 1);
  storage_ = std::move(storage);
  slots_ = slots;
  capacity_ = space / sizeof(Event);
}

void Simulation::EventQueue::reserve(std::size_t n) {
  if (n > capacity_) grow(n * sizeof(Event));
}

void Simulation::EventQueue::push(const Event& ev) {
  if (size() + 1 >= capacity_) grow(2 * (capacity_ + 2) * sizeof(Event));
  Event* const h = slots_;
  if (!(ev.t < bound_)) {
    h[near_ + far_ + 1] = ev;
    ++far_;
    return;
  }
  // The heap takes the far tier's first slot; that event moves to its end.
  if (far_ > 0) h[near_ + far_ + 1] = h[near_ + 1];
  std::size_t hole = ++near_;
  while (hole > 1) {
    const std::size_t parent = hole / 2;
    if (!before(ev, h[parent])) break;
    h[hole] = h[parent];
    hole = parent;
  }
  h[hole] = ev;
}

Simulation::Event Simulation::EventQueue::pop() {
  TIB_ASSERT(!empty());
  Event* const h = slots_;
  const Event out = h[1];
  const Event last = h[near_];
  // The far tier's last event moves into the slot the heap gives up.
  if (far_ > 0) h[near_] = h[near_ + far_];
  const std::size_t n = --near_;
  if (n == 0) {
    if (far_ > 0)
      refill();
    else
      bound_ = kNoBound;
    return out;
  }
  // Floyd's pop: walk the hole from the root down to a leaf along the
  // earlier child, then sift the former last entry up from there. It is
  // rarely earlier than its new parent, so this saves the sift-down's
  // second comparison per level.
  std::size_t hole = 1;
  for (std::size_t child = 2; child < n; child = 2 * hole) {
    child += before(h[child + 1], h[child]);
    h[hole] = h[child];
    hole = child;
  }
  if (2 * hole == n) {
    h[hole] = h[n];
    hole = n;
  }
  while (hole > 1) {
    const std::size_t parent = hole / 2;
    if (!before(last, h[parent])) break;
    h[hole] = h[parent];
    hole = parent;
  }
  h[hole] = last;
  if (n > kDeepEvents && bound_ == kNoBound) {
    // The queue has become deep: its events go back to the far tier.
    far_ += n;
    near_ = 0;
    refill();
  }
  return out;
}

void Simulation::EventQueue::refill() {
  TIB_ASSERT(near_ == 0 && far_ > 0);
  Event* const first = slots_ + 1;
  Event* const end = first + far_;
  Event* mid = end;
  if (far_ <= kShallowEvents) {
    bound_ = kNoBound;
  } else {
    // The new bound is the t of the far tier's earliest quarter. All of
    // that quarter lies in [first, kth) after nth_element, and every event
    // below the bound moves; events at the bound stay with the rest of
    // their t in the far tier.
    Event* const kth = first + far_ / 4;
    std::nth_element(first, kth, end, [](const Event& a, const Event& b) {
      return a.t < b.t;
    });
    bound_ = kth->t;
    const auto belowBound = [this](const Event& e) { return e.t < bound_; };
    mid = std::partition(first, kth, belowBound);
    if (mid == first) {
      // The whole quarter shares the earliest t: take all of that t.
      bound_ = std::nextafter(bound_, kNoBound);
      mid = std::partition(first, end, belowBound);
    }
  }
  near_ = static_cast<std::size_t>(mid - first);
  far_ -= near_;
  // std::make_heap's 0-based layout from `first` is this 1-based heap.
  std::make_heap(first, mid,
                 [](const Event& a, const Event& b) { return before(b, a); });
}

// ---------------------------------------------------------------------------
// Simulation
// ---------------------------------------------------------------------------

Simulation::~Simulation() {
  // Kill blocked processes before members are destroyed; Process::~Process
  // would do it too, but doing it explicitly keeps the order obvious.
  for (auto& p : processes_) p->kill();
}

std::uint32_t Simulation::stashClosure(std::function<void()> fn) {
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

void Simulation::scheduleAt(double t, std::function<void()> fn) {
  requireFinite("event time", t);
  TIB_REQUIRE_MSG(t >= now_, "cannot schedule an event in the past");
  pushQueue(t, nullptr, stashClosure(std::move(fn)));
}

void Simulation::scheduleIn(double dt, std::function<void()> fn) {
  TIB_REQUIRE(dt >= 0.0);
  scheduleAt(now_ + dt, std::move(fn));
}

Process& Simulation::spawn(std::string name, Process::Body body) {
  auto process = std::unique_ptr<Process>(new Process(
      *this, nextProcessId_++, std::move(name), std::move(body), pooledStacks_));
  Process& ref = *process;
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
  requireFinite("resume time", t);
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

// A deep queue's wake-ups land on processes and fiber stacks that have
// gone cold since they blocked; dispatching one then stalls on each of
// those lines in turn. The loop therefore works two stages ahead: the hot
// Process lines of the top's children, which also hold their contexts'
// saved stack pointers, are requested one dispatch before either can be
// the top, so when one is, its resumeSp_ reads from a line already in
// flight, and the stack lines it points at get the whole current dispatch
// to arrive.
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
    // The slab is only 16-byte aligned, so a 32 B slot may straddle two
    // lines: request both ends.
    const auto* slot = reinterpret_cast<const char*>(
        &closures_[static_cast<std::size_t>(next.aux)]);
    __builtin_prefetch(slot, 1);
    __builtin_prefetch(slot + sizeof(std::function<void()>) - 1, 1);
  }
  // The top's children, one of which is the next top, sit in heap slots 2
  // and 3, one line.
  const std::size_t last = std::min<std::size_t>(3, queue_.nearSize());
  for (std::size_t i = 2; i <= last; ++i)
    if (const Process* q = queue_.near(i).proc) __builtin_prefetch(q, 1);
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
  std::function<void()> fn =
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
      std::max(stats_.fiberStackBytes, p.context_.stackBytes());
  stats_.stackHighWaterBytes =
      std::max(stats_.stackHighWaterBytes, p.context_.stackHighWaterBytes());
}

EngineStats Simulation::engineStats() const {
  EngineStats out = stats_;
  out.simSeconds = now_;
  return out;
}

}  // namespace tibsim::sim
