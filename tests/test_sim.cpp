// Tests for the discrete-event engine: ordering, process semantics,
// determinism, teardown, exception capture, engine stats, fiber stacks.
// The SimulationTest suite runs every case on both hosts (host_threads.hpp):
// no behaviour here may depend on which host thread drives the fibers.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "host_threads.hpp"
#include "stack_mappings.hpp"
#include "tibsim/common/assert.hpp"
#include "tibsim/sim/simulation.hpp"

namespace tibsim::sim {
namespace {

using testhost::Host;
using testhost::onHost;

class SimulationTest : public ::testing::TestWithParam<Host> {
 protected:
  // Drive `sim` on the host under test; construction, queries and teardown
  // stay on the test thread.
  static double run(Simulation& sim) {
    return onHost(GetParam(), [&] { return sim.run(); });
  }
  static double runUntil(Simulation& sim, double deadline) {
    return onHost(GetParam(), [&] { return sim.runUntil(deadline); });
  }
};

INSTANTIATE_TEST_SUITE_P(Backends, SimulationTest,
                         ::testing::Values(Host::Fiber, Host::Thread),
                         [](const auto& paramInfo) {
                           return testhost::hostName(paramInfo.param);
                         });

TEST_P(SimulationTest, EventsFireInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.scheduleAt(3.0, [&] { order.push_back(3); });
  sim.scheduleAt(1.0, [&] { order.push_back(1); });
  sim.scheduleAt(2.0, [&] { order.push_back(2); });
  run(sim);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST_P(SimulationTest, EqualTimestampsFifo) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i)
    sim.scheduleAt(1.0, [&order, i] { order.push_back(i); });
  run(sim);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST_P(SimulationTest, SchedulingInThePastThrows) {
  Simulation sim;
  sim.scheduleAt(5.0, [] {});
  run(sim);
  EXPECT_THROW(sim.scheduleAt(1.0, [] {}), ContractError);
}

TEST_P(SimulationTest, EventsCanScheduleMoreEvents) {
  Simulation sim;
  int fired = 0;
  sim.scheduleAt(1.0, [&] {
    ++fired;
    sim.scheduleIn(1.0, [&] { ++fired; });
  });
  run(sim);
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
}

TEST_P(SimulationTest, RunUntilStopsAtDeadline) {
  Simulation sim;
  int fired = 0;
  sim.scheduleAt(1.0, [&] { ++fired; });
  sim.scheduleAt(10.0, [&] { ++fired; });
  runUntil(sim, 5.0);
  EXPECT_EQ(fired, 1);
  run(sim);
  EXPECT_EQ(fired, 2);
}

TEST_P(SimulationTest, BackendIsTheRequestedOne) {
  // Process bodies execute on the requested host: the test thread itself
  // for `fiber`, another host thread for `thread`.
  Simulation sim;
  std::thread::id ranOn;
  sim.spawn("p", [&](Process&) { ranOn = std::this_thread::get_id(); });
  run(sim);
  EXPECT_EQ(ranOn == std::this_thread::get_id(), GetParam() == Host::Fiber);
}

TEST_P(SimulationTest, DelayAdvancesSimTime) {
  Simulation sim;
  double observed = -1.0;
  sim.spawn("p", [&](Process& p) {
    p.delay(2.5);
    observed = p.now();
  });
  run(sim);
  EXPECT_DOUBLE_EQ(observed, 2.5);
  EXPECT_EQ(sim.liveProcessCount(), 0u);
}

TEST_P(SimulationTest, MultipleProcessesInterleaveByTime) {
  Simulation sim;
  std::vector<std::string> log;
  sim.spawn("a", [&](Process& p) {
    p.delay(1.0);
    log.push_back("a1");
    p.delay(2.0);  // wakes at 3.0
    log.push_back("a3");
  });
  sim.spawn("b", [&](Process& p) {
    p.delay(2.0);
    log.push_back("b2");
  });
  run(sim);
  EXPECT_EQ(log, (std::vector<std::string>{"a1", "b2", "a3"}));
}

TEST_P(SimulationTest, SuspendResumeHandshake) {
  Simulation sim;
  std::vector<std::string> log;
  Process* waiterPtr = nullptr;
  auto& waiter = sim.spawn("waiter", [&](Process& p) {
    log.push_back("waiting");
    p.suspend();
    log.push_back("woken at " + std::to_string(static_cast<int>(p.now())));
  });
  waiterPtr = &waiter;
  sim.spawn("waker", [&](Process& p) {
    p.delay(5.0);
    p.simulation().resume(*waiterPtr);
  });
  run(sim);
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[1], "woken at 5");
}

TEST_P(SimulationTest, StaleWakeupsAreDropped) {
  // Two resumes target the same suspended process; the second must not
  // disturb it after it has moved on into a delay.
  Simulation sim;
  double finishTime = 0.0;
  auto& target = sim.spawn("t", [&](Process& p) {
    p.suspend();          // woken at t=1 by first resume
    p.delay(10.0);        // a stale resume at t=1 must not cut this short
    finishTime = p.now();
  });
  sim.scheduleAt(1.0, [&] {
    sim.resume(target);
    sim.resume(target);  // stale duplicate
  });
  run(sim);
  EXPECT_DOUBLE_EQ(finishTime, 11.0);
}

TEST_P(SimulationTest, NegativeDelayThrows) {
  Simulation sim;
  auto& p = sim.spawn("p", [&](Process& self) { self.delay(-1.0); });
  run(sim);
  // run() drained; the process finished with delay()'s own contract error
  // stored on it. Without that check, resuming in the past would raise a
  // different one.
  EXPECT_EQ(sim.liveProcessCount(), 0u);
  ASSERT_NE(p.exception(), nullptr);
  try {
    std::rethrow_exception(p.exception());
  } catch (const ContractError& error) {
    EXPECT_NE(std::string(error.what()).find("cannot delay by negative time"),
              std::string::npos)
        << error.what();
  } catch (...) {
    ADD_FAILURE() << "expected a ContractError";
  }
}

TEST_P(SimulationTest, ExceptionsAreCaptured) {
  Simulation sim;
  auto& p = sim.spawn("thrower", [](Process&) {
    throw std::runtime_error("boom");
  });
  run(sim);
  ASSERT_NE(p.exception(), nullptr);
  EXPECT_THROW(std::rethrow_exception(p.exception()), std::runtime_error);
}

TEST_P(SimulationTest, TeardownWithBlockedProcessesDoesNotHang) {
  auto sim = std::make_unique<Simulation>();
  sim->spawn("stuck", [](Process& p) { p.suspend(); });
  run(*sim);  // drains with the process still suspended
  EXPECT_EQ(sim->liveProcessCount(), 1u);
  sim.reset();  // must unwind and join cleanly
  SUCCEED();
}

// Satellite regression: destroying a Simulation while a process is blocked
// in delay() must unwind the process stack via ProcessKilled so that local
// destructors run (the body's frames own real resources: payload buffers,
// trace spans, RAII guards).
TEST_P(SimulationTest, KillRunsDestructorsWhileBlockedInDelay) {
  struct Sentinel {
    int* counter;
    explicit Sentinel(int* c) : counter(c) {}
    ~Sentinel() { ++*counter; }
  };
  int destroyed = 0;
  auto sim = std::make_unique<Simulation>();
  sim->spawn("blocked-in-delay", [&](Process& p) {
    Sentinel outer(&destroyed);
    {
      Sentinel inner(&destroyed);
      p.delay(100.0);  // the wake-up event is beyond the runUntil deadline
    }
    ADD_FAILURE() << "body must not resume after teardown";
  });
  runUntil(*sim, 1.0);  // starts the body, which parks inside delay(100)
  ASSERT_EQ(destroyed, 0);
  ASSERT_EQ(sim->liveProcessCount(), 1u);
  sim.reset();  // ProcessKilled unwinds both frames
  EXPECT_EQ(destroyed, 2);
}

// Same teardown contract for a recv-style suspension (suspend() with no
// resume scheduled at all — the shape of a rank blocked in MPI recv).
TEST_P(SimulationTest, KillRunsDestructorsWhileSuspended) {
  struct Sentinel {
    int* counter;
    explicit Sentinel(int* c) : counter(c) {}
    ~Sentinel() { ++*counter; }
  };
  int destroyed = 0;
  auto sim = std::make_unique<Simulation>();
  sim->spawn("blocked-in-recv", [&](Process& p) {
    Sentinel s(&destroyed);
    p.suspend();
    ADD_FAILURE() << "body must not resume after teardown";
  });
  run(*sim);
  ASSERT_EQ(destroyed, 0);
  sim.reset();
  EXPECT_EQ(destroyed, 1);
}

// A process exception recorded during the run must survive the teardown of
// other still-blocked processes and be rethrowable on the host thread.
TEST_P(SimulationTest, ExceptionRethrowsOnHostAfterTeardown) {
  std::exception_ptr captured;
  {
    Simulation sim;
    auto& thrower = sim.spawn("thrower", [](Process& p) {
      p.delay(0.5);
      throw std::runtime_error("boom at t=0.5");
    });
    sim.spawn("stuck", [](Process& p) { p.suspend(); });
    run(sim);
    ASSERT_NE(thrower.exception(), nullptr);
    captured = thrower.exception();
    EXPECT_EQ(sim.liveProcessCount(), 1u);
  }  // teardown kills "stuck" while captured is still alive
  ASSERT_NE(captured, nullptr);
  EXPECT_THROW(std::rethrow_exception(captured), std::runtime_error);
}

// A process spawned but never started (its start event still queued) must
// tear down cleanly: the kill must not run the body.
TEST_P(SimulationTest, TeardownBeforeFirstDispatchSkipsBody) {
  bool bodyRan = false;
  {
    Simulation sim;
    sim.spawn("never-started", [&](Process&) { bodyRan = true; });
    // No run(): the start event never fires.
  }
  EXPECT_FALSE(bodyRan);
}

TEST_P(SimulationTest, DeterministicAcrossRuns) {
  auto runOnce = [] {
    Simulation sim;
    std::vector<double> times;
    for (int i = 0; i < 5; ++i) {
      const std::string name = std::string("p").append(std::to_string(i));
      sim.spawn(name, [&times, i](Process& p) {
        p.delay(0.1 * (i + 1));
        times.push_back(p.now());
        p.delay(0.05);
        times.push_back(p.now());
      });
    }
    run(sim);
    return times;
  };
  EXPECT_EQ(runOnce(), runOnce());
}

TEST_P(SimulationTest, ManyProcessesComplete) {
  Simulation sim;
  int done = 0;
  for (int i = 0; i < 200; ++i) {
    sim.spawn("p", [&done, i](Process& p) {
      p.delay(0.001 * i);
      ++done;
    });
  }
  run(sim);
  EXPECT_EQ(done, 200);
  EXPECT_GE(sim.processedEvents(), 400u);
}

TEST_P(SimulationTest, EngineStatsCountTheMachinery) {
  Simulation sim;
  for (int i = 0; i < 3; ++i) {
    sim.spawn(std::string("p").append(std::to_string(i)), [](Process& p) {
      p.delay(1.0);
      p.delay(1.0);
    });
  }
  run(sim);
  const EngineStats stats = sim.engineStats();
  // 3 start events + 3 x 2 delay wake-ups.
  EXPECT_EQ(stats.eventsDispatched, 9u);
  // Each dispatched event switches into exactly one process here.
  EXPECT_EQ(stats.contextSwitches, 9u);
  EXPECT_EQ(stats.processesSpawned, 3u);
  EXPECT_EQ(stats.peakLiveProcesses, 3u);
  EXPECT_GE(stats.queueHighWater, 3u);
  EXPECT_DOUBLE_EQ(stats.simSeconds, 2.0);
  EXPECT_EQ(sim.processedEvents(), stats.eventsDispatched);
}

// The event loop orders every artefact byte, so its order is pinned on a
// deep queue as well as on toy ones. 4,096 processes block on seeded delays
// that are exact binary fractions (eighths), so many wake-up times are
// equal and some delays are zero. Besides plain sleepers, processes are
// suspended and resumed by callbacks, woken twice (leaving a stale wake-up
// queued), and finish while a stale wake-up for them is still queued.
// Every push is logged as (time, push index, target, suspension) and every
// resumption as (target, time). The engine's contract: the first wake-up
// of a suspension, in (time, push index) order, is live and the others are
// dropped, and live events run in (time, push index) order — so the
// resumptions must equal the live pushes stable-sorted by time.
TEST_P(SimulationTest, DeepQueueDispatchOrderFollowsPushOrder) {
  constexpr int kProcesses = 4096;
  constexpr int kRounds = 6;
  struct Push {
    double t;
    std::size_t index;
    int target;      ///< process index, or kProcesses + callback number
    int suspension;  ///< blocks of the target so far; -1 for a callback
  };
  Simulation sim;
  std::vector<Push> pushes;
  std::vector<std::pair<int, double>> resumptions;
  std::vector<Process*> procs;
  std::vector<int> suspensions(kProcesses, 0);
  int callbacks = 0;

  const auto wake = [&](int target, double t) {
    pushes.push_back({t, pushes.size(), target, suspensions[target]});
    sim.resumeAt(t, *procs[static_cast<std::size_t>(target)]);
  };
  const auto callbackAt = [&](double t, std::function<void()> fn) {
    const int id = kProcesses + callbacks++;
    pushes.push_back({t, pushes.size(), id, -1});
    sim.scheduleAt(t, [&resumptions, &sim, id, fn = std::move(fn)] {
      resumptions.emplace_back(id, sim.now());
      fn();
    });
  };

  for (int i = 0; i < kProcesses; ++i) {
    pushes.push_back({0.0, pushes.size(), i, 0});  // the start event
    const std::string name = std::string("p").append(std::to_string(i));
    procs.push_back(&sim.spawn(name, [&, i](Process& p) {
      resumptions.emplace_back(i, p.now());
      // Seeded per process, so the scenario does not depend on the order
      // the engine runs the bodies in.
      std::uint64_t rng =
          0x9E3779B97F4A7C15ull * static_cast<std::uint64_t>(i + 1);
      const auto eighths = [&rng] {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        return static_cast<double>(rng % 8) / 8.0;
      };
      for (int round = 0; round < kRounds; ++round) {
        const double d = eighths();
        const double r1 = eighths();
        const double r2 = eighths();
        ++suspensions[i];
        switch (i % 4) {
          case 0:  // plain sleeper
            pushes.push_back({p.now() + d, pushes.size(), i, suspensions[i]});
            p.delay(d);
            break;
          case 1:  // suspended, resumed by a callback
            callbackAt(p.now() + d, [&, i, r1] { wake(i, sim.now() + r1); });
            p.suspend();
            break;
          default:  // suspended, then woken twice by one callback
            callbackAt(p.now() + d, [&, i, r1, r2] {
              wake(i, sim.now() + r1);
              wake(i, sim.now() + r2);
            });
            p.suspend();
            break;
        }
        resumptions.emplace_back(i, p.now());
        // Finish early, with the second wake-up still queued.
        if (i % 4 == 3 && round == kRounds / 2) return;
      }
    }));
  }
  run(sim);
  EXPECT_EQ(sim.liveProcessCount(), 0u);
  // Every push is dispatched once, live or stale.
  EXPECT_EQ(sim.processedEvents(), pushes.size());

  // The live push of each suspension is its smallest (time, push index).
  std::map<std::pair<int, int>, std::size_t> firstWake;
  std::vector<Push> live;
  for (const Push& push : pushes) {
    if (push.suspension < 0) {
      live.push_back(push);
      continue;
    }
    const auto [it, fresh] =
        firstWake.try_emplace({push.target, push.suspension}, push.index);
    if (!fresh && push.t < pushes[it->second].t) it->second = push.index;
  }
  for (const auto& [key, index] : firstWake) live.push_back(pushes[index]);
  std::sort(live.begin(), live.end(),
            [](const Push& a, const Push& b) { return a.index < b.index; });
  std::stable_sort(live.begin(), live.end(),
                   [](const Push& a, const Push& b) { return a.t < b.t; });
  std::vector<std::pair<int, double>> expected;
  for (const Push& push : live) expected.emplace_back(push.target, push.t);
  // Report the first divergence, not two vectors of ~50k entries.
  std::size_t agree = 0;
  while (agree < resumptions.size() && agree < expected.size() &&
         resumptions[agree] == expected[agree])
    ++agree;
  EXPECT_EQ(resumptions.size(), expected.size());
  EXPECT_EQ(agree, expected.size())
      << "first divergence at resumption " << agree << ": expected target "
      << expected[agree].first << " at t=" << expected[agree].second;

  // The scenario exercises what it claims to.
  const std::size_t stale = pushes.size() - live.size();
  EXPECT_GT(stale, static_cast<std::size_t>(kProcesses / 2));
  std::size_t ties = 0;
  for (std::size_t k = 1; k < live.size(); ++k)
    if (live[k].t == live[k - 1].t) ++ties;
  EXPECT_GT(ties, live.size() / 2);
}

// The queue's contract, checked against a reference: callbacks fire in
// (time, push index) order, and the high-water mark is the largest number
// of events ever queued at once. The scenario covers what a two-tier queue
// (a heap of the earliest events, an unsorted tier for the rest, refilled
// by about a quarter at a time) could get wrong:
//  - a burst of 3,000 equal timestamps, larger than one refill, whose time
//    a refill's bound lands on while earlier events are still queued;
//  - callbacks that push at their own time or just after it while
//    thousands of later events are queued, and others that push far ahead,
//    so the queue peaks while most of it waits in the later tier;
//  - a queue that drains to one event and grows to a thousand again, and
//    one that drains empty between two run() calls and grows again.
TEST_P(SimulationTest, QueueMatchesAReferenceSortAcrossRefills) {
  struct Push {
    double t;
    std::size_t index;
  };
  Simulation sim;
  std::vector<Push> pushes;        // every scheduleAt, in push order
  std::vector<std::size_t> fired;  // push index of each callback fired
  std::size_t queued = 0;
  std::size_t peak = 0;
  std::uint64_t rng = 0x2545F4914F6CDD1Dull;
  const auto draw = [&rng](std::uint64_t n) {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng % n;
  };
  // Times on a 1/256 grid, so many of them are equal.
  const auto gridTime = [&draw](double from, std::uint64_t steps) {
    return from + static_cast<double>(draw(steps)) / 256.0;
  };
  std::function<void(double, std::function<void()>)> pushAt =
      [&](double t, std::function<void()> then) {
        const std::size_t index = pushes.size();
        pushes.push_back({t, index});
        peak = std::max(peak, ++queued);
        sim.scheduleAt(t, [&queued, &fired, index, then = std::move(then)] {
          --queued;
          fired.push_back(index);
          if (then) then();
        });
      };

  // Phase 1: 2,000 scattered events in [0, 1), each of which may push
  // more, and a 3,000-event burst at t = 0.5.
  for (int i = 0; i < 2000; ++i) {
    pushAt(gridTime(0.0, 256), [&] {
      const double now = sim.now();
      const std::uint64_t pick = draw(8);
      if (pick < 3) {
        pushAt(now, nullptr);  // same time, behind what is queued there
      } else if (pick < 5) {
        pushAt(gridTime(now, 4), nullptr);  // just after now
      } else if (pick == 5) {
        for (int k = 0; k < 8; ++k) pushAt(gridTime(now + 1.0, 256), nullptr);
      }
    });
  }
  for (int i = 0; i < 3000; ++i) pushAt(0.5, nullptr);

  // Phase 2: at t = 5 the queue holds one event (t = 6) and grows again.
  pushAt(6.0, nullptr);
  pushAt(5.0, [&] {
    for (int i = 0; i < 1000; ++i) pushAt(gridTime(5.0, 512), nullptr);
  });
  run(sim);
  EXPECT_EQ(queued, 0u);

  // Phase 3: from empty, after the first run() drained the queue.
  for (int i = 0; i < 500; ++i) pushAt(gridTime(sim.now(), 64), nullptr);
  run(sim);

  std::vector<Push> expected = pushes;
  std::stable_sort(expected.begin(), expected.end(),
                   [](const Push& a, const Push& b) { return a.t < b.t; });
  ASSERT_EQ(fired.size(), expected.size());
  std::size_t agree = 0;
  while (agree < fired.size() && fired[agree] == expected[agree].index)
    ++agree;
  EXPECT_EQ(agree, fired.size())
      << "first divergence at callback " << agree << ": expected push "
      << expected[agree].index << " at t=" << expected[agree].t
      << ", fired push " << fired[agree] << " at t="
      << pushes[fired[agree]].t;
  EXPECT_EQ(sim.engineStats().queueHighWater, peak);
  // The queue peaked after the first dispatch, not at the 5,002 events
  // queued before run().
  EXPECT_GT(peak, 5002u);
}

// Sixteen accumulators stay live across every switch: eight integers and
// eight doubles, more than either ISA's callee-saved registers hold (x86-64:
// six integer and no vector register; AArch64: ten integer and eight
// vector), so the compiler keeps some of each kind in those registers
// through the call. A switch that dropped one of them would hand a process
// the other side's value.
struct Accumulators {
  std::array<std::uint64_t, 8> ints{};
  std::array<double, 8> reals{};
  bool operator==(const Accumulators&) const = default;
};

// One body for the run inside the engine and the reference outside it, so
// both compute with the same instructions.
[[gnu::noinline]] Accumulators accumulate(std::uint64_t seed, int rounds,
                                          const std::function<void()>& pause) {
  std::uint64_t i0 = seed, i1 = seed * 3, i2 = seed * 5, i3 = seed * 7;
  std::uint64_t i4 = seed * 11, i5 = seed * 13, i6 = seed * 17,
                i7 = seed * 19;
  const double s = static_cast<double>(seed);
  double d0 = s, d1 = s / 3, d2 = s / 5, d3 = s / 7;
  double d4 = s / 11, d5 = s / 13, d6 = s / 17, d7 = s / 19;
  for (int r = 0; r < rounds; ++r) {
    i0 = i0 * 6364136223846793005u + 1442695040888963407u;
    i1 = (i1 ^ (i0 >> 7)) * 3;
    i2 += i1 ^ (i2 << 3);
    i3 = (i3 + i2) * 5;
    i4 ^= i3 + (i4 >> 11);
    i5 = i5 * 7 + i4;
    i6 += (i5 ^ i6) >> 5;
    i7 = (i7 ^ i6) * 9 + 1;
    d0 = d0 * 1.0000001 + 0.25;
    d1 = d1 * 0.9999999 + d0 * 1e-3;
    d2 = d2 + d1 * 0.5;
    d3 = d3 * 1.0000003 - d2 * 1e-4;
    d4 = d4 + d3 * 0.125;
    d5 = d5 * 0.9999997 + d4 * 1e-5;
    d6 = d6 + d5 * 0.0625;
    d7 = d7 * 1.0000002 + d6 * 1e-6;
    pause();
  }
  return {{i0, i1, i2, i3, i4, i5, i6, i7}, {d0, d1, d2, d3, d4, d5, d6, d7}};
}

TEST_P(SimulationTest, CalleeSavedRegistersSurviveASwitch) {
  constexpr int kRounds = 64;
  Simulation sim;
  std::array<Accumulators, 2> got{};
  // Process 1 starts half a step late, so the two alternate: every switch
  // leaves one process's accumulators for the host loop's registers and
  // enters the other's.
  for (int i = 0; i < 2; ++i)
    sim.spawn(std::string("p").append(std::to_string(i)),
              [&got, i](Process& p) {
                if (i == 1) p.delay(0.5);
                got[i] = accumulate(i + 1, kRounds, [&p] { p.delay(1.0); });
              });
  run(sim);
  for (int i = 0; i < 2; ++i)
    EXPECT_EQ(got[i], accumulate(i + 1, kRounds, [] {})) << "process " << i;
}

// A non-finite time is the caller's bug: +inf would order after every
// finite event and end the world at infinity, and NaN compares false with
// everything. Each entry point rejects one with a ContractError naming it.
TEST_P(SimulationTest, NonFiniteTimesAreRejected) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const auto rejection = [](const std::function<void()>& call) {
    try {
      call();
    } catch (const ContractError& error) {
      return std::string(error.what());
    }
    return std::string("accepted");
  };
  Simulation sim;
  int fired = 0;
  EXPECT_NE(rejection([&] { sim.scheduleAt(kInf, [&] { ++fired; }); })
                .find("inf"),
            std::string::npos);
  EXPECT_NE(rejection([&] { sim.scheduleAt(-kInf, [&] { ++fired; }); })
                .find("-inf"),
            std::string::npos);
  EXPECT_NE(rejection([&] { sim.scheduleAt(nan, [&] { ++fired; }); })
                .find("nan"),
            std::string::npos);
  EXPECT_NE(rejection([&] { sim.scheduleIn(kInf, [&] { ++fired; }); })
                .find("inf"),
            std::string::npos);

  // Inside a body the error is the process's exception.
  Process& sleeper = sim.spawn("sleeper", [](Process& p) { p.delay(kInf); });
  Process& napper = sim.spawn("napper", [&](Process& p) { p.delay(nan); });
  Process& waiter = sim.spawn("waiter", [](Process& p) { p.suspend(); });
  EXPECT_TRUE(std::isfinite(run(sim)));
  EXPECT_EQ(fired, 0);
  for (Process* p : {&sleeper, &napper}) {
    ASSERT_NE(p->exception(), nullptr) << p->name();
    EXPECT_NE(rejection([p] { std::rethrow_exception(p->exception()); })
                  .find(p == &sleeper ? "inf" : "nan"),
              std::string::npos)
        << p->name();
  }
  ASSERT_TRUE(waiter.suspended());
  EXPECT_NE(rejection([&] { sim.resumeAt(kInf, waiter); }).find("inf"),
            std::string::npos);
  EXPECT_EQ(sim.liveProcessCount(), 1u);
}

// The engine counters are part of the campaign artefacts, so they must be
// identical on both hosts, not merely "both plausible".
TEST(ExecutionContexts, BackendsProduceIdenticalStatsAndTimes) {
  auto runOnce = [](Host host) {
    Simulation sim;
    std::vector<double> times;
    for (int i = 0; i < 8; ++i) {
      const std::string name = std::string("p").append(std::to_string(i));
      sim.spawn(name, [&times, i](Process& p) {
        p.delay(0.01 * (i + 1));
        times.push_back(p.now());
        p.delay(0.02);
        times.push_back(p.now());
      });
    }
    onHost(host, [&] { return sim.run(); });
    return std::make_pair(times, sim.engineStats());
  };
  const auto [fiberTimes, fiberStats] = runOnce(Host::Fiber);
  const auto [threadTimes, threadStats] = runOnce(Host::Thread);
  EXPECT_EQ(fiberTimes, threadTimes);
  EXPECT_EQ(fiberStats.eventsDispatched, threadStats.eventsDispatched);
  EXPECT_EQ(fiberStats.contextSwitches, threadStats.contextSwitches);
  EXPECT_EQ(fiberStats.processesSpawned, threadStats.processesSpawned);
  EXPECT_EQ(fiberStats.peakLiveProcesses, threadStats.peakLiveProcesses);
  EXPECT_EQ(fiberStats.queueHighWater, threadStats.queueHighWater);
  EXPECT_DOUBLE_EQ(fiberStats.simSeconds, threadStats.simSeconds);
}

// A body that swallows ProcessKilled and blocks again would make teardown
// rerun it forever; it must end in a report naming the process instead.
TEST(ProcessKillDeathTest, SwallowedKillIsReportedNotAHang) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        auto sim = std::make_unique<Simulation>();
        sim->spawn("swallower", [](Process& p) {
          for (;;) {
            try {
              p.delay(1.0);
            } catch (...) {  // swallows ProcessKilled: the defect under test
            }
          }
        });
        sim->runUntil(3.0);
        sim.reset();
      },
      "process 'swallower' caught ProcessKilled and blocked again during "
      "teardown");
}

// Guard-page containment: a fiber that overruns its stack must fault on
// the PROT_NONE guard page (killing the process) instead of silently
// scribbling over a neighbouring fiber's stack, on a recycled stack too.
TEST(FiberGuardPageDeathTest, OverflowFaultsOnGuardPage) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        struct Overflow {
          // Non-tail recursion (the frame is read after the recursive call)
          // so the compiler cannot collapse it into a loop; noinline keeps
          // each level's 1 KiB frame on the fiber stack. It stops once a
          // frame lies below `floor`.
          __attribute__((noinline)) static int recurse(std::uintptr_t floor) {
            volatile char frame[1024];
            frame[0] = 1;
            if (reinterpret_cast<std::uintptr_t>(&frame[0]) < floor)
              return frame[0];
            const int below = recurse(floor);
            frame[sizeof(frame) - 1] = static_cast<char>(below);
            return frame[0] + frame[sizeof(frame) - 1];
          }
        };
        {
          // A finished world parks its stack, so the overflow below runs
          // on a recycled one, which must keep its guard page.
          Simulation first;
          first.spawn("first", [](Process& p) { p.delay(1.0); });
          first.run();
        }
        Simulation sim;
        sim.spawn("overflow", [](Process&) {
          // The stack top is page-aligned and the fiber's first frames fit
          // in its top page, so rounding this frame up finds the top. The
          // recursion ends a quarter page into the guard page: only the
          // guard itself can stop it.
          const std::size_t page = pageBytes();
          const auto frame =
              reinterpret_cast<std::uintptr_t>(__builtin_frame_address(0));
          const std::uintptr_t top = (frame + page - 1) / page * page;
          volatile int sink = Overflow::recurse(
              top - ExecutionContext::defaultStackBytes() - page / 4);
          (void)sink;
        });
        sim.run();
      },
      "");
}

// Private fiber stacks outlive their world: a second world of the same
// size takes the stacks the first one parked, so it maps none, and the
// first one unmapped none.
TEST(FiberStacks, SecondWorldOfTheSameSizeMapsNoStack) {
  constexpr int kRanks = 8;
  std::size_t inside = 0;
  const auto runWorld = [&](bool probe) {
    Simulation sim;
    for (int i = 0; i < kRanks; ++i)
      sim.spawn(std::string("p").append(std::to_string(i)),
                [&, probe, i](Process& p) {
                  p.delay(1.0);
                  if (probe && i == kRanks - 1)
                    inside = testmaps::privateStackMappings();
                });
    sim.run();
  };
  runWorld(false);
  const std::size_t after = testmaps::privateStackMappings();
  runWorld(true);
  EXPECT_GE(after, static_cast<std::size_t>(kRanks));
  EXPECT_EQ(inside, after);
}

// Pooled stacks have no guard page between neighbours. Nothing ever
// touches the sentinel page below a pooled stack, so a resident sentinel at
// release is an overflow and must kill the process.
TEST(FiberSentinelDeathTest, PooledOverflowIsCaughtOnRelease) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Simulation sim;
        sim.setPooledStacks(true);
        sim.spawn("overflow", [](Process&) {
          // The stack top is page-aligned and the fiber's first frames fit
          // in its top page, so rounding this frame up finds the top.
          const std::size_t page = pageBytes();
          const auto frame =
              reinterpret_cast<std::uintptr_t>(__builtin_frame_address(0));
          char* top = reinterpret_cast<char*>((frame + page - 1) / page * page);
          volatile char* belowStack =
              top - ExecutionContext::defaultStackBytes() - 1;
          *belowStack = 1;
        });
        sim.run();
      },
      "fiber stack overflow");
}

// A malformed TIBSIM_FIBER_STACK_KB is a contract error, never a silent
// fallback. defaultStackBytes() caches its first successful read, so the
// values are tried in a freshly exec'd child; a rejected read caches
// nothing, so one child can try them all.
TEST(FiberStackSizeDeathTest, MalformedEnvironmentValueIsAContractError) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(
      {
        for (const char* bad : {"0x100", "-5", "8", "", " 64", "+64",
                                "99999999999999999999999", "64k"}) {
          setenv("TIBSIM_FIBER_STACK_KB", bad, 1);
          try {
            ExecutionContext::defaultStackBytes();
            std::fprintf(stderr, "accepted \"%s\"\n", bad);
            std::exit(1);
          } catch (const ContractError& e) {
            std::fprintf(stderr, "%s\n", e.what());
          }
        }
        setenv("TIBSIM_FIBER_STACK_KB", "64", 1);
        std::exit(ExecutionContext::defaultStackBytes() == 64 * 1024 ? 0 : 1);
      },
      ::testing::ExitedWithCode(0),
      "TIBSIM_FIBER_STACK_KB must be a plain decimal KiB count >= 16 .*"
      "got \"64k\"");
}

}  // namespace
}  // namespace tibsim::sim
