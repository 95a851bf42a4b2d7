// Tests for the discrete-event engine: ordering, process semantics,
// determinism, teardown, exception capture, engine stats, fiber stacks.
// The SimulationTest suite runs every case on both hosts (host_threads.hpp):
// no behaviour here may depend on which host thread drives the fibers.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "host_threads.hpp"
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
  sim.spawn("p", [&](Process& p) { p.delay(-1.0); });
  run(sim);
  // The exception is captured on the process and visible afterwards.
  std::size_t withException = 0;
  // run() drained; the process finished with a stored exception.
  EXPECT_EQ(sim.liveProcessCount(), 0u);
  (void)withException;
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
      sim.spawn("p" + std::to_string(i), [&times, i](Process& p) {
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
    sim.spawn("p" + std::to_string(i), [](Process& p) {
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
    procs.push_back(&sim.spawn("p" + std::to_string(i), [&, i](Process& p) {
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

// The engine counters are part of the campaign artefacts, so they must be
// identical on both hosts, not merely "both plausible".
TEST(ExecutionContexts, BackendsProduceIdenticalStatsAndTimes) {
  auto runOnce = [](Host host) {
    Simulation sim;
    std::vector<double> times;
    for (int i = 0; i < 8; ++i) {
      sim.spawn("p" + std::to_string(i), [&times, i](Process& p) {
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
// scribbling over a neighbouring fiber's stack.
TEST(FiberGuardPageDeathTest, OverflowFaultsOnGuardPage) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        struct Overflow {
          // Non-tail recursion (the frame is read after the recursive call)
          // so the compiler cannot collapse it into a loop; noinline keeps
          // each level's 1 KiB frame on the fiber stack.
          __attribute__((noinline)) static int recurse(int depth) {
            volatile char frame[1024];
            frame[0] = static_cast<char>(depth);
            if (depth <= 0) return frame[0];
            const int below = recurse(depth - 1);
            frame[sizeof(frame) - 1] = static_cast<char>(below);
            return frame[0] + frame[sizeof(frame) - 1];
          }
        };
        Simulation sim;
        // Twice as many 1 KiB frames as the stack holds overrun it well
        // before the recursion bottoms out.
        sim.spawn("overflow", [](Process&) {
          const auto frames = 2 * ExecutionContext::defaultStackBytes() / 1024;
          volatile int sink = Overflow::recurse(static_cast<int>(frames));
          (void)sink;
        });
        sim.run();
      },
      "");
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
