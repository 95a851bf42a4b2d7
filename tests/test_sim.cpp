// Tests for the discrete-event engine: ordering, process semantics,
// determinism, teardown, exception capture, engine stats, fiber stacks.
// The SimulationTest suite runs every case on both hosts (host_threads.hpp):
// no behaviour here may depend on which host thread drives the fibers.

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "host_threads.hpp"
#include "tibsim/common/assert.hpp"
#include "tibsim/sim/shard_scheduler.hpp"
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

TEST(StackAutoSizing, RecommendedStackBytesIsTwiceHwmPageRounded) {
  const std::size_t page = pageBytes();
  ASSERT_GT(page, 0u);
  // No telemetry -> keep the default.
  EXPECT_EQ(recommendedStackBytes(0), 0u);
  // Tiny high-water marks floor at the minimum usable stack.
  EXPECT_EQ(recommendedStackBytes(1), kMinFiberStackBytes);
  EXPECT_EQ(recommendedStackBytes(kMinFiberStackBytes / 2 - 1),
            kMinFiberStackBytes);
  // Above the floor: 2x the high-water mark, rounded up to a whole page.
  const std::size_t hwm = 5 * page + 123;
  const std::size_t rec = recommendedStackBytes(hwm);
  EXPECT_GE(rec, 2 * hwm);
  EXPECT_LT(rec, 2 * hwm + page);
  EXPECT_EQ(rec % page, 0u);
  // An exact page multiple does not get an extra page.
  EXPECT_EQ(recommendedStackBytes(4 * page), 8 * page);
}

TEST(StackAutoSizing, ProbeTelemetryFeedsARunnableRecommendation) {
  // The probe-then-sweep pattern end-to-end at engine level: measure a
  // workload's stack high-water mark, then rerun the same workload on
  // stacks sized from the telemetry.
  const auto workload = [](Simulation& sim) {
    for (int i = 0; i < 8; ++i) {
      sim.spawn("p" + std::to_string(i), [](Process& p) {
        volatile char frame[2048];
        frame[0] = 1;
        frame[sizeof(frame) - 1] = 1;
        p.delay(1.0);
      });
    }
    sim.run();
  };
  Simulation probe;
  workload(probe);
  const std::size_t hwm = probe.engineStats().stackHighWaterBytes;
  ASSERT_GT(hwm, 0u);
  const std::size_t sized = recommendedStackBytes(hwm);
  ASSERT_GE(sized, kMinFiberStackBytes);
  ASSERT_LT(sized, ExecutionContext::defaultStackBytes());
  Simulation sweep(sized);
  workload(sweep);
  EXPECT_EQ(sweep.engineStats().fiberStackBytes, sized);
  EXPECT_LE(sweep.engineStats().stackHighWaterBytes, sized);
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
        Simulation sim(kMinFiberStackBytes);
        // 64 x 1 KiB frames overrun the 16 KiB minimum stack well before
        // the recursion bottoms out.
        sim.spawn("overflow", [](Process&) {
          volatile int sink = Overflow::recurse(64);
          (void)sink;
        });
        sim.run();
      },
      "");
}

TEST(ShardScheduler, ChannelPushToTornDownShardIsAContractViolation) {
  // Routing a rank's cross-shard event to a detached engine is a
  // partitioning bug; the channel must reject it loudly, not enqueue into
  // freed state.
  Simulation a;
  Simulation b;
  ShardScheduler sched(1.0e-6);
  sched.addShard(&a);
  const std::size_t victim = sched.addShard(&b);
  sched.channelPush(victim, 0.5e-6, 1, 0, [] {});  // alive: accepted
  sched.teardownShard(victim);
  EXPECT_THROW(sched.channelPush(victim, 1.5e-6, 2, 0, [] {}),
               ContractError);
}

TEST(ShardScheduler, ScopedSimShardsOverrideRestoresPrevious) {
  const int before = defaultSimShards();
  {
    ScopedSimShards scoped(4);
    EXPECT_EQ(defaultSimShards(), 4);
    {
      ScopedSimShards nested(2);
      EXPECT_EQ(defaultSimShards(), 2);
    }
    EXPECT_EQ(defaultSimShards(), 4);
  }
  EXPECT_EQ(defaultSimShards(), before);
}

}  // namespace
}  // namespace tibsim::sim
