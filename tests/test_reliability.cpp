// Tests for the Section 6.3 DRAM reliability model and the fault-injection
// harness that drives its bit flips into a live verified MPI run.

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "host_threads.hpp"
#include "tibsim/arch/registry.hpp"
#include "tibsim/common/assert.hpp"
#include "tibsim/common/units.hpp"
#include "tibsim/reliability/dram_errors.hpp"
#include "tibsim/reliability/fault_injection.hpp"

namespace tibsim::reliability {
namespace {

TEST(DramErrors, PaperEstimateThirtyPercentDaily) {
  // "these figures suggest that a 1,500 node system, with 2 DIMMs per node,
  //  has a 30% error probability on any given day"
  DramErrorModel model;
  model.dimmAnnualErrorProbability = 0.045;  // the paper's arithmetic
  model.dimmsPerNode = 2;
  const double p = model.systemDailyErrorProbability(1500);
  EXPECT_GT(p, 0.20);
  EXPECT_LT(p, 0.45);
}

TEST(DramErrors, BandEndsBracketThePaperEstimate) {
  DramErrorModel low;
  low.dimmAnnualErrorProbability = 0.04;
  DramErrorModel high;
  high.dimmAnnualErrorProbability = 0.20;
  EXPECT_LT(low.systemDailyErrorProbability(1500), 0.30);
  EXPECT_GT(high.systemDailyErrorProbability(1500), 0.30);
}

TEST(DramErrors, DailyProbabilityConsistentWithAnnual) {
  DramErrorModel model;
  model.dimmAnnualErrorProbability = 0.12;
  const double pDay = model.dimmDailyErrorProbability();
  // Compounding the daily probability over a year returns the annual one.
  EXPECT_NEAR(1.0 - std::pow(1.0 - pDay, 365.0), 0.12, 1e-9);
}

TEST(DramErrors, MonteCarloMatchesClosedForm) {
  DramErrorModel model;
  model.dimmAnnualErrorProbability = 0.12;
  const double analytic = model.systemDailyErrorProbability(200);
  const double mc = model.monteCarloDailyErrorProbability(200, 4000, 99);
  EXPECT_NEAR(mc, analytic, 0.03);
}

TEST(DramErrors, MonotonicInNodes) {
  DramErrorModel model;
  double prev = 0.0;
  for (int nodes : {10, 100, 500, 1500, 5000}) {
    const double p = model.systemDailyErrorProbability(nodes);
    EXPECT_GT(p, prev);
    EXPECT_LT(p, 1.0);
    prev = p;
  }
}

TEST(DramErrors, ExpectedErrorsScaleLinearly) {
  DramErrorModel model;
  EXPECT_NEAR(model.expectedErrorsPerDay(2000),
              2.0 * model.expectedErrorsPerDay(1000), 1e-12);
}

TEST(DramErrors, JobSurvivalDropsWithDurationAndScale) {
  DramErrorModel model;
  const double shortSmall = model.jobSurvivalProbability(100, 1.0);
  const double longSmall = model.jobSurvivalProbability(100, 24.0);
  const double longBig = model.jobSurvivalProbability(1500, 24.0);
  EXPECT_GT(shortSmall, longSmall);
  EXPECT_GT(longSmall, longBig);
  EXPECT_GT(longBig, 0.0);
  EXPECT_LT(shortSmall, 1.0);
}

TEST(DramErrors, CheckpointThroughputTradeoff) {
  DramErrorModel model;
  // More frequent checkpoints waste more time writing but lose less work;
  // throughput must be < 1 and the model must see both effects.
  const double tShort = model.effectiveThroughput(1500, 0.5, 0.05);
  const double tLong = model.effectiveThroughput(1500, 48.0, 0.05);
  EXPECT_LT(tShort, 1.0);
  EXPECT_LT(tLong, 1.0);
  EXPECT_GT(tShort, 0.5);
  // Very long intervals on a big machine lose a lot to rework.
  EXPECT_LT(tLong, tShort);
}

TEST(DramErrors, InvalidInputsRejected) {
  DramErrorModel model;
  model.dimmAnnualErrorProbability = 1.5;
  EXPECT_THROW(model.dimmDailyErrorProbability(), ContractError);
  DramErrorModel ok;
  EXPECT_THROW(ok.jobSurvivalProbability(10, 0.0), ContractError);
}

// ---------------------------------------------------------------------------
// Fault injection into a verified collective run (ROADMAP 6.3)
// ---------------------------------------------------------------------------

mpi::WorldConfig faultDemoConfig() {
  mpi::WorldConfig cfg;
  cfg.platform = arch::PlatformRegistry::tegra2();
  cfg.frequencyHz = units::ghz(1.0);
  cfg.ranksPerNode = 1;
  cfg.topology.nodesPerLeafSwitch = 2;
  return cfg;
}

TEST(FaultInjection, PlanIsDeterministicAndInBounds) {
  const DramErrorModel model;
  const FaultPlan a = planCollectiveFault(model, 8, 6, 42);
  const FaultPlan b = planCollectiveFault(model, 8, 6, 42);
  EXPECT_EQ(a.victimRank, b.victimRank);
  EXPECT_EQ(a.victimStep, b.victimStep);
  EXPECT_GE(a.victimRank, 0);
  EXPECT_LT(a.victimRank, 8);
  EXPECT_GE(a.victimStep, 1);  // never step 0: a clean prefix first
  EXPECT_LT(a.victimStep, 6);
  EXPECT_NEAR(a.dailyErrorProbability,
              model.systemDailyErrorProbability(8), 1e-12);
  // A different seed must eventually plan a different strike.
  bool varied = false;
  for (std::uint64_t seed = 0; seed < 16 && !varied; ++seed) {
    const FaultPlan c = planCollectiveFault(model, 8, 6, seed);
    varied = c.victimRank != a.victimRank || c.victimStep != a.victimStep;
  }
  EXPECT_TRUE(varied);
}

TEST(FaultInjection, BitFlipSurfacesAsCollectiveMismatch) {
  const FaultPlan plan = planCollectiveFault(DramErrorModel{}, 6, 5, 42);
  const std::string report =
      runCollectiveFaultDemo(faultDemoConfig(), 6, 5, plan);
  ASSERT_FALSE(report.empty()) << "fault run completed without a report";
  EXPECT_EQ(report.rfind("collective mismatch on comm 0 at t=", 0), 0u)
      << report;
  // The witness names both sides of the divergence: the converged-vote
  // sum against the peers' residual max.
  EXPECT_NE(report.find("op=max"), std::string::npos) << report;
  EXPECT_NE(report.find("op=sum"), std::string::npos) << report;
  EXPECT_NE(report.find("every rank of a communicator must run the same "
                        "collective sequence"),
            std::string::npos)
      << report;
}

TEST(FaultInjection, MismatchReportIsByteIdenticalAcrossShards) {
  // The report must repeat byte for byte on a rerun and when another host
  // thread drives the ranks (host_threads.hpp).
  const FaultPlan plan = planCollectiveFault(DramErrorModel{}, 6, 5, 42);
  const auto report = [&](testhost::Host host) {
    return testhost::onHost(host, [&] {
      return runCollectiveFaultDemo(faultDemoConfig(), 6, 5, plan);
    });
  };
  const std::string base = report(testhost::Host::Fiber);
  ASSERT_FALSE(base.empty());
  EXPECT_EQ(report(testhost::Host::Fiber), base);
  EXPECT_EQ(report(testhost::Host::Thread), base);
}

}  // namespace
}  // namespace tibsim::reliability
