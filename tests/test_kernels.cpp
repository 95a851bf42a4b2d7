// Tests for the Table-2 micro-kernel suite: every kernel verifies in both
// serial and parallel variants across sizes, profiles are sane, and the
// registry round-trips.

#include <gtest/gtest.h>

#include <set>

#include "tibsim/common/assert.hpp"
#include "tibsim/common/thread_pool.hpp"
#include "tibsim/kernels/microkernel.hpp"
#include "tibsim/kernels/suite.hpp"

namespace tibsim::kernels {
namespace {

std::size_t sizeFor(const std::string& tag, int scale) {
  // Kernel-appropriate problem sizes (n is kernel-specific).
  if (tag == "dmmm") return scale == 0 ? 24 : 56;
  if (tag == "3dstc") return scale == 0 ? 12 : 24;
  if (tag == "2dcon") return scale == 0 ? 32 : 96;
  if (tag == "fft") return scale == 0 ? 256 : 4096;
  if (tag == "nbody") return scale == 0 ? 48 : 160;
  if (tag == "amcd") return scale == 0 ? 20000 : 120000;
  if (tag == "spvm") return scale == 0 ? 64 : 400;
  return scale == 0 ? 1000 : 20000;  // vector-shaped kernels
}

TEST(Suite, HasElevenKernelsInTableOrder) {
  const auto& tags = suiteTags();
  ASSERT_EQ(tags.size(), 11u);
  EXPECT_EQ(tags.front(), "vecop");
  EXPECT_EQ(tags.back(), "spvm");
  const auto suite = makeSuite();
  ASSERT_EQ(suite.size(), 11u);
  for (std::size_t i = 0; i < suite.size(); ++i)
    EXPECT_EQ(suite[i]->tag(), tags[i]);
}

TEST(Suite, UnknownTagThrows) {
  EXPECT_THROW(makeKernel("nosuch"), ContractError);
  EXPECT_THROW(referenceProfileFor("nosuch"), ContractError);
}

TEST(Suite, NamesAndPropertiesNonEmpty) {
  for (const auto& kernel : makeSuite()) {
    EXPECT_FALSE(kernel->fullName().empty()) << kernel->tag();
    EXPECT_FALSE(kernel->properties().empty()) << kernel->tag();
  }
}

TEST(Suite, ReferenceProfilesAreSane) {
  for (const auto& tag : suiteTags()) {
    const auto profile = referenceProfileFor(tag);
    EXPECT_GT(profile.flops, 0.0) << tag;
    EXPECT_GE(profile.bytes, 0.0) << tag;
    EXPECT_GT(profile.computeEfficiency, 0.0) << tag;
    EXPECT_LE(profile.computeEfficiency, 1.0) << tag;
    EXPECT_GT(profile.parallelFraction, 0.5) << tag;
    EXPECT_LE(profile.parallelFraction, 1.0) << tag;
    EXPECT_GE(profile.loadImbalance, 0.0) << tag;
  }
}

TEST(Suite, SpvmIsTheImbalancedKernel) {
  EXPECT_GT(referenceProfileFor("spvm").loadImbalance, 0.1);
  EXPECT_DOUBLE_EQ(referenceProfileFor("vecop").loadImbalance, 0.0);
}

TEST(Suite, RunBeforeSetupThrows) {
  for (const auto& tag : suiteTags()) {
    const auto kernel = makeKernel(tag);
    EXPECT_THROW(kernel->runSerial(), ContractError) << tag;
  }
}

// Parameterised: every kernel x {serial, parallel} x {small, medium} must
// run and verify.
class KernelCorrectness
    : public ::testing::TestWithParam<std::tuple<std::string, bool, int>> {};

TEST_P(KernelCorrectness, RunsAndVerifies) {
  const auto& [tag, parallel, scale] = GetParam();
  const auto kernel = makeKernel(tag);
  kernel->setup(sizeFor(tag, scale), /*seed=*/42 + scale);
  if (parallel) {
    TaskPool pool(3);
    kernel->runParallel(pool);
  } else {
    kernel->runSerial();
  }
  EXPECT_TRUE(kernel->verify()) << tag << (parallel ? " parallel" : " serial");
  const auto profile = kernel->currentProfile();
  EXPECT_GT(profile.flops, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, KernelCorrectness,
    ::testing::Combine(::testing::ValuesIn(suiteTags()),
                       ::testing::Bool(), ::testing::Values(0, 1)),
    [](const ::testing::TestParamInfo<KernelCorrectness::ParamType>& test) {
      return std::get<0>(test.param) +
             (std::get<1>(test.param) ? "_par" : "_ser") +
             (std::get<2>(test.param) == 0 ? "_small" : "_medium");
    });

TEST(KernelRepeatability, SerialAndParallelAgree) {
  // For deterministic kernels the two variants must produce identical
  // verifiable state (checked through verify(), already covered) and for
  // reduction-style kernels results must agree within FP reassociation.
  TaskPool pool(4);
  auto serial = makeKernel("red");
  auto parallel = makeKernel("red");
  serial->setup(50000, 7);
  parallel->setup(50000, 7);
  serial->runSerial();
  parallel->runParallel(pool);
  EXPECT_TRUE(serial->verify());
  EXPECT_TRUE(parallel->verify());
}

TEST(KernelRepeatability, ReRunningKeepsVerifying) {
  TaskPool pool(2);
  auto kernel = makeKernel("msort");
  kernel->setup(5000, 3);
  for (int i = 0; i < 3; ++i) {
    kernel->runSerial();
    EXPECT_TRUE(kernel->verify());
    kernel->runParallel(pool);
    EXPECT_TRUE(kernel->verify());
  }
}

// Randomised property sweep: every kernel must verify for many seeds (the
// inputs are random; a verification that only works for one seed would be
// a coincidence, not an invariant).
class KernelSeedSweep
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(KernelSeedSweep, VerifiesForEverySeed) {
  const auto& [tag, seed] = GetParam();
  const auto kernel = makeKernel(tag);
  kernel->setup(sizeFor(tag, 0), static_cast<std::uint64_t>(seed) * 7919);
  kernel->runSerial();
  EXPECT_TRUE(kernel->verify()) << tag << " seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, KernelSeedSweep,
    ::testing::Combine(::testing::ValuesIn(suiteTags()),
                       ::testing::Values(1, 2, 3)),
    [](const ::testing::TestParamInfo<KernelSeedSweep::ParamType>& test) {
      return std::get<0>(test.param) + "_seed" +
             std::to_string(std::get<1>(test.param));
    });

TEST(Fft, RejectsNonPowerOfTwo) {
  auto kernel = makeKernel("fft");
  EXPECT_THROW(kernel->setup(1000, 1), ContractError);
}

TEST(Dmmm, ProfileCountsGemmFlops) {
  Dmmm dmmm;
  dmmm.setup(64, 1);
  EXPECT_NEAR(dmmm.currentProfile().flops, 2.0 * 64 * 64 * 64, 1.0);
}

TEST(NBody, ProfileQuadratic) {
  NBody nbody;
  nbody.setup(100, 1);
  EXPECT_NEAR(nbody.currentProfile().flops, 20.0 * 100 * 100, 1.0);
}

TEST(Histogram, CountsPreserved) {
  Histogram hist;
  hist.setup(20000, 9);
  hist.runSerial();
  ASSERT_TRUE(hist.verify());
  TaskPool pool(4);
  hist.runParallel(pool);
  EXPECT_TRUE(hist.verify());
}

TEST(Amcd, EstimatesSecondMomentOfNormal) {
  Amcd amcd;
  amcd.setup(400000, 13);
  amcd.runSerial();
  EXPECT_TRUE(amcd.verify());
}

}  // namespace
}  // namespace tibsim::kernels
