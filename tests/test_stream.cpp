// Tests for the STREAM benchmark implementation and its modelled
// per-platform bandwidths (Figure 5).

#include <gtest/gtest.h>

#include "tibsim/arch/registry.hpp"
#include "tibsim/common/thread_pool.hpp"
#include "tibsim/common/units.hpp"
#include "tibsim/kernels/stream.hpp"

namespace tibsim::kernels {
namespace {

using namespace units;
using arch::PlatformRegistry;

class StreamOps : public ::testing::TestWithParam<std::tuple<StreamOp, bool>> {
};

TEST_P(StreamOps, RunsAndVerifies) {
  const auto [op, parallel] = GetParam();
  StreamBenchmark bench;
  bench.setup(10000);
  if (parallel) {
    TaskPool pool(3);
    bench.runParallel(op, pool);
  } else {
    bench.runSerial(op);
  }
  EXPECT_TRUE(bench.verify(op)) << toString(op);
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, StreamOps,
    ::testing::Combine(::testing::Values(StreamOp::Copy, StreamOp::Scale,
                                         StreamOp::Add, StreamOp::Triad),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<StreamOps::ParamType>& test) {
      return toString(std::get<0>(test.param)) +
             (std::get<1>(test.param) ? "_par" : "_ser");
    });

TEST(Stream, FullSequenceVerifies) {
  // The canonical STREAM loop order: copy, scale, add, triad.
  StreamBenchmark bench;
  bench.setup(5000);
  for (StreamOp op : {StreamOp::Copy, StreamOp::Scale, StreamOp::Add,
                      StreamOp::Triad}) {
    bench.runSerial(op);
    ASSERT_TRUE(bench.verify(op)) << toString(op);
  }
}

TEST(Stream, BytesAndFlopsPerElement) {
  EXPECT_DOUBLE_EQ(streamBytesPerElement(StreamOp::Copy), 16.0);
  EXPECT_DOUBLE_EQ(streamBytesPerElement(StreamOp::Triad), 24.0);
  EXPECT_DOUBLE_EQ(streamFlopsPerElement(StreamOp::Copy), 0.0);
  EXPECT_DOUBLE_EQ(streamFlopsPerElement(StreamOp::Scale), 1.0);
  EXPECT_DOUBLE_EQ(streamFlopsPerElement(StreamOp::Triad), 2.0);
}

TEST(Stream, ProfileMatchesSize) {
  StreamBenchmark bench;
  bench.setup(1000);
  const auto profile = bench.profile(StreamOp::Add);
  EXPECT_DOUBLE_EQ(profile.bytes, 24.0 * 1000);
  EXPECT_DOUBLE_EQ(profile.flops, 1000.0);
}

// ---- Modelled Figure 5 behaviour ------------------------------------------

TEST(StreamModel, ExynosRoughly4xTegraBandwidth) {
  // "a significant improvement in memory bandwidth, of about 4.5 times,
  //  between the Tegra platforms and the Samsung Exynos 5250"
  const auto tegra2 = PlatformRegistry::tegra2();
  const auto exynos = PlatformRegistry::exynos5250();
  const double tegraBw = StreamBenchmark::modeledBandwidth(
      tegra2, StreamOp::Triad, tegra2.soc.cores, tegra2.maxFrequencyHz());
  const double exynosBw = StreamBenchmark::modeledBandwidth(
      exynos, StreamOp::Triad, exynos.soc.cores, exynos.maxFrequencyHz());
  EXPECT_GT(exynosBw / tegraBw, 3.4);
  EXPECT_LT(exynosBw / tegraBw, 5.5);
}

TEST(StreamModel, MulticoreEfficienciesMatchPaper) {
  // Paper: 62 % (Tegra 2), 27 % (Tegra 3), 52 % (Exynos 5250), 57 % (i7).
  const struct {
    arch::Platform platform;
    double efficiency;
  } expectations[] = {
      {PlatformRegistry::tegra2(), 0.62},
      {PlatformRegistry::tegra3(), 0.27},
      {PlatformRegistry::exynos5250(), 0.52},
      {PlatformRegistry::corei7_2760qm(), 0.57},
  };
  for (const auto& e : expectations) {
    const double bw = StreamBenchmark::modeledBandwidth(
        e.platform, StreamOp::Triad, e.platform.soc.cores,
        e.platform.maxFrequencyHz());
    const double eff = bw / e.platform.soc.memory.peakBandwidthBytesPerS;
    EXPECT_NEAR(eff, e.efficiency, 0.06) << e.platform.shortName;
  }
}

TEST(StreamModel, Tegra3HasLowestEfficiencyDespiteHigherPeak) {
  const auto tegra2 = PlatformRegistry::tegra2();
  const auto tegra3 = PlatformRegistry::tegra3();
  const double eff2 = StreamBenchmark::modeledBandwidth(
                          tegra2, StreamOp::Triad, 2,
                          tegra2.maxFrequencyHz()) /
                      tegra2.soc.memory.peakBandwidthBytesPerS;
  const double eff3 = StreamBenchmark::modeledBandwidth(
                          tegra3, StreamOp::Triad, 4,
                          tegra3.maxFrequencyHz()) /
                      tegra3.soc.memory.peakBandwidthBytesPerS;
  EXPECT_GT(tegra3.soc.memory.peakBandwidthBytesPerS,
            tegra2.soc.memory.peakBandwidthBytesPerS);
  EXPECT_LT(eff3, eff2);
}

TEST(StreamModel, SingleCoreAtMostMulticore) {
  for (const auto& platform : PlatformRegistry::evaluated()) {
    for (StreamOp op : {StreamOp::Copy, StreamOp::Scale, StreamOp::Add,
                        StreamOp::Triad}) {
      const double one = StreamBenchmark::modeledBandwidth(
          platform, op, 1, platform.maxFrequencyHz());
      const double all = StreamBenchmark::modeledBandwidth(
          platform, op, platform.soc.cores, platform.maxFrequencyHz());
      EXPECT_LE(one, all * 1.0001) << platform.shortName << toString(op);
    }
  }
}

}  // namespace
}  // namespace tibsim::kernels
