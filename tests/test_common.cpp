// Unit tests for the common utilities: contracts, units, RNG, statistics,
// regression, tables, charts, thread pool.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <set>

#include "tibsim/common/assert.hpp"
#include "tibsim/common/chart.hpp"
#include "tibsim/common/regression.hpp"
#include "tibsim/common/rng.hpp"
#include "tibsim/common/statistics.hpp"
#include "tibsim/common/table.hpp"
#include "tibsim/common/thread_pool.hpp"
#include "tibsim/common/units.hpp"

namespace tibsim {
namespace {

TEST(Assert, RequireThrowsContractError) {
  EXPECT_THROW(TIB_REQUIRE(1 == 2), ContractError);
  EXPECT_NO_THROW(TIB_REQUIRE(1 == 1));
}

TEST(Assert, MessageIncludesExpressionAndLocation) {
  try {
    TIB_REQUIRE_MSG(false, "custom detail");
    FAIL() << "should have thrown";
  } catch (const ContractError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("false"), std::string::npos);
    EXPECT_NE(what.find("custom detail"), std::string::npos);
    EXPECT_NE(what.find("test_common.cpp"), std::string::npos);
  }
}

TEST(Units, Conversions) {
  EXPECT_DOUBLE_EQ(units::us(1.0), 1e-6);
  EXPECT_DOUBLE_EQ(units::toUs(1e-6), 1.0);
  EXPECT_DOUBLE_EQ(units::gbps(1.0), 125e6);
  EXPECT_DOUBLE_EQ(units::ghz(2.4), 2.4e9);
  EXPECT_DOUBLE_EQ(units::mib(1.0), 1048576.0);
  EXPECT_DOUBLE_EQ(units::toGflops(2.0e9), 2.0);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.nextU64(), b.nextU64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.nextU64() == b.nextU64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(2.0, 5.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(Rng, NormalMomentsApproximatelyCorrect) {
  Rng rng(99);
  stats::Accumulator acc;
  for (int i = 0; i < 20000; ++i) acc.add(rng.normal(3.0, 2.0));
  EXPECT_NEAR(acc.mean(), 3.0, 0.1);
  EXPECT_NEAR(acc.stddev(), 2.0, 0.1);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(5);
  int hits = 0;
  for (int i = 0; i < 10000; ++i)
    if (rng.bernoulli(0.3)) ++hits;
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.02);
}

TEST(Rng, ExponentialMean) {
  Rng rng(11);
  double sum = 0.0;
  for (int i = 0; i < 20000; ++i) sum += rng.exponential(4.0);
  EXPECT_NEAR(sum / 20000.0, 0.25, 0.01);
}

TEST(Statistics, MeanMedianStddev) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0, 10.0};
  EXPECT_DOUBLE_EQ(stats::mean(xs), 4.0);
  EXPECT_DOUBLE_EQ(stats::median(xs), 3.0);
  EXPECT_NEAR(stats::stddev(xs), 3.5355, 1e-3);
  EXPECT_DOUBLE_EQ(stats::min(xs), 1.0);
  EXPECT_DOUBLE_EQ(stats::max(xs), 10.0);
  EXPECT_DOUBLE_EQ(stats::sum(xs), 20.0);
}

TEST(Statistics, GeomeanOfPowers) {
  const std::vector<double> xs = {1.0, 4.0, 16.0};
  EXPECT_NEAR(stats::geomean(xs), 4.0, 1e-12);
}

TEST(Statistics, GeomeanRejectsNonPositive) {
  const std::vector<double> xs = {1.0, 0.0};
  EXPECT_THROW(stats::geomean(xs), ContractError);
}

TEST(Statistics, HarmonicMeanOfRates) {
  const std::vector<double> xs = {2.0, 6.0};
  EXPECT_DOUBLE_EQ(stats::harmonicMean(xs), 3.0);
}

TEST(Statistics, PercentileInterpolation) {
  const std::vector<double> xs = {10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(stats::percentile(xs, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(stats::percentile(xs, 100.0), 40.0);
  EXPECT_DOUBLE_EQ(stats::percentile(xs, 50.0), 25.0);
}

TEST(Statistics, AccumulatorMatchesBatch) {
  const std::vector<double> xs = {3.0, 1.0, 4.0, 1.0, 5.0, 9.0};
  stats::Accumulator acc;
  for (double x : xs) acc.add(x);
  EXPECT_DOUBLE_EQ(acc.mean(), stats::mean(xs));
  EXPECT_NEAR(acc.stddev(), stats::stddev(xs), 1e-12);
  EXPECT_DOUBLE_EQ(acc.min(), 1.0);
  EXPECT_DOUBLE_EQ(acc.max(), 9.0);
  EXPECT_EQ(acc.count(), xs.size());
}

TEST(Regression, RecoversExactLine) {
  const std::vector<double> xs = {0, 1, 2, 3, 4};
  std::vector<double> ys;
  for (double x : xs) ys.push_back(3.0 + 2.5 * x);
  const LinearFit fit = fitLinear(xs, ys);
  EXPECT_NEAR(fit.slope, 2.5, 1e-12);
  EXPECT_NEAR(fit.intercept, 3.0, 1e-12);
  EXPECT_NEAR(fit.r2, 1.0, 1e-12);
}

TEST(Regression, RecoversExponentialGrowth) {
  // y doubles every 1.5 x-units from 100.
  const double rate = std::log(2.0) / 1.5;
  std::vector<double> xs, ys;
  for (int i = 0; i < 12; ++i) {
    xs.push_back(static_cast<double>(i));
    ys.push_back(100.0 * std::exp(rate * i));
  }
  const ExponentialFit fit = fitExponential(xs, ys);
  EXPECT_NEAR(fit.at(0.0), 100.0, 1e-6);
  EXPECT_NEAR(fit.doublingTime(), 1.5, 1e-9);
  EXPECT_NEAR(fit.growthPerUnit(), std::exp(rate), 1e-9);
}

TEST(Regression, CrossoverOfTwoExponentials) {
  // Slow starts higher, fast catches up: 1000*2^(x/4) vs 10*2^(x/1).
  ExponentialFit slow{1000.0, std::log(2.0) / 4.0, 1.0};
  ExponentialFit fast{10.0, std::log(2.0) / 1.0, 1.0};
  const double x = crossover(fast, slow);
  EXPECT_NEAR(fast.at(x), slow.at(x), 1e-6 * slow.at(x));
  EXPECT_GT(x, 0.0);
}

TEST(Regression, ParallelCurvesThrow) {
  ExponentialFit a{1.0, 0.5, 1.0};
  ExponentialFit b{2.0, 0.5, 1.0};
  EXPECT_THROW(crossover(a, b), ContractError);
}

TEST(Table, RendersAlignedColumnsAndCsv) {
  TextTable table({"name", "value"});
  table.addRow({"alpha", "1.0"});
  table.addRow({"betagamma", "2.25"});
  const std::string text = table.render();
  EXPECT_NE(text.find("name"), std::string::npos);
  EXPECT_NE(text.find("betagamma"), std::string::npos);
  EXPECT_NE(text.find("----"), std::string::npos);
  const std::string csv = table.toCsv();
  EXPECT_NE(csv.find("name,value"), std::string::npos);
  EXPECT_NE(csv.find("alpha,1.0"), std::string::npos);
}

TEST(Table, RowWidthMismatchThrows) {
  TextTable table({"a", "b"});
  EXPECT_THROW(table.addRow({"only-one"}), ContractError);
}

TEST(Table, CsvEscapesCommasAndQuotes) {
  TextTable table({"x"});
  table.addRow({"a,b\"c"});
  EXPECT_NE(table.toCsv().find("\"a,b\"\"c\""), std::string::npos);
}

TEST(Table, FormatHelpers) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmtSi(2.5e9, "B/s", 1), "2.5 GB/s");
  EXPECT_EQ(fmtSi(64e-6, "s", 1), "64.0 us");
}

TEST(Chart, RendersSeriesAndLegend) {
  Series s1{"linear", {1, 2, 3, 4}, {1, 2, 3, 4}};
  Series s2{"flat", {1, 2, 3, 4}, {2, 2, 2, 2}};
  ChartOptions opts;
  opts.title = "test chart";
  const std::string chart = renderChart({s1, s2}, opts);
  EXPECT_NE(chart.find("test chart"), std::string::npos);
  EXPECT_NE(chart.find("linear"), std::string::npos);
  EXPECT_NE(chart.find("flat"), std::string::npos);
  EXPECT_NE(chart.find('*'), std::string::npos);
  EXPECT_NE(chart.find('o'), std::string::npos);
}

TEST(Chart, LogScaleRejectsNonPositive) {
  Series s{"bad", {0.0, 1.0}, {1.0, 2.0}};
  ChartOptions opts;
  opts.logX = true;
  EXPECT_THROW(renderChart({s}, opts), ContractError);
}

TEST(Chart, BarsRenderValues) {
  const std::string bars =
      renderBars({{"a", 1.0}, {"bb", 2.0}}, "bars", 20);
  EXPECT_NE(bars.find("bars"), std::string::npos);
  EXPECT_NE(bars.find('#'), std::string::npos);
}

// The ThreadPool cases keep their suite name: they drive TaskPool's chunked
// (OpenMP-style) parallelFor, which the native kernels run on.
TEST(ThreadPool, CoversFullRangeExactlyOnce) {
  TaskPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallelFor(1000, [&](std::size_t b, std::size_t e, std::size_t) {
    for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, WorksWithSingleThread) {
  TaskPool pool(1);
  EXPECT_EQ(pool.threadCount(), 1u);
  int sum = 0;
  pool.parallelFor(10, [&](std::size_t b, std::size_t e, std::size_t) {
    for (std::size_t i = b; i < e; ++i) sum += static_cast<int>(i);
  });
  EXPECT_EQ(sum, 45);
}

TEST(ThreadPool, HandlesMoreThreadsThanWork) {
  TaskPool pool(8);
  std::vector<std::atomic<int>> hits(3);
  pool.parallelFor(3, [&](std::size_t b, std::size_t e, std::size_t) {
    for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ZeroIterationsIsNoop) {
  TaskPool pool(4);
  bool touched = false;
  pool.parallelFor(0, [&](std::size_t, std::size_t, std::size_t) {
    touched = true;
  });
  EXPECT_FALSE(touched);
}

TEST(ThreadPool, ReusableAcrossManyInvocations) {
  TaskPool pool(3);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> count{0};
    pool.parallelFor(100, [&](std::size_t b, std::size_t e, std::size_t) {
      count.fetch_add(static_cast<int>(e - b));
    });
    ASSERT_EQ(count.load(), 100);
  }
}

}  // namespace
}  // namespace tibsim
