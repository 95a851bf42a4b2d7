// Built-in experiments for the Section-3.1 single-node evaluation: the
// platform inventory (Table 1), the micro-kernel DVFS sweeps (Figures 3
// and 4), STREAM (Figure 5) and the suite self-check (Table 2). Ported
// from the former standalone bench mains into registry entries.

#include <memory>
#include <utility>

#include "builtin_experiments.hpp"
#include "tibsim/arch/registry.hpp"
#include "tibsim/common/table.hpp"
#include "tibsim/common/thread_pool.hpp"
#include "tibsim/common/units.hpp"
#include "tibsim/core/experiment.hpp"
#include "tibsim/core/experiments.hpp"
#include "tibsim/kernels/microkernel.hpp"
#include "tibsim/kernels/suite.hpp"

namespace tibsim::core {

namespace {

using namespace tibsim::units;

ResultSet runTab01(ExperimentContext&) {
  TextTable table({"platform", "uarch", "cores", "fmax GHz", "FP64 GFLOPS",
                   "mem peak GB/s", "DRAM", "NIC attach"});
  for (const auto& p : arch::PlatformRegistry::evaluated()) {
    table.addRow({p.shortName, arch::toString(p.soc.core.microarch),
                  std::to_string(p.soc.cores),
                  fmt(toGhz(p.maxFrequencyHz()), 1),
                  fmt(toGflops(p.peakFlops()), 1),
                  fmt(p.soc.memory.peakBandwidthBytesPerS / kGB, 2),
                  p.dramType, arch::toString(p.nicAttachment)});
  }
  ResultSet results;
  results.addTable("platform inventory", std::move(table));
  results.addMetric("evaluated platforms",
                    static_cast<double>(
                        arch::PlatformRegistry::evaluated().size()),
                    "platforms");
  results.addNote(
      "the four development boards of Table 1: Tegra 2 and Tegra 3 "
      "(Cortex-A9), Arndale (Cortex-A15), and the Core i7 laptop "
      "reference");
  return results;
}

/// The shared Figure 3 / Figure 4 report: sweep table, speedup chart,
/// normalised-energy chart.
ResultSet microKernelReport(const std::vector<PlatformSweep>& sweeps,
                            const std::string& figure) {
  TextTable table({"platform", "freq GHz", "suite s/iter", "energy J/iter",
                   "speedup vs Tegra2@1GHz", "energy vs baseline"});
  std::vector<Series> perf, energy;
  for (const auto& sweep : sweeps) {
    Series sp{sweep.platform, {}, {}};
    Series se{sweep.platform, {}, {}};
    for (const auto& pt : sweep.points) {
      table.addRow({sweep.platform, fmt(toGhz(pt.frequencyHz), 2),
                    fmt(pt.suiteSeconds, 3), fmt(pt.suiteEnergyJ, 2),
                    fmt(pt.speedupVsBaseline, 2),
                    fmt(pt.energyVsBaseline, 2)});
      sp.x.push_back(toGhz(pt.frequencyHz));
      sp.y.push_back(pt.speedupVsBaseline);
      se.x.push_back(toGhz(pt.frequencyHz));
      se.y.push_back(pt.energyVsBaseline);
    }
    perf.push_back(std::move(sp));
    energy.push_back(std::move(se));
  }

  ResultSet results;
  results.addTable("frequency sweep", std::move(table));
  ChartOptions perfOpts;
  perfOpts.title = figure + "(a): speedup vs Tegra2@1GHz (log y)";
  perfOpts.logY = true;
  perfOpts.xLabel = "frequency (GHz)";
  perfOpts.yLabel = "speedup";
  results.addChart(figure + "(a): speedup", std::move(perf), perfOpts);
  ChartOptions energyOpts;
  energyOpts.title = figure + "(b): per-iteration energy vs baseline";
  energyOpts.xLabel = "frequency (GHz)";
  energyOpts.yLabel = "normalised energy";
  results.addChart(figure + "(b): energy", std::move(energy), energyOpts);

  for (const auto& sweep : sweeps) {
    const auto& top = sweep.points.back();
    results.addMetric(sweep.platform + " speedup at fmax",
                      top.speedupVsBaseline, "x");
    results.addMetric(sweep.platform + " energy at fmax", top.suiteEnergyJ,
                      "J/iter");
  }
  return results;
}

ResultSet runFig03(ExperimentContext& ctx) {
  const auto sweeps =
      MicroKernelExperiment(MicroKernelExperiment::Mode::SingleCore).run(ctx);
  ResultSet results = microKernelReport(sweeps, "Figure 3");
  results.addNote(
      "paper anchors: Tegra3@1GHz +9%, Arndale@1GHz +30%; at max "
      "frequency Tegra3 1.36x, Arndale 2.3x, Intel ~3x Arndale; energies "
      "23.93 / 19.62 / 16.95 / 28.57 J per iteration");
  results.addNote("platform inventory moved to the tab01 experiment");
  return results;
}

ResultSet runFig04(ExperimentContext& ctx) {
  const auto multi =
      MicroKernelExperiment(MicroKernelExperiment::Mode::MultiCore).run(ctx);
  const auto single =
      MicroKernelExperiment(MicroKernelExperiment::Mode::SingleCore)
          .run(ctx);
  ResultSet results = microKernelReport(multi, "Figure 4");

  // The paper's headline multicore observation: OpenMP versions use less
  // energy than serial, by roughly 1.7x (Tegra2/3), 2.25x (Arndale) and
  // 2.5x (Intel).
  TextTable gains({"platform", "serial J/iter", "multicore J/iter",
                   "energy gain (paper)"});
  const char* paperGain[] = {"1.7x", "1.7x", "2.25x", "2.5x"};
  for (std::size_t i = 0; i < multi.size(); ++i) {
    const double es = single[i].points.back().suiteEnergyJ;
    const double em = multi[i].points.back().suiteEnergyJ;
    gains.addRow({multi[i].platform, fmt(es, 2), fmt(em, 2),
                  fmt(es / em, 2) + "x (" + paperGain[i] + ")"});
    results.addMetric(multi[i].platform + " multicore energy gain",
                      es / em, "x");
  }
  results.addTable("multicore energy gain", std::move(gains));
  results.addNote(
      "the Arndale's paper value (2.25x with 2 cores) implies superlinear "
      "scaling the roofline model does not reproduce; see EXPERIMENTS.md");
  return results;
}

ResultSet runFig05(ExperimentContext&) {
  const auto rows = streamExperiment();
  ResultSet results;

  TextTable single({"platform", "Copy", "Scale", "Add", "Triad"});
  for (const auto& row : rows) {
    std::vector<std::string> cells = {row.platform};
    for (std::size_t op = 0; op < StreamRow::kOps; ++op)
      cells.push_back(fmt(row.singleCoreBytesPerS[op] / kGB, 2));
    single.addRow(cells);
  }
  results.addTable("Figure 5(a): single core (GB/s)", std::move(single));

  TextTable multi({"platform", "Copy", "Scale", "Add", "Triad", "peak GB/s",
                   "efficiency (paper)"});
  const char* paperEff[4] = {"62%", "27%", "52%", "57%"};
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& row = rows[i];
    const auto platform = arch::PlatformRegistry::evaluated()[i];
    std::vector<std::string> cells = {row.platform};
    for (std::size_t op = 0; op < StreamRow::kOps; ++op)
      cells.push_back(fmt(row.multiCoreBytesPerS[op] / kGB, 2));
    cells.push_back(fmt(platform.soc.memory.peakBandwidthBytesPerS / kGB, 2));
    cells.push_back(fmt(row.efficiencyVsPeak * 100, 0) + "% (" +
                    paperEff[i] + ")");
    multi.addRow(cells);
    results.addMetric(row.platform + " efficiency vs peak",
                      row.efficiencyVsPeak * 100, "%");
  }
  results.addTable("Figure 5(b): all cores / MPSoC (GB/s)",
                   std::move(multi));

  std::vector<Series> bars;
  for (const auto& row : rows) {
    Series s{row.platform, {}, {}};
    for (std::size_t op = 0; op < StreamRow::kOps; ++op) {
      s.x.push_back(static_cast<double>(op));
      s.y.push_back(row.multiCoreBytesPerS[op] / kGB);
    }
    bars.push_back(std::move(s));
  }
  ChartOptions barOpts;
  barOpts.title = "MPSoC bandwidth (GB/s); x = op index Copy..Triad";
  barOpts.xLabel = "STREAM op";
  barOpts.yLabel = "GB/s";
  results.addChart("MPSoC bandwidth", std::move(bars), barOpts);

  results.addMetric(
      "Exynos5250 / Tegra2 multicore triad ratio",
      rows[2].multiCoreBytesPerS[StreamRow::Triad] /
          rows[0].multiCoreBytesPerS[StreamRow::Triad],
      "x");
  results.addNote("paper: Exynos 5250 triad is \"about 4.5 times\" Tegra 2");
  return results;
}

std::size_t verifySize(const std::string& tag) {
  if (tag == "dmmm") return 48;
  if (tag == "3dstc") return 16;
  if (tag == "2dcon") return 64;
  if (tag == "fft") return 1024;
  if (tag == "nbody") return 96;
  if (tag == "amcd") return 50000;
  if (tag == "spvm") return 200;
  return 5000;
}

ResultSet runTab02(ExperimentContext& ctx) {
  // The kernels fork-join on a private two-thread TaskPool, matching the
  // original bench binary. It is not the campaign's pool, so the chunk
  // count, and with it every per-chunk partial, stays two at any --jobs.
  TaskPool pool(2);
  TextTable table({"tag", "full name", "properties", "MFLOP/iter", "MB/iter",
                   "pattern", "verified"});
  std::size_t verified = 0;
  const auto tags = kernels::suiteTags();
  for (const auto& tag : tags) {
    auto kernel = kernels::makeKernel(tag);
    kernel->setup(verifySize(tag), static_cast<unsigned>(ctx.seed() % 1000));
    kernel->runSerial();
    const bool serialOk = kernel->verify();
    kernel->runParallel(pool);
    const bool parallelOk = kernel->verify();
    const auto profile = kernel->referenceProfile();
    table.addRow({tag, kernel->fullName(), kernel->properties(),
                  fmt(profile.flops / 1e6, 0), fmt(profile.bytes / 1e6, 0),
                  toString(profile.pattern),
                  serialOk && parallelOk ? "yes" : "NO"});
    if (serialOk && parallelOk) ++verified;
  }
  ResultSet results;
  results.addTable("micro-kernel suite", std::move(table));
  results.addMetric("kernels verified", static_cast<double>(verified),
                    "of " + std::to_string(tags.size()));
  results.addNote(
      "profiles are the Section-3 evaluation sizes; the native runs above "
      "execute the real implementations at test sizes and verify their "
      "output (see bench/kernels_native for host-machine timings)");
  return results;
}

}  // namespace

void registerMicroKernelExperiments(ExperimentRegistry& registry) {
  registry.add(std::make_unique<LambdaExperiment>(
      "tab01", "Table 1", "evaluated platform inventory", runTab01));
  registry.add(std::make_unique<LambdaExperiment>(
      "fig03", "Figure 3",
      "single-core micro-kernel performance & energy, frequency sweep",
      runFig03));
  registry.add(std::make_unique<LambdaExperiment>(
      "fig04", "Figure 4",
      "multi-core micro-kernel performance & energy, frequency sweep",
      runFig04));
  registry.add(std::make_unique<LambdaExperiment>(
      "fig05", "Figure 5", "STREAM memory bandwidth", runFig05));
  registry.add(std::make_unique<LambdaExperiment>(
      "tab02", "Table 2", "micro-kernels used for platform evaluation",
      runTab02));
}

}  // namespace tibsim::core
