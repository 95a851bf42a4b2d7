// Quickstart: evaluate a micro-kernel on every modelled platform, run the
// real kernel natively to verify it, and print a small comparison table.
//
//   $ ./quickstart [kernel-tag]     (default: dmmm)
//
// This walks the three layers of tibsim:
//   1. real kernels   — run & verify the actual computation;
//   2. platform models — Table-1 SoC descriptions;
//   3. execution/power models — modelled time and energy per platform.

#include <iostream>
#include <string>

#include "tibsim/arch/registry.hpp"
#include "tibsim/common/table.hpp"
#include "tibsim/common/thread_pool.hpp"
#include "tibsim/common/units.hpp"
#include "tibsim/kernels/microkernel.hpp"
#include "tibsim/perfmodel/execution_model.hpp"
#include "tibsim/power/power_model.hpp"

int main(int argc, char** argv) {
  using namespace tibsim;
  using namespace tibsim::units;

  const std::string tag = argc > 1 ? argv[1] : "dmmm";
  std::cout << "tibsim quickstart — kernel '" << tag << "'\n\n";

  // 1. Run the real kernel on this machine and verify its output.
  auto kernel = kernels::makeKernel(tag);
  kernel->setup(tag == "dmmm" ? 64 : 4096, /*seed=*/1);
  kernel->runSerial();
  std::cout << kernel->fullName() << " (" << kernel->properties() << ")\n"
            << "native serial run verifies: "
            << (kernel->verify() ? "yes" : "NO") << '\n';
  TaskPool pool(2);
  kernel->runParallel(pool);
  std::cout << "native parallel run verifies: "
            << (kernel->verify() ? "yes" : "NO") << "\n\n";

  // 2 + 3. Model the paper-sized kernel on each Table-1 platform.
  const perfmodel::WorkProfile work = kernels::referenceProfileFor(tag);
  std::cout << "reference profile: " << fmt(work.flops / 1e6, 1)
            << " MFLOP, " << fmt(work.bytes / 1e6, 1) << " MB DRAM traffic, "
            << toString(work.pattern) << " pattern\n\n";

  const perfmodel::ExecutionModel exec;
  TextTable table({"platform", "freq GHz", "1-core ms", "all-core ms",
                   "platform W", "energy J (1 core)"});
  for (const auto& platform : arch::PlatformRegistry::all()) {
    const double f = platform.maxFrequencyHz();
    const double t1 = exec.time(platform, work, f, 1);
    const double tn = exec.time(platform, work, f, platform.soc.cores);
    const power::PowerModel powerModel(platform);
    power::LoadState load;
    load.activeCores = 1;
    load.memBandwidthBytesPerS = exec.consumedBandwidth(platform, work, f, 1);
    const double watts = powerModel.watts(f, load);
    table.addRow({platform.shortName, fmt(toGhz(f), 1), fmt(toMs(t1), 1),
                  fmt(toMs(tn), 1), fmt(watts, 1), fmt(watts * t1, 2)});
  }
  std::cout << table.render() << '\n';
  std::cout << "Available kernels:";
  for (const auto& t : kernels::suiteTags()) std::cout << ' ' << t;
  std::cout << '\n';
  return 0;
}
