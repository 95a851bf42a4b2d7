#pragma once
// The micro-kernel suite of Table 2: eleven small HPC kernels that stress
// different architectural features. Each kernel has a real, verifiable
// implementation (serial + fork-join parallel) used by the native benchmarks
// and the test suite, plus a machine-independent reference WorkProfile at the
// Section-3 evaluation size, which the execution model converts into
// per-platform time and energy for Figures 3 and 4.

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "tibsim/common/thread_pool.hpp"
#include "tibsim/perfmodel/work_profile.hpp"

namespace tibsim::kernels {

class MicroKernel {
 public:
  virtual ~MicroKernel() = default;

  /// Short tag from Table 2, e.g. "vecop".
  virtual std::string tag() const = 0;
  virtual std::string fullName() const = 0;
  /// The "Properties" column of Table 2.
  virtual std::string properties() const = 0;

  /// Allocate and initialise working data for problem size n (meaning is
  /// kernel-specific: element count, matrix dimension, body count, ...).
  virtual void setup(std::size_t n, std::uint64_t seed) = 0;

  /// One iteration on one thread. Requires setup() first.
  virtual void runSerial() = 0;

  /// One iteration using all threads of the pool (OpenMP-style fork-join).
  virtual void runParallel(TaskPool& pool) = 0;

  /// Validate the output of the most recent run. Requires a prior run.
  virtual bool verify() const = 0;

  /// Work characterisation of one iteration at the *currently configured*
  /// size (flops, DRAM bytes, pattern).
  virtual perfmodel::WorkProfile currentProfile() const = 0;

  /// Work characterisation at the fixed evaluation size used by the paper's
  /// Section 3 experiments (identical across platforms).
  perfmodel::WorkProfile referenceProfile() const;
};

/// All 11 kernels, in Table 2 order.
std::vector<std::unique_ptr<MicroKernel>> makeSuite();

/// Kernel by tag ("vecop", "dmmm", ...). Throws ContractError if unknown.
std::unique_ptr<MicroKernel> makeKernel(std::string_view tag);

/// The 11 tags in Table 2 order.
const std::vector<std::string>& suiteTags();

/// Reference profile lookup without instantiating the kernel.
perfmodel::WorkProfile referenceProfileFor(std::string_view tag);

}  // namespace tibsim::kernels
