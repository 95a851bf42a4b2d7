#pragma once
// STREAM memory-bandwidth benchmark (McCalpin), as used for Figure 5.
// Provides both a real runnable implementation (copy/scale/add/triad over
// host arrays, with verification) and the modelled per-platform bandwidth
// the figure reproduction uses.

#include <string>
#include <vector>

#include "tibsim/arch/platform.hpp"
#include "tibsim/common/thread_pool.hpp"
#include "tibsim/perfmodel/work_profile.hpp"

namespace tibsim::kernels {

enum class StreamOp { Copy, Scale, Add, Triad };

std::string toString(StreamOp op);

/// Bytes moved per element by each STREAM operation.
double streamBytesPerElement(StreamOp op);
/// FLOPs per element (copy: 0, scale/add: 1, triad: 2).
double streamFlopsPerElement(StreamOp op);

class StreamBenchmark {
 public:
  /// Allocate the a/b/c arrays with n doubles each.
  void setup(std::size_t n, double scalar = 3.0);

  /// Execute one pass of the operation serially.
  void runSerial(StreamOp op);
  /// Execute one pass using all threads of the pool.
  void runParallel(StreamOp op, TaskPool& pool);

  /// Check the output of the last run of `op` against the definition.
  bool verify(StreamOp op) const;

  std::size_t size() const { return a_.size(); }

  /// Work profile of one pass of `op` at the current size.
  perfmodel::WorkProfile profile(StreamOp op) const;

  /// Modelled achievable bandwidth (bytes/s) for a platform — this is what
  /// Figure 5 plots. `cores` = 1 reproduces Fig 5(a); all cores, Fig 5(b).
  static double modeledBandwidth(const arch::Platform& platform, StreamOp op,
                                 int cores, double frequencyHz);

 private:
  double scalar_ = 3.0;
  std::vector<double> a_, b_, c_;
};

}  // namespace tibsim::kernels
