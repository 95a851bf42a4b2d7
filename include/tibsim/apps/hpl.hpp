#pragma once
// High-Performance Linpack (Section 4): solve a random dense system in
// double precision.
//
// Two layers:
//  * DenseLu — a real, verifiable right-looking LU factorisation with
//    partial pivoting and triangular solves (the numerics the benchmark is
//    made of), used by the test suite and the quickstart example;
//  * HplBenchmark — the distributed benchmark skeleton: 1-D row
//    block-cyclic LU whose panel broadcasts and trailing updates run on
//    simMPI with modelled costs. This produces the paper's weak-scaling
//    curve (51 % efficiency / ~97 GFLOPS / ~120 MFLOPS/W at 96 nodes).

#include <cstddef>
#include <vector>

#include "tibsim/cluster/cluster.hpp"
#include "tibsim/mpi/simmpi.hpp"

namespace tibsim::apps {

/// Dense LU with partial pivoting on a row-major n x n matrix.
class DenseLu {
 public:
  /// Factor A in place into L\U with row pivoting. Returns false if a zero
  /// pivot made the matrix numerically singular.
  static bool factor(std::vector<double>& a, std::size_t n,
                     std::vector<std::size_t>& pivots);

  /// Solve A x = b given the output of factor(). b is overwritten with x.
  static void solve(const std::vector<double>& lu, std::size_t n,
                    const std::vector<std::size_t>& pivots,
                    std::vector<double>& b);

  /// HPL-style scaled residual ||Ax-b|| / (||A|| ||x|| n eps).
  static double scaledResidual(const std::vector<double>& a,
                               const std::vector<double>& x,
                               const std::vector<double>& b, std::size_t n);
};

/// The distributed benchmark.
class HplBenchmark {
 public:
  struct Params {
    std::size_t n = 0;   ///< global matrix dimension
    std::size_t nb = 128;  ///< panel/block width
  };

  /// FLOP count credited by the HPL rules: 2/3 n^3 + 2 n^2.
  static double flopCount(std::size_t n);

  /// Largest n whose matrix fits the memory of `nodes` nodes of the
  /// cluster at `memoryFraction` of usable DRAM (weak-scaling sizing).
  static std::size_t problemSizeForNodes(const cluster::ClusterSpec& spec,
                                         int nodes,
                                         double memoryFraction = 0.8);

  /// The rank body implementing 1-D row block-cyclic LU.
  static mpi::MpiWorld::RankBody rankBody(Params params);

  /// Run HPL on `nodes` nodes of the cluster (weak-scaled problem) and
  /// return the job result with GFLOPS / efficiency / MFLOPS-per-watt.
  static cluster::JobResult run(cluster::ClusterSimulation& sim, int nodes,
                                double memoryFraction = 0.8);
};

}  // namespace tibsim::apps
