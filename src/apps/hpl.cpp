#include "tibsim/apps/hpl.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "tibsim/common/assert.hpp"
#include "tibsim/common/units.hpp"
#include "tibsim/power/power_model.hpp"

namespace tibsim::apps {

using perfmodel::AccessPattern;
using perfmodel::WorkProfile;

// ---------------------------------------------------------------------------
// DenseLu (real numerics)
// ---------------------------------------------------------------------------

bool DenseLu::factor(std::vector<double>& a, std::size_t n,
                     std::vector<std::size_t>& pivots) {
  TIB_REQUIRE(a.size() == n * n);
  pivots.resize(n);
  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivoting: largest |a[i][k]| for i >= k.
    std::size_t piv = k;
    double best = std::abs(a[k * n + k]);
    for (std::size_t i = k + 1; i < n; ++i) {
      const double v = std::abs(a[i * n + k]);
      if (v > best) {
        best = v;
        piv = i;
      }
    }
    pivots[k] = piv;
    if (best == 0.0) return false;
    if (piv != k) {
      for (std::size_t j = 0; j < n; ++j)
        std::swap(a[k * n + j], a[piv * n + j]);
    }
    const double pivot = a[k * n + k];
    for (std::size_t i = k + 1; i < n; ++i) {
      const double l = a[i * n + k] / pivot;
      a[i * n + k] = l;
      const double* urow = &a[k * n + k + 1];
      double* irow = &a[i * n + k + 1];
      for (std::size_t j = 0; j < n - k - 1; ++j) irow[j] -= l * urow[j];
    }
  }
  return true;
}

void DenseLu::solve(const std::vector<double>& lu, std::size_t n,
                    const std::vector<std::size_t>& pivots,
                    std::vector<double>& b) {
  TIB_REQUIRE(lu.size() == n * n && pivots.size() == n && b.size() == n);
  // Apply the row swaps, then Ly = Pb (unit lower), then Ux = y.
  for (std::size_t k = 0; k < n; ++k)
    if (pivots[k] != k) std::swap(b[k], b[pivots[k]]);
  for (std::size_t i = 1; i < n; ++i) {
    double acc = b[i];
    for (std::size_t j = 0; j < i; ++j) acc -= lu[i * n + j] * b[j];
    b[i] = acc;
  }
  for (std::size_t ii = n; ii-- > 0;) {
    double acc = b[ii];
    for (std::size_t j = ii + 1; j < n; ++j) acc -= lu[ii * n + j] * b[j];
    b[ii] = acc / lu[ii * n + ii];
  }
}

double DenseLu::scaledResidual(const std::vector<double>& a,
                               const std::vector<double>& x,
                               const std::vector<double>& b, std::size_t n) {
  TIB_REQUIRE(a.size() == n * n && x.size() == n && b.size() == n);
  double residualInf = 0.0, aInf = 0.0, xInf = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    double acc = -b[i];
    double rowSum = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      acc += a[i * n + j] * x[j];
      rowSum += std::abs(a[i * n + j]);
    }
    residualInf = std::max(residualInf, std::abs(acc));
    aInf = std::max(aInf, rowSum);
    xInf = std::max(xInf, std::abs(x[i]));
  }
  const double eps = std::numeric_limits<double>::epsilon();
  return residualInf /
         (aInf * xInf * static_cast<double>(n) * eps + 1e-300);
}

// ---------------------------------------------------------------------------
// HplBenchmark (distributed skeleton on simMPI)
// ---------------------------------------------------------------------------

double HplBenchmark::flopCount(std::size_t n) {
  const auto nd = static_cast<double>(n);
  return (2.0 / 3.0) * nd * nd * nd + 2.0 * nd * nd;
}

std::size_t HplBenchmark::problemSizeForNodes(
    const cluster::ClusterSpec& spec, int nodes, double memoryFraction) {
  TIB_REQUIRE(nodes >= 1);
  TIB_REQUIRE(memoryFraction > 0.0 && memoryFraction <= 1.0);
  const double bytes =
      spec.usableBytesPerNode() * memoryFraction * static_cast<double>(nodes);
  const auto n = static_cast<std::size_t>(std::sqrt(bytes / 8.0));
  return n - n % 512;  // align to the block size
}

mpi::MpiWorld::RankBody HplBenchmark::rankBody(Params params) {
  TIB_REQUIRE(params.n >= params.nb && params.nb >= 8);
  return [params](mpi::MpiContext& ctx) {
    const std::size_t n = params.n;
    const std::size_t nb = params.nb;
    const int p = ctx.size();
    const std::size_t blocks = (n + nb - 1) / nb;

    // HPL hides most of the panel factorisation behind the previous trailing
    // update (lookahead); only this fraction of the panel cost lands on the
    // critical path.
    constexpr double kPanelExposedFraction = 0.06;
    for (std::size_t k = 0; k < blocks; ++k) {
      const double h = static_cast<double>(n - k * nb);  // panel height
      const int owner = static_cast<int>(k % static_cast<std::size_t>(p));

      // Panel factorisation on the owner: nb^2 * h FLOPs of partially
      // sequential, bandwidth-unfriendly column work, mostly overlapped.
      if (ctx.rank() == owner) {
        ctx.compute(WorkProfile{
            kPanelExposedFraction * static_cast<double>(nb) * nb * h,
            kPanelExposedFraction * 8.0 * h * nb, AccessPattern::Strided,
            0.6, 1.0, 0.0});
      }

      // Broadcast the factored panel (L block + pivot rows) with HPL's
      // pipelined ring algorithm: each rank streams the panel through once.
      const auto panelBytes = static_cast<std::size_t>(h * nb * 8.0);
      ctx.pipelinedBcastBytes(panelBytes, owner);

      // Trailing-matrix update: everyone updates the rows it owns —
      // DGEMM-shaped work, 2*nb*t^2 FLOPs split across ranks with slight
      // block-cyclic imbalance. Tiled DGEMM sustains a higher fraction of
      // peak than the suite-average scalar efficiency, hence ce > 1.
      const double t = static_cast<double>(n - (k + 1) * nb);
      if (t > 0.0) {
        const double myRows = t / static_cast<double>(p);
        ctx.compute(WorkProfile{2.0 * nb * t * myRows,
                                8.0 * (t * myRows + t * nb),
                                AccessPattern::Blocked, 1.18, 1.0, 0.04});
      }
    }

    // Back-substitution (2 n^2 flops, pipelined over ranks — model the
    // owner's share) and the residual check with its reduction.
    const double nd = static_cast<double>(n);
    ctx.compute(WorkProfile{2.0 * nd * nd / ctx.size(), 8.0 * nd * nd / ctx.size(),
                            AccessPattern::Streaming, 0.8, 1.0, 0.0});
    ctx.allreduceSum(1.0);
    ctx.barrier();
  };
}

cluster::JobResult HplBenchmark::run(cluster::ClusterSimulation& sim,
                                     int nodes, double memoryFraction) {
  Params params;
  params.n = problemSizeForNodes(sim.spec(), nodes, memoryFraction);
  params.nb = 512;
  cluster::JobResult result = sim.runJob(nodes, rankBody(params));
  // Credit the official HPL flop count rather than the modelled ops.
  result.gflops = units::toGflops(flopCount(params.n) /
                                  result.wallClockSeconds);
  result.mflopsPerWatt =
      power::mflopsPerWatt(flopCount(params.n), result.wallClockSeconds,
                           result.averagePowerW);
  return result;
}

}  // namespace tibsim::apps
