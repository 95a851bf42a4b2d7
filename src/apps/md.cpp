#include "tibsim/apps/md.hpp"

#include <algorithm>
#include <cmath>

#include "tibsim/common/assert.hpp"
#include "tibsim/common/rng.hpp"

namespace tibsim::apps {

using perfmodel::AccessPattern;
using perfmodel::WorkProfile;

// ---------------------------------------------------------------------------
// LennardJonesMd (real numerics)
// ---------------------------------------------------------------------------

LennardJonesMd::LennardJonesMd(Params params) : params_(params) {
  TIB_REQUIRE(params_.particles >= 2);
  TIB_REQUIRE(params_.boxSize > 2.0 * params_.cutoff);
  const std::size_t n = params_.particles;
  px_.resize(n);
  py_.resize(n);
  pz_.resize(n);
  vx_.assign(n, 0.0);
  vy_.assign(n, 0.0);
  vz_.assign(n, 0.0);
  fx_.assign(n, 0.0);
  fy_.assign(n, 0.0);
  fz_.assign(n, 0.0);

  // Lattice start (avoids overlaps), small random velocities with zero
  // total momentum.
  const auto side = static_cast<std::size_t>(std::ceil(std::cbrt(
      static_cast<double>(n))));
  const double spacing = params_.boxSize / static_cast<double>(side);
  Rng rng(params_.seed);
  for (std::size_t i = 0; i < n; ++i) {
    px_[i] = (0.5 + static_cast<double>(i % side)) * spacing;
    py_[i] = (0.5 + static_cast<double>((i / side) % side)) * spacing;
    pz_[i] = (0.5 + static_cast<double>(i / (side * side))) * spacing;
    vx_[i] = rng.normal(0.0, 0.3);
    vy_[i] = rng.normal(0.0, 0.3);
    vz_[i] = rng.normal(0.0, 0.3);
  }
  double mx = 0.0, my = 0.0, mz = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    mx += vx_[i];
    my += vy_[i];
    mz += vz_[i];
  }
  for (std::size_t i = 0; i < n; ++i) {
    vx_[i] -= mx / static_cast<double>(n);
    vy_[i] -= my / static_cast<double>(n);
    vz_[i] -= mz / static_cast<double>(n);
  }

  cellsPerSide_ = std::max<std::size_t>(
      1, static_cast<std::size_t>(params_.boxSize / params_.cutoff));
  cells_.resize(cellsPerSide_ * cellsPerSide_ * cellsPerSide_);
  computeForces();
}

double LennardJonesMd::minimumImage(double d) const {
  const double box = params_.boxSize;
  if (d > 0.5 * box) return d - box;
  if (d < -0.5 * box) return d + box;
  return d;
}

void LennardJonesMd::buildCells() {
  for (auto& cell : cells_) cell.clear();
  const double inv = static_cast<double>(cellsPerSide_) / params_.boxSize;
  for (std::size_t i = 0; i < px_.size(); ++i) {
    auto cx = static_cast<std::size_t>(px_[i] * inv) % cellsPerSide_;
    auto cy = static_cast<std::size_t>(py_[i] * inv) % cellsPerSide_;
    auto cz = static_cast<std::size_t>(pz_[i] * inv) % cellsPerSide_;
    cells_[(cz * cellsPerSide_ + cy) * cellsPerSide_ + cx].push_back(
        static_cast<int>(i));
  }
}

void LennardJonesMd::computeForces() {
  buildCells();
  std::fill(fx_.begin(), fx_.end(), 0.0);
  std::fill(fy_.begin(), fy_.end(), 0.0);
  std::fill(fz_.begin(), fz_.end(), 0.0);
  potential_ = 0.0;
  const double rc2 = params_.cutoff * params_.cutoff;
  const auto m = static_cast<std::ptrdiff_t>(cellsPerSide_);

  auto cellAt = [&](std::ptrdiff_t x, std::ptrdiff_t y, std::ptrdiff_t z)
      -> const std::vector<int>& {
    const auto wrap = [m](std::ptrdiff_t v) { return ((v % m) + m) % m; };
    return cells_[static_cast<std::size_t>(
        (wrap(z) * m + wrap(y)) * m + wrap(x))];
  };

  for (std::ptrdiff_t cz = 0; cz < m; ++cz) {
    for (std::ptrdiff_t cy = 0; cy < m; ++cy) {
      for (std::ptrdiff_t cx = 0; cx < m; ++cx) {
        const auto& home = cellAt(cx, cy, cz);
        for (std::ptrdiff_t dz = -1; dz <= 1; ++dz) {
          for (std::ptrdiff_t dy = -1; dy <= 1; ++dy) {
            for (std::ptrdiff_t dx = -1; dx <= 1; ++dx) {
              const auto& other = cellAt(cx + dx, cy + dy, cz + dz);
              for (int i : home) {
                for (int j : other) {
                  if (j <= i) continue;  // each pair once
                  const auto ii = static_cast<std::size_t>(i);
                  const auto jj = static_cast<std::size_t>(j);
                  const double rx = minimumImage(px_[ii] - px_[jj]);
                  const double ry = minimumImage(py_[ii] - py_[jj]);
                  const double rz = minimumImage(pz_[ii] - pz_[jj]);
                  const double r2 = rx * rx + ry * ry + rz * rz;
                  if (r2 >= rc2 || r2 < 1e-12) continue;
                  const double inv2 = 1.0 / r2;
                  const double inv6 = inv2 * inv2 * inv2;
                  // LJ: U = 4 (r^-12 - r^-6); F = 24 (2 r^-12 - r^-6)/r^2 r
                  const double fmag = 24.0 * inv2 * inv6 * (2.0 * inv6 - 1.0);
                  potential_ += 4.0 * inv6 * (inv6 - 1.0);
                  fx_[ii] += fmag * rx;
                  fy_[ii] += fmag * ry;
                  fz_[ii] += fmag * rz;
                  fx_[jj] -= fmag * rx;
                  fy_[jj] -= fmag * ry;
                  fz_[jj] -= fmag * rz;
                }
              }
            }
          }
        }
      }
    }
  }
}

void LennardJonesMd::step() {
  const double dt = params_.dt;
  const double box = params_.boxSize;
  const std::size_t n = px_.size();
  // Velocity Verlet: half kick, drift (with periodic wrap), force, half kick.
  for (std::size_t i = 0; i < n; ++i) {
    vx_[i] += 0.5 * dt * fx_[i];
    vy_[i] += 0.5 * dt * fy_[i];
    vz_[i] += 0.5 * dt * fz_[i];
    px_[i] = std::fmod(px_[i] + dt * vx_[i] + box, box);
    py_[i] = std::fmod(py_[i] + dt * vy_[i] + box, box);
    pz_[i] = std::fmod(pz_[i] + dt * vz_[i] + box, box);
  }
  computeForces();
  for (std::size_t i = 0; i < n; ++i) {
    vx_[i] += 0.5 * dt * fx_[i];
    vy_[i] += 0.5 * dt * fy_[i];
    vz_[i] += 0.5 * dt * fz_[i];
  }
}

double LennardJonesMd::kineticEnergy() const {
  double ke = 0.0;
  for (std::size_t i = 0; i < px_.size(); ++i)
    ke += 0.5 * (vx_[i] * vx_[i] + vy_[i] * vy_[i] + vz_[i] * vz_[i]);
  return ke;
}

double LennardJonesMd::potentialEnergy() const { return potential_; }

double LennardJonesMd::momentumNorm() const {
  double mx = 0.0, my = 0.0, mz = 0.0;
  for (std::size_t i = 0; i < px_.size(); ++i) {
    mx += vx_[i];
    my += vy_[i];
    mz += vz_[i];
  }
  return std::sqrt(mx * mx + my * my + mz * mz);
}

// ---------------------------------------------------------------------------
// MdBenchmark (distributed skeleton)
// ---------------------------------------------------------------------------

int MdBenchmark::minimumNodes(const cluster::ClusterSpec& spec,
                              std::size_t atoms) {
  const double total = static_cast<double>(atoms) * bytesPerAtom();
  return static_cast<int>(std::ceil(total / spec.usableBytesPerNode()));
}

mpi::MpiWorld::RankBody MdBenchmark::rankBody(Params params) {
  TIB_REQUIRE(params.atoms >= 1000 && params.steps >= 1);
  return [params](mpi::MpiContext& ctx) {
    const int p = ctx.size();
    const double local = static_cast<double>(params.atoms) / p;
    // 1-D slab decomposition: boundary layer ~ cutoff-depth slab of the
    // local box => surface/volume shrinks as local^(2/3).
    const auto boundaryBytes = static_cast<std::size_t>(
        64.0 * std::cbrt(local) * std::cbrt(local));

    for (int step = 0; step < params.steps; ++step) {
      // Exchange boundary atoms with both slab neighbours.
      ctx.neighborExchange(boundaryBytes, 200);

      // Neighbour-list force computation: ~60 neighbours x ~45 FLOPs per
      // atom, half-counted via Newton's third law; gather-heavy and
      // moderately imbalanced (density fluctuations).
      ctx.compute(WorkProfile{1350.0 * local, 350.0 * local,
                              AccessPattern::Irregular, 0.65, 1.0, 0.10});

      // Return the partial forces of shared atoms to their home ranks.
      ctx.neighborExchange(boundaryBytes, 210);

      // Integration.
      ctx.compute(WorkProfile{18.0 * local, 96.0 * local,
                              AccessPattern::Streaming, 0.85, 1.0, 0.0});

      // Global energy/temperature reduction.
      const double e[2] = {1.0, 1.0};
      ctx.allreduce(std::span<const double>(e, 2), mpi::ReduceOp::Sum);
    }
    ctx.barrier();
  };
}

}  // namespace tibsim::apps
