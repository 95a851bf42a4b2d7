// Compute-bound members of the Table-2 suite: dmmm, 2dcon, nbody, amcd.

#include <algorithm>
#include <cmath>

#include "tibsim/common/assert.hpp"
#include "tibsim/common/rng.hpp"
#include "tibsim/kernels/suite.hpp"

namespace tibsim::kernels {

using perfmodel::AccessPattern;
using perfmodel::WorkProfile;

// ---------------------------------------------------------------------------
// dmmm: blocked C = A * B
// ---------------------------------------------------------------------------

void Dmmm::setup(std::size_t n, std::uint64_t seed) {
  TIB_REQUIRE(n >= 2);
  Rng rng(seed);
  n_ = n;
  a_.resize(n * n);
  b_.resize(n * n);
  c_.assign(n * n, 0.0);
  for (auto& v : a_) v = rng.uniform(-1.0, 1.0);
  for (auto& v : b_) v = rng.uniform(-1.0, 1.0);
}

void Dmmm::multiplyRows(std::size_t rowBegin, std::size_t rowEnd) {
  constexpr std::size_t kBlock = 48;
  for (std::size_t i = rowBegin; i < rowEnd; ++i)
    std::fill(c_.begin() + static_cast<std::ptrdiff_t>(i * n_),
              c_.begin() + static_cast<std::ptrdiff_t>((i + 1) * n_), 0.0);
  for (std::size_t kk = 0; kk < n_; kk += kBlock) {
    const std::size_t kEnd = std::min(kk + kBlock, n_);
    for (std::size_t i = rowBegin; i < rowEnd; ++i) {
      for (std::size_t k = kk; k < kEnd; ++k) {
        const double aik = a_[i * n_ + k];
        const double* brow = &b_[k * n_];
        double* crow = &c_[i * n_];
        for (std::size_t j = 0; j < n_; ++j) crow[j] += aik * brow[j];
      }
    }
  }
}

void Dmmm::runSerial() {
  TIB_REQUIRE(n_ > 0);
  multiplyRows(0, n_);
}

void Dmmm::runParallel(TaskPool& pool) {
  TIB_REQUIRE(n_ > 0);
  pool.parallelFor(n_, [this](std::size_t b, std::size_t e, std::size_t) {
    multiplyRows(b, e);
  });
}

bool Dmmm::verify() const {
  // Spot-check a handful of entries against the naive dot product.
  const std::size_t stride = std::max<std::size_t>(1, n_ / 7);
  for (std::size_t i = 0; i < n_; i += stride) {
    for (std::size_t j = 0; j < n_; j += stride) {
      double acc = 0.0;
      for (std::size_t k = 0; k < n_; ++k) acc += a_[i * n_ + k] * b_[k * n_ + j];
      if (std::abs(c_[i * n_ + j] - acc) >
          1e-9 * static_cast<double>(n_))
        return false;
    }
  }
  return true;
}

WorkProfile Dmmm::currentProfile() const {
  const auto n = static_cast<double>(n_);
  // Blocked: each B panel is streamed n/kBlock times; A and C stream once.
  const double bytes = 8.0 * (n * n * (2.0 + n / 48.0));
  return {2.0 * n * n * n, bytes, AccessPattern::Blocked, 0.9, 1.0, 0.0};
}

// ---------------------------------------------------------------------------
// 2dcon: 5x5 convolution
// ---------------------------------------------------------------------------

void Conv2D::setup(std::size_t n, std::uint64_t seed) {
  TIB_REQUIRE(n >= 8);
  Rng rng(seed);
  n_ = n;
  image_.resize(n * n);
  result_.assign(n * n, 0.0);
  for (auto& v : image_) v = rng.uniform(0.0, 1.0);
  double sum = 0.0;
  for (auto& row : filter_)
    for (auto& w : row) {
      w = rng.uniform(0.0, 1.0);
      sum += w;
    }
  for (auto& row : filter_)
    for (auto& w : row) w /= sum;  // normalised blur kernel
}

void Conv2D::convolveRows(std::size_t rowBegin, std::size_t rowEnd) {
  const auto n = static_cast<std::ptrdiff_t>(n_);
  for (std::size_t r = rowBegin; r < rowEnd; ++r) {
    for (std::size_t c = 0; c < n_; ++c) {
      double acc = 0.0;
      for (int dy = -2; dy <= 2; ++dy) {
        for (int dx = -2; dx <= 2; ++dx) {
          // Clamped borders.
          const auto yy = std::clamp<std::ptrdiff_t>(
              static_cast<std::ptrdiff_t>(r) + dy, 0, n - 1);
          const auto xx = std::clamp<std::ptrdiff_t>(
              static_cast<std::ptrdiff_t>(c) + dx, 0, n - 1);
          acc += filter_[dy + 2][dx + 2] *
                 image_[static_cast<std::size_t>(yy * n + xx)];
        }
      }
      result_[r * n_ + c] = acc;
    }
  }
}

void Conv2D::runSerial() {
  TIB_REQUIRE(n_ > 0);
  convolveRows(0, n_);
}

void Conv2D::runParallel(TaskPool& pool) {
  TIB_REQUIRE(n_ > 0);
  pool.parallelFor(n_, [this](std::size_t b, std::size_t e, std::size_t) {
    convolveRows(b, e);
  });
}

bool Conv2D::verify() const {
  // The filter is normalised and the image is in [0,1]: every output pixel
  // must stay in [0,1], and the total mass must be approximately preserved
  // (borders are clamped, so allow a modest tolerance).
  double inSum = 0.0, outSum = 0.0;
  for (std::size_t i = 0; i < image_.size(); ++i) {
    if (result_[i] < -1e-12 || result_[i] > 1.0 + 1e-12) return false;
    inSum += image_[i];
    outSum += result_[i];
  }
  return std::abs(inSum - outSum) <
         0.05 * inSum + 1.0;  // clamped borders shift a little mass
}

WorkProfile Conv2D::currentProfile() const {
  const auto n = static_cast<double>(n_ * n_);
  return {2.0 * 25.0 * n, 16.0 * n, AccessPattern::Spatial, 0.85, 1.0, 0.0};
}

// ---------------------------------------------------------------------------
// nbody: all-pairs accelerations
// ---------------------------------------------------------------------------

void NBody::setup(std::size_t n, std::uint64_t seed) {
  TIB_REQUIRE(n >= 2);
  Rng rng(seed);
  px_.resize(n);
  py_.resize(n);
  pz_.resize(n);
  mass_.resize(n);
  ax_.assign(n, 0.0);
  ay_.assign(n, 0.0);
  az_.assign(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    px_[i] = rng.uniform(-1.0, 1.0);
    py_[i] = rng.uniform(-1.0, 1.0);
    pz_[i] = rng.uniform(-1.0, 1.0);
    mass_[i] = rng.uniform(0.1, 1.0);
  }
}

void NBody::accelerate(std::size_t begin, std::size_t end) {
  constexpr double kSoftening = 1e-3;
  const std::size_t n = px_.size();
  for (std::size_t i = begin; i < end; ++i) {
    double axAcc = 0.0, ayAcc = 0.0, azAcc = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      const double dx = px_[j] - px_[i];
      const double dy = py_[j] - py_[i];
      const double dz = pz_[j] - pz_[i];
      const double d2 = dx * dx + dy * dy + dz * dz + kSoftening;
      const double inv = 1.0 / std::sqrt(d2);
      const double w = mass_[j] * inv * inv * inv;
      axAcc += w * dx;
      ayAcc += w * dy;
      azAcc += w * dz;
    }
    ax_[i] = axAcc;
    ay_[i] = ayAcc;
    az_[i] = azAcc;
  }
}

void NBody::runSerial() {
  TIB_REQUIRE(!px_.empty());
  accelerate(0, px_.size());
}

void NBody::runParallel(TaskPool& pool) {
  TIB_REQUIRE(!px_.empty());
  pool.parallelFor(px_.size(), [this](std::size_t b, std::size_t e,
                                      std::size_t) { accelerate(b, e); });
}

bool NBody::verify() const {
  // Newton's third law: sum of mass-weighted accelerations is ~zero.
  double fx = 0.0, fy = 0.0, fz = 0.0, scale = 0.0;
  for (std::size_t i = 0; i < px_.size(); ++i) {
    fx += mass_[i] * ax_[i];
    fy += mass_[i] * ay_[i];
    fz += mass_[i] * az_[i];
    scale += mass_[i] * (std::abs(ax_[i]) + std::abs(ay_[i]) +
                         std::abs(az_[i]));
  }
  const double tol = 1e-9 * std::max(1.0, scale);
  return std::abs(fx) < tol && std::abs(fy) < tol && std::abs(fz) < tol;
}

WorkProfile NBody::currentProfile() const {
  const auto n = static_cast<double>(px_.size());
  // ~20 FLOPs per interaction (incl. rsqrt), working set is cache resident.
  return {20.0 * n * n, 32.0 * n, AccessPattern::Irregular, 0.75, 1.0, 0.0};
}

// ---------------------------------------------------------------------------
// amcd: Metropolis MCMC sampling of a standard normal
// ---------------------------------------------------------------------------

double Amcd::chain(std::uint64_t seed, std::size_t steps) const {
  Rng rng(seed);
  double x = 0.0;
  double sumSq = 0.0;
  std::size_t accepted = 0;
  for (std::size_t i = 0; i < steps; ++i) {
    const double candidate = x + rng.uniform(-1.5, 1.5);
    // Metropolis acceptance for pi(x) ∝ exp(-x^2/2).
    const double logRatio = 0.5 * (x * x - candidate * candidate);
    if (logRatio >= 0.0 || rng.nextDouble() < std::exp(logRatio)) {
      x = candidate;
      ++accepted;
    }
    sumSq += x * x;
  }
  (void)accepted;
  return sumSq / static_cast<double>(steps);
}

void Amcd::setup(std::size_t n, std::uint64_t seed) {
  TIB_REQUIRE(n >= 1000);
  samples_ = n;
  seed_ = seed;
  estimate_ = 0.0;
}

void Amcd::runSerial() {
  TIB_REQUIRE(samples_ > 0);
  estimate_ = chain(seed_, samples_);
}

void Amcd::runParallel(TaskPool& pool) {
  TIB_REQUIRE(samples_ > 0);
  const std::size_t threads = pool.threadCount();
  const std::size_t perChain = samples_ / threads;
  std::vector<double> partial(threads, 0.0);
  pool.parallelFor(threads, [this, perChain, &partial](
                                std::size_t b, std::size_t e, std::size_t) {
    for (std::size_t c = b; c < e; ++c)
      partial[c] = chain(seed_ + 0x9e37ULL * (c + 1), perChain);
  });
  double acc = 0.0;
  for (double v : partial) acc += v;
  estimate_ = acc / static_cast<double>(threads);
}

bool Amcd::verify() const {
  // E[x^2] of a standard normal is 1; MCMC error shrinks ~1/sqrt(n).
  const double tol =
      12.0 / std::sqrt(static_cast<double>(samples_)) + 0.02;
  return std::abs(estimate_ - 1.0) < tol;
}

WorkProfile Amcd::currentProfile() const {
  const auto n = static_cast<double>(samples_);
  // ~15 FLOPs per Metropolis step (proposal, log-ratio, exp, accumulate).
  return {15.0 * n, 0.0, AccessPattern::Resident, 0.95, 1.0, 0.0};
}

}  // namespace tibsim::kernels
