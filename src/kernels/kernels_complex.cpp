// Remaining Table-2 kernels with more involved control flow:
// 3dstc (stencil), fft, msort.

#include <algorithm>
#include <bit>
#include <cmath>
#include <numbers>

#include "tibsim/common/assert.hpp"
#include "tibsim/common/rng.hpp"
#include "tibsim/kernels/suite.hpp"

namespace tibsim::kernels {

using perfmodel::AccessPattern;
using perfmodel::WorkProfile;

// ---------------------------------------------------------------------------
// 3dstc: 7-point stencil sweep over an n^3 grid
// ---------------------------------------------------------------------------

void Stencil3D::setup(std::size_t n, std::uint64_t seed) {
  TIB_REQUIRE(n >= 4);
  Rng rng(seed);
  n_ = n;
  in_.resize(n * n * n);
  out_.assign(n * n * n, 0.0);
  for (auto& v : in_) v = rng.uniform(0.0, 1.0);
}

void Stencil3D::sweepPlanes(std::size_t zBegin, std::size_t zEnd) {
  const std::size_t n = n_;
  const std::size_t plane = n * n;
  auto at = [&](std::size_t x, std::size_t y, std::size_t z) {
    return in_[z * plane + y * n + x];
  };
  for (std::size_t z = std::max<std::size_t>(zBegin, 1);
       z < std::min(zEnd, n - 1); ++z) {
    for (std::size_t y = 1; y + 1 < n; ++y) {
      for (std::size_t x = 1; x + 1 < n; ++x) {
        out_[z * plane + y * n + x] =
            (1.0 / 7.0) * (at(x, y, z) + at(x - 1, y, z) + at(x + 1, y, z) +
                           at(x, y - 1, z) + at(x, y + 1, z) +
                           at(x, y, z - 1) + at(x, y, z + 1));
      }
    }
  }
}

void Stencil3D::runSerial() {
  TIB_REQUIRE(n_ > 0);
  sweepPlanes(0, n_);
}

void Stencil3D::runParallel(TaskPool& pool) {
  TIB_REQUIRE(n_ > 0);
  pool.parallelFor(n_, [this](std::size_t b, std::size_t e, std::size_t) {
    sweepPlanes(b, e);
  });
}

bool Stencil3D::verify() const {
  // Averaging stencil over values in [0,1]: interior outputs must stay in
  // [0,1]; spot-check a diagonal of points against direct evaluation.
  const std::size_t n = n_;
  const std::size_t plane = n * n;
  for (std::size_t i = 1; i + 1 < n; i += std::max<std::size_t>(1, n / 9)) {
    const double expected =
        (1.0 / 7.0) *
        (in_[i * plane + i * n + i] + in_[i * plane + i * n + i - 1] +
         in_[i * plane + i * n + i + 1] + in_[i * plane + (i - 1) * n + i] +
         in_[i * plane + (i + 1) * n + i] + in_[(i - 1) * plane + i * n + i] +
         in_[(i + 1) * plane + i * n + i]);
    if (std::abs(out_[i * plane + i * n + i] - expected) > 1e-12) return false;
  }
  for (double v : out_)
    if (v < -1e-12 || v > 1.0 + 1e-12) return false;
  return true;
}

WorkProfile Stencil3D::currentProfile() const {
  const auto n = static_cast<double>(n_ * n_ * n_);
  return {8.0 * n, 16.0 * n, AccessPattern::Strided, 0.8, 1.0, 0.0};
}

// ---------------------------------------------------------------------------
// fft: iterative radix-2 Cooley-Tukey
// ---------------------------------------------------------------------------

void Fft1D::setup(std::size_t n, std::uint64_t seed) {
  TIB_REQUIRE_MSG(n >= 8 && std::has_single_bit(n),
                  "FFT size must be a power of two");
  Rng rng(seed);
  n_ = n;
  data_.resize(n);
  for (auto& v : data_)
    v = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
  original_ = data_;
}

void Fft1D::bitReverse() {
  const std::size_t n = n_;
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(data_[i], data_[j]);
  }
}

void Fft1D::stages(TaskPool* pool) {
  const std::size_t n = n_;
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double angle = -2.0 * std::numbers::pi / static_cast<double>(len);
    const std::complex<double> wlen(std::cos(angle), std::sin(angle));
    const std::size_t blocks = n / len;
    auto butterflyBlock = [&](std::size_t blockBegin, std::size_t blockEnd) {
      for (std::size_t blk = blockBegin; blk < blockEnd; ++blk) {
        const std::size_t base = blk * len;
        std::complex<double> w(1.0, 0.0);
        for (std::size_t k = 0; k < len / 2; ++k) {
          const auto u = data_[base + k];
          const auto v = data_[base + k + len / 2] * w;
          data_[base + k] = u + v;
          data_[base + k + len / 2] = u - v;
          w *= wlen;
        }
      }
    };
    if (pool != nullptr && blocks >= pool->threadCount()) {
      pool->parallelFor(blocks, [&](std::size_t b, std::size_t e,
                                    std::size_t) { butterflyBlock(b, e); });
    } else {
      butterflyBlock(0, blocks);
    }
  }
}

void Fft1D::runSerial() {
  TIB_REQUIRE(n_ > 0);
  data_ = original_;
  bitReverse();
  stages(nullptr);
}

void Fft1D::runParallel(TaskPool& pool) {
  TIB_REQUIRE(n_ > 0);
  data_ = original_;
  bitReverse();
  stages(&pool);
}

bool Fft1D::verify() const {
  // Parseval: sum |x|^2 * n == sum |X|^2, plus a direct DFT spot check.
  double inEnergy = 0.0, outEnergy = 0.0;
  for (std::size_t i = 0; i < n_; ++i) {
    inEnergy += std::norm(original_[i]);
    outEnergy += std::norm(data_[i]);
  }
  if (std::abs(outEnergy - inEnergy * static_cast<double>(n_)) >
      1e-6 * inEnergy * static_cast<double>(n_))
    return false;

  for (std::size_t bin : {std::size_t{0}, n_ / 3, n_ - 1}) {
    std::complex<double> acc(0.0, 0.0);
    for (std::size_t t = 0; t < n_; ++t) {
      const double angle = -2.0 * std::numbers::pi *
                           static_cast<double>(bin) *
                           static_cast<double>(t) / static_cast<double>(n_);
      acc += original_[t] * std::complex<double>(std::cos(angle),
                                                 std::sin(angle));
    }
    if (std::abs(acc - data_[bin]) >
        1e-6 * std::sqrt(static_cast<double>(n_)))
      return false;
  }
  return true;
}

WorkProfile Fft1D::currentProfile() const {
  const auto n = static_cast<double>(n_);
  const double stagesCount = std::log2(n);
  return {5.0 * n * stagesCount, 3.0 * 16.0 * n, AccessPattern::Strided,
          0.65, 0.97, 0.0};
}

// ---------------------------------------------------------------------------
// msort: bottom-up merge sort
// ---------------------------------------------------------------------------

void MergeSort::setup(std::size_t n, std::uint64_t seed) {
  TIB_REQUIRE(n >= 2);
  Rng rng(seed);
  data_.resize(n);
  for (auto& v : data_) v = rng.uniform(0.0, 1.0);
  original_ = data_;
  scratch_.assign(n, 0.0);
}

namespace {
void mergeRuns(std::vector<double>& src, std::vector<double>& dst,
               std::size_t lo, std::size_t mid, std::size_t hi) {
  std::size_t i = lo, j = mid, k = lo;
  while (i < mid && j < hi)
    dst[k++] = (src[i] <= src[j]) ? src[i++] : src[j++];
  while (i < mid) dst[k++] = src[i++];
  while (j < hi) dst[k++] = src[j++];
}

/// Bottom-up merge sort of src[lo, hi); result ends up back in src.
void sortRange(std::vector<double>& src, std::vector<double>& scratch,
               std::size_t lo, std::size_t hi) {
  const std::size_t n = hi - lo;
  bool inSrc = true;
  for (std::size_t width = 1; width < n; width *= 2) {
    auto& from = inSrc ? src : scratch;
    auto& to = inSrc ? scratch : src;
    for (std::size_t left = lo; left < hi; left += 2 * width) {
      const std::size_t mid = std::min(left + width, hi);
      const std::size_t right = std::min(left + 2 * width, hi);
      mergeRuns(from, to, left, mid, right);
    }
    inSrc = !inSrc;
  }
  if (!inSrc)
    std::copy(scratch.begin() + static_cast<std::ptrdiff_t>(lo),
              scratch.begin() + static_cast<std::ptrdiff_t>(hi),
              src.begin() + static_cast<std::ptrdiff_t>(lo));
}
}  // namespace

void MergeSort::runSerial() {
  TIB_REQUIRE(!data_.empty());
  data_ = original_;
  sortRange(data_, scratch_, 0, data_.size());
}

void MergeSort::runParallel(TaskPool& pool) {
  TIB_REQUIRE(!data_.empty());
  data_ = original_;
  const std::size_t n = data_.size();
  const std::size_t threads = pool.threadCount();
  const std::size_t chunk = (n + threads - 1) / threads;

  // Phase 1: each thread sorts its contiguous chunk (barrier at the end —
  // the "barrier operations" this kernel exists to measure).
  pool.parallelFor(threads, [this, n, chunk](std::size_t b, std::size_t e,
                                             std::size_t) {
    for (std::size_t t = b; t < e; ++t) {
      const std::size_t lo = std::min(t * chunk, n);
      const std::size_t hi = std::min(lo + chunk, n);
      if (lo < hi) sortRange(data_, scratch_, lo, hi);
    }
  });

  // Phase 2: log(threads) pairwise merge rounds, each a fork-join barrier.
  for (std::size_t width = chunk; width < n; width *= 2) {
    const std::size_t pairs = (n + 2 * width - 1) / (2 * width);
    pool.parallelFor(pairs, [this, n, width](std::size_t b, std::size_t e,
                                             std::size_t) {
      for (std::size_t p = b; p < e; ++p) {
        const std::size_t left = p * 2 * width;
        const std::size_t mid = std::min(left + width, n);
        const std::size_t right = std::min(left + 2 * width, n);
        mergeRuns(data_, scratch_, left, mid, right);
      }
    });
    std::swap(data_, scratch_);
  }
}

bool MergeSort::verify() const {
  if (!std::is_sorted(data_.begin(), data_.end())) return false;
  // Same multiset as the input: compare sums (cheap permutation check).
  double a = 0.0, b = 0.0;
  for (double v : data_) a += v;
  for (double v : original_) b += v;
  return std::abs(a - b) < 1e-9 * static_cast<double>(data_.size());
}

WorkProfile MergeSort::currentProfile() const {
  const auto n = static_cast<double>(data_.size());
  const double passes = std::log2(n);
  return {n * passes, 16.0 * n * std::min(passes, 6.0),
          AccessPattern::Blocked, 0.35, 0.90, 0.0};
}

}  // namespace tibsim::kernels
