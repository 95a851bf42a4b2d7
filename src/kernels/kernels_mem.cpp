// Memory-bound members of the Table-2 suite: vecop, red, hist, spvm.

#include <algorithm>
#include <cmath>

#include "tibsim/common/assert.hpp"
#include "tibsim/common/rng.hpp"
#include "tibsim/kernels/suite.hpp"

namespace tibsim::kernels {

using perfmodel::AccessPattern;
using perfmodel::WorkProfile;

// ---------------------------------------------------------------------------
// vecop: z = alpha * x + y
// ---------------------------------------------------------------------------

void VecOp::setup(std::size_t n, std::uint64_t seed) {
  TIB_REQUIRE(n > 0);
  Rng rng(seed);
  alpha_ = rng.uniform(0.5, 2.0);
  x_.resize(n);
  y_.resize(n);
  z_.assign(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    x_[i] = rng.uniform(-1.0, 1.0);
    y_[i] = rng.uniform(-1.0, 1.0);
  }
}

void VecOp::runSerial() {
  TIB_REQUIRE(!x_.empty());
  for (std::size_t i = 0; i < x_.size(); ++i) z_[i] = alpha_ * x_[i] + y_[i];
}

void VecOp::runParallel(TaskPool& pool) {
  TIB_REQUIRE(!x_.empty());
  pool.parallelFor(x_.size(), [this](std::size_t b, std::size_t e,
                                     std::size_t) {
    for (std::size_t i = b; i < e; ++i) z_[i] = alpha_ * x_[i] + y_[i];
  });
}

bool VecOp::verify() const {
  for (std::size_t i = 0; i < x_.size(); ++i) {
    if (std::abs(z_[i] - (alpha_ * x_[i] + y_[i])) > 1e-12) return false;
  }
  return true;
}

WorkProfile VecOp::currentProfile() const {
  const auto n = static_cast<double>(x_.size());
  return {2.0 * n, 3.0 * 8.0 * n, AccessPattern::Streaming, 1.0, 0.99, 0.0};
}

// ---------------------------------------------------------------------------
// red: scalar sum
// ---------------------------------------------------------------------------

void Reduction::setup(std::size_t n, std::uint64_t seed) {
  TIB_REQUIRE(n > 0);
  Rng rng(seed);
  data_.resize(n);
  expected_ = 0.0;
  for (auto& v : data_) {
    v = rng.uniform(0.0, 1.0);
    expected_ += v;
  }
  sum_ = 0.0;
}

void Reduction::runSerial() {
  TIB_REQUIRE(!data_.empty());
  double acc = 0.0;
  for (double v : data_) acc += v;
  sum_ = acc;
}

void Reduction::runParallel(TaskPool& pool) {
  TIB_REQUIRE(!data_.empty());
  std::vector<double> partial(pool.threadCount(), 0.0);
  pool.parallelFor(data_.size(), [this, &partial](std::size_t b, std::size_t e,
                                                  std::size_t t) {
    double acc = 0.0;
    for (std::size_t i = b; i < e; ++i) acc += data_[i];
    partial[t] = acc;
  });
  double acc = 0.0;
  for (double v : partial) acc += v;
  sum_ = acc;
}

bool Reduction::verify() const {
  // Summation order differs between variants; allow FP reassociation slack.
  const double tol = 1e-9 * static_cast<double>(data_.size());
  return std::abs(sum_ - expected_) <= tol;
}

WorkProfile Reduction::currentProfile() const {
  const auto n = static_cast<double>(data_.size());
  return {n, 8.0 * n, AccessPattern::Streaming, 0.9, 0.98, 0.0};
}

// ---------------------------------------------------------------------------
// hist: privatised histogram + merge
// ---------------------------------------------------------------------------

void Histogram::setup(std::size_t n, std::uint64_t seed) {
  TIB_REQUIRE(n > 0);
  Rng rng(seed);
  keys_.resize(n);
  expected_.assign(kBins, 0);
  for (auto& k : keys_) {
    // Skewed distribution: low bins are hot, like real histogramming loads.
    const double u = rng.nextDouble();
    k = static_cast<std::uint32_t>(u * u * static_cast<double>(kBins)) %
        kBins;
    ++expected_[k];
  }
  bins_.assign(kBins, 0);
}

void Histogram::runSerial() {
  TIB_REQUIRE(!keys_.empty());
  bins_.assign(kBins, 0);
  for (std::uint32_t k : keys_) ++bins_[k];
}

void Histogram::runParallel(TaskPool& pool) {
  TIB_REQUIRE(!keys_.empty());
  const std::size_t threads = pool.threadCount();
  std::vector<std::vector<std::uint64_t>> local(
      threads, std::vector<std::uint64_t>(kBins, 0));
  pool.parallelFor(keys_.size(), [this, &local](std::size_t b, std::size_t e,
                                                std::size_t t) {
    auto& mine = local[t];
    for (std::size_t i = b; i < e; ++i) ++mine[keys_[i]];
  });
  // Reduction stage.
  bins_.assign(kBins, 0);
  for (const auto& mine : local)
    for (std::size_t bin = 0; bin < kBins; ++bin) bins_[bin] += mine[bin];
}

bool Histogram::verify() const { return bins_ == expected_; }

WorkProfile Histogram::currentProfile() const {
  const auto n = static_cast<double>(keys_.size());
  // ~2.4 ALU ops per key (load, index, increment) at 4 B per key.
  return {2.4 * n, 4.0 * n, AccessPattern::Streaming, 0.45, 0.98, 0.0};
}

// ---------------------------------------------------------------------------
// spvm: CSR SpMV with skewed row lengths
// ---------------------------------------------------------------------------

void Spvm::setup(std::size_t n, std::uint64_t seed) {
  TIB_REQUIRE(n >= 4);
  Rng rng(seed);
  rows_ = n;
  rowPtr_.assign(rows_ + 1, 0);
  cols_.clear();
  vals_.clear();
  x_.resize(rows_);
  for (auto& v : x_) v = rng.uniform(-1.0, 1.0);

  // Power-law-ish row lengths: a few rows are much denser than the rest,
  // which is what creates the load imbalance the kernel exists to expose.
  for (std::size_t r = 0; r < rows_; ++r) {
    std::size_t len = 4 + rng.nextBelow(8);
    if (rng.nextDouble() < 0.02) len = 64 + rng.nextBelow(192);
    rowPtr_[r + 1] = rowPtr_[r] + len;
    for (std::size_t j = 0; j < len; ++j) {
      cols_.push_back(static_cast<std::uint32_t>(rng.nextBelow(rows_)));
      vals_.push_back(rng.uniform(-1.0, 1.0));
    }
  }
  y_.assign(rows_, 0.0);
  expected_.assign(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    double acc = 0.0;
    for (std::size_t j = rowPtr_[r]; j < rowPtr_[r + 1]; ++j)
      acc += vals_[j] * x_[cols_[j]];
    expected_[r] = acc;
  }
}

void Spvm::multiplyRows(std::size_t rowBegin, std::size_t rowEnd) {
  for (std::size_t r = rowBegin; r < rowEnd; ++r) {
    double acc = 0.0;
    for (std::size_t j = rowPtr_[r]; j < rowPtr_[r + 1]; ++j)
      acc += vals_[j] * x_[cols_[j]];
    y_[r] = acc;
  }
}

void Spvm::runSerial() {
  TIB_REQUIRE(rows_ > 0);
  multiplyRows(0, rows_);
}

void Spvm::runParallel(TaskPool& pool) {
  TIB_REQUIRE(rows_ > 0);
  pool.parallelFor(rows_, [this](std::size_t b, std::size_t e, std::size_t) {
    multiplyRows(b, e);
  });
}

bool Spvm::verify() const {
  for (std::size_t r = 0; r < rows_; ++r) {
    if (std::abs(y_[r] - expected_[r]) > 1e-9) return false;
  }
  return true;
}

WorkProfile Spvm::currentProfile() const {
  const auto nnz = static_cast<double>(vals_.size());
  return {2.0 * nnz, 12.0 * nnz, AccessPattern::Irregular, 0.9, 0.97, 0.25};
}

}  // namespace tibsim::kernels
