#pragma once
// Concrete micro-kernel classes (Table 2). Most users go through makeSuite()
// / makeKernel(); the concrete types are exposed for targeted tests.

#include <complex>
#include <cstdint>
#include <vector>

#include "tibsim/kernels/microkernel.hpp"

namespace tibsim::kernels {

/// vecop — z = alpha*x + y over n doubles (regular numerical codes).
class VecOp final : public MicroKernel {
 public:
  std::string tag() const override { return "vecop"; }
  std::string fullName() const override { return "Vector operation"; }
  std::string properties() const override {
    return "Common operation in regular numerical codes";
  }
  void setup(std::size_t n, std::uint64_t seed) override;
  void runSerial() override;
  void runParallel(TaskPool& pool) override;
  bool verify() const override;
  perfmodel::WorkProfile currentProfile() const override;

 private:
  double alpha_ = 0.0;
  std::vector<double> x_, y_, z_;
};

/// dmmm — dense matrix-matrix multiply C = A*B, cache-blocked.
class Dmmm final : public MicroKernel {
 public:
  std::string tag() const override { return "dmmm"; }
  std::string fullName() const override {
    return "Dense matrix-matrix multiplication";
  }
  std::string properties() const override {
    return "Data reuse and compute performance";
  }
  void setup(std::size_t n, std::uint64_t seed) override;
  void runSerial() override;
  void runParallel(TaskPool& pool) override;
  bool verify() const override;
  perfmodel::WorkProfile currentProfile() const override;

 private:
  void multiplyRows(std::size_t rowBegin, std::size_t rowEnd);
  std::size_t n_ = 0;
  std::vector<double> a_, b_, c_;
};

/// 3dstc — 7-point 3-D stencil sweep (strided memory accesses).
class Stencil3D final : public MicroKernel {
 public:
  std::string tag() const override { return "3dstc"; }
  std::string fullName() const override {
    return "3D volume stencil computation";
  }
  std::string properties() const override {
    return "Strided memory accesses (7-point 3D stencil)";
  }
  void setup(std::size_t n, std::uint64_t seed) override;
  void runSerial() override;
  void runParallel(TaskPool& pool) override;
  bool verify() const override;
  perfmodel::WorkProfile currentProfile() const override;

 private:
  void sweepPlanes(std::size_t zBegin, std::size_t zEnd);
  std::size_t n_ = 0;  ///< grid edge length
  std::vector<double> in_, out_;
};

/// 2dcon — 5x5 2-D convolution (spatial locality).
class Conv2D final : public MicroKernel {
 public:
  std::string tag() const override { return "2dcon"; }
  std::string fullName() const override { return "2D convolution"; }
  std::string properties() const override { return "Spatial locality"; }
  void setup(std::size_t n, std::uint64_t seed) override;
  void runSerial() override;
  void runParallel(TaskPool& pool) override;
  bool verify() const override;
  perfmodel::WorkProfile currentProfile() const override;

 private:
  void convolveRows(std::size_t rowBegin, std::size_t rowEnd);
  std::size_t n_ = 0;  ///< image edge length
  std::vector<double> image_, result_;
  double filter_[5][5] = {};
};

/// fft — 1-D iterative radix-2 complex FFT (peak FP, variable stride).
class Fft1D final : public MicroKernel {
 public:
  std::string tag() const override { return "fft"; }
  std::string fullName() const override {
    return "One-dimensional Fast Fourier Transform";
  }
  std::string properties() const override {
    return "Peak floating-point, variable-stride accesses";
  }
  void setup(std::size_t n, std::uint64_t seed) override;
  void runSerial() override;
  void runParallel(TaskPool& pool) override;
  bool verify() const override;
  perfmodel::WorkProfile currentProfile() const override;

 private:
  void bitReverse();
  void stages(TaskPool* pool);
  std::size_t n_ = 0;  ///< transform length (power of two)
  std::vector<std::complex<double>> data_, original_;
};

/// red — scalar sum reduction (varying levels of parallelism).
class Reduction final : public MicroKernel {
 public:
  std::string tag() const override { return "red"; }
  std::string fullName() const override { return "Reduction operation"; }
  std::string properties() const override {
    return "Varying levels of parallelism (scalar sum)";
  }
  void setup(std::size_t n, std::uint64_t seed) override;
  void runSerial() override;
  void runParallel(TaskPool& pool) override;
  bool verify() const override;
  perfmodel::WorkProfile currentProfile() const override;

 private:
  std::vector<double> data_;
  double sum_ = 0.0;
  double expected_ = 0.0;
};

/// hist — histogram with per-thread privatisation and a reduction stage.
class Histogram final : public MicroKernel {
 public:
  static constexpr std::size_t kBins = 256;
  std::string tag() const override { return "hist"; }
  std::string fullName() const override { return "Histogram calculation"; }
  std::string properties() const override {
    return "Histogram with local privatisation, requires reduction stage";
  }
  void setup(std::size_t n, std::uint64_t seed) override;
  void runSerial() override;
  void runParallel(TaskPool& pool) override;
  bool verify() const override;
  perfmodel::WorkProfile currentProfile() const override;

 private:
  std::vector<std::uint32_t> keys_;
  std::vector<std::uint64_t> bins_;
  std::vector<std::uint64_t> expected_;
};

/// msort — bottom-up merge sort (barrier operations).
class MergeSort final : public MicroKernel {
 public:
  std::string tag() const override { return "msort"; }
  std::string fullName() const override { return "Generic merge sort"; }
  std::string properties() const override { return "Barrier operations"; }
  void setup(std::size_t n, std::uint64_t seed) override;
  void runSerial() override;
  void runParallel(TaskPool& pool) override;
  bool verify() const override;
  perfmodel::WorkProfile currentProfile() const override;

 private:
  std::vector<double> data_, scratch_, original_;
};

/// nbody — all-pairs gravitational accelerations (irregular accesses).
class NBody final : public MicroKernel {
 public:
  std::string tag() const override { return "nbody"; }
  std::string fullName() const override { return "N-body calculation"; }
  std::string properties() const override {
    return "Irregular memory accesses";
  }
  void setup(std::size_t n, std::uint64_t seed) override;
  void runSerial() override;
  void runParallel(TaskPool& pool) override;
  bool verify() const override;
  perfmodel::WorkProfile currentProfile() const override;

 private:
  void accelerate(std::size_t begin, std::size_t end);
  std::vector<double> px_, py_, pz_, mass_;
  std::vector<double> ax_, ay_, az_;
};

/// amcd — Markov Chain Monte Carlo (embarrassingly parallel compute).
class Amcd final : public MicroKernel {
 public:
  std::string tag() const override { return "amcd"; }
  std::string fullName() const override {
    return "Markov Chain Monte Carlo method";
  }
  std::string properties() const override {
    return "Embarrassingly parallel: peak compute performance";
  }
  void setup(std::size_t n, std::uint64_t seed) override;
  void runSerial() override;
  void runParallel(TaskPool& pool) override;
  bool verify() const override;
  perfmodel::WorkProfile currentProfile() const override;

 private:
  double chain(std::uint64_t seed, std::size_t steps) const;
  std::size_t samples_ = 0;
  std::uint64_t seed_ = 0;
  double estimate_ = 0.0;
};

/// spvm — CSR sparse matrix-vector multiply with skewed rows (imbalance).
class Spvm final : public MicroKernel {
 public:
  std::string tag() const override { return "spvm"; }
  std::string fullName() const override {
    return "Sparse Vector-Matrix Multiplication";
  }
  std::string properties() const override { return "Load imbalance"; }
  void setup(std::size_t n, std::uint64_t seed) override;
  void runSerial() override;
  void runParallel(TaskPool& pool) override;
  bool verify() const override;
  perfmodel::WorkProfile currentProfile() const override;

 private:
  void multiplyRows(std::size_t rowBegin, std::size_t rowEnd);
  std::size_t rows_ = 0;
  std::vector<std::size_t> rowPtr_;
  std::vector<std::uint32_t> cols_;
  std::vector<double> vals_, x_, y_, expected_;
};

}  // namespace tibsim::kernels
