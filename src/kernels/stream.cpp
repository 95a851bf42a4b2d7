#include "tibsim/kernels/stream.hpp"

#include <cmath>

#include "tibsim/common/assert.hpp"
#include "tibsim/perfmodel/execution_model.hpp"

namespace tibsim::kernels {

using perfmodel::AccessPattern;

std::string toString(StreamOp op) {
  switch (op) {
    case StreamOp::Copy: return "Copy";
    case StreamOp::Scale: return "Scale";
    case StreamOp::Add: return "Add";
    case StreamOp::Triad: return "Triad";
  }
  return "unknown";
}

double streamBytesPerElement(StreamOp op) {
  switch (op) {
    case StreamOp::Copy:
    case StreamOp::Scale: return 16.0;
    case StreamOp::Add:
    case StreamOp::Triad: return 24.0;
  }
  return 0.0;
}

double streamFlopsPerElement(StreamOp op) {
  switch (op) {
    case StreamOp::Copy: return 0.0;
    case StreamOp::Scale:
    case StreamOp::Add: return 1.0;
    case StreamOp::Triad: return 2.0;
  }
  return 0.0;
}

void StreamBenchmark::setup(std::size_t n, double scalar) {
  TIB_REQUIRE(n > 0);
  scalar_ = scalar;
  a_.assign(n, 1.0);
  b_.assign(n, 2.0);
  c_.assign(n, 0.0);
}

void StreamBenchmark::runSerial(StreamOp op) {
  TIB_REQUIRE(!a_.empty());
  const std::size_t n = a_.size();
  switch (op) {
    case StreamOp::Copy:
      for (std::size_t i = 0; i < n; ++i) c_[i] = a_[i];
      break;
    case StreamOp::Scale:
      for (std::size_t i = 0; i < n; ++i) b_[i] = scalar_ * c_[i];
      break;
    case StreamOp::Add:
      for (std::size_t i = 0; i < n; ++i) c_[i] = a_[i] + b_[i];
      break;
    case StreamOp::Triad:
      for (std::size_t i = 0; i < n; ++i) a_[i] = b_[i] + scalar_ * c_[i];
      break;
  }
}

void StreamBenchmark::runParallel(StreamOp op, TaskPool& pool) {
  TIB_REQUIRE(!a_.empty());
  pool.parallelFor(a_.size(), [this, op](std::size_t lo, std::size_t hi,
                                         std::size_t) {
    switch (op) {
      case StreamOp::Copy:
        for (std::size_t i = lo; i < hi; ++i) c_[i] = a_[i];
        break;
      case StreamOp::Scale:
        for (std::size_t i = lo; i < hi; ++i) b_[i] = scalar_ * c_[i];
        break;
      case StreamOp::Add:
        for (std::size_t i = lo; i < hi; ++i) c_[i] = a_[i] + b_[i];
        break;
      case StreamOp::Triad:
        for (std::size_t i = lo; i < hi; ++i) a_[i] = b_[i] + scalar_ * c_[i];
        break;
    }
  });
}

bool StreamBenchmark::verify(StreamOp op) const {
  // After the canonical STREAM sequence starting from a=1, b=2, c=0 the
  // checks below hold; verify only the array the op wrote.
  for (std::size_t i = 0; i < a_.size(); ++i) {
    double expected = 0.0, got = 0.0;
    switch (op) {
      case StreamOp::Copy: expected = a_[i]; got = c_[i]; break;
      case StreamOp::Scale: expected = scalar_ * c_[i]; got = b_[i]; break;
      case StreamOp::Add: expected = a_[i] + b_[i]; got = c_[i]; break;
      case StreamOp::Triad: expected = b_[i] + scalar_ * c_[i]; got = a_[i];
        break;
    }
    if (std::abs(expected - got) > 1e-12) return false;
  }
  return true;
}

perfmodel::WorkProfile StreamBenchmark::profile(StreamOp op) const {
  const auto n = static_cast<double>(a_.size());
  return {streamFlopsPerElement(op) * n, streamBytesPerElement(op) * n,
          AccessPattern::Streaming, 1.0, 1.0, 0.0};
}

double StreamBenchmark::modeledBandwidth(const arch::Platform& platform,
                                         StreamOp op, int cores,
                                         double frequencyHz) {
  const perfmodel::ExecutionModel model;
  // Two-operand ops run marginally faster than three-operand ones on most
  // memory controllers; read-modify-write ratios differ slightly per op.
  double opFactor = 1.0;
  switch (op) {
    case StreamOp::Copy: opFactor = 1.00; break;
    case StreamOp::Scale: opFactor = 0.985; break;
    case StreamOp::Add: opFactor = 1.03; break;
    case StreamOp::Triad: opFactor = 1.02; break;
  }
  return opFactor * model.achievableBandwidth(platform,
                                              AccessPattern::Streaming, cores,
                                              frequencyHz);
}

}  // namespace tibsim::kernels
