#pragma once
// Host-side helpers for the benchmark runner: the monotonic clock, the
// in-memory span log, process memory and CPU readings, and a byte digest of
// artefact directories. Host clocks are this program's whole purpose, so
// the wall-clock rule is waived for every file of the runner.
// tibsim-lint: allowfile(wall-clock)

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "tibsim/common/json.hpp"

namespace perfbench {

/// CLOCK_MONOTONIC seconds: the clock Python's time.monotonic() reads, so
/// run.py can subtract its own spawn timestamps from the runner's marks.
double monotonicSeconds();

/// CPU seconds consumed by every thread of this process so far.
double processCpuSeconds();

/// Peak resident set (VmHWM) of this process in KiB; 0 when unreadable.
std::uint64_t peakRssKiB();

/// Spans recorded around the runner's own calls into tibsim. Kept in
/// memory and serialised once, when the run ends. Between operations that
/// are not traced the log records nothing and hands out index -1.
class SpanLog {
 public:
  /// Spans begun from now on belong to operation `op`, and are recorded
  /// only when `record` is set.
  void setOp(int op, bool record) {
    op_ = op;
    record_ = record;
  }
  /// Open a span; returns its index (the handle for end() and children).
  /// `detail` names what the span worked on (an experiment, a probe).
  int begin(const std::string& name, int parent = -1,
            const std::string& detail = "");
  void end(int index);
  /// Record an interval measured elsewhere (rank-body marks).
  int add(const std::string& name, double start, double end, int parent);

  tibsim::json::Value toJson() const;

 private:
  struct Span {
    std::string name;
    std::string detail;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
    int op = -1;
  };
  bool record_ = false;
  int op_ = -1;
  std::vector<Span> spans_;
};

/// RAII span: begin on construction, end on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const std::string& name, int parent = -1,
             const std::string& detail = "")
      : log_(log), index_(log.begin(name, parent, detail)) {}
  ~ScopedSpan() { log_.end(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int index() const { return index_; }

 private:
  SpanLog& log_;
  int index_;
};

/// FNV-1a 64 over every regular file below `dirs` (relative path, size and
/// bytes, in sorted path order), plus the total byte count.
struct TreeDigest {
  std::string hex;
  std::uint64_t bytes = 0;
};
TreeDigest digestTrees(const std::filesystem::path& base,
                       const std::vector<std::string>& dirs);

/// 16 lowercase hex digits.
std::string hex64(std::uint64_t value);

/// FNV-1a 64 over a double vector's shortest round-trip decimal forms: a
/// compact, exact fingerprint of per-rank outputs.
std::string digestNumbers(const std::vector<double>& values);

}  // namespace perfbench
