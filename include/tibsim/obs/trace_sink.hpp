#pragma once
// Bounded-memory trace sinks — the observability layer's answer to "record
// every span" not surviving 2048 ranks.
//
// A TraceSink consumes the span stream a traced run produces. Every sink
// keeps exact per-(rank, kind) duration totals (O(ranks) memory), so the
// Paraver-style per-rank breakdown is always exact; the modes differ only
// in which raw spans are retained for timeline export:
//
//  * Full      — every span, today's behaviour. Memory grows with the
//                span count (~32 B/span: the 2048-rank memory bottleneck).
//  * Sampled   — a deterministic reservoir of K spans per rank
//                (Algorithm R, per-rank RNG streams derived from a seed),
//                so a representative timeline survives at O(ranks * K).
//  * Aggregate — no spans at all; per-(rank, kind) log2 duration
//                histograms + counters. O(ranks) memory, the only mode
//                that is feasible and cheap at any scale.
//
// Sampling is seeded explicitly (SinkConfig::seed, fed from the campaign
// RNG), never from global state, so artefacts are byte-identical across
// runs and --jobs values.

#include <array>
#include <cstddef>
#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "tibsim/common/assert.hpp"
#include "tibsim/obs/span.hpp"

namespace tibsim::obs {

enum class TraceMode {
  Full,       ///< retain every span (unbounded memory)
  Sampled,    ///< deterministic reservoir of K spans per rank
  Aggregate,  ///< streaming histograms + counters only, O(ranks)
};

/// "full", "sampled" or "aggregate".
const char* toString(TraceMode mode);

/// Parse "full"/"sampled"/"aggregate". Throws ContractError otherwise.
TraceMode parseTraceMode(const std::string& name);

/// Process-wide default mode used by WorldConfig. Initialised once from the
/// TIBSIM_TRACE_MODE environment variable; Full when unset or unrecognised
/// (tracing itself stays opt-in per world — the mode only says how a traced
/// world records).
TraceMode defaultTraceMode();
void setDefaultTraceMode(TraceMode mode);

/// RAII override of the process-wide default mode (campaigns, tests).
class ScopedTraceMode {
 public:
  explicit ScopedTraceMode(TraceMode mode) : previous_(defaultTraceMode()) {
    setDefaultTraceMode(mode);
  }
  ~ScopedTraceMode() { setDefaultTraceMode(previous_); }
  ScopedTraceMode(const ScopedTraceMode&) = delete;
  ScopedTraceMode& operator=(const ScopedTraceMode&) = delete;

 private:
  TraceMode previous_;
};

struct SinkConfig {
  TraceMode mode = TraceMode::Full;
  std::size_t reservoirPerRank = 512;  ///< sampled mode: K spans kept/rank
  std::uint64_t seed = 0;  ///< sampled mode: reservoir RNG seed
};

/// Streaming histogram of span durations in power-of-two buckets from 1 ns
/// upward (bucket i covers [2^i, 2^(i+1)) ns; the last bucket absorbs the
/// tail). Fixed size, so a (rank, kind) grid of these stays O(ranks).
struct DurationHistogram {
  static constexpr int kBuckets = 36;  ///< 1 ns .. ~68 s
  std::array<std::uint64_t, kBuckets> counts{};

  void record(double seconds) { ++counts[static_cast<std::size_t>(bucketFor(seconds))]; }
  /// Bucket index for a duration. Inline because it sits on the per-span
  /// aggregate-mode hot path: floor(log2(ns)) straight from the exponent
  /// bits — ns > 1 here, so the value is a positive normal double (or
  /// +inf, whose biased exponent lands in the clamped tail) and the biased
  /// exponent IS the floor, exact at every power-of-two boundary.
  static int bucketFor(double seconds) {
    const double ns = seconds * 1e9;
    if (!(ns > 1.0)) return 0;  // sub-nanosecond, zero, NaN
    std::uint64_t bits = 0;
    std::memcpy(&bits, &ns, sizeof bits);
    const int bucket = static_cast<int>((bits >> 52) & 0x7ffU) - 1023;
    return bucket >= kBuckets ? kBuckets - 1 : bucket;
  }
  /// Inclusive lower edge of a bucket, in seconds.
  static double bucketLowerSeconds(int bucket);
  std::uint64_t total() const;
};

class TraceSink {
 public:
  virtual ~TraceSink() = default;
  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  /// Consume one span. Exact totals are always updated; retention depends
  /// on the mode. Inline: this is the one call every traced simMPI event
  /// makes, and the base bookkeeping is a handful of adds. Aggregate mode —
  /// the always-on campaign setting — is handled here too (the sink
  /// installs its histogram grid via aggGrid_), so the per-span cost in
  /// that mode is pure arithmetic with no virtual dispatch.
  void record(const TraceSpan& span) {
    TIB_REQUIRE(span.end >= span.begin);
    ++recorded_;
    if (span.rank >= 0) {
      const auto r = static_cast<std::size_t>(span.rank);
      if (r >= totals_.size()) totals_.resize(r + 1);
      const auto k = static_cast<std::size_t>(span.kind);
      const double duration = span.duration();
      totals_[r].seconds[k] += duration;
      if (aggGrid_ != nullptr) {
        if (r >= aggGrid_->size()) aggGrid_->resize(r + 1);
        (*aggGrid_)[r][k].record(duration);
        return;  // aggregate retains no spans
      }
    } else if (aggGrid_ != nullptr) {
      return;
    }
    onRecord(span);
  }
  void clear();

  TraceMode mode() const { return mode_; }

  /// Spans retained for timeline export: everything (full), the per-rank
  /// reservoirs in rank-major, arrival order (sampled), none (aggregate).
  virtual std::vector<TraceSpan> retainedSpans() const = 0;

  /// Total spans seen — identical in every mode (exactness witness).
  std::uint64_t spansRecorded() const { return recorded_; }
  virtual std::size_t spansRetained() const = 0;

  /// Approximate resident footprint of this sink, in bytes. Deterministic
  /// (derived from counts and capacities, not from the allocator).
  std::size_t memoryBytes() const { return totalsBytes() + retainedBytes(); }

  /// Exact per-rank time breakdown over [0, wallClock]; otherSeconds is
  /// clamped at zero when spans overlap or exceed the wall clock.
  std::vector<RankSummary> summarize(int ranks, double wallClock) const;

  /// Fraction of total rank-time spent outside compute.
  double nonComputeFraction(int ranks, double wallClock) const;

  /// Per-(rank, kind) duration histogram; nullptr unless mode()==Aggregate
  /// or the rank was never seen.
  virtual const DurationHistogram* histogram(int rank, SpanKind kind) const {
    (void)rank;
    (void)kind;
    return nullptr;
  }

  static std::unique_ptr<TraceSink> create(const SinkConfig& config);

 protected:
  explicit TraceSink(TraceMode mode) : mode_(mode) {}
  virtual void onRecord(const TraceSpan& span) = 0;
  virtual void onClear() = 0;
  virtual std::size_t retainedBytes() const = 0;

  /// Per-(rank, kind) histogram grid, grown on demand by rank.
  using HistogramGrid = std::vector<std::array<DurationHistogram, kSpanKinds>>;
  /// Installed by the aggregate sink so record() can update the grid
  /// inline; every other mode leaves it null and takes the virtual path.
  HistogramGrid* aggGrid_ = nullptr;

 private:
  std::size_t totalsBytes() const;

  struct RankTotals {
    std::array<double, kSpanKinds> seconds{};
  };

  TraceMode mode_;
  std::uint64_t recorded_ = 0;
  std::vector<RankTotals> totals_;  ///< indexed by rank, grown on demand
};

}  // namespace tibsim::obs
