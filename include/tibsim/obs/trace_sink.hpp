#pragma once
// The bounded-memory trace sink — the observability layer's answer to
// "record every span" not surviving 2048 ranks.
//
// A TraceSink consumes the span stream a traced run produces. It always
// keeps exact per-(rank, kind) duration totals (O(ranks) memory), so the
// Paraver-style per-rank breakdown is exact in every mode; the modes differ
// only in which raw spans are retained for timeline export:
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
// Sampling is seeded explicitly (the sink's seed, fed from the campaign
// RNG), never from global state, so artefacts are byte-identical across
// runs and --jobs values.

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "tibsim/common/assert.hpp"
#include "tibsim/common/rng.hpp"
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

/// Process-wide default mode used by WorldConfig; Full until set (tracing
/// itself stays opt-in per world — the mode only says how a traced world
/// records).
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

/// The one trace sink: after the exact totals, the mode decides what a span
/// feeds — the span vector (full), the rank's reservoir (sampled) or its
/// histogram row (aggregate). The other modes' containers stay empty.
class TraceSink {
 public:
  explicit TraceSink(TraceMode mode = TraceMode::Full,
                     std::size_t reservoirPerRank = 512,
                     std::uint64_t seed = 0)
      : mode_(mode),
        perRank_(reservoirPerRank == 0 ? 1 : reservoirPerRank),
        seed_(seed) {}

  /// Consume one span. Inline: this is the one call every traced simMPI
  /// event makes, and in aggregate mode (the always-on campaign setting)
  /// it is a handful of adds.
  void record(const TraceSpan& span) {
    TIB_REQUIRE(span.end >= span.begin);
    ++recorded_;
    if (span.rank < 0) {
      if (mode_ == TraceMode::Full) spans_.push_back(span);
      return;
    }
    const auto r = static_cast<std::size_t>(span.rank);
    if (r >= totals_.size()) totals_.resize(r + 1);
    const auto k = static_cast<std::size_t>(span.kind);
    const double duration = span.duration();
    totals_[r][k] += duration;
    switch (mode_) {
      case TraceMode::Full:
        spans_.push_back(span);
        return;
      case TraceMode::Sampled:
        sample(r, span);
        return;
      case TraceMode::Aggregate:
        if (r >= grid_.size()) grid_.resize(r + 1);
        grid_[r][k].record(duration);
        return;
    }
  }
  /// Forget every span and total; the configuration stays.
  void clear() { *this = TraceSink(mode_, perRank_, seed_); }

  TraceMode mode() const { return mode_; }

  /// Spans retained for timeline export: everything (full), the per-rank
  /// reservoirs in rank-major, arrival order (sampled), none (aggregate).
  std::vector<TraceSpan> retainedSpans() const;

  /// Total spans seen — identical in every mode (exactness witness).
  std::uint64_t spansRecorded() const { return recorded_; }
  std::size_t spansRetained() const;

  /// Approximate resident footprint of this sink, in bytes. Deterministic
  /// (derived from counts and capacities, not from the allocator).
  std::size_t memoryBytes() const;

  /// Exact per-rank time breakdown over [0, wallClock]; otherSeconds is
  /// clamped at zero when spans overlap or exceed the wall clock.
  std::vector<RankSummary> summarize(int ranks, double wallClock) const;

  /// Fraction of total rank-time spent outside compute.
  double nonComputeFraction(int ranks, double wallClock) const;

  /// Per-(rank, kind) duration histogram; nullptr unless mode()==Aggregate
  /// and the rank was seen.
  const DurationHistogram* histogram(int rank, SpanKind kind) const;

 private:
  /// Algorithm R for rank `r`'s reservoir (see trace_sink.cpp).
  void sample(std::size_t r, const TraceSpan& span);

  struct Reservoir {
    std::vector<TraceSpan> spans;
    Rng rng{0};
    std::uint64_t seen = 0;
    bool primed = false;
  };

  TraceMode mode_;
  std::size_t perRank_;  ///< sampled mode: K spans kept per rank
  std::uint64_t seed_;   ///< sampled mode: reservoir RNG seed
  std::uint64_t recorded_ = 0;
  /// Exact per-(rank, kind) seconds, grown on demand by rank.
  std::vector<std::array<double, kSpanKinds>> totals_;
  std::vector<TraceSpan> spans_;    ///< full mode
  std::vector<Reservoir> reservoirs_;  ///< sampled mode, by rank
  /// Aggregate mode: per-(rank, kind) histograms, grown on demand by rank.
  std::vector<std::array<DurationHistogram, kSpanKinds>> grid_;
};

}  // namespace tibsim::obs
