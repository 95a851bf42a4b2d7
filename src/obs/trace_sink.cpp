#include "tibsim/obs/trace_sink.hpp"

#include <algorithm>
#include <cmath>

#include "tibsim/common/assert.hpp"

namespace tibsim::obs {

std::string toString(SpanKind kind) {
  switch (kind) {
    case SpanKind::Compute: return "compute";
    case SpanKind::Send: return "send";
    case SpanKind::Recv: return "recv";
    case SpanKind::Wait: return "wait";
  }
  return "unknown";
}

const char* toString(TraceMode mode) {
  switch (mode) {
    case TraceMode::Full: return "full";
    case TraceMode::Sampled: return "sampled";
    case TraceMode::Aggregate: return "aggregate";
  }
  return "unknown";
}

TraceMode parseTraceMode(const std::string& name) {
  if (name == "full") return TraceMode::Full;
  if (name == "sampled") return TraceMode::Sampled;
  if (name == "aggregate") return TraceMode::Aggregate;
  TIB_REQUIRE_MSG(false, "unknown trace mode '" + name +
                             "' (expected 'full', 'sampled' or 'aggregate')");
  return TraceMode::Full;  // unreachable
}

namespace {

TraceMode& defaultModeSlot() {
  // Process-wide configuration, written from the host thread (CLI/
  // ScopedTraceMode) before any world runs and only snapshotted into
  // WorldConfig — never touched from inside a running world.
  static TraceMode slot = TraceMode::Full;  // tibsim-lint: allow(sim-static)
  return slot;
}

}  // namespace

TraceMode defaultTraceMode() { return defaultModeSlot(); }
void setDefaultTraceMode(TraceMode mode) { defaultModeSlot() = mode; }

// ---------------------------------------------------------------------------
// DurationHistogram
// ---------------------------------------------------------------------------

double DurationHistogram::bucketLowerSeconds(int bucket) {
  return std::exp2(static_cast<double>(bucket)) * 1e-9;
}

std::uint64_t DurationHistogram::total() const {
  std::uint64_t n = 0;
  for (const std::uint64_t c : counts) n += c;
  return n;
}

// ---------------------------------------------------------------------------
// TraceSink
// ---------------------------------------------------------------------------

/// Algorithm R per rank: the first K spans fill the reservoir; span number
/// n > K replaces a uniformly-chosen slot with probability K/n. Each rank
/// draws from its own RNG stream (seed mixed with the rank), and span
/// arrival order per rank is deterministic (the event loop is), so the
/// reservoir is a pure function of (seed, run) — identical across --jobs
/// values.
void TraceSink::sample(std::size_t r, const TraceSpan& span) {
  if (r >= reservoirs_.size()) reservoirs_.resize(r + 1);
  Reservoir& res = reservoirs_[r];
  if (!res.primed) {
    res.rng.reseed(seed_ ^ (0x9e3779b97f4a7c15ULL * (r + 1)));
    res.primed = true;
  }
  ++res.seen;
  if (res.spans.size() < perRank_) {
    res.spans.push_back(span);
    return;
  }
  const std::uint64_t slot = res.rng.nextBelow(res.seen);
  if (slot < perRank_) res.spans[static_cast<std::size_t>(slot)] = span;
}

std::vector<TraceSpan> TraceSink::retainedSpans() const {
  std::vector<TraceSpan> out = spans_;  // empty unless full mode
  for (const Reservoir& r : reservoirs_)
    out.insert(out.end(), r.spans.begin(), r.spans.end());
  return out;
}

std::size_t TraceSink::spansRetained() const {
  std::size_t n = spans_.size();
  for (const Reservoir& r : reservoirs_) n += r.spans.size();
  return n;
}

std::size_t TraceSink::memoryBytes() const {
  // The containers of the other modes are empty and have never allocated,
  // so summing all of them is the active mode's footprint.
  std::size_t bytes = totals_.capacity() * sizeof(totals_[0]) +
                      spans_.capacity() * sizeof(TraceSpan) +
                      reservoirs_.capacity() * sizeof(Reservoir) +
                      grid_.capacity() * sizeof(grid_[0]);
  for (const Reservoir& r : reservoirs_)
    bytes += r.spans.capacity() * sizeof(TraceSpan);
  return bytes;
}

const DurationHistogram* TraceSink::histogram(int rank, SpanKind kind) const {
  if (rank < 0 || static_cast<std::size_t>(rank) >= grid_.size())
    return nullptr;
  return &grid_[static_cast<std::size_t>(rank)][static_cast<std::size_t>(kind)];
}

std::vector<RankSummary> TraceSink::summarize(int ranks,
                                              double wallClock) const {
  TIB_REQUIRE(ranks >= 1);
  std::vector<RankSummary> summaries(static_cast<std::size_t>(ranks));
  for (int r = 0; r < ranks; ++r) {
    RankSummary& s = summaries[static_cast<std::size_t>(r)];
    s.rank = r;
    if (static_cast<std::size_t>(r) < totals_.size()) {
      const auto& t = totals_[static_cast<std::size_t>(r)];
      s.computeSeconds = t[static_cast<int>(SpanKind::Compute)];
      s.sendSeconds = t[static_cast<int>(SpanKind::Send)];
      s.recvSeconds = t[static_cast<int>(SpanKind::Recv)];
      s.waitSeconds = t[static_cast<int>(SpanKind::Wait)];
    }
    // Spans may overlap (a Recv span covers the same interval a Wait span
    // ended at) or exceed the wall clock; never report negative "other".
    s.otherSeconds = std::max(
        0.0, wallClock - s.computeSeconds - s.sendSeconds - s.recvSeconds -
                 s.waitSeconds);
  }
  return summaries;
}

double TraceSink::nonComputeFraction(int ranks, double wallClock) const {
  if (wallClock <= 0.0) return 0.0;
  const auto summaries = summarize(ranks, wallClock);
  double compute = 0.0;
  for (const auto& s : summaries) compute += s.computeSeconds;
  const double total = wallClock * static_cast<double>(ranks);
  return 1.0 - compute / total;
}

}  // namespace tibsim::obs
