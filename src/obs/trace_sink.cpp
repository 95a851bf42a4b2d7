#include "tibsim/obs/trace_sink.hpp"

#include <cmath>
#include <cstdlib>
#include <cstring>

#include "tibsim/common/assert.hpp"
#include "tibsim/common/rng.hpp"

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

TraceMode readModeFromEnv() {
  if (const char* env = std::getenv("TIBSIM_TRACE_MODE")) {
    const std::string name(env);
    if (name == "sampled") return TraceMode::Sampled;
    if (name == "aggregate") return TraceMode::Aggregate;
  }
  return TraceMode::Full;
}

TraceMode& defaultModeSlot() {
  // Process-wide configuration, written from the host thread (CLI/env/
  // ScopedTraceMode) before any world runs and only snapshotted into
  // WorldConfig — never touched from inside a running world.
  static TraceMode slot = readModeFromEnv();  // tibsim-lint: allow(sim-static)
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
// TraceSink base: exact O(ranks) totals shared by every mode
// ---------------------------------------------------------------------------

void TraceSink::clear() {
  recorded_ = 0;
  totals_.clear();
  onClear();
}

std::vector<RankSummary> TraceSink::summarize(int ranks,
                                              double wallClock) const {
  TIB_REQUIRE(ranks >= 1);
  std::vector<RankSummary> summaries(static_cast<std::size_t>(ranks));
  for (int r = 0; r < ranks; ++r) {
    RankSummary& s = summaries[static_cast<std::size_t>(r)];
    s.rank = r;
    if (static_cast<std::size_t>(r) < totals_.size()) {
      const RankTotals& t = totals_[static_cast<std::size_t>(r)];
      s.computeSeconds = t.seconds[static_cast<int>(SpanKind::Compute)];
      s.sendSeconds = t.seconds[static_cast<int>(SpanKind::Send)];
      s.recvSeconds = t.seconds[static_cast<int>(SpanKind::Recv)];
      s.waitSeconds = t.seconds[static_cast<int>(SpanKind::Wait)];
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

std::size_t TraceSink::totalsBytes() const {
  return totals_.capacity() * sizeof(RankTotals);
}

// ---------------------------------------------------------------------------
// The three sinks
// ---------------------------------------------------------------------------

namespace {

class FullSink final : public TraceSink {
 public:
  FullSink() : TraceSink(TraceMode::Full) {}

  std::vector<TraceSpan> retainedSpans() const override { return spans_; }
  std::size_t spansRetained() const override { return spans_.size(); }

 protected:
  void onRecord(const TraceSpan& span) override { spans_.push_back(span); }
  void onClear() override { spans_.clear(); }
  std::size_t retainedBytes() const override {
    return spans_.capacity() * sizeof(TraceSpan);
  }

 private:
  std::vector<TraceSpan> spans_;
};

/// Algorithm R per rank: the first K spans fill the reservoir; span number
/// n > K replaces a uniformly-chosen slot with probability K/n. Each rank
/// draws from its own RNG stream (seed mixed with the rank), and span
/// arrival order per rank is deterministic (the event loop is), so the
/// reservoir is a pure function of (seed, run) — identical across --jobs
/// values.
class SampledSink final : public TraceSink {
 public:
  SampledSink(std::size_t perRank, std::uint64_t seed)
      : TraceSink(TraceMode::Sampled),
        perRank_(perRank == 0 ? 1 : perRank),
        seed_(seed) {}

  std::vector<TraceSpan> retainedSpans() const override {
    std::vector<TraceSpan> out;
    out.reserve(spansRetained());
    for (const Reservoir& r : ranks_)
      out.insert(out.end(), r.spans.begin(), r.spans.end());
    return out;
  }

  std::size_t spansRetained() const override {
    std::size_t n = 0;
    for (const Reservoir& r : ranks_) n += r.spans.size();
    return n;
  }

 protected:
  void onRecord(const TraceSpan& span) override {
    if (span.rank < 0) return;
    const auto r = static_cast<std::size_t>(span.rank);
    if (r >= ranks_.size()) ranks_.resize(r + 1);
    Reservoir& res = ranks_[r];
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

  void onClear() override { ranks_.clear(); }

  std::size_t retainedBytes() const override {
    std::size_t bytes = ranks_.capacity() * sizeof(Reservoir);
    for (const Reservoir& r : ranks_)
      bytes += r.spans.capacity() * sizeof(TraceSpan);
    return bytes;
  }

 private:
  struct Reservoir {
    std::vector<TraceSpan> spans;
    Rng rng{0};
    std::uint64_t seen = 0;
    bool primed = false;
  };

  std::size_t perRank_;
  std::uint64_t seed_;
  std::vector<Reservoir> ranks_;
};

class AggregateSink final : public TraceSink {
 public:
  AggregateSink() : TraceSink(TraceMode::Aggregate) { aggGrid_ = &grid_; }

  std::vector<TraceSpan> retainedSpans() const override { return {}; }
  std::size_t spansRetained() const override { return 0; }

  const DurationHistogram* histogram(int rank, SpanKind kind) const override {
    if (rank < 0 || static_cast<std::size_t>(rank) >= grid_.size())
      return nullptr;
    return &grid_[static_cast<std::size_t>(rank)]
                 [static_cast<std::size_t>(kind)];
  }

 protected:
  // record() updates the installed grid inline; nothing reaches onRecord.
  void onRecord(const TraceSpan&) override {}

  void onClear() override { grid_.clear(); }

  std::size_t retainedBytes() const override {
    return grid_.capacity() * sizeof(grid_[0]);
  }

 private:
  HistogramGrid grid_;
};

}  // namespace

std::unique_ptr<TraceSink> TraceSink::create(const SinkConfig& config) {
  switch (config.mode) {
    case TraceMode::Full: return std::make_unique<FullSink>();
    case TraceMode::Sampled:
      return std::make_unique<SampledSink>(config.reservoirPerRank,
                                           config.seed);
    case TraceMode::Aggregate: return std::make_unique<AggregateSink>();
  }
  return std::make_unique<FullSink>();  // unreachable
}

}  // namespace tibsim::obs
