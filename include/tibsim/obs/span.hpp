#pragma once
// The span vocabulary of the observability layer: what a Paraver-style
// timeline is made of. One TraceSpan is one contiguous interval of one
// rank's simulated time attributed to a SpanKind. The types live here (not
// in mpi/) so sinks and exporters need no dependency on the simMPI runtime.

#include <cstddef>
#include <cstdint>
#include <string>

namespace tibsim::obs {

enum class SpanKind {
  Compute,  ///< application work charged via compute()
  Send,     ///< sender-side protocol CPU time
  Recv,     ///< receiver-side protocol CPU time
  Wait,     ///< blocked in recv with no matching message
};

inline constexpr int kSpanKinds = 4;

std::string toString(SpanKind kind);

struct TraceSpan {
  int rank = 0;
  SpanKind kind = SpanKind::Compute;
  double begin = 0.0;
  double end = 0.0;
  int peer = -1;           ///< other rank for Send/Recv, -1 otherwise
  std::size_t bytes = 0;   ///< message size for Send/Recv
  /// Communicator the traffic ran on (0 = world); lets a timeline separate
  /// e.g. halo traffic on a dup()ed communicator from CFL reductions.
  std::uint64_t comm = 0;

  double duration() const { return end - begin; }
};

/// Per-rank time breakdown over [0, wallClock] — the first thing a
/// scalability post-mortem looks at.
struct RankSummary {
  int rank = 0;
  double computeSeconds = 0.0;
  double sendSeconds = 0.0;
  double recvSeconds = 0.0;
  double waitSeconds = 0.0;
  double otherSeconds = 0.0;  ///< wallclock not covered by spans (>= 0)
};

}  // namespace tibsim::obs
