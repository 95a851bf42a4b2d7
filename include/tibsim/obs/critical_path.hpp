#pragma once
// Sim-time critical-path attribution.
//
// Each rank carries a running attribution of the longest dependency chain
// that ends at its current point in simulated time. The chain is extended
// by compute and protocol CPU locally, and hops between ranks whenever a
// receive actually waited for the matching message (the sender's chain,
// plus the wire time, bounded the receiver). At world teardown the chain
// of the last-finishing rank IS the world's critical path, decomposed
// into compute / send / recv / link segments with the residual blocked
// time reported as wait. The piggyback state is O(1) per rank and every
// update happens at canonical delivery points, so the result is
// byte-identical across runs and --jobs values.

#include <cstdint>

namespace tibsim::obs {

/// Per-rank running chain attribution, piggybacked on messages. Fixed
/// size (40 B) so it rides in the in-flight message slab cheaply.
struct PathSnapshot {
  double computeSeconds = 0.0;
  double sendSeconds = 0.0;
  double recvSeconds = 0.0;
  double linkSeconds = 0.0;
  std::uint64_t edges = 0;

  double lengthSeconds() const {
    return computeSeconds + sendSeconds + recvSeconds + linkSeconds;
  }
};

/// Decomposition of the world-bounding dependency chain.
struct CriticalPath {
  double computeSeconds = 0.0;  ///< application compute on the path
  double sendSeconds = 0.0;     ///< sender-side protocol CPU on the path
  double recvSeconds = 0.0;     ///< receiver-side protocol CPU on the path
  double linkSeconds = 0.0;     ///< wire + switch time of path-forming hops
  double waitSeconds = 0.0;     ///< residual blocked time (end rank)
  std::uint64_t edges = 0;      ///< cross-rank hops the path takes
  int endRank = -1;             ///< rank whose finish bounds the world

  double lengthSeconds() const {
    return computeSeconds + sendSeconds + recvSeconds + linkSeconds +
           waitSeconds;
  }

  /// Fold another world's path into an experiment-level roll-up. Segment
  /// sums stay meaningful across worlds; endRank only survives while the
  /// roll-up covers a single world (an accumulator that already holds any
  /// path drops to -1 and stays there).
  void accumulate(const CriticalPath& other) {
    endRank = (edges == 0 && lengthSeconds() == 0.0) ? other.endRank : -1;
    computeSeconds += other.computeSeconds;
    sendSeconds += other.sendSeconds;
    recvSeconds += other.recvSeconds;
    linkSeconds += other.linkSeconds;
    waitSeconds += other.waitSeconds;
    edges += other.edges;
  }
};

}  // namespace tibsim::obs
