#pragma once
// Deterministic stall report — an all-ranks-blocked world becomes a
// per-rank wait-state report instead of a bare "deadlock" one-liner.
//
// When the event queue drains while fibers are still blocked, the engine
// throws ContractError, and that error always carries one line per blocked
// rank — rank, node, communicator, pending operation, peer, tag, the
// simulated time it has been blocked, and the rank's most recent retained
// trace spans — sorted by rank, derived from simulated state only, so the
// report is byte-stable across runs and can be pinned in tests. It is
// built only when a world deadlocks, from wait state every run keeps.

#include <cstdint>
#include <string>
#include <vector>

#include "tibsim/obs/span.hpp"

namespace tibsim::obs {

/// One blocked rank's wait state at the moment the world stalled.
struct StallEntry {
  int rank = -1;
  int node = -1;
  std::uint64_t comm = 0;    ///< communicator id of the pending op
  std::string op;            ///< "recv", "rendezvous-send", ...
  int peer = -1;             ///< kAnySource wildcards render as '*'
  int tag = 0;               ///< kAnyTag wildcards render as '*'
  double blockedSince = 0.0;  ///< sim time the rank entered the wait
  std::vector<TraceSpan> lastSpans;  ///< most recent retained spans
};

/// Render the report, sorted by rank. `now` is the stalled world's
/// simulated time (every rank's blocked duration is now - blockedSince).
std::string formatStallReport(const std::vector<StallEntry>& entries,
                              double now);

}  // namespace tibsim::obs
