#pragma once
// Per-layer probes: isolated timings of sim, mpi, net and obs entry points.

#include "support.hpp"
#include "tibsim/common/json.hpp"

namespace perfbench {

/// Run every probe once, under a "probes" span with one child span per
/// probe; returns {metric name: value} in the per-layer metric units.
tibsim::json::Value runProbes(SpanLog& spans);

}  // namespace perfbench
