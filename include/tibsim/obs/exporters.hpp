#pragma once
// Trace exporters: serialise a span timeline (or its per-rank summary) into
// the formats a post-mortem actually uses. All output is deterministic —
// byte-identical for identical input — so exported artefacts can be diffed
// across runs and --jobs values.

#include <span>
#include <string>
#include <vector>

#include "tibsim/obs/span.hpp"

namespace tibsim::obs {

/// One line per span: rank,kind,begin,end,peer,bytes, header included.
std::string exportCsv(std::span<const TraceSpan> spans);

/// Chrome trace_event JSON ("X" complete events, ts/dur in microseconds,
/// tid = rank), loadable in chrome://tracing and Perfetto. All strings —
/// including the optional process name, which may contain quotes,
/// backslashes or control characters — are emitted through the
/// common/json.hpp document model, so the output is always valid JSON.
std::string exportChromeJson(std::span<const TraceSpan> spans);
/// Same, labelling pid 0 with `processName` via a process_name metadata
/// event (empty name = no metadata event).
std::string exportChromeJson(std::span<const TraceSpan> spans,
                             const std::string& processName);

/// Paraver-convertible .prv trace: header plus one state record per span
/// (1:cpu:appl:task:thread:begin:end:state, times in ns). State mapping:
/// Compute -> 1 (Running), Wait -> 3 (Waiting a message), Send -> 4
/// (Blocking send), Recv -> 5 (Immediate receive).
std::string exportPrv(std::span<const TraceSpan> spans, int ranks,
                      double wallClockSeconds);

/// Per-rank breakdown CSV: one row per rank with the per-kind second
/// totals — the O(ranks) artefact aggregate mode emits at scale.
std::string exportBreakdownCsv(const std::vector<RankSummary>& summaries);

}  // namespace tibsim::obs
