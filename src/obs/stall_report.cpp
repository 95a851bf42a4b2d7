#include "tibsim/obs/stall_report.hpp"

#include <algorithm>
#include <cstdlib>
#include <sstream>

#include "tibsim/common/json.hpp"

namespace tibsim::obs {

namespace {

bool readStallReportFromEnv() {
  const char* env = std::getenv("TIBSIM_STALL_REPORT");
  if (env == nullptr) return false;
  const std::string value(env);
  return value == "1" || value == "on" || value == "true";
}

bool& stallReportSlot() {
  // Process-wide default, mutated only from the host thread between runs
  // (socbench flag parsing, ScopedStallReport in tests) — never from
  // inside a running world. tibsim-lint: allow(sim-static)
  static bool slot = readStallReportFromEnv();
  return slot;
}

/// Shortest-round-trip decimal, shared with the JSON emitters so the
/// report is byte-stable wherever it is rendered.
std::string seconds(double value) { return json::formatNumber(value); }

}  // namespace

bool defaultStallReport() { return stallReportSlot(); }
void setDefaultStallReport(bool on) { stallReportSlot() = on; }

std::string formatStallReport(const std::vector<StallEntry>& entries,
                              double now) {
  std::vector<StallEntry> sorted = entries;
  std::sort(sorted.begin(), sorted.end(),
            [](const StallEntry& a, const StallEntry& b) {
              return a.rank < b.rank;
            });
  std::ostringstream out;
  out << "stall report: " << sorted.size() << " rank(s) blocked at t="
      << seconds(now) << "s\n";
  for (const StallEntry& e : sorted) {
    out << "  rank " << e.rank << " node " << e.node << ": " << e.op
        << "(peer=";
    if (e.peer < 0)
      out << '*';
    else
      out << e.peer;
    out << ", tag=";
    if (e.tag < 0)
      out << '*';
    else
      out << e.tag;
    out << ") comm=" << e.comm << " blocked " << seconds(now - e.blockedSince)
        << "s since t=" << seconds(e.blockedSince) << "s\n";
    if (e.lastSpans.empty()) continue;
    out << "    recent:";
    for (const TraceSpan& span : e.lastSpans) {
      out << ' ' << toString(span.kind) << '[' << seconds(span.begin)
          << "s.." << seconds(span.end) << 's';
      if (span.peer >= 0) out << " peer=" << span.peer;
      out << ']';
    }
    out << '\n';
  }
  return out.str();
}

}  // namespace tibsim::obs
