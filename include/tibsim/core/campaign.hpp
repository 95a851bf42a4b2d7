#pragma once
// The socbench campaign driver: selects experiments from the registry by
// glob, schedules them (and their inner sweep cells) on a shared TaskPool,
// emits per-experiment JSON/CSV artefacts, and prints the run summary with
// per-experiment wall-clock and cell-count instrumentation. The emitted
// JSON contains no timings, so campaign output is byte-identical across
// runs and job counts.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "tibsim/common/result_set.hpp"
#include "tibsim/core/experiment.hpp"

namespace tibsim::core {

struct CampaignOptions {
  std::vector<std::string> patterns;  ///< globs over names; empty = all
  int jobs = 1;                       ///< 0 means hardware concurrency
  std::uint64_t seed = 42;
  std::string jsonDir;  ///< write <dir>/<name>.json when non-empty
  std::string csvDir;   ///< write <dir>/<name>__<artefact>.csv when non-empty
  /// Export trace timelines from traced jobs (--trace-export): experiments
  /// that run traced worlds write Chrome-JSON / Paraver .prv / breakdown
  /// CSV artefacts into this directory via ExperimentContext::
  /// exportArtefact. Empty disables export (the default).
  std::string traceExportDir;
  bool compat = false;  ///< render each experiment's full text report
  bool summary = true;  ///< print the campaign run summary
  /// Trace recording mode for traced worlds: "" keeps the process-wide
  /// default (full unless a caller set it), else "full"/"sampled"/
  /// "aggregate".
  std::string traceMode;
  /// Arm the runtime collective-matching verifier (--verify-collectives):
  /// every collective entry stamps its traffic and any rank matching a
  /// stamp that disagrees with its own active collective throws a
  /// deterministic mismatch report (mpi/collective_verify.hpp). false
  /// keeps the process-wide default (off unless a caller set it).
  bool verifyCollectives = false;
  /// Content-addressed result cache directory (--cache). When non-empty,
  /// each experiment cell is keyed by core/result_cache.hpp's digest
  /// (experiment + version tag, platform spec bytes, seed, resolved
  /// trace/verify options, binary fingerprint); hits replay
  /// their JSON/CSV byte-identically from disk and misses are stored
  /// atomically after computing. Ignored (with a summary note) when
  /// --trace-export is set: exported timeline artefacts are written
  /// during the run and cannot be replayed. Empty disables caching.
  std::string cacheDir;
};

struct ExperimentRun {
  std::string name;
  std::string paperRef;
  std::string title;
  double wallSeconds = 0.0;  ///< instrumentation only; never serialised
  std::size_t cells = 0;     ///< sweep cells executed via ctx.parallelFor
  sim::EngineStats engine;   ///< engine counters over the experiment's sims
  obs::RunCounters counters;  ///< world traffic/trace accounting
  ResultSet results;
  std::string json;  ///< the deterministic result document
  /// True when this run replayed from the result cache instead of
  /// executing. The host-only engine fields (hostSeconds, stack
  /// high-water) are zero then: no engine ran here.
  bool fromCache = false;
};

struct CampaignResult {
  std::vector<ExperimentRun> runs;  ///< in selection (sorted-name) order
  double wallSeconds = 0.0;
  int jobs = 1;
  std::uint64_t seed = 42;
  std::size_t cacheHits = 0;    ///< cells replayed from the result cache
  std::size_t cacheMisses = 0;  ///< cells computed
};

/// Run every experiment matching options.patterns. Reports go to `out`;
/// throws ContractError when a pattern matches nothing.
CampaignResult runCampaign(const CampaignOptions& options, std::ostream& out);

/// The deterministic per-experiment JSON document (schema
/// "socbench-result-v1"): name, paper reference, title, seed, results, and
/// — when the pointers are non-null — the deterministic engine counters
/// (hostSeconds and the host-dependent stack high-water marks are
/// deliberately excluded) and the world traffic/trace accounting.
std::string resultDocument(const Experiment& experiment, std::uint64_t seed,
                           const ResultSet& results,
                           const sim::EngineStats* engine = nullptr,
                           const obs::RunCounters* counters = nullptr);

/// The `socbench` CLI:
///   socbench list [glob...]
///   socbench run [glob...] [--json DIR] [--csv DIR] [--jobs N] [--seed S]
///                [--cache DIR]
///                [--trace-mode full|sampled|aggregate]
///                [--trace-export DIR] [--verify-collectives]
///                [--compat] [--no-summary]
/// Flags accept both "--flag value" and "--flag=value". Numeric flags are
/// validated (a usage error, not an uncaught std::stoi abort). Returns the
/// process exit code.
int socbenchMain(int argc, const char* const* argv);

}  // namespace tibsim::core
