#pragma once
// The socbench experiment framework: every reproduced figure, table and
// ablation study is an Experiment registered in the ExperimentRegistry and
// run through one campaign driver (bench/socbench) instead of a standalone
// main(). An experiment receives an ExperimentContext — deterministic seed,
// shared TaskPool for independent sweep cells, cell accounting — and
// returns a ResultSet.

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "tibsim/common/result_set.hpp"
#include "tibsim/common/rng.hpp"
#include "tibsim/common/thread_pool.hpp"
#include "tibsim/obs/run_counters.hpp"
#include "tibsim/sim/engine_stats.hpp"

namespace tibsim::core {

/// Per-run services handed to Experiment::run. Results must not depend on
/// the number of worker threads: parallelFor cells write into pre-sized
/// slots and every stochastic component seeds from rng()/seed().
class ExperimentContext {
 public:
  explicit ExperimentContext(std::uint64_t seed, TaskPool* pool = nullptr)
      : seed_(seed), pool_(pool) {}

  /// The experiment's own deterministic seed (campaign seed mixed with the
  /// experiment name, so experiments never share RNG streams).
  std::uint64_t seed() const { return seed_; }

  /// An independent RNG stream for this experiment; distinct `stream`
  /// values give uncorrelated generators within one experiment.
  Rng rng(std::uint64_t stream = 0) const {
    return Rng(seed_ ^ (0x6a09e667f3bcc909ULL * (stream + 1)));
  }

  /// Run fn(i) for i in [0, n): the parallel-sweep primitive for
  /// independent cells (platform x DVFS point, application x node count).
  /// Runs on the campaign TaskPool when one is attached, serially
  /// otherwise; either way fn must only write to its own slot i.
  void parallelFor(std::size_t n,
                   const std::function<void(std::size_t)>& fn) const;

  /// Total sweep cells executed through parallelFor, for the run summary.
  std::size_t cellsExecuted() const { return cells_.load(); }

  /// Engine counters accumulated so far across every recorded world.
  sim::EngineStats engineStats() const;

  /// Traffic/trace accounting accumulated across every recorded world.
  obs::RunCounters runCounters() const;

  /// Directory for exported trace artefacts (--trace-export). Empty means
  /// export is disabled; experiments should skip rendering exports then.
  void setTraceExportDir(std::string dir) { traceExportDir_ = std::move(dir); }
  const std::string& traceExportDir() const { return traceExportDir_; }
  bool traceExportEnabled() const { return !traceExportDir_.empty(); }

  /// Write one exported trace artefact (Chrome JSON, Paraver .prv,
  /// breakdown CSV, ...) to <traceExportDir>/<filename>. Creates the
  /// directory on first use; thread-safe, so traced-job observers inside
  /// parallelFor cells can call it directly. Returns false (and writes
  /// nothing) when export is disabled.
  bool exportArtefact(const std::string& filename,
                      const std::string& content) const;

  /// Fold one world's mpi::WorldStats into this experiment's totals:
  /// engine counters plus the message/trace accounting. Call once per
  /// MpiWorld run (typically from a parallelFor cell with
  /// `result.stats`). Thread-safe, and totals do not depend on --jobs:
  /// records are re-sorted into a canonical order before the
  /// (rounding-sensitive) double sums are taken. Templated so core/ needs
  /// no mpi/ dependency; any type with the WorldStats field set works.
  template <typename WorldStatsT>
  void recordWorldStats(const WorldStatsT& stats) const {
    WorldRecord world;
    world.engine = stats.engine;
    obs::RunCounters& counters = world.counters;
    counters.worlds = 1;
    counters.messages = stats.messageCount;
    counters.collectiveChecks = stats.collectiveChecks;
    counters.payloadBytes = stats.payloadBytes;
    counters.wireBytes = stats.wireBytes;
    counters.spansRecorded = stats.traceSpansRecorded;
    counters.spansRetained = stats.traceSpansRetained;
    counters.traceMemoryPeakBytes = stats.traceMemoryBytes;
    counters.payloadInlineMessages = stats.payloadInlineMessages;
    counters.payloadPooledMessages = stats.payloadPooledMessages;
    counters.payloadPoolReuses = stats.payloadPoolReuses;
    counters.payloadPoolAllocations = stats.payloadPoolAllocations;
    counters.payloadPoolReturns = stats.payloadPoolReturns;
    counters.payloadPoolTrimmedBuffers = stats.payloadPoolTrimmedBuffers;
    counters.payloadPoolLiveHighWater = stats.payloadPoolLiveHighWater;
    counters.links = stats.linkStats;
    counters.criticalPath = stats.criticalPath;
    record(std::move(world));
  }

 private:
  /// One recorded world.
  struct WorldRecord {
    sim::EngineStats engine;
    obs::RunCounters counters;
  };
  /// Recorded worlds, in the order a --jobs 1 run records them (see
  /// parallelFor).
  using Records = std::vector<WorldRecord>;
  void record(WorldRecord&& world) const;
  /// Where a record made on the calling thread goes: the buffer of the
  /// parallelFor cell it is running, or records_ outside any cell.
  Records& recordsHere() const;

  /// The parallelFor cell the calling thread is running, if any.
  static thread_local const ExperimentContext* cellOwner_;
  static thread_local Records* cellRecords_;

  std::uint64_t seed_;
  TaskPool* pool_;
  std::string traceExportDir_;
  mutable std::atomic<std::size_t> cells_{0};
  mutable std::mutex recordsMutex_;
  mutable Records records_;
  mutable std::mutex exportMutex_;
};

/// One reproduced artefact (figure / table / ablation / campaign).
/// Implementations are stateless: run() may be called concurrently on
/// distinct contexts.
class Experiment {
 public:
  virtual ~Experiment() = default;

  /// Registry id, e.g. "fig03" — what `socbench run <glob>` matches.
  virtual std::string name() const = 0;
  /// Where in the paper this artefact lives, e.g. "Figure 3".
  virtual std::string paperRef() const = 0;
  /// One-line human description for `socbench list` and report headings.
  virtual std::string title() const = 0;

  /// Cache-invalidation tag for the result cache (core/result_cache.hpp).
  /// The binary fingerprint already invalidates cached cells on any
  /// rebuild; this tag additionally lets an experiment declare a semantic
  /// version, so external inputs the fingerprint cannot see (a data file
  /// an experiment reads, a deliberate re-measurement) can force a miss
  /// without code changes. Bump it whenever the experiment's output
  /// changes for a reason the key's other ingredients do not capture.
  virtual std::string versionTag() const { return "1"; }

  virtual ResultSet run(ExperimentContext& ctx) const = 0;
};

/// Name-indexed collection of experiments. global() returns the process
/// registry with all built-in experiments registered (lazily, so static
/// library link order cannot drop registrations).
class ExperimentRegistry {
 public:
  ExperimentRegistry() = default;

  ExperimentRegistry(const ExperimentRegistry&) = delete;
  ExperimentRegistry& operator=(const ExperimentRegistry&) = delete;

  static ExperimentRegistry& global();

  /// Register an experiment; duplicate names are a contract violation.
  void add(std::unique_ptr<Experiment> experiment);

  std::size_t size() const { return experiments_.size(); }
  /// All registered names, sorted.
  std::vector<std::string> names() const;
  /// nullptr when no experiment has that exact name.
  const Experiment* find(const std::string& name) const;
  /// Experiments whose name matches any of the glob patterns ('*'/'?'),
  /// in sorted name order, each at most once. An empty pattern list
  /// matches everything.
  std::vector<const Experiment*> match(
      const std::vector<std::string>& patterns) const;

  /// Glob match with '*' (any run) and '?' (any one char).
  static bool globMatch(const std::string& pattern, const std::string& text);

 private:
  std::map<std::string, std::unique_ptr<Experiment>> experiments_;
};

/// Convenience base: experiments built from three strings and a run
/// function, the form every built-in registration uses.
class LambdaExperiment final : public Experiment {
 public:
  using RunFn = std::function<ResultSet(ExperimentContext&)>;

  LambdaExperiment(std::string name, std::string paperRef, std::string title,
                   RunFn run, std::string versionTag = "1")
      : name_(std::move(name)),
        paperRef_(std::move(paperRef)),
        title_(std::move(title)),
        run_(std::move(run)),
        versionTag_(std::move(versionTag)) {}

  std::string name() const override { return name_; }
  std::string paperRef() const override { return paperRef_; }
  std::string title() const override { return title_; }
  std::string versionTag() const override { return versionTag_; }
  ResultSet run(ExperimentContext& ctx) const override { return run_(ctx); }

 private:
  std::string name_;
  std::string paperRef_;
  std::string title_;
  RunFn run_;
  std::string versionTag_;
};

/// Mix a campaign-level seed with an experiment name into the
/// experiment-level seed (FNV-1a over the name, xor-folded with the seed).
std::uint64_t experimentSeed(std::uint64_t campaignSeed,
                             const std::string& name);

}  // namespace tibsim::core
