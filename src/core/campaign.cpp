#include "tibsim/core/campaign.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <type_traits>

#include "counter_fields.hpp"
#include "tibsim/common/assert.hpp"
#include "tibsim/common/table.hpp"
#include "tibsim/core/result_cache.hpp"
#include "tibsim/mpi/collective_verify.hpp"
#include "tibsim/obs/trace_sink.hpp"

namespace tibsim::core {

namespace {

constexpr const char* kPaperLine =
    "(reproduction of \"Supercomputing with Commodity CPUs: Are Mobile SoCs "
    "Ready for HPC?\", SC'13)";

void writeFile(const std::filesystem::path& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  TIB_REQUIRE_MSG(out.good(), "cannot open " + path.string());
  out << text;
  TIB_REQUIRE_MSG(out.good(), "cannot write " + path.string());
}

// Run-summary wall-clock columns only ("wall s", campaign total). These are
// host measurements the summary prints for the operator; they never enter
// the byte-identical JSON/CSV artefacts (see resultDocument), which is what
// the wall-clock lint rule protects.
using HostTimePoint = std::chrono::steady_clock::time_point;  // tibsim-lint: allow(wall-clock)

double secondsSince(HostTimePoint start) {
  const auto now = std::chrono::steady_clock::now();  // tibsim-lint: allow(wall-clock)
  return std::chrono::duration<double>(now - start).count();
}

// One record's listed fields as a JSON object of numbers.
template <typename Record, typename Fields>
json::Value fieldsJson(const Record& record, Fields fields) {
  json::Value out = json::Value::object();
  fields(record, [&out](const char* name, auto value) {
    out[name] = static_cast<double>(value);
  });
  return out;
}

// One record as a two-line CSV: the listed names, then the values as an
// ostream prints them.
template <typename Record, typename Fields>
std::string fieldsCsv(const Record& record, Fields fields) {
  std::string header;
  std::ostringstream values;
  fields(record, [&](const char* name, auto value) {
    if (!header.empty()) {
      header += ',';
      values << ',';
    }
    header += name;
    values << value;
  });
  return header + '\n' + values.str() + '\n';
}

}  // namespace

std::string resultDocument(const Experiment& experiment, std::uint64_t seed,
                           const ResultSet& results,
                           const sim::EngineStats* engine,
                           const obs::RunCounters* counters) {
  json::Value doc = json::Value::object();
  doc["schema"] = "socbench-result-v1";
  doc["experiment"] = experiment.name();
  doc["paperRef"] = experiment.paperRef();
  doc["title"] = experiment.title();
  doc["seed"] = static_cast<double>(seed);
  if (engine != nullptr) {
    // Deterministic counters only: hostSeconds is a wall-clock measurement
    // and would break byte-identical output across runs and --jobs.
    doc["engine"] = fieldsJson(*engine, fields::engine);
  }
  if (counters != nullptr) {
    // World traffic + trace accounting. Everything here is a function of
    // the simulated runs (counts, modelled bytes, sink bookkeeping), so it
    // stays byte-identical across runs and --jobs.
    json::Value worlds = fieldsJson(*counters, fields::worlds);
    if (counters->collectiveChecks > 0)
      worlds[fields::collectiveChecks] =
          static_cast<double>(counters->collectiveChecks);
    doc["worlds"] = std::move(worlds);
    // Link-utilization telemetry (net/fabric.hpp): per-kind busy time,
    // bytes, transfer counts and queueing-delay histograms. Recorded at
    // canonical fabric occupancy points only, so the object is
    // byte-identical across runs and --jobs values.
    if (counters->links.any()) {
      json::Value links = json::Value::object();
      fields::linkKinds(counters->links,
                        [&links](const char* name,
                                 const obs::LinkKindCounters& kind) {
        json::Value out = fieldsJson(kind, fields::linkKind);
        json::Value delay = json::Value::array();
        for (int b = 0; b < obs::DurationHistogram::kBuckets; ++b) {
          const std::uint64_t count =
              kind.queueDelay.counts[static_cast<std::size_t>(b)];
          if (count == 0) continue;
          json::Value bucket = json::Value::array();
          bucket.push(obs::DurationHistogram::bucketLowerSeconds(b));
          bucket.push(static_cast<double>(count));
          delay.push(std::move(bucket));
        }
        out[fields::queueDelay] = std::move(delay);
        links[name] = std::move(out);
      });
      doc["links"] = std::move(links);
    }
    // Sim-time critical path (obs/critical_path.hpp): the dependency chain
    // bounding the slowest world, decomposed by segment. endRank is -1 when
    // the experiment ran more than one world.
    const obs::CriticalPath& path = counters->criticalPath;
    if (path.edges > 0 || path.lengthSeconds() > 0.0)
      doc["criticalPath"] = fieldsJson(path, fields::criticalPath);
  }
  doc["results"] = ResultSet::toJson(results);
  return doc.dump(2) + "\n";
}

CampaignResult runCampaign(const CampaignOptions& options,
                           std::ostream& out) {
  const std::vector<const Experiment*> selected =
      ExperimentRegistry::global().match(options.patterns);
  std::string patternText;
  for (const std::string& p : options.patterns)
    patternText += (patternText.empty() ? "" : " ") + p;
  TIB_REQUIRE_MSG(!selected.empty(), "no experiment matches: " + patternText);

  int jobs = options.jobs;
  if (jobs < 1)
    jobs = static_cast<int>(std::clamp<std::size_t>(
        std::thread::hardware_concurrency(), 1, TaskPool::kMaxThreads));

  // Trace-mode override for the whole campaign (restored on return): every
  // WorldConfig built below captures the default trace mode at
  // construction.
  std::optional<obs::ScopedTraceMode> traceOverride;
  if (!options.traceMode.empty())
    traceOverride.emplace(obs::parseTraceMode(options.traceMode));

  // Collective-verifier override (--verify-collectives): WorldConfig
  // snapshots the default, so every world built below inherits it; off
  // keeps the process-wide default.
  std::optional<mpi::ScopedVerifyCollectives> verifyOverride;
  if (options.verifyCollectives) verifyOverride.emplace(true);

  CampaignResult campaign;
  campaign.jobs = jobs;
  campaign.seed = options.seed;
  campaign.runs.resize(selected.size());

  // Result cache. Keys are computed after the scoped overrides above, so
  // the resolved-effective settings key identically whether they came from
  // a flag or the process-wide default. Two things disable the cache
  // entirely: --trace-export, because timeline artefacts are written while
  // an experiment runs and a replayed cell cannot reproduce them; and an
  // executable that cannot be read, because its fingerprint of 0 would be
  // shared by every binary on the host.
  std::optional<ResultCache> cache;
  std::vector<std::string> keys(selected.size());
  const char* cacheDisabled = nullptr;  // why a requested cache is off
  if (!options.cacheDir.empty()) {
    if (!options.traceExportDir.empty())
      cacheDisabled =
          "--trace-export artefacts are written during the run and cannot "
          "replay";
    else if (executableFingerprint() == 0)
      cacheDisabled = "cannot read the executable to fingerprint it";
    else
      cache.emplace(options.cacheDir);
  }
  if (cache) {
    CacheKeyInputs base;
    base.seed = options.seed;
    base.traceMode = obs::toString(obs::defaultTraceMode());
    base.verifyCollectives = mpi::defaultVerifyCollectives();
    base.platformSpecHash = hashPlatformSpecs();
    base.binaryFingerprint = executableFingerprint();
    for (std::size_t i = 0; i < selected.size(); ++i) {
      CacheKeyInputs inputs = base;
      inputs.experiment = selected[i]->name();
      inputs.versionTag = selected[i]->versionTag();
      keys[i] = cacheKey(inputs);
    }
  }

  if (options.summary) {
    out << "=== socbench: " << selected.size() << " experiment"
        << (selected.size() == 1 ? "" : "s") << ", jobs=" << jobs
        << ", seed=" << options.seed
        << ", trace-mode=" << obs::toString(obs::defaultTraceMode())
        << " ===\n"
        << kPaperLine << "\n\n";
  }

  // One pool shared by the campaign level and every experiment's inner
  // sweep; TaskPool::parallelFor is nested-safe. jobs == 1 runs serial.
  TaskPool pool(static_cast<std::size_t>(jobs));
  const auto campaignStart = std::chrono::steady_clock::now();  // tibsim-lint: allow(wall-clock)

  // Probe: hits replay immediately, misses queue for computation. The
  // canonical selection order is preserved throughout — runs[i] is filled
  // wherever its bytes come from, so emission below never reorders.
  std::vector<std::size_t> missing;
  for (std::size_t i = 0; i < selected.size(); ++i) {
    const Experiment& experiment = *selected[i];
    ExperimentRun& run = campaign.runs[i];
    run.name = experiment.name();
    run.paperRef = experiment.paperRef();
    run.title = experiment.title();
    if (cache) {
      if (std::optional<CachedRun> hit = cache->load(run.name, keys[i])) {
        run.cells = hit->cells;
        run.engine = hit->engine;  // deterministic fields; host-only stay 0
        run.counters = std::move(hit->counters);
        run.results = std::move(hit->results);
        run.json = std::move(hit->resultJson);
        run.fromCache = true;
        ++campaign.cacheHits;
        continue;
      }
    }
    missing.push_back(i);
  }
  campaign.cacheMisses = missing.size();

  pool.parallelFor(missing.size(), [&](std::size_t m) {
    const std::size_t i = missing[m];
    const Experiment& experiment = *selected[i];
    ExperimentRun& run = campaign.runs[i];
    const std::uint64_t seed = experimentSeed(options.seed, run.name);
    ExperimentContext ctx(seed, jobs > 1 ? &pool : nullptr);
    ctx.setTraceExportDir(options.traceExportDir);
    const auto start = std::chrono::steady_clock::now();  // tibsim-lint: allow(wall-clock)
    run.results = experiment.run(ctx);
    run.wallSeconds = secondsSince(start);
    run.cells = ctx.cellsExecuted();
    run.engine = ctx.engineStats();
    run.counters = ctx.runCounters();
    run.json = resultDocument(
        experiment, seed, run.results,
        run.engine.eventsDispatched > 0 ? &run.engine : nullptr,
        run.counters.worlds > 0 ? &run.counters : nullptr);
    if (cache) {
      CachedRun entry;
      entry.cells = run.cells;
      entry.resultJson = run.json;  // a hit reads the counters back from it
      cache->store(run.name, keys[i], entry);
    }
  });
  campaign.wallSeconds = secondsSince(campaignStart);
  if (cache) cache->writeIndex();

  if (!options.jsonDir.empty()) {
    const std::filesystem::path dir(options.jsonDir);
    std::filesystem::create_directories(dir);
    for (const ExperimentRun& run : campaign.runs)
      writeFile(dir / (run.name + ".json"), run.json);
  }
  if (!options.csvDir.empty()) {
    const std::filesystem::path dir(options.csvDir);
    std::filesystem::create_directories(dir);
    for (const ExperimentRun& run : campaign.runs) {
      for (const auto& [stem, csv] : run.results.toCsvFiles())
        writeFile(dir / (run.name + "__" + stem + ".csv"), csv);
      // Deterministic counters only — no hostSeconds (see resultDocument).
      if (run.engine.eventsDispatched > 0)
        writeFile(dir / (run.name + "__engine.csv"),
                  fieldsCsv(run.engine, fields::engine));
      if (run.counters.worlds > 0)
        writeFile(dir / (run.name + "__worlds.csv"),
                  fieldsCsv(run.counters, fields::worlds));
      if (run.counters.links.any()) {
        // Link telemetry: per-kind scalar table, then (after a blank line)
        // the nonzero queueing-delay buckets. Doubles go through
        // json::formatNumber so the artefact is byte-identical across runs
        // and --jobs values.
        std::string csv = "kind";
        fields::linkKind(run.counters.links.uplink,
                         [&csv](const char* name, auto) {
                           csv += ',';
                           csv += name;
                         });
        csv += '\n';
        fields::linkKinds(run.counters.links,
                          [&csv](const char* name,
                                 const obs::LinkKindCounters& kind) {
          csv += name;
          fields::linkKind(kind, [&csv](const char*, auto value) {
            csv += ',';
            if constexpr (std::is_floating_point_v<decltype(value)>)
              csv += json::formatNumber(value);
            else
              csv += std::to_string(value);
          });
          csv += '\n';
        });
        bool delayHeader = false;
        fields::linkKinds(run.counters.links,
                          [&](const char* name,
                              const obs::LinkKindCounters& kind) {
          for (int b = 0; b < obs::DurationHistogram::kBuckets; ++b) {
            const std::uint64_t count =
                kind.queueDelay.counts[static_cast<std::size_t>(b)];
            if (count == 0) continue;
            if (!delayHeader) {
              csv += "\nkind,bucketLowerSeconds,count\n";
              delayHeader = true;
            }
            csv += name;
            csv += ',';
            csv += json::formatNumber(
                obs::DurationHistogram::bucketLowerSeconds(b));
            csv += ',';
            csv += std::to_string(count);
            csv += '\n';
          }
        });
        writeFile(dir / (run.name + "__links.csv"), csv);
      }
    }
  }

  if (options.compat) {
    for (const ExperimentRun& run : campaign.runs) {
      out << "=== " << run.paperRef << ": " << run.title << " ===\n"
          << kPaperLine << "\n\n"
          << run.results.renderText() << '\n';
    }
  }

  if (options.summary) {
    TextTable table({"experiment", "paper ref", "wall s", "cells", "tables",
                     "charts", "metrics"});
    for (const ExperimentRun& run : campaign.runs) {
      table.addRow({run.name, run.paperRef, fmt(run.wallSeconds, 2),
                    std::to_string(run.cells),
                    std::to_string(run.results.tables().size()),
                    std::to_string(run.results.charts().size()),
                    std::to_string(run.results.metrics().size())});
    }
    out << "-- run summary --\n"
        << table.render() << '\n'
        << "campaign wall-clock: " << fmt(campaign.wallSeconds, 2)
        << " s with " << jobs << " job" << (jobs == 1 ? "" : "s") << '\n';
    if (cache) {
      out << "result cache: " << campaign.cacheHits << " hit"
          << (campaign.cacheHits == 1 ? "" : "s") << ", "
          << campaign.cacheMisses << " miss"
          << (campaign.cacheMisses == 1 ? "" : "es") << " (" << cache->dir()
          << ")\n";
    } else if (cacheDisabled != nullptr) {
      out << "result cache disabled: " << cacheDisabled << '\n';
    }
    // Engine block: only experiments that ran discrete-event simulations.
    bool anyEngine = false;
    TextTable engineTable({"experiment", "events", "switches", "peak procs",
                           "queue hwm", "sim s", "host s/sim s"});
    for (const ExperimentRun& run : campaign.runs) {
      if (run.engine.eventsDispatched == 0) continue;
      anyEngine = true;
      engineTable.addRow({run.name,
                          std::to_string(run.engine.eventsDispatched),
                          std::to_string(run.engine.contextSwitches),
                          std::to_string(run.engine.peakLiveProcesses),
                          std::to_string(run.engine.queueHighWater),
                          fmt(run.engine.simSeconds, 2),
                          fmt(run.engine.hostSecondsPerSimSecond(), 4)});
    }
    if (anyEngine) {
      out << "-- engine --\n" << engineTable.render() << '\n';
    }
    // Critical-path block: where the slowest dependency chain spent its
    // simulated time (compute / protocol / wire / residual wait).
    bool anyPath = false;
    TextTable pathTable({"experiment", "compute s", "send s", "recv s",
                         "link s", "wait s", "hops", "end rank"});
    for (const ExperimentRun& run : campaign.runs) {
      const obs::CriticalPath& path = run.counters.criticalPath;
      if (path.edges == 0 && path.lengthSeconds() == 0.0) continue;
      anyPath = true;
      pathTable.addRow({run.name, fmt(path.computeSeconds, 4),
                        fmt(path.sendSeconds, 4), fmt(path.recvSeconds, 4),
                        fmt(path.linkSeconds, 4), fmt(path.waitSeconds, 4),
                        std::to_string(path.edges),
                        path.endRank >= 0 ? std::to_string(path.endRank)
                                          : std::string("-")});
    }
    if (anyPath) {
      out << "-- critical path (sim time) --\n" << pathTable.render() << '\n';
    }
    // Worlds block: message traffic and trace accounting, plus the fiber
    // stack high-water marks (host-dependent, so summary-only — never in
    // the serialised artefacts).
    bool anyWorlds = false;
    TextTable worldsTable({"experiment", "worlds", "messages", "spans rec",
                           "spans kept", "trace KiB", "pool reuse",
                           "pool alloc", "stack KiB", "stack hwm KiB"});
    for (const ExperimentRun& run : campaign.runs) {
      if (run.counters.worlds == 0) continue;
      anyWorlds = true;
      const auto toKiB = [](std::size_t bytes) {
        return fmt(static_cast<double>(bytes) / 1024.0, 1);
      };
      worldsTable.addRow(
          {run.name, std::to_string(run.counters.worlds),
           std::to_string(run.counters.messages),
           std::to_string(run.counters.spansRecorded),
           std::to_string(run.counters.spansRetained),
           toKiB(run.counters.traceMemoryPeakBytes),
           std::to_string(run.counters.payloadPoolReuses),
           std::to_string(run.counters.payloadPoolAllocations),
           toKiB(run.engine.fiberStackBytes),
           toKiB(run.engine.stackHighWaterBytes)});
    }
    if (anyWorlds) {
      out << "-- worlds (trace-mode="
          << obs::toString(obs::defaultTraceMode()) << ") --\n"
          << worldsTable.render() << '\n';
    }
    // Collective-verifier roll-up: reaching this line means no experiment
    // threw a mismatch, so the count is always paired with 0 mismatches
    // (CI pins this exact line over the full campaign).
    if (options.verifyCollectives || mpi::defaultVerifyCollectives()) {
      std::uint64_t totalChecks = 0;
      for (const ExperimentRun& run : campaign.runs)
        totalChecks += run.counters.collectiveChecks;
      out << "collective verify: " << totalChecks
          << " checks, 0 mismatches\n";
    }
    if (!options.jsonDir.empty())
      out << "JSON written to " << options.jsonDir << "/\n";
    if (!options.csvDir.empty())
      out << "CSV written to " << options.csvDir << "/\n";
    if (!options.traceExportDir.empty())
      out << "trace exports written to " << options.traceExportDir << "/\n";
  }
  return campaign;
}

namespace {

/// from_chars-backed numeric flag parsing: the whole token must be one
/// in-range number. Returns false — no exception, no std::stoi abort — on
/// anything else ("banana", "12x", overflow, empty).
template <typename T>
bool parseNumber(const std::string& text, T& out) {
  const char* first = text.data();
  const char* last = text.data() + text.size();
  T value{};
  const auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec != std::errc() || ptr != last || first == last) return false;
  out = value;
  return true;
}

int listCommand(const std::vector<std::string>& patterns, std::ostream& out) {
  const std::vector<const Experiment*> selected =
      ExperimentRegistry::global().match(patterns);
  TextTable table({"name", "paper ref", "title"});
  for (const Experiment* experiment : selected)
    table.addRow(
        {experiment->name(), experiment->paperRef(), experiment->title()});
  out << table.render() << selected.size() << " experiment"
      << (selected.size() == 1 ? "" : "s") << " registered\n";
  return selected.empty() ? 1 : 0;
}

void printUsage(std::ostream& out) {
  out << "socbench — registry-driven campaign driver for the tibsim "
         "evaluation suite\n\n"
         "usage:\n"
         "  socbench list [glob...]\n"
         "  socbench run [glob...] [--json DIR] [--csv DIR] [--jobs N]\n"
         "               [--seed S] [--cache DIR]\n"
         "               [--trace-mode full|sampled|aggregate]\n"
         "               [--trace-export DIR] [--verify-collectives]\n"
         "               [--compat] [--no-summary]\n\n"
         "Globs match experiment names ('fig0?', 'ablation_*'); no glob "
         "selects every experiment.\n"
         "Flags accept both '--flag value' and '--flag=value'; a value may "
         "not be empty.\n"
         "--jobs N runs experiments and their cells on N worker threads "
         "(0 = hardware concurrency, at most "
      << TaskPool::kMaxThreads << ").\n"
         "--cache DIR keys every experiment cell by a content hash "
         "(experiment + version tag, platform spec bytes, seed, resolved\n"
         "trace/verify options, binary fingerprint): hits "
         "replay their JSON/CSV byte-identically from DIR, misses are\n"
         "computed and stored atomically. Any ingredient change — a rebuilt "
         "binary, an edited Table-1 number — is an automatic miss.\n"
         "--trace-mode bounds traced worlds' span memory: 'full' keeps "
         "every span, 'sampled' a deterministic per-rank reservoir,\n"
         "'aggregate' streaming per-rank histograms only (O(ranks), the "
         "choice at scale).\n"
         "--trace-export DIR writes the traced jobs' timelines as tool-"
         "ready artefacts (Chrome trace_event JSON for chrome://tracing/\n"
         "Perfetto, Paraver .prv, per-rank breakdown CSV). Timeline "
         "formats need retained spans (full/sampled mode); aggregate mode\n"
         "still exports the exact per-rank breakdown CSV.\n"
         "A world whose event queue drains with ranks still blocked fails "
         "with a per-rank wait-state report (rank, pending op, peer,\n"
         "blocked since, last retained spans).\n"
         "--verify-collectives arms the runtime collective-matching "
         "verifier: every collective entry stamps its traffic with a\n"
         "(communicator, kind, op, sequence, count) tuple and any rank "
         "matching a disagreeing stamp fails with a deterministic report\n"
         "naming both ranks, both tuples and the call sites — the dynamic "
         "cross-check for tibsim_lint's collective-match rule.\n"
         "--compat prints each selected experiment's text report — its "
         "tables and ASCII charts — instead of the run summary.\n";
}

}  // namespace

int socbenchMain(int argc, const char* const* argv) {
  // argv[0] is the program name, as main() receives it; skip it. Split
  // "--flag=value" into "--flag value" so both spellings parse the same.
  std::vector<std::string> args;
  for (int i = std::min(argc, 1); i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    if (arg.size() > 2 && arg[0] == '-' && arg[1] == '-' &&
        eq != std::string::npos) {
      args.push_back(arg.substr(0, eq));
      args.push_back(arg.substr(eq + 1));
    } else {
      args.push_back(arg);
    }
  }
  if (args.empty() || args[0] == "--help" || args[0] == "-h") {
    printUsage(std::cout);
    return args.empty() ? 2 : 0;
  }

  const std::string command = args[0];
  CampaignOptions options;
  for (std::size_t i = 1; i < args.size(); ++i) {
    const std::string& arg = args[i];
    // An empty value ("--json=") is refused like a missing one: taken as
    // given, it would silently turn that output off.
    const auto flagValue = [&](const char* flag) -> const std::string* {
      if (arg != flag) return nullptr;
      if (++i >= args.size() || args[i].empty()) {
        std::cerr << "socbench: " << flag << " needs a value\n";
        return nullptr;
      }
      return &args[i];
    };
    if (arg == "--compat") {
      options.compat = true;
      options.summary = false;
    } else if (arg == "--no-summary") {
      options.summary = false;
    } else if (arg == "--json") {
      const std::string* v = flagValue("--json");
      if (v == nullptr) return 2;
      options.jsonDir = *v;
    } else if (arg == "--csv") {
      const std::string* v = flagValue("--csv");
      if (v == nullptr) return 2;
      options.csvDir = *v;
    } else if (arg == "--jobs") {
      const std::string* v = flagValue("--jobs");
      if (v == nullptr) return 2;
      if (!parseNumber(*v, options.jobs) || options.jobs < 0 ||
          options.jobs > static_cast<int>(TaskPool::kMaxThreads)) {
        std::cerr << "socbench: --jobs expects an integer up to "
                  << TaskPool::kMaxThreads << ", got \"" << *v << "\"\n";
        return 2;
      }
    } else if (arg == "--seed") {
      const std::string* v = flagValue("--seed");
      if (v == nullptr) return 2;
      if (!parseNumber(*v, options.seed)) {
        std::cerr << "socbench: --seed expects an unsigned integer, got \""
                  << *v << "\"\n";
        return 2;
      }
    } else if (arg == "--cache") {
      const std::string* v = flagValue("--cache");
      if (v == nullptr) return 2;
      options.cacheDir = *v;
    } else if (arg == "--trace-mode") {
      const std::string* v = flagValue("--trace-mode");
      if (v == nullptr) return 2;
      options.traceMode = *v;
    } else if (arg == "--trace-export") {
      const std::string* v = flagValue("--trace-export");
      if (v == nullptr) return 2;
      options.traceExportDir = *v;
    } else if (arg == "--verify-collectives") {
      options.verifyCollectives = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "socbench: unknown flag " << arg << "\n";
      printUsage(std::cerr);
      return 2;
    } else {
      options.patterns.push_back(arg);
    }
  }

  if (command == "list") return listCommand(options.patterns, std::cout);
  if (command != "run") {
    std::cerr << "socbench: unknown command \"" << command << "\"\n";
    printUsage(std::cerr);
    return 2;
  }
  try {
    runCampaign(options, std::cout);
  } catch (const std::exception& error) {
    std::cerr << "socbench: " << error.what() << "\n";
    return 1;
  }
  return 0;
}

}  // namespace tibsim::core
