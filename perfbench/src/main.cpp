// tibsim_perfbench: the benchmark's runner process. run.py starts it once
// per role and reads the JSON document it writes to --out:
//
//   setup                       start-up probe: registry + fingerprint
//   campaign --experiments L    cold runCampaign operations, each with a
//                               fresh cache and fresh output directories
//   world --n N                 weak-scaled HPL worlds through runJob
//   probes                      per-layer probes (probes.cpp)
//
// Common flags: --seed S --seconds T --min-ops A --max-ops B --trace 0|1
// --work DIR --out FILE. Operations repeat until T seconds have passed and
// at least A ran, or until B ran. With --trace 1 every other operation is
// traced (spans around each public call) and the others run untraced, so
// one process yields both sides of the tracing overhead. A traced campaign
// operation is followed, outside its span, by probes of the cache read and
// emit paths on what it stored.
//
// This program calls only public tibsim API that no open ROADMAP item
// removes: it never names an execution backend or a stack size, and a
// world's shard count comes only from the environment run.py gives it.
// tibsim-lint: allowfile(wall-clock)

#include <atomic>
#include <charconv>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <iterator>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "probes.hpp"
#include "support.hpp"
#include "tibsim/apps/hpl.hpp"
#include "tibsim/cluster/cluster.hpp"
#include "tibsim/common/json.hpp"
#include "tibsim/core/campaign.hpp"
#include "tibsim/core/experiment.hpp"
#include "tibsim/core/result_cache.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using tibsim::json::Value;

constexpr int kHplNodes = 2048;  // tibidaboScaled(2048): 4,096 ranks
constexpr std::size_t kHplBlock = 512;

struct Args {
  std::string mode;
  std::vector<std::string> experiments;
  std::string work = ".";
  std::string out;
  std::uint64_t seed = 42;
  std::size_t n = 64000;
  double seconds = 10.0;
  int minOps = 1;
  int maxOps = 1000000;
  bool trace = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "tibsim_perfbench: " << why << "\n"
            << "usage: tibsim_perfbench setup|campaign|world|probes\n"
               "         [--experiments a,b] [--n N] [--seed S] "
               "[--seconds T]\n"
               "         [--min-ops A] [--max-ops B] [--trace 0|1] "
               "[--work DIR] [--out FILE]\n";
  std::exit(2);
}

template <typename T>
T number(const std::string& flag, const std::string& text) {
  T value{};
  const char* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), last, value);
  if (ec != std::errc() || ptr != last || text.empty())
    usage(flag + " expects a number, got \"" + text + "\"");
  return value;
}

Args parseArgs(int argc, char** argv) {
  if (argc < 2) usage("missing mode");
  Args args;
  args.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--experiments") {
      std::stringstream list(value);
      for (std::string name; std::getline(list, name, ',');)
        if (!name.empty()) args.experiments.push_back(name);
    } else if (flag == "--work") {
      args.work = value;
    } else if (flag == "--out") {
      args.out = value;
    } else if (flag == "--seed") {
      args.seed = number<std::uint64_t>(flag, value);
    } else if (flag == "--n") {
      args.n = number<std::size_t>(flag, value);
    } else if (flag == "--seconds") {
      args.seconds = number<double>(flag, value);
    } else if (flag == "--min-ops") {
      args.minOps = number<int>(flag, value);
    } else if (flag == "--max-ops") {
      args.maxOps = number<int>(flag, value);
    } else if (flag == "--trace") {
      args.trace = number<int>(flag, value) != 0;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (args.out.empty()) usage("--out is required");
  return args;
}

/// The --out file: one JSON line per operation as it completes, so a run's
/// memory does not grow with its operation count, then the closing
/// document line.
class Output {
 public:
  explicit Output(const std::string& path) : out_(path) {}

  void op(const Value& record) { out_ << "{\"op\":" << record.dump() << "}\n"; }

  int finish(Value doc) {
    doc["vmhwm_kib"] = peakRssKiB();
    doc["build_type"] = PERFBENCH_BUILD_TYPE;
    doc["compiler"] = "gcc " __VERSION__;
    out_ << doc.dump() << "\n";
    out_.flush();
    return out_.good() ? 0 : 1;
  }

 private:
  std::ofstream out_;
};

/// Operations run until `seconds` have passed and `minOps` ran, or until
/// `maxOps` ran.
bool moreOps(const Args& args, double loopStart, int ops) {
  if (ops >= args.maxOps) return false;
  return ops < args.minOps || monotonicSeconds() - loopStart < args.seconds;
}

Value engineJson(const tibsim::sim::EngineStats& e) {
  Value v = Value::object();
  v["events"] = e.eventsDispatched;
  v["switches"] = e.contextSwitches;
  v["processes"] = e.processesSpawned;
  v["queue_hwm"] = static_cast<unsigned long long>(e.queueHighWater);
  v["loop_s"] = e.hostSeconds;
  v["shard_windows"] = e.shardWindows;
  v["shard_parallel_windows"] = e.shardParallelWindows;
  v["shard_barrier_calls"] = e.shardBarrierCalls;
  v["shard_barrier_skips"] = e.shardBarrierSkips;
  v["shard_merge_records"] = e.shardMergeRecords;
  v["shard_barrier_s"] = e.shardBarrierHostSeconds;
  return v;
}

// --- campaign operations ---------------------------------------------------

/// What one campaign operation ran, from the counters the program returns.
struct CampaignTotals {
  tibsim::sim::EngineStats engine;
  tibsim::obs::RunCounters counters;
  double experimentsSeconds = 0.0;
  Value experimentSeconds = Value::object();

  explicit CampaignTotals(const tibsim::core::CampaignResult& result) {
    for (const tibsim::core::ExperimentRun& run : result.runs) {
      engine.accumulate(run.engine);
      counters.accumulate(run.counters);
      experimentsSeconds += run.wallSeconds;
      experimentSeconds[run.name] = run.wallSeconds;
    }
  }
};

std::string readFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

/// Probes of the cache read path (cacheKey, ResultCache::load) and the
/// emitters (resultDocument, ResultSet::toCsvFiles) on what one campaign
/// operation computed and stored in `cacheDir`, each call under its own
/// span. They run after the operation, outside its span and its wall time.
/// The re-read entries and re-rendered documents must match what
/// runCampaign produced; returns false when one does not.
bool probeCore(std::uint64_t seed, const fs::path& cacheDir,
               const tibsim::core::CampaignResult& result, SpanLog& spans) {
  namespace core = tibsim::core;
  const core::ExperimentRegistry& registry = core::ExperimentRegistry::global();

  // Keys come from the cache's own index: recomputing them would need the
  // execution-backend key ingredient, which the benchmark does not name.
  // The cacheKey span prices the digest over the ingredients it can name.
  std::map<std::string, std::string> keys;
  const Value index = Value::parse(readFile(cacheDir / "index.json"));
  if (const Value* entries = index.find("entries"))
    for (const Value& entry : entries->items())
      keys[entry.find("experiment")->asString()] =
          entry.find("key")->asString();

  bool consistent = true;
  const core::ResultCache cache(cacheDir.string());
  for (const core::ExperimentRun& run : result.runs) {
    const core::Experiment& experiment = *registry.find(run.name);
    {
      const ScopedSpan span(spans, "cacheKey", -1, run.name);
      core::CacheKeyInputs inputs;
      inputs.experiment = run.name;
      inputs.versionTag = experiment.versionTag();
      inputs.seed = seed;
      inputs.platformSpecHash = core::hashPlatformSpecs();
      inputs.binaryFingerprint = core::executableFingerprint();
      (void)core::cacheKey(inputs);
    }
    std::optional<core::CachedRun> hit;
    {
      const ScopedSpan span(spans, "ResultCache.load", -1, run.name);
      hit = cache.load(run.name, keys[run.name]);
    }
    if (!hit || hit->resultJson != run.json) consistent = false;
    std::string document;
    {
      const ScopedSpan span(spans, "resultDocument", -1, run.name);
      document = core::resultDocument(
          experiment, core::experimentSeed(seed, run.name), run.results,
          run.engine.eventsDispatched > 0 ? &run.engine : nullptr,
          run.counters.worlds > 0 ? &run.counters : nullptr);
    }
    if (document != run.json) consistent = false;
    {
      const ScopedSpan span(spans, "toCsvFiles", -1, run.name);
      (void)run.results.toCsvFiles();
    }
  }
  return consistent;
}

int campaignMode(const Args& args) {
  namespace core = tibsim::core;
  if (args.experiments.empty()) usage("campaign needs --experiments");
  for (const std::string& name : args.experiments)
    if (core::ExperimentRegistry::global().find(name) == nullptr)
      usage("no experiment named " + name);
  (void)core::executableFingerprint();
  const double ready = monotonicSeconds();

  SpanLog spans;
  Output output(args.out);
  const fs::path work(args.work);
  const double loopStart = monotonicSeconds();
  for (int i = 0; moreOps(args, loopStart, i); ++i) {
    const bool traced = args.trace && i % 2 == 1;
    // Every operation writes into fresh directories, as a first run does.
    const fs::path dir = work / ("op" + std::to_string(i));
    core::CampaignOptions options;
    options.jobs = 1;
    options.seed = args.seed;
    options.summary = false;
    options.patterns = args.experiments;
    options.jsonDir = (dir / "json").string();
    options.csvDir = (dir / "csv").string();
    options.cacheDir = (dir / "cache").string();

    core::CampaignResult result;
    std::string error;
    spans.setOp(i, traced);
    const int opSpan = spans.begin("op");
    const double cpu0 = processCpuSeconds();
    const double start = monotonicSeconds();
    try {
      const ScopedSpan span(spans, "runCampaign", opSpan);
      std::ostringstream sink;
      result = core::runCampaign(options, sink);
    } catch (const std::exception& e) {
      error = e.what();
    }
    const double wall = monotonicSeconds() - start;
    const double cpu = processCpuSeconds() - cpu0;
    spans.end(opSpan);

    // Outside the timed operation: probe the core paths (traced operations
    // only), fingerprint the artefacts, then drop every operation's files
    // but the first one's artefacts (run.py checks those).
    bool consistent = true;
    if (traced && error.empty())
      consistent = probeCore(args.seed, options.cacheDir, result, spans);
    const TreeDigest digest = digestTrees(dir, {"json", "csv"});
    fs::remove_all(i > 0 ? dir : dir / "cache");

    const CampaignTotals totals(result);
    Value r = Value::object();
    r["wall_s"] = wall;
    r["cpu_s"] = cpu;
    r["traced"] = traced;
    r["error"] = error;
    r["consistent"] = consistent;
    r["digest"] = digest.hex;
    r["artefact_bytes"] = digest.bytes;
    r["cache_hits"] = static_cast<unsigned long long>(result.cacheHits);
    r["cache_misses"] = static_cast<unsigned long long>(result.cacheMisses);
    r["experiments_s"] = totals.experimentsSeconds;
    r["experiment_s"] = totals.experimentSeconds;
    r["engine"] = engineJson(totals.engine);
    r["worlds"] = totals.counters.worlds;
    r["messages"] = totals.counters.messages;
    r["payload_pooled"] = totals.counters.payloadPooledMessages;
    r["pool_reuses"] = totals.counters.payloadPoolReuses;
    r["spans_recorded"] = totals.counters.spansRecorded;
    r["transfers"] = totals.counters.links.uplink.transfers;
    r["wire_bytes"] = totals.counters.wireBytes;
    output.op(r);
  }

  Value doc = Value::object();
  doc["ready"] = ready;
  doc["spans"] = spans.toJson();
  return output.finish(std::move(doc));
}

// --- world operations --------------------------------------------------------

/// First-entry and last-exit marks of the rank bodies, written from every
/// shard's host thread.
struct RankMarks {
  std::atomic<bool> entered{false};
  std::atomic<int> exited{0};
  std::atomic<double> firstEntry{0.0};
  std::atomic<double> lastExit{0.0};
};

Value linkKindJson(const tibsim::obs::LinkKindCounters& k) {
  Value v = Value::object();
  v["busySeconds"] = k.busySeconds;
  v["bytes"] = k.bytes;
  v["transfers"] = k.transfers;
  v["queueSeconds"] = k.queueSeconds;
  v["maxLinkBusySeconds"] = k.maxLinkBusySeconds;
  std::vector<double> buckets;
  for (const std::uint64_t c : k.queueDelay.counts)
    buckets.push_back(static_cast<double>(c));
  v["queueDelay"] = digestNumbers(buckets);
  return v;
}

/// The simulated outcome of one world: what the correctness gate compares.
Value outcomesJson(const tibsim::cluster::JobResult& r) {
  const tibsim::mpi::WorldStats& s = r.stats;
  Value v = Value::object();
  v["nodes"] = r.nodes;
  v["ranks"] = r.ranks;
  v["wallClockSeconds"] = r.wallClockSeconds;
  v["energyJ"] = r.energyJ;
  v["averagePowerW"] = r.averagePowerW;
  v["gflops"] = r.gflops;
  v["peakGflops"] = r.peakGflops;
  v["mflopsPerWatt"] = r.mflopsPerWatt;
  v["totalFlops"] = s.totalFlops;
  v["totalDramBytes"] = s.totalDramBytes;
  v["messages"] = s.messageCount;
  v["payloadBytes"] = s.payloadBytes;
  v["wireBytes"] = s.wireBytes;
  v["fabricQueueingSeconds"] = s.fabricQueueingSeconds;
  v["simSeconds"] = s.engine.simSeconds;
  v["rankFinishSeconds"] = digestNumbers(s.rankFinishSeconds);
  v["nodeBusySeconds"] = digestNumbers(s.nodeBusySeconds);
  v["nodeCommCpuSeconds"] = digestNumbers(s.nodeCommCpuSeconds);
  Value cp = Value::object();
  cp["computeSeconds"] = s.criticalPath.computeSeconds;
  cp["sendSeconds"] = s.criticalPath.sendSeconds;
  cp["recvSeconds"] = s.criticalPath.recvSeconds;
  cp["linkSeconds"] = s.criticalPath.linkSeconds;
  cp["waitSeconds"] = s.criticalPath.waitSeconds;
  cp["edges"] = static_cast<double>(s.criticalPath.edges);
  cp["endRank"] = s.criticalPath.endRank;
  v["criticalPath"] = std::move(cp);
  Value links = Value::object();
  links["uplink"] = linkKindJson(s.linkStats.uplink);
  links["core"] = linkKindJson(s.linkStats.core);
  links["downlink"] = linkKindJson(s.linkStats.downlink);
  v["links"] = std::move(links);
  return v;
}

/// Engine and pool work counters: compared exactly but never a failure.
Value workCountersJson(const tibsim::mpi::WorldStats& s) {
  Value v = Value::object();
  v["eventsDispatched"] = s.engine.eventsDispatched;
  v["contextSwitches"] = s.engine.contextSwitches;
  v["processesSpawned"] = s.engine.processesSpawned;
  v["peakLiveProcesses"] =
      static_cast<unsigned long long>(s.engine.peakLiveProcesses);
  v["queueHighWater"] = static_cast<unsigned long long>(s.engine.queueHighWater);
  v["payloadInlineMessages"] = s.payloadInlineMessages;
  v["payloadPooledMessages"] = s.payloadPooledMessages;
  v["payloadPoolReuses"] = s.payloadPoolReuses;
  v["payloadPoolAllocations"] = s.payloadPoolAllocations;
  v["payloadPoolReturns"] = s.payloadPoolReturns;
  v["payloadPoolTrimmedBuffers"] = s.payloadPoolTrimmedBuffers;
  v["payloadPoolLiveHighWater"] = s.payloadPoolLiveHighWater;
  v["traceSpansRecorded"] = s.traceSpansRecorded;
  return v;
}

int worldMode(const Args& args) {
  namespace cluster = tibsim::cluster;
  if (args.n < kHplBlock) usage("--n must be at least one block");
  cluster::ClusterSimulation sim(cluster::ClusterSpec::tibidaboScaled(kHplNodes));
  tibsim::apps::HplBenchmark::Params params;
  params.n = args.n;
  params.nb = kHplBlock;
  const tibsim::mpi::MpiWorld::RankBody hpl =
      tibsim::apps::HplBenchmark::rankBody(params);

  SpanLog spans;
  Output output(args.out);
  const double loopStart = monotonicSeconds();
  for (int i = 0; moreOps(args, loopStart, i); ++i) {
    const bool traced = args.trace && i % 2 == 1;
    RankMarks marks;
    const int ranks = kHplNodes * sim.spec().ranksPerNode;
    const tibsim::mpi::MpiWorld::RankBody body =
        [&](tibsim::mpi::MpiContext& ctx) {
          if (!marks.entered.exchange(true))
            marks.firstEntry.store(monotonicSeconds());
          hpl(ctx);
          if (marks.exited.fetch_add(1) + 1 == ranks)
            marks.lastExit.store(monotonicSeconds());
        };

    spans.setOp(i, traced);
    const int opSpan = spans.begin("op");
    const int jobSpan = spans.begin("runJob", opSpan);
    std::string error;
    cluster::JobResult result;
    const double cpu0 = processCpuSeconds();
    const double start = monotonicSeconds();
    try {
      result = sim.runJob(kHplNodes, body);
    } catch (const std::exception& e) {
      error = e.what();
    }
    const double end = monotonicSeconds();
    const double cpu = processCpuSeconds() - cpu0;
    spans.end(jobSpan);
    const double first = marks.firstEntry.load();
    const double last = marks.lastExit.load();
    spans.add("rank_bodies", first, last, jobSpan);
    spans.end(opSpan);

    Value r = Value::object();
    r["wall_s"] = end - start;
    r["setup_s"] = first - start;
    r["run_s"] = last - first;
    r["teardown_s"] = end - last;
    r["cpu_s"] = cpu;
    r["traced"] = traced;
    r["error"] = error;
    r["engine"] = engineJson(result.stats.engine);
    r["outcomes"] = outcomesJson(result);
    r["counters"] = workCountersJson(result.stats);
    output.op(r);
  }

  Value doc = Value::object();
  doc["spans"] = spans.toJson();
  return output.finish(std::move(doc));
}

int setupMode(const Args& args) {
  (void)tibsim::core::ExperimentRegistry::global().size();
  (void)tibsim::core::executableFingerprint();
  Value doc = Value::object();
  doc["ready"] = monotonicSeconds();
  return Output(args.out).finish(std::move(doc));
}

int probesMode(const Args& args) {
  SpanLog spans;
  spans.setOp(0, true);
  Value doc = Value::object();
  doc["probes"] = runProbes(spans);
  doc["spans"] = spans.toJson();
  return Output(args.out).finish(std::move(doc));
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = parseArgs(argc, argv);
  try {
    if (args.mode == "setup") return setupMode(args);
    if (args.mode == "campaign") return campaignMode(args);
    if (args.mode == "world") return worldMode(args);
    if (args.mode == "probes") return probesMode(args);
  } catch (const std::exception& e) {
    std::cerr << "tibsim_perfbench: " << e.what() << "\n";
    return 1;
  }
  usage("unknown mode " + args.mode);
}
