// The socbench framework: ordered JSON round-trips, the ResultSet data
// model and its emitters, the experiment registry and glob selection, the
// nested-safe TaskPool, and end-to-end campaign determinism across job
// counts.

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>

#include "host_threads.hpp"
#include "tibsim/common/assert.hpp"
#include "tibsim/common/json.hpp"
#include "tibsim/common/result_set.hpp"
#include "tibsim/common/thread_pool.hpp"
#include "tibsim/core/campaign.hpp"
#include "tibsim/core/experiment.hpp"

namespace {

using namespace tibsim;
using core::ExperimentContext;
using core::ExperimentRegistry;
using testhost::Host;

// ---------------------------------------------------------------------------
// json::Value
// ---------------------------------------------------------------------------

TEST(Json, DumpPreservesInsertionOrder) {
  json::Value v = json::Value::object();
  v["zeta"] = 1.0;
  v["alpha"] = true;
  v["mid"] = "x";
  EXPECT_EQ(v.dump(), R"({"zeta":1,"alpha":true,"mid":"x"})");
}

TEST(Json, GoldenDocument) {
  json::Value doc = json::Value::object();
  doc["name"] = "fig";
  json::Value xs = json::Value::array();
  xs.push(1.0);
  xs.push(2.5);
  doc["x"] = std::move(xs);
  doc["empty"] = json::Value::array();
  doc["flag"] = false;
  doc["none"] = json::Value();
  EXPECT_EQ(doc.dump(),
            R"({"name":"fig","x":[1,2.5],"empty":[],"flag":false,"none":null})");
}

TEST(Json, ParseDumpRoundTrip) {
  const std::string text =
      R"({"a":[1,2.5,-0.03],"b":{"c":"q\"uote","d":null},"e":true})";
  EXPECT_EQ(json::Value::parse(text).dump(), text);
  // Non-canonical number spellings parse to the same value.
  EXPECT_EQ(json::Value::parse("-3e-2").asDouble(), -0.03);
}

TEST(Json, NumberFormattingIsShortestRoundTrip) {
  EXPECT_EQ(json::formatNumber(1.0), "1");
  EXPECT_EQ(json::formatNumber(0.1), "0.1");
  EXPECT_EQ(json::formatNumber(-2.5e8), "-2.5e+08");
}

TEST(Json, StringEscapes) {
  json::Value v = std::string("a\"b\\c\n\t");
  EXPECT_EQ(v.dump(), R"("a\"b\\c\n\t")");
  EXPECT_EQ(json::Value::parse(v.dump()).asString(), "a\"b\\c\n\t");
}

TEST(Json, ParseErrors) {
  EXPECT_THROW(json::Value::parse("{"), json::ParseError);
  EXPECT_THROW(json::Value::parse("[1,]"), json::ParseError);
  EXPECT_THROW(json::Value::parse("1 trailing"), json::ParseError);
}

// ---------------------------------------------------------------------------
// ResultSet
// ---------------------------------------------------------------------------

ResultSet sampleResults() {
  ResultSet results;
  TextTable table({"platform", "GFLOPS"});
  table.addRow({"Tegra2", "2.0"});
  table.addRow({"Exynos5250", "6.8"});
  results.addTable("peak", std::move(table));
  ChartOptions options;
  options.logY = true;
  options.xLabel = "freq";
  results.addChart("speedup", {Series{"Tegra2", {1.0, 2.0}, {1.0, 1.9}}},
                   options);
  results.addMetric("efficiency", 51.0, "%");
  results.addNote("paper anchor");
  return results;
}

TEST(ResultSet, JsonRoundTripIsIdentity) {
  const ResultSet original = sampleResults();
  const json::Value doc = ResultSet::toJson(original);
  const ResultSet reparsed =
      ResultSet::fromJson(json::Value::parse(doc.dump(2)));
  EXPECT_EQ(original, reparsed);
  EXPECT_EQ(doc.dump(2), ResultSet::toJson(reparsed).dump(2));
}

TEST(ResultSet, CsvExport) {
  const auto files = sampleResults().toCsvFiles();
  ASSERT_EQ(files.size(), 3u);  // one table, one chart, the metrics file
  EXPECT_EQ(files[0].first, "peak");
  EXPECT_EQ(files[0].second,
            "platform,GFLOPS\nTegra2,2.0\nExynos5250,6.8\n");
  EXPECT_EQ(files[1].first, "speedup");
  EXPECT_EQ(files[1].second, "series,x,y\nTegra2,1,1\nTegra2,2,1.9\n");
  EXPECT_EQ(files[2].first, "metrics");
  EXPECT_EQ(files[2].second, "metric,value,unit\nefficiency,51,%\n");
}

TEST(ResultSet, RenderTextShowsEverySection) {
  const std::string text = sampleResults().renderText();
  EXPECT_NE(text.find("-- peak --"), std::string::npos);
  EXPECT_NE(text.find("-- metrics --"), std::string::npos);
  EXPECT_NE(text.find("NOTE: paper anchor"), std::string::npos);
}

TEST(ResultSet, MergeKeepsOrder) {
  ResultSet a;
  a.addNote("first");
  ResultSet b = sampleResults();
  b.addNote("last");
  a.merge(std::move(b));
  ASSERT_EQ(a.notes().size(), 3u);
  EXPECT_EQ(a.notes()[0], "first");
  EXPECT_EQ(a.notes()[2], "last");
  EXPECT_EQ(a.tables().size(), 1u);
}

// ---------------------------------------------------------------------------
// ExperimentRegistry
// ---------------------------------------------------------------------------

std::unique_ptr<core::LambdaExperiment> dummy(const std::string& name) {
  return std::make_unique<core::LambdaExperiment>(
      name, "Test", "dummy " + name,
      [](ExperimentContext&) { return ResultSet(); });
}

TEST(ExperimentRegistry, AddFindAndSortedNames) {
  ExperimentRegistry registry;
  registry.add(dummy("zz"));
  registry.add(dummy("aa"));
  EXPECT_EQ(registry.size(), 2u);
  EXPECT_EQ(registry.names(), (std::vector<std::string>{"aa", "zz"}));
  ASSERT_NE(registry.find("aa"), nullptr);
  EXPECT_EQ(registry.find("aa")->title(), "dummy aa");
  EXPECT_EQ(registry.find("missing"), nullptr);
}

TEST(ExperimentRegistry, RejectsDuplicateNames) {
  ExperimentRegistry registry;
  registry.add(dummy("fig"));
  EXPECT_THROW(registry.add(dummy("fig")), ContractError);
}

TEST(ExperimentRegistry, GlobMatch) {
  EXPECT_TRUE(ExperimentRegistry::globMatch("*", "anything"));
  EXPECT_TRUE(ExperimentRegistry::globMatch("fig0?", "fig03"));
  EXPECT_FALSE(ExperimentRegistry::globMatch("fig0?", "fig10"));
  EXPECT_TRUE(ExperimentRegistry::globMatch("ablation_*", "ablation_eee"));
  EXPECT_FALSE(ExperimentRegistry::globMatch("ablation_*", "fig03"));
  EXPECT_TRUE(ExperimentRegistry::globMatch("a*c*e", "abcde"));
  EXPECT_FALSE(ExperimentRegistry::globMatch("a*c*e", "abcd"));
  EXPECT_TRUE(ExperimentRegistry::globMatch("", ""));
  EXPECT_FALSE(ExperimentRegistry::globMatch("", "x"));
}

TEST(ExperimentRegistry, MatchDeduplicatesAndSorts) {
  ExperimentRegistry registry;
  registry.add(dummy("fig01"));
  registry.add(dummy("fig02"));
  registry.add(dummy("tab01"));
  const auto all = registry.match({});
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all.front()->name(), "fig01");
  const auto selected = registry.match({"fig*", "fig01", "tab01"});
  ASSERT_EQ(selected.size(), 3u);  // fig01 matched twice, listed once
  const auto none = registry.match({"nope*"});
  EXPECT_TRUE(none.empty());
}

TEST(ExperimentRegistry, GlobalHasAllBuiltinExperiments) {
  const auto& registry = ExperimentRegistry::global();
  EXPECT_GE(registry.size(), 22u);
  for (const char* name :
       {"fig01", "fig02", "fig03", "fig04", "fig05", "fig06", "fig07",
        "fig08", "tab01", "tab02", "tab04", "hpl_green500",
        "energy_to_solution", "imb_suite", "latency_penalty",
        "ecc_reliability", "ablation_interconnect", "ablation_armv8",
        "ablation_dvfs", "ablation_eee", "campaign",
        "scale_bigcluster"}) {
    EXPECT_NE(registry.find(name), nullptr) << name;
  }
}

TEST(ExperimentSeed, MixesNameAndCampaignSeed) {
  const auto a = core::experimentSeed(42, "fig03");
  EXPECT_EQ(a, core::experimentSeed(42, "fig03"));
  EXPECT_NE(a, core::experimentSeed(42, "fig04"));
  EXPECT_NE(a, core::experimentSeed(43, "fig03"));
}

// ---------------------------------------------------------------------------
// ExperimentContext + TaskPool
// ---------------------------------------------------------------------------

TEST(ExperimentContext, SerialParallelForCountsCells) {
  ExperimentContext ctx(7);
  std::vector<int> slots(10, 0);
  ctx.parallelFor(slots.size(), [&](std::size_t i) { slots[i] = 1; });
  EXPECT_EQ(ctx.cellsExecuted(), 10u);
  for (int s : slots) EXPECT_EQ(s, 1);
}

TEST(ExperimentContext, RngStreamsAreIndependent) {
  ExperimentContext ctx(7);
  auto a = ctx.rng(0);
  auto b = ctx.rng(1);
  auto a2 = ctx.rng(0);
  EXPECT_EQ(a.nextU64(), a2.nextU64());
  EXPECT_NE(ctx.rng(0).nextU64(), b.nextU64());
}

TEST(ExperimentContext, ExportArtefactDisabledWritesNothing) {
  ExperimentContext ctx(7);
  EXPECT_FALSE(ctx.traceExportEnabled());
  EXPECT_FALSE(ctx.exportArtefact("x.csv", "a,b\n"));
}

TEST(ExperimentContext, ExportArtefactWritesIntoTheConfiguredDir) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "tibsim_trace_export_test";
  std::filesystem::remove_all(dir);
  ExperimentContext ctx(7);
  ctx.setTraceExportDir(dir.string());
  EXPECT_TRUE(ctx.traceExportEnabled());
  EXPECT_TRUE(ctx.exportArtefact("run.breakdown.csv", "rank,compute_s\n0,1\n"));
  std::ifstream in(dir / "run.breakdown.csv");
  std::stringstream content;
  content << in.rdbuf();
  EXPECT_EQ(content.str(), "rank,compute_s\n0,1\n");
  // Path traversal out of the export dir is a contract violation.
  EXPECT_THROW(ctx.exportArtefact("../escape.csv", "x"), ContractError);
  EXPECT_THROW(ctx.exportArtefact("sub/dir.csv", "x"), ContractError);
  std::filesystem::remove_all(dir);
}

TEST(TaskPool, RunsEveryIndexExactlyOnce) {
  TaskPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  pool.parallelFor(hits.size(),
                   [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(TaskPool, NestedParallelForDoesNotDeadlock) {
  TaskPool pool(3);
  std::array<std::array<std::atomic<int>, 8>, 8> hits{};
  pool.parallelFor(8, [&](std::size_t i) {
    pool.parallelFor(8, [&](std::size_t j) { hits[i][j].fetch_add(1); });
  });
  for (const auto& row : hits)
    for (const auto& h : row) EXPECT_EQ(h.load(), 1);
}

TEST(TaskPool, PropagatesExceptions) {
  TaskPool pool(2);
  EXPECT_THROW(pool.parallelFor(
                   16,
                   [](std::size_t i) {
                     if (i == 11) throw std::runtime_error("cell failed");
                   }),
               std::runtime_error);
  // Fork-join chunks: the caller always claims chunk 0 first, and here it
  // waits until chunk 1 has started, so chunk 1 throws on the worker.
  std::atomic<bool> started{false};
  EXPECT_THROW(
      pool.parallelFor(2,
                       [&](std::size_t, std::size_t, std::size_t chunk) {
                         if (chunk == 0) {
                           while (!started.load()) std::this_thread::yield();
                           return;
                         }
                         started = true;
                         throw std::runtime_error("worker chunk failed");
                       }),
      std::runtime_error);
  // A throw from the caller's own chunk waits for the workers' chunks.
  std::atomic<int> finished{0};
  EXPECT_THROW(
      pool.parallelFor(64,
                       [&](std::size_t, std::size_t, std::size_t chunk) {
                         if (chunk == 0)
                           throw std::runtime_error("caller chunk failed");
                         finished.fetch_add(1);
                       }),
      std::runtime_error);
  EXPECT_EQ(finished.load(), 1);
  // Neither failure leaves the pool unusable.
  std::atomic<std::size_t> covered{0};
  pool.parallelFor(100, [&](std::size_t b, std::size_t e, std::size_t) {
    covered.fetch_add(e - b);
  });
  EXPECT_EQ(covered.load(), 100u);
}

TEST(TaskPool, RefusesMoreThreadsThanTheCeiling) {
  // Exactly one over: a pool that started threads before checking would
  // stay bounded. Nothing near the ceiling is ever constructed.
  EXPECT_THROW(TaskPool pool(TaskPool::kMaxThreads + 1), ContractError);
}

TEST(TaskPool, ZeroAndSingleIteration) {
  TaskPool pool(2);
  int runs = 0;
  pool.parallelFor(0, [&](std::size_t) { ++runs; });
  EXPECT_EQ(runs, 0);
  pool.parallelFor(1, [&](std::size_t) { ++runs; });
  EXPECT_EQ(runs, 1);
}

// ---------------------------------------------------------------------------
// Campaign determinism
// ---------------------------------------------------------------------------

core::CampaignResult quietCampaign(int jobs) {
  core::CampaignOptions options;
  options.patterns = {"fig03"};
  options.jobs = jobs;
  options.summary = false;
  std::ostringstream sink;
  return core::runCampaign(options, sink);
}

TEST(Campaign, JsonIsByteIdenticalAcrossJobCounts) {
  const auto serial = quietCampaign(1);
  const auto parallel = quietCampaign(8);
  ASSERT_EQ(serial.runs.size(), 1u);
  ASSERT_EQ(parallel.runs.size(), 1u);
  EXPECT_FALSE(serial.runs[0].json.empty());
  EXPECT_EQ(serial.runs[0].json, parallel.runs[0].json);
  EXPECT_GT(parallel.runs[0].cells, 0u);
}

TEST(Campaign, ResultDocumentCarriesSchemaAndSeed) {
  const auto campaign = quietCampaign(1);
  const json::Value doc = json::Value::parse(campaign.runs[0].json);
  ASSERT_NE(doc.find("schema"), nullptr);
  EXPECT_EQ(doc.find("schema")->asString(), "socbench-result-v1");
  EXPECT_EQ(doc.find("experiment")->asString(), "fig03");
  EXPECT_EQ(doc.find("seed")->asDouble(),
            static_cast<double>(core::experimentSeed(42, "fig03")));
  EXPECT_NE(doc.find("results"), nullptr);
}

TEST(Campaign, ThrowsWhenNothingMatches) {
  core::CampaignOptions options;
  options.patterns = {"no_such_experiment"};
  std::ostringstream sink;
  EXPECT_THROW(core::runCampaign(options, sink), ContractError);
}

// One experiment, run from `host` (host_threads.hpp). At --jobs 1 every
// world it builds runs on that host; at --jobs > 1 its cells run on the
// campaign pool's threads.
core::CampaignResult hostCampaign(const std::string& pattern,
                                  Host host = Host::Fiber, int jobs = 1) {
  core::CampaignOptions options;
  options.patterns = {pattern};
  options.summary = false;
  options.jobs = jobs;
  std::ostringstream sink;
  return testhost::onHost(host,
                          [&] { return core::runCampaign(options, sink); });
}

TEST(Campaign, JsonIsByteIdenticalAcrossSimBackends) {
  // imb_suite drives full simMPI worlds, so the simulated clocks and
  // engine counters both reach the artefact. It must not depend on which
  // host thread switched into the rank fibers.
  const auto fiber = hostCampaign("imb_suite", Host::Fiber);
  const auto thread = hostCampaign("imb_suite", Host::Thread);
  ASSERT_EQ(fiber.runs.size(), 1u);
  ASSERT_EQ(thread.runs.size(), 1u);
  EXPECT_FALSE(fiber.runs[0].json.empty());
  EXPECT_EQ(fiber.runs[0].json, thread.runs[0].json);
}

TEST(Campaign, JsonIsByteIdenticalAcrossShardCounts) {
  // Every world runs on one event queue; what may vary is how many pool
  // threads run fig06's 64- and 96-node cells at once. A second run at
  // --jobs 4 must serialise the same bytes.
  const auto one = hostCampaign("fig06");
  const auto pooled = hostCampaign("fig06", Host::Fiber, 4);
  ASSERT_EQ(one.runs.size(), 1u);
  ASSERT_EQ(pooled.runs.size(), 1u);
  EXPECT_FALSE(one.runs[0].json.empty());
  EXPECT_EQ(one.runs[0].json, pooled.runs[0].json);
}

TEST(Campaign, ShardedJsonIsByteIdenticalAcrossSimBackends) {
  // The --jobs pool composes with the host: pool threads started from a
  // worker thread must serialise the same bytes as a serial run on the
  // test thread.
  const auto fiber = hostCampaign("ablation_interconnect", Host::Fiber);
  const auto thread = hostCampaign("ablation_interconnect", Host::Thread, 4);
  ASSERT_EQ(fiber.runs.size(), 1u);
  ASSERT_EQ(thread.runs.size(), 1u);
  EXPECT_FALSE(fiber.runs[0].json.empty());
  EXPECT_EQ(fiber.runs[0].json, thread.runs[0].json);
}

TEST(Campaign, TaskFarmJsonIsByteIdenticalAcrossShardsAndBackends) {
  // The wildcard-receive acceptance bar: the task farm's self-scheduling
  // master matches kAnySource results at up to 2,048 ranks, and the full
  // artefact (including the per-worker distribution the tables derive
  // from) must not depend on the run, the --jobs value or the host thread.
  const auto one = hostCampaign("taskfarm");
  const auto pooled = hostCampaign("taskfarm", Host::Fiber, 4);
  const auto thread = hostCampaign("taskfarm", Host::Thread);
  ASSERT_EQ(one.runs.size(), 1u);
  EXPECT_FALSE(one.runs[0].json.empty());
  EXPECT_EQ(one.runs[0].json, pooled.runs[0].json);
  EXPECT_EQ(one.runs[0].json, thread.runs[0].json);
  EXPECT_EQ(one.runs[0].engine.peakLiveProcesses, 2048u);
}

TEST(Campaign, HydroAsyncJsonIsByteIdenticalAcrossShardsAndBackends) {
  // comm.split()/dup() and the non-blocking collectives: communicator ids
  // are minted from traffic, so every --jobs value and host thread must
  // serialise identical bytes.
  const auto one = hostCampaign("hydro_async");
  const auto pooled = hostCampaign("hydro_async", Host::Fiber, 4);
  const auto thread = hostCampaign("hydro_async", Host::Thread, 4);
  ASSERT_EQ(one.runs.size(), 1u);
  EXPECT_FALSE(one.runs[0].json.empty());
  EXPECT_EQ(one.runs[0].json, pooled.runs[0].json);
  EXPECT_EQ(one.runs[0].json, thread.runs[0].json);
}

TEST(Campaign, EngineStatsLandInResultDocument) {
  const auto campaign = hostCampaign("imb_suite");
  const json::Value doc = json::Value::parse(campaign.runs[0].json);
  const json::Value* engine = doc.find("engine");
  ASSERT_NE(engine, nullptr);
  EXPECT_GT(engine->find("eventsDispatched")->asDouble(), 0.0);
  EXPECT_GT(engine->find("contextSwitches")->asDouble(), 0.0);
  EXPECT_GT(engine->find("processesSpawned")->asDouble(), 0.0);
  EXPECT_GT(engine->find("peakLiveProcesses")->asDouble(), 0.0);
  EXPECT_GT(engine->find("queueHighWater")->asDouble(), 0.0);
  EXPECT_GT(engine->find("simSeconds")->asDouble(), 0.0);
  // Wall-clock time is machine-dependent and must never reach the artefact.
  EXPECT_EQ(engine->find("hostSeconds"), nullptr);
  // Run-level stats mirror the document.
  EXPECT_GT(campaign.runs[0].engine.eventsDispatched, 0u);
}

TEST(Campaign, ExperimentsWithoutSimulationsOmitEngineBlock) {
  // fig03 replays measured single-core numbers; no simMPI world is built.
  const auto campaign = quietCampaign(1);
  const json::Value doc = json::Value::parse(campaign.runs[0].json);
  EXPECT_EQ(doc.find("engine"), nullptr);
}

core::CampaignResult traceModeCampaign(const std::string& mode, int jobs) {
  core::CampaignOptions options;
  options.patterns = {"imb_suite"};
  options.jobs = jobs;
  options.summary = false;
  options.traceMode = mode;
  std::ostringstream sink;
  return core::runCampaign(options, sink);
}

TEST(Campaign, WorldStatsLandInResultDocument) {
  const auto campaign = traceModeCampaign("aggregate", 1);
  const json::Value doc = json::Value::parse(campaign.runs[0].json);
  const json::Value* worlds = doc.find("worlds");
  ASSERT_NE(worlds, nullptr);
  EXPECT_GT(worlds->find("worlds")->asDouble(), 0.0);
  EXPECT_GT(worlds->find("messages")->asDouble(), 0.0);
  EXPECT_GT(worlds->find("payloadBytes")->asDouble(), 0.0);
  EXPECT_GT(worlds->find("traceSpansRecorded")->asDouble(), 0.0);
  // Aggregate mode retains no spans for the traced Exchange world.
  EXPECT_EQ(worlds->find("traceSpansRetained")->asDouble(), 0.0);
  EXPECT_GT(worlds->find("traceMemoryPeakBytes")->asDouble(), 0.0);
  // Run-level counters mirror the document.
  EXPECT_GT(campaign.runs[0].counters.worlds, 0u);
}

TEST(Campaign, JsonIsByteIdenticalAcrossJobsInEveryTraceMode) {
  for (const char* mode : {"full", "sampled", "aggregate"}) {
    const auto serial = traceModeCampaign(mode, 1);
    const auto parallel = traceModeCampaign(mode, 8);
    EXPECT_FALSE(serial.runs[0].json.empty());
    EXPECT_EQ(serial.runs[0].json, parallel.runs[0].json) << mode;
  }
}

TEST(Campaign, ExplicitFullModeMatchesDefault) {
  // --trace-mode full must be a no-op relative to the built-in default, so
  // existing full-mode artefacts stay unchanged.
  const auto implicit = quietCampaign(1);
  core::CampaignOptions options;
  options.patterns = {"fig03"};
  options.summary = false;
  options.traceMode = "full";
  std::ostringstream sink;
  const auto explicitMode = core::runCampaign(options, sink);
  EXPECT_EQ(implicit.runs[0].json, explicitMode.runs[0].json);
}

TEST(Campaign, RejectsUnknownTraceMode) {
  EXPECT_THROW(traceModeCampaign("firehose", 1), ContractError);
}

// ---------------------------------------------------------------------------
// CLI flag validation
// ---------------------------------------------------------------------------

int cliExit(std::vector<const char*> args) {
  args.insert(args.begin(), "socbench");
  return core::socbenchMain(static_cast<int>(args.size()), args.data());
}

TEST(Cli, RejectsNonNumericIntegerFlags) {
  // Formerly a bare std::stoi: `--jobs banana` aborted with an uncaught
  // std::invalid_argument instead of a usage error.
  EXPECT_EQ(cliExit({"run", "--jobs", "banana"}), 2);
  EXPECT_EQ(cliExit({"run", "--jobs", "4x"}), 2);
  EXPECT_EQ(cliExit({"run", "--jobs", ""}), 2);
  EXPECT_EQ(cliExit({"run", "--seed", "banana"}), 2);
  EXPECT_EQ(cliExit({"run", "--seed", "-1"}), 2);
  // No such flag (the sharded engine is gone): an unknown flag exits 2.
  EXPECT_EQ(cliExit({"run", "--sim-shards", "many"}), 2);
  EXPECT_EQ(cliExit({"run", "--jobs=banana"}), 2);  // --flag=value spelling
}

TEST(Cli, RejectsEmptyFlagValues) {
  // `run tab01 --cache= --json=` used to exit 0 having written neither a
  // cache nor JSON, and `--trace-mode=` ran the default mode.
  for (const char* flag : {"--json", "--csv", "--jobs", "--seed", "--cache",
                           "--trace-mode", "--trace-export"}) {
    EXPECT_EQ(cliExit({"run", "tab01", "--no-summary", flag, ""}), 2) << flag;
    const std::string joined = std::string(flag).append("=");
    EXPECT_EQ(cliExit({"run", "tab01", "--no-summary", joined.c_str()}), 2)
        << joined;
  }
}

TEST(Cli, RejectsJobsAboveTheCeiling) {
  // Exactly one over: refused at parse time, before any thread starts.
  const std::string over = std::to_string(TaskPool::kMaxThreads + 1);
  EXPECT_EQ(cliExit({"run", "tab01", "--jobs", over.c_str()}), 2);
  // So is a count below 0, the hardware-concurrency value.
  EXPECT_EQ(cliExit({"run", "tab01", "--jobs", "-1"}), 2);
  EXPECT_EQ(cliExit({"run", "tab01", "--jobs=-1"}), 2);
}

TEST(Campaign, RejectsUnknownSimBackend) {
  // Every rank runs as a fiber; there is no backend to select, so the
  // flag itself is a usage error, whatever its value.
  EXPECT_EQ(cliExit({"run", "fig03", "--sim-backend", "green-threads"}), 2);
  EXPECT_EQ(cliExit({"run", "fig03", "--sim-backend", "thread"}), 2);
  EXPECT_EQ(cliExit({"run", "fig03", "--sim-backend", "fiber"}), 2);
}

TEST(Cli, RejectsProcsWithoutCache) {
  // Campaigns run in one process: --procs and its worker-side
  // --worker-cells are unknown flags.
  EXPECT_EQ(cliExit({"run", "tab01", "--procs", "2"}), 2);
  EXPECT_EQ(cliExit({"run", "tab01", "--worker-cells", "tab01"}), 2);
}

TEST(Cli, AcceptsValidNumericFlags) {
  // A valid spelling still runs: tab01 is the cheapest experiment.
  EXPECT_EQ(cliExit({"run", "tab01", "--jobs", "2", "--seed", "7",
                     "--no-summary"}),
            0);
}

}  // namespace
