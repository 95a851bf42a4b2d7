// The content-addressed result cache: key ingredients flip independently,
// corrupt entries are misses (never trusted), and warm reruns replay
// byte-identically.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "tibsim/common/assert.hpp"
#include "tibsim/common/json.hpp"
#include "tibsim/core/campaign.hpp"
#include "tibsim/core/result_cache.hpp"

namespace {

using namespace tibsim;
namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Cache keys
// ---------------------------------------------------------------------------

core::CacheKeyInputs baseInputs() {
  core::CacheKeyInputs inputs;
  inputs.experiment = "tab01";
  inputs.versionTag = "1";
  inputs.seed = 42;
  inputs.traceMode = "full";
  inputs.stallReport = false;
  inputs.platformSpecHash = 0x1234;
  inputs.binaryFingerprint = 0x5678;
  return inputs;
}

TEST(CacheKey, IsStableAndHexFormatted) {
  const std::string key = core::cacheKey(baseInputs());
  EXPECT_EQ(key.size(), 16u);
  EXPECT_EQ(key.find_first_not_of("0123456789abcdef"), std::string::npos);
  EXPECT_EQ(core::cacheKey(baseInputs()), key);
}

TEST(CacheKey, EveryIngredientFlipsTheKeyIndependently) {
  const std::string key = core::cacheKey(baseInputs());
  const auto flipped = [&](auto mutate) {
    core::CacheKeyInputs inputs = baseInputs();
    mutate(inputs);
    return core::cacheKey(inputs);
  };
  EXPECT_NE(flipped([](auto& i) { i.experiment = "tab02"; }), key);
  EXPECT_NE(flipped([](auto& i) { i.versionTag = "2"; }), key);
  EXPECT_NE(flipped([](auto& i) { i.seed = 43; }), key);
  EXPECT_NE(flipped([](auto& i) { i.traceMode = "aggregate"; }), key);
  EXPECT_NE(flipped([](auto& i) { i.stallReport = true; }), key);
  EXPECT_NE(flipped([](auto& i) { i.platformSpecHash ^= 1; }), key);
  EXPECT_NE(flipped([](auto& i) { i.binaryFingerprint ^= 1; }), key);
}

TEST(CacheKey, LengthPrefixedStringsResistConcatenationCollisions) {
  core::CacheHasher a;
  a.str("ab");
  a.str("c");
  core::CacheHasher b;
  b.str("a");
  b.str("bc");
  EXPECT_NE(a.digest(), b.digest());
}

TEST(CacheKey, SpecHashAndBinaryFingerprintAreStableAndNonzero) {
  // The spec hash folds every Table-1 field; zero would mean it hashed
  // nothing. Deterministic within a build by construction.
  EXPECT_NE(core::hashPlatformSpecs(), 0u);
  EXPECT_EQ(core::hashPlatformSpecs(), core::hashPlatformSpecs());
  // /proc/self/exe is always readable on the Linux CI hosts.
  EXPECT_NE(core::executableFingerprint(), 0u);
  EXPECT_EQ(core::executableFingerprint(), core::executableFingerprint());
}

TEST(CacheKey, ExperimentVersionTagDefaultsToOne) {
  const core::LambdaExperiment plain(
      "k1", "r", "t", [](core::ExperimentContext&) { return ResultSet(); });
  const core::LambdaExperiment tagged(
      "k2", "r", "t", [](core::ExperimentContext&) { return ResultSet(); },
      "7");
  EXPECT_EQ(plain.versionTag(), "1");
  EXPECT_EQ(tagged.versionTag(), "7");
}

// ---------------------------------------------------------------------------
// Entry round-trip and corruption handling
// ---------------------------------------------------------------------------

core::CachedRun sampleRun() {
  core::CachedRun run;
  run.cells = 9;
  run.engine.eventsDispatched = 1234;
  run.engine.contextSwitches = 567;
  run.engine.processesSpawned = 89;
  run.engine.peakLiveProcesses = 12;
  run.engine.queueHighWater = 34;
  run.engine.simSeconds = 0.125;
  run.counters.worlds = 3;
  run.counters.messages = 456;
  run.counters.payloadBytes = 1e6 + 0.5;
  run.counters.wireBytes = 2e6 + 0.25;
  run.counters.spansRecorded = 78;
  run.counters.spansRetained = 56;
  run.counters.traceMemoryPeakBytes = 4096;
  run.counters.payloadInlineMessages = 100;
  run.counters.payloadPooledMessages = 200;
  run.counters.payloadPoolReuses = 150;
  run.counters.payloadPoolAllocations = 50;
  run.counters.payloadPoolReturns = 190;
  run.counters.payloadPoolTrimmedBuffers = 10;
  run.counters.payloadPoolLiveHighWater = 17;
  obs::PayloadClassCounters cls;
  cls.classBytes = 256;
  cls.acquires = 40;
  cls.reuses = 30;
  cls.allocations = 10;
  cls.parked = 5;
  run.counters.payloadPoolClasses.push_back(cls);
  run.counters.links.uplink.busySeconds = 0.5;
  run.counters.links.uplink.bytes = 1e5;
  run.counters.links.uplink.transfers = 77;
  run.counters.links.uplink.queueSeconds = 0.0625;
  run.counters.links.uplink.maxLinkBusySeconds = 0.25;
  run.counters.links.uplink.queueDelay.counts[3] = 11;
  run.counters.links.core.transfers = 5;
  run.counters.criticalPath.computeSeconds = 0.75;
  run.counters.criticalPath.sendSeconds = 0.1;
  run.counters.criticalPath.recvSeconds = 0.2;
  run.counters.criticalPath.linkSeconds = 0.3;
  run.counters.criticalPath.waitSeconds = 0.4;
  run.counters.criticalPath.edges = 6;
  run.counters.criticalPath.endRank = 2;
  ResultSet results;
  results.addMetric("answer", 42.25, "x");
  run.results = results;
  json::Value doc = json::Value::object();
  doc["schema"] = "socbench-result-v1";
  doc["results"] = ResultSet::toJson(results);
  run.resultJson = doc.dump(2) + "\n";
  return run;
}

fs::path freshDir(const char* name) {
  const fs::path dir = fs::temp_directory_path() / name;
  fs::remove_all(dir);
  return dir;
}

TEST(ResultCache, StoreLoadRoundTripsEveryField) {
  const fs::path dir = freshDir("tibsim_cache_roundtrip");
  const core::ResultCache cache(dir.string());
  const core::CachedRun stored = sampleRun();
  cache.store("tab01", "00000000000000ab", stored);
  const auto loaded = cache.load("tab01", "00000000000000ab");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->cells, stored.cells);
  EXPECT_EQ(loaded->engine.eventsDispatched, stored.engine.eventsDispatched);
  EXPECT_EQ(loaded->engine.contextSwitches, stored.engine.contextSwitches);
  EXPECT_EQ(loaded->engine.processesSpawned, stored.engine.processesSpawned);
  EXPECT_EQ(loaded->engine.peakLiveProcesses,
            stored.engine.peakLiveProcesses);
  EXPECT_EQ(loaded->engine.queueHighWater, stored.engine.queueHighWater);
  EXPECT_EQ(loaded->engine.simSeconds, stored.engine.simSeconds);
  // Host-only engine fields never ride through the cache.
  EXPECT_EQ(loaded->engine.hostSeconds, 0.0);
  EXPECT_EQ(loaded->engine.stackHighWaterBytes, 0u);
  EXPECT_EQ(loaded->counters.worlds, stored.counters.worlds);
  EXPECT_EQ(loaded->counters.messages, stored.counters.messages);
  EXPECT_EQ(loaded->counters.payloadBytes, stored.counters.payloadBytes);
  EXPECT_EQ(loaded->counters.wireBytes, stored.counters.wireBytes);
  ASSERT_EQ(loaded->counters.payloadPoolClasses.size(), 1u);
  EXPECT_EQ(loaded->counters.payloadPoolClasses[0].classBytes, 256u);
  EXPECT_EQ(loaded->counters.payloadPoolClasses[0].reuses, 30u);
  EXPECT_EQ(loaded->counters.links.uplink.busySeconds, 0.5);
  EXPECT_EQ(loaded->counters.links.uplink.transfers, 77u);
  EXPECT_EQ(loaded->counters.links.uplink.queueDelay.counts[3], 11u);
  EXPECT_EQ(loaded->counters.links.core.transfers, 5u);
  EXPECT_EQ(loaded->counters.criticalPath.waitSeconds, 0.4);
  EXPECT_EQ(loaded->counters.criticalPath.endRank, 2);
  EXPECT_EQ(loaded->resultJson, stored.resultJson);
  ASSERT_EQ(loaded->results.metrics().size(), 1u);
  EXPECT_EQ(loaded->results.metrics()[0].name, "answer");
  EXPECT_EQ(loaded->results.metrics()[0].value, 42.25);
  fs::remove_all(dir);
}

TEST(ResultCache, AbsentEntryIsAMiss) {
  const fs::path dir = freshDir("tibsim_cache_absent");
  const core::ResultCache cache(dir.string());
  EXPECT_FALSE(cache.load("tab01", "00000000000000ab").has_value());
  fs::remove_all(dir);
}

TEST(ResultCache, CorruptedEntryIsAMissAndGetsRewritten) {
  const fs::path dir = freshDir("tibsim_cache_corrupt");
  const core::ResultCache cache(dir.string());
  cache.store("tab01", "00000000000000ab", sampleRun());
  const fs::path entry =
      dir / core::ResultCache::entryFileName("tab01", "00000000000000ab");
  ASSERT_TRUE(fs::exists(entry));
  // Truncate to half: a torn write must read as a miss, never as data.
  const auto size = fs::file_size(entry);
  fs::resize_file(entry, size / 2);
  EXPECT_FALSE(cache.load("tab01", "00000000000000ab").has_value());
  // The caller's recompute path overwrites the bad bytes.
  cache.store("tab01", "00000000000000ab", sampleRun());
  EXPECT_TRUE(cache.load("tab01", "00000000000000ab").has_value());
  fs::remove_all(dir);
}

TEST(ResultCache, TamperedSchemaOrKeyIsAMiss) {
  const fs::path dir = freshDir("tibsim_cache_tamper");
  const core::ResultCache cache(dir.string());
  cache.store("tab01", "00000000000000ab", sampleRun());
  const fs::path entry =
      dir / core::ResultCache::entryFileName("tab01", "00000000000000ab");
  std::ifstream in(entry);
  std::stringstream buffer;
  buffer << in.rdbuf();
  in.close();
  // Valid JSON, wrong schema tag.
  {
    std::string text = buffer.str();
    const auto pos = text.find("socbench-cache-v1");
    ASSERT_NE(pos, std::string::npos);
    text.replace(pos, 17, "socbench-cache-v0");
    std::ofstream out(entry, std::ios::trunc);
    out << text;
  }
  EXPECT_FALSE(cache.load("tab01", "00000000000000ab").has_value());
  // A renamed entry (key in the file disagrees with the probe) is a miss:
  // the stored key is validated, not trusted from the file name.
  cache.store("tab01", "00000000000000ab", sampleRun());
  fs::copy_file(entry,
                dir / core::ResultCache::entryFileName("tab01",
                                                       "00000000000000cd"),
                fs::copy_options::overwrite_existing);
  EXPECT_FALSE(cache.load("tab01", "00000000000000cd").has_value());
  fs::remove_all(dir);
}

TEST(ResultCache, IndexIsDeterministicAndSkipsInvalidEntries) {
  const fs::path dir = freshDir("tibsim_cache_index");
  const core::ResultCache cache(dir.string());
  cache.store("tab04", "00000000000000cd", sampleRun());
  cache.store("tab01", "00000000000000ab", sampleRun());
  std::ofstream(dir / "garbage.json") << "{not json";
  cache.writeIndex();
  std::ifstream in(dir / "index.json");
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string first = buffer.str();
  const json::Value index = json::Value::parse(first);
  EXPECT_EQ(index.find("schema")->asString(), "socbench-cache-index-v1");
  const json::Value* entries = index.find("entries");
  ASSERT_NE(entries, nullptr);
  ASSERT_EQ(entries->size(), 2u);  // garbage.json is invisible
  EXPECT_EQ(entries->at(0).find("experiment")->asString(), "tab01");
  EXPECT_EQ(entries->at(1).find("experiment")->asString(), "tab04");
  // Same cache content -> same index bytes.
  cache.writeIndex();
  std::ifstream again(dir / "index.json");
  std::stringstream second;
  second << again.rdbuf();
  EXPECT_EQ(second.str(), first);
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Campaign integration
// ---------------------------------------------------------------------------

std::map<std::string, std::string> readDir(const fs::path& dir) {
  std::map<std::string, std::string> files;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    std::ifstream in(entry.path(), std::ios::binary);
    std::stringstream buffer;
    buffer << in.rdbuf();
    files[entry.path().filename().string()] = buffer.str();
  }
  return files;
}

core::CampaignResult cachedCampaign(const fs::path& cacheDir,
                                    const fs::path& jsonDir,
                                    const fs::path& csvDir,
                                    std::uint64_t seed = 42) {
  core::CampaignOptions options;
  options.patterns = {"tab01", "tab04"};
  options.summary = false;
  options.cacheDir = cacheDir.string();
  options.jsonDir = jsonDir.string();
  options.csvDir = csvDir.string();
  options.seed = seed;
  std::ostringstream sink;
  return core::runCampaign(options, sink);
}

TEST(CampaignCache, WarmRerunReplaysEveryCellByteIdentically) {
  const fs::path base = freshDir("tibsim_cache_campaign");
  const auto cold =
      cachedCampaign(base / "cache", base / "j1", base / "c1");
  EXPECT_EQ(cold.cacheHits, 0u);
  EXPECT_EQ(cold.cacheMisses, 2u);
  const auto warm =
      cachedCampaign(base / "cache", base / "j2", base / "c2");
  EXPECT_EQ(warm.cacheHits, 2u);  // 100% of cells replay
  EXPECT_EQ(warm.cacheMisses, 0u);
  ASSERT_EQ(cold.runs.size(), warm.runs.size());
  for (std::size_t i = 0; i < cold.runs.size(); ++i) {
    EXPECT_FALSE(cold.runs[i].fromCache);
    EXPECT_TRUE(warm.runs[i].fromCache);
    EXPECT_EQ(cold.runs[i].json, warm.runs[i].json);
    EXPECT_EQ(cold.runs[i].cells, warm.runs[i].cells);
  }
  EXPECT_EQ(readDir(base / "j1"), readDir(base / "j2"));
  EXPECT_EQ(readDir(base / "c1"), readDir(base / "c2"));
  EXPECT_TRUE(fs::exists(base / "cache" / "index.json"));
  fs::remove_all(base);
}

TEST(CampaignCache, SeedChangeInvalidatesEveryCell) {
  const fs::path base = freshDir("tibsim_cache_seedflip");
  cachedCampaign(base / "cache", base / "j1", base / "c1", 42);
  const auto reseeded =
      cachedCampaign(base / "cache", base / "j2", base / "c2", 43);
  EXPECT_EQ(reseeded.cacheHits, 0u);
  EXPECT_EQ(reseeded.cacheMisses, 2u);
  fs::remove_all(base);
}

TEST(CampaignCache, TraceExportDisablesTheCache) {
  const fs::path base = freshDir("tibsim_cache_traceexport");
  core::CampaignOptions options;
  options.patterns = {"tab01"};
  options.summary = false;
  options.cacheDir = (base / "cache").string();
  options.traceExportDir = (base / "export").string();
  std::ostringstream sink;
  const auto campaign = core::runCampaign(options, sink);
  EXPECT_EQ(campaign.cacheHits, 0u);
  // No cache directory is even created: exported timeline artefacts are
  // written during the run and a replay could not reproduce them.
  EXPECT_FALSE(fs::exists(base / "cache"));
  fs::remove_all(base);
}

}  // namespace
