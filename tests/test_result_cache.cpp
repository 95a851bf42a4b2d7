// The content-addressed result cache: key ingredients flip independently,
// corrupt entries are misses (never trusted), and warm reruns replay
// byte-identically.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <vector>

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
  inputs.verifyCollectives = false;
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
  EXPECT_NE(flipped([](auto& i) { i.verifyCollectives = true; }), key);
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
  EXPECT_EQ(core::executableFingerprint(),
            core::fingerprintFile("/proc/self/exe"));
}

// ---------------------------------------------------------------------------
// File fingerprint
// ---------------------------------------------------------------------------

// Sizes around the 32-byte lane block and the 64 KiB read chunk.
constexpr std::size_t kFingerprintSizes[] = {
    0, 1, 31, 32, 33, 65535, 65536, 65537, 65536 + 33};

std::vector<unsigned char> patternBytes(std::size_t n) {
  std::vector<unsigned char> bytes(n);
  for (std::size_t i = 0; i < n; ++i)
    bytes[i] = static_cast<unsigned char>((i * 131) ^ (i >> 8));
  return bytes;
}

// fingerprintFile() of `bytes` written to a temporary file named `name`.
std::uint64_t fingerprintOf(const std::vector<unsigned char>& bytes,
                            const char* name) {
  const fs::path path = fs::temp_directory_path() / name;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }
  const std::uint64_t digest = core::fingerprintFile(path.string());
  fs::remove(path);
  return digest;
}

TEST(FingerprintFile, SameBytesGiveTheSameNonzeroDigest) {
  for (const std::size_t size : kFingerprintSizes) {
    const std::vector<unsigned char> bytes = patternBytes(size);
    const std::uint64_t digest = fingerprintOf(bytes, "tibsim_fp_same.bin");
    EXPECT_NE(digest, 0u) << size;
    EXPECT_EQ(fingerprintOf(bytes, "tibsim_fp_same.bin"), digest) << size;
  }
}

TEST(FingerprintFile, FlippingAnyOneByteChangesTheDigest) {
  for (const std::size_t size : kFingerprintSizes) {
    const std::vector<unsigned char> bytes = patternBytes(size);
    const std::uint64_t digest = fingerprintOf(bytes, "tibsim_fp_flip.bin");
    std::vector<std::size_t> offsets;
    if (size >= 1) offsets.push_back(0);                // the first byte
    if (size >= 32) offsets.push_back(21);              // inside a block
    if (size % 32 != 0) offsets.push_back(size - 1);    // in the tail
    if (size >= 65536) offsets.push_back(65535);        // before the chunk
    if (size > 65536) offsets.push_back(65536);         // after the chunk
    for (const std::size_t offset : offsets) {
      std::vector<unsigned char> flipped = bytes;
      flipped[offset] ^= 0x01;
      EXPECT_NE(fingerprintOf(flipped, "tibsim_fp_flip.bin"), digest)
          << size << " bytes, offset " << offset;
    }
  }
}

TEST(FingerprintFile, TopBitFlipsInOneLaneDoNotCancel) {
  // Words 32 bytes apart feed the same lane. Without the rotate in the
  // lane round, flipping bit 63 of both cancels: a multiply only carries
  // a difference upward, out of the word.
  const std::vector<unsigned char> bytes = patternBytes(65536 + 33);
  const std::uint64_t digest = fingerprintOf(bytes, "tibsim_fp_top.bin");
  for (const std::size_t word : {0u, 8u, 24u, 65504u}) {
    std::vector<unsigned char> flipped = bytes;
    flipped[word + 7] ^= 0x80;       // bit 63 of a little-endian word
    flipped[word + 32 + 7] ^= 0x80;  // and of the lane's next word
    EXPECT_NE(fingerprintOf(flipped, "tibsim_fp_top.bin"), digest) << word;
  }
}

TEST(FingerprintFile, AppendingAZeroByteChangesTheDigest) {
  for (const std::size_t size : kFingerprintSizes) {
    std::vector<unsigned char> bytes = patternBytes(size);
    const std::uint64_t digest = fingerprintOf(bytes, "tibsim_fp_grow.bin");
    bytes.push_back(0);
    EXPECT_NE(fingerprintOf(bytes, "tibsim_fp_grow.bin"), digest) << size;
  }
}

TEST(FingerprintFile, UnreadablePathGivesZero) {
  const fs::path missing =
      fs::temp_directory_path() / "tibsim_fp_missing" / "no_such_file";
  EXPECT_EQ(core::fingerprintFile(missing.string()), 0u);
  // A directory opens but every read fails.
  EXPECT_EQ(core::fingerprintFile(fs::temp_directory_path().string()), 0u);
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
  run.counters.collectiveChecks = 8;
  ResultSet results;
  results.addMetric("answer", 42.25, "x");
  run.results = results;
  // An entry stores only the document: load() reads the engine and the
  // counters back from it.
  const core::LambdaExperiment experiment(
      "tab01", "r", "t", [](core::ExperimentContext&) { return ResultSet(); });
  run.resultJson = core::resultDocument(experiment, 42, results, &run.engine,
                                        &run.counters);
  return run;
}

// sampleRun() with its result document changed by `edit`.
core::CachedRun editedRun(const std::function<void(json::Value&)>& edit) {
  core::CachedRun run = sampleRun();
  json::Value doc = json::Value::parse(run.resultJson);
  edit(doc);
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
  EXPECT_EQ(loaded->counters.payloadInlineMessages,
            stored.counters.payloadInlineMessages);
  EXPECT_EQ(loaded->counters.payloadPooledMessages,
            stored.counters.payloadPooledMessages);
  EXPECT_EQ(loaded->counters.payloadPoolReuses,
            stored.counters.payloadPoolReuses);
  EXPECT_EQ(loaded->counters.payloadPoolAllocations,
            stored.counters.payloadPoolAllocations);
  EXPECT_EQ(loaded->counters.payloadPoolReturns,
            stored.counters.payloadPoolReturns);
  EXPECT_EQ(loaded->counters.payloadPoolTrimmedBuffers,
            stored.counters.payloadPoolTrimmedBuffers);
  EXPECT_EQ(loaded->counters.payloadPoolLiveHighWater,
            stored.counters.payloadPoolLiveHighWater);
  EXPECT_EQ(loaded->counters.links.uplink.busySeconds, 0.5);
  EXPECT_EQ(loaded->counters.links.uplink.transfers, 77u);
  EXPECT_EQ(loaded->counters.links.uplink.queueDelay.counts[3], 11u);
  EXPECT_EQ(loaded->counters.links.core.transfers, 5u);
  EXPECT_EQ(loaded->counters.criticalPath.waitSeconds, 0.4);
  EXPECT_EQ(loaded->counters.criticalPath.endRank, 2);
  EXPECT_EQ(loaded->counters.collectiveChecks, 8u);
  EXPECT_EQ(loaded->resultJson, stored.resultJson);
  ASSERT_EQ(loaded->results.metrics().size(), 1u);
  EXPECT_EQ(loaded->results.metrics()[0].name, "answer");
  EXPECT_EQ(loaded->results.metrics()[0].value, 42.25);
  // The entry holds the counters once, inside the stored document.
  std::ifstream in(dir / core::ResultCache::entryFileName("tab01",
                                                         "00000000000000ab"));
  std::stringstream entry;
  entry << in.rdbuf();
  const json::Value parsed = json::Value::parse(entry.str());
  std::vector<std::string> members;
  for (const json::Value::Member& member : parsed.members())
    members.push_back(member.first);
  EXPECT_EQ(members, (std::vector<std::string>{"schema", "experiment", "key",
                                               "cells", "resultJson"}));
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
  // Well-formed JSON whose document holds a counter that is not a number.
  cache.store("tab01", "00000000000000ab",
              editedRun([](json::Value& doc) {
                doc["worlds"]["messages"] = "456";
              }));
  EXPECT_FALSE(cache.load("tab01", "00000000000000ab").has_value());
  // A queue-delay edge that is no bucket's lower edge.
  cache.store("tab01", "00000000000000ab",
              editedRun([](json::Value& doc) {
                json::Value bucket = json::Value::array();
                bucket.push(3e-9);  // between the 2 ns and 4 ns edges
                bucket.push(11.0);
                json::Value delay = json::Value::array();
                delay.push(std::move(bucket));
                doc["links"]["uplink"]["queueDelay"] = std::move(delay);
              }));
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

// tab01 and tab04 run no world; hydro_async and imb_suite cover pooled
// payloads, a traced world, all three link classes and critical paths.
core::CampaignResult cachedCampaign(const fs::path& cacheDir,
                                    const fs::path& jsonDir,
                                    const fs::path& csvDir,
                                    std::uint64_t seed = 42,
                                    bool verifyCollectives = false) {
  core::CampaignOptions options;
  options.patterns = {"tab01", "tab04", "hydro_async", "imb_suite"};
  options.summary = false;
  options.cacheDir = cacheDir.string();
  options.jsonDir = jsonDir.string();
  options.csvDir = csvDir.string();
  options.seed = seed;
  options.verifyCollectives = verifyCollectives;
  std::ostringstream sink;
  return core::runCampaign(options, sink);
}

void expectSameLinkKind(const obs::LinkKindCounters& warm,
                        const obs::LinkKindCounters& cold) {
  EXPECT_EQ(warm.busySeconds, cold.busySeconds);
  EXPECT_EQ(warm.bytes, cold.bytes);
  EXPECT_EQ(warm.transfers, cold.transfers);
  EXPECT_EQ(warm.queueSeconds, cold.queueSeconds);
  EXPECT_EQ(warm.maxLinkBusySeconds, cold.maxLinkBusySeconds);
  EXPECT_EQ(warm.queueDelay.counts, cold.queueDelay.counts);
}

// Every warm run is a hit whose document, deterministic engine fields and
// RunCounters, all read back from the cache, equal the cold run's.
void expectWarmReplaysCold(const core::CampaignResult& cold,
                           const core::CampaignResult& warm) {
  EXPECT_EQ(cold.cacheHits, 0u);
  EXPECT_EQ(cold.cacheMisses, 4u);
  EXPECT_EQ(warm.cacheHits, 4u);  // 100% of cells replay
  EXPECT_EQ(warm.cacheMisses, 0u);
  ASSERT_EQ(cold.runs.size(), warm.runs.size());
  for (std::size_t i = 0; i < cold.runs.size(); ++i) {
    const core::ExperimentRun& c = cold.runs[i];
    const core::ExperimentRun& w = warm.runs[i];
    SCOPED_TRACE(c.name);
    EXPECT_FALSE(c.fromCache);
    EXPECT_TRUE(w.fromCache);
    EXPECT_EQ(c.json, w.json);
    EXPECT_EQ(c.cells, w.cells);
    EXPECT_EQ(w.engine.eventsDispatched, c.engine.eventsDispatched);
    EXPECT_EQ(w.engine.contextSwitches, c.engine.contextSwitches);
    EXPECT_EQ(w.engine.processesSpawned, c.engine.processesSpawned);
    EXPECT_EQ(w.engine.peakLiveProcesses, c.engine.peakLiveProcesses);
    EXPECT_EQ(w.engine.queueHighWater, c.engine.queueHighWater);
    EXPECT_EQ(w.engine.simSeconds, c.engine.simSeconds);
    EXPECT_EQ(w.counters.worlds, c.counters.worlds);
    EXPECT_EQ(w.counters.messages, c.counters.messages);
    EXPECT_EQ(w.counters.collectiveChecks, c.counters.collectiveChecks);
    EXPECT_EQ(w.counters.payloadBytes, c.counters.payloadBytes);
    EXPECT_EQ(w.counters.wireBytes, c.counters.wireBytes);
    EXPECT_EQ(w.counters.spansRecorded, c.counters.spansRecorded);
    EXPECT_EQ(w.counters.spansRetained, c.counters.spansRetained);
    EXPECT_EQ(w.counters.traceMemoryPeakBytes,
              c.counters.traceMemoryPeakBytes);
    EXPECT_EQ(w.counters.payloadInlineMessages,
              c.counters.payloadInlineMessages);
    EXPECT_EQ(w.counters.payloadPooledMessages,
              c.counters.payloadPooledMessages);
    EXPECT_EQ(w.counters.payloadPoolReuses, c.counters.payloadPoolReuses);
    EXPECT_EQ(w.counters.payloadPoolAllocations,
              c.counters.payloadPoolAllocations);
    EXPECT_EQ(w.counters.payloadPoolReturns, c.counters.payloadPoolReturns);
    EXPECT_EQ(w.counters.payloadPoolTrimmedBuffers,
              c.counters.payloadPoolTrimmedBuffers);
    EXPECT_EQ(w.counters.payloadPoolLiveHighWater,
              c.counters.payloadPoolLiveHighWater);
    expectSameLinkKind(w.counters.links.uplink, c.counters.links.uplink);
    expectSameLinkKind(w.counters.links.core, c.counters.links.core);
    expectSameLinkKind(w.counters.links.downlink, c.counters.links.downlink);
    const obs::CriticalPath& wp = w.counters.criticalPath;
    const obs::CriticalPath& cp = c.counters.criticalPath;
    EXPECT_EQ(wp.computeSeconds, cp.computeSeconds);
    EXPECT_EQ(wp.sendSeconds, cp.sendSeconds);
    EXPECT_EQ(wp.recvSeconds, cp.recvSeconds);
    EXPECT_EQ(wp.linkSeconds, cp.linkSeconds);
    EXPECT_EQ(wp.waitSeconds, cp.waitSeconds);
    EXPECT_EQ(wp.edges, cp.edges);
    EXPECT_EQ(wp.endRank, cp.endRank);
  }
}

TEST(CampaignCache, WarmRerunReplaysEveryCellByteIdentically) {
  const fs::path base = freshDir("tibsim_cache_campaign");
  const auto cold =
      cachedCampaign(base / "cache", base / "j1", base / "c1");
  const auto warm =
      cachedCampaign(base / "cache", base / "j2", base / "c2");
  expectWarmReplaysCold(cold, warm);
  // The replayed counters are not all defaults: the worlds traced spans,
  // pooled payloads, queued on links and formed critical paths.
  obs::RunCounters total;
  for (const core::ExperimentRun& run : cold.runs)
    total.accumulate(run.counters);
  EXPECT_GT(total.spansRecorded, 0u);
  EXPECT_GT(total.payloadPoolReuses, 0u);
  EXPECT_GT(total.links.core.transfers, 0u);
  EXPECT_GT(total.links.downlink.queueDelay.total(), 0u);
  EXPECT_GT(total.criticalPath.edges, 0u);
  EXPECT_EQ(readDir(base / "j1"), readDir(base / "j2"));
  EXPECT_EQ(readDir(base / "c1"), readDir(base / "c2"));
  EXPECT_TRUE(fs::exists(base / "cache" / "index.json"));
  // A verified pair keys apart from the unverified one, and its
  // collectiveChecks replay too.
  const auto verifiedCold =
      cachedCampaign(base / "cache", base / "j3", base / "c3", 42, true);
  const auto verifiedWarm =
      cachedCampaign(base / "cache", base / "j4", base / "c4", 42, true);
  expectWarmReplaysCold(verifiedCold, verifiedWarm);
  std::uint64_t checks = 0;
  for (const core::ExperimentRun& run : verifiedWarm.runs)
    checks += run.counters.collectiveChecks;
  EXPECT_GT(checks, 0u);
  EXPECT_EQ(readDir(base / "j3"), readDir(base / "j4"));
  EXPECT_EQ(readDir(base / "c3"), readDir(base / "c4"));
  fs::remove_all(base);
}

TEST(CampaignCache, SeedChangeInvalidatesEveryCell) {
  const fs::path base = freshDir("tibsim_cache_seedflip");
  cachedCampaign(base / "cache", base / "j1", base / "c1", 42);
  const auto reseeded =
      cachedCampaign(base / "cache", base / "j2", base / "c2", 43);
  EXPECT_EQ(reseeded.cacheHits, 0u);
  EXPECT_EQ(reseeded.cacheMisses, 4u);
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
