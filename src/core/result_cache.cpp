#include "tibsim/core/result_cache.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "tibsim/arch/table1.hpp"
#include "tibsim/common/assert.hpp"
#include "tibsim/common/json.hpp"

namespace tibsim::core {

namespace {

namespace fs = std::filesystem;

// --- hashing -----------------------------------------------------------------

void hashOperatingPoints(CacheHasher& h, const arch::table1::SocSpec& soc) {
  h.u64(soc.dvfsCount);
  for (std::size_t i = 0; i < soc.dvfsCount; ++i) {
    h.f64(soc.dvfs[i].frequencyHz);
    h.f64(soc.dvfs[i].voltage);
  }
}

void hashSpec(CacheHasher& h, const arch::table1::PlatformSpec& p) {
  h.str(p.name);
  h.str(p.shortName);
  h.str(p.socName);
  const arch::table1::SocSpec& soc = p.soc;
  h.i64(static_cast<long long>(soc.core.microarch));
  h.f64(soc.core.fp64FlopsPerCycle);
  h.i64(soc.core.maxOutstandingMisses);
  h.f64(soc.core.issueWidth);
  h.boolean(soc.core.outOfOrder);
  h.i64(soc.cores);
  h.i64(soc.threadsPerCore);
  h.u64(soc.cacheCount);
  for (std::size_t i = 0; i < soc.cacheCount; ++i) {
    h.u64(soc.caches[i].sizeBytes);
    h.boolean(soc.caches[i].shared);
  }
  const arch::MemorySystemModel& m = soc.memory;
  h.i64(m.channels);
  h.i64(m.widthBits);
  h.f64(m.frequencyHz);
  h.f64(m.peakBandwidthBytesPerS);
  h.boolean(m.eccCapable);
  h.f64(m.streamEfficiency);
  h.f64(m.singleCoreBandwidthBytesPerS);
  h.boolean(soc.computeCapableGpu);
  hashOperatingPoints(h, soc);
  h.f64(p.dramBytes);
  h.str(p.dramType);
  h.i64(static_cast<long long>(p.nicAttachment));
  h.f64(p.nicLinkRateBytesPerS);
  h.f64(p.power.boardStaticW);
  h.f64(p.power.socStaticW);
  h.f64(p.power.corePeakDynamicW);
  h.f64(p.power.memDynamicWPerGBs);
  h.f64(p.power.nicActiveW);
}

std::uint64_t computeExecutableFingerprint() {
  std::ifstream exe("/proc/self/exe", std::ios::binary);
  if (!exe.good()) return 0;
  CacheHasher h;
  char buffer[65536];
  std::uint64_t total = 0;
  while (exe.read(buffer, sizeof buffer) || exe.gcount() > 0) {
    const std::streamsize n = exe.gcount();
    h.bytes(buffer, static_cast<std::size_t>(n));
    total += static_cast<std::uint64_t>(n);
    if (n < static_cast<std::streamsize>(sizeof buffer)) break;
  }
  h.u64(total);
  return h.digest();
}

// --- entry (de)serialisation -------------------------------------------------
//
// Doubles are emitted through json::Value (shortest-round-trip) and parse
// back to the exact bit pattern, so counters reconstructed from an entry
// regenerate byte-identical CSV artefacts. Integer counters are stored as
// JSON numbers; every counter in the artefacts is far below 2^53.

json::Value engineToJson(const sim::EngineStats& e) {
  json::Value v = json::Value::object();
  v["eventsDispatched"] = static_cast<double>(e.eventsDispatched);
  v["contextSwitches"] = static_cast<double>(e.contextSwitches);
  v["processesSpawned"] = static_cast<double>(e.processesSpawned);
  v["peakLiveProcesses"] = static_cast<double>(e.peakLiveProcesses);
  v["queueHighWater"] = static_cast<double>(e.queueHighWater);
  v["simSeconds"] = e.simSeconds;
  return v;
}

double member(const json::Value& v, const char* key) {
  const json::Value* m = v.find(key);
  TIB_REQUIRE_MSG(m != nullptr && m->isNumber(),
                  std::string("cache entry missing number \"") + key + "\"");
  return m->asDouble();
}

sim::EngineStats engineFromJson(const json::Value& v) {
  sim::EngineStats e;
  e.eventsDispatched = static_cast<std::uint64_t>(member(v, "eventsDispatched"));
  e.contextSwitches = static_cast<std::uint64_t>(member(v, "contextSwitches"));
  e.processesSpawned = static_cast<std::uint64_t>(member(v, "processesSpawned"));
  e.peakLiveProcesses =
      static_cast<std::size_t>(member(v, "peakLiveProcesses"));
  e.queueHighWater = static_cast<std::size_t>(member(v, "queueHighWater"));
  e.simSeconds = member(v, "simSeconds");
  return e;
}

json::Value linkKindToJson(const obs::LinkKindCounters& kind) {
  json::Value v = json::Value::object();
  v["busySeconds"] = kind.busySeconds;
  v["bytes"] = kind.bytes;
  v["transfers"] = static_cast<double>(kind.transfers);
  v["queueSeconds"] = kind.queueSeconds;
  v["maxLinkBusySeconds"] = kind.maxLinkBusySeconds;
  json::Value delay = json::Value::array();
  for (int b = 0; b < obs::DurationHistogram::kBuckets; ++b) {
    const std::uint64_t count =
        kind.queueDelay.counts[static_cast<std::size_t>(b)];
    if (count == 0) continue;
    json::Value bucket = json::Value::array();
    bucket.push(static_cast<double>(b));
    bucket.push(static_cast<double>(count));
    delay.push(std::move(bucket));
  }
  v["queueDelay"] = std::move(delay);
  return v;
}

obs::LinkKindCounters linkKindFromJson(const json::Value& v) {
  obs::LinkKindCounters kind;
  kind.busySeconds = member(v, "busySeconds");
  kind.bytes = member(v, "bytes");
  kind.transfers = static_cast<std::uint64_t>(member(v, "transfers"));
  kind.queueSeconds = member(v, "queueSeconds");
  kind.maxLinkBusySeconds = member(v, "maxLinkBusySeconds");
  const json::Value* delay = v.find("queueDelay");
  TIB_REQUIRE_MSG(delay != nullptr && delay->isArray(),
                  "cache entry missing queueDelay");
  for (const json::Value& bucket : delay->items()) {
    TIB_REQUIRE_MSG(bucket.isArray() && bucket.size() == 2,
                    "malformed queueDelay bucket");
    const int b = static_cast<int>(bucket.at(0).asDouble());
    TIB_REQUIRE_MSG(b >= 0 && b < obs::DurationHistogram::kBuckets,
                    "queueDelay bucket out of range");
    kind.queueDelay.counts[static_cast<std::size_t>(b)] =
        static_cast<std::uint64_t>(bucket.at(1).asDouble());
  }
  return kind;
}

json::Value countersToJson(const obs::RunCounters& c) {
  json::Value v = json::Value::object();
  v["worlds"] = static_cast<double>(c.worlds);
  v["messages"] = static_cast<double>(c.messages);
  v["collectiveChecks"] = static_cast<double>(c.collectiveChecks);
  v["payloadBytes"] = c.payloadBytes;
  v["wireBytes"] = c.wireBytes;
  v["spansRecorded"] = static_cast<double>(c.spansRecorded);
  v["spansRetained"] = static_cast<double>(c.spansRetained);
  v["traceMemoryPeakBytes"] = static_cast<double>(c.traceMemoryPeakBytes);
  v["payloadInlineMessages"] = static_cast<double>(c.payloadInlineMessages);
  v["payloadPooledMessages"] = static_cast<double>(c.payloadPooledMessages);
  v["payloadPoolReuses"] = static_cast<double>(c.payloadPoolReuses);
  v["payloadPoolAllocations"] =
      static_cast<double>(c.payloadPoolAllocations);
  v["payloadPoolReturns"] = static_cast<double>(c.payloadPoolReturns);
  v["payloadPoolTrimmedBuffers"] =
      static_cast<double>(c.payloadPoolTrimmedBuffers);
  v["payloadPoolLiveHighWater"] =
      static_cast<double>(c.payloadPoolLiveHighWater);
  json::Value classes = json::Value::array();
  for (const obs::PayloadClassCounters& cls : c.payloadPoolClasses) {
    json::Value row = json::Value::array();
    row.push(static_cast<double>(cls.classBytes));
    row.push(static_cast<double>(cls.acquires));
    row.push(static_cast<double>(cls.reuses));
    row.push(static_cast<double>(cls.allocations));
    row.push(static_cast<double>(cls.parked));
    classes.push(std::move(row));
  }
  v["payloadPoolClasses"] = std::move(classes);
  json::Value links = json::Value::object();
  links["uplink"] = linkKindToJson(c.links.uplink);
  links["core"] = linkKindToJson(c.links.core);
  links["downlink"] = linkKindToJson(c.links.downlink);
  v["links"] = std::move(links);
  json::Value path = json::Value::object();
  path["computeSeconds"] = c.criticalPath.computeSeconds;
  path["sendSeconds"] = c.criticalPath.sendSeconds;
  path["recvSeconds"] = c.criticalPath.recvSeconds;
  path["linkSeconds"] = c.criticalPath.linkSeconds;
  path["waitSeconds"] = c.criticalPath.waitSeconds;
  path["edges"] = static_cast<double>(c.criticalPath.edges);
  path["endRank"] = c.criticalPath.endRank;
  v["criticalPath"] = std::move(path);
  return v;
}

obs::RunCounters countersFromJson(const json::Value& v) {
  obs::RunCounters c;
  c.worlds = static_cast<std::uint64_t>(member(v, "worlds"));
  c.messages = static_cast<std::uint64_t>(member(v, "messages"));
  // Optional: entries written before the collective verifier existed lack
  // it (they can never hit the new key, but fail softly regardless).
  const json::Value* checks = v.find("collectiveChecks");
  c.collectiveChecks = checks != nullptr && checks->isNumber()
                           ? static_cast<std::uint64_t>(checks->asDouble())
                           : 0;
  c.payloadBytes = member(v, "payloadBytes");
  c.wireBytes = member(v, "wireBytes");
  c.spansRecorded = static_cast<std::uint64_t>(member(v, "spansRecorded"));
  c.spansRetained = static_cast<std::uint64_t>(member(v, "spansRetained"));
  c.traceMemoryPeakBytes =
      static_cast<std::uint64_t>(member(v, "traceMemoryPeakBytes"));
  c.payloadInlineMessages =
      static_cast<std::uint64_t>(member(v, "payloadInlineMessages"));
  c.payloadPooledMessages =
      static_cast<std::uint64_t>(member(v, "payloadPooledMessages"));
  c.payloadPoolReuses =
      static_cast<std::uint64_t>(member(v, "payloadPoolReuses"));
  c.payloadPoolAllocations =
      static_cast<std::uint64_t>(member(v, "payloadPoolAllocations"));
  c.payloadPoolReturns =
      static_cast<std::uint64_t>(member(v, "payloadPoolReturns"));
  c.payloadPoolTrimmedBuffers =
      static_cast<std::uint64_t>(member(v, "payloadPoolTrimmedBuffers"));
  c.payloadPoolLiveHighWater =
      static_cast<std::uint64_t>(member(v, "payloadPoolLiveHighWater"));
  const json::Value* classes = v.find("payloadPoolClasses");
  TIB_REQUIRE_MSG(classes != nullptr && classes->isArray(),
                  "cache entry missing payloadPoolClasses");
  for (const json::Value& row : classes->items()) {
    TIB_REQUIRE_MSG(row.isArray() && row.size() == 5,
                    "malformed payloadPoolClasses row");
    obs::PayloadClassCounters cls;
    cls.classBytes = static_cast<std::size_t>(row.at(0).asDouble());
    cls.acquires = static_cast<std::uint64_t>(row.at(1).asDouble());
    cls.reuses = static_cast<std::uint64_t>(row.at(2).asDouble());
    cls.allocations = static_cast<std::uint64_t>(row.at(3).asDouble());
    cls.parked = static_cast<std::uint64_t>(row.at(4).asDouble());
    c.payloadPoolClasses.push_back(cls);
  }
  const json::Value* links = v.find("links");
  TIB_REQUIRE_MSG(links != nullptr && links->isObject(),
                  "cache entry missing links");
  const auto kind = [&](const char* key) {
    const json::Value* k = links->find(key);
    TIB_REQUIRE_MSG(k != nullptr, std::string("missing link kind ") + key);
    return linkKindFromJson(*k);
  };
  c.links.uplink = kind("uplink");
  c.links.core = kind("core");
  c.links.downlink = kind("downlink");
  const json::Value* path = v.find("criticalPath");
  TIB_REQUIRE_MSG(path != nullptr && path->isObject(),
                  "cache entry missing criticalPath");
  c.criticalPath.computeSeconds = member(*path, "computeSeconds");
  c.criticalPath.sendSeconds = member(*path, "sendSeconds");
  c.criticalPath.recvSeconds = member(*path, "recvSeconds");
  c.criticalPath.linkSeconds = member(*path, "linkSeconds");
  c.criticalPath.waitSeconds = member(*path, "waitSeconds");
  c.criticalPath.edges = static_cast<std::uint64_t>(member(*path, "edges"));
  c.criticalPath.endRank = static_cast<int>(member(*path, "endRank"));
  return c;
}

void writeFileAtomic(const fs::path& finalPath, const std::string& text) {
  const fs::path tmp =
      finalPath.string() + ".tmp." + std::to_string(::getpid());
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    TIB_REQUIRE_MSG(out.good(), "cannot open " + tmp.string());
    out << text;
    out.flush();
    TIB_REQUIRE_MSG(out.good(), "cannot write " + tmp.string());
  }
  fs::rename(tmp, finalPath);  // atomic within one directory
}

}  // namespace

void CacheHasher::bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    hash_ ^= p[i];
    hash_ *= 1099511628211ULL;  // FNV prime
  }
}

void CacheHasher::u64(std::uint64_t v) {
  unsigned char raw[8];
  for (int i = 0; i < 8; ++i)
    raw[i] = static_cast<unsigned char>((v >> (8 * i)) & 0xff);
  bytes(raw, sizeof raw);
}

void CacheHasher::f64(double v) {
  std::uint64_t raw = 0;
  static_assert(sizeof raw == sizeof v);
  std::memcpy(&raw, &v, sizeof raw);
  u64(raw);
}

void CacheHasher::str(const std::string& s) {
  u64(s.size());
  bytes(s.data(), s.size());
}

std::uint64_t hashPlatformSpecs() {
  CacheHasher h;
  h.u64(arch::table1::kAll.size());
  for (const arch::table1::PlatformSpec* spec : arch::table1::kAll)
    hashSpec(h, *spec);
  return h.digest();
}

std::uint64_t executableFingerprint() {
  // Computed once per process: the binary cannot change under a running
  // campaign, and hashing it costs a full read of the executable.
  static const std::uint64_t fingerprint = computeExecutableFingerprint();
  return fingerprint;
}

std::string cacheKey(const CacheKeyInputs& inputs) {
  CacheHasher h;
  h.str(kResultCacheSchema);
  h.str(inputs.experiment);
  h.str(inputs.versionTag);
  h.u64(inputs.seed);
  h.str(inputs.traceMode);
  h.boolean(inputs.stallReport);
  h.boolean(inputs.verifyCollectives);
  h.u64(inputs.platformSpecHash);
  h.u64(inputs.binaryFingerprint);
  const std::uint64_t digest = h.digest();
  std::string hex(16, '0');
  for (int i = 0; i < 16; ++i)
    hex[static_cast<std::size_t>(i)] =
        "0123456789abcdef"[(digest >> (60 - 4 * i)) & 0xf];
  return hex;
}

ResultCache::ResultCache(std::string dir) : dir_(std::move(dir)) {
  TIB_REQUIRE_MSG(!dir_.empty(), "result cache directory must be non-empty");
}

std::string ResultCache::entryFileName(const std::string& experiment,
                                       const std::string& key) {
  return experiment + "-" + key + ".json";
}

std::optional<CachedRun> ResultCache::load(const std::string& experiment,
                                           const std::string& key) const {
  const fs::path path = fs::path(dir_) / entryFileName(experiment, key);
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return std::nullopt;  // plain miss
  std::ostringstream buffer;
  buffer << in.rdbuf();
  // From here on, every defect — truncation, malformed JSON, a missing or
  // mistyped member, a stale schema — is treated as a miss so the caller
  // recomputes and overwrites the entry. A cache must never be trusted
  // over the simulator.
  try {
    const json::Value doc = json::Value::parse(buffer.str());
    const json::Value* schema = doc.find("schema");
    const json::Value* name = doc.find("experiment");
    const json::Value* storedKey = doc.find("key");
    if (schema == nullptr || schema->asString() != kResultCacheSchema)
      return std::nullopt;
    if (name == nullptr || name->asString() != experiment) return std::nullopt;
    if (storedKey == nullptr || storedKey->asString() != key)
      return std::nullopt;
    CachedRun run;
    run.cells = static_cast<std::size_t>(member(doc, "cells"));
    const json::Value* engine = doc.find("engine");
    const json::Value* counters = doc.find("counters");
    const json::Value* resultJson = doc.find("resultJson");
    if (engine == nullptr || counters == nullptr || resultJson == nullptr)
      return std::nullopt;
    run.engine = engineFromJson(*engine);
    run.counters = countersFromJson(*counters);
    run.resultJson = resultJson->asString();
    const json::Value resultDoc = json::Value::parse(run.resultJson);
    const json::Value* results = resultDoc.find("results");
    if (results == nullptr) return std::nullopt;
    run.results = ResultSet::fromJson(*results);
    return run;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

void ResultCache::store(const std::string& experiment, const std::string& key,
                        const CachedRun& run) const {
  fs::create_directories(dir_);
  json::Value doc = json::Value::object();
  doc["schema"] = kResultCacheSchema;
  doc["experiment"] = experiment;
  doc["key"] = key;
  doc["cells"] = static_cast<double>(run.cells);
  doc["engine"] = engineToJson(run.engine);
  doc["counters"] = countersToJson(run.counters);
  doc["resultJson"] = run.resultJson;
  writeFileAtomic(fs::path(dir_) / entryFileName(experiment, key),
                  doc.dump(2) + "\n");
}

void ResultCache::writeIndex() const {
  if (!fs::is_directory(dir_)) return;
  // Directory iteration order is filesystem-defined; collect and sort so
  // the index bytes are a function of the cache content alone.
  std::vector<std::string> names;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir_)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name == "index.json") continue;
    if (name.size() < 5 || name.rfind(".json") != name.size() - 5) continue;
    names.push_back(name);
  }
  std::sort(names.begin(), names.end());
  json::Value index = json::Value::object();
  index["schema"] = "socbench-cache-index-v1";
  json::Value entries = json::Value::array();
  for (const std::string& name : names) {
    std::ifstream in(fs::path(dir_) / name, std::ios::binary);
    if (!in.good()) continue;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    try {
      const json::Value doc = json::Value::parse(buffer.str());
      const json::Value* schema = doc.find("schema");
      const json::Value* experiment = doc.find("experiment");
      const json::Value* key = doc.find("key");
      if (schema == nullptr || schema->asString() != kResultCacheSchema)
        continue;
      if (experiment == nullptr || key == nullptr) continue;
      json::Value row = json::Value::object();
      row["file"] = name;
      row["experiment"] = experiment->asString();
      row["key"] = key->asString();
      entries.push(std::move(row));
    } catch (const std::exception&) {
      continue;  // invalid entries are invisible to the index
    }
  }
  index["entries"] = std::move(entries);
  writeFileAtomic(fs::path(dir_) / "index.json", index.dump(2) + "\n");
}

}  // namespace tibsim::core
