#include "tibsim/core/result_cache.hpp"

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <type_traits>

#include "counter_fields.hpp"
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

// xxHash64's primes. kPrime1 is odd, so multiplying by it is a bijection.
constexpr std::uint64_t kPrime1 = 0x9E3779B185EBCA87ULL;
constexpr std::uint64_t kPrime2 = 0xC2B2AE3D27D4EB4FULL;
constexpr std::size_t kLanes = 4;
constexpr std::size_t kBlockBytes = kLanes * sizeof(std::uint64_t);

// One lane step, xxHash64's round. For a fixed word it is a bijection of
// `acc`, so a lane that sees one different word ends different. The rotate
// matters: a multiply only carries differences upward, so without it two
// bit-63 flips fed to one lane (words 32 bytes apart) cancel.
std::uint64_t laneRound(std::uint64_t acc, std::uint64_t word) {
  return std::rotl(acc + word * kPrime2, 31) * kPrime1;
}

// --- entry deserialisation ---------------------------------------------------
//
// An entry stores only the cold run's result document. A hit reads the
// engine and world counters back from the document's own objects through
// the field lists the writers use (counter_fields.hpp). json::Value prints
// shortest-round-trip numbers, so every double parses back to its exact
// bit pattern, and every integer counter in the artefacts is far below
// 2^53. Any defect throws, and load() turns that into a miss.

double member(const json::Value& v, const char* key) {
  const json::Value* m = v.find(key);
  TIB_REQUIRE_MSG(m != nullptr && m->isNumber(),
                  std::string("cache entry missing number \"") + key + "\"");
  return m->asDouble();
}

template <typename Record, typename Fields>
void readFields(const json::Value& object, Record& record, Fields fields) {
  fields(record, [&object](const char* name, auto& field) {
    field = static_cast<std::remove_reference_t<decltype(field)>>(
        member(object, name));
  });
}

void readLinkKind(const json::Value& object, obs::LinkKindCounters& kind) {
  readFields(object, kind, fields::linkKind);
  const json::Value* delay = object.find(fields::queueDelay);
  TIB_REQUIRE_MSG(delay != nullptr, "cache entry missing queueDelay");
  for (const json::Value& bucket : delay->items()) {
    TIB_REQUIRE_MSG(bucket.size() == 2, "malformed queueDelay bucket");
    const double lowerSeconds = bucket.at(0).asDouble();
    int b = 0;
    while (b < obs::DurationHistogram::kBuckets &&
           obs::DurationHistogram::bucketLowerSeconds(b) != lowerSeconds)
      ++b;
    TIB_REQUIRE_MSG(b < obs::DurationHistogram::kBuckets,
                    "queueDelay edge matches no bucket");
    kind.queueDelay.counts[static_cast<std::size_t>(b)] =
        static_cast<std::uint64_t>(bucket.at(1).asDouble());
  }
}

// The engine and counters a result document reports. A record the
// document omits had nothing to report and reads as its defaults.
void readCounters(const json::Value& doc, CachedRun& run) {
  if (const json::Value* engine = doc.find("engine"))
    readFields(*engine, run.engine, fields::engine);
  obs::RunCounters& counters = run.counters;
  if (const json::Value* worlds = doc.find("worlds")) {
    readFields(*worlds, counters, fields::worlds);
    if (worlds->find(fields::collectiveChecks) != nullptr)
      counters.collectiveChecks = static_cast<std::uint64_t>(
          member(*worlds, fields::collectiveChecks));
  }
  if (const json::Value* links = doc.find("links")) {
    fields::linkKinds(counters.links, [links](const char* name,
                                              obs::LinkKindCounters& kind) {
      const json::Value* object = links->find(name);
      TIB_REQUIRE_MSG(object != nullptr,
                      std::string("cache entry missing link kind ") + name);
      readLinkKind(*object, kind);
    });
  }
  if (const json::Value* path = doc.find("criticalPath"))
    readFields(*path, counters.criticalPath, fields::criticalPath);
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

std::uint64_t fingerprintFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return 0;
  // xxHash64's lane seeds for seed 0: four distinct starting points.
  std::uint64_t lanes[kLanes] = {kPrime1 + kPrime2, kPrime2, 0, 0 - kPrime1};
  // A multiple of the block, so only the file's last chunk has a tail.
  char buffer[65536];
  static_assert(sizeof buffer % kBlockBytes == 0);
  std::uint64_t total = 0;
  std::size_t n = 0;
  std::size_t whole = 0;  // the bytes of the chunk in complete blocks
  do {
    in.read(buffer, sizeof buffer);
    n = static_cast<std::size_t>(in.gcount());
    total += n;
    whole = n - n % kBlockBytes;
    for (std::size_t block = 0; block < whole; block += kBlockBytes) {
      for (std::size_t lane = 0; lane < kLanes; ++lane) {
        // A host-order word: little-endian on both supported ISAs, and a
        // fingerprint is only ever compared with the same binary's.
        std::uint64_t w = 0;
        std::memcpy(&w, buffer + block + lane * sizeof w, sizeof w);
        lanes[lane] = laneRound(lanes[lane], w);
      }
    }
  } while (n == sizeof buffer);
  if (in.bad()) return 0;  // a read failed: the digest would cover a prefix
  CacheHasher h;
  for (const std::uint64_t lane : lanes) h.u64(lane);
  h.bytes(buffer + whole, n - whole);
  h.u64(total);
  const std::uint64_t digest = h.digest();
  return digest == 0 ? 1 : digest;  // 0 means "could not read"
}

std::uint64_t executableFingerprint() {
  // Computed once per process: the binary cannot change under a running
  // campaign, and hashing it costs a full read of the executable.
  static const std::uint64_t fingerprint = fingerprintFile("/proc/self/exe");
  return fingerprint;
}

std::string cacheKey(const CacheKeyInputs& inputs) {
  CacheHasher h;
  h.str(kResultCacheSchema);
  h.str(inputs.experiment);
  h.str(inputs.versionTag);
  h.u64(inputs.seed);
  h.str(inputs.traceMode);
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
    const json::Value* resultJson = doc.find("resultJson");
    if (resultJson == nullptr) return std::nullopt;
    run.resultJson = resultJson->asString();
    const json::Value resultDoc = json::Value::parse(run.resultJson);
    const json::Value* results = resultDoc.find("results");
    if (results == nullptr) return std::nullopt;
    run.results = ResultSet::fromJson(*results);
    readCounters(resultDoc, run);
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
