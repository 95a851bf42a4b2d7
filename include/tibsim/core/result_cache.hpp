#pragma once
// Content-addressed result cache for the socbench campaign driver.
//
// Each experiment cell is keyed by a stable 64-bit digest over everything
// that could change its byte-exact artefacts: the experiment name and its
// version tag, the constexpr Table-1 platform-spec *bytes* (arch/table1.hpp
// field values, not version strings), the campaign seed, the
// trace/verify campaign options, and a fingerprint of the running
// executable's bytes (no fingerprint, no cache). An entry is {schema,
// experiment, key, cells, resultJson}: the cell's result document, stored
// once and verbatim. On a hit the document replays byte-identically, and
// the engine counters and world accounting are read back from its own
// engine/worlds/links/criticalPath objects. On a miss the freshly computed
// cell is stored atomically (write-temp + rename) so campaigns sharing a
// cache directory never see torn entries. A corrupt or truncated entry is
// indistinguishable from a miss: load() validates the whole document and
// returns nothing rather than trusting partial bytes.
//
// Everything here is host-side I/O running on the campaign's host threads
// (never inside fiber-run simulation code), so host clocks/getpid are fine;
// determinism obligations are only that replayed artefacts match a fresh
// run byte-for-byte, which holds because the document's numbers are exact
// round-trip JSON numbers.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "tibsim/common/result_set.hpp"
#include "tibsim/obs/run_counters.hpp"
#include "tibsim/sim/engine_stats.hpp"

namespace tibsim::core {

/// Entry/index schema tag; bump to invalidate every existing cache entry
/// (it participates in the key, so old entries simply stop matching).
inline constexpr const char* kResultCacheSchema = "socbench-cache-v1";

/// FNV-1a 64-bit over an explicit byte stream. Strings are length-prefixed
/// and numbers are folded as fixed-width little-endian bytes, so distinct
/// ingredient sequences cannot collide by concatenation.
class CacheHasher {
 public:
  void bytes(const void* data, std::size_t n);
  void u64(std::uint64_t v);
  void f64(double v);  ///< bit pattern, so -0.0 and 0.0 differ
  void i64(long long v) { u64(static_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u64(v ? 1 : 0); }
  void str(const std::string& s);
  std::uint64_t digest() const { return hash_; }

 private:
  std::uint64_t hash_ = 1469598103934665603ULL;  // FNV offset basis
};

/// Every ingredient of one cell's cache key. The caller resolves the
/// effective settings (after --trace-mode/--verify-collectives overrides
/// and environment defaults) so "--trace-mode full" and an
/// unset flag that defaults to full produce the same key.
struct CacheKeyInputs {
  std::string experiment;   ///< registry name
  std::string versionTag;   ///< Experiment::versionTag()
  std::uint64_t seed = 0;   ///< campaign seed (pre experiment mixing)
  std::string traceMode;    ///< resolved trace mode name
  bool verifyCollectives = false;  ///< resolved collective-verifier arming
  std::uint64_t platformSpecHash = 0;  ///< hashPlatformSpecs()
  std::uint64_t binaryFingerprint = 0; ///< executableFingerprint()
};

/// Digest of every constexpr platform spec in arch/table1.hpp, folded
/// field by field in Table-1 order. Any edited spec number — a frequency,
/// a cache size, a power parameter — changes this hash and therefore
/// invalidates every cached cell, without trusting any version string.
std::uint64_t hashPlatformSpecs();

/// Digest of a file's bytes, streamed through a 64 KiB buffer: four
/// 64-bit word lanes over each 32-byte block, then the lanes, the last
/// < 32 bytes and the byte count folded through CacheHasher. A change to
/// one word always leaves its lane different. Returns 0 when the file
/// cannot be opened or read to its end; a digest that comes out as 0 is
/// returned as 1.
std::uint64_t fingerprintFile(const std::string& path);

/// fingerprintFile() of the running executable (/proc/self/exe), computed
/// once per process. A rebuilt binary — new code, new compiler, new flags
/// — never replays stale cells. 0 means the executable could not be read
/// (a host without procfs); runCampaign then runs uncached, because a
/// shared fingerprint of 0 would let every binary on that host replay
/// every other binary's cells.
std::uint64_t executableFingerprint();

/// The cell's content address: 16 lowercase hex digits.
std::string cacheKey(const CacheKeyInputs& inputs);

/// Everything needed to replay one experiment cell byte-identically: the
/// result document verbatim, and what load() reads back from it — the
/// ResultSet (for CSV/compat rendering), the deterministic engine counters
/// and the world accounting (for the __engine/__worlds/__links CSV
/// artefacts and the run summary). store() writes only `cells` and
/// `resultJson`. Host-only measurements (wall clock, stack high-water) are
/// deliberately absent — a replayed cell ran no engine.
struct CachedRun {
  std::size_t cells = 0;
  sim::EngineStats engine;    ///< deterministic fields only
  obs::RunCounters counters;  ///< defaults where the document omits a record
  ResultSet results;
  std::string resultJson;     ///< the cold run's document, byte-exact
};

class ResultCache {
 public:
  explicit ResultCache(std::string dir);

  const std::string& dir() const { return dir_; }

  /// Entry file name for a cell ("<experiment>-<key>.json").
  static std::string entryFileName(const std::string& experiment,
                                   const std::string& key);

  /// Replay a cell. Returns nothing on a miss, on a truncated/corrupt
  /// entry, or on any schema/field mismatch (including a counter that is
  /// not a number, or a queueDelay edge that is no bucket's lower edge) —
  /// a bad entry is never trusted and the caller recomputes (and
  /// overwrites) it.
  std::optional<CachedRun> load(const std::string& experiment,
                                const std::string& key) const;

  /// Store a freshly computed cell's `cells` and `resultJson` (the
  /// document carries the counters) atomically: the entry is written to a
  /// temp file in the cache directory and renamed into place, so a
  /// concurrent reader sees either the old bytes or the new bytes, never
  /// a prefix. Creates the directory on first use.
  void store(const std::string& experiment, const std::string& key,
             const CachedRun& run) const;

  /// Rewrite <dir>/index.json from the entries on disk: every valid entry
  /// in sorted file-name order with its experiment and key. The index is
  /// a deterministic function of the cache content (same entries -> same
  /// bytes), written atomically like the entries themselves.
  void writeIndex() const;

 private:
  std::string dir_;
};

}  // namespace tibsim::core
