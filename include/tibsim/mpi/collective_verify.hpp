#pragma once
// Deterministic runtime collective-matching verifier (PARCOACH-style).
//
// With verification enabled (--verify-collectives /
// TIBSIM_VERIFY_COLLECTIVES=1) every message sent from inside a collective
// carries a CollectiveStamp — the (communicator, collective kind, reduce
// op, per-communicator sequence number, element/byte count, call site)
// tuple of the collective the sender is executing. The receiving rank
// compares that stamp against its own active collective at match time: the
// first tuple a rank pins for a given (communicator, sequence) slot must
// equal every peer's, and any divergence raises ContractError with a
// report naming both ranks, both tuples, the call sites and the simulated
// time. The comparison happens on the existing match path in canonical
// delivery order, so the report is byte-identical across runs — the
// dynamic cross-check for the static `collective-match` lint rule.
//
// Mismatches whose tag subspaces never meet (e.g. barrier vs gather) do
// not match any message and therefore stall; those are caught by the
// complementary --stall-report watchdog instead.

#include <cstdint>
#include <string>

namespace tibsim::mpi {

/// Process-wide default for WorldConfig::verifyCollectives. Initialised
/// once from TIBSIM_VERIFY_COLLECTIVES ("1"/"on"/"true" enable).
bool defaultVerifyCollectives();
void setDefaultVerifyCollectives(bool on);

/// RAII override of the process-wide default (campaigns, tests).
class ScopedVerifyCollectives {
 public:
  explicit ScopedVerifyCollectives(bool on)
      : previous_(defaultVerifyCollectives()) {
    setDefaultVerifyCollectives(on);
  }
  ~ScopedVerifyCollectives() { setDefaultVerifyCollectives(previous_); }
  ScopedVerifyCollectives(const ScopedVerifyCollectives&) = delete;
  ScopedVerifyCollectives& operator=(const ScopedVerifyCollectives&) = delete;

 private:
  bool previous_;
};

/// Which collective a stamp belongs to. `None` marks point-to-point
/// traffic (and collective traffic when verification is off).
enum class CollectiveKind : std::uint8_t {
  None = 0,
  Barrier,
  Bcast,
  BcastBytes,
  PipelinedBcastBytes,
  Reduce,
  Allreduce,
  AllreduceMax,
  Gather,
  Allgather,
  AlltoallBytes,
  Split,
  Dup,
};

const char* toString(CollectiveKind kind);

/// CollectiveStamp::op for collectives that are not reductions.
inline constexpr std::uint8_t kNoReduceOp = 0xfe;
/// CollectiveStamp::op for reductions with a user-supplied CombineFn
/// (opaque callables cannot be compared, only their presence).
inline constexpr std::uint8_t kCustomCombineOp = 0xff;

const char* reduceOpName(std::uint8_t op);

/// The verification tuple one collective entry pins. Building-block
/// collectives (allreduce = reduce + bcast, split = 3x allgather, ...)
/// inherit the outermost entry's stamp, so nesting is invisible to peers.
struct CollectiveStamp {
  CollectiveKind kind = CollectiveKind::None;
  std::uint8_t op = kNoReduceOp;  ///< ReduceOp value or a sentinel above
  std::uint32_t seq = 0;   ///< per-(rank, communicator) collective ordinal
  std::uint64_t count = 0;  ///< element or byte count, kind-specific
  const char* file = nullptr;  ///< call site (std::source_location)
  std::uint32_t line = 0;

  bool engaged() const { return kind != CollectiveKind::None; }
  bool matches(const CollectiveStamp& other) const {
    return kind == other.kind && op == other.op && seq == other.seq &&
           count == other.count;
  }
};

/// Render one stamp as `kind #seq (op=..., count=...) at file:line`.
/// Point-to-point (disengaged) stamps render as `point-to-point traffic`.
std::string describeStamp(const CollectiveStamp& stamp);

/// Render the mismatch report carried by the ContractError. Derived from
/// simulated state only: byte-stable across runs.
std::string formatCollectiveMismatch(int rank, int node, int sender,
                                     std::uint64_t comm,
                                     const CollectiveStamp& local,
                                     const CollectiveStamp& remote,
                                     double now);

}  // namespace tibsim::mpi
