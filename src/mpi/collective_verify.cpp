#include "tibsim/mpi/collective_verify.hpp"

#include <cstdlib>
#include <sstream>

#include "tibsim/common/json.hpp"

namespace tibsim::mpi {

namespace {

bool readVerifyCollectivesFromEnv() {
  const char* env = std::getenv("TIBSIM_VERIFY_COLLECTIVES");
  if (env == nullptr) return false;
  const std::string value(env);
  return value == "1" || value == "on" || value == "true";
}

bool& verifyCollectivesSlot() {
  // Process-wide default, mutated only from the host thread between runs
  // (socbench flag parsing, ScopedVerifyCollectives in tests) — never
  // from inside a running world. tibsim-lint: allow(sim-static)
  static bool slot = readVerifyCollectivesFromEnv();
  return slot;
}

/// Shortest-round-trip decimal, shared with the JSON emitters so the
/// report is byte-stable wherever it is rendered.
std::string seconds(double value) { return json::formatNumber(value); }

}  // namespace

bool defaultVerifyCollectives() { return verifyCollectivesSlot(); }
void setDefaultVerifyCollectives(bool on) { verifyCollectivesSlot() = on; }

const char* toString(CollectiveKind kind) {
  switch (kind) {
    case CollectiveKind::None: return "none";
    case CollectiveKind::Barrier: return "barrier";
    case CollectiveKind::Bcast: return "bcast";
    case CollectiveKind::BcastBytes: return "bcastBytes";
    case CollectiveKind::PipelinedBcastBytes: return "pipelinedBcastBytes";
    case CollectiveKind::Reduce: return "reduce";
    case CollectiveKind::Allreduce: return "allreduce";
    case CollectiveKind::AllreduceMax: return "allreduceMax";
    case CollectiveKind::Gather: return "gather";
    case CollectiveKind::Allgather: return "allgather";
    case CollectiveKind::AlltoallBytes: return "alltoallBytes";
    case CollectiveKind::Split: return "split";
    case CollectiveKind::Dup: return "dup";
  }
  return "unknown";
}

const char* reduceOpName(std::uint8_t op) {
  switch (op) {
    case 0: return "sum";
    case 1: return "min";
    case 2: return "max";
    case 3: return "prod";
    case kCustomCombineOp: return "custom";
    case kNoReduceOp: return "-";
  }
  return "unknown";
}

std::string describeStamp(const CollectiveStamp& stamp) {
  if (!stamp.engaged()) return "point-to-point traffic";
  std::ostringstream out;
  out << toString(stamp.kind) << " #" << stamp.seq << " (op="
      << reduceOpName(stamp.op) << ", count=" << stamp.count << ")";
  if (stamp.file != nullptr)
    out << " at " << stamp.file << ":" << stamp.line;
  return out.str();
}

std::string formatCollectiveMismatch(int rank, int node, int sender,
                                     std::uint64_t comm,
                                     const CollectiveStamp& local,
                                     const CollectiveStamp& remote,
                                     double now) {
  std::ostringstream out;
  out << "collective mismatch on comm " << comm << " at t=" << seconds(now)
      << "s\n"
      << "  rank " << rank << " node " << node
      << " entered: " << describeStamp(local) << "\n"
      << "  rank " << sender << " sent:    " << describeStamp(remote) << "\n"
      << "  every rank of a communicator must run the same collective "
         "sequence; rerun with --stall-report for wait-state detail";
  return out.str();
}

}  // namespace tibsim::mpi
