#pragma once
// First-class communicators for simMPI.
//
// A Communicator scopes point-to-point matching and collectives to a
// subset of the world's ranks with its own dense rank numbering, the way
// MPI_Comm does: the world is simply communicator id 0 with the identity
// rank translation, and `split(color, key)` / `dup()` derive new
// communicators collectively. Every message carries its communicator id and
// is matched against (comm, source, tag), so traffic on two communicators
// never interferes even when tags collide.
//
// Determinism contract — the part that makes this simulator-grade:
//  * Communicator ids are derived from traffic, not from shared mutable
//    state: a split performs allgathers of (color, key, creation-ordinal)
//    over the parent communicator and every member computes
//    id = (leader world rank << 32) | leader ordinal locally. No global
//    counter exists, so the ids depend only on the program.
//  * Wildcard receives (kAnySource / kAnyTag) match in mailbox delivery
//    order, which the single event queue fixes — (sim-time, push
//    sequence) order. A wildcard receive therefore returns the same
//    message on every run, byte-for-byte.
//  * Non-blocking collectives (ibarrier/ibcast/iallreduce) are lazy: the
//    request records the operation and wait() executes it, mirroring how
//    irecv defers its match. All members must eventually wait, and must
//    wait outstanding collectives on one communicator in the same order.
//
// tibsim-lint: allowfile(wildcard-recv) — this header defines the wildcard
// constants themselves.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <source_location>
#include <span>
#include <vector>

namespace tibsim::mpi {

class MessagePayload;
class MpiContext;

/// Match any sending rank (Communicator::recv / irecv).
inline constexpr int kAnySource = -1;
/// Match any tag (Communicator::recv / irecv).
inline constexpr int kAnyTag = -1;
/// split() color for ranks that want no communicator (MPI_UNDEFINED).
inline constexpr int kUndefinedColor = -1;

/// Built-in reduction combiners. All element-wise over doubles; Sum keeps
/// the historical left-fold order, so world reductions stay byte-identical
/// to the pre-communicator runtime.
enum class ReduceOp : std::uint8_t { Sum, Min, Max, Prod };

/// User-supplied combiner: must be deterministic and associative enough for
/// the caller's purposes; applied as acc = combine(acc, incoming) in the
/// fixed binomial-tree order, so the fold order is reproducible.
using CombineFn = double (*)(double, double);

/// A communication scope: a subset of world ranks with dense comm-local
/// numbering. The rank body's MpiContext is the world communicator itself.
/// Cheap to copy (shared group table); methods may only be called from
/// inside the owning rank's body.
class Communicator {
 public:
  using Request = std::uint64_t;

  /// Default-constructed = null communicator (not a member of anything):
  /// what split() returns for kUndefinedColor. Only isNull() is valid.
  Communicator() = default;

  bool isNull() const { return ctx_ == nullptr; }
  bool isWorld() const { return ctx_ != nullptr && id_ == 0; }

  /// This rank's number within the communicator.
  int rank() const { return rank_; }
  int size() const;
  /// Stable identity: 0 for the world, (leader world rank << 32) | leader
  /// creation ordinal for derived communicators.
  std::uint64_t id() const { return id_; }

  /// commRank -> world rank (identity for the world communicator).
  int worldRank(int commRank) const;
  /// world rank -> commRank, or -1 when that rank is not a member.
  int commRankOf(int worldRank) const;

  // -- construction (collective over the parent) ---------------------------
  /// Partition the communicator: members with equal color form a new
  /// communicator, ordered by (key, world rank). kUndefinedColor (or any
  /// negative color) yields the null communicator for that member. Every
  /// member must call split (it is a collective).
  Communicator split(
      int color, int key,
      std::source_location loc = std::source_location::current()) const;
  /// A new communicator with the same group and a distinct id, so its
  /// traffic cannot match the parent's. Collective; shares the group table.
  Communicator dup(
      std::source_location loc = std::source_location::current()) const;

  // -- point-to-point (ranks are comm-local) -------------------------------
  void send(int dst, int tag, std::size_t bytes,
            std::span<const std::byte> payload = {}) const;
  void sendDoubles(int dst, int tag, std::span<const double> values) const;
  /// Blocking receive; src may be kAnySource and tag kAnyTag. The matched
  /// message is the first match in canonical delivery order. srcOut/tagOut
  /// (if non-null) receive the actual comm-local source and tag.
  std::vector<std::byte> recv(int src, int tag,
                              std::size_t* receivedBytes = nullptr,
                              int* srcOut = nullptr,
                              int* tagOut = nullptr) const;
  std::vector<double> recvDoubles(int src, int tag,
                                  int* srcOut = nullptr) const;
  void sendrecv(int peer, int tag, std::size_t sendBytes,
                std::size_t* recvBytes = nullptr) const;

  /// Eager buffered send even at rendezvous sizes: charged now, never
  /// blocks, complete by construction, but must still be waited.
  Request isend(int dst, int tag, std::size_t bytes,
                std::span<const std::byte> payload = {}) const;
  /// Registers interest in (src, tag); wait() performs the match.
  Request irecv(int src, int tag) const;
  /// Complete any request minted through this context (send, recv, or a
  /// non-blocking collective). Collective requests execute here.
  std::vector<std::byte> wait(Request request,
                              std::size_t* receivedBytes = nullptr) const;
  void waitall(std::span<const Request> requests) const;
  /// wait() for requests whose payload is doubles (irecv of sendDoubles,
  /// ibcast, iallreduce).
  std::vector<double> waitDoubles(Request request) const;

  // -- collectives ---------------------------------------------------------
  // Every entry records its call site (defaulted std::source_location) for
  // the runtime verifier's mismatch report; call them as before.
  void barrier(
      std::source_location loc = std::source_location::current()) const;
  std::vector<double> bcast(
      std::vector<double> values, int root,
      std::source_location loc = std::source_location::current()) const;
  /// Size-only broadcast (models the traffic without carrying data).
  void bcastBytes(
      std::size_t bytes, int root,
      std::source_location loc = std::source_location::current()) const;
  /// HPL-style bulk broadcast: a binomial control message, then every
  /// member streams the payload once at the protocol's sustained rate.
  void pipelinedBcastBytes(
      std::size_t bytes, int root,
      std::source_location loc = std::source_location::current()) const;
  /// Binomial-tree reduction to root; non-root members return empty.
  std::vector<double> reduce(
      std::span<const double> values, ReduceOp op, int root,
      std::source_location loc = std::source_location::current()) const;
  std::vector<double> reduce(
      std::span<const double> values, CombineFn combine, int root,
      std::source_location loc = std::source_location::current()) const;
  std::vector<double> allreduce(
      std::span<const double> values, ReduceOp op,
      std::source_location loc = std::source_location::current()) const;
  double allreduce(
      double value, ReduceOp op,
      std::source_location loc = std::source_location::current()) const;
  /// One double per member, in rank order at root; others return empty.
  std::vector<double> gather(
      double value, int root,
      std::source_location loc = std::source_location::current()) const;
  std::vector<double> allgather(
      double value,
      std::source_location loc = std::source_location::current()) const;
  void alltoallBytes(
      std::size_t bytesPerPeer,
      std::source_location loc = std::source_location::current()) const;

  // -- non-blocking collectives (lazy: executed by wait()) -----------------
  Request ibarrier(
      std::source_location loc = std::source_location::current()) const;
  Request ibcast(
      std::vector<double> values, int root,
      std::source_location loc = std::source_location::current()) const;
  Request iallreduce(
      std::span<const double> values, ReduceOp op = ReduceOp::Sum,
      std::source_location loc = std::source_location::current()) const;

 private:
  friend class MpiContext;
  Communicator(MpiContext* ctx, std::uint64_t id, int rank,
               std::shared_ptr<const std::vector<int>> group)
      : ctx_(ctx), id_(id), rank_(rank), group_(std::move(group)) {}

  void requireMember() const;
  /// requireMember(), and `root` is a rank of this communicator; `op`
  /// names the rooted collective in the error.
  void requireRoot(int root, const char* op) const;
  /// recv() up to the decode: the matched payload, still owning any pooled
  /// buffer.
  MessagePayload receive(int src, int tag, std::size_t* receivedBytes,
                         int* srcOut, int* tagOut) const;

  MpiContext* ctx_ = nullptr;
  std::uint64_t id_ = 0;
  int rank_ = -1;
  /// commRank -> world rank; null means the world identity mapping.
  std::shared_ptr<const std::vector<int>> group_;
};

}  // namespace tibsim::mpi
