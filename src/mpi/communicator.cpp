// Communicator implementation: rank translation, comm-scoped
// point-to-point, split()/dup() derivation, and the request plumbing for
// non-blocking operations. The collective algorithms live in
// collectives.cpp.
//
// tibsim-lint: allowfile(wildcard-recv) — this file implements the wildcard
// plumbing itself.

#include "tibsim/mpi/communicator.hpp"

#include <algorithm>
#include <cstring>
#include <string>

#include "tibsim/common/assert.hpp"
#include "tibsim/mpi/simmpi.hpp"

namespace tibsim::mpi {

namespace {
/// A received payload as doubles, decoded straight from the message (one
/// allocation, one copy), with any pooled buffer returned to `pool`. `op`
/// and `src` (comm-local, -1 when unknown) only label the error for a
/// payload that is not whole doubles.
std::vector<double> toDoubles(MessagePayload payload, PayloadPool& pool,
                              const char* op, int src) {
  const std::size_t bytes = payload.size();
  std::vector<double> values(bytes / sizeof(double));
  if (!values.empty())
    std::memcpy(values.data(), payload.view().data(),
                values.size() * sizeof(double));
  payload.recycle(pool);
  TIB_REQUIRE_MSG(
      bytes % sizeof(double) == 0,
      std::string(op) + ": " + std::to_string(bytes) + "-byte payload" +
          (src >= 0 ? " from rank " + std::to_string(src) : "") +
          " is not a multiple of sizeof(double) — the sender did not use "
          "sendDoubles");
  return values;
}

std::vector<std::byte> toBytes(std::span<const double> values,
                               std::size_t* receivedBytes) {
  std::vector<std::byte> raw(values.size_bytes());
  if (!raw.empty()) std::memcpy(raw.data(), values.data(), raw.size());
  if (receivedBytes != nullptr) *receivedBytes = raw.size();
  return raw;
}
}  // namespace

void Communicator::requireMember() const {
  TIB_REQUIRE_MSG(ctx_ != nullptr,
                  "operation on a null communicator (default-constructed, or "
                  "split() returned kUndefinedColor for this rank)");
}

void Communicator::requireRoot(int root, const char* op) const {
  requireMember();
  TIB_REQUIRE_MSG(root >= 0 && root < size(),
                  std::string(op) + ": root " + std::to_string(root) +
                      " is not a rank of this " + std::to_string(size()) +
                      "-rank communicator");
}

int Communicator::size() const {
  requireMember();
  return group_ ? static_cast<int>(group_->size()) : ctx_->world_.ranks();
}

int Communicator::worldRank(int commRank) const {
  requireMember();
  TIB_REQUIRE(commRank >= 0 && commRank < size());
  return group_ ? (*group_)[static_cast<std::size_t>(commRank)] : commRank;
}

int Communicator::commRankOf(int worldRank) const {
  requireMember();
  if (!group_)
    return worldRank >= 0 && worldRank < ctx_->world_.ranks() ? worldRank : -1;
  // Linear scan: groups are either the whole world (handled above) or small
  // app-defined subsets, and this only runs on receive-side translation.
  for (std::size_t i = 0; i < group_->size(); ++i)
    if ((*group_)[i] == worldRank) return static_cast<int>(i);
  return -1;
}

// ---------------------------------------------------------------------------
// Point-to-point (ranks are comm-local; messages carry the comm id)
// ---------------------------------------------------------------------------

void Communicator::send(int dst, int tag, std::size_t bytes,
                        std::span<const std::byte> payload) const {
  requireMember();
  ctx_->world_.doSend(*ctx_, id_, worldRank(dst), tag, bytes, payload);
}

void Communicator::sendDoubles(int dst, int tag,
                               std::span<const double> values) const {
  send(dst, tag, values.size_bytes(), std::as_bytes(values));
}

MessagePayload Communicator::receive(int src, int tag,
                                     std::size_t* receivedBytes, int* srcOut,
                                     int* tagOut) const {
  requireMember();
  const int worldSrc = src == kAnySource ? kAnySource : worldRank(src);
  int matchedWorldSrc = -1;
  MessagePayload payload = ctx_->world_.doRecv(
      *ctx_, id_, worldSrc, tag, receivedBytes, &matchedWorldSrc, tagOut);
  if (srcOut != nullptr) *srcOut = commRankOf(matchedWorldSrc);
  return payload;
}

std::vector<std::byte> Communicator::recv(int src, int tag,
                                          std::size_t* receivedBytes,
                                          int* srcOut, int* tagOut) const {
  return receive(src, tag, receivedBytes, srcOut, tagOut)
      .intoVector(ctx_->world_.pool_);
}

std::vector<double> Communicator::recvDoubles(int src, int tag,
                                              int* srcOut) const {
  int actualSrc = src;
  MessagePayload payload = receive(src, tag, nullptr, &actualSrc, nullptr);
  if (srcOut != nullptr) *srcOut = actualSrc;
  return toDoubles(std::move(payload), ctx_->world_.pool_, "recvDoubles",
                   actualSrc);
}

void Communicator::sendrecv(int peer, int tag, std::size_t sendBytes,
                            std::size_t* recvBytes) const {
  requireMember();
  TIB_REQUIRE(peer != rank_);
  // Rank-ordered exchange on comm-local ids: lower rank sends first, the
  // classic deadlock-free pairing, safe for eager and rendezvous sizes.
  if (rank_ < peer) {
    send(peer, tag, sendBytes);
    recv(peer, tag, recvBytes);
  } else {
    recv(peer, tag, recvBytes);
    send(peer, tag, sendBytes);
  }
}

// ---------------------------------------------------------------------------
// Non-blocking point-to-point
// ---------------------------------------------------------------------------

Communicator::Request Communicator::isend(
    int dst, int tag, std::size_t bytes,
    std::span<const std::byte> payload) const {
  requireMember();
  // Eager buffered send: charged and on the wire now, rendezvous
  // suppressed so the caller never blocks; complete by construction, but
  // must still be waited.
  ctx_->world_.doSend(*ctx_, id_, worldRank(dst), tag, bytes, payload,
                      /*allowRendezvous=*/false);
  MpiContext::PendingOp op;
  op.kind = MpiContext::PendingOp::Kind::Send;
  return ctx_->pushPending(std::move(op));
}

Communicator::Request Communicator::irecv(int src, int tag) const {
  requireMember();
  MpiContext::PendingOp op;
  op.kind = MpiContext::PendingOp::Kind::Recv;
  op.peer = src == kAnySource ? kAnySource : worldRank(src);
  op.tag = tag;
  op.comm = *this;
  return ctx_->pushPending(std::move(op));
}

MpiContext::PendingOp MpiContext::takePending(Request request) {
  auto it = pending_.begin();
  while (it != pending_.end() && it->request != request) ++it;
  TIB_REQUIRE_MSG(it != pending_.end(), "unknown or already-waited request");
  PendingOp op = std::move(*it);
  *it = std::move(pending_.back());
  pending_.pop_back();
  return op;
}

std::vector<double> MpiContext::runLazyCollective(PendingOp& op) {
  // Lazy collectives replay the i-collective's recorded call site into the
  // verifier stamp; the inner (blocking) collective's own guard nests
  // beneath this one and inherits it.
  switch (op.kind) {
    case PendingOp::Kind::Barrier: {
      CollectiveGuard guard(*this, op.comm.id(), CollectiveKind::Barrier,
                            kNoReduceOp, 0, op.file, op.line);
      op.comm.barrier();
      return {};
    }
    case PendingOp::Kind::Bcast: {
      CollectiveGuard guard(*this, op.comm.id(), CollectiveKind::Bcast,
                            kNoReduceOp, op.values.size(), op.file, op.line);
      return op.comm.bcast(std::move(op.values), op.root);
    }
    case PendingOp::Kind::Allreduce: {
      CollectiveGuard guard(*this, op.comm.id(), CollectiveKind::Allreduce,
                            static_cast<std::uint8_t>(op.op),
                            op.values.size(), op.file, op.line);
      return op.comm.allreduce(op.values, op.op);
    }
    case PendingOp::Kind::Send:
    case PendingOp::Kind::Recv:
      break;
  }
  TIB_ASSERT(false && "not a lazy collective");
  return {};
}

std::vector<std::byte> Communicator::wait(Request request,
                                          std::size_t* receivedBytes) const {
  requireMember();
  using Kind = MpiContext::PendingOp::Kind;
  MpiContext::PendingOp op = ctx_->takePending(request);
  switch (op.kind) {
    case Kind::Send:
      return {};  // isend completed at initiation
    case Kind::Recv:
      return ctx_->world_
          .doRecv(*ctx_, op.comm.id(), op.peer, op.tag, receivedBytes)
          .intoVector(ctx_->world_.pool_);
    case Kind::Barrier:
    case Kind::Bcast:
    case Kind::Allreduce:
      return toBytes(ctx_->runLazyCollective(op), receivedBytes);
  }
  return {};
}

void Communicator::waitall(std::span<const Request> requests) const {
  requireMember();
  for (Request r : requests) wait(r);
}

std::vector<double> Communicator::waitDoubles(Request request) const {
  requireMember();
  using Kind = MpiContext::PendingOp::Kind;
  MpiContext::PendingOp op = ctx_->takePending(request);
  switch (op.kind) {
    case Kind::Send:
      return {};
    case Kind::Recv:
      return toDoubles(
          ctx_->world_.doRecv(*ctx_, op.comm.id(), op.peer, op.tag, nullptr),
          ctx_->world_.pool_, "waitDoubles", -1);
    case Kind::Barrier:
    case Kind::Bcast:
    case Kind::Allreduce:
      // A lazy collective's result is already doubles: no byte round trip.
      return ctx_->runLazyCollective(op);
  }
  return {};
}

// ---------------------------------------------------------------------------
// Derivation (collective over the parent communicator)
// ---------------------------------------------------------------------------

Communicator Communicator::split(int color, int key,
                                 std::source_location loc) const {
  requireMember();
  // The three allgathers below are the split's traffic; the verifier
  // stamps them all with the split's own call site.
  MpiContext::CollectiveGuard guard(*ctx_, id_, CollectiveKind::Split,
                                    kNoReduceOp, 0, loc.file_name(),
                                    loc.line());
  // Every member burns one creation ordinal whether or not it joins a new
  // communicator: the id derivation below needs the *leader's* ordinal to
  // be unique per creation event, and the leader is not known until the
  // exchange completes.
  const std::uint64_t myOrdinal = ctx_->nextCommOrdinal_++;
  // Three parent-comm allgathers carry everyone's (color, key, ordinal);
  // afterwards each member derives the new communicator locally from
  // identical data — no shared mutable state, so the ids come out the same
  // on every run.
  const std::vector<double> colors = allgather(static_cast<double>(color));
  const std::vector<double> keys = allgather(static_cast<double>(key));
  const std::vector<double> ordinals =
      allgather(static_cast<double>(myOrdinal));
  if (color < 0) return Communicator{};  // kUndefinedColor: not a member

  struct Member {
    int key;
    int worldRank;
    int parentRank;
  };
  std::vector<Member> members;
  const int p = size();
  for (int r = 0; r < p; ++r) {
    if (static_cast<int>(colors[static_cast<std::size_t>(r)]) != color)
      continue;
    members.push_back(
        Member{static_cast<int>(keys[static_cast<std::size_t>(r)]),
               worldRank(r), r});
  }
  std::stable_sort(members.begin(), members.end(),
                   [](const Member& a, const Member& b) {
                     return a.key != b.key ? a.key < b.key
                                           : a.worldRank < b.worldRank;
                   });

  auto group = std::make_shared<std::vector<int>>();
  group->reserve(members.size());
  int myCommRank = -1;
  int leaderWorld = members.front().worldRank;
  int leaderParent = members.front().parentRank;
  for (std::size_t i = 0; i < members.size(); ++i) {
    group->push_back(members[i].worldRank);
    if (members[i].worldRank < leaderWorld) {
      leaderWorld = members[i].worldRank;
      leaderParent = members[i].parentRank;
    }
    if (members[i].parentRank == rank_) myCommRank = static_cast<int>(i);
  }
  TIB_ASSERT(myCommRank >= 0);
  const std::uint64_t leaderOrdinal = static_cast<std::uint64_t>(
      ordinals[static_cast<std::size_t>(leaderParent)]);
  const std::uint64_t id =
      (static_cast<std::uint64_t>(leaderWorld) << 32) | leaderOrdinal;
  return Communicator(ctx_, id, myCommRank, std::move(group));
}

Communicator Communicator::dup(std::source_location loc) const {
  requireMember();
  MpiContext::CollectiveGuard guard(*ctx_, id_, CollectiveKind::Dup,
                                    kNoReduceOp, 0, loc.file_name(),
                                    loc.line());
  const std::uint64_t myOrdinal = ctx_->nextCommOrdinal_++;
  // Comm-rank 0's fresh ordinal names the duplicate; a one-element bcast
  // over the parent teaches it to every member. Sharing the parent's group
  // table keeps dup O(1) per rank — important when duplicating the world at
  // thousands of ranks just to isolate a tag space.
  const std::vector<double> root =
      bcast(std::vector<double>{static_cast<double>(myOrdinal)}, 0);
  const std::uint64_t leaderOrdinal = static_cast<std::uint64_t>(root[0]);
  const std::uint64_t id =
      (static_cast<std::uint64_t>(worldRank(0)) << 32) | leaderOrdinal;
  return Communicator(ctx_, id, rank_, group_);
}

// ---------------------------------------------------------------------------
// Non-blocking collectives (lazy: wait() executes them)
// ---------------------------------------------------------------------------

Communicator::Request Communicator::ibarrier(
    std::source_location loc) const {
  requireMember();
  MpiContext::PendingOp op;
  op.kind = MpiContext::PendingOp::Kind::Barrier;
  op.comm = *this;
  op.file = loc.file_name();
  op.line = loc.line();
  return ctx_->pushPending(std::move(op));
}

Communicator::Request Communicator::ibcast(std::vector<double> values,
                                           int root,
                                           std::source_location loc) const {
  requireRoot(root, "ibcast");
  MpiContext::PendingOp op;
  op.kind = MpiContext::PendingOp::Kind::Bcast;
  op.comm = *this;
  op.root = root;
  op.values = std::move(values);
  op.file = loc.file_name();
  op.line = loc.line();
  return ctx_->pushPending(std::move(op));
}

Communicator::Request Communicator::iallreduce(
    std::span<const double> values, ReduceOp rop,
    std::source_location loc) const {
  requireMember();
  MpiContext::PendingOp op;
  op.kind = MpiContext::PendingOp::Kind::Allreduce;
  op.comm = *this;
  op.op = rop;
  op.values.assign(values.begin(), values.end());
  op.file = loc.file_name();
  op.line = loc.line();
  return ctx_->pushPending(std::move(op));
}

}  // namespace tibsim::mpi
