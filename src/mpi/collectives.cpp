// Collective operations built from point-to-point messages with the
// textbook algorithms an early-2010s OpenMPI would use on Ethernet:
// dissemination barrier, binomial-tree broadcast/reduce, reduce+bcast
// allreduce, linear gather (the root NIC is the bottleneck either way),
// ring all-to-all.
//
// The algorithms live on Communicator, operating on comm-local ranks.
// MpiContext is the world communicator (id 0, identity rank mapping), so
// world-scoped collective traffic — ranks, tags, sizes, charges — is
// unchanged byte-for-byte from the pre-communicator runtime. That identity
// is what keeps existing campaign artefacts stable.

#include <algorithm>

#include "tibsim/common/assert.hpp"
#include "tibsim/mpi/simmpi.hpp"

namespace tibsim::mpi {

namespace {
// Tags reserved for collective plumbing; applications should use tags below
// this range. Each communicator is its own match domain, so these tags only
// have to avoid the application's tags, not other communicators'.
constexpr int kBarrierTag = 1 << 24;
constexpr int kBcastTag = 2 << 24;
constexpr int kReduceTag = 3 << 24;
constexpr int kGatherTag = 4 << 24;
constexpr int kAlltoallTag = 5 << 24;

// FLOPs charged per element combined in a reduction.
constexpr double kReduceFlopPerElement = 1.0;

double combineSum(double a, double b) { return a + b; }
double combineMin(double a, double b) { return std::min(a, b); }
double combineMax(double a, double b) { return std::max(a, b); }
double combineProd(double a, double b) { return a * b; }

CombineFn combinerFor(ReduceOp op) {
  switch (op) {
    case ReduceOp::Sum:
      return &combineSum;
    case ReduceOp::Min:
      return &combineMin;
    case ReduceOp::Max:
      return &combineMax;
    case ReduceOp::Prod:
      return &combineProd;
  }
  return &combineSum;
}
}  // namespace

// ---------------------------------------------------------------------------
// Communicator collectives (comm-local ranks throughout)
// ---------------------------------------------------------------------------

void Communicator::barrier(std::source_location loc) const {
  requireMember();
  MpiContext::CollectiveGuard guard(*ctx_, id_, CollectiveKind::Barrier,
                                    kNoReduceOp, 0, loc.file_name(),
                                    loc.line());
  const int n = size();
  if (n == 1) return;
  // Dissemination barrier: ceil(log2 n) rounds; in round k, rank r signals
  // (r + 2^k) mod n and waits for (r - 2^k) mod n.
  for (int dist = 1, round = 0; dist < n; dist *= 2, ++round) {
    const int to = (rank_ + dist) % n;
    const int from = (rank_ - dist % n + n) % n;
    const int tag = kBarrierTag + round;
    if (to == from) {  // dist == n/2: the two directions coincide
      sendrecv(to, tag, 0);
      continue;
    }
    send(to, tag, 0);
    recv(from, tag);
  }
}

std::vector<double> Communicator::bcast(std::vector<double> values,
                                        int root,
                                        std::source_location loc) const {
  requireMember();
  MpiContext::CollectiveGuard guard(*ctx_, id_, CollectiveKind::Bcast,
                                    kNoReduceOp, values.size(),
                                    loc.file_name(), loc.line());
  const int n = size();
  if (n == 1) return values;
  // Binomial tree on rank ids relative to the root.
  const int rel = (rank_ - root + n) % n;

  if (rel != 0) {
    // Receive from the parent: clear the lowest set bit of rel.
    const int parentRel = rel & (rel - 1);
    const int parent = (parentRel + root) % n;
    values = recvDoubles(parent, kBcastTag);
  }
  // Forward to children: set bits above the lowest set bit of rel.
  const int lowBit = rel == 0 ? n : (rel & -rel);
  for (int bit = 1; bit < lowBit && rel + bit < n; bit *= 2) {
    const int child = (rel + bit + root) % n;
    sendDoubles(child, kBcastTag, values);
  }
  return values;
}

void Communicator::bcastBytes(std::size_t bytes, int root,
                              std::source_location loc) const {
  requireMember();
  MpiContext::CollectiveGuard guard(*ctx_, id_, CollectiveKind::BcastBytes,
                                    kNoReduceOp, bytes, loc.file_name(),
                                    loc.line());
  const int n = size();
  if (n == 1) return;
  const int rel = (rank_ - root + n) % n;
  if (rel != 0) {
    const int parentRel = rel & (rel - 1);
    recv((parentRel + root) % n, kBcastTag);
  }
  const int lowBit = rel == 0 ? n : (rel & -rel);
  for (int bit = 1; bit < lowBit && rel + bit < n; bit *= 2) {
    send((rel + bit + root) % n, kBcastTag, bytes);
  }
}

void Communicator::pipelinedBcastBytes(std::size_t bytes, int root,
                                       std::source_location loc) const {
  requireMember();
  MpiContext::CollectiveGuard guard(*ctx_, id_,
                                    CollectiveKind::PipelinedBcastBytes,
                                    kNoReduceOp, bytes, loc.file_name(),
                                    loc.line());
  const int n = size();
  if (n == 1 || bytes == 0) return;
  // Causality: nobody may consume the payload before the root produced it
  // and it reached them; the cheap control broadcast provides the ordering
  // and the per-hop latency component.
  bcastBytes(64, root);
  // Streaming component: in a chunked ring broadcast every rank receives
  // (and all but the last forward) the full payload exactly once, so each
  // rank is occupied for bytes / sustained-rate. CPU cost: one receive and
  // one send pass over the data.
  const net::ProtocolModel& protocol = ctx_->world_.protocolModel();
  const double streamSeconds =
      static_cast<double>(bytes) /
      protocol.effectiveBandwidth(std::max<std::size_t>(bytes, 64 * 1024));
  const net::MessageCosts perChunk = protocol.messageCosts(64 * 1024);
  const double chunks = static_cast<double>(bytes) / (64.0 * 1024.0);
  const double cpuSeconds = std::min(
      streamSeconds,
      chunks * (perChunk.senderSeconds + perChunk.receiverSeconds));
  ctx_->world_.chargeCpu(ctx_->node(), cpuSeconds);
  ctx_->process_.delay(streamSeconds);
}

std::vector<double> Communicator::reduce(std::span<const double> values,
                                         CombineFn combine, int root,
                                         std::source_location loc) const {
  requireMember();
  MpiContext::CollectiveGuard guard(*ctx_, id_, CollectiveKind::Reduce,
                                    kCustomCombineOp, values.size(),
                                    loc.file_name(), loc.line());
  const int n = size();
  std::vector<double> acc(values.begin(), values.end());
  if (n == 1) return acc;
  const int rel = (rank_ - root + n) % n;

  // Binomial combine: in round `bit`, ranks with that bit set send their
  // partial to rel - bit and drop out; the others receive and accumulate.
  // acc = combine(acc, incoming) in this fixed tree order, so the fold is
  // reproducible (and, for Sum, identical to the historical += loop).
  for (int bit = 1; bit < n; bit *= 2) {
    if (rel & bit) {
      const int dst = ((rel - bit) + root) % n;
      sendDoubles(dst, kReduceTag + bit, acc);
      return {};  // non-root ranks return empty
    }
    if (rel + bit < n) {
      const int src = ((rel + bit) + root) % n;
      const std::vector<double> incoming = recvDoubles(src, kReduceTag + bit);
      TIB_REQUIRE(incoming.size() == acc.size());
      for (std::size_t i = 0; i < acc.size(); ++i)
        acc[i] = combine(acc[i], incoming[i]);
      ctx_->compute(perfmodel::WorkProfile{
          kReduceFlopPerElement * static_cast<double>(acc.size()),
          16.0 * static_cast<double>(acc.size()),
          perfmodel::AccessPattern::Streaming, 0.8, 1.0, 0.0});
    }
  }
  return acc;
}

std::vector<double> Communicator::reduce(std::span<const double> values,
                                         ReduceOp op, int root,
                                         std::source_location loc) const {
  requireMember();
  MpiContext::CollectiveGuard guard(*ctx_, id_, CollectiveKind::Reduce,
                                    static_cast<std::uint8_t>(op),
                                    values.size(), loc.file_name(),
                                    loc.line());
  return reduce(values, combinerFor(op), root, loc);
}

std::vector<double> Communicator::allreduce(std::span<const double> values,
                                            ReduceOp op,
                                            std::source_location loc) const {
  requireMember();
  MpiContext::CollectiveGuard guard(*ctx_, id_, CollectiveKind::Allreduce,
                                    static_cast<std::uint8_t>(op),
                                    values.size(), loc.file_name(),
                                    loc.line());
  std::vector<double> reduced = reduce(values, op, 0, loc);
  if (rank_ != 0) reduced.assign(values.size(), 0.0);
  return bcast(std::move(reduced), 0, loc);
}

double Communicator::allreduce(double value, ReduceOp op,
                               std::source_location loc) const {
  const double v[1] = {value};
  return allreduce(std::span<const double>(v, 1), op, loc)[0];
}

std::vector<double> Communicator::gather(double value, int root,
                                         std::source_location loc) const {
  requireMember();
  MpiContext::CollectiveGuard guard(*ctx_, id_, CollectiveKind::Gather,
                                    kNoReduceOp, 1, loc.file_name(),
                                    loc.line());
  const int n = size();
  if (rank_ != root) {
    const double buf[1] = {value};
    sendDoubles(root, kGatherTag, std::span<const double>(buf, 1));
    return {};
  }
  std::vector<double> all(static_cast<std::size_t>(n), 0.0);
  all[static_cast<std::size_t>(rank_)] = value;
  for (int r = 0; r < n; ++r) {
    if (r == root) continue;
    all[static_cast<std::size_t>(r)] = recvDoubles(r, kGatherTag)[0];
  }
  return all;
}

std::vector<double> Communicator::allgather(double value,
                                            std::source_location loc) const {
  requireMember();
  MpiContext::CollectiveGuard guard(*ctx_, id_, CollectiveKind::Allgather,
                                    kNoReduceOp, 1, loc.file_name(),
                                    loc.line());
  std::vector<double> all = gather(value, 0, loc);
  if (rank_ != 0) all.assign(static_cast<std::size_t>(size()), 0.0);
  return bcast(std::move(all), 0, loc);
}

void Communicator::alltoallBytes(std::size_t bytesPerPeer,
                                 std::source_location loc) const {
  requireMember();
  MpiContext::CollectiveGuard guard(*ctx_, id_, CollectiveKind::AlltoallBytes,
                                    kNoReduceOp, bytesPerPeer,
                                    loc.file_name(), loc.line());
  const int n = size();
  // Tournament schedule: in round k the partner of r is (k - r) mod n, which
  // is symmetric (partner's partner is r), covers every pair exactly once
  // over k = 0..n-1, and lets each pair run a rank-ordered sendrecv —
  // deadlock-free even when every payload is a rendezvous message.
  for (int k = 0; k < n; ++k) {
    const int partner = ((k - rank_) % n + n) % n;
    if (partner == rank_) continue;  // this rank sits out round k
    sendrecv(partner, kAlltoallTag + k, bytesPerPeer);
  }
}

// ---------------------------------------------------------------------------
// MpiContext's own world collectives
// ---------------------------------------------------------------------------

void MpiContext::neighborExchange(std::size_t bytes, int tag) {
  const int n = size();
  const bool even = rank() % 2 == 0;
  for (int phase = 0; phase < 2; ++phase) {
    // Phase 0 pairs (0,1),(2,3),...; phase 1 pairs (1,2),(3,4),...
    const int dir = ((phase == 0) == even) ? +1 : -1;
    const int peer = rank() + dir;
    if (peer >= 0 && peer < n) sendrecv(peer, tag + phase, bytes);
  }
}

double MpiContext::allreduceMax(double value, std::source_location loc) {
  // Predates the communicator layer and is frozen as-is: its tag sub-space
  // (kReduceTag + (6 << 20) + bit) and message schedule are part of the
  // byte-identical artefact contract for existing campaigns. The verifier
  // stamp rides inside Message and adds no traffic, so it is safe here too.
  CollectiveGuard guard(*this, 0, CollectiveKind::AllreduceMax,
                        static_cast<std::uint8_t>(ReduceOp::Max), 1,
                        loc.file_name(), loc.line());
  const int n = size();
  double acc = value;
  if (n == 1) return acc;
  for (int bit = 1; bit < n; bit *= 2) {
    if (rank() & bit) {
      const double buf[1] = {acc};
      sendDoubles(rank() - bit, kReduceTag + (6 << 20) + bit,
                  std::span<const double>(buf, 1));
      break;
    }
    if (rank() + bit < n) {
      const std::vector<double> incoming =
          recvDoubles(rank() + bit, kReduceTag + (6 << 20) + bit);
      acc = std::max(acc, incoming[0]);
    }
  }
  std::vector<double> result(1, acc);
  return bcast(std::move(result), 0, loc)[0];
}

}  // namespace tibsim::mpi
