// tibsim-lint: allowfile(wildcard-recv) — this file implements the
// wildcard matching machinery (doRecv/deliver/dataArrived) itself.

#include "tibsim/mpi/simmpi.hpp"

#include <algorithm>
#include <cstring>

#include "tibsim/arch/registry.hpp"
#include "tibsim/common/assert.hpp"
#include "tibsim/common/units.hpp"

namespace tibsim::mpi {

using perfmodel::AccessPattern;

WorldConfig WorldConfig::tibidaboNode() {
  WorldConfig cfg;
  cfg.platform = arch::PlatformRegistry::tegra2();
  cfg.frequencyHz = cfg.platform.maxFrequencyHz();
  cfg.protocol = net::Protocol::TcpIp;
  cfg.ranksPerNode = 2;  // one MPI rank per Cortex-A9 core
  cfg.topology.nodesPerLeafSwitch = 32;
  cfg.topology.linkRateBytesPerS = units::gbps(1.0);
  cfg.topology.bisectionBytesPerS = units::gbps(8.0);
  return cfg;
}

// ---------------------------------------------------------------------------
// MpiContext
// ---------------------------------------------------------------------------

MpiContext::MpiContext(MpiWorld& world, sim::Process& process, int rank,
                       int node)
    : world_(world), process_(process), rank_(rank), node_(node) {}

MpiContext::CollectiveGuard::CollectiveGuard(MpiContext& ctx,
                                             std::uint64_t comm,
                                             CollectiveKind kind,
                                             std::uint8_t op,
                                             std::uint64_t count,
                                             const char* file,
                                             std::uint32_t line)
    : ctx_(ctx) {
  if (!ctx_.world_.config_.verifyCollectives) return;
  tracking_ = true;
  if (ctx_.collectiveDepth_++ > 0) return;  // building block: inherit outer
  engaged_ = true;
  CollectiveStamp stamp;
  stamp.kind = kind;
  stamp.op = op;
  stamp.seq = ctx_.nextCollectiveSeq(comm);
  stamp.count = count;
  stamp.file = file;
  stamp.line = line;
  ctx_.activeCollective_ = stamp;
}

MpiContext::CollectiveGuard::~CollectiveGuard() {
  if (!tracking_) return;
  --ctx_.collectiveDepth_;
  if (engaged_) ctx_.activeCollective_ = CollectiveStamp{};
}

int MpiContext::size() const { return world_.ranks(); }

double MpiContext::now() const { return process_.now(); }

void MpiContext::compute(const perfmodel::WorkProfile& work) {
  const double seconds = world_.execModel_.time(
      world_.platform(), work, world_.frequencyHz(), /*cores=*/1);
  world_.stats_.totalFlops += work.flops;
  world_.stats_.totalDramBytes += work.bytes;
  world_.stats_.nodeBusySeconds[static_cast<std::size_t>(node_)] += seconds;
  path_.computeSeconds += seconds;
  const double begin = now();
  process_.delay(seconds);
  world_.traceSpan(rank_, SpanKind::Compute, begin, now());
}

void MpiContext::computeSeconds(double seconds) {
  TIB_REQUIRE(seconds >= 0.0);
  world_.stats_.nodeBusySeconds[static_cast<std::size_t>(node_)] += seconds;
  path_.computeSeconds += seconds;
  const double begin = now();
  process_.delay(seconds);
  world_.traceSpan(rank_, SpanKind::Compute, begin, now());
}

void MpiContext::send(int dst, int tag, std::size_t bytes,
                      std::span<const std::byte> payload) {
  world_.doSend(*this, /*comm=*/0, dst, tag, bytes, payload);
}

void MpiContext::sendDoubles(int dst, int tag,
                             std::span<const double> values) {
  send(dst, tag, values.size_bytes(),
       std::as_bytes(values));
}

std::vector<std::byte> MpiContext::recv(int src, int tag,
                                        std::size_t* receivedBytes) {
  return world_.doRecv(*this, /*comm=*/0, src, tag, receivedBytes);
}

std::vector<double> MpiContext::recvDoubles(int src, int tag) {
  std::size_t bytes = 0;
  int actualSrc = src;
  const std::vector<std::byte> raw =
      world_.doRecv(*this, /*comm=*/0, src, tag, &bytes, &actualSrc);
  TIB_REQUIRE_MSG(raw.size() % sizeof(double) == 0,
                  "recvDoubles: " + std::to_string(raw.size()) +
                      "-byte payload from rank " + std::to_string(actualSrc) +
                      " is not a multiple of sizeof(double) — the sender "
                      "did not use sendDoubles");
  std::vector<double> values(raw.size() / sizeof(double));
  if (!values.empty())
    std::memcpy(values.data(), raw.data(), values.size() * sizeof(double));
  return values;
}

MpiContext::Request MpiContext::isend(int dst, int tag, std::size_t bytes,
                                      std::span<const std::byte> payload) {
  // Eager buffered send: costs are charged now, delivery proceeds in the
  // background; rendezvous is suppressed so the caller never blocks.
  world_.doSend(*this, /*comm=*/0, dst, tag, bytes, payload,
                /*allowRendezvous=*/false);
  PendingOp op;
  op.kind = PendingOp::Kind::Send;
  op.peer = dst;
  op.tag = tag;
  return pushPending(std::move(op));
}

MpiContext::Request MpiContext::irecv(int src, int tag) {
  PendingOp op;
  op.kind = PendingOp::Kind::Recv;
  op.peer = src;
  op.tag = tag;
  return pushPending(std::move(op));
}

namespace {
std::vector<std::byte> doublesToBytes(std::span<const double> values,
                                      std::size_t* receivedBytes) {
  std::vector<std::byte> raw(values.size_bytes());
  if (!raw.empty()) std::memcpy(raw.data(), values.data(), raw.size());
  if (receivedBytes != nullptr) *receivedBytes = raw.size();
  return raw;
}
}  // namespace

std::vector<std::byte> MpiContext::wait(Request request,
                                        std::size_t* receivedBytes) {
  auto it = pending_.begin();
  while (it != pending_.end() && it->request != request) ++it;
  TIB_REQUIRE_MSG(it != pending_.end(), "unknown or already-waited request");
  PendingOp op = std::move(*it);
  *it = std::move(pending_.back());
  pending_.pop_back();
  switch (op.kind) {
    case PendingOp::Kind::Send:
      return {};  // isend completed at initiation
    case PendingOp::Kind::Recv:
      // op.comm is the null communicator for a legacy world irecv; its id()
      // is 0 either way, which is all the match needs.
      return world_.doRecv(*this, op.comm.id(), op.peer, op.tag,
                           receivedBytes);
    case PendingOp::Kind::Barrier: {
      // Lazy collectives replay the i-collective's recorded call site into
      // the verifier stamp; the inner (blocking) collective's own guard
      // nests beneath this one and inherits it.
      CollectiveGuard guard(*this, op.comm.id(), CollectiveKind::Barrier,
                            kNoReduceOp, 0, op.file, op.line);
      op.comm.barrier();
      if (receivedBytes != nullptr) *receivedBytes = 0;
      return {};
    }
    case PendingOp::Kind::Bcast: {
      CollectiveGuard guard(*this, op.comm.id(), CollectiveKind::Bcast,
                            kNoReduceOp, op.values.size(), op.file, op.line);
      return doublesToBytes(op.comm.bcast(std::move(op.values), op.root),
                            receivedBytes);
    }
    case PendingOp::Kind::Allreduce: {
      CollectiveGuard guard(*this, op.comm.id(), CollectiveKind::Allreduce,
                            static_cast<std::uint8_t>(op.op),
                            op.values.size(), op.file, op.line);
      return doublesToBytes(op.comm.allreduce(op.values, op.op),
                            receivedBytes);
    }
  }
  return {};
}

void MpiContext::waitall(std::span<const Request> requests) {
  for (Request r : requests) wait(r);
}

void MpiContext::sendrecv(int peer, int tag, std::size_t sendBytes,
                          std::size_t* recvBytes) {
  TIB_REQUIRE(peer != rank_);
  // Rank-ordered exchange: lower rank sends first. Safe for both eager and
  // rendezvous messages (the classic deadlock-free pairing).
  if (rank_ < peer) {
    send(peer, tag, sendBytes);
    recv(peer, tag, recvBytes);
  } else {
    recv(peer, tag, recvBytes);
    send(peer, tag, sendBytes);
  }
}

// ---------------------------------------------------------------------------
// MpiWorld
// ---------------------------------------------------------------------------

MpiWorld::MpiWorld(WorldConfig config, int ranks)
    : config_(std::move(config)), ranks_(ranks) {
  TIB_REQUIRE(ranks_ >= 1);
  TIB_REQUIRE(config_.ranksPerNode >= 1 &&
              config_.ranksPerNode <= config_.platform.soc.cores);
  nodes_ = (ranks_ + config_.ranksPerNode - 1) / config_.ranksPerNode;
  frequencyHz_ = config_.frequencyHz > 0.0 ? config_.frequencyHz
                                           : config_.platform.maxFrequencyHz();
  protocol_ = std::make_unique<net::ProtocolModel>(
      config_.protocol, config_.platform, frequencyHz_);
  // Pure function of per-world constants; hoisted out of the per-send
  // shared-memory path.
  sameNodeCopyBandwidth_ = 0.5 * execModel_.achievableBandwidth(
                                     platform(), AccessPattern::Streaming, 1,
                                     frequencyHz_);
}

MpiWorld::~MpiWorld() {
  // A world whose run() threw still holds blocked rank fibers. Unwind them
  // first: their destructors (CollectiveGuard among them) reach into the
  // contexts, mailboxes, fabric and pools, which reverse declaration order
  // would otherwise free before the engine.
  sim_.reset();
}

void MpiWorld::chargeCpu(int node, double seconds) {
  stats_.nodeBusySeconds[static_cast<std::size_t>(node)] += seconds;
  stats_.nodeCommCpuSeconds[static_cast<std::size_t>(node)] += seconds;
}

void MpiWorld::traceSpan(int rank, SpanKind kind, double begin, double end,
                         int peer, std::size_t bytes, std::uint64_t comm) {
  if (!tracing_) return;
  tracer_.record(TraceSpan{rank, kind, begin, end, peer, bytes, comm});
}

void MpiWorld::doSend(MpiContext& ctx, std::uint64_t comm, int dst, int tag,
                      std::size_t bytes, std::span<const std::byte> payload,
                      bool allowRendezvous) {
  TIB_REQUIRE(dst >= 0 && dst < ranks_);
  TIB_REQUIRE(dst != ctx.rank());
  ++stats_.messageCount;
  stats_.payloadBytes += static_cast<double>(bytes);

  // Small payloads ride inline in the Message; larger ones borrow a warm
  // buffer from the pool (recycled by doRecv/wait), so a steady-state send
  // performs no heap allocation.
  MessagePayload copy(payload, pool_);
  const int srcNode = ctx.node();
  const int dstNode = nodeOfRank(dst);
  sim::Simulation& sim = *sim_;

  const double sendBegin = sim.now();
  if (srcNode == dstNode) {
    // Shared-memory path: one copy in, one copy out, no NIC.
    const double side =
        0.3e-6 + static_cast<double>(bytes) / sameNodeCopyBandwidth_;
    chargeCpu(srcNode, side);
    ctx.path_.sendSeconds += side;
    ctx.process_.delay(side);
    traceSpan(ctx.rank(), SpanKind::Send, sendBegin, sim.now(), dst,
              bytes, comm);
    Message msg{ctx.rank(), tag, bytes, std::move(copy), Stage::Delivered,
                side, nullptr, nextMessageId_++};
    msg.comm = comm;
    msg.verify = ctx.activeCollective_;
    msg.path = ctx.path_;
    msg.departTime = sim.now();
    const std::uint32_t slot = stashInflight(std::move(msg));
    sim.scheduleIn(0.2e-6, [this, dst, slot] { deliver(dst, slot); });
    return;
  }

  net::MessageCosts costs = protocol_->messageCosts(bytes);
  if (!allowRendezvous) costs.rendezvous = false;

  if (!costs.rendezvous) {
    // Eager: pay the sender stack, put the bytes on the wire, return.
    chargeCpu(srcNode, costs.senderSeconds);
    ctx.path_.sendSeconds += costs.senderSeconds;
    ctx.process_.delay(costs.senderSeconds);
    traceSpan(ctx.rank(), SpanKind::Send, sendBegin, sim.now(), dst,
              bytes, comm);
    const double wireBytes =
        costs.wireSeconds * platform().nicLinkRateBytesPerS;
    Message msg{ctx.rank(), tag, bytes, std::move(copy), Stage::Delivered,
                costs.receiverSeconds, nullptr, nextMessageId_++};
    msg.comm = comm;
    msg.verify = ctx.activeCollective_;
    msg.path = ctx.path_;
    msg.departTime = sim.now();
    const double arrival =
        fabric_->scheduleWire(srcNode, dstNode, wireBytes, sim.now());
    const std::uint32_t slot = stashInflight(std::move(msg));
    sim.scheduleAt(arrival, [this, dst, slot] { deliver(dst, slot); });
    return;
  }

  // Rendezvous (Open-MX >= 32 KiB): send RTS, block until the CTS wakes us,
  // then stream the data with zero-copy send semantics.
  const net::MessageCosts rts = protocol_->messageCosts(0);
  chargeCpu(srcNode, rts.senderSeconds);
  ctx.path_.sendSeconds += rts.senderSeconds;
  ctx.process_.delay(rts.senderSeconds);
  const std::uint64_t id = nextMessageId_++;
  Message msg{ctx.rank(), tag,     bytes, std::move(copy),
              Stage::RtsPending,   costs.receiverSeconds,
              &ctx.process_,       id};
  msg.comm = comm;
  msg.verify = ctx.activeCollective_;
  const double rtsArrival =
      fabric_->scheduleWire(srcNode, dstNode, 84.0, sim.now());
  const std::uint32_t slot = stashInflight(std::move(msg));
  sim.scheduleAt(rtsArrival, [this, dst, slot] { deliver(dst, slot); });
  // Stall-watchdog bookkeeping: the rank is about to block outside any
  // mailbox wait, so record what it is blocked on here.
  ctx.sendBlocked_ = true;
  ctx.sendPeer_ = dst;
  ctx.sendTag_ = tag;
  ctx.sendComm_ = comm;
  ctx.sendBlockedSince_ = sim.now();
  ctx.process_.suspend();  // woken by the receiver's CTS
  ctx.sendBlocked_ = false;

  // CTS received: stream the payload. The wake-up already adopted the
  // receiver's chain (the CTS is what unblocked us); the stream CPU and
  // the data wire extend it toward the receiver.
  chargeCpu(srcNode, costs.senderSeconds);
  ctx.path_.sendSeconds += costs.senderSeconds;
  ctx.process_.delay(costs.senderSeconds);
  const double wireBytes = costs.wireSeconds * platform().nicLinkRateBytesPerS;
  traceSpan(ctx.rank(), SpanKind::Send, sendBegin, sim.now(), dst, bytes,
            comm);
  const obs::PathSnapshot dataPath = ctx.path_;
  const double dataDepart = sim.now();
  const double dataArrival =
      fabric_->scheduleWire(srcNode, dstNode, wireBytes, sim.now());
  sim.scheduleAt(dataArrival, [this, dst, id, dataPath, dataDepart] {
    dataArrived(dst, id, dataPath, dataDepart);
  });
}

void MpiWorld::dataArrived(int dstRank, std::uint64_t id,
                           const obs::PathSnapshot& path, double departTime) {
  Mailbox& box = mailboxes_[static_cast<std::size_t>(dstRank)];
  Message* arrived = nullptr;
  for (const std::uint32_t s : box.messages) {
    Message& m = inflight_[s];
    if (m.id == id) {
      arrived = &m;
      arrived->stage = Stage::Delivered;
      // Rendezvous completion: the chain that matters is the sender's at
      // data-stream time, not the stale RTS-time snapshot.
      arrived->path = path;
      arrived->departTime = departTime;
      arrived->arrivalTime = sim_->now();
      break;
    }
  }
  if (!box.waiting) return;
  box.waiting = false;
  // Fold the receive cost into the wake-up only when the waiter will
  // consume exactly this message, i.e. it is the first (src, tag) match
  // in mailbox order; otherwise a plain wake and the receiver rescans.
  Message* firstMatch = nullptr;
  for (const std::uint32_t s : box.messages) {
    Message& m = inflight_[s];
    if (matches(m, box.waitComm, box.waitSrc, box.waitTag)) {
      firstMatch = &m;
      break;
    }
  }
  if (arrived != nullptr && firstMatch == arrived) {
    chargeCpu(nodeOfRank(dstRank), arrived->receiverCost);
    arrived->receiverCharged = true;
    sim_->resumeAt(sim_->now() + arrived->receiverCost, *box.waiter);
  } else {
    sim_->resume(*box.waiter);
  }
}

std::uint32_t MpiWorld::stashInflight(Message&& message) {
  if (freeSlots_.empty()) {
    inflight_.push_back(std::move(message));
    return static_cast<std::uint32_t>(inflight_.size() - 1);
  }
  const std::uint32_t slot = freeSlots_.back();
  freeSlots_.pop_back();
  inflight_[slot] = std::move(message);
  return slot;
}

std::vector<std::byte> MpiWorld::consumeSlot(std::uint32_t slot) {
  std::vector<std::byte> out = inflight_[slot].payload.intoVector(pool_);
  freeSlots_.push_back(slot);
  return out;
}

void MpiWorld::deliver(int dstRank, std::uint32_t slot) {
  Mailbox& box = mailboxes_[static_cast<std::size_t>(dstRank)];
  box.messages.push_back(slot);
  Message& msg = inflight_[slot];
  msg.arrivalTime = sim_->now();
  if (box.waiting && matches(msg, box.waitComm, box.waitSrc, box.waitTag)) {
    box.waiting = false;
    if (msg.stage == Stage::Delivered) {
      // The receiver is already blocked on exactly this message, so the
      // receive-side protocol cost can be charged here and folded into the
      // wake-up time: one context switch instead of wake + delay. The
      // receiver resumes at the same simulated instant either way.
      chargeCpu(nodeOfRank(dstRank), msg.receiverCost);
      msg.receiverCharged = true;
      sim_->resumeAt(sim_->now() + msg.receiverCost, *box.waiter);
    } else {
      sim_->resume(*box.waiter);
    }
  }
}

std::vector<std::byte> MpiWorld::doRecv(MpiContext& ctx, std::uint64_t comm,
                                        int src, int tag,
                                        std::size_t* receivedBytes,
                                        int* srcOut, int* tagOut) {
  TIB_REQUIRE(src == kAnySource || (src >= 0 && src < ranks_));
  TIB_REQUIRE(src != ctx.rank());
  TIB_REQUIRE(tag == kAnyTag || tag >= 0);
  Mailbox& box = mailboxes_[static_cast<std::size_t>(ctx.rank())];
  sim::Simulation& sim = *sim_;
  const double recvEntry = sim.now();

  while (true) {
    for (auto it = box.messages.begin(); it != box.messages.end(); ++it) {
      const std::uint32_t slot = *it;
      Message& m = inflight_[slot];
      // Wildcards resolve here: the first match in mailbox order is the
      // canonical choice (the event queue fixes delivery order), so
      // kAnySource/kAnyTag stay deterministic.
      if (!matches(m, comm, src, tag)) continue;
      const int msgSrc = m.src;
      const int msgTag = m.tag;
      if (srcOut != nullptr) *srcOut = msgSrc;
      if (tagOut != nullptr) *tagOut = msgTag;
      if (m.stage == Stage::Delivered) {
        // Collective verifier: the consumed message's stamp must agree
        // with whatever collective this rank is executing. The comparison
        // rides the canonical match order, so any report is byte-identical
        // across runs.
        verifyCollectiveMatch(ctx, m);
        if (m.receiverCharged) {
          // Delivery already charged receiverCost and folded it into the
          // wake-up; reconstruct the span boundary and consume in place.
          // The clamp covers the rare case where a pre-charged message is
          // consumed by a later recv call (its cost was absorbed while we
          // blocked elsewhere).
          const double cpuBegin =
              std::max(recvEntry, sim.now() - m.receiverCost);
          traceSpan(ctx.rank(), SpanKind::Wait, recvEntry, cpuBegin, msgSrc,
                    0, comm);
          traceSpan(ctx.rank(), SpanKind::Recv, cpuBegin, sim.now(), msgSrc,
                    m.bytes, comm);
          // Critical path: the message arriving after we started waiting
          // means the sender's chain (plus the hop) bounded this rank.
          if (m.arrivalTime > recvEntry)
            ctx.adoptPath(m.path,
                          std::max(0.0, m.arrivalTime - m.departTime));
          ctx.path_.recvSeconds += m.receiverCost;
          if (receivedBytes != nullptr) *receivedBytes = m.bytes;
          box.messages.erase(it);
          return consumeSlot(slot);
        }
        // Dequeue before delay(): deliveries during the yield push into
        // this deque and invalidate iterators, and they can also grow the
        // slab — so keep the slot index, not the Message reference.
        const double cost = m.receiverCost;
        const std::size_t bytes = m.bytes;
        if (m.arrivalTime > recvEntry)
          ctx.adoptPath(m.path, std::max(0.0, m.arrivalTime - m.departTime));
        ctx.path_.recvSeconds += cost;
        box.messages.erase(it);
        traceSpan(ctx.rank(), SpanKind::Wait, recvEntry, sim.now(), msgSrc,
                  0, comm);
        const double cpuBegin = sim.now();
        chargeCpu(ctx.node(), cost);
        ctx.process_.delay(cost);
        traceSpan(ctx.rank(), SpanKind::Recv, cpuBegin, sim.now(), msgSrc,
                  bytes, comm);
        if (receivedBytes != nullptr) *receivedBytes = bytes;
        return consumeSlot(slot);
      }
      if (m.stage == Stage::RtsPending) {
        // Matched a rendezvous request: return a CTS and wait for the data.
        // msgSrc (not the possibly-wildcard src) names the sender.
        m.stage = Stage::AwaitingData;
        sim::Process* sender = m.sender;  // before delay(): the yield may
                                          // grow the slab and move Messages
        const net::MessageCosts cts = protocol_->messageCosts(0);
        chargeCpu(ctx.node(), cts.senderSeconds);
        ctx.path_.recvSeconds += cts.senderSeconds;
        ctx.process_.delay(cts.senderSeconds);
        // The CTS is what unblocks the rendezvous sender, so the sender's
        // chain becomes this receiver's chain plus the CTS hop, adopted at
        // the sender's wake-up.
        const obs::PathSnapshot ctsPath = ctx.path_;
        MpiContext* senderCtx =
            contexts_[static_cast<std::size_t>(msgSrc)].get();
        const double ctsDepart = sim.now();
        const double ctsArrival = fabric_->scheduleWire(
            ctx.node(), nodeOfRank(msgSrc), 84.0, ctsDepart);
        const double ctsLink = std::max(0.0, ctsArrival - ctsDepart);
        sim.scheduleAt(ctsArrival,
                       [this, sender, senderCtx, ctsPath, ctsLink] {
                         senderCtx->adoptPath(ctsPath, ctsLink);
                         sim_->resume(*sender);
                       });
        break;  // fall through to waiting for the data-arrival wake-up
      }
      // AwaitingData: the exchange is in flight; keep waiting.
      break;
    }
    box.waiting = true;
    box.waitComm = comm;
    box.waitSrc = src;
    box.waitTag = tag;
    box.waiter = &ctx.process_;
    box.blockedSince = sim.now();
    ctx.process_.suspend();
    box.waiting = false;
  }
}

void MpiWorld::verifyCollectiveMatch(MpiContext& ctx, const Message& message) {
  if (!config_.verifyCollectives) return;
  const CollectiveStamp& local = ctx.activeCollective_;
  const CollectiveStamp& remote = message.verify;
  if (!local.engaged() && !remote.engaged()) return;  // plain point-to-point
  ++ctx.collectiveChecks_;
  if (local.engaged() && remote.engaged() && local.matches(remote)) return;
  throw ContractError(formatCollectiveMismatch(ctx.rank(), ctx.node(),
                                               message.src, message.comm,
                                               local, remote, ctx.now()));
}

WorldStats MpiWorld::run(const RankBody& body) {
  sim_ = std::make_unique<sim::Simulation>();
  // Huge worlds lease fiber stacks from the slab arena so the VMA count
  // stays far below vm.max_map_count (private guarded stacks cost 2 each).
  sim_->setPooledStacks(ranks_ >= sim::kPooledStacksMinRanks);
  // Roughly eager-send + wake-up per rank in flight at any moment.
  sim_->reserveEvents(static_cast<std::size_t>(ranks_) * 4);
  net::TopologySpec topo = config_.topology;
  topo.nodes = nodes_;
  fabric_ = std::make_unique<net::Fabric>(topo, config_.linkTelemetry);
  // clear + resize, not assign: Mailbox holds move-only Messages now.
  mailboxes_.clear();
  mailboxes_.resize(static_cast<std::size_t>(ranks_));
  contexts_.clear();
  inflight_.clear();
  freeSlots_.clear();
  pool_.resetStats();  // parked buffers survive: repeat runs start warm
  stats_ = WorldStats{};
  stats_.nodes = nodes_;
  stats_.rankFinishSeconds.assign(static_cast<std::size_t>(ranks_), 0.0);
  stats_.nodeBusySeconds.assign(static_cast<std::size_t>(nodes_), 0.0);
  stats_.nodeCommCpuSeconds.assign(static_cast<std::size_t>(nodes_), 0.0);

  std::vector<sim::Process*> processes;
  processes.reserve(static_cast<std::size_t>(ranks_));
  for (int r = 0; r < ranks_; ++r) {
    auto& process = sim_->spawn(
        "rank" + std::to_string(r),
        [this, r, &body](sim::Process& p) {
          MpiContext& ctx = *contexts_[static_cast<std::size_t>(r)];
          (void)p;
          body(ctx);
          stats_.rankFinishSeconds[static_cast<std::size_t>(r)] = ctx.now();
        });
    contexts_.push_back(std::unique_ptr<MpiContext>(
        new MpiContext(*this, process, r, nodeOfRank(r))));
    processes.push_back(&process);
  }

  sim_->run();
  stats_.engine = sim_->engineStats();
  stats_.traceSpansRecorded = tracer_.spansRecorded();
  stats_.traceSpansRetained = tracer_.spansRetained();
  stats_.traceMemoryBytes = tracer_.memoryBytes();
  // World-teardown checkpoint: drop parked buffers this run's peak demand
  // could never use at once, then harvest the counters (trim included).
  pool_.trimToHighWater();
  const PayloadPool::Stats& poolStats = pool_.stats();
  stats_.payloadInlineMessages = poolStats.inlineMessages;
  stats_.payloadPooledMessages = poolStats.pooledMessages;
  stats_.payloadPoolReuses = poolStats.reuses;
  stats_.payloadPoolAllocations = poolStats.allocations;
  stats_.payloadPoolReturns = poolStats.returns;
  stats_.payloadPoolTrimmedBuffers = poolStats.trimmedBuffers;
  stats_.payloadPoolLiveHighWater = poolStats.liveHighWater;
  stats_.payloadPoolClassStats = pool_.classStats();
  for (const auto& ctx : contexts_)
    stats_.collectiveChecks += ctx->collectiveChecks_;

  for (sim::Process* p : processes) {
    if (p->exception() != nullptr) std::rethrow_exception(p->exception());
  }
  TIB_REQUIRE_MSG(sim_->liveProcessCount() == 0,
                  deadlockMessage(sim_->now()));

  stats_.wallClockSeconds = *std::max_element(
      stats_.rankFinishSeconds.begin(), stats_.rankFinishSeconds.end());
  stats_.wireBytes = fabric_->totalWireBytes();
  stats_.fabricQueueingSeconds = fabric_->totalQueueingSeconds();
  harvestPathAndLinks();
  return stats_;
}

void MpiWorld::harvestPathAndLinks() {
  stats_.linkStats = fabric_->linkStats();
  // The end rank bounds the world: argmax finish time, ties to the lowest
  // rank (max_element returns the first maximum).
  const auto last = std::max_element(stats_.rankFinishSeconds.begin(),
                                     stats_.rankFinishSeconds.end());
  const int endRank =
      static_cast<int>(last - stats_.rankFinishSeconds.begin());
  const obs::PathSnapshot& path =
      contexts_[static_cast<std::size_t>(endRank)]->path_;
  obs::CriticalPath& cp = stats_.criticalPath;
  cp.computeSeconds = path.computeSeconds;
  cp.sendSeconds = path.sendSeconds;
  cp.recvSeconds = path.recvSeconds;
  cp.linkSeconds = path.linkSeconds;
  cp.edges = path.edges;
  cp.endRank = endRank;
  // Everything the chain does not explain is time the path spent blocked
  // with no modelled predecessor (e.g. a receiver that out-waited the
  // adoption tie) — report it as wait rather than losing it.
  cp.waitSeconds =
      std::max(0.0, stats_.wallClockSeconds - path.lengthSeconds());
}

std::string MpiWorld::deadlockMessage(double now) {
  std::string message =
      "simMPI deadlock: ranks still blocked after event queue drained";
  if (!config_.stallReport) {
    return message +
           " (enable --stall-report / TIBSIM_STALL_REPORT=1 for the "
           "per-rank wait-state report)";
  }
  const std::vector<TraceSpan> retained =
      tracing_ ? tracer_.retainedSpans() : std::vector<TraceSpan>{};
  constexpr std::size_t kSpansPerRank = 3;
  std::vector<obs::StallEntry> entries;
  for (int r = 0; r < ranks_; ++r) {
    const Mailbox& box = mailboxes_[static_cast<std::size_t>(r)];
    const MpiContext* ctx = contexts_[static_cast<std::size_t>(r)].get();
    obs::StallEntry entry;
    if (box.waiting) {
      entry.op = "recv";
      entry.peer = box.waitSrc;
      entry.tag = box.waitTag;
      entry.comm = box.waitComm;
      entry.blockedSince = box.blockedSince;
    } else if (ctx != nullptr && ctx->sendBlocked_) {
      entry.op = "rendezvous-send";
      entry.peer = ctx->sendPeer_;
      entry.tag = ctx->sendTag_;
      entry.comm = ctx->sendComm_;
      entry.blockedSince = ctx->sendBlockedSince_;
    } else {
      continue;  // this rank finished (or never blocked)
    }
    entry.rank = r;
    entry.node = nodeOfRank(r);
    for (const TraceSpan& span : retained) {
      if (span.rank != r) continue;
      entry.lastSpans.push_back(span);
      if (entry.lastSpans.size() > kSpansPerRank)
        entry.lastSpans.erase(entry.lastSpans.begin());
    }
    entries.push_back(std::move(entry));
  }
  return message + "\n" + obs::formatStallReport(entries, now);
}

}  // namespace tibsim::mpi
