// tibsim-lint: allowfile(wildcard-recv) — this file implements the
// wildcard matching machinery (doRecv/deliver/dataArrived) itself.

#include "tibsim/mpi/simmpi.hpp"

#include <algorithm>

#include "tibsim/arch/registry.hpp"
#include "tibsim/common/assert.hpp"
#include "tibsim/common/units.hpp"

namespace tibsim::mpi {

using obs::SpanKind;
using obs::TraceSpan;
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
    : Communicator(this, 0, rank, nullptr),
      world_(world),
      process_(process),
      node_(node) {}

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

double MpiContext::now() const { return process_.now(); }

void MpiContext::compute(const perfmodel::WorkProfile& work) {
  world_.stats_.totalFlops += work.flops;
  world_.stats_.totalDramBytes += work.bytes;
  computeSeconds(world_.execModel_.time(world_.platform(), work,
                                        world_.frequencyHz(), /*cores=*/1));
}

void MpiContext::computeSeconds(double seconds) {
  TIB_REQUIRE(seconds >= 0.0);
  world_.stats_.nodeBusySeconds[static_cast<std::size_t>(node_)] += seconds;
  path_.computeSeconds += seconds;
  const double begin = now();
  process_.delay(seconds);
  world_.traceSpan(rank(), SpanKind::Compute, begin, now());
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
  // performs no heap allocation. The receive side still allocates the one
  // vector it hands the application (bytes or doubles).
  Message msg{ctx.rank(), tag, bytes, MessagePayload(payload, pool_)};
  msg.comm = comm;
  msg.verify = ctx.activeCollective_;
  const int srcNode = ctx.node();
  const int dstNode = nodeOfRank(dst);
  sim::Simulation& sim = *sim_;
  const double sendBegin = sim.now();

  net::MessageCosts costs;
  if (srcNode == dstNode) {
    // Shared-memory path: an eager send with one copy in and one copy out
    // and no NIC.
    costs.senderSeconds = costs.receiverSeconds =
        0.3e-6 + static_cast<double>(bytes) / sameNodeCopyBandwidth_;
  } else {
    costs = protocol_->messageCosts(bytes);
    if (!allowRendezvous) costs.rendezvous = false;
  }
  msg.receiverCost = costs.receiverSeconds;
  const double wireBytes = costs.wireSeconds * platform().nicLinkRateBytesPerS;

  if (!costs.rendezvous) {
    // Eager: pay the sender stack, put the bytes on the wire, return.
    chargeCpu(srcNode, costs.senderSeconds);
    ctx.path_.sendSeconds += costs.senderSeconds;
    ctx.process_.delay(costs.senderSeconds);
    traceSpan(ctx.rank(), SpanKind::Send, sendBegin, sim.now(), dst,
              bytes, comm);
    msg.path = ctx.path_;
    msg.departTime = sim.now();
    const double arrival =
        srcNode == dstNode
            ? sim.now() + 0.2e-6
            : fabric_->scheduleWire(srcNode, dstNode, wireBytes, sim.now());
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
  msg.stage = Stage::RtsPending;
  const double rtsArrival =
      fabric_->scheduleWire(srcNode, dstNode, 84.0, sim.now());
  const std::uint32_t slot = stashInflight(std::move(msg));
  sim.scheduleAt(rtsArrival, [this, dst, slot] { deliver(dst, slot); });
  Mailbox& own = mailboxes_[static_cast<std::size_t>(ctx.rank())];
  own.wait = Wait::RendezvousSend;
  own.waitComm = comm;
  own.waitPeer = dst;
  own.waitTag = tag;
  own.blockedSince = sim.now();
  ctx.process_.suspend();  // woken by ctsArrived
  own.wait = Wait::None;

  // CTS received: stream the payload. The wake-up already adopted the
  // receiver's chain (the CTS is what unblocked us); the stream CPU and
  // the data wire extend it toward the receiver.
  chargeCpu(srcNode, costs.senderSeconds);
  ctx.path_.sendSeconds += costs.senderSeconds;
  ctx.process_.delay(costs.senderSeconds);
  traceSpan(ctx.rank(), SpanKind::Send, sendBegin, sim.now(), dst, bytes,
            comm);
  // The receiver stays in its doRecv, and the message AwaitingData, until
  // dataArrived, so nothing reads these two fields before it does.
  Message& data = inflight_[slot];
  data.path = ctx.path_;
  data.departTime = sim.now();
  const double dataArrival =
      fabric_->scheduleWire(srcNode, dstNode, wireBytes, sim.now());
  sim.scheduleAt(dataArrival, [this, dst, slot] { dataArrived(dst, slot); });
}

void MpiWorld::ctsArrived(std::uint32_t slot) {
  const Message& m = inflight_[slot];
  MpiContext& sender = *contexts_[static_cast<std::size_t>(m.src)];
  // This event fires at the CTS's arrival, so now() - departTime is the
  // CTS hop's link time.
  sender.adoptPath(m.path, std::max(0.0, sim_->now() - m.departTime));
  sim_->resume(sender.process_);
}

void MpiWorld::dataArrived(int dstRank, std::uint32_t slot) {
  Message& m = inflight_[slot];
  m.stage = Stage::Delivered;
  m.arrivalTime = sim_->now();
  const Mailbox& box = mailboxes_[static_cast<std::size_t>(dstRank)];
  if (box.wait != Wait::Recv) return;
  // The receiver matched the RTS as its first match and stays in that
  // doRecv until the data lands: deliveries queue behind the message, and
  // a wake-up by one of them rescans and finds this message first again.
  // So a waiting receiver will consume exactly this message.
  TIB_ASSERT(matches(m, box.waitComm, box.waitPeer, box.waitTag));
  wakeReceiver(dstRank, &m);
}

void MpiWorld::wakeReceiver(int dstRank, Message* consumed) {
  Mailbox& box = mailboxes_[static_cast<std::size_t>(dstRank)];
  box.wait = Wait::None;
  if (consumed == nullptr) {
    sim_->resume(*box.waiter);
    return;
  }
  chargeCpu(nodeOfRank(dstRank), consumed->receiverCost);
  consumed->receiverCharged = true;
  sim_->resumeAt(sim_->now() + consumed->receiverCost, *box.waiter);
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

MessagePayload MpiWorld::takeSlot(std::uint32_t slot) {
  MessagePayload out = std::move(inflight_[slot].payload);
  freeSlots_.push_back(slot);
  return out;
}

void MpiWorld::deliver(int dstRank, std::uint32_t slot) {
  Mailbox& box = mailboxes_[static_cast<std::size_t>(dstRank)];
  Message& msg = inflight_[slot];
  if (box.tail == kNoSlot)
    box.head = slot;
  else
    inflight_[box.tail].next = slot;
  box.tail = slot;
  msg.arrivalTime = sim_->now();
  // The receiver is blocked on a match for this message, so its receive
  // cost folds into the wake-up; an RTS has no receive cost to fold.
  if (box.wait == Wait::Recv &&
      matches(msg, box.waitComm, box.waitPeer, box.waitTag))
    wakeReceiver(dstRank, msg.stage == Stage::Delivered ? &msg : nullptr);
}

void MpiWorld::unlink(Mailbox& box, std::uint32_t prev, std::uint32_t slot) {
  const std::uint32_t next = inflight_[slot].next;
  if (prev == kNoSlot)
    box.head = next;
  else
    inflight_[prev].next = next;
  if (box.tail == slot) box.tail = prev;
}

MessagePayload MpiWorld::doRecv(MpiContext& ctx, std::uint64_t comm, int src,
                                int tag, std::size_t* receivedBytes,
                                int* srcOut, int* tagOut) {
  TIB_REQUIRE(src == kAnySource || (src >= 0 && src < ranks_));
  TIB_REQUIRE(src != ctx.rank());
  TIB_REQUIRE(tag == kAnyTag || tag >= 0);
  Mailbox& box = mailboxes_[static_cast<std::size_t>(ctx.rank())];
  sim::Simulation& sim = *sim_;
  const double recvEntry = sim.now();

  while (true) {
    for (std::uint32_t prev = kNoSlot, slot = box.head; slot != kNoSlot;
         prev = slot, slot = inflight_[slot].next) {
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
        // Unlink before delay(): deliveries during the yield append to this
        // list, and they can also grow the slab — so keep the slot index,
        // not the Message reference.
        const double cost = m.receiverCost;
        const std::size_t bytes = m.bytes;
        const bool charged = m.receiverCharged;
        // Critical path: the message arriving after we started waiting
        // means the sender's chain (plus the hop) bounded this rank.
        if (m.arrivalTime > recvEntry)
          ctx.adoptPath(m.path, std::max(0.0, m.arrivalTime - m.departTime));
        ctx.path_.recvSeconds += cost;
        unlink(box, prev, slot);
        // A pre-charged delivery folded the receive cost into the wake-up,
        // so the CPU span ends now and began `cost` earlier. The clamp
        // covers the rare case where such a message is consumed by a later
        // recv call (its cost was absorbed while we blocked elsewhere).
        const double cpuBegin =
            charged ? std::max(recvEntry, sim.now() - cost) : sim.now();
        traceSpan(ctx.rank(), SpanKind::Wait, recvEntry, cpuBegin, msgSrc, 0,
                  comm);
        if (!charged) {
          chargeCpu(ctx.node(), cost);
          ctx.process_.delay(cost);
        }
        traceSpan(ctx.rank(), SpanKind::Recv, cpuBegin, sim.now(), msgSrc,
                  bytes, comm);
        if (receivedBytes != nullptr) *receivedBytes = bytes;
        return takeSlot(slot);
      }
      if (m.stage == Stage::RtsPending) {
        // Matched a rendezvous request: return a CTS and wait for the data.
        // msgSrc (not the possibly-wildcard src) names the sender.
        m.stage = Stage::AwaitingData;
        const net::MessageCosts cts = protocol_->messageCosts(0);
        chargeCpu(ctx.node(), cts.senderSeconds);
        ctx.path_.recvSeconds += cts.senderSeconds;
        ctx.process_.delay(cts.senderSeconds);
        // The CTS is what unblocks the rendezvous sender, so the sender's
        // chain becomes this receiver's chain plus the CTS hop: the slot
        // carries both to ctsArrived. Index it afresh: the yield may have
        // grown the slab and moved the Message.
        Message& rts = inflight_[slot];
        rts.path = ctx.path_;
        rts.departTime = sim.now();
        const double ctsArrival = fabric_->scheduleWire(
            ctx.node(), nodeOfRank(msgSrc), 84.0, sim.now());
        sim.scheduleAt(ctsArrival, [this, slot] { ctsArrived(slot); });
        break;  // fall through to waiting for the data-arrival wake-up
      }
      // AwaitingData: the exchange is in flight; keep waiting.
      break;
    }
    // Only wakeReceiver resumes this wait, and it clears the record.
    box.wait = Wait::Recv;
    box.waitComm = comm;
    box.waitPeer = src;
    box.waitTag = tag;
    box.waiter = &ctx.process_;
    box.blockedSince = sim.now();
    ctx.process_.suspend();
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
  mailboxes_.assign(static_cast<std::size_t>(ranks_), Mailbox{});
  contexts_.clear();
  inflight_.clear();
  freeSlots_.clear();
  pool_.resetStats();  // parked buffers survive: repeat runs start warm
  tracer_.clear();      // trace accounting is per run, like stats_
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
  // World-teardown checkpoint: no rank can consume a message any more, so
  // the buffers of those never received go back to the pool; then drop
  // parked buffers this run's peak demand could never use at once, and
  // harvest the counters (returns and trim included).
  for (Message& m : inflight_) m.payload.recycle(pool_);
  pool_.trimToHighWater();
  const PayloadPool::Stats& poolStats = pool_.stats();
  stats_.payloadInlineMessages = poolStats.inlineMessages;
  stats_.payloadPooledMessages = poolStats.pooledMessages;
  stats_.payloadPoolReuses = poolStats.reuses;
  stats_.payloadPoolAllocations = poolStats.allocations;
  stats_.payloadPoolReturns = poolStats.returns;
  stats_.payloadPoolTrimmedBuffers = poolStats.trimmedBuffers;
  stats_.payloadPoolLiveHighWater = poolStats.liveHighWater;
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
  // Every rank's last few retained spans, in one pass over the trace (a
  // scan per blocked rank took tens of seconds at 2,048 ranks).
  constexpr std::size_t kSpansPerRank = 3;
  std::vector<std::vector<TraceSpan>> recent(static_cast<std::size_t>(ranks_));
  for (const TraceSpan& span : tracer_.retainedSpans()) {
    if (span.rank < 0 || span.rank >= ranks_) continue;
    std::vector<TraceSpan>& last = recent[static_cast<std::size_t>(span.rank)];
    if (last.size() == kSpansPerRank) last.erase(last.begin());
    last.push_back(span);
  }
  std::vector<obs::StallEntry> entries;
  for (int r = 0; r < ranks_; ++r) {
    const Mailbox& box = mailboxes_[static_cast<std::size_t>(r)];
    if (box.wait == Wait::None) continue;  // finished (or never blocked)
    obs::StallEntry entry;
    entry.op = box.wait == Wait::Recv ? "recv" : "rendezvous-send";
    entry.peer = box.waitPeer;
    entry.tag = box.waitTag;
    entry.comm = box.waitComm;
    entry.blockedSince = box.blockedSince;
    entry.rank = r;
    entry.node = nodeOfRank(r);
    entry.lastSpans = std::move(recent[static_cast<std::size_t>(r)]);
    entries.push_back(std::move(entry));
  }
  return "simMPI deadlock: ranks still blocked after event queue drained\n" +
         obs::formatStallReport(entries, now);
}

}  // namespace tibsim::mpi
