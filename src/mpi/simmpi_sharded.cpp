// Sharded logical-process execution for MpiWorld (simShards > 1).
//
// The world is cut at leaf-switch boundaries into contiguous rank ranges,
// one Simulation per shard, driven in conservative windows by
// sim::ShardScheduler with the fabric's one-hop cut-through latency as the
// lookahead bound. Everything here exists to keep the serialised campaign
// artefacts byte-identical to the single-queue engine for ANY shard count:
//
//  * each shard logs its dispatches under canonical (t, ord1, ord2) keys
//    (sim/simulation.hpp); the window barrier k-way-merges the logs into
//    the exact order the single global queue would have dispatched,
//    assigning every dispatch its global ordinal along the way;
//  * side effects whose result depends on that global order — fabric
//    occupancy, totalFlops/totalDramBytes folds, trace spans, the
//    serialised payload-pool counters, the queue high-water mark, and every
//    event pushed toward another shard — were deferred in-window and are
//    replayed here, serially, in the merged order;
//  * order-free counters (message counts, per-node CPU seconds, per-rank
//    finish times) stay in-window on shard-disjoint state and are summed at
//    the end.
//
// Anything in-window therefore touches only shard-local state; anything
// global happens at a barrier on one thread. That split is also what the
// tibsim_lint shared-state rule enforces syntactically.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "tibsim/common/assert.hpp"
#include "tibsim/mpi/simmpi.hpp"

namespace tibsim::mpi {

namespace {
// Host-side profiling only (EngineStats::hostSeconds — never serialised).
double secondsSince(std::chrono::steady_clock::time_point start) {  // tibsim-lint: allow(wall-clock)
  const auto now = std::chrono::steady_clock::now();  // tibsim-lint: allow(wall-clock)
  return std::chrono::duration<double>(now - start).count();
}

}  // namespace

int MpiWorld::effectiveSimShards() const {
  const int requested = std::clamp(config_.simShards, 1, 1024);
  if (requested <= 1) return 1;
  // No positive lookahead means no conservative window: single queue.
  if (config_.topology.switchLatency <= 0.0) return 1;
  const int perLeaf = std::max(config_.topology.nodesPerLeafSwitch, 1);
  const int leafCount = (nodes_ + perLeaf - 1) / perLeaf;
  // Shards are cut at leaf-switch boundaries, so a one-leaf world (where
  // every message is at most one hop from every other rank) cannot shard.
  if (leafCount < 2) return 1;
  return std::min(requested, leafCount);
}

void MpiWorld::submitWireOp(Engine& eng, DeferredOp&& op) {
  op.dispatchIndex = eng.sim->currentDispatchIndex();
  op.submitT = eng.sim->now();
  // Reserve the push's position within the submitting dispatch: the event
  // pushed at the barrier sorts exactly where the single-queue engine's
  // immediate push would have — (G of this dispatch, this index).
  op.pushIdx = eng.sim->notePendingPush();
  ++eng.pendingChannelOps;
  eng.ops.push_back(std::move(op));
}

void MpiWorld::executeOp(DeferredOp& op, std::uint64_t g) {
  switch (op.kind) {
    case DeferredOp::Kind::Deliver: {
      const double arrival = fabric_->scheduleWire(op.fromNode, op.toNode,
                                                   op.wireBytes, op.submitT);
      const int dst = op.dstRank;
      TIB_ASSERT(op.hasMessage);
      const std::uint32_t slot = stashFor(dst, std::move(op.message));
      scheduler_->channelPush(
          static_cast<std::size_t>(shardOfRank(dst)), arrival, g, op.pushIdx,
          [this, dst, slot] { deliver(dst, slot); });
      break;
    }
    case DeferredOp::Kind::DataArrival: {
      const double arrival = fabric_->scheduleWire(op.fromNode, op.toNode,
                                                   op.wireBytes, op.submitT);
      const int dst = op.dstRank;
      const std::uint64_t id = op.id;
      const obs::PathSnapshot path = op.path;
      const double depart = op.submitT;
      scheduler_->channelPush(
          static_cast<std::size_t>(shardOfRank(dst)), arrival, g, op.pushIdx,
          [this, dst, id, path, depart] { dataArrived(dst, id, path, depart); });
      break;
    }
    case DeferredOp::Kind::CtsResume: {
      const double arrival = fabric_->scheduleWire(op.fromNode, op.toNode,
                                                   op.wireBytes, op.submitT);
      sim::Simulation* sim =
          engines_[static_cast<std::size_t>(op.targetShard)].sim.get();
      sim::Process* sender = op.sender;
      // The sender adopts the receiver's chain (plus the CTS hop) inside
      // its own shard's window, exactly when the single queue would.
      MpiContext* senderCtx = op.senderCtx;
      const obs::PathSnapshot path = op.path;
      const double link = std::max(0.0, arrival - op.submitT);
      scheduler_->channelPush(static_cast<std::size_t>(op.targetShard),
                              arrival, g, op.pushIdx,
                              [sim, sender, senderCtx, path, link] {
                                senderCtx->adoptPath(path, link);
                                sim->resume(*sender);
                              });
      break;
    }
    case DeferredOp::Kind::StatFold:
      stats_.totalFlops += op.flops;
      stats_.totalDramBytes += op.dramBytes;
      break;
    case DeferredOp::Kind::PoolAcquire: {
      auto& caps = poolTicketCaps_[static_cast<std::size_t>(op.id >> 32)];
      const std::size_t seq = static_cast<std::size_t>(op.id & 0xffffffffu);
      if (seq >= caps.size()) caps.resize(seq + 1);
      caps[seq].legacy = worldPoolCompat_.acquire(op.bytes);
      caps[seq].classed = worldPoolClass_.acquire(op.bytes);
      break;
    }
    case DeferredOp::Kind::PoolRelease: {
      const PoolTicketCaps& caps =
          poolTicketCaps_[static_cast<std::size_t>(op.id >> 32)]
                         [static_cast<std::size_t>(op.id & 0xffffffffu)];
      worldPoolCompat_.release(caps.legacy);
      worldPoolClass_.release(caps.classed);
      break;
    }
  }
}

void MpiWorld::shardBarrier() {
  const std::size_t shardCount = engines_.size();
  if (shardOrdByDispatch_.size() < shardCount)
    shardOrdByDispatch_.resize(shardCount);
  for (std::size_t s = 0; s < shardCount; ++s) {
    Engine& e = engines_[s];
    e.logCursor = 0;
    e.opCursor = 0;
    e.spanCursor = 0;
    shardOrdByDispatch_[s].assign(e.sim->dispatchLog().size(), 0);
  }
  // K-way merge of the shards' dispatch logs into the order the single
  // global queue would have dispatched this window's events, numbering
  // each dispatch with its global ordinal as it merges. A provisional
  // record key references an earlier dispatch in the SAME shard's log, so
  // by the time a record reaches its log's head its ordinal is resolvable.
  // Scan only shards that still hold unmerged records; most windows have
  // one busy shard, where the merge degenerates to a linear walk.
  mergeScratch_.clear();
  for (std::size_t s = 0; s < shardCount; ++s) {
    if (!engines_[s].sim->dispatchLog().empty()) mergeScratch_.push_back(s);
  }
  for (;;) {
    std::size_t bestShard = 0;
    const sim::Simulation::DispatchRecord* bestRec = nullptr;
    std::uint64_t bestOrd1 = 0;
    for (std::size_t live = 0; live < mergeScratch_.size(); ++live) {
      const std::size_t s = mergeScratch_[live];
      Engine& e = engines_[s];
      const auto& log = e.sim->dispatchLog();
      if (e.logCursor >= log.size()) continue;
      const auto& rec = log[e.logCursor];
      std::uint64_t ord1 = rec.ord1;
      if ((ord1 & sim::Simulation::kProvisionalOrd) != 0) {
        ord1 = shardOrdByDispatch_[s][static_cast<std::size_t>(
            ord1 & ~sim::Simulation::kProvisionalOrd)];
      }
      if (bestRec == nullptr || rec.t < bestRec->t ||
          (rec.t == bestRec->t &&
           (ord1 < bestOrd1 ||
            (ord1 == bestOrd1 && rec.ord2 < bestRec->ord2)))) {
        bestShard = s;
        bestRec = &rec;
        bestOrd1 = ord1;
      }
    }
    if (bestRec == nullptr) break;
    Engine* best = &engines_[bestShard];
    const auto idx = static_cast<std::uint32_t>(best->logCursor++);
    shardOrdByDispatch_[bestShard][idx] = nextGlobalOrd_++;
    ++shardMergeRecords_;

    // Virtual single-queue size replay: the dispatch popped one event and
    // pushed `pushes` (in-window pushes plus deferred channel pushes, which
    // the legacy engine would have pushed during this same dispatch). The
    // high-water candidate peaks after the last push.
    if (bestRec->pushes > 0) {
      mergedQueueHighWater_ = std::max(
          mergedQueueHighWater_, mergedQueueSize_ - 1 + bestRec->pushes);
    }
    mergedQueueSize_ = mergedQueueSize_ - 1 + bestRec->pushes;

    const std::uint64_t g = shardOrdByDispatch_[bestShard][idx];
    while (best->opCursor < best->ops.size() &&
           best->ops[best->opCursor].dispatchIndex == idx)
      executeOp(best->ops[best->opCursor++], g);
    while (best->spanCursor < best->spans.size() &&
           best->spans[best->spanCursor].dispatchIndex == idx)
      tracer_.record(best->spans[best->spanCursor++].span);
    if (best->logCursor >= best->sim->dispatchLog().size()) {
      const auto drained = std::find(mergeScratch_.begin(),
                                     mergeScratch_.end(), bestShard);
      *drained = mergeScratch_.back();
      mergeScratch_.pop_back();
    }
  }
  for (std::size_t s = 0; s < shardCount; ++s) {
    Engine& e = engines_[s];
    TIB_ASSERT(e.opCursor == e.ops.size());
    TIB_ASSERT(e.spanCursor == e.spans.size());
    e.ops.clear();
    e.spans.clear();
    e.pendingChannelOps = 0;
    // Resolve surviving provisional event keys against this window's
    // ordinals and clear the dispatch log.
    e.sim->finalizeWindowKeys(shardOrdByDispatch_[s]);
  }
}

WorldStats MpiWorld::runSharded(const RankBody& body, int shards) {
  sharded_ = true;
  sim_.reset();  // the single-queue engine is unused on this path
  net::TopologySpec topo = config_.topology;
  topo.nodes = nodes_;
  fabric_ = std::make_unique<net::Fabric>(topo, config_.linkTelemetry);
  scheduler_ =
      std::make_unique<sim::ShardScheduler>(fabric_->lookaheadSeconds());

  mailboxes_.clear();
  mailboxes_.resize(static_cast<std::size_t>(ranks_));
  contexts_.clear();
  inflight_.clear();
  freeSlots_.clear();
  while (shardPools_.size() < static_cast<std::size_t>(shards)) {
    shardPools_.emplace_back();
    // The serialised counters come from worldPoolCompat_, replayed in
    // canonical order; the per-shard models would be shard-order-local.
    shardPools_.back().disableCompat();
  }
  for (PayloadPool& pool : shardPools_) pool.resetStats();
  worldPoolCompat_.resetStats();
  worldPoolClass_.resetStats();
  poolTicketCaps_.assign(static_cast<std::size_t>(shards), {});

  stats_ = WorldStats{};
  stats_.nodes = nodes_;
  stats_.rankFinishSeconds.assign(static_cast<std::size_t>(ranks_), 0.0);
  stats_.nodeBusySeconds.assign(static_cast<std::size_t>(nodes_), 0.0);
  stats_.nodeCommCpuSeconds.assign(static_cast<std::size_t>(nodes_), 0.0);

  // Leaf-switch-contiguous partition: shardOfLeaf = leaf * S / leafCount.
  // Contiguous leaves (hence nodes, hence ranks) per shard means every
  // same-node and same-leaf message stays shard-local.
  const int perLeaf = std::max(config_.topology.nodesPerLeafSwitch, 1);
  const int leafCount = (nodes_ + perLeaf - 1) / perLeaf;
  shardOfRank_.assign(static_cast<std::size_t>(ranks_), 0);
  for (int r = 0; r < ranks_; ++r) {
    const int leaf = nodeOfRank(r) / perLeaf;
    shardOfRank_[static_cast<std::size_t>(r)] = (leaf * shards) / leafCount;
  }
  engines_.clear();
  engines_.resize(static_cast<std::size_t>(shards));
  for (Engine& e : engines_) e.firstRank = -1;
  for (int r = 0; r < ranks_; ++r) {
    Engine& e = engines_[static_cast<std::size_t>(shardOfRank_[
        static_cast<std::size_t>(r)])];
    if (e.firstRank < 0) e.firstRank = r;
    e.endRank = r + 1;
  }
  for (Engine& e : engines_) {
    TIB_ASSERT(e.firstRank >= 0);  // the leaf map is surjective for
                                   // shards <= leafCount
    e.sim = std::make_unique<sim::Simulation>();
    // World-level (not per-shard) rank count decides stack pooling so the
    // policy is identical under every --sim-shards value.
    e.sim->setPooledStacks(ranks_ >= sim::kPooledStacksMinRanks);
    // Process ids ARE global ranks: canonical keys across shards then merge
    // in rank order, matching the single queue's spawn-order tie-break.
    e.sim->enableShardMode(static_cast<std::uint64_t>(e.firstRank));
    e.sim->reserveEvents(static_cast<std::size_t>(e.endRank - e.firstRank) *
                         4);
    scheduler_->addShard(e.sim.get());
  }

  std::vector<sim::Process*> processes;
  processes.reserve(static_cast<std::size_t>(ranks_));
  for (int r = 0; r < ranks_; ++r) {
    auto& process = engines_[static_cast<std::size_t>(shardOfRank_[
        static_cast<std::size_t>(r)])].sim->spawn(
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

  // Seed the virtual global-queue replay with the spawn start events (the
  // legacy engine pushes one per rank before the first dispatch).
  mergedQueueSize_ = static_cast<std::uint64_t>(ranks_);
  mergedQueueHighWater_ = static_cast<std::uint64_t>(ranks_);

  // TIBSIM_SHARD_PROFILE=1 prints a host-side timing split (window vs
  // barrier) to stderr — a tuning aid, never part of the artefacts. The
  // counters themselves now feed EngineStats unconditionally (two clock
  // reads per window barrier, noise next to the merge itself).
  const bool profile = std::getenv("TIBSIM_SHARD_PROFILE") != nullptr;
  double barrierSeconds = 0.0;
  std::uint64_t barrierCalls = 0;
  std::uint64_t barrierSkips = 0;
  shardMergeRecords_ = 0;
  // A barrier with no pending channel ops has nothing another shard can
  // observe: defer the merge and let compute-phase windows batch (dispatch
  // logs and order-insensitive ops accumulate and one deferred merge
  // replays them, still in exact global order — windows are
  // time-partitioned whether or not a merge ran). The cap bounds the
  // accumulated dispatch-log/op memory between real merges.
  constexpr std::size_t kBarrierBatchRecords = 32768;
  const auto maybeBarrier = [this, &barrierSkips, &barrierCalls] {
    std::uint64_t pendingOps = 0;
    std::size_t records = 0;
    for (const Engine& e : engines_) {
      pendingOps += e.pendingChannelOps;
      records += e.sim->dispatchLog().size();
    }
    if (pendingOps == 0 && records < kBarrierBatchRecords) {
      ++barrierSkips;
      return;
    }
    ++barrierCalls;
    shardBarrier();
  };
  const auto start = std::chrono::steady_clock::now();  // tibsim-lint: allow(wall-clock)
  const double finalTime = scheduler_->run([&maybeBarrier, &barrierSeconds] {
    const auto t0 = std::chrono::steady_clock::now();  // tibsim-lint: allow(wall-clock)
    maybeBarrier();
    barrierSeconds += secondsSince(t0);
  });
  // Final flush: merge whatever the batching left behind (the drain-time
  // barrier may have skipped) before the stats below are assembled.
  {
    const auto t0 = std::chrono::steady_clock::now();  // tibsim-lint: allow(wall-clock)
    ++barrierCalls;
    shardBarrier();
    barrierSeconds += secondsSince(t0);
  }
  const double hostSeconds = secondsSince(start);
  if (profile) {
    std::uint64_t dispatched = 0;
    for (Engine& e : engines_) dispatched += e.sim->engineStats().eventsDispatched;
    std::fprintf(stderr,
                 "[shard-profile] shards=%d windows=%llu parallel=%llu "
                 "barriers=%llu skipped=%llu barrierS=%.3f hostS=%.3f "
                 "dispatched=%llu\n",
                 shards,
                 static_cast<unsigned long long>(scheduler_->windowsRun()),
                 static_cast<unsigned long long>(
                     scheduler_->parallelWindowsRun()),
                 static_cast<unsigned long long>(barrierCalls),
                 static_cast<unsigned long long>(barrierSkips), barrierSeconds,
                 hostSeconds, static_cast<unsigned long long>(dispatched));
  }

  sim::EngineStats merged;
  merged.simSeconds = finalTime;
  merged.hostSeconds = hostSeconds;
  merged.queueHighWater = static_cast<std::size_t>(mergedQueueHighWater_);
  merged.shardCount = static_cast<std::size_t>(shards);
  merged.shardWindows = scheduler_->windowsRun();
  merged.shardParallelWindows = scheduler_->parallelWindowsRun();
  merged.shardBarrierCalls = barrierCalls;
  merged.shardBarrierSkips = barrierSkips;
  merged.shardMergeRecords = shardMergeRecords_;
  merged.shardBarrierHostSeconds = barrierSeconds;
  for (Engine& e : engines_) {
    const sim::EngineStats es = e.sim->engineStats();
    merged.eventsDispatched += es.eventsDispatched;
    merged.contextSwitches += es.contextSwitches;
    merged.processesSpawned += es.processesSpawned;
    // Every rank is spawned before the first event, so the per-shard peaks
    // are simultaneous and their sum is the global peak (= ranks), exactly
    // what the single queue reports.
    merged.peakLiveProcesses += es.peakLiveProcesses;
    merged.fiberStackBytes =
        std::max(merged.fiberStackBytes, es.fiberStackBytes);
    merged.stackHighWaterBytes =
        std::max(merged.stackHighWaterBytes, es.stackHighWaterBytes);
    stats_.messageCount += e.messageCount;
    stats_.payloadBytes += e.payloadBytes;
  }
  stats_.engine = merged;
  stats_.traceSpansRecorded = tracer_.spansRecorded();
  stats_.traceSpansRetained = tracer_.spansRetained();
  stats_.traceMemoryBytes = tracer_.memoryBytes();

  // World-teardown checkpoint, mirroring the single-queue path: trim the
  // real per-shard pools, trim the canonical models, and serialise the
  // canonical counters (plus order-free per-shard sums). The per-class
  // table comes from worldPoolClass_ — the canonical replay — NOT from
  // summing the per-shard pools, whose donor choices are shard-order-local
  // and would make the serialised table depend on the shard count.
  for (std::size_t s = 0; s < static_cast<std::size_t>(shards); ++s)
    shardPools_[s].trimToHighWater();
  worldPoolCompat_.trimToHighWater();
  worldPoolClass_.trimToHighWater();
  const PayloadPool::Stats& poolStats = worldPoolCompat_.stats();
  stats_.payloadPoolReuses = poolStats.reuses;
  stats_.payloadPoolAllocations = poolStats.allocations;
  stats_.payloadPoolReturns = poolStats.returns;
  stats_.payloadPoolTrimmedBuffers = poolStats.trimmedBuffers;
  stats_.payloadPoolLiveHighWater = poolStats.liveHighWater;
  stats_.payloadPoolClassStats = worldPoolClass_.classStats();
  for (std::size_t s = 0; s < static_cast<std::size_t>(shards); ++s) {
    const PayloadPool::Stats& ps = shardPools_[s].stats();
    stats_.payloadInlineMessages += ps.inlineMessages;
    stats_.payloadPooledMessages += ps.pooledMessages;
  }
  // Per-rank verifier counters fold after the shard threads joined, so the
  // sum is single-threaded and shard-invariant.
  for (const auto& ctx : contexts_)
    stats_.collectiveChecks += ctx->collectiveChecks_;

  for (sim::Process* p : processes) {
    if (p->exception() != nullptr) std::rethrow_exception(p->exception());
  }
  std::size_t live = 0;
  for (Engine& e : engines_) live += e.sim->liveProcessCount();
  TIB_REQUIRE_MSG(live == 0, deadlockMessage(finalTime));

  stats_.wallClockSeconds = *std::max_element(
      stats_.rankFinishSeconds.begin(), stats_.rankFinishSeconds.end());
  stats_.wireBytes = fabric_->totalWireBytes();
  stats_.fabricQueueingSeconds = fabric_->totalQueueingSeconds();
  harvestPathAndLinks();
  return stats_;
}

}  // namespace tibsim::mpi
