#pragma once
// simMPI: an MPI-like message-passing runtime whose ranks are cooperative
// simulation processes. Applications are written as ordinary blocking
// message-passing code (the real control flow, real payloads if desired);
// computation is charged through the roofline execution model and
// communication through the protocol + fabric models. This is how the
// Figure 6 scalability study and the HPL/Green500 numbers are produced.
//
// Semantics implemented:
//  * eager sends (buffered): the sender pays its stack cost and continues;
//    the message is delivered to the receiver's mailbox when the wire is
//    done;
//  * rendezvous sends (Open-MX >= 32 KiB): RTS/CTS handshake; the sender
//    blocks until the receiver posts a matching recv;
//  * (communicator, tag, source) matching, including deterministic
//    wildcard receives: kAnySource/kAnyTag match the first message in
//    delivery order, which the single event queue fixes (communicator.hpp);
//  * collectives built from point-to-point with the textbook algorithms
//    (binomial bcast/reduce, dissemination barrier, ring alltoall), all
//    routed through mpi::Communicator — the world is communicator id 0.
//
// tibsim-lint: allowfile(wildcard-recv) — this header defines the shared
// (comm, source, tag) matching predicate the wildcard rule guards.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <source_location>
#include <span>
#include <vector>

#include "tibsim/arch/platform.hpp"
#include "tibsim/net/fabric.hpp"
#include "tibsim/mpi/collective_verify.hpp"
#include "tibsim/mpi/communicator.hpp"
#include "tibsim/mpi/payload_pool.hpp"
#include "tibsim/obs/critical_path.hpp"
#include "tibsim/obs/stall_report.hpp"
#include "tibsim/obs/trace_sink.hpp"
#include "tibsim/net/protocol.hpp"
#include "tibsim/perfmodel/execution_model.hpp"
#include "tibsim/perfmodel/work_profile.hpp"
#include "tibsim/sim/simulation.hpp"

namespace tibsim::mpi {

struct WorldConfig {
  arch::Platform platform;
  double frequencyHz = 0.0;  ///< 0 = platform maximum
  net::Protocol protocol = net::Protocol::TcpIp;
  int ranksPerNode = 1;
  net::TopologySpec topology;  ///< .nodes is derived from the rank count
  /// How a traced run records spans (obs layer sink: full / sampled /
  /// aggregate). Snapshot of the process-wide default so --trace-mode
  /// flows through. Tracing itself stays opt-in via
  /// MpiWorld::enableTracing().
  obs::TraceMode traceMode = obs::defaultTraceMode();
  std::size_t traceReservoirPerRank = 512;  ///< sampled mode: spans kept/rank
  std::uint64_t traceSeed = 0;              ///< sampled mode reservoir seed
  /// Per-link fabric telemetry (WorldStats::linkStats). On by default —
  /// O(links) counters with no event-order effect; the bench harness turns
  /// it off to measure its cost.
  bool linkTelemetry = true;
  /// Runtime collective-matching verifier (mpi/collective_verify.hpp).
  /// Snapshot of the process-wide default (--verify-collectives). Stamps
  /// ride inside Message, so enabling it never changes the event schedule
  /// or the artefact bytes.
  bool verifyCollectives = defaultVerifyCollectives();

  static WorldConfig tibidaboNode();  ///< Tegra2 node, 1 GbE, TCP/IP
};

struct WorldStats {
  double wallClockSeconds = 0.0;
  std::vector<double> rankFinishSeconds;
  std::vector<double> nodeBusySeconds;     ///< compute + protocol CPU time
  std::vector<double> nodeCommCpuSeconds;  ///< protocol CPU time only
  double totalFlops = 0.0;
  double totalDramBytes = 0.0;
  std::uint64_t messageCount = 0;
  double payloadBytes = 0.0;
  double wireBytes = 0.0;
  double fabricQueueingSeconds = 0.0;
  /// Stamp comparisons performed by the collective verifier (zero when
  /// WorldConfig::verifyCollectives is off), summed over per-rank counters
  /// after the run.
  std::uint64_t collectiveChecks = 0;
  int nodes = 0;
  sim::EngineStats engine;  ///< discrete-event engine counters for the run
  // Trace accounting (zero when tracing was not enabled). Recorded counts
  // are mode-independent; retained/memory reflect the sink's bound.
  std::uint64_t traceSpansRecorded = 0;
  std::uint64_t traceSpansRetained = 0;
  std::size_t traceMemoryBytes = 0;
  // Payload memory accounting (see payload_pool.hpp). Steady-state sends
  // are allocation-free when poolAllocations stays flat against
  // pooledMessages; all seven are deterministic and serialisable.
  std::uint64_t payloadInlineMessages = 0;  ///< stored in the Message itself
  std::uint64_t payloadPooledMessages = 0;  ///< backed by a pool buffer
  std::uint64_t payloadPoolReuses = 0;      ///< pooled sends with no alloc
  std::uint64_t payloadPoolAllocations = 0; ///< pooled sends that allocated
  std::uint64_t payloadPoolReturns = 0;     ///< buffers back in the pool
  std::uint64_t payloadPoolTrimmedBuffers = 0;  ///< freed by teardown trim
  std::uint64_t payloadPoolLiveHighWater = 0;   ///< peak buffers in use
  /// Per-link fabric telemetry folded per link class (all zero when
  /// WorldConfig::linkTelemetry is off). Deterministic: every fabric
  /// occupancy runs in event-queue dispatch order.
  obs::LinkStats linkStats;
  /// Sim-time critical path of the run (obs/critical_path.hpp).
  obs::CriticalPath criticalPath;

  double achievedFlopsPerSecond() const {
    return wallClockSeconds > 0.0 ? totalFlops / wallClockSeconds : 0.0;
  }
};

class MpiWorld;

/// Per-rank handle passed to the rank body: the world communicator (id 0,
/// identity rank mapping) plus the rank's compute charges. Every
/// communication method is Communicator's; all are blocking in simulated
/// time and may only be called from inside the rank body.
class MpiContext : public Communicator {
 public:
  int node() const { return node_; }
  double now() const;

  /// Charge compute work to this rank's core (advances simulated time).
  void compute(const perfmodel::WorkProfile& work);
  void computeSeconds(double seconds);

  /// A world communicator by value, the root of split()/dup(). Copying the
  /// context itself into a Communicator would slice it.
  Communicator commWorld() { return Communicator(this, 0, rank(), nullptr); }

  /// Halo exchange with both chain neighbours (rank-1, rank+1) using a
  /// red-black schedule: even ranks exchange right first, odd ranks left
  /// first, so all pairs run in two parallel phases instead of an O(p)
  /// serialisation chain down the ring.
  void neighborExchange(std::size_t bytes, int tag);

  /// Max over all ranks, frozen in its own tag sub-space and schedule
  /// (see collectives.cpp).
  double allreduceMax(
      double value, std::source_location loc = std::source_location::current());

 private:
  friend class MpiWorld;
  friend class Communicator;
  MpiContext(MpiWorld& world, sim::Process& process, int rank, int node);

  struct PendingOp {
    enum class Kind : std::uint8_t { Send, Recv, Barrier, Bcast, Allreduce };
    Request request = 0;
    Kind kind = Kind::Send;
    int peer = 0;  ///< Recv: world rank or kAnySource
    int tag = 0;   ///< Recv: tag or kAnyTag
    /// Scope for Recv matching and for executing a lazy collective at
    /// wait().
    Communicator comm;
    int root = 0;                   ///< Bcast root (comm-local)
    ReduceOp op = ReduceOp::Sum;    ///< Allreduce combiner
    std::vector<double> values;     ///< Bcast / Allreduce operand
    /// Call site of the i-collective that queued this op, replayed into
    /// the verifier stamp when wait() executes the lazy collective.
    const char* file = nullptr;
    std::uint32_t line = 0;
  };

  /// Mint a request id for `op` and register it (Communicator's isend,
  /// irecv and non-blocking collectives).
  Request pushPending(PendingOp&& op) {
    op.request = nextRequest_++;
    pending_.push_back(std::move(op));
    return pending_.back().request;
  }
  /// Unregister and return the op of `request` (Communicator::wait and
  /// waitDoubles).
  PendingOp takePending(Request request);
  /// Execute a lazy Barrier, Bcast or Allreduce op; its result as doubles
  /// (empty for a barrier).
  std::vector<double> runLazyCollective(PendingOp& op);

  /// RAII scope of one collective entry (collective_verify.hpp). Engages
  /// only at the outermost level, so building-block collectives (allreduce
  /// = reduce + bcast, split = 3x allgather, ...) inherit the outer stamp,
  /// and only when the world runs with verifyCollectives — otherwise the
  /// guard is a no-op and collective traffic stays stamp-free.
  class CollectiveGuard {
   public:
    CollectiveGuard(MpiContext& ctx, std::uint64_t comm, CollectiveKind kind,
                    std::uint8_t op, std::uint64_t count, const char* file,
                    std::uint32_t line);
    ~CollectiveGuard();
    CollectiveGuard(const CollectiveGuard&) = delete;
    CollectiveGuard& operator=(const CollectiveGuard&) = delete;

   private:
    MpiContext& ctx_;
    bool tracking_ = false;  ///< verification on: depth is counted
    bool engaged_ = false;   ///< outermost level: stamp pinned/cleared
  };

  /// Next per-(rank, communicator) collective ordinal. Flat vector, not a
  /// hash map: a rank talks on a handful of communicators.
  std::uint32_t nextCollectiveSeq(std::uint64_t comm) {
    for (auto& [id, next] : collectiveSeq_)
      if (id == comm) return next++;
    collectiveSeq_.emplace_back(comm, 1u);
    return 0;
  }

  /// Adopt `snapshot` + the hop's wire time as this rank's chain — the
  /// matched message (or CTS) arrived after the rank started waiting, so
  /// the peer's chain bounded this rank.
  void adoptPath(const obs::PathSnapshot& snapshot, double linkSeconds) {
    path_ = snapshot;
    path_.linkSeconds += linkSeconds;
    ++path_.edges;
  }

  MpiWorld& world_;
  sim::Process& process_;
  int node_;
  /// Running critical-path chain ending at this rank's current sim time.
  obs::PathSnapshot path_;
  // Stall-report state: set while the rank is blocked in a rendezvous
  // send (recv-side waits live in the mailbox).
  bool sendBlocked_ = false;
  int sendPeer_ = -1;
  int sendTag_ = 0;
  std::uint64_t sendComm_ = 0;
  double sendBlockedSince_ = 0.0;
  std::uint64_t nextRequest_ = 1;
  /// Per-rank communicator-creation counter: each split()/dup() this rank
  /// participates in consumes one ordinal, and the new communicator's id is
  /// derived from the *leader's* ordinal — learned through the collective
  /// itself, never from shared state, so ids depend only on the program.
  /// Starts at 1: (leader 0, ordinal 0) would collide with the world id.
  std::uint64_t nextCommOrdinal_ = 1;
  // Flat vector, not a hash map: a rank has a handful of requests in
  // flight, and wait() usually completes them in issue order, so the linear
  // scan is cheaper than hashing and never allocates at steady state.
  std::vector<PendingOp> pending_;
  // Collective-verifier state (all idle unless config.verifyCollectives).
  // The active stamp is copied into every message this rank sends and
  // compared against every stamped message it matches; each rank's state
  // is touched only by its own fiber.
  CollectiveStamp activeCollective_{};
  int collectiveDepth_ = 0;
  std::uint64_t collectiveChecks_ = 0;
  std::vector<std::pair<std::uint64_t, std::uint32_t>> collectiveSeq_;
};

class MpiWorld {
 public:
  using RankBody = std::function<void(MpiContext&)>;

  MpiWorld(WorldConfig config, int ranks);
  ~MpiWorld();

  MpiWorld(const MpiWorld&) = delete;
  MpiWorld& operator=(const MpiWorld&) = delete;

  /// Run `body` on every rank to completion; throws ContractError on
  /// deadlock (ranks still blocked when no events remain).
  WorldStats run(const RankBody& body);

  int ranks() const { return ranks_; }
  const net::ProtocolModel& protocolModel() const { return *protocol_; }

  /// Record per-rank compute/send/recv/wait spans during run() — the
  /// Paraver-style post-mortem view. Off by default. The sink is rebuilt
  /// from the config's trace mode, so call before run(); each run() starts
  /// it empty. Memory cost is bounded in sampled/aggregate modes.
  void enableTracing() {
    tracing_ = true;
    tracer_ = obs::TraceSink(config_.traceMode, config_.traceReservoirPerRank,
                             config_.traceSeed);
  }
  /// The spans of the last traced run; empty until enableTracing().
  /// Timelines export through obs/exporters.hpp on retainedSpans().
  const obs::TraceSink& tracer() const { return tracer_; }
  int nodes() const { return nodes_; }
  const WorldConfig& config() const { return config_; }
  double frequencyHz() const { return frequencyHz_; }
  const arch::Platform& platform() const { return config_.platform; }

 private:
  friend class MpiContext;
  friend class Communicator;

  enum class Stage : std::uint8_t { Delivered, RtsPending, AwaitingData };

  /// End marker of a mailbox's slot list.
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  struct Message {
    int src = 0;
    int tag = 0;
    std::size_t bytes = 0;
    MessagePayload payload;  ///< inline or pooled; see payload_pool.hpp
    Stage stage = Stage::Delivered;
    double receiverCost = 0.0;
    sim::Process* sender = nullptr;  ///< for rendezvous CTS wake-up
    std::uint64_t id = 0;
    /// True when delivery already charged receiverCost and folded it into
    /// the wake-up time, so doRecv must not delay again (see deliver()).
    bool receiverCharged = false;
    /// The slot delivered after this one to the same mailbox (kNoSlot at
    /// the tail); meaningful only while the message is in a mailbox.
    std::uint32_t next = kNoSlot;
    /// Communicator the message was sent on; part of the match key. The
    /// world is id 0, so legacy world traffic is unchanged byte-for-byte.
    std::uint64_t comm = 0;
    /// Collective-verifier stamp of the sender at doSend time (disengaged
    /// for point-to-point traffic and when verification is off). Rides the
    /// message wholesale, so it has no schedule effect.
    CollectiveStamp verify{};
    /// Critical-path piggyback: the sender's chain when the payload left,
    /// and the wire interval, so a receiver that waited can adopt the
    /// sender's chain plus the link time (obs/critical_path.hpp).
    obs::PathSnapshot path{};
    double departTime = 0.0;   ///< sim time the transfer was committed
    double arrivalTime = 0.0;  ///< sim time deliver() ran (mailbox entry)
  };

  /// The one matching predicate, shared by doRecv's scan, deliver()'s
  /// wake-up check and dataArrived()'s first-match fold, so all three agree
  /// on wildcard semantics: first match in delivery order wins.
  static bool matches(const Message& m, std::uint64_t comm, int src,
                      int tag) {
    return m.comm == comm && (src == kAnySource || m.src == src) &&
           (tag == kAnyTag || m.tag == tag);
  }

  struct Mailbox {
    /// In-flight slab slots of messages delivered to this rank but not yet
    /// consumed, in delivery order: a list threaded through Message::next
    /// from head to tail (kNoSlot when empty). Linking slot indices (not
    /// Messages) keeps mailbox traffic move-free and allocation-free, and
    /// slots stay valid across slab growth where references would not.
    std::uint32_t head = kNoSlot;
    std::uint32_t tail = kNoSlot;
    // A rank blocked in recv(comm, src, tag); waitSrc/waitTag may be the
    // kAnySource/kAnyTag wildcards.
    bool waiting = false;
    std::uint64_t waitComm = 0;
    int waitSrc = 0;
    int waitTag = 0;
    sim::Process* waiter = nullptr;
    /// Sim time the rank entered the wait (stall-report bookkeeping).
    double blockedSince = 0.0;
  };

  int nodeOfRank(int rank) const { return rank / config_.ranksPerNode; }
  /// Rendezvous data-arrival completion: marks the message delivered and
  /// stamps the sender's chain when the data left (`path`/`departTime`)
  /// into it, then wakes a waiting receiver.
  void dataArrived(int dstRank, std::uint64_t id,
                   const obs::PathSnapshot& path, double departTime);

  void doSend(MpiContext& ctx, std::uint64_t comm, int dst, int tag,
              std::size_t bytes, std::span<const std::byte> payload,
              bool allowRendezvous = true);
  /// src is a world rank or kAnySource; tag may be kAnyTag. srcOut/tagOut
  /// (if non-null) receive the matched message's world source and tag.
  /// Returns the matched payload; the caller decodes it and so returns any
  /// pooled buffer (MessagePayload::intoVector or recycle).
  MessagePayload doRecv(MpiContext& ctx, std::uint64_t comm, int src,
                        int tag, std::size_t* receivedBytes,
                        int* srcOut = nullptr, int* tagOut = nullptr);
  /// Collective verifier: compare the matched message's stamp against the
  /// receiver's active collective; throws ContractError on divergence.
  void verifyCollectiveMatch(MpiContext& ctx, const Message& message);
  void deliver(int dstRank, std::uint32_t slot);
  /// Remove `slot` from `box`'s list; `prev` is the slot before it
  /// (kNoSlot when `slot` is the head).
  void unlink(Mailbox& box, std::uint32_t prev, std::uint32_t slot);
  // In-flight message slab: a scheduled delivery captures [this, dst, slot]
  // instead of the Message itself. Those 16 trivially copyable bytes are
  // the most std::function stores inline (libstdc++), so scheduling a
  // delivery never heap-allocates; test_alloc fails if the capture grows.
  // A message lives in its slot from send to consumption; slots are
  // recycled LIFO by takeSlot().
  std::uint32_t stashInflight(Message&& message);
  /// Move the slot's payload out and recycle the slot.
  MessagePayload takeSlot(std::uint32_t slot);
  void chargeCpu(int node, double seconds);
  void traceSpan(int rank, obs::SpanKind kind, double begin, double end,
                 int peer = -1, std::size_t bytes = 0,
                 std::uint64_t comm = 0);
  /// Fold fabric link telemetry and the end rank's chain into stats_
  /// (called at the end of run() before teardown).
  void harvestPathAndLinks();
  /// The ContractError text for an all-ranks-blocked world: the deadlock
  /// line and the per-rank wait-state report (obs/stall_report.hpp).
  std::string deadlockMessage(double now);

  WorldConfig config_;
  int ranks_;
  int nodes_;
  double frequencyHz_;
  perfmodel::ExecutionModel execModel_;
  std::unique_ptr<net::ProtocolModel> protocol_;
  double sameNodeCopyBandwidth_ = 0.0;  ///< bytes/s, constant per world

  // Rebuilt for every run():
  std::unique_ptr<sim::Simulation> sim_;
  std::unique_ptr<net::Fabric> fabric_;
  std::vector<Mailbox> mailboxes_;
  std::vector<std::unique_ptr<MpiContext>> contexts_;
  WorldStats stats_;
  std::uint64_t nextMessageId_ = 0;
  bool tracing_ = false;
  obs::TraceSink tracer_;
  // Payload buffers survive across run() calls (stats are reset per run),
  // so repeated runs on one world start with a warm pool.
  PayloadPool pool_;
  std::vector<Message> inflight_;
  std::vector<std::uint32_t> freeSlots_;
};

}  // namespace tibsim::mpi
