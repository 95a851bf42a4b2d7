#pragma once
// Message payload memory for the simMPI hot path.
//
// Every send used to construct a fresh std::vector<std::byte> for its
// payload and every receive freed it — one allocator round-trip per message,
// millions of times per big-cluster sweep. Two layers remove that:
//
//  * MessagePayload stores payloads of up to kInlineCapacity (64) bytes
//    inline in the Message itself — covering the control traffic (doubles,
//    counters, CTS-sized frames) that dominates message counts — and backs
//    larger payloads with a buffer acquired from the world's PayloadPool.
//  * PayloadPool parks returned buffers in power-of-two *size classes*
//    (128 B, 256 B, ... — anything smaller rides inline). An acquire is
//    served from the request's own class when possible, then from the
//    smallest larger class (no copy-growth), and only as a last resort from
//    a smaller class (which reallocates, exactly like the old single free
//    list did). Apps cycling through many distinct large payload sizes
//    therefore stop thrashing one LIFO: each size class keeps its warm
//    buffers. Buffer capacities are rounded up to the class size so parked
//    buffers stay interchangeable within a class.
//
// Accounting: the serialised WorldStats counters (reuses, allocations,
// returns, trimmedBuffers, liveHighWater) predate the size classes and are
// part of the byte-identical campaign artefact contract, so they are
// produced by CompatModel — an exact count/capacity replica of the original
// single-LIFO pool fed with the same acquire/release sequence. The size
// classes additionally expose per-class counters (ClassStats) describing
// what the pool actually did; those are serialised into the campaign
// __worlds.csv per-class table.
//
// Single-threaded by design: a world's sends and receives all run on the
// simulation thread, like the mailboxes.

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <utility>
#include <vector>

namespace tibsim::mpi {

/// Size-classed free lists of payload buffers with legacy-exact accounting.
class PayloadPool {
 public:
  /// Deterministic accounting (functions of the simulated run only, safe to
  /// serialise): how payload storage was obtained and returned, in the
  /// original single-free-list model (see CompatModel).
  struct Stats {
    std::uint64_t inlineMessages = 0;  ///< payloads stored in the Message
    std::uint64_t pooledMessages = 0;  ///< payloads backed by a pool buffer
    std::uint64_t reuses = 0;        ///< acquires served without allocating
    std::uint64_t allocations = 0;   ///< acquires that hit the allocator
    std::uint64_t returns = 0;       ///< buffers recycled into the free list
    std::uint64_t trimmedBuffers = 0;  ///< parked buffers freed by trims
    std::uint64_t liveHighWater = 0;   ///< max buffers checked out at once
  };

  /// What the size-classed pool actually did, per power-of-two class.
  /// Serialised (campaign __worlds.csv per-class table).
  struct ClassStats {
    std::size_t classBytes = 0;      ///< buffer capacity of this class
    std::uint64_t acquires = 0;      ///< requests that mapped to this class
    std::uint64_t reuses = 0;        ///< served by a parked buffer (any class)
    std::uint64_t allocations = 0;   ///< paid an allocation or copy-growth
    std::uint64_t parked = 0;        ///< buffers returned into this class
  };

  /// Ticket pairing an acquire with its release for the compat model.
  static constexpr std::uint32_t kNoTicket = 0xffffffffu;

  /// Exact replica of the pre-size-class pool's accounting: one LIFO of
  /// buffer capacities, reuse iff the popped capacity fits, trim from the
  /// cold front. Fed with the same acquire/release sequence it reproduces
  /// the historical serialised counters bit-for-bit — which is the contract
  /// that keeps existing campaign artefacts byte-identical.
  class CompatModel {
   public:
    /// Legacy-model capacity of the acquired buffer; the caller keeps it
    /// per live buffer and hands it back to release().
    std::size_t acquire(std::size_t bytes);
    void release(std::size_t capacity);
    std::size_t trimToHighWater();
    void resetStats() {
      stats_ = Stats{};
      stats_.liveHighWater = outstanding_;
    }
    const Stats& stats() const { return stats_; }

   private:
    friend class PayloadPool;
    std::vector<std::size_t> freeCaps_;  ///< parked capacities, LIFO back
    std::size_t outstanding_ = 0;
    Stats stats_;
  };

  /// Smallest pooled class: one step above the inline capacity.
  static constexpr std::size_t kMinClassIndex = 7;  // 128 bytes

  /// Power-of-two class for a payload of `bytes` (>= 65).
  static std::size_t classIndex(std::size_t bytes);
  static std::size_t classBytes(std::size_t index) {
    return std::size_t{1} << index;
  }

  /// A buffer holding a copy of `data`, with capacity rounded up to the
  /// class size. `ticket` receives the compat model's pairing token for
  /// release.
  std::vector<std::byte> acquire(std::span<const std::byte> data,
                                 std::uint32_t& ticket);

  /// Park a buffer for reuse. Contents are discarded, capacity is kept.
  void release(std::vector<std::byte>&& buffer, std::uint32_t ticket);

  /// Free parked buffers beyond what the observed peak demand can use:
  /// keeps at most (liveHighWater - currently outstanding) buffers parked,
  /// dropping the smallest classes' coldest buffers first. Returns the
  /// number of buffers actually freed from the class lists.
  std::size_t trimToHighWater();

  /// Serialised accounting (legacy model — see CompatModel).
  const Stats& stats() const { return compat_.stats(); }
  /// Per-class accounting of what the size-classed pool actually did.
  const std::vector<ClassStats>& classStats() const { return classStats_; }

  /// Resets counters for the next accounting window. The live high-water
  /// restarts from the buffers still outstanding now, not from zero.
  void resetStats();

  std::size_t freeBuffers() const { return freeTotal_; }
  std::size_t outstandingBuffers() const { return outstanding_; }

 private:
  friend class MessagePayload;

  void ensureClass(std::size_t index);
  std::uint32_t mintTicket(std::size_t compatCap);
  void noteInlineMessage() { ++compat_.stats_.inlineMessages; }
  void notePooledMessage() { ++compat_.stats_.pooledMessages; }

  std::vector<std::vector<std::vector<std::byte>>> free_;  ///< by class
  std::vector<ClassStats> classStats_;
  std::size_t freeTotal_ = 0;
  std::size_t outstanding_ = 0;  ///< buffers acquired and not yet released
  std::size_t liveHighWater_ = 0;
  CompatModel compat_;
  std::vector<std::size_t> ticketCaps_;  ///< ticket -> legacy-model capacity
  std::vector<std::uint32_t> freeTickets_;
};

/// Payload storage for one in-flight message: empty, inline (<= 64 bytes,
/// no separate storage), or pooled (buffer borrowed from a PayloadPool).
/// Move-only so a pooled buffer has exactly one owner; the receive path
/// must call intoVector() to hand the bytes to the application and give the
/// buffer back to the pool.
class MessagePayload {
 public:
  static constexpr std::size_t kInlineCapacity = 64;

  MessagePayload() = default;

  /// Copy `data` into inline storage or a pool buffer (counted in Stats).
  MessagePayload(std::span<const std::byte> data, PayloadPool& pool);

  // Moves reset the source to the empty state (a defaulted move would leave
  // its size_/pooled_ behind, making the moved-from payload look live).
  // Only the live prefix of the inline array is copied: a Message is moved
  // several times between send and receive (in-flight slab, mailbox), and
  // size-only traffic would otherwise pay for 64 bytes it never wrote.
  MessagePayload(MessagePayload&& other) noexcept
      : size_(std::exchange(other.size_, 0)),
        pooled_(std::exchange(other.pooled_, false)),
        ticket_(std::exchange(other.ticket_, PayloadPool::kNoTicket)),
        buffer_(std::move(other.buffer_)) {
    if (!pooled_ && size_ > 0)
      std::memcpy(inline_.data(), other.inline_.data(), size_);
  }
  MessagePayload& operator=(MessagePayload&& other) noexcept {
    size_ = std::exchange(other.size_, 0);
    pooled_ = std::exchange(other.pooled_, false);
    ticket_ = std::exchange(other.ticket_, PayloadPool::kNoTicket);
    buffer_ = std::move(other.buffer_);
    if (!pooled_ && size_ > 0)
      std::memcpy(inline_.data(), other.inline_.data(), size_);
    return *this;
  }
  MessagePayload(const MessagePayload&) = delete;
  MessagePayload& operator=(const MessagePayload&) = delete;

  std::size_t size() const { return size_; }
  bool pooled() const { return pooled_; }

  std::span<const std::byte> view() const {
    return pooled_ ? std::span<const std::byte>(buffer_.data(), size_)
                   : std::span<const std::byte>(inline_.data(), size_);
  }

  /// The application-facing copy: a fresh vector with the bytes, with any
  /// pooled buffer returned to `pool` for the next send to reuse.
  std::vector<std::byte> intoVector(PayloadPool& pool);

 private:
  std::size_t size_ = 0;
  bool pooled_ = false;
  std::uint32_t ticket_ = PayloadPool::kNoTicket;
  // Deliberately not zero-initialised: only the first size_ bytes are ever
  // written (ctor) and read (view/moves), and zeroing 64 bytes per Message
  // construction is measurable on the ping-pong hot path.
  std::array<std::byte, kInlineCapacity> inline_;
  std::vector<std::byte> buffer_;
};

}  // namespace tibsim::mpi
