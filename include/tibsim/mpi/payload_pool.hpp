#pragma once
// Message payload memory for the simMPI hot path.
//
// Every send used to construct a fresh std::vector<std::byte> for its
// payload and every receive freed it — one allocator round-trip per message,
// millions of times per big-cluster sweep. Two layers remove most of that:
//
//  * MessagePayload stores payloads of up to kInlineCapacity (64) bytes
//    inline in the Message itself — covering the control traffic (doubles,
//    counters, CTS-sized frames) that dominates message counts — and backs
//    larger payloads with a buffer acquired from the world's PayloadPool.
//  * PayloadPool parks returned buffers on one LIFO free list. An acquire
//    pops the newest parked buffer; if its capacity covers the request the
//    send allocates nothing, otherwise the buffer is grown to exactly the
//    request.
//
// Only the send side stops allocating once the pool is warm: a receive
// still hands the application one fresh vector (MessagePayload::intoVector,
// or the doubles recvDoubles/waitDoubles decode from view()).
//
// Every Stats counter is a function of the simulated acquire/release
// sequence only, so WorldStats serialises them into the byte-identical
// campaign artefacts.
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

/// LIFO free list of payload buffers.
class PayloadPool {
 public:
  /// Deterministic accounting (functions of the simulated run only, safe to
  /// serialise): how payload storage was obtained and returned.
  struct Stats {
    std::uint64_t inlineMessages = 0;  ///< payloads stored in the Message
    std::uint64_t pooledMessages = 0;  ///< payloads backed by a pool buffer
    std::uint64_t reuses = 0;        ///< acquires served without allocating
    std::uint64_t allocations = 0;   ///< acquires that hit the allocator
    std::uint64_t returns = 0;       ///< buffers recycled into the free list
    std::uint64_t trimmedBuffers = 0;  ///< parked buffers freed by trims
    std::uint64_t liveHighWater = 0;   ///< max buffers checked out at once
  };

  /// A buffer holding a copy of `data`: the newest parked buffer if its
  /// capacity covers `data` (a reuse), else a buffer grown to exactly
  /// data.size() bytes (an allocation).
  std::vector<std::byte> acquire(std::span<const std::byte> data);

  /// Park a buffer for reuse. Contents are discarded, capacity is kept.
  void release(std::vector<std::byte>&& buffer);

  /// Free parked buffers beyond what the observed peak demand can use:
  /// keeps at most (liveHighWater - currently outstanding) buffers parked,
  /// dropping the oldest first. Returns the number of buffers freed.
  std::size_t trimToHighWater();

  const Stats& stats() const { return stats_; }

  /// Resets counters for the next accounting window. The live high-water
  /// restarts from the buffers still outstanding now, not from zero.
  void resetStats();

  std::size_t freeBuffers() const { return free_.size(); }
  std::size_t outstandingBuffers() const { return outstanding_; }

 private:
  friend class MessagePayload;

  void noteInlineMessage() { ++stats_.inlineMessages; }
  void notePooledMessage() { ++stats_.pooledMessages; }

  std::vector<std::vector<std::byte>> free_;  ///< oldest first, newest back
  std::size_t outstanding_ = 0;  ///< buffers acquired and not yet released
  Stats stats_;
};

/// Payload storage for one in-flight message: empty, inline (<= 64 bytes,
/// no separate storage), or pooled (buffer borrowed from a PayloadPool).
/// Move-only so a pooled buffer has exactly one owner; whoever drops a
/// message calls intoVector() or recycle() to give the buffer back.
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
        buffer_(std::move(other.buffer_)) {
    if (!pooled_ && size_ > 0)
      std::memcpy(inline_.data(), other.inline_.data(), size_);
  }
  MessagePayload& operator=(MessagePayload&& other) noexcept {
    size_ = std::exchange(other.size_, 0);
    pooled_ = std::exchange(other.pooled_, false);
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

  /// Drop the bytes unread, returning any pooled buffer to `pool`.
  void recycle(PayloadPool& pool);

 private:
  std::size_t size_ = 0;
  bool pooled_ = false;
  // Deliberately not zero-initialised: only the first size_ bytes are ever
  // written (ctor) and read (view/moves), and zeroing 64 bytes per Message
  // construction is measurable on the ping-pong hot path.
  std::array<std::byte, kInlineCapacity> inline_;
  std::vector<std::byte> buffer_;
};

}  // namespace tibsim::mpi
