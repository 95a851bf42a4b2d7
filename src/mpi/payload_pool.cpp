#include "tibsim/mpi/payload_pool.hpp"

#include <algorithm>

namespace tibsim::mpi {

// ---------------------------------------------------------------------------
// PayloadPool
// ---------------------------------------------------------------------------

std::vector<std::byte> PayloadPool::acquire(std::span<const std::byte> data) {
  std::vector<std::byte> buffer;
  bool reuse = false;
  if (!free_.empty()) {
    buffer = std::move(free_.back());
    free_.pop_back();
    reuse = buffer.capacity() >= data.size();
  }
  if (reuse) {
    ++stats_.reuses;
  } else {
    // Grow to exactly the request, not geometrically, so a buffer's
    // capacity is the largest payload it was ever acquired for.
    ++stats_.allocations;
    buffer.reserve(data.size());
  }
  buffer.assign(data.begin(), data.end());
  ++outstanding_;
  stats_.liveHighWater =
      std::max<std::uint64_t>(stats_.liveHighWater, outstanding_);
  return buffer;
}

void PayloadPool::release(std::vector<std::byte>&& buffer) {
  if (outstanding_ > 0) --outstanding_;
  if (buffer.capacity() == 0) return;  // nothing worth parking
  ++stats_.returns;
  buffer.clear();
  free_.push_back(std::move(buffer));
}

std::size_t PayloadPool::trimToHighWater() {
  // Peak demand was liveHighWater simultaneous buffers; outstanding_ of
  // those are checked out right now, so any parked surplus beyond the
  // difference can never be needed at once again.
  const std::size_t highWater = static_cast<std::size_t>(stats_.liveHighWater);
  const std::size_t keep =
      highWater > outstanding_ ? highWater - outstanding_ : 0;
  if (free_.size() <= keep) return 0;
  const std::size_t drop = free_.size() - keep;
  // The oldest (coldest) buffers sit at the front of the LIFO.
  free_.erase(free_.begin(),
              free_.begin() + static_cast<std::ptrdiff_t>(drop));
  stats_.trimmedBuffers += drop;
  return drop;
}

void PayloadPool::resetStats() {
  stats_ = Stats{};
  stats_.liveHighWater = outstanding_;
}

// ---------------------------------------------------------------------------
// MessagePayload
// ---------------------------------------------------------------------------

MessagePayload::MessagePayload(std::span<const std::byte> data,
                               PayloadPool& pool)
    : size_(data.size()) {
  if (data.empty()) return;  // empty payloads count as neither kind
  if (size_ <= kInlineCapacity) {
    std::memcpy(inline_.data(), data.data(), size_);
    pool.noteInlineMessage();
    return;
  }
  buffer_ = pool.acquire(data);
  pooled_ = true;
  pool.notePooledMessage();
}

std::vector<std::byte> MessagePayload::intoVector(PayloadPool& pool) {
  std::vector<std::byte> out(view().begin(), view().end());
  recycle(pool);
  return out;
}

void MessagePayload::recycle(PayloadPool& pool) {
  if (pooled_) pool.release(std::move(buffer_));
  pooled_ = false;
  size_ = 0;
}

}  // namespace tibsim::mpi
