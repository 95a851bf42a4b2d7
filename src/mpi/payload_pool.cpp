#include "tibsim/mpi/payload_pool.hpp"

#include <algorithm>
#include <bit>

#include "tibsim/common/assert.hpp"

namespace tibsim::mpi {

// ---------------------------------------------------------------------------
// PayloadPool::CompatModel — the pre-size-class pool, counts only
// ---------------------------------------------------------------------------

std::size_t PayloadPool::CompatModel::acquire(std::size_t bytes) {
  std::size_t capacity = 0;
  if (!freeCaps_.empty()) {
    capacity = freeCaps_.back();
    freeCaps_.pop_back();
    if (capacity >= bytes) {
      ++stats_.reuses;
    } else {
      // The legacy pool cleared the vector before reserving, so libstdc++
      // grew it to exactly the requested size — not geometrically.
      ++stats_.allocations;
      capacity = bytes;
    }
  } else {
    ++stats_.allocations;
    capacity = bytes;
  }
  ++outstanding_;
  stats_.liveHighWater =
      std::max<std::uint64_t>(stats_.liveHighWater, outstanding_);
  return capacity;
}

void PayloadPool::CompatModel::release(std::size_t capacity) {
  if (outstanding_ > 0) --outstanding_;
  if (capacity == 0) return;  // nothing worth parking
  ++stats_.returns;
  freeCaps_.push_back(capacity);
}

std::size_t PayloadPool::CompatModel::trimToHighWater() {
  // Peak demand was liveHighWater simultaneous buffers; outstanding_ of
  // those are checked out right now, so any parked surplus beyond the
  // difference can never be needed at once again.
  const std::size_t highWater = static_cast<std::size_t>(stats_.liveHighWater);
  const std::size_t keep =
      highWater > outstanding_ ? highWater - outstanding_ : 0;
  if (freeCaps_.size() <= keep) return 0;
  const std::size_t drop = freeCaps_.size() - keep;
  // Oldest (coldest) capacities sit at the front of the LIFO.
  freeCaps_.erase(freeCaps_.begin(),
                  freeCaps_.begin() + static_cast<std::ptrdiff_t>(drop));
  stats_.trimmedBuffers += drop;
  return drop;
}

// ---------------------------------------------------------------------------
// PayloadPool — the size-classed pool that actually holds memory
// ---------------------------------------------------------------------------

std::size_t PayloadPool::classIndex(std::size_t bytes) {
  const std::size_t width = static_cast<std::size_t>(
      std::bit_width(std::max<std::size_t>(bytes, 2) - 1));
  return std::max(width, kMinClassIndex);
}

void PayloadPool::ensureClass(std::size_t index) {
  if (index < free_.size()) return;
  free_.resize(index + 1);
  classStats_.resize(index + 1);
  for (std::size_t c = kMinClassIndex; c < classStats_.size(); ++c)
    classStats_[c].classBytes = classBytes(c);
}

std::uint32_t PayloadPool::mintTicket(std::size_t compatCap) {
  if (freeTickets_.empty()) {
    ticketCaps_.push_back(compatCap);
    return static_cast<std::uint32_t>(ticketCaps_.size() - 1);
  }
  const std::uint32_t ticket = freeTickets_.back();
  freeTickets_.pop_back();
  ticketCaps_[ticket] = compatCap;
  return ticket;
}

std::vector<std::byte> PayloadPool::acquire(std::span<const std::byte> data,
                                            std::uint32_t& ticket) {
  const std::size_t bytes = data.size();
  const std::size_t cls = classIndex(bytes);
  ensureClass(cls);
  ++classStats_[cls].acquires;

  std::vector<std::byte> buffer;
  if (freeTotal_ > 0) {
    // Best fit: own class, else the smallest larger class (its buffer
    // already fits), else the largest smaller class (the reserve below
    // grows it — still cheaper than leaving warm memory parked while the
    // allocator is hit for a brand-new buffer).
    std::size_t donor = cls;
    if (free_[donor].empty()) {
      donor = free_.size();
      for (std::size_t c = cls + 1; c < free_.size(); ++c) {
        if (!free_[c].empty()) {
          donor = c;
          break;
        }
      }
      if (donor == free_.size()) {
        for (std::size_t c = cls; c-- > 0;) {
          if (!free_[c].empty()) {
            donor = c;
            break;
          }
        }
      }
    }
    TIB_ASSERT(donor < free_.size() && !free_[donor].empty());
    buffer = std::move(free_[donor].back());
    free_[donor].pop_back();
    --freeTotal_;
    if (buffer.capacity() >= bytes)
      ++classStats_[cls].reuses;
    else
      ++classStats_[cls].allocations;
  } else {
    ++classStats_[cls].allocations;
  }

  if (buffer.capacity() < classBytes(cls)) buffer.reserve(classBytes(cls));
  buffer.clear();
  buffer.insert(buffer.end(), data.begin(), data.end());

  ++outstanding_;
  liveHighWater_ = std::max(liveHighWater_, outstanding_);
  ticket = mintTicket(compat_.acquire(bytes));
  return buffer;
}

void PayloadPool::release(std::vector<std::byte>&& buffer,
                          std::uint32_t ticket) {
  if (outstanding_ > 0) --outstanding_;
  if (ticket != kNoTicket) {
    compat_.release(ticketCaps_[ticket]);
    freeTickets_.push_back(ticket);
  }
  if (buffer.capacity() == 0) return;
  // Capacities are rounded up to a class size on acquire, so this maps the
  // buffer straight back to the class it was reserved for (or the larger
  // donor class whose capacity it kept).
  const std::size_t cls = classIndex(buffer.capacity());
  ensureClass(cls);
  buffer.clear();
  free_[cls].push_back(std::move(buffer));
  ++freeTotal_;
  ++classStats_[cls].parked;
}

std::size_t PayloadPool::trimToHighWater() {
  const std::size_t keep =
      liveHighWater_ > outstanding_ ? liveHighWater_ - outstanding_ : 0;
  std::size_t dropped = 0;
  // Drop the smallest classes' coldest (oldest, front-of-list) buffers
  // first: the large classes hold the buffers that are expensive to
  // re-create, so they are the last to go.
  for (std::size_t c = kMinClassIndex; c < free_.size() && freeTotal_ > keep;
       ++c) {
    auto& list = free_[c];
    while (!list.empty() && freeTotal_ > keep) {
      list.erase(list.begin());
      --freeTotal_;
      ++dropped;
    }
  }
  compat_.trimToHighWater();
  return dropped;
}

void PayloadPool::resetStats() {
  compat_.resetStats();
  liveHighWater_ = outstanding_;
  for (auto& cs : classStats_) {
    const std::size_t bytes = cs.classBytes;
    cs = ClassStats{};
    cs.classBytes = bytes;
  }
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
  buffer_ = pool.acquire(data, ticket_);
  pooled_ = true;
  pool.notePooledMessage();
}

std::vector<std::byte> MessagePayload::intoVector(PayloadPool& pool) {
  std::vector<std::byte> out(view().begin(), view().end());
  if (pooled_) {
    pool.release(std::move(buffer_),
                 std::exchange(ticket_, PayloadPool::kNoTicket));
    pooled_ = false;
  }
  size_ = 0;
  return out;
}

}  // namespace tibsim::mpi
