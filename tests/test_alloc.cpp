// Heap allocations on the simMPI message path. This binary replaces the
// global operator new with a counting one, so it is a test binary of its
// own: the count covers the whole process.
//
// Every message event is a scheduled callback that names the message by
// its in-flight slot: a delivery (eager, or a rendezvous RTS) captures
// [this, dst, slot], a rendezvous CTS [this, slot] and its data arrival
// [this, dst, slot], at most 16 trivially copyable bytes. That is the most
// std::function stores inline (libstdc++), so no message event costs an
// allocation; a capture that outgrew the buffer would cost one per
// message. The inline limit belongs to the platform's standard library,
// so CI runs this binary on every architecture it builds.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <vector>

#include "tibsim/mpi/simmpi.hpp"

namespace {
std::atomic<long long> allocations{0};
}  // namespace

// The array and nothrow forms of operator new call this one.
void* operator new(std::size_t bytes) {
  allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace tibsim::mpi {
namespace {

/// Heap allocations made while two ranks on two Tibidabo nodes run
/// `roundTrips` ping-pong round trips of `bytes`-byte messages over
/// `protocol`. With `realPayload`, that many bytes of data ride along each
/// message; otherwise the messages carry sizes only.
long long allocationsFor(int roundTrips, net::Protocol protocol,
                         std::size_t bytes, bool realPayload) {
  WorldConfig config = WorldConfig::tibidaboNode();
  config.ranksPerNode = 1;
  config.protocol = protocol;
  const std::vector<std::byte> payload(realPayload ? bytes : 0,
                                       std::byte{0x5a});
  MpiWorld world(config, 2);
  const long long before = allocations.load();
  world.run([&](MpiContext& ctx) {
    for (int i = 0; i < roundTrips; ++i) {
      if (ctx.rank() == 0) {
        ctx.send(1, 7, bytes, payload);
        ctx.recv(1, 8);
      } else {
        ctx.recv(0, 7);
        ctx.send(0, 8, bytes, payload);
      }
    }
  });
  return allocations.load() - before;
}

/// What 1,000 more round trips allocate: world set-up, warm-up and
/// teardown cancel in the difference. A first world warms the
/// process-wide caches (recycled fiber stacks) that a later one reuses.
long long allocationsPer1000RoundTrips(net::Protocol protocol,
                                       std::size_t bytes, bool realPayload) {
  allocationsFor(1, protocol, bytes, realPayload);
  const long long thousand =
      allocationsFor(1000, protocol, bytes, realPayload);
  return allocationsFor(2000, protocol, bytes, realPayload) - thousand;
}

TEST(MessagePathAllocations, SizeOnlyRoundTripAllocatesNothing) {
  EXPECT_EQ(allocationsPer1000RoundTrips(net::Protocol::TcpIp, 64, false),
            0);
}

TEST(MessagePathAllocations, InlinePayloadRoundTripAllocatesTheTwoReceiveVectors) {
  // A 64 B payload rides inline in the Message; each recv() hands its
  // bytes back in a fresh std::vector, one per rank per round trip.
  EXPECT_EQ(allocationsPer1000RoundTrips(net::Protocol::TcpIp, 64, true),
            2 * 1000);
}

// 64 KiB over Open-MX takes the rendezvous handshake: an RTS delivery, a
// CTS and a data arrival per message.
TEST(MessagePathAllocations, SizeOnlyRendezvousRoundTripAllocatesNothing) {
  EXPECT_EQ(
      allocationsPer1000RoundTrips(net::Protocol::OpenMx, 64 * 1024, false),
      0);
}

TEST(MessagePathAllocations, RendezvousPayloadRoundTripAllocatesTheTwoReceiveVectors) {
  // The payload borrows a warm pool buffer on the send side; each recv()
  // still hands its bytes back in a fresh std::vector.
  EXPECT_EQ(
      allocationsPer1000RoundTrips(net::Protocol::OpenMx, 64 * 1024, true),
      2 * 1000);
}

}  // namespace
}  // namespace tibsim::mpi
