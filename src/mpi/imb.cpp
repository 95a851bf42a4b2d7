#include "tibsim/mpi/imb.hpp"

#include "tibsim/common/assert.hpp"

namespace tibsim::mpi::imb {

namespace {
Result makeResult(std::size_t bytes, double perOpSeconds) {
  Result r;
  r.bytes = bytes;
  r.seconds = perOpSeconds;
  r.bandwidthBytesPerS =
      perOpSeconds > 0.0 ? static_cast<double>(bytes) / perOpSeconds : 0.0;
  return r;
}
}  // namespace

std::vector<std::size_t> messageSizes(std::size_t maxBytes) {
  std::vector<std::size_t> sizes = {0};
  for (std::size_t s = 1; s <= maxBytes; s *= 2) sizes.push_back(s);
  return sizes;
}

std::vector<Result> pingPong(const WorldConfig& config,
                             const std::vector<std::size_t>& sizes,
                             int repetitions, const StatsHook& hook) {
  TIB_REQUIRE(repetitions >= 1);
  std::vector<Result> results;
  for (std::size_t bytes : sizes) {
    MpiWorld world(config, 2);
    const WorldStats stats =
        world.run([bytes, repetitions](MpiContext& ctx) {
          for (int i = 0; i < repetitions; ++i) {
            if (ctx.rank() == 0) {
              ctx.send(1, 1, bytes);
              ctx.recv(1, 2);
            } else {
              ctx.recv(0, 1);
              ctx.send(0, 2, bytes);
            }
          }
        });
    if (hook) hook(stats);
    results.push_back(makeResult(
        bytes, stats.wallClockSeconds / (2.0 * repetitions)));
  }
  return results;
}

std::vector<Result> pingPing(const WorldConfig& config,
                             const std::vector<std::size_t>& sizes,
                             int repetitions, const StatsHook& hook) {
  TIB_REQUIRE(repetitions >= 1);
  std::vector<Result> results;
  for (std::size_t bytes : sizes) {
    MpiWorld world(config, 2);
    const WorldStats stats =
        world.run([bytes, repetitions](MpiContext& ctx) {
          const int peer = 1 - ctx.rank();
          for (int i = 0; i < repetitions; ++i) {
            // Both sides send concurrently, then receive.
            const auto req = ctx.irecv(peer, 3);
            ctx.isend(peer, 3, bytes);
            ctx.wait(req);
          }
        });
    if (hook) hook(stats);
    results.push_back(
        makeResult(bytes, stats.wallClockSeconds / repetitions));
  }
  return results;
}

std::vector<Result> exchange(const WorldConfig& config, int ranks,
                             const std::vector<std::size_t>& sizes,
                             int repetitions, const StatsHook& hook) {
  TIB_REQUIRE(ranks >= 2 && repetitions >= 1);
  std::vector<Result> results;
  for (std::size_t bytes : sizes) {
    MpiWorld world(config, ranks);
    const WorldStats stats =
        world.run([bytes, repetitions](MpiContext& ctx) {
          for (int i = 0; i < repetitions; ++i)
            ctx.neighborExchange(bytes, 4);
        });
    if (hook) hook(stats);
    results.push_back(
        makeResult(bytes, stats.wallClockSeconds / repetitions));
  }
  return results;
}

std::vector<Result> allreduce(const WorldConfig& config, int ranks,
                              const std::vector<std::size_t>& sizes,
                              int repetitions, const StatsHook& hook) {
  TIB_REQUIRE(ranks >= 2 && repetitions >= 1);
  std::vector<Result> results;
  for (std::size_t bytes : sizes) {
    const std::size_t elements = std::max<std::size_t>(1, bytes / 8);
    MpiWorld world(config, ranks);
    const WorldStats stats =
        world.run([elements, repetitions](MpiContext& ctx) {
          const std::vector<double> values(elements, 1.0);
          for (int i = 0; i < repetitions; ++i)
            ctx.allreduce(values, ReduceOp::Sum);
        });
    if (hook) hook(stats);
    results.push_back(
        makeResult(elements * 8, stats.wallClockSeconds / repetitions));
  }
  return results;
}

std::vector<Result> bcast(const WorldConfig& config, int ranks,
                          const std::vector<std::size_t>& sizes,
                          int repetitions, const StatsHook& hook) {
  TIB_REQUIRE(ranks >= 2 && repetitions >= 1);
  std::vector<Result> results;
  for (std::size_t bytes : sizes) {
    MpiWorld world(config, ranks);
    const WorldStats stats =
        world.run([bytes, repetitions](MpiContext& ctx) {
          for (int i = 0; i < repetitions; ++i) ctx.bcastBytes(bytes, 0);
        });
    if (hook) hook(stats);
    results.push_back(
        makeResult(bytes, stats.wallClockSeconds / repetitions));
  }
  return results;
}

Result barrier(const WorldConfig& config, int ranks, int repetitions,
               const StatsHook& hook) {
  TIB_REQUIRE(ranks >= 2 && repetitions >= 1);
  MpiWorld world(config, ranks);
  const WorldStats stats = world.run([repetitions](MpiContext& ctx) {
    for (int i = 0; i < repetitions; ++i) ctx.barrier();
  });
  if (hook) hook(stats);
  return makeResult(0, stats.wallClockSeconds / repetitions);
}

}  // namespace tibsim::mpi::imb
