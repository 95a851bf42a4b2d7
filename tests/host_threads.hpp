#pragma once
// The host axis of the engine test suites. Every rank runs as a fiber on
// its own stack; what a test can still vary is the host thread that
// switches into those fibers:
//
//   Host::Fiber   the calling test thread, as in a `--jobs 1` campaign;
//   Host::Thread  a freshly spawned host thread, as in the `--jobs` pool,
//                 where a fiber may also be torn down by a different
//                 thread than the one that first entered it.
//
// Nothing the engine computes may depend on the host, so the Backends/*
// and RankCounts/* suites run every case on both and name the instances
// `fiber` and `thread` (hostName).

#include <exception>
#include <optional>
#include <string>
#include <thread>
#include <utility>

namespace tibsim::testhost {

enum class Host { Fiber, Thread };

inline std::string hostName(Host host) {
  return host == Host::Fiber ? "fiber" : "thread";
}

/// Calls fn() on `host` and returns its result. An exception fn() throws is
/// rethrown on the calling thread, so EXPECT_THROW works across hosts.
template <typename Fn>
auto onHost(Host host, Fn&& fn) {
  if (host == Host::Fiber) return fn();
  std::optional<decltype(fn())> result;
  std::exception_ptr error;
  std::thread worker([&] {
    try {
      result.emplace(fn());
    } catch (...) {
      error = std::current_exception();
    }
  });
  worker.join();
  if (error) std::rethrow_exception(error);
  return std::move(*result);
}

}  // namespace tibsim::testhost
