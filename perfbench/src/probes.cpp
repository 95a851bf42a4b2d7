// Isolated probes of each layer's public entry points, timed from outside:
// the process lifecycle and event loop (sim), the two-rank ping-pong (mpi),
// the fabric's scheduleWire (net) and the price of link telemetry and
// aggregate tracing (obs). Every probe uses engine defaults — default stack,
// default execution context, single event queue — so a later change to any
// of those shows up here.

#include "probes.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "tibsim/cluster/cluster.hpp"
#include "tibsim/mpi/simmpi.hpp"
#include "tibsim/net/fabric.hpp"
#include "tibsim/obs/trace_sink.hpp"
#include "tibsim/sim/simulation.hpp"

namespace perfbench {

namespace {

constexpr int kDeepProcesses = 4096;  // hpl4k's rank count
constexpr int kReps = 5;              // timed repetitions per small probe

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Spawn, run to completion and destroy `processes` empty processes; host
/// microseconds per process.
double lifecycleUs(int processes) {
  const double start = monotonicSeconds();
  {
    tibsim::sim::Simulation sim;
    for (int i = 0; i < processes; ++i)
      sim.spawn("probe", [](tibsim::sim::Process&) {});
    sim.run();
  }
  return (monotonicSeconds() - start) * 1e6 / processes;
}

/// One process delaying in a loop: host ns per dispatched event, timed
/// inside the body so spawn and teardown stay out.
double shallowNs(int iterations) {
  tibsim::sim::Simulation sim;
  double t0 = 0.0, t1 = 0.0;
  std::uint64_t e0 = 0, e1 = 0;
  sim.spawn("spinner", [&](tibsim::sim::Process& p) {
    e0 = p.simulation().processedEvents();
    t0 = monotonicSeconds();
    for (int i = 0; i < iterations; ++i) p.delay(1e-6);
    t1 = monotonicSeconds();
    e1 = p.simulation().processedEvents();
  });
  sim.run();
  return (t1 - t0) * 1e9 / static_cast<double>(e1 - e0);
}

/// `processes` processes delaying at staggered periods, so the queue holds
/// one entry per process: host ns per event while every process is live.
/// The window opens when the last process starts and closes when the
/// first one finishes, so spawn and teardown stay out.
double deepNs(int processes, int iterations) {
  tibsim::sim::Simulation sim;
  int started = 0;
  bool closed = false;
  double t0 = 0.0, t1 = 0.0;
  std::uint64_t e0 = 0, e1 = 0;
  for (int i = 0; i < processes; ++i) {
    const double period = 1e-6 * (1.0 + static_cast<double>(i % 97) / 97.0);
    sim.spawn("deep", [&, period](tibsim::sim::Process& p) {
      if (++started == processes) {
        t0 = monotonicSeconds();
        e0 = p.simulation().processedEvents();
      }
      for (int k = 0; k < iterations; ++k) p.delay(period);
      if (!closed) {
        closed = true;
        t1 = monotonicSeconds();
        e1 = p.simulation().processedEvents();
      }
    });
  }
  sim.run();
  return (t1 - t0) * 1e9 / static_cast<double>(e1 - e0);
}

/// The two-rank ping-pong of the ROADMAP's drift question: host ns per
/// round trip around MpiWorld::run, size-only (payloadBytes 0, 64 modelled
/// bytes) or with a real payload.
double pingPongNs(int reps, std::size_t payloadBytes, bool aggregateTrace) {
  tibsim::mpi::WorldConfig cfg = tibsim::mpi::WorldConfig::tibidaboNode();
  if (aggregateTrace) cfg.traceMode = tibsim::obs::TraceMode::Aggregate;
  tibsim::mpi::MpiWorld world(cfg, 2);
  if (aggregateTrace) world.enableTracing();
  const std::vector<std::byte> payload(payloadBytes, std::byte{0x5a});
  const std::size_t bytes = payloadBytes > 0 ? payloadBytes : 64;
  const double start = monotonicSeconds();
  world.run([&](tibsim::mpi::MpiContext& ctx) {
    for (int i = 0; i < reps; ++i) {
      if (ctx.rank() == 0) {
        ctx.send(1, 7, bytes, payload);
        ctx.recv(1, 8);
      } else {
        ctx.recv(0, 7);
        ctx.send(0, 8, bytes, payload);
      }
    }
  });
  return (monotonicSeconds() - start) * 1e9 / reps;
}

/// Fabric::scheduleWire on hpl4k's 2,048-node tree: host ns per call over
/// pseudo-random node pairs.
double wireNs(int calls, bool telemetry) {
  tibsim::net::TopologySpec topology =
      tibsim::cluster::ClusterSpec::tibidaboScaled(2048).topology;
  topology.nodes = 2048;
  tibsim::net::Fabric fabric(topology, telemetry);
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  double t = 0.0, sink = 0.0;
  const double start = monotonicSeconds();
  for (int i = 0; i < calls; ++i) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    const int src = static_cast<int>(state % 2048);
    const int dst = (src + 1 + static_cast<int>((state >> 20) % 2047)) % 2048;
    sink += fabric.scheduleWire(src, dst, 4096.0, t);
    t += 1e-6;
  }
  const double seconds = monotonicSeconds() - start;
  return sink > 0.0 ? seconds * 1e9 / calls : 0.0;
}

}  // namespace

tibsim::json::Value runProbes(SpanLog& spans) {
  tibsim::json::Value out = tibsim::json::Value::object();
  const ScopedSpan root(spans, "probes");
  const auto timed = [&](const char* name, auto&& fn) {
    const ScopedSpan span(spans, std::string("probe.") + name, root.index());
    return fn();
  };

  out["sim.probe.lifecycle_us"] =
      timed("lifecycle", [] { return lifecycleUs(kDeepProcesses); });
  out["sim.probe.shallow_ns"] = timed("shallow", [] {
    std::vector<double> v;
    for (int r = 0; r < kReps; ++r) v.push_back(shallowNs(200000));
    return median(v);
  });
  out["sim.probe.deep_ns"] =
      timed("deep", [] { return deepNs(kDeepProcesses, 100); });
  out["mpi.probe.pingpong_ns"] = timed("pingpong", [] {
    std::vector<double> v;
    for (int r = 0; r < kReps; ++r) v.push_back(pingPongNs(50000, 0, false));
    return median(v);
  });
  out["mpi.probe.pingpong_4k_ns"] = timed("pingpong_4k", [] {
    std::vector<double> v;
    for (int r = 0; r < kReps; ++r)
      v.push_back(pingPongNs(50000, 4096, false));
    return median(v);
  });
  // Telemetry and tracing are priced as differences, so the two sides run
  // interleaved: a burst of host load then lands on both.
  std::vector<double> wireOn, wireOff;
  timed("wire", [&] {
    for (int r = 0; r < kReps; ++r) {
      wireOn.push_back(wireNs(1000000, true));
      wireOff.push_back(wireNs(1000000, false));
    }
    return 0.0;
  });
  out["net.probe.wire_ns"] = median(wireOn);
  out["obs.probe.link_ns"] = median(wireOn) - median(wireOff);
  out["obs.probe.trace_tax_pct"] = timed("trace_tax", [] {
    std::vector<double> off, on;
    for (int r = 0; r < kReps; ++r) {
      off.push_back(pingPongNs(50000, 0, false));
      on.push_back(pingPongNs(50000, 0, true));
    }
    return 100.0 * (median(on) / median(off) - 1.0);
  });
  return out;
}

}  // namespace perfbench
