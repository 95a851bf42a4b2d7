// Microbenchmark: host cost per simulated context switch on the fiber
// engine. Probes:
//
//  * raw engine: one process delay()ing in a tight loop — each iteration is
//    one scheduler->process switch, one process->scheduler yield and one
//    event dispatch, i.e. the engine's floor;
//  * simMPI ping-pong: the Section 4.1 two-rank ping-pong through the full
//    protocol stack — what a rank-level context switch costs in situ. Run
//    size-only (pure engine + protocol overhead), with the paper's 64-byte
//    payload (inline small-message storage), and with a 4 KiB payload
//    (pool-backed buffer, recycled by every recv); plus a wildcard
//    ping-pong, an 8-rank iallreduce, the observability tax of each
//    recording layer, and cold vs warm campaign throughput through the
//    result cache.
//
// Host timings are inherently machine-dependent, so this is a standalone
// binary (like kernels_native) and never part of the deterministic
// campaign artefacts. `--json OUT` writes the numbers to a
// machine-readable file (BENCH_sim.json in-repo) so successive PRs have a
// perf trajectory to compare against; headline numbers also land in
// EXPERIMENTS.md.
//
// Wall-clock reads are this benchmark's entire purpose, so the rule is
// waived for the whole file rather than per call site.
// tibsim-lint: allowfile(wall-clock)

#include <array>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "tibsim/common/json.hpp"
#include "tibsim/core/campaign.hpp"
#include "tibsim/mpi/simmpi.hpp"
#include "tibsim/obs/trace_sink.hpp"
#include "tibsim/sim/simulation.hpp"

namespace {

struct Probe {
  double seconds = 0.0;
  std::uint64_t switches = 0;
  int reps = 0;  ///< ping-pong round trips (0 for the raw engine probe)
  double nsPerSwitch() const {
    return switches > 0 ? seconds * 1e9 / static_cast<double>(switches) : 0.0;
  }
  double nsPerRep() const {
    return reps > 0 ? seconds * 1e9 / static_cast<double>(reps) : 0.0;
  }
};

Probe rawEngineProbe(int iterations) {
  tibsim::sim::Simulation sim;
  sim.spawn("spinner", [iterations](tibsim::sim::Process& p) {
    for (int i = 0; i < iterations; ++i) p.delay(1e-6);
  });
  const auto start = std::chrono::steady_clock::now();
  sim.run();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return {seconds, sim.engineStats().contextSwitches};
}

/// Two ranks on one node exchanging `bytes`-sized messages. payloadBytes
/// controls how much real data rides along: 0 = size-only, <= 64 exercises
/// the inline small-message path, larger sizes the payload pool.
Probe pingPongProbe(int repetitions, std::size_t payloadBytes) {
  tibsim::mpi::MpiWorld world(tibsim::mpi::WorldConfig::tibidaboNode(), 2);
  std::vector<std::byte> payload(payloadBytes, std::byte{0x5a});
  const std::size_t bytes = payloadBytes > 0 ? payloadBytes : 64;
  const auto start = std::chrono::steady_clock::now();
  const tibsim::mpi::WorldStats stats = world.run(
      [repetitions, bytes, &payload](tibsim::mpi::MpiContext& ctx) {
        for (int i = 0; i < repetitions; ++i) {
          if (ctx.rank() == 0) {
            ctx.send(1, 7, bytes, payload);
            ctx.recv(1, 8);
          } else {
            ctx.recv(0, 7);
            ctx.send(0, 8, bytes, payload);
          }
        }
      });
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return {seconds, stats.engine.contextSwitches, repetitions};
}

/// The size-only ping-pong with the observability layers dialled through
/// their settings: span tracing off / aggregate / sampled / full, and the
/// per-link fabric telemetry on or off. The delta against the plain
/// size-only probe is the tax each recording mode puts on every simulated
/// message — the number that justifies leaving aggregate tracing and link
/// telemetry on for campaign runs.
Probe observedPingPongProbe(int repetitions,
                            const tibsim::obs::TraceMode* traceMode,
                            bool linkTelemetry) {
  tibsim::mpi::WorldConfig cfg = tibsim::mpi::WorldConfig::tibidaboNode();
  cfg.linkTelemetry = linkTelemetry;
  if (traceMode) cfg.traceMode = *traceMode;
  tibsim::mpi::MpiWorld world(cfg, 2);
  if (traceMode) world.enableTracing();
  const auto start = std::chrono::steady_clock::now();
  const tibsim::mpi::WorldStats stats =
      world.run([repetitions](tibsim::mpi::MpiContext& ctx) {
        for (int i = 0; i < repetitions; ++i) {
          if (ctx.rank() == 0) {
            ctx.send(1, 7, 64);
            ctx.recv(1, 8);
          } else {
            ctx.recv(0, 7);
            ctx.send(0, 8, 64);
          }
        }
      });
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return {seconds, stats.engine.contextSwitches, repetitions};
}

/// The ping-pong with the receiver matching on kAnySource/kAnyTag instead
/// of the explicit (source, tag): what the wildcard scan over the mailbox
/// costs on top of the exact-match path. Two ranks, size-only messages.
Probe wildcardPingPongProbe(int repetitions) {
  tibsim::mpi::MpiWorld world(tibsim::mpi::WorldConfig::tibidaboNode(), 2);
  const auto start = std::chrono::steady_clock::now();
  const tibsim::mpi::WorldStats stats =
      world.run([repetitions](tibsim::mpi::MpiContext& ctx) {
        const tibsim::mpi::Communicator comm = ctx.commWorld();
        for (int i = 0; i < repetitions; ++i) {
          if (ctx.rank() == 0) {
            comm.send(1, 7, 64);
            comm.recv(tibsim::mpi::kAnySource,  // tibsim-lint: allow(wildcard-recv)
                      tibsim::mpi::kAnyTag);
          } else {
            comm.recv(tibsim::mpi::kAnySource,  // tibsim-lint: allow(wildcard-recv)
                      tibsim::mpi::kAnyTag);
            comm.send(0, 8, 64);
          }
        }
      });
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return {seconds, stats.engine.contextSwitches, repetitions};
}

/// Non-blocking allreduce over 8 ranks (4 Tegra 2 nodes x 2 ranks): the
/// request/wait machinery plus the binomial reduce + bcast per repetition.
/// `reps` counts iallreduce/waitDoubles pairs.
Probe iallreduceProbe(int repetitions) {
  tibsim::mpi::MpiWorld world(tibsim::mpi::WorldConfig::tibidaboNode(), 8);
  const auto start = std::chrono::steady_clock::now();
  const tibsim::mpi::WorldStats stats =
      world.run([repetitions](tibsim::mpi::MpiContext& ctx) {
        const tibsim::mpi::Communicator comm = ctx.commWorld();
        const double mine[1] = {static_cast<double>(ctx.rank())};
        for (int i = 0; i < repetitions; ++i) {
          const tibsim::mpi::Communicator::Request req =
              comm.iallreduce(std::span<const double>(mine, 1));
          comm.waitDoubles(req);
        }
      });
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return {seconds, stats.engine.contextSwitches, repetitions};
}

/// Campaign throughput: the same fixed experiment subset run cold (fresh
/// cache, every cell computed) and warm (same cache, every cell replayed).
/// Tracks the result cache's speedup as a number in BENCH_sim.json, not an
/// anecdote.
struct CampaignProbe {
  std::size_t experiments = 0;
  double coldSeconds = 0.0;
  double warmSeconds = 0.0;
};

CampaignProbe campaignThroughputProbe() {
  namespace fs = std::filesystem;
  const fs::path base = fs::temp_directory_path() / "tibsim_bench_campaign";
  fs::remove_all(base);
  const std::vector<std::string> subset = {"tab01", "tab04", "imb_suite",
                                           "latency_penalty"};
  const auto timedRun = [&](const fs::path& cache) {
    tibsim::core::CampaignOptions options;
    options.patterns = subset;
    options.summary = false;
    options.cacheDir = cache.string();
    std::ostringstream sink;
    const auto start = std::chrono::steady_clock::now();
    tibsim::core::runCampaign(options, sink);
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  CampaignProbe probe;
  probe.experiments = subset.size();
  probe.coldSeconds = timedRun(base / "cache");
  probe.warmSeconds = timedRun(base / "cache");
  fs::remove_all(base);
  return probe;
}

void report(const char* name, const Probe& probe) {
  std::printf("%-22s %12llu switches   %8.1f ns/switch", name,
              static_cast<unsigned long long>(probe.switches),
              probe.nsPerSwitch());
  if (probe.reps > 0) std::printf("   %8.1f ns/round-trip", probe.nsPerRep());
  std::printf("\n");
}

tibsim::json::Value probeJson(const Probe& probe) {
  tibsim::json::Value v = tibsim::json::Value::object();
  v["switches"] = static_cast<double>(probe.switches);
  v["fiberNsPerSwitch"] = probe.nsPerSwitch();
  if (probe.reps > 0) v["fiberNsPerRoundTrip"] = probe.nsPerRep();
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  std::string jsonPath;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      jsonPath = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--json OUT]\n", argv[0]);
      return 2;
    }
  }

  constexpr int kRawIterations = 200000;
  constexpr int kPingPongReps = 50000;

  // Warm up once so first-touch page faults don't skew the first probe.
  rawEngineProbe(1000);

  std::printf("sim engine microbenchmark (cost per simulated context "
              "switch)\n\n");
  const Probe raw = rawEngineProbe(kRawIterations);
  report("raw engine", raw);
  const Probe pp = pingPongProbe(kPingPongReps, 0);
  report("ping-pong size-only", pp);
  const Probe pp64 = pingPongProbe(kPingPongReps, 64);
  report("ping-pong 64 B inline", pp64);
  const Probe pp4k = pingPongProbe(kPingPongReps, 4096);
  report("ping-pong 4 KiB pooled", pp4k);
  const Probe wildcard = wildcardPingPongProbe(kPingPongReps);
  report("ping-pong wildcard", wildcard);
  constexpr int kIallreduceReps = 10000;
  const Probe iallreduce = iallreduceProbe(kIallreduceReps);
  report("iallreduce 8 ranks", iallreduce);

  // Observability tax: the same size-only ping-pong with the recording
  // layers dialled up one at a time. Baseline is everything off; campaign defaults are link telemetry on, tracing off. Best-of-3
  // because the deltas are within single-run scheduler jitter.
  using tibsim::obs::TraceMode;
  constexpr int kObsRuns = 7;
  constexpr int kObsReps = 100000;
  constexpr TraceMode kAggregate = TraceMode::Aggregate;
  constexpr TraceMode kSampled = TraceMode::Sampled;
  constexpr TraceMode kFull = TraceMode::Full;
  struct ObsConfig {
    const TraceMode* mode = nullptr;
    bool links = false;
  };
  // Round-robin over the configurations and keep each one's fastest run:
  // interleaving means a host-load burst hits every configuration equally
  // instead of biasing whichever block it lands on.
  const std::array<ObsConfig, 5> obsConfigs = {{{nullptr, false},
                                                {nullptr, true},
                                                {&kAggregate, true},
                                                {&kSampled, true},
                                                {&kFull, true}}};
  std::array<Probe, 5> obsBest{};
  for (int run = 0; run < kObsRuns; ++run) {
    for (std::size_t i = 0; i < obsConfigs.size(); ++i) {
      const Probe probe = observedPingPongProbe(
          kObsReps, obsConfigs[i].mode, obsConfigs[i].links);
      if (run == 0 || probe.seconds < obsBest[i].seconds) obsBest[i] = probe;
    }
  }
  const Probe& obsOff = obsBest[0];
  const Probe& obsLinks = obsBest[1];
  const Probe& obsAgg = obsBest[2];
  const Probe& obsSampled = obsBest[3];
  const Probe& obsFull = obsBest[4];
  std::printf("\nobservability tax (size-only ping-pong, %d reps, "
              "best of %d interleaved, vs all recording off)\n",
              kObsReps, kObsRuns);
  const auto taxLine = [&](const char* name, const Probe& probe) {
    std::printf("%-22s %8.1f ns/round-trip   %+6.1f%%\n", name,
                probe.nsPerRep(),
                obsOff.nsPerRep() > 0.0
                    ? 100.0 * (probe.nsPerRep() / obsOff.nsPerRep() - 1.0)
                    : 0.0);
  };
  taxLine("all off", obsOff);
  taxLine("link telemetry", obsLinks);
  taxLine("+trace aggregate", obsAgg);
  taxLine("+trace sampled", obsSampled);
  taxLine("+trace full", obsFull);

  const CampaignProbe campaign = campaignThroughputProbe();
  std::printf("\ncampaign throughput (%zu experiments, result cache)\n"
              "%-22s %8.3f s\n%-22s %8.3f s   %0.1fx vs cold\n",
              campaign.experiments, "cold", campaign.coldSeconds, "warm",
              campaign.warmSeconds,
              campaign.warmSeconds > 0.0
                  ? campaign.coldSeconds / campaign.warmSeconds
                  : 0.0);

  if (!jsonPath.empty()) {
    tibsim::json::Value doc = tibsim::json::Value::object();
    doc["schema"] = "tibsim-bench-sim-v1";
    doc["rawEngine"] = probeJson(raw);
    doc["pingPongSizeOnly"] = probeJson(pp);
    doc["pingPong64BInline"] = probeJson(pp64);
    doc["pingPong4KiBPooled"] = probeJson(pp4k);
    doc["pingPongWildcard"] = probeJson(wildcard);
    doc["iallreduce8Ranks"] = probeJson(iallreduce);
    tibsim::json::Value obs = tibsim::json::Value::object();
    const auto obsEntry = [&](const Probe& probe) {
      tibsim::json::Value v = tibsim::json::Value::object();
      v["fiberNsPerRoundTrip"] = probe.nsPerRep();
      v["overheadPercent"] =
          obsOff.nsPerRep() > 0.0
              ? 100.0 * (probe.nsPerRep() / obsOff.nsPerRep() - 1.0)
              : 0.0;
      return v;
    };
    obs["allOff"] = obsEntry(obsOff);
    obs["linkTelemetry"] = obsEntry(obsLinks);
    obs["traceAggregate"] = obsEntry(obsAgg);
    obs["traceSampled"] = obsEntry(obsSampled);
    obs["traceFull"] = obsEntry(obsFull);
    doc["observabilityTax"] = obs;
    tibsim::json::Value ct = tibsim::json::Value::object();
    ct["experiments"] = static_cast<double>(campaign.experiments);
    ct["coldSeconds"] = campaign.coldSeconds;
    ct["warmSeconds"] = campaign.warmSeconds;
    ct["warmSpeedup"] = campaign.warmSeconds > 0.0
                            ? campaign.coldSeconds / campaign.warmSeconds
                            : 0.0;
    doc["campaignThroughput"] = ct;
    std::ofstream out(jsonPath);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", jsonPath.c_str());
      return 1;
    }
    out << doc.dump(2) << "\n";
    std::printf("\nwrote %s\n", jsonPath.c_str());
  }
  return 0;
}
