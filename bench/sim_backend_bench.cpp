// Microbenchmark: host cost per simulated context switch on the fiber
// engine. Probes:
//
//  * raw engine: one process delay()ing in a tight loop — each iteration is
//    one scheduler->process switch, one process->scheduler yield and one
//    event dispatch, i.e. the engine's floor;
//  * deep engine: 64 to 8,192 processes delay()ing at staggered periods, so
//    the queue holds one wake-up per process and each dispatch lands on a
//    process, context and stack that went cold while it slept — the cost
//    of a deep queue that the one-process probe cannot see;
//  * simMPI ping-pong: the Section 4.1 two-rank ping-pong through the full
//    protocol stack — what a rank-level context switch costs in situ. On
//    one node (the shared-memory path) it runs size-only (pure engine +
//    protocol overhead), with the paper's 64-byte payload (inline
//    small-message storage), and with a 4 KiB payload (pool-backed buffer,
//    recycled by every recv); on two nodes it runs size-only over TCP/IP
//    at 64 B (an eager network send) and over Open-MX at 64 KiB (the
//    rendezvous handshake); plus a wildcard ping-pong, an 8-rank
//    iallreduce, the observability tax of each recording layer, and cold
//    vs warm campaign throughput through the result cache.
//
// Every probe runs several times, interleaved with the others so that a
// burst of host load lands on all of them, and is reported as the min,
// median and max of its runs.
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

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
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

/// Min, median and max of one probe's runs.
struct Spread {
  double min = 0.0;
  double median = 0.0;
  double max = 0.0;
};

Spread spreadOf(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n == 0) return {};
  const double median = n % 2 == 1
                            ? values[n / 2]
                            : 0.5 * (values[n / 2 - 1] + values[n / 2]);
  return {values.front(), median, values.back()};
}

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

/// `processes` processes delaying at staggered periods (perfbench's
/// sim.probe.deep_ns, at any depth), so the queue holds one wake-up per
/// process. Timed inside the bodies, from the last process's start to the
/// first one's finish, so spawn and teardown stay out; `switches` counts
/// the events dispatched in that window, one switch each.
Probe deepEngineProbe(int processes, int iterations) {
  tibsim::sim::Simulation sim;
  int started = 0;
  bool closed = false;
  std::chrono::steady_clock::time_point t0, t1;
  std::uint64_t e0 = 0, e1 = 0;
  for (int i = 0; i < processes; ++i) {
    const double period = 1e-6 * (1.0 + static_cast<double>(i % 97) / 97.0);
    sim.spawn("deep", [&, period](tibsim::sim::Process& p) {
      if (++started == processes) {
        t0 = std::chrono::steady_clock::now();
        e0 = p.simulation().processedEvents();
      }
      for (int k = 0; k < iterations; ++k) p.delay(period);
      if (!closed) {
        closed = true;
        t1 = std::chrono::steady_clock::now();
        e1 = p.simulation().processedEvents();
      }
    });
  }
  sim.run();
  return {std::chrono::duration<double>(t1 - t0).count(), e1 - e0};
}

/// Two ranks of `config`'s world exchanging `bytes`-sized messages; with
/// `realPayload`, that many bytes of data ride along each message.
Probe pingPongProbe(int repetitions, std::size_t bytes, bool realPayload,
                    const tibsim::mpi::WorldConfig& config) {
  tibsim::mpi::MpiWorld world(config, 2);
  std::vector<std::byte> payload(realPayload ? bytes : 0, std::byte{0x5a});
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

/// Two ranks on one node (the shared-memory path). payloadBytes controls
/// how much real data rides along: 0 = size-only 64 B messages, <= 64
/// exercises the inline small-message path, larger sizes the payload pool.
Probe pingPongProbe(int repetitions, std::size_t payloadBytes) {
  return pingPongProbe(repetitions, payloadBytes > 0 ? payloadBytes : 64,
                       payloadBytes > 0,
                       tibsim::mpi::WorldConfig::tibidaboNode());
}

/// Two ranks on two nodes, size-only, so every message crosses the fabric
/// through `protocol`'s stack: 64 B over TCP/IP is an eager network send,
/// 64 KiB over Open-MX the RTS/CTS/data rendezvous handshake.
Probe networkPingPongProbe(int repetitions, tibsim::net::Protocol protocol,
                           std::size_t bytes) {
  tibsim::mpi::WorldConfig config = tibsim::mpi::WorldConfig::tibidaboNode();
  config.ranksPerNode = 1;
  config.protocol = protocol;
  return pingPongProbe(repetitions, bytes, false, config);
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

tibsim::json::Value spreadJson(const Spread& spread) {
  tibsim::json::Value v = tibsim::json::Value::object();
  v["min"] = spread.min;
  v["median"] = spread.median;
  v["max"] = spread.max;
  return v;
}

/// One probe's interleaved runs. The switch count is deterministic, so the
/// first run's stands for all of them.
struct Runs {
  std::vector<Probe> probes;

  std::uint64_t switches() const {
    return probes.empty() ? 0 : probes.front().switches;
  }
  Spread nsPerSwitch() const {
    std::vector<double> v;
    for (const Probe& p : probes) v.push_back(p.nsPerSwitch());
    return spreadOf(v);
  }
  Spread nsPerRep() const {
    std::vector<double> v;
    for (const Probe& p : probes) v.push_back(p.nsPerRep());
    return spreadOf(v);
  }
};

void printSpread(const char* name, const char* unit, const Spread& spread) {
  std::printf("%-24s %10.1f %-14s (min %.1f, max %.1f)\n", name,
              spread.median, unit, spread.min, spread.max);
}

tibsim::json::Value runsJson(const Runs& runs) {
  tibsim::json::Value v = tibsim::json::Value::object();
  v["switches"] = static_cast<double>(runs.switches());
  v["fiberNsPerSwitch"] = spreadJson(runs.nsPerSwitch());
  if (runs.probes.front().reps > 0)
    v["fiberNsPerRoundTrip"] = spreadJson(runs.nsPerRep());
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

  constexpr int kRuns = 5;  // interleaved runs of every probe
  constexpr int kRawIterations = 200000;
  constexpr int kPingPongReps = 50000;
  constexpr int kIallreduceReps = 10000;
  // Deep-queue depths, and the events each run dispatches per process
  // count: 100 delays per process, or enough to reach ~400k events.
  constexpr std::array<int, 4> kDeepProcesses = {64, 512, 4096, 8192};
  const auto deepIterations = [](int processes) {
    return std::max(100, 409600 / processes);
  };

  // Warm up once so first-touch page faults don't skew the first probe.
  rawEngineProbe(1000);

  struct Named {
    std::string name;
    std::string key;  ///< JSON key (under "deepEngine" for deep probes)
    std::function<Probe()> run;
    Runs runs;
  };
  std::vector<Named> probes = {
      {"raw engine", "rawEngine",
       [&] { return rawEngineProbe(kRawIterations); }, {}},
      {"ping-pong size-only", "pingPongSizeOnly",
       [&] { return pingPongProbe(kPingPongReps, 0); }, {}},
      {"ping-pong 64 B inline", "pingPong64BInline",
       [&] { return pingPongProbe(kPingPongReps, 64); }, {}},
      {"ping-pong 4 KiB pooled", "pingPong4KiBPooled",
       [&] { return pingPongProbe(kPingPongReps, 4096); }, {}},
      {"ping-pong wildcard", "pingPongWildcard",
       [&] { return wildcardPingPongProbe(kPingPongReps); }, {}},
      {"ping-pong network 64 B", "pingPongNetwork",
       [&] {
         return networkPingPongProbe(kPingPongReps,
                                     tibsim::net::Protocol::TcpIp, 64);
       },
       {}},
      {"ping-pong rendezvous 64 KiB", "pingPongRendezvous",
       [&] {
         return networkPingPongProbe(
             kPingPongReps, tibsim::net::Protocol::OpenMx, 64 * 1024);
       },
       {}},
      {"iallreduce 8 ranks", "iallreduce8Ranks",
       [&] { return iallreduceProbe(kIallreduceReps); }, {}},
  };
  const std::size_t firstDeep = probes.size();
  for (const int processes : kDeepProcesses) {
    probes.push_back({"deep engine " + std::to_string(processes),
                      std::to_string(processes),
                      [processes, &deepIterations] {
                        return deepEngineProbe(processes,
                                               deepIterations(processes));
                      },
                      {}});
  }
  for (int run = 0; run < kRuns; ++run)
    for (Named& probe : probes) probe.runs.probes.push_back(probe.run());

  std::printf("sim engine microbenchmark (median of %d interleaved runs)\n\n",
              kRuns);
  for (std::size_t i = 0; i < probes.size(); ++i) {
    const Named& probe = probes[i];
    if (i < firstDeep) {
      printSpread(probe.name.c_str(), "ns/switch", probe.runs.nsPerSwitch());
      if (probe.runs.probes.front().reps > 0)
        printSpread("", "ns/round-trip", probe.runs.nsPerRep());
    } else {
      printSpread(probe.name.c_str(), "ns/event", probe.runs.nsPerSwitch());
    }
  }

  // Observability tax: the same size-only ping-pong with the recording
  // layers dialled up one at a time. Baseline is everything off; campaign
  // defaults are link telemetry on, tracing off. The deltas are within
  // single-run scheduler jitter, so each configuration runs kObsRuns times
  // and the tax compares medians.
  using tibsim::obs::TraceMode;
  constexpr int kObsRuns = 7;
  constexpr int kObsReps = 100000;
  constexpr TraceMode kAggregate = TraceMode::Aggregate;
  constexpr TraceMode kSampled = TraceMode::Sampled;
  constexpr TraceMode kFull = TraceMode::Full;
  struct ObsConfig {
    const char* name;
    const char* key;
    const TraceMode* mode = nullptr;
    bool links = false;
  };
  // Round-robin over the configurations: interleaving means a host-load
  // burst hits every configuration equally instead of biasing whichever
  // block it lands on.
  const std::array<ObsConfig, 5> obsConfigs = {
      {{"all off", "allOff", nullptr, false},
       {"link telemetry", "linkTelemetry", nullptr, true},
       {"+trace aggregate", "traceAggregate", &kAggregate, true},
       {"+trace sampled", "traceSampled", &kSampled, true},
       {"+trace full", "traceFull", &kFull, true}}};
  std::array<Runs, 5> obsRuns{};
  for (int run = 0; run < kObsRuns; ++run) {
    for (std::size_t i = 0; i < obsConfigs.size(); ++i) {
      obsRuns[i].probes.push_back(observedPingPongProbe(
          kObsReps, obsConfigs[i].mode, obsConfigs[i].links));
    }
  }
  const double obsOffNs = obsRuns[0].nsPerRep().median;
  const auto overheadPercent = [&](const Runs& runs) {
    return obsOffNs > 0.0 ? 100.0 * (runs.nsPerRep().median / obsOffNs - 1.0)
                          : 0.0;
  };
  std::printf("\nobservability tax (size-only ping-pong, %d reps, median of "
              "%d interleaved runs, vs all recording off)\n",
              kObsReps, kObsRuns);
  for (std::size_t i = 0; i < obsConfigs.size(); ++i) {
    const Spread spread = obsRuns[i].nsPerRep();
    std::printf("%-24s %10.1f ns/round-trip  %+6.1f%%  (min %.1f, max %.1f)\n",
                obsConfigs[i].name, spread.median,
                overheadPercent(obsRuns[i]), spread.min, spread.max);
  }

  std::vector<double> cold, warm;
  std::size_t campaignExperiments = 0;
  for (int run = 0; run < kRuns; ++run) {
    const CampaignProbe campaign = campaignThroughputProbe();
    campaignExperiments = campaign.experiments;
    cold.push_back(campaign.coldSeconds);
    warm.push_back(campaign.warmSeconds);
  }
  const Spread coldSpread = spreadOf(cold);
  const Spread warmSpread = spreadOf(warm);
  const double warmSpeedup =
      warmSpread.median > 0.0 ? coldSpread.median / warmSpread.median : 0.0;
  std::printf("\ncampaign throughput (%zu experiments, result cache, median "
              "of %d runs)\n%-24s %10.4f s   (min %.4f, max %.4f)\n"
              "%-24s %10.4f s   (min %.4f, max %.4f)   %.1fx vs cold\n",
              campaignExperiments, kRuns, "cold", coldSpread.median,
              coldSpread.min, coldSpread.max, "warm", warmSpread.median,
              warmSpread.min, warmSpread.max, warmSpeedup);

  if (!jsonPath.empty()) {
    tibsim::json::Value doc = tibsim::json::Value::object();
    doc["schema"] = "tibsim-bench-sim-v2";
    doc["runs"] = static_cast<double>(kRuns);
    tibsim::json::Value deep = tibsim::json::Value::object();
    for (std::size_t i = 0; i < probes.size(); ++i) {
      const Named& probe = probes[i];
      if (i < firstDeep) {
        doc[probe.key] = runsJson(probe.runs);
        continue;
      }
      tibsim::json::Value v = tibsim::json::Value::object();
      v["events"] = static_cast<double>(probe.runs.switches());
      v["nsPerEvent"] = spreadJson(probe.runs.nsPerSwitch());
      deep[probe.key] = v;
    }
    doc["deepEngine"] = deep;
    tibsim::json::Value obs = tibsim::json::Value::object();
    obs["runs"] = static_cast<double>(kObsRuns);
    for (std::size_t i = 0; i < obsConfigs.size(); ++i) {
      tibsim::json::Value v = tibsim::json::Value::object();
      v["fiberNsPerRoundTrip"] = spreadJson(obsRuns[i].nsPerRep());
      v["overheadPercent"] = overheadPercent(obsRuns[i]);
      obs[obsConfigs[i].key] = v;
    }
    doc["observabilityTax"] = obs;
    tibsim::json::Value ct = tibsim::json::Value::object();
    ct["experiments"] = static_cast<double>(campaignExperiments);
    ct["coldSeconds"] = spreadJson(coldSpread);
    ct["warmSeconds"] = spreadJson(warmSpread);
    ct["warmSpeedup"] = warmSpeedup;
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
