// Communicator-era proxy applications: the `taskfarm` master/worker
// throughput farm (wildcard-receive self-scheduling at up to 2,048 ranks)
// and `hydro_async`, the communication-avoiding HYDRO variant built on
// comm.split()/dup() and non-blocking collectives. Both exist to exercise
// the communicator core at campaign scale with deterministic artefacts.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "builtin_experiments.hpp"
#include "tibsim/apps/hydro.hpp"
#include "tibsim/apps/taskfarm.hpp"
#include "tibsim/cluster/cluster.hpp"
#include "tibsim/common/table.hpp"
#include "tibsim/core/experiment.hpp"
#include "tibsim/core/experiments.hpp"

namespace tibsim::core {

namespace {

// One row of sim-time critical-path attribution (WorldStats.criticalPath):
// where the chain that bounded the job's finish actually spent its time.
void addPathRow(TextTable& table, const std::string& label,
                const obs::CriticalPath& path) {
  table.addRow({label, fmt(path.computeSeconds, 3), fmt(path.sendSeconds, 3),
                fmt(path.recvSeconds, 3), fmt(path.linkSeconds, 3),
                fmt(path.waitSeconds, 3), std::to_string(path.edges),
                std::to_string(path.endRank)});
}

const std::vector<std::string> kPathColumns = {
    "job",    "compute s", "send s", "recv s",
    "link s", "wait s",    "hops",   "end rank"};

ResultSet runTaskFarm(ExperimentContext& ctx) {
  // 2 ranks/node on Tibidabo-style trees: 128, 512 and 2,048 ranks. The
  // 2,048-rank point is the headline — a single master feeding 2,047
  // workers through one wildcard receive, byte-identical across runs and
  // --jobs values.
  const std::vector<int> nodeCounts = {64, 256, 1024};

  apps::TaskFarm::Params probeParams;
  probeParams.tasks = 64;
  // Former stack probe, kept because perfbench's goldens pin its world.
  ctx.recordWorldStats(
      cluster::ClusterSimulation(cluster::ClusterSpec::tibidaboScaled(8))
          .runJob(8, apps::TaskFarm::rankBody(probeParams))
          .stats);

  struct Cell {
    int nodes = 0;
    int tasks = 0;
    std::vector<std::uint64_t> perWorker;
    cluster::JobResult result;
  };
  std::vector<Cell> cells;
  for (int nodes : nodeCounts) {
    Cell cell;
    cell.nodes = nodes;
    // Enough tasks that every worker cycles the queue a few times.
    cell.tasks = 4 * (2 * nodes - 1);
    cells.push_back(std::move(cell));
  }

  ctx.parallelFor(cells.size(), [&](std::size_t i) {
    Cell& cell = cells[i];
    apps::TaskFarm::Params params;
    params.tasks = cell.tasks;
    params.tasksPerWorkerOut = &cell.perWorker;
    cluster::ClusterSimulation sim(
        cluster::ClusterSpec::tibidaboScaled(cell.nodes));
    cell.result = sim.runJob(cell.nodes, apps::TaskFarm::rankBody(params));
    ctx.recordWorldStats(cell.result.stats);
  });

  ResultSet results;
  TextTable table({"nodes", "ranks", "tasks", "wallclock s", "tasks/s",
                   "min/worker", "max/worker"});
  for (const Cell& cell : cells) {
    std::uint64_t minTasks = 0;
    std::uint64_t maxTasks = 0;
    if (cell.perWorker.size() > 1) {
      minTasks = *std::min_element(cell.perWorker.begin() + 1,
                                   cell.perWorker.end());
      maxTasks = *std::max_element(cell.perWorker.begin() + 1,
                                   cell.perWorker.end());
    }
    table.addRow({std::to_string(cell.nodes),
                  std::to_string(cell.result.ranks),
                  std::to_string(cell.tasks),
                  fmt(cell.result.wallClockSeconds, 3),
                  fmt(cell.tasks / cell.result.wallClockSeconds, 0),
                  std::to_string(minTasks), std::to_string(maxTasks)});
  }
  results.addTable("task farm scaling", std::move(table));

  TextTable pathTable(kPathColumns);
  for (const Cell& cell : cells) {
    addPathRow(pathTable, std::to_string(cell.result.ranks) + " ranks",
               cell.result.stats.criticalPath);
  }
  results.addTable("critical path (sim time)", std::move(pathTable));

  const Cell& top = cells.back();
  std::uint64_t served = 0;
  for (std::uint64_t n : top.perWorker) served += n;
  results.addMetric("ranks at top scale", top.result.ranks, "ranks");
  results.addMetric("tasks served at top scale",
                    static_cast<double>(served), "tasks");
  results.addMetric("throughput at top scale",
                    top.tasks / top.result.wallClockSeconds, "tasks/s");
  results.addNote(
      "master self-scheduling via Communicator::recvDoubles(kAnySource): "
      "whichever worker drains first gets the next task, matched in the "
      "engine's canonical delivery order — the distribution table is "
      "byte-identical for every --sim-shards value and both backends");
  return results;
}

ResultSet runHydroAsync(ExperimentContext& ctx) {
  // Strong-scale the same HYDRO problem through the synchronous skeleton
  // (blocking neighborExchange + flat allreduceMax) and the
  // communicator-era schedule (dup()ed halo comm with isend/irecv overlap,
  // two-level CFL reduction over split() row groups). Same FLOPs, same
  // halo bytes — the delta is pure schedule.
  const std::vector<int> nodeCounts = {64, 128, 256};
  apps::HydroBenchmark::Params params;
  params.steps = 5;

  // Former stack probe, kept because perfbench's goldens pin its world.
  ctx.recordWorldStats(
      cluster::ClusterSimulation(cluster::ClusterSpec::tibidaboScaled(8))
          .runJob(8, apps::HydroBenchmark::asyncRankBody(params))
          .stats);

  struct Cell {
    bool async = false;
    int nodes = 0;
    cluster::JobResult result;
  };
  std::vector<Cell> cells;
  for (int nodes : nodeCounts) cells.push_back({false, nodes, {}});
  for (int nodes : nodeCounts) cells.push_back({true, nodes, {}});

  ctx.parallelFor(cells.size(), [&](std::size_t i) {
    Cell& cell = cells[i];
    cluster::ClusterSimulation sim(
        cluster::ClusterSpec::tibidaboScaled(cell.nodes));
    cell.result = sim.runJob(
        cell.nodes, cell.async ? apps::HydroBenchmark::asyncRankBody(params)
                               : apps::HydroBenchmark::rankBody(params));
    ctx.recordWorldStats(cell.result.stats);
  });

  ResultSet results;
  TextTable table({"schedule", "nodes", "ranks", "rows/rank", "wallclock s",
                   "speedup"});
  double firstSpeedup = 0.0;
  double topSpeedup = 0.0;
  for (std::size_t i = 0; i < nodeCounts.size(); ++i) {
    const Cell& sync = cells[i];
    const Cell& async = cells[nodeCounts.size() + i];
    const double speedup =
        async.result.wallClockSeconds > 0.0
            ? sync.result.wallClockSeconds / async.result.wallClockSeconds
            : 0.0;
    const std::string rowsPerRank = std::to_string(
        params.ny / static_cast<std::size_t>(sync.result.ranks));
    table.addRow({"sync", std::to_string(sync.nodes),
                  std::to_string(sync.result.ranks), rowsPerRank,
                  fmt(sync.result.wallClockSeconds, 3), "1.0"});
    table.addRow({"async", std::to_string(async.nodes),
                  std::to_string(async.result.ranks), rowsPerRank,
                  fmt(async.result.wallClockSeconds, 3), fmt(speedup, 2)});
    if (i == 0) firstSpeedup = speedup;
    topSpeedup = speedup;
  }
  results.addTable("sync vs async HYDRO", std::move(table));

  // Critical-path attribution per schedule and scale: this is the table
  // that explains the sync/async crossover — the async schedule removes
  // wait time from the path while compute dominates, and replaces it with
  // protocol CPU + deeper reduction hops that stop amortising at the
  // strong-scaling limit.
  TextTable pathTable(kPathColumns);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& cell = cells[i];
    addPathRow(pathTable,
               std::string(cell.async ? "async " : "sync ") +
                   std::to_string(cell.nodes) + " nodes",
               cell.result.stats.criticalPath);
  }
  results.addTable("critical path (sim time)", std::move(pathTable));
  const obs::CriticalPath& syncTop =
      cells[nodeCounts.size() - 1].result.stats.criticalPath;
  const obs::CriticalPath& asyncTop = cells.back().result.stats.criticalPath;
  if (syncTop.lengthSeconds() > 0.0) {
    results.addMetric("sync wait fraction at top scale",
                      100.0 * syncTop.waitSeconds / syncTop.lengthSeconds(),
                      "%");
  }
  if (asyncTop.lengthSeconds() > 0.0) {
    results.addMetric("async wait fraction at top scale",
                      100.0 * asyncTop.waitSeconds / asyncTop.lengthSeconds(),
                      "%");
  }
  results.addMetric("async speedup at first scale", firstSpeedup, "x");
  results.addMetric("async speedup at top scale", topSpeedup, "x");
  results.addNote(
      "async schedule: halo isend/irecv on a dup()ed communicator overlap "
      "the interior update; the per-step CFL reduction is two-level — "
      "row-group reduce over split(rank/groupSize) communicators, a "
      "non-blocking iallreduce across group leaders, then a group "
      "broadcast");
  results.addNote(
      "overlap wins while per-rank compute dominates; at the strong-scaling "
      "limit the boundary fraction grows, the extra small-message overhead "
      "stops amortising, and the two-level reduction is latency-deeper than "
      "flat recursive doubling — the same interconnect wall the paper's "
      "Section 4 identifies for Tibidabo");
  return results;
}

}  // namespace

void registerProxyExperiments(ExperimentRegistry& registry) {
  registry.add(std::make_unique<LambdaExperiment>(
      "taskfarm", "Section 5",
      "master/worker task farm via wildcard receives (up to 2,048 ranks)",
      runTaskFarm));
  registry.add(std::make_unique<LambdaExperiment>(
      "hydro_async", "Section 4",
      "HYDRO with overlapped halos and a two-level CFL reduction",
      runHydroAsync));
}

}  // namespace tibsim::core
