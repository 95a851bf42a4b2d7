#include "tibsim/core/experiment.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <mutex>
#include <tuple>
#include <utility>

#include "tibsim/common/assert.hpp"
#include "builtin_experiments.hpp"

namespace tibsim::core {

thread_local const ExperimentContext* ExperimentContext::cellOwner_ = nullptr;
thread_local ExperimentContext::Records* ExperimentContext::cellRecords_ =
    nullptr;

void ExperimentContext::parallelFor(
    std::size_t n, const std::function<void(std::size_t)>& fn) const {
  cells_ += n;
  // Each cell records into a buffer of its own, and the buffers are
  // spliced into the caller's in index order once every cell has run. The
  // fold below therefore sees records in the order a --jobs 1 run makes
  // them, whichever pool thread ran which cell.
  std::vector<Records> cellRecords(n);
  struct CellScope {
    const ExperimentContext* owner;
    Records* records;
    CellScope(const ExperimentContext* ctx, Records* mine)
        : owner(std::exchange(cellOwner_, ctx)),
          records(std::exchange(cellRecords_, mine)) {}
    CellScope(const CellScope&) = delete;
    CellScope& operator=(const CellScope&) = delete;
    ~CellScope() {
      cellOwner_ = owner;
      cellRecords_ = records;
    }
  };
  const auto cell = [&](std::size_t i) {
    const CellScope scope(this, &cellRecords[i]);
    fn(i);
  };
  if (pool_ != nullptr && pool_->threadCount() > 1) {
    pool_->parallelFor(n, cell);
  } else {
    for (std::size_t i = 0; i < n; ++i) cell(i);
  }
  std::lock_guard lock(engineMutex_);
  Records& into = recordsHere();
  for (Records& r : cellRecords) {
    into.engine.insert(into.engine.end(), r.engine.begin(), r.engine.end());
    into.counters.insert(into.counters.end(),
                         std::make_move_iterator(r.counters.begin()),
                         std::make_move_iterator(r.counters.end()));
  }
}

ExperimentContext::Records& ExperimentContext::recordsHere() const {
  return cellOwner_ == this ? *cellRecords_ : records_;
}

bool ExperimentContext::exportArtefact(const std::string& filename,
                                       const std::string& content) const {
  if (traceExportDir_.empty()) return false;
  TIB_REQUIRE_MSG(!filename.empty() &&
                      filename.find('/') == std::string::npos &&
                      filename.find("..") == std::string::npos,
                  "exportArtefact filename must be a plain file name");
  std::lock_guard lock(exportMutex_);
  const std::filesystem::path dir(traceExportDir_);
  std::filesystem::create_directories(dir);
  std::ofstream out(dir / filename, std::ios::binary);
  TIB_REQUIRE_MSG(out.good(),
                  "cannot open trace export file: " + filename);
  out << content;
  TIB_REQUIRE_MSG(out.good(), "failed writing trace export: " + filename);
  return true;
}

void ExperimentContext::recordEngineStats(const sim::EngineStats& stats) const {
  std::lock_guard lock(engineMutex_);
  recordsHere().engine.push_back(stats);
}

sim::EngineStats ExperimentContext::engineStats() const {
  std::vector<sim::EngineStats> records;
  {
    std::lock_guard lock(engineMutex_);
    records = records_.engine;
  }
  // Double addition is not associative, so fold in a canonical order to
  // keep simSeconds (serialised into campaign JSON) byte-deterministic.
  std::sort(records.begin(), records.end(),
            [](const sim::EngineStats& a, const sim::EngineStats& b) {
              return std::tie(a.eventsDispatched, a.contextSwitches,
                              a.processesSpawned, a.simSeconds,
                              a.queueHighWater) <
                     std::tie(b.eventsDispatched, b.contextSwitches,
                              b.processesSpawned, b.simSeconds,
                              b.queueHighWater);
            });
  sim::EngineStats total;
  for (const sim::EngineStats& r : records) total.accumulate(r);
  return total;
}

void ExperimentContext::recordRunCounters(
    const obs::RunCounters& counters) const {
  std::lock_guard lock(engineMutex_);
  recordsHere().counters.push_back(counters);
}

obs::RunCounters ExperimentContext::runCounters() const {
  std::vector<obs::RunCounters> records;
  {
    std::lock_guard lock(engineMutex_);
    records = records_.counters;
  }
  // Same canonical-order fold as engineStats(): payloadBytes/wireBytes are
  // double sums and land in the serialised campaign artefacts. The key
  // leaves ties (one app under several protocols records equal traffic but
  // different critical-path and link timings); parallelFor's splice keeps
  // those in serial order, so the sums do not depend on --jobs either.
  std::sort(records.begin(), records.end(),
            [](const obs::RunCounters& a, const obs::RunCounters& b) {
              return std::tie(a.messages, a.spansRecorded, a.payloadBytes,
                              a.wireBytes, a.spansRetained) <
                     std::tie(b.messages, b.spansRecorded, b.payloadBytes,
                              b.wireBytes, b.spansRetained);
            });
  obs::RunCounters total;
  for (const obs::RunCounters& r : records) total.accumulate(r);
  return total;
}

ExperimentRegistry& ExperimentRegistry::global() {
  static ExperimentRegistry registry;
  static std::once_flag once;
  std::call_once(once, [] { registerBuiltinExperiments(registry); });
  return registry;
}

void ExperimentRegistry::add(std::unique_ptr<Experiment> experiment) {
  TIB_REQUIRE(experiment != nullptr);
  const std::string name = experiment->name();
  TIB_REQUIRE_MSG(!name.empty(), "experiment name must not be empty");
  const auto [it, inserted] =
      experiments_.emplace(name, std::move(experiment));
  TIB_REQUIRE_MSG(inserted, "duplicate experiment name: " + name);
}

std::vector<std::string> ExperimentRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(experiments_.size());
  for (const auto& [name, experiment] : experiments_) out.push_back(name);
  return out;  // std::map iterates sorted
}

const Experiment* ExperimentRegistry::find(const std::string& name) const {
  const auto it = experiments_.find(name);
  return it == experiments_.end() ? nullptr : it->second.get();
}

std::vector<const Experiment*> ExperimentRegistry::match(
    const std::vector<std::string>& patterns) const {
  std::vector<const Experiment*> out;
  for (const auto& [name, experiment] : experiments_) {
    if (patterns.empty()) {
      out.push_back(experiment.get());
      continue;
    }
    for (const std::string& pattern : patterns) {
      if (globMatch(pattern, name)) {
        out.push_back(experiment.get());
        break;
      }
    }
  }
  return out;
}

bool ExperimentRegistry::globMatch(const std::string& pattern,
                                   const std::string& text) {
  // Iterative glob with single-star backtracking.
  std::size_t p = 0, t = 0;
  std::size_t starP = std::string::npos, starT = 0;
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '?' || pattern[p] == text[t])) {
      ++p;
      ++t;
    } else if (p < pattern.size() && pattern[p] == '*') {
      starP = p++;
      starT = t;
    } else if (starP != std::string::npos) {
      p = starP + 1;
      t = ++starT;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '*') ++p;
  return p == pattern.size();
}

std::uint64_t experimentSeed(std::uint64_t campaignSeed,
                             const std::string& name) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;  // FNV-1a 64
  for (const char c : name) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return campaignSeed ^ hash;
}

}  // namespace tibsim::core
