// tibsim_lint — CLI driver for the repo's determinism & sim-safety linter.
// Exit codes: 0 clean, 1 findings, 2 usage/IO error (CI treats 1 and 2 as
// red). See lint.hpp for the rule model and the suppression grammar.

#include <chrono>  // tibsim-lint: allow(wall-clock)
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "lint.hpp"
#include "tibsim/common/thread_pool.hpp"

namespace {

void printUsage(std::ostream& out) {
  out << "tibsim_lint — determinism & sim-safety static analysis for the "
         "tibsim tree\n\n"
         "usage:\n"
         "  tibsim_lint [--root DIR] [--rules id,id,...] [--jobs N]\n"
         "              [--sarif OUT] [--verbose] [--fix-suggestions] "
         "[file...]\n"
         "  tibsim_lint --list-rules\n\n"
         "With no files, walks DIR/{src,include,bench,tests,tools,examples} "
         "(DIR defaults to the\n"
         "current directory) and runs the cross-file registry-docs check "
         "against DIR/EXPERIMENTS.md.\n"
         "With explicit files, lints just those (registry-docs is skipped).\n"
         "Suppressions: // tibsim-lint: allow(rule) on or above the line, "
         "// tibsim-lint: allowfile(rule)\n"
         "anywhere in a file. --fix-suggestions prints a remediation hint "
         "under every finding.\n"
         "--jobs N lints files on N worker threads (0 = hardware "
         "concurrency, at most "
      << tibsim::TaskPool::kMaxThreads
      << "; findings\n"
         "are identical for every value). --sarif OUT additionally writes a "
         "SARIF 2.1.0 document\n"
         "for code-scanning upload. --verbose reports wall-clock and "
         "thread count to stderr.\n";
}

int listRules() {
  for (const tibsim::lint::RuleInfo& rule : tibsim::lint::rules()) {
    std::cout << rule.id << "\n    " << rule.summary << "\n    why: "
              << rule.rationale << "\n";
  }
  return 0;
}

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) throw std::runtime_error("cannot read " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

}  // namespace

int main(int argc, char** argv) try {
  std::string root = ".";
  std::string sarifPath;
  bool fixSuggestions = false;
  bool verbose = false;
  tibsim::lint::Options options;
  std::vector<std::string> files;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      printUsage(std::cout);
      return 0;
    }
    if (arg == "--list-rules") return listRules();
    if (arg == "--fix-suggestions") {
      fixSuggestions = true;
    } else if (arg == "--verbose") {
      verbose = true;
    } else if (arg == "--jobs" || arg == "--sarif" || arg == "--root" ||
               arg == "--rules") {
      // An empty value would mean "no SARIF", "every rule" or "the working
      // directory", none of which the caller asked for.
      if (++i >= argc || *argv[i] == '\0') {
        std::cerr << "tibsim_lint: " << arg << " needs a value\n";
        return 2;
      }
      const std::string value = argv[i];
      if (arg == "--jobs") {
        const std::optional<std::size_t> jobs =
            tibsim::lint::parseJobs(value);
        if (!jobs) {
          std::cerr << "tibsim_lint: --jobs needs a number from 0 to "
                    << tibsim::TaskPool::kMaxThreads << ", got '" << value
                    << "'\n";
          return 2;
        }
        options.jobs = *jobs;
      } else if (arg == "--sarif") {
        sarifPath = value;
      } else if (arg == "--root") {
        root = value;
      } else {
        const std::vector<std::string> ids = tibsim::lint::parseRules(value);
        options.onlyRules.insert(options.onlyRules.end(), ids.begin(),
                                 ids.end());
      }
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "tibsim_lint: unknown flag " << arg << "\n";
      printUsage(std::cerr);
      return 2;
    } else {
      files.push_back(arg);
    }
  }

  // Host-side instrumentation only; findings and exit code never depend
  // on it.
  const auto started =
      std::chrono::steady_clock::now();  // tibsim-lint: allow(wall-clock)

  std::vector<tibsim::lint::Finding> findings;
  std::size_t scanned = 0;
  if (files.empty()) {
    findings = tibsim::lint::lintTree(root, options);
    namespace fs = std::filesystem;
    for (const char* dir :
         {"src", "include", "bench", "tests", "tools", "examples"}) {
      const fs::path base = fs::path(root) / dir;
      if (!fs::exists(base)) continue;
      for (const auto& entry : fs::recursive_directory_iterator(base)) {
        const std::string ext = entry.path().extension().string();
        if (entry.is_regular_file() &&
            (ext == ".cpp" || ext == ".hpp" || ext == ".h"))
          ++scanned;
      }
    }
  } else {
    for (const std::string& file : files) {
      auto local =
          tibsim::lint::lintSource(file, readFile(file), options);
      findings.insert(findings.end(), local.begin(), local.end());
      ++scanned;
    }
  }

  if (!sarifPath.empty()) {
    std::ofstream sarif(sarifPath, std::ios::binary);
    if (!sarif.good())
      throw std::runtime_error("cannot write " + sarifPath);
    sarif << tibsim::lint::formatSarif(findings);
  }

  std::cout << tibsim::lint::formatFindings(findings, fixSuggestions);
  std::cout << "tibsim_lint: " << findings.size() << " finding"
            << (findings.size() == 1 ? "" : "s") << " across " << scanned
            << " file" << (scanned == 1 ? "" : "s") << " scanned\n";
  if (verbose) {
    const auto elapsed =
        std::chrono::steady_clock::now() -  // tibsim-lint: allow(wall-clock)
        started;
    std::cerr << "tibsim_lint: "
              << std::chrono::duration<double>(elapsed).count() << " s, "
              << (options.jobs == 0 ? "hardware-concurrency"
                                    : std::to_string(options.jobs))
              << " jobs\n";
  }
  return findings.empty() ? 0 : 1;
} catch (const std::exception& error) {
  std::cerr << "tibsim_lint: " << error.what() << "\n";
  return 2;
}
