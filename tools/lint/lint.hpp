#pragma once
// tibsim-lint — repo-specific determinism & sim-safety static analysis.
//
// The campaign's headline guarantees (byte-identical reruns across --jobs
// values, platform tables faithful to the paper's Table 1) are
// end-to-end properties that CI reruns catch late and point nowhere near
// the offending line. This
// linter enforces the source-level invariants that make those guarantees
// hold, token/line-based with no libclang dependency, so it builds as part
// of the normal CMake tree and runs in milliseconds over the whole repo.
//
// Rules are table-driven (see rules() / sourceRules() in lint.cpp) and every
// finding can be suppressed with an explicit, auditable annotation:
//
//   code();            // tibsim-lint: allow(wall-clock)       same line
//   // tibsim-lint: allow(wall-clock)                          next line
//   code();
//   // tibsim-lint: allowfile(wall-clock)                      whole file
//
// Multiple rule ids separate with commas: allow(wall-clock, random-source).
// Matching runs on comment- and string-stripped text, so rule patterns in
// string literals (including this linter's own sources) never self-trigger.

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace tibsim::lint {

/// One diagnostic. `line` is 1-based; `file` is the path as given (relative
/// to the tree root when produced by lintTree).
struct Finding {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;
  std::string suggestion;  ///< printed by --fix-suggestions
};

/// Rule metadata for --list-rules and the docs. The checker implementations
/// live in the table in lint.cpp next to this metadata.
struct RuleInfo {
  std::string id;
  std::string summary;
  std::string rationale;
};

/// Options shared by lintSource/lintTree.
struct Options {
  /// When non-empty, only these rule ids run.
  std::vector<std::string> onlyRules;
  /// Worker threads for the tree walk (0 = hardware concurrency). Findings
  /// are slot-merged per file then sorted, so output is identical for
  /// every value.
  std::size_t jobs = 0;
};

/// The value of --jobs: one whole decimal token from 0 to
/// TaskPool::kMaxThreads. Returns nothing for anything else ("-1", "2abc",
/// an empty value, one above the ceiling).
std::optional<std::size_t> parseJobs(std::string_view text);

/// The value of --rules: comma-separated ids, each one that rules() lists,
/// returned in the order given. Throws std::invalid_argument naming the
/// first id it does not list (an empty one included), so a misspelt id
/// cannot quietly select no rule.
std::vector<std::string> parseRules(std::string_view text);

/// Every implemented rule, in canonical (report) order. At least eight.
std::vector<RuleInfo> rules();

/// Lint one translation unit from memory. `path` drives the path-scoped
/// rules (header hygiene for *.hpp, sim-path rules for src/{sim,mpi,apps,
/// net} and their include/ mirrors), so tests can lint fixture content under
/// any virtual path.
std::vector<Finding> lintSource(const std::string& path,
                                const std::string& content,
                                const Options& options = {});

/// Cross-file rule: every ExperimentRegistry registration in root/src/core
/// must be mentioned in root/EXPERIMENTS.md by its exact name, backticked
/// (`fig01`).
std::vector<Finding> lintRegistryDocs(const std::string& root,
                                      const Options& options = {});

/// Walk root/{src,include,bench,tests,tools,examples}, lint every
/// .cpp/.hpp/.h (tests/lint_fixtures is excluded — it holds deliberate
/// violations), then run the cross-file registry-docs rule. Findings are
/// sorted by file then line, so output is deterministic.
std::vector<Finding> lintTree(const std::string& root,
                              const Options& options = {});

/// Render findings in "file:line: [rule] message" form, one per line, with
/// an indented "suggestion:" line each when fixSuggestions is set.
std::string formatFindings(const std::vector<Finding>& findings,
                           bool fixSuggestions);

/// Render findings as a SARIF 2.1.0 document (one run, the full rule table
/// under tool.driver.rules, one result per finding) for code-scanning
/// upload. Deterministic: same findings, same bytes.
std::string formatSarif(const std::vector<Finding>& findings);

}  // namespace tibsim::lint
