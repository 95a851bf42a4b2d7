// Tests for tools/lint (tibsim-lint): every rule must fire on its bad
// fixture and stay silent on the good one, the suppression grammar must
// work in all three scopes (same line, standalone-next-line, file), and —
// the acceptance bar for the CI job — the repo's own tree must lint clean.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "lint.hpp"
#include "tibsim/common/thread_pool.hpp"

namespace tibsim::lint {
namespace {

namespace fs = std::filesystem;

std::string readFixture(const std::string& relative) {
  const fs::path path = fs::path(TIBSIM_LINT_FIXTURE_DIR) / relative;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing fixture: " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void writeFile(const fs::path& path, const std::string& content) {
  std::ofstream out(path);
  out << content;
}

Options only(const std::string& rule) {
  Options options;
  options.onlyRules = {rule};
  return options;
}

// ---------------------------------------------------------------------------
// Rule table
// ---------------------------------------------------------------------------

TEST(LintRules, TableHasTenDocumentedRules) {
  const std::vector<RuleInfo> all = rules();
  ASSERT_GE(all.size(), 12u);
  bool hasRegistryDocs = false;
  for (const RuleInfo& rule : all) {
    EXPECT_FALSE(rule.id.empty());
    EXPECT_FALSE(rule.summary.empty()) << rule.id;
    EXPECT_FALSE(rule.rationale.empty()) << rule.id;
    if (rule.id == "registry-docs") hasRegistryDocs = true;
  }
  EXPECT_TRUE(hasRegistryDocs);
}

// ---------------------------------------------------------------------------
// Per-rule fixtures: bad fires, good is silent
// ---------------------------------------------------------------------------

struct FixtureCase {
  const char* rule;
  const char* badFixture;
  const char* badLintPath;  ///< path the content is linted under
  int badLine;              ///< first expected finding line
  const char* goodFixture;
  const char* goodLintPath;
};

// The lint path matters: fiber-block/thread-local are scoped to sim paths,
// and the good fiber_block fixture demonstrates exactly that scoping.
const FixtureCase kFixtureCases[] = {
    {"wall-clock", "bad/wall_clock.cpp", "src/core/fixture.cpp", 5,
     "good/wall_clock.cpp", "src/core/fixture.cpp"},
    {"random-source", "bad/random_source.cpp", "src/core/fixture.cpp", 4,
     "good/random_source.cpp", "src/core/fixture.cpp"},
    {"unordered-iter", "bad/unordered_iter.cpp", "src/core/fixture.cpp", 7,
     "good/unordered_iter.cpp", "src/core/fixture.cpp"},
    {"pointer-key", "bad/pointer_key.cpp", "src/core/fixture.cpp", 5,
     "good/pointer_key.cpp", "src/core/fixture.cpp"},
    {"fiber-block", "bad/fiber_block.cpp", "src/sim/fixture.cpp", 6,
     "good/fiber_block.cpp", "src/core/fixture.cpp"},
    {"thread-local", "bad/thread_local.cpp", "src/mpi/fixture.cpp", 2,
     "good/thread_local.cpp", "src/sim/fixture.cpp"},
    {"pragma-once", "bad/missing_pragma_once.hpp",
     "include/tibsim/common/fixture.hpp", 1, "good/pragma_once.hpp",
     "include/tibsim/common/fixture.hpp"},
    {"using-namespace", "bad/using_namespace.hpp",
     "include/tibsim/common/fixture.hpp", 5, "good/using_namespace.hpp",
     "include/tibsim/common/fixture.hpp"},
    {"mpi-contract", "bad/mpi_contract.cpp", "src/apps/fixture.cpp", 11,
     "good/mpi_contract.cpp", "src/apps/fixture.cpp"},
    {"sim-static", "bad/sim_static.cpp", "src/net/fixture.cpp", 3,
     "good/sim_static.cpp", "src/net/fixture.cpp"},
    // Same rule through an obs-layer path: trace sinks and link telemetry
    // mutate from inside the event loop, so src/obs/ counts as sim code.
    {"sim-static", "bad/obs_static.cpp", "src/obs/fixture.cpp", 5,
     "good/obs_static.cpp", "src/obs/fixture.cpp"},
    {"wildcard-recv", "bad/wildcard_recv.cpp", "src/apps/fixture.cpp", 6,
     "good/wildcard_recv.cpp", "src/apps/fixture.cpp"},
    // The good fixture also covers the uniform-condition, membership-
    // scoped-communicator and waived-asymmetry escapes.
    {"collective-match", "bad/collective_match.cpp", "src/apps/fixture.cpp",
     11, "good/collective_match.cpp", "src/apps/fixture.cpp"},
};

TEST(LintFixtures, EveryRuleFiresOnItsBadFixture) {
  for (const FixtureCase& c : kFixtureCases) {
    SCOPED_TRACE(c.rule);
    const std::vector<Finding> findings =
        lintSource(c.badLintPath, readFixture(c.badFixture), only(c.rule));
    ASSERT_FALSE(findings.empty()) << "rule did not fire: " << c.rule;
    EXPECT_EQ(findings.front().rule, c.rule);
    EXPECT_EQ(findings.front().line, c.badLine);
    EXPECT_EQ(findings.front().file, c.badLintPath);
    EXPECT_FALSE(findings.front().message.empty());
    EXPECT_FALSE(findings.front().suggestion.empty());
  }
}

TEST(LintFixtures, EveryRuleIsSilentOnItsGoodFixture) {
  for (const FixtureCase& c : kFixtureCases) {
    SCOPED_TRACE(c.rule);
    const std::vector<Finding> findings =
        lintSource(c.goodLintPath, readFixture(c.goodFixture), only(c.rule));
    EXPECT_TRUE(findings.empty())
        << formatFindings(findings, /*fixSuggestions=*/false);
  }
}

TEST(LintFixtures, PatternsInsideStringsAndCommentsNeverFire) {
  const std::vector<Finding> findings = lintSource(
      "src/core/fixture.cpp", readFixture("good/strings_and_comments.cpp"));
  EXPECT_TRUE(findings.empty())
      << formatFindings(findings, /*fixSuggestions=*/false);
}

TEST(LintFixtures, MpiContractAlsoFlagsReinterpretCastToDouble) {
  const std::vector<Finding> findings =
      lintSource("src/apps/fixture.cpp", readFixture("bad/mpi_contract.cpp"),
                 only("mpi-contract"));
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[1].line, 15);
}

TEST(LintCollectiveMatch, WitnessListsBothArmSequences) {
  const std::vector<Finding> findings =
      lintSource("src/apps/fixture.cpp",
                 readFixture("bad/collective_match.cpp"),
                 only("collective-match"));
  ASSERT_EQ(findings.size(), 2u);
  // Divergent arms: the witness names both sequences in order.
  EXPECT_NE(findings[0].message.find("[bcast -> barrier]"),
            std::string::npos)
      << findings[0].message;
  EXPECT_NE(findings[0].message.find("[barrier]"), std::string::npos);
  // Early return: the falling-through arm reaches the later collective.
  EXPECT_EQ(findings[1].line, 21);
  EXPECT_NE(findings[1].message.find("[no collective]"), std::string::npos)
      << findings[1].message;
  EXPECT_NE(findings[1].message.find("allreduce"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Suppression grammar
// ---------------------------------------------------------------------------

TEST(LintSuppression, SameLineAllowSilencesOnlyTheNamedRule) {
  // rand() with a waiver for a *different* rule must still fire.
  const std::string wrongId =
      "int f() { return rand(); }  // tibsim-lint: allow(wall-clock)\n";
  EXPECT_EQ(lintSource("src/core/x.cpp", wrongId).size(), 1u);
  const std::string rightId =
      "int f() { return rand(); }  // tibsim-lint: allow(random-source)\n";
  EXPECT_TRUE(lintSource("src/core/x.cpp", rightId).empty());
}

TEST(LintSuppression, StandaloneAnnotationCoversTheNextLineOnly) {
  const std::string content =
      "// tibsim-lint: allow(random-source)\n"
      "int a() { return rand(); }\n"
      "int b() { return rand(); }\n";
  const std::vector<Finding> findings =
      lintSource("src/core/x.cpp", content);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings.front().line, 3);
}

TEST(LintSuppression, AllowFileCoversTheWholeFile) {
  const std::string content =
      "// tibsim-lint: allowfile(random-source)\n"
      "int a() { return rand(); }\n"
      "int b() { return rand(); }\n";
  EXPECT_TRUE(lintSource("src/core/x.cpp", content).empty());
}

TEST(LintSuppression, OneAnnotationCanListSeveralRules) {
  const std::string content =
      "#include <chrono>\n"
      "long f() { return rand() + std::chrono::steady_clock::now()"
      ".time_since_epoch().count(); }"
      "  // tibsim-lint: allow(random-source, wall-clock)\n";
  EXPECT_TRUE(lintSource("src/core/x.cpp", content).empty());
}

// ---------------------------------------------------------------------------
// Rule selection and output format
// ---------------------------------------------------------------------------

TEST(LintOptions, OnlyRulesFiltersFindings) {
  const std::string content = readFixture("bad/wall_clock.cpp");
  EXPECT_FALSE(
      lintSource("src/core/x.cpp", content, only("wall-clock")).empty());
  EXPECT_TRUE(
      lintSource("src/core/x.cpp", content, only("random-source")).empty());
}

TEST(LintFormat, FindingsRenderAsFileLineRuleMessage) {
  // The seeded-violation demonstration: a fresh violation produces a
  // nonzero finding list, which is what turns the CI job red.
  const std::string seeded =
      "#include <chrono>\n"
      "double now() {\n"
      "  return std::chrono::duration<double>(\n"
      "      std::chrono::system_clock::now().time_since_epoch()).count();\n"
      "}\n";
  const std::vector<Finding> findings =
      lintSource("src/core/seeded.cpp", seeded);
  ASSERT_FALSE(findings.empty());
  const std::string plain = formatFindings(findings, /*fixSuggestions=*/false);
  EXPECT_NE(plain.find("src/core/seeded.cpp:4: [wall-clock]"),
            std::string::npos)
      << plain;
  EXPECT_EQ(plain.find("suggestion:"), std::string::npos);
  const std::string withFix = formatFindings(findings, /*fixSuggestions=*/true);
  EXPECT_NE(withFix.find("suggestion:"), std::string::npos);
}

TEST(LintFormat, SarifDocumentCarriesRulesAndResults) {
  const std::vector<Finding> findings =
      lintSource("src/apps/fixture.cpp",
                 readFixture("bad/collective_match.cpp"),
                 only("collective-match"));
  ASSERT_FALSE(findings.empty());
  const std::string sarif = formatSarif(findings);
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"name\": \"tibsim-lint\""), std::string::npos);
  // The full rule table ships even when only one rule fired.
  EXPECT_NE(sarif.find("\"id\": \"wall-clock\""), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\": \"collective-match\""),
            std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\": 11"), std::string::npos);
  EXPECT_NE(sarif.find("\"uri\": \"src/apps/fixture.cpp\""),
            std::string::npos);
  // Deterministic: a second render is byte-identical.
  EXPECT_EQ(sarif, formatSarif(findings));
}

// ---------------------------------------------------------------------------
// registry-docs (tree-level rule)
// ---------------------------------------------------------------------------

class LintRegistryDocsTest : public testing::Test {
 protected:
  void SetUp() override {
    // Unique per test: ctest runs each TEST_F as its own process, so a
    // shared directory name races under parallel execution.
    const auto* info = testing::UnitTest::GetInstance()->current_test_info();
    root_ = fs::path(testing::TempDir()) /
            (std::string("tibsim_lint_docs_tree_") + info->name());
    fs::remove_all(root_);
    fs::create_directories(root_ / "src" / "core");
    writeFile(root_ / "src" / "core" / "experiments.cpp",
              "void registerAll(ExperimentRegistry& registry) {\n"
              "  registry.add(std::make_unique<LambdaExperiment>(\n"
              "      \"figx\", \"Figure X\", \"a fixture experiment\", "
              "runFigX));\n"
              "}\n");
  }
  void TearDown() override { fs::remove_all(root_); }

  fs::path root_;
};

TEST_F(LintRegistryDocsTest, UndocumentedExperimentIsFlagged) {
  writeFile(root_ / "EXPERIMENTS.md", "# EXPERIMENTS\n\nnothing here\n");
  const std::vector<Finding> findings = lintRegistryDocs(root_.string());
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings.front().rule, "registry-docs");
  EXPECT_NE(findings.front().message.find("figx"), std::string::npos);
}

TEST_F(LintRegistryDocsTest, BacktickedSectionSilencesTheFinding) {
  writeFile(root_ / "EXPERIMENTS.md",
            "# EXPERIMENTS\n\n## Figure X (`figx`)\n\ncovered.\n");
  EXPECT_TRUE(lintRegistryDocs(root_.string()).empty());
}

// ---------------------------------------------------------------------------
// The repo's own tree must be clean (the CI acceptance bar)
// ---------------------------------------------------------------------------

TEST(LintTree, RepositoryLintsClean) {
  const std::vector<Finding> findings = lintTree(TIBSIM_REPO_ROOT);
  EXPECT_TRUE(findings.empty())
      << "repo tree has lint findings:\n"
      << formatFindings(findings, /*fixSuggestions=*/true);
}

TEST(LintTree, FindingsAreIdenticalAcrossJobCounts) {
  // The tree walk lints files on a TaskPool; per-file slot merging plus
  // the final sort must make the result a pure function of the tree.
  Options serial;
  serial.jobs = 1;
  Options parallel;
  parallel.jobs = 4;
  const std::vector<Finding> a = lintTree(TIBSIM_REPO_ROOT, serial);
  const std::vector<Finding> b = lintTree(TIBSIM_REPO_ROOT, parallel);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].file, b[i].file);
    EXPECT_EQ(a[i].line, b[i].line);
    EXPECT_EQ(a[i].rule, b[i].rule);
    EXPECT_EQ(a[i].message, b[i].message);
  }
}

TEST(LintCli, JobsIsOneWholeNumberUpToTheCeiling) {
  EXPECT_EQ(parseJobs("0"), std::optional<std::size_t>(0));
  EXPECT_EQ(parseJobs("4"), std::optional<std::size_t>(4));
  EXPECT_EQ(parseJobs(std::to_string(TaskPool::kMaxThreads)),
            std::optional<std::size_t>(TaskPool::kMaxThreads));
  // std::stoul read "2abc" as 2 and "-1" as SIZE_MAX.
  EXPECT_FALSE(parseJobs("-1").has_value());
  EXPECT_FALSE(parseJobs("2abc").has_value());
  EXPECT_FALSE(parseJobs("").has_value());
  EXPECT_FALSE(
      parseJobs(std::to_string(TaskPool::kMaxThreads + 1)).has_value());
}

TEST(LintCli, RulesAreKnownIdsInTheOrderGiven) {
  EXPECT_EQ(parseRules("wall-clock"), std::vector<std::string>{"wall-clock"});
  EXPECT_EQ(parseRules("registry-docs,random-source"),
            (std::vector<std::string>{"registry-docs", "random-source"}));
  // A misspelt id used to select no rule: "0 findings" on a bad file.
  for (const char* bad : {"wall-clok", "", ",", "wall-clock,",
                          "wall-clock,,random-source"})
    EXPECT_THROW(parseRules(bad), std::invalid_argument) << bad;
  try {
    parseRules("wall-clock,wall-clok");
    ADD_FAILURE() << "accepted wall-clok";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("'wall-clok'"),
              std::string::npos)
        << error.what();
  }
}

}  // namespace
}  // namespace tibsim::lint
