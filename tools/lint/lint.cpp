#include "lint.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <stdexcept>

#include "tibsim/common/thread_pool.hpp"

namespace tibsim::lint {

namespace {

// ---------------------------------------------------------------------------
// Source preprocessing: strip comments and literals, parse annotations
// ---------------------------------------------------------------------------

// Replace comments, string literals and character literals with spaces while
// preserving line structure, so rule patterns match code only. Handles //,
// /* */, "..." (with escapes), '...' and raw strings R"delim(...)delim".
std::string stripCommentsAndLiterals(const std::string& text) {
  std::string out = text;
  enum class State { Code, Line, Block, Str, Chr, Raw };
  State state = State::Code;
  std::string rawDelim;  // ")delim\"" terminator for raw strings
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    const char next = i + 1 < text.size() ? text[i + 1] : '\0';
    switch (state) {
      case State::Code:
        if (c == '/' && next == '/') {
          state = State::Line;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::Block;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c == 'R' && next == '"' &&
                   (i == 0 || (!std::isalnum(static_cast<unsigned char>(
                                   text[i - 1])) &&
                               text[i - 1] != '_'))) {
          // R"delim( ... )delim"
          std::size_t open = text.find('(', i + 2);
          if (open == std::string::npos) break;  // malformed; give up
          rawDelim = ")" + text.substr(i + 2, open - i - 2) + "\"";
          for (std::size_t k = i; k <= open; ++k)
            if (text[k] != '\n') out[k] = ' ';
          i = open;
          state = State::Raw;
        } else if (c == '"') {
          state = State::Str;
          out[i] = ' ';
        } else if (c == '\'' &&
                   (i == 0 ||
                    (!std::isalnum(static_cast<unsigned char>(text[i - 1])) &&
                     text[i - 1] != '_'))) {
          // Skip digit separators like 1'000'000 via the preceding-char test.
          state = State::Chr;
          out[i] = ' ';
        }
        break;
      case State::Line:
        if (c == '\n')
          state = State::Code;
        else
          out[i] = ' ';
        break;
      case State::Block:
        if (c == '*' && next == '/') {
          out[i] = out[i + 1] = ' ';
          ++i;
          state = State::Code;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::Str:
        if (c == '\\' && next != '\0') {
          out[i] = ' ';
          if (next != '\n') out[i + 1] = ' ';
          ++i;
        } else if (c == '"') {
          out[i] = ' ';
          state = State::Code;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::Chr:
        if (c == '\\' && next != '\0') {
          out[i] = ' ';
          if (next != '\n') out[i + 1] = ' ';
          ++i;
        } else if (c == '\'') {
          out[i] = ' ';
          state = State::Code;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::Raw:
        if (text.compare(i, rawDelim.size(), rawDelim) == 0) {
          for (std::size_t k = 0; k < rawDelim.size(); ++k)
            if (text[i + k] != '\n') out[i + k] = ' ';
          i += rawDelim.size() - 1;
          state = State::Code;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
    }
  }
  return out;
}

std::vector<std::string> splitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::string::size_type pos = 0;
  while (pos <= text.size()) {
    const auto nl = text.find('\n', pos);
    if (nl == std::string::npos) {
      lines.push_back(text.substr(pos));
      break;
    }
    lines.push_back(text.substr(pos, nl - pos));
    pos = nl + 1;
  }
  return lines;
}

bool isBlank(const std::string& s) {
  return std::all_of(s.begin(), s.end(), [](unsigned char c) {
    return std::isspace(c) != 0;
  });
}

/// Everything a source-level rule checker needs about one file.
struct FileContext {
  std::string path;  ///< normalised with forward slashes
  bool isHeader = false;
  bool isSimPath = false;  ///< code that runs inside fiber process bodies
  std::vector<std::string> raw;   ///< original lines
  std::vector<std::string> code;  ///< comment/string-stripped lines
  std::vector<std::set<std::string>> lineAllows;  ///< per-line suppressions
  std::set<std::string> fileAllows;               ///< allowfile suppressions
};

// Parse "tibsim-lint: allow(a, b) allowfile(c)" directives out of one raw
// line into ctx. A standalone annotation (no code left after stripping)
// also applies to the following line.
void parseAnnotations(FileContext& ctx, std::size_t lineIdx) {
  const std::string& line = ctx.raw[lineIdx];
  const auto marker = line.find("tibsim-lint:");
  if (marker == std::string::npos) return;
  static const std::regex kDirective("(allowfile|allow)\\s*\\(([^)]*)\\)");
  const std::string tail = line.substr(marker);
  const bool standalone = isBlank(ctx.code[lineIdx]);
  for (std::sregex_iterator it(tail.begin(), tail.end(), kDirective), end;
       it != end; ++it) {
    const bool fileScope = (*it)[1].str() == "allowfile";
    std::stringstream ids((*it)[2].str());
    std::string id;
    while (std::getline(ids, id, ',')) {
      id.erase(std::remove_if(id.begin(), id.end(),
                              [](unsigned char c) {
                                return std::isspace(c) != 0;
                              }),
               id.end());
      if (id.empty()) continue;
      if (fileScope) {
        ctx.fileAllows.insert(id);
      } else {
        ctx.lineAllows[lineIdx].insert(id);
        if (standalone && lineIdx + 1 < ctx.lineAllows.size())
          ctx.lineAllows[lineIdx + 1].insert(id);
      }
    }
  }
}

std::string normalisePath(std::string path) {
  std::replace(path.begin(), path.end(), '\\', '/');
  while (path.rfind("./", 0) == 0) path.erase(0, 2);
  return path;
}

bool pathContains(const std::string& path, const char* needle) {
  return path.find(needle) != std::string::npos;
}

FileContext makeContext(const std::string& path, const std::string& content) {
  FileContext ctx;
  ctx.path = normalisePath(path);
  ctx.isHeader = ctx.path.size() >= 4 &&
                 (ctx.path.rfind(".hpp") == ctx.path.size() - 4 ||
                  ctx.path.rfind(".h") == ctx.path.size() - 2);
  // Sim paths: everything that executes inside fiber-run rank/process
  // bodies — the engine, simMPI, the network models they drive, the MPI
  // applications, and the observability layer they record into (trace
  // sinks, link telemetry, critical-path state all mutate from inside the
  // event loop). cluster/ and core/ orchestrate from the host thread;
  // that includes core/result_cache (host filesystem I/O — getpid temp
  // suffixes, directory scans — whose determinism obligation is only that
  // replayed artefact bytes match a fresh run) and the campaign driver's
  // worker-process spawning. The everywhere rules (wall-clock,
  // random-source, unordered-iter, pointer-key) still apply to them.
  for (const char* dir :
       {"src/sim/", "src/mpi/", "src/apps/", "src/net/", "src/obs/",
        "include/tibsim/sim/", "include/tibsim/mpi/", "include/tibsim/apps/",
        "include/tibsim/net/", "include/tibsim/obs/"}) {
    if (pathContains(ctx.path, dir)) {
      ctx.isSimPath = true;
      break;
    }
  }
  ctx.raw = splitLines(content);
  ctx.code = splitLines(stripCommentsAndLiterals(content));
  ctx.lineAllows.resize(ctx.raw.size());
  for (std::size_t i = 0; i < ctx.raw.size(); ++i) parseAnnotations(ctx, i);
  return ctx;
}

// ---------------------------------------------------------------------------
// Rule table
// ---------------------------------------------------------------------------

struct Rule {
  const char* id;
  const char* summary;
  const char* rationale;
};

void emit(const FileContext& ctx, std::size_t lineIdx, const Rule& rule,
          std::string message, std::string suggestion,
          std::vector<Finding>& out) {
  if (ctx.fileAllows.count(rule.id) != 0) return;
  if (ctx.lineAllows[lineIdx].count(rule.id) != 0) return;
  out.push_back(Finding{ctx.path, static_cast<int>(lineIdx) + 1, rule.id,
                        std::move(message), std::move(suggestion)});
}

void checkWallClock(const FileContext& ctx, const Rule& rule,
                    std::vector<Finding>& out) {
  // Argless time() would also match innocent `double time() const`
  // accessors, so the libc form is matched only with its argument.
  static const std::regex kClock(
      "steady_clock|system_clock|high_resolution_clock|gettimeofday|"
      "clock_gettime|\\btime\\s*\\(\\s*(?:0|nullptr|NULL)\\s*\\)|"
      "std::clock\\b");
  for (std::size_t i = 0; i < ctx.code.size(); ++i) {
    if (!std::regex_search(ctx.code[i], kClock)) continue;
    emit(ctx, i, rule,
         "wall-clock source in simulation code breaks byte-identical "
         "reruns; simulated time must come from Simulation::now()",
         "use simulated time, or mark a host-side measurement that is "
         "never serialised with // tibsim-lint: allow(wall-clock)",
         out);
  }
}

void checkRandomSource(const FileContext& ctx, const Rule& rule,
                       std::vector<Finding>& out) {
  static const std::regex kRandom(
      "random_device|\\brand\\s*\\(\\s*\\)|\\bsrand\\s*\\(|\\bdrand48\\b|"
      "\\blrand48\\b|\\bmrand48\\b");
  for (std::size_t i = 0; i < ctx.code.size(); ++i) {
    if (!std::regex_search(ctx.code[i], kRandom)) continue;
    emit(ctx, i, rule,
         "nondeterministic random source; all randomness must flow from "
         "the campaign seed",
         "use common/rng.hpp seeded from ExperimentContext::rng()", out);
  }
}

void checkUnorderedIteration(const FileContext& ctx, const Rule& rule,
                             std::vector<Finding>& out) {
  // Pass 1: names declared (variables or returning functions) with an
  // unordered container type in this file. Heuristic: the last identifier
  // followed by ; = { or ( on a line that mentions the type.
  static const std::regex kId("([A-Za-z_]\\w*)\\s*[;={(]");
  std::set<std::string> names;
  for (const std::string& line : ctx.code) {
    if (line.find("unordered_map") == std::string::npos &&
        line.find("unordered_set") == std::string::npos)
      continue;
    std::string last;
    for (std::sregex_iterator it(line.begin(), line.end(), kId), end;
         it != end; ++it)
      last = (*it)[1].str();
    if (!last.empty()) names.insert(last);
  }
  if (names.empty()) return;
  // Pass 2: iteration over any of those names.
  static const std::regex kRangeFor("for\\s*\\(.*:");
  for (std::size_t i = 0; i < ctx.code.size(); ++i) {
    const std::string& line = ctx.code[i];
    for (const std::string& name : names) {
      const std::regex kName("\\b" + name + "\\b");
      const std::regex kBeginEnd("\\b" + name +
                                 "\\s*\\.\\s*c?r?(?:begin|end)\\s*\\(");
      const bool iterates =
          (std::regex_search(line, kRangeFor) &&
           std::regex_search(line, kName)) ||
          std::regex_search(line, kBeginEnd);
      if (!iterates) continue;
      emit(ctx, i, rule,
           "iteration over unordered container '" + name +
               "' has hash-order traversal; any result emission or trace "
               "export fed from it is nondeterministic",
           "iterate a sorted key vector, or switch '" + name +
               "' to std::map / a sorted std::vector",
           out);
      break;  // one finding per line is enough
    }
  }
}

void checkPointerKeyedContainer(const FileContext& ctx, const Rule& rule,
                                std::vector<Finding>& out) {
  static const std::regex kPtrKey(
      "\\b(?:std::)?(?:unordered_)?(?:multi)?(?:map|set)\\s*<\\s*"
      "[^,<>]*?\\*");
  for (std::size_t i = 0; i < ctx.code.size(); ++i) {
    if (!std::regex_search(ctx.code[i], kPtrKey)) continue;
    emit(ctx, i, rule,
         "pointer-keyed ordered container: traversal follows allocation "
         "addresses, which differ run to run, so any serialised output "
         "keyed on it is nondeterministic",
         "key on a stable id (rank, name, sequence number) instead of the "
         "object's address",
         out);
  }
}

void checkFiberBlocking(const FileContext& ctx, const Rule& rule,
                        std::vector<Finding>& out) {
  if (!ctx.isSimPath) return;
  static const std::regex kBlocking(
      "this_thread::|\\busleep\\s*\\(|\\bnanosleep\\s*\\(|"
      "\\bsleep\\s*\\(|\\bsystem\\s*\\(");
  for (std::size_t i = 0; i < ctx.code.size(); ++i) {
    if (!std::regex_search(ctx.code[i], kBlocking)) continue;
    emit(ctx, i, rule,
         "blocking host call inside fiber-run simulation code: a fiber "
         "that blocks the host thread stalls every other rank in the "
         "world",
         "advance simulated time with Process::delay()/suspend() instead "
         "of blocking the host",
         out);
  }
}

void checkThreadLocal(const FileContext& ctx, const Rule& rule,
                      std::vector<Finding>& out) {
  if (!ctx.isSimPath) return;
  static const std::regex kTls("\\bthread_local\\b");
  for (std::size_t i = 0; i < ctx.code.size(); ++i) {
    if (!std::regex_search(ctx.code[i], kTls)) continue;
    emit(ctx, i, rule,
         "thread_local inside fiber-run simulation code: all fibers of a "
         "world share one host thread, so the storage is silently shared "
         "across ranks, and a --jobs pool thread runs one world after "
         "another, so it also carries over from one world into the next",
         "keep per-rank state in the rank body or in MpiContext", out);
  }
}

void checkSimStatic(const FileContext& ctx, const Rule& rule,
                    std::vector<Finding>& out) {
  if (!ctx.isSimPath) return;
  // Function-local mutable statics are shared by every world the --jobs
  // pool runs concurrently. Heuristic: a `static` followed by a declarator
  // that reaches `=` or `;` without an intervening paren (so function
  // declarations and brace-init-with-call escape; const and constexpr
  // statics are immutable and fine).
  static const std::regex kMutableStatic(
      "\\bstatic\\s+(?!const\\b|constexpr\\b)[^=;()]*[=;]");
  for (std::size_t i = 0; i < ctx.code.size(); ++i) {
    if (!std::regex_search(ctx.code[i], kMutableStatic)) continue;
    emit(ctx, i, rule,
         "mutable static in simulation code: --jobs pool threads run "
         "worlds concurrently, so function-local static state is shared "
         "across worlds and races (or orders nondeterministically) on a "
         "multi-core host",
         "move the state into Simulation/MpiWorld members (per world), "
         "or annotate a mutex-guarded process-wide singleton with "
         "tibsim-lint: allow(sim-static)",
         out);
  }
}

void checkPragmaOnce(const FileContext& ctx, const Rule& rule,
                     std::vector<Finding>& out) {
  if (!ctx.isHeader) return;
  const std::size_t limit = std::min<std::size_t>(ctx.raw.size(), 5);
  for (std::size_t i = 0; i < limit; ++i) {
    if (ctx.raw[i].find("#pragma once") != std::string::npos) return;
  }
  emit(ctx, 0, rule,
       "header does not start with #pragma once (repo convention: first "
       "line)",
       "add #pragma once as the first line", out);
}

void checkUsingNamespaceHeader(const FileContext& ctx, const Rule& rule,
                               std::vector<Finding>& out) {
  if (!ctx.isHeader) return;
  static const std::regex kUsing("^\\s*using\\s+namespace\\b");
  for (std::size_t i = 0; i < ctx.code.size(); ++i) {
    if (!std::regex_search(ctx.code[i], kUsing)) continue;
    emit(ctx, i, rule,
         "using namespace in a header leaks into every includer",
         "qualify names or move the using-directive into a .cpp", out);
  }
}

void checkMpiContract(const FileContext& ctx, const Rule& rule,
                      std::vector<Finding>& out) {
  static const std::regex kRawDoubleSend("\\bi?send\\s*\\(");
  static const std::regex kSizeofDouble("sizeof\\s*\\(\\s*double\\s*\\)");
  static const std::regex kCastDouble(
      "reinterpret_cast\\s*<\\s*(?:const\\s+)?double");
  for (std::size_t i = 0; i < ctx.code.size(); ++i) {
    const std::string& line = ctx.code[i];
    if (std::regex_search(line, kRawDoubleSend) &&
        std::regex_search(line, kSizeofDouble)) {
      emit(ctx, i, rule,
           "raw byte-count send of doubles: recvDoubles' multiple-of-"
           "sizeof(double) contract is only checked at runtime on this "
           "path",
           "use sendDoubles(span<const double>) so the size contract "
           "holds by construction",
           out);
      continue;
    }
    if (std::regex_search(line, kCastDouble)) {
      emit(ctx, i, rule,
           "reinterpret_cast of a payload to double*: bypasses the "
           "recvDoubles size/alignment contract",
           "receive with recvDoubles(), which validates the payload size "
           "and memcpy-safes the element access",
           out);
    }
  }
}

void checkWildcardRecv(const FileContext& ctx, const Rule& rule,
                       std::vector<Finding>& out) {
  if (!ctx.isSimPath) return;
  static const std::regex kWildcard("\\bkAny(?:Source|Tag)\\b");
  for (std::size_t i = 0; i < ctx.code.size(); ++i) {
    if (!std::regex_search(ctx.code[i], kWildcard)) continue;
    emit(ctx, i, rule,
         "wildcard receive (kAnySource/kAnyTag) in simulation code: the "
         "match is deterministic only because it follows canonical mailbox "
         "delivery order, and casual wildcards make message races "
         "invisible in review",
         "prefer an explicit (source, tag) pair; a deliberate wildcard "
         "(self-scheduling masters, drain loops) is waived with "
         "// tibsim-lint: allow(wildcard-recv)",
         out);
  }
}

// ---------------------------------------------------------------------------
// Rule 12 (collective-match): lightweight statement/CFG model
// ---------------------------------------------------------------------------
//
// A brace-matched statement model over the comment/string-stripped text:
// just enough control-flow structure (if/else arms, loop bodies,
// return/continue/break edges) to compare the collective sequences
// reachable from the two arms of a branch, PARCOACH-style, without a real
// C++ front-end. The model is deliberately syntactic — rank taint and
// communicator membership are word-level heuristics over assignment
// chunks — and every deliberate asymmetry (taskfarm master/worker split,
// membership-scoped sub-communicators the heuristic cannot see) is waived
// in source with the standard annotation grammar. The runtime verifier
// (mpi/collective_verify.hpp) is the ground truth this pass is
// cross-checked against: a site the lint flags without a waiver either
// mismatches under --verify-collectives or documents why it cannot.

bool isIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// True when the whole word `word` starts at code[pos].
bool wordAt(const std::string& code, std::size_t pos, const char* word) {
  const std::size_t n = std::strlen(word);
  if (code.compare(pos, n, word) != 0) return false;
  if (pos > 0 && isIdentChar(code[pos - 1])) return false;
  if (pos + n < code.size() && isIdentChar(code[pos + n])) return false;
  return true;
}

std::size_t skipSpace(const std::string& code, std::size_t pos) {
  while (pos < code.size() &&
         std::isspace(static_cast<unsigned char>(code[pos])) != 0)
    ++pos;
  return pos;
}

/// One past the bracket matching code[pos] (code[pos] is '(' or '{').
std::size_t matchBracket(const std::string& code, std::size_t pos) {
  const char open = code[pos];
  const char close = open == '(' ? ')' : '}';
  int depth = 0;
  for (; pos < code.size(); ++pos) {
    if (code[pos] == open) {
      ++depth;
    } else if (code[pos] == close && --depth == 0) {
      return pos + 1;
    }
  }
  return code.size();
}

/// One past the end of the statement starting at (or after) pos: a brace
/// block, an if/else chain, a loop with its body, or a plain `...;`
/// statement. Purely bracket-driven — declarations and expressions are
/// indistinguishable, which is fine for arm-extent recovery.
std::size_t parseStatement(const std::string& code, std::size_t pos) {
  pos = skipSpace(code, pos);
  if (pos >= code.size()) return pos;
  if (code[pos] == '{') return matchBracket(code, pos);
  if (wordAt(code, pos, "if")) {
    std::size_t p = skipSpace(code, pos + 2);
    if (wordAt(code, p, "constexpr")) p = skipSpace(code, p + 9);
    if (p < code.size() && code[p] == '(') p = matchBracket(code, p);
    p = parseStatement(code, p);  // then-arm
    const std::size_t q = skipSpace(code, p);
    if (wordAt(code, q, "else")) return parseStatement(code, q + 4);
    return p;
  }
  for (const char* kw : {"for", "while", "switch"}) {
    if (wordAt(code, pos, kw)) {
      std::size_t p = skipSpace(code, pos + std::strlen(kw));
      if (p < code.size() && code[p] == '(') p = matchBracket(code, p);
      return parseStatement(code, p);
    }
  }
  if (wordAt(code, pos, "do")) {
    std::size_t p = parseStatement(code, pos + 2);  // body
    const std::size_t semi = code.find(';', p);     // trailing while(...)
    return semi == std::string::npos ? code.size() : semi + 1;
  }
  // Plain statement: to the first ';' outside brackets. A '}' at depth 0
  // means we ran off the enclosing block (malformed tail) — stop there.
  int paren = 0;
  int brace = 0;
  for (; pos < code.size(); ++pos) {
    const char c = code[pos];
    if (c == '(') {
      ++paren;
    } else if (c == ')') {
      --paren;
    } else if (c == '{') {
      ++brace;
    } else if (c == '}') {
      if (brace == 0) return pos;
      --brace;
    } else if (c == ';' && paren == 0 && brace == 0) {
      return pos + 1;
    }
  }
  return pos;
}

/// One `if (...) ... [else ...]` site with arm extents.
struct BranchSite {
  std::size_t ifPos = 0;      ///< offset of the `if` keyword
  std::size_t condBegin = 0;  ///< inside the condition parens
  std::size_t condEnd = 0;
  std::size_t thenBegin = 0;
  std::size_t thenEnd = 0;
  bool hasElse = false;
  std::size_t elseBegin = 0;
  std::size_t elseEnd = 0;
  std::size_t stmtEnd = 0;  ///< one past the whole if/else statement
};

std::vector<BranchSite> collectBranches(const std::string& code) {
  std::vector<BranchSite> sites;
  for (std::size_t i = 0; i + 1 < code.size(); ++i) {
    if (code[i] != 'i' || !wordAt(code, i, "if")) continue;
    // Skip preprocessor conditionals (#if/#ifdef survive stripping).
    std::size_t lineStart = code.rfind('\n', i);
    lineStart = lineStart == std::string::npos ? 0 : lineStart + 1;
    if (code.find('#', lineStart) < i) continue;
    std::size_t p = skipSpace(code, i + 2);
    // `if constexpr` selects one arm at compile time, identically on
    // every rank — never a divergence site.
    if (wordAt(code, p, "constexpr")) continue;
    if (p >= code.size() || code[p] != '(') continue;
    BranchSite site;
    site.ifPos = i;
    site.condBegin = p + 1;
    const std::size_t condClose = matchBracket(code, p);
    site.condEnd = condClose - 1;
    site.thenBegin = condClose;
    site.thenEnd = parseStatement(code, condClose);
    const std::size_t q = skipSpace(code, site.thenEnd);
    if (wordAt(code, q, "else")) {
      site.hasElse = true;
      site.elseBegin = q + 4;
      site.elseEnd = parseStatement(code, site.elseBegin);
      site.stmtEnd = site.elseEnd;
    } else {
      site.stmtEnd = site.thenEnd;
    }
    sites.push_back(site);
  }
  return sites;
}

bool containsTaintedWord(const std::string& text,
                         const std::set<std::string>& tainted) {
  static const std::regex kIdent("[A-Za-z_]\\w*");
  for (std::sregex_iterator it(text.begin(), text.end(), kIdent), end;
       it != end; ++it) {
    if (tainted.count(it->str()) != 0) return true;
  }
  return false;
}

/// Names holding rank-derived values: seeded by the canonical rank
/// accessors and wildcard-recv results, then propagated through
/// assignments/initialisations to a fixpoint. Chunk granularity (split on
/// ; { }) keeps the regex work linear in file size.
std::set<std::string> rankTaintedNames(const std::string& code) {
  // rank_ covers the MpiContext member; kAnySource/kAnyTag taint the
  // result of a wildcard receive (its .src is rank-dependent data).
  static const std::regex kSeedRhs(
      "\\brank\\s*\\(|\\bworldRank\\s*\\(|\\bcommRankOf\\s*\\(|"
      "\\bkAnySource\\b|\\bkAnyTag\\b|\\brank_\\b");
  static const std::regex kAssign(
      "([A-Za-z_]\\w*)\\s*(?:[+\\-*/%&|^]|<<|>>)?=(?![=])");
  std::set<std::string> tainted = {"rank", "myRank", "worldRank", "commRank"};
  // Collect (lhs, rhs) pairs once; the fixpoint then re-scans only them.
  std::vector<std::pair<std::string, std::string>> assigns;
  std::size_t chunkStart = 0;
  for (std::size_t i = 0; i <= code.size(); ++i) {
    if (i < code.size() && code[i] != ';' && code[i] != '{' && code[i] != '}')
      continue;
    const std::string chunk = code.substr(chunkStart, i - chunkStart);
    chunkStart = i + 1;
    std::smatch m;
    if (!std::regex_search(chunk, m, kAssign)) continue;
    assigns.emplace_back(
        m[1].str(),
        chunk.substr(static_cast<std::size_t>(m.position(0)) + m.length(0)));
  }
  for (int pass = 0; pass < 8; ++pass) {
    bool changed = false;
    for (const auto& [lhs, rhs] : assigns) {
      if (tainted.count(lhs) != 0) continue;
      if (std::regex_search(rhs, kSeedRhs) ||
          containsTaintedWord(rhs, tainted)) {
        tainted.insert(lhs);
        changed = true;
      }
    }
    if (!changed) break;
  }
  return tainted;
}

bool isRankDerivedCondition(const std::string& cond,
                            const std::set<std::string>& tainted) {
  static const std::regex kCondSeed(
      "\\brank\\s*\\(|\\bworldRank\\s*\\(|\\bcommRankOf\\s*\\(|"
      "\\brank_\\b");
  return std::regex_search(cond, kCondSeed) ||
         containsTaintedWord(cond, tainted);
}

/// Communicators built with rank-dependent membership — split() colours
/// using kUndefinedColor or a conditional expression. Only the ranks that
/// joined hold a live handle, so collectives on them are legitimately
/// guarded by the membership condition.
std::set<std::string> membershipScopedComms(const std::string& code) {
  std::set<std::string> comms;
  for (std::size_t pos = code.find(".split"); pos != std::string::npos;
       pos = code.find(".split", pos + 1)) {
    std::size_t p = pos + 6;
    if (p < code.size() && isIdentChar(code[p])) continue;
    p = skipSpace(code, p);
    if (p >= code.size() || code[p] != '(') continue;
    const std::size_t close = matchBracket(code, p);
    const std::string colourArgs = code.substr(p + 1, close - p - 2);
    if (colourArgs.find("kUndefinedColor") == std::string::npos &&
        colourArgs.find('?') == std::string::npos)
      continue;
    // Walk back over `name = receiver.split(...)` to the assigned name
    // (declarations span lines; the stripped text keeps the newlines).
    std::size_t r = pos;
    while (r > 0 && isIdentChar(code[r - 1])) --r;  // the receiver
    std::size_t e = r;
    while (e > 0 && std::isspace(static_cast<unsigned char>(code[e - 1])) != 0)
      --e;
    if (e == 0 || code[e - 1] != '=') continue;
    --e;
    if (e > 0 && std::strchr("=<>!+-*/%&|^", code[e - 1]) != nullptr)
      continue;  // comparison/compound operator, not an assignment
    while (e > 0 && std::isspace(static_cast<unsigned char>(code[e - 1])) != 0)
      --e;
    const std::size_t nameEnd = e;
    while (e > 0 && isIdentChar(code[e - 1])) --e;
    if (e < nameEnd) comms.insert(code.substr(e, nameEnd - e));
  }
  return comms;
}

struct CollectiveCall {
  std::size_t offset = 0;
  std::string receiver;
  std::string method;
};

/// Every `<receiver>.<collective>(` site, in source order. The alternation
/// lists longer names before their prefixes so std::regex picks the full
/// method name.
std::vector<CollectiveCall> collectCollectiveCalls(const std::string& code) {
  static const std::regex kCall(
      "([A-Za-z_]\\w*)\\s*(?:\\.|->)\\s*(ibarrier|ibcast|iallreduce|"
      "barrier|bcastBytes|pipelinedBcastBytes|bcast|reduceSum|"
      "allreduceSum|allreduceMax|allreduce|reduce|allgatherBytes|"
      "allgather|gatherBytes|gather|alltoallBytes|split|dup)\\s*\\(");
  std::vector<CollectiveCall> calls;
  for (std::sregex_iterator it(code.begin(), code.end(), kCall), end;
       it != end; ++it) {
    calls.push_back(CollectiveCall{static_cast<std::size_t>(it->position(0)),
                                   (*it)[1].str(), (*it)[2].str()});
  }
  return calls;
}

bool exitsEarly(const std::string& code, std::size_t begin, std::size_t end) {
  for (const char* kw : {"return", "continue", "break"}) {
    for (std::size_t pos = code.find(kw, begin);
         pos != std::string::npos && pos < end;
         pos = code.find(kw, pos + 1)) {
      if (wordAt(code, pos, kw)) return true;
    }
  }
  return false;
}

/// Offset of the '}' closing the block containing pos.
std::size_t enclosingBlockEnd(const std::string& code, std::size_t pos) {
  int depth = 0;
  for (; pos < code.size(); ++pos) {
    const char c = code[pos];
    if (c == '{') {
      ++depth;
    } else if (c == '}') {
      if (depth == 0) return pos;
      --depth;
    }
  }
  return code.size();
}

std::string renderCollectiveSeq(const std::vector<std::string>& seq) {
  if (seq.empty()) return "no collective";
  std::string out;
  for (const std::string& s : seq) {
    if (!out.empty()) out += " -> ";
    out += s;
  }
  return out;
}

void checkCollectiveMatch(const FileContext& ctx, const Rule& rule,
                          std::vector<Finding>& out) {
  // Join the stripped lines back into one offset-addressed string; a
  // prefix table maps offsets back to line indices for emission.
  std::string code;
  std::vector<std::size_t> lineStarts;
  lineStarts.reserve(ctx.code.size());
  for (const std::string& line : ctx.code) {
    lineStarts.push_back(code.size());
    code += line;
    code += '\n';
  }
  const std::vector<CollectiveCall> calls = collectCollectiveCalls(code);
  if (calls.empty()) return;
  const std::set<std::string> tainted = rankTaintedNames(code);
  const std::set<std::string> scoped = membershipScopedComms(code);
  const auto lineOf = [&lineStarts](std::size_t offset) {
    const auto it = std::upper_bound(lineStarts.begin(), lineStarts.end(),
                                     offset);
    return static_cast<std::size_t>(it - lineStarts.begin()) - 1;
  };
  const auto callsIn = [&calls](std::size_t begin, std::size_t end) {
    std::vector<const CollectiveCall*> seq;
    for (const CollectiveCall& call : calls)
      if (call.offset >= begin && call.offset < end) seq.push_back(&call);
    return seq;
  };
  for (const BranchSite& site : collectBranches(code)) {
    const std::string cond =
        code.substr(site.condBegin, site.condEnd - site.condBegin);
    if (!isRankDerivedCondition(cond, tainted)) continue;
    std::vector<const CollectiveCall*> thenSeq =
        callsIn(site.thenBegin, site.thenEnd);
    std::vector<const CollectiveCall*> elseSeq =
        site.hasElse ? callsIn(site.elseBegin, site.elseEnd)
                     : std::vector<const CollectiveCall*>{};
    // When exactly one arm exits early (return/continue/break), the
    // falling-through arm continues into the rest of the enclosing block:
    // its reachable collective sequence extends past the branch. This is
    // what catches `if (rank(...)) return;` skipping a later barrier.
    const bool thenExits = exitsEarly(code, site.thenBegin, site.thenEnd);
    const bool elseExits =
        site.hasElse && exitsEarly(code, site.elseBegin, site.elseEnd);
    if (thenExits != elseExits) {
      const std::vector<const CollectiveCall*> rest =
          callsIn(site.stmtEnd, enclosingBlockEnd(code, site.stmtEnd));
      std::vector<const CollectiveCall*>& fallthrough =
          thenExits ? elseSeq : thenSeq;
      fallthrough.insert(fallthrough.end(), rest.begin(), rest.end());
    }
    std::set<std::string> receivers;
    for (const CollectiveCall* call : thenSeq) receivers.insert(call->receiver);
    for (const CollectiveCall* call : elseSeq) receivers.insert(call->receiver);
    for (const std::string& receiver : receivers) {
      if (scoped.count(receiver) != 0) continue;  // membership-scoped comm
      std::vector<std::string> thenMethods;
      std::vector<std::string> elseMethods;
      for (const CollectiveCall* call : thenSeq)
        if (call->receiver == receiver) thenMethods.push_back(call->method);
      for (const CollectiveCall* call : elseSeq)
        if (call->receiver == receiver) elseMethods.push_back(call->method);
      if (thenMethods == elseMethods) continue;
      emit(ctx, lineOf(site.ifPos), rule,
           "collective sequence on '" + receiver +
               "' diverges across a rank-derived branch: one arm reaches [" +
               renderCollectiveSeq(thenMethods) + "], the other [" +
               renderCollectiveSeq(elseMethods) +
               "] — ranks taking different arms enter different collectives "
               "on the same communicator",
           "hoist the collective out of the branch so every member runs it, "
           "scope it to a membership communicator (split() with "
           "kUndefinedColor for non-members), or waive a deliberate "
           "asymmetry with // tibsim-lint: allow(collective-match)",
           out);
    }
  }
}

// Order is the report order; registry-docs is appended by rules() (it is a
// tree-level rule with no per-file checker).
constexpr std::array<Rule, 12> kSourceRules = {{
    {"wall-clock",
     "no wall-clock reads (steady_clock/system_clock/time()) outside "
     "annotated host-side measurement",
     "campaign artefacts must be byte-identical across reruns and --jobs "
     "values; host clocks differ every run"},
    {"random-source",
     "no rand()/std::random_device/drand48 anywhere",
     "all stochastic components must seed from the campaign seed via "
     "common/rng.hpp, or reruns diverge"},
    {"unordered-iter",
     "no iteration over unordered_map/unordered_set",
     "hash-order traversal feeding JSON/CSV/trace emitters makes output "
     "ordering implementation-defined"},
    {"pointer-key",
     "no pointer-keyed map/set",
     "address-based ordering differs run to run, so serialised output "
     "derived from it is nondeterministic"},
    {"fiber-block",
     "no blocking host calls (sleep/this_thread/system) in sim paths",
     "a fiber that blocks the host thread stalls every rank of the "
     "world; simulated waiting goes through Process::delay/suspend"},
    {"thread-local",
     "no thread_local in sim paths",
     "many fiber ranks share one host thread and a --jobs pool thread runs "
     "many worlds in turn, so thread_local state is neither per-rank nor "
     "per-world"},
    {"pragma-once",
     "headers start with #pragma once",
     "double inclusion breaks the single-library build; include guards "
     "are not used in this repo"},
    {"using-namespace",
     "no using namespace in headers",
     "a header-level using-directive leaks into every includer and can "
     "change overload resolution at a distance"},
    {"mpi-contract",
     "double payloads go through sendDoubles/recvDoubles",
     "the helpers enforce the multiple-of-sizeof(double) payload "
     "contract; raw send()/reinterpret_cast paths only fail at runtime"},
    {"sim-static",
     "no mutable statics in sim code",
     "--jobs pool threads run worlds concurrently, so mutable static "
     "state is shared across worlds and races (or orders "
     "nondeterministically) on multi-core hosts"},
    {"wildcard-recv",
     "wildcard receives (kAnySource/kAnyTag) in sim paths carry an "
     "explicit waiver",
     "a wildcard match is only deterministic through the engine's "
     "canonical delivery order; each use must be a reviewed, deliberate "
     "choice — unannotated wildcards hide message races"},
    {"collective-match",
     "collectives control-dependent on a rank-derived condition run the "
     "same sequence on both arms of the branch",
     "every rank of a communicator must enter the same collective "
     "sequence; a branch on rank()/wildcard-recv data whose arms reach "
     "different collectives deadlocks (or mis-pairs) at scale — the "
     "static mirror of the --verify-collectives runtime check"},
}};

constexpr std::array<void (*)(const FileContext&, const Rule&,
                              std::vector<Finding>&),
                     12>
    kCheckers = {{checkWallClock, checkRandomSource, checkUnorderedIteration,
                  checkPointerKeyedContainer, checkFiberBlocking,
                  checkThreadLocal, checkPragmaOnce,
                  checkUsingNamespaceHeader, checkMpiContract,
                  checkSimStatic, checkWildcardRecv,
                  checkCollectiveMatch}};

bool ruleSelected(const Options& options, const char* id) {
  if (options.onlyRules.empty()) return true;
  return std::find(options.onlyRules.begin(), options.onlyRules.end(), id) !=
         options.onlyRules.end();
}

std::string jsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string readFile(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good())
    throw std::runtime_error("tibsim-lint: cannot read " + path.string());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

}  // namespace

std::vector<RuleInfo> rules() {
  std::vector<RuleInfo> out;
  out.reserve(kSourceRules.size() + 1);
  for (const Rule& rule : kSourceRules)
    out.push_back(RuleInfo{rule.id, rule.summary, rule.rationale});
  out.push_back(RuleInfo{
      "registry-docs",
      "every ExperimentRegistry entry has an EXPERIMENTS.md section",
      "an experiment nobody can find in the docs is an experiment whose "
      "numbers nobody re-checks against the paper"});
  return out;
}

std::vector<Finding> lintSource(const std::string& path,
                                const std::string& content,
                                const Options& options) {
  const FileContext ctx = makeContext(path, content);
  std::vector<Finding> findings;
  for (std::size_t r = 0; r < kSourceRules.size(); ++r) {
    if (!ruleSelected(options, kSourceRules[r].id)) continue;
    kCheckers[r](ctx, kSourceRules[r], findings);
  }
  std::stable_sort(findings.begin(), findings.end(),
                   [](const Finding& a, const Finding& b) {
                     return a.line < b.line;
                   });
  return findings;
}

std::vector<Finding> lintRegistryDocs(const std::string& root,
                                      const Options& options) {
  std::vector<Finding> findings;
  if (!ruleSelected(options, "registry-docs")) return findings;
  namespace fs = std::filesystem;
  const fs::path docPath = fs::path(root) / "EXPERIMENTS.md";
  const fs::path coreDir = fs::path(root) / "src" / "core";
  if (!fs::exists(docPath) || !fs::exists(coreDir)) return findings;
  const std::string doc = readFile(docPath);

  // A registered name counts as documented when EXPERIMENTS.md mentions it
  // backticked (`campaign`).
  const auto documented = [&doc](const std::string& name) {
    return doc.find("`" + name + "`") != std::string::npos;
  };

  std::vector<fs::path> sources;
  for (const auto& entry : fs::directory_iterator(coreDir))
    if (entry.is_regular_file() && entry.path().extension() == ".cpp")
      sources.push_back(entry.path());
  std::sort(sources.begin(), sources.end());

  static const std::string kMarker = "make_unique<LambdaExperiment>(";
  for (const fs::path& source : sources) {
    const std::string text = readFile(source);
    std::string::size_type pos = 0;
    while ((pos = text.find(kMarker, pos)) != std::string::npos) {
      const auto open = text.find('"', pos);
      pos += kMarker.size();
      if (open == std::string::npos) break;
      const auto close = text.find('"', open + 1);
      if (close == std::string::npos) break;
      const std::string name = text.substr(open + 1, close - open - 1);
      if (name.empty() || documented(name)) continue;
      const int line = static_cast<int>(
                           std::count(text.begin(), text.begin() +
                                          static_cast<std::ptrdiff_t>(open),
                                      '\n')) +
                       1;
      findings.push_back(Finding{
          normalisePath(fs::relative(source, root).string()), line,
          "registry-docs",
          "experiment '" + name +
              "' is registered but EXPERIMENTS.md has no `" + name +
              "` section",
          "document the reproduced artefact (inputs, headline numbers, "
          "paper deltas) in EXPERIMENTS.md under `" +
              name + "`"});
    }
  }
  return findings;
}

std::vector<Finding> lintTree(const std::string& root,
                              const Options& options) {
  namespace fs = std::filesystem;
  std::vector<fs::path> files;
  for (const char* dir :
       {"src", "include", "bench", "tests", "tools", "examples"}) {
    const fs::path base = fs::path(root) / dir;
    if (!fs::exists(base)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(base)) {
      if (!entry.is_regular_file()) continue;
      const std::string rel =
          normalisePath(fs::relative(entry.path(), root).string());
      // Fixtures are deliberate violations; build trees are not ours.
      if (rel.find("lint_fixtures") != std::string::npos) continue;
      const std::string ext = entry.path().extension().string();
      if (ext != ".cpp" && ext != ".hpp" && ext != ".h") continue;
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());

  // Lint files in parallel: each file's findings land in its own slot, so
  // the merged order is a pure function of the sorted file list and the
  // final stable_sort — identical for every job count.
  std::vector<std::vector<Finding>> perFile(files.size());
  TaskPool pool(options.jobs);
  pool.parallelFor(files.size(), [&](std::size_t i) {
    const std::string rel =
        normalisePath(fs::relative(files[i], root).string());
    perFile[i] = lintSource(rel, readFile(files[i]), options);
  });
  std::vector<Finding> findings;
  for (std::vector<Finding>& local : perFile) {
    findings.insert(findings.end(),
                    std::make_move_iterator(local.begin()),
                    std::make_move_iterator(local.end()));
  }
  std::vector<Finding> docs = lintRegistryDocs(root, options);
  findings.insert(findings.end(), std::make_move_iterator(docs.begin()),
                  std::make_move_iterator(docs.end()));
  std::stable_sort(findings.begin(), findings.end(),
                   [](const Finding& a, const Finding& b) {
                     if (a.file != b.file) return a.file < b.file;
                     return a.line < b.line;
                   });
  return findings;
}

std::string formatFindings(const std::vector<Finding>& findings,
                           bool fixSuggestions) {
  std::ostringstream out;
  for (const Finding& f : findings) {
    out << f.file << ':' << f.line << ": [" << f.rule << "] " << f.message
        << '\n';
    if (fixSuggestions && !f.suggestion.empty())
      out << "    suggestion: " << f.suggestion << '\n';
  }
  return out.str();
}

std::string formatSarif(const std::vector<Finding>& findings) {
  // Minimal SARIF 2.1.0: one run, the full rule table, one result per
  // finding. Hand-rolled emission (the lint library keeps zero deps);
  // deterministic because findings arrive sorted and the rule table has a
  // fixed order.
  std::ostringstream out;
  out << "{\n"
      << "  \"$schema\": \"https://raw.githubusercontent.com/oasis-tcs/"
         "sarif-spec/master/Schemata/sarif-schema-2.1.0.json\",\n"
      << "  \"version\": \"2.1.0\",\n"
      << "  \"runs\": [\n    {\n"
      << "      \"tool\": {\n        \"driver\": {\n"
      << "          \"name\": \"tibsim-lint\",\n"
      << "          \"rules\": [\n";
  const std::vector<RuleInfo> table = rules();
  for (std::size_t i = 0; i < table.size(); ++i) {
    out << "            {\"id\": \"" << jsonEscape(table[i].id)
        << "\", \"shortDescription\": {\"text\": \""
        << jsonEscape(table[i].summary)
        << "\"}, \"fullDescription\": {\"text\": \""
        << jsonEscape(table[i].rationale) << "\"}}"
        << (i + 1 < table.size() ? "," : "") << '\n';
  }
  out << "          ]\n        }\n      },\n"
      << "      \"results\": [\n";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    out << "        {\"ruleId\": \"" << jsonEscape(f.rule)
        << "\", \"level\": \"error\", \"message\": {\"text\": \""
        << jsonEscape(f.message)
        << "\"}, \"locations\": [{\"physicalLocation\": "
           "{\"artifactLocation\": {\"uri\": \""
        << jsonEscape(f.file) << "\"}, \"region\": {\"startLine\": " << f.line
        << "}}}]}" << (i + 1 < findings.size() ? "," : "") << '\n';
  }
  out << "      ]\n    }\n  ]\n}\n";
  return out.str();
}

}  // namespace tibsim::lint
