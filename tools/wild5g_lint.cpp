// wild5g-lint: source-level enforcement of the repo's determinism and
// layering contracts.
//
// The golden-metrics harness (bench/golden/, tools/golden_check) only proves
// reproducibility if nothing in the tree can smuggle nondeterminism past the
// seeded wild5g::Rng streams. This tool makes that contract machine-checked:
// a hand-rolled tokenizer (no libclang dependency) feeds per-file scans
// (symbols, function bodies, an include graph), and a rule engine runs over
// src/, bench/, tools/, and examples/, failing the build on violations.
// Bugs that only show through a call chain (a task reaching shared state
// several frames down) are left to the runtime gates: the per-bench
// thread-count byte-identity tests and the TSan lane (DESIGN.md §8).
//
// Rule families (see --list-rules, --rules-doc, docs/LINT_RULES.md):
//   determinism  ban-random-device, ban-c-rand, ban-wall-clock,
//                ban-raw-engine, unordered-iteration — nothing may bypass
//                the seeded wild5g::Rng streams or leak hash order into
//                emitted metrics.
//   parallel     parallel-rng-capture, parallel-rng-stream — the lexical twin
//                of the runtime byte-identity gate: Rng objects captured by
//                reference into parallel_map/parallel_for task lambdas, and
//                draws inside task bodies on streams not derived from
//                fork(i)/split(), are flagged (see src/core/parallel.h).
//   layering     layering, include-cycle — the include DAG flows strictly
//                downward (src/core depends on nothing outside core, src/sim
//                sits below radio/net/abr/web, bench/ headers are never
//                included from src/) and cycles are findings.
//   hygiene      float-equality, printf-float, catch-swallow,
//                bench-sample-hoard, engine-blocking-call,
//                global-mutable-state, checkpoint-restore-symmetry.
//   meta         allow-needs-justification, unknown-rule.
//
// Suppression: a finding is waived by a directive comment — on the same line
// as the finding, or on its own line(s) directly above it — of the form
//     wild5g-lint: allow(<rule>) <non-empty justification>
// (in a // or /* */ comment). The directive covers its own line and the next
// line that contains code, so a multi-line justification comment still
// attaches to the statement below it. A directive without a justification,
// or naming an unknown rule, is itself reported (allow-needs-justification /
// unknown-rule); placeholder text that is not a well-formed rule identifier
// is ignored so documentation can mention the syntax.
//
// Output: one `file:line: rule: message` per finding (stable order; fix-it
// hints, where mechanical, follow on an indented line), a machine-readable
// document with --json, and/or a SARIF 2.1.0 log with --sarif <path> for
// GitHub code scanning. Exit 0 on a clean tree, 1 when any finding survives
// suppression, 2 on usage or I/O errors.
#include <algorithm>
#include <array>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/json.h"

namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Rule registry.

struct RuleInfo {
  std::string_view id;
  std::string_view family;
  std::string_view summary;
  std::string_view fixit;  // generic mechanical-fix hint; empty if contextual
};

constexpr std::array<RuleInfo, 18> kRules = {{
    {"ban-random-device", "determinism",
     "std::random_device is nondeterministic; seed a wild5g::Rng instead",
     ""},
    {"ban-c-rand", "determinism",
     "C PRNG family bypasses the seeded wild5g::Rng", ""},
    {"ban-wall-clock", "determinism",
     "wall-clock reads break bit-for-bit reproducibility; thread simulated "
     "time explicitly",
     ""},
    {"ban-raw-engine", "determinism",
     "raw <random> engines/distributions are implementation-defined outside "
     "src/core/rng.h; use the typed Rng API",
     ""},
    {"unordered-iteration", "determinism",
     "unordered container iteration order can leak into emitted metrics; "
     "iterate a sorted copy",
     ""},
    {"float-equality", "hygiene",
     "exact ==/!= against a floating-point literal; compare with a "
     "tolerance",
     ""},
    {"printf-float", "hygiene",
     "printf-style float formatting bypasses json::format_number's "
     "deterministic rendering",
     ""},
    {"catch-swallow", "hygiene",
     "catch (...) without rethrow/report hides failures; rethrow, store "
     "std::current_exception(), or log before recovering",
     ""},
    {"bench-sample-hoard", "hygiene",
     "bench code hoards every sample in a vector just to call "
     "stats::percentile/median/p95 at the end; campaigns must stream "
     "samples through stats::SampleAccumulator",
     "accumulate into a stats::SampleAccumulator and query its "
     "percentile()/median()/p95() instead of sorting a hoarded vector"},
    {"engine-blocking-call", "hygiene",
     "blocking filesystem or sleep call inside src/engine compute-thread "
     "code; campaigns run on the service compute thread, so a blocking call "
     "stalls every queued campaign and defeats the watchdog — "
     "engine/snapshot.{h,cpp} is the sole sanctioned checkpoint writer",
     "move the I/O into engine/snapshot.cpp or hoist it to the supervising "
     "layer (bench_common.h, tools/wild5g_serve.cpp)"},
    {"parallel-rng-capture", "parallel",
     "Rng captured by reference into a parallel_map/parallel_for task "
     "lambda; concurrent draws race and break byte-identical goldens",
     "split() a base stream outside the loop and draw from base.fork(i) "
     "inside the task"},
    {"parallel-rng-stream", "parallel",
     "draw inside a parallel task body on a stream not derived from "
     "fork(i)/split(); per-task streams keep goldens thread-count invariant",
     "derive a per-task stream with base.fork(i) (or construct an Rng from "
     "a per-task seed) before drawing"},
    {"global-mutable-state", "hygiene",
     "non-const namespace-scope or static-local variable in src/; every "
     "piece of shared mutable state is an entry in the inventory the "
     "multi-UE scheduler refactor must drain",
     "const-qualify it, confine it with thread_local or a sync primitive "
     "(std::mutex & friends are allow-listed), or justify via allow"},
    {"checkpoint-restore-symmetry", "hygiene",
     "a state key serialized in checkpoint_state has no counterpart in the "
     "paired restore_state (or vice versa); asymmetric checkpoint I/O "
     "silently breaks the resume byte-identity contract",
     "read every key you write and write every key you read, using the "
     "same string literal in both bodies"},
    {"layering", "layering",
     "include edge violates the layer DAG (core at the bottom, sim below "
     "radio/net/abr/web, bench/ never included from src/)",
     ""},
    {"include-cycle", "layering",
     "include graph contains a cycle; the layer DAG must be acyclic", ""},
    {"allow-needs-justification", "meta",
     "wild5g-lint: allow(<rule>) requires a justification after the ')'", ""},
    {"unknown-rule", "meta",
     "allow(...) names a rule this linter does not define", ""},
}};

// Family display order for --rules-doc and --list-rules grouping.
constexpr std::array<std::string_view, 5> kFamilies = {
    "determinism", "parallel", "layering", "hygiene", "meta"};

bool is_known_rule(std::string_view id) {
  return std::any_of(kRules.begin(), kRules.end(),
                     [&](const RuleInfo& r) { return r.id == id; });
}

int rule_index(std::string_view id) {
  for (std::size_t i = 0; i < kRules.size(); ++i) {
    if (kRules[i].id == id) return static_cast<int>(i);
  }
  return -1;
}

struct Finding {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;
  std::string fixit;  // empty when no mechanical fix applies
  // Stable identity for --baseline ratcheting: rule|virtual-path|normalized
  // source line. Filled in run_checks once the owning file is known.
  std::string fingerprint = {};
};

// ---------------------------------------------------------------------------
// Preprocessing: phase-2 translation (line-splice removal). A backslash
// immediately followed by a newline joins physical lines *before* lexing, so
// a splice can neither hide a banned identifier from the token stream nor
// split a comment out of suppression scope. A per-character table maps each
// surviving character back to its original physical line for reporting.

struct Source {
  std::string text;       // spliced text
  std::vector<int> line;  // line[i] = 1-based physical line of text[i]
};

Source splice(const std::string& raw) {
  Source out;
  out.text.reserve(raw.size());
  out.line.reserve(raw.size());
  int line = 1;
  for (std::size_t i = 0; i < raw.size();) {
    if (raw[i] == '\\') {
      std::size_t j = i + 1;
      if (j < raw.size() && raw[j] == '\r') ++j;
      if (j < raw.size() && raw[j] == '\n') {
        ++line;
        i = j + 1;
        continue;
      }
    }
    out.text.push_back(raw[i]);
    out.line.push_back(line);
    if (raw[i] == '\n') ++line;
    ++i;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Tokenizer. Strings and comments never produce identifier tokens, so rule
// keywords inside literals or prose cannot trip rules; comments are kept
// (per line) for suppression directives, string literals are kept as tokens
// so printf-float can inspect format strings. Operates on the spliced text
// and reads line numbers from the Source table.

struct Token {
  enum class Kind { kIdent, kNumber, kString, kChar, kPunct };
  Kind kind;
  std::string text;
  int line;
};

struct LexedFile {
  std::vector<Token> tokens;
  std::map<int, std::string> comments;  // line -> concatenated comment text
};

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}
bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

LexedFile lex(const Source& sf) {
  LexedFile out;
  const std::string& src = sf.text;
  const std::size_t n = src.size();
  auto line_at = [&](std::size_t pos) {
    if (n == 0) return 1;
    return sf.line[pos < n ? pos : n - 1];
  };
  std::size_t i = 0;

  auto note_comment = [&](std::size_t begin, std::size_t end) {
    const std::string text = src.substr(begin, end - begin);
    const int last = line_at(end > begin ? end - 1 : begin);
    for (int l = line_at(begin); l <= last; ++l) out.comments[l] += text;
  };

  auto lex_quoted = [&](char quote) {
    // Plain (non-raw) string or char literal with backslash escapes. Note
    // that splice() never joins "\\\n" inside a literal differently: a
    // backslash-newline in source is a splice everywhere, which matches the
    // standard's phase ordering.
    std::string text;
    ++i;  // opening quote
    while (i < n && src[i] != quote) {
      if (src[i] == '\\' && i + 1 < n) {
        text += src[i];
        text += src[i + 1];
        i += 2;
        continue;
      }
      text += src[i++];
    }
    if (i < n) ++i;  // closing quote
    return text;
  };

  while (i < n) {
    const char c = src[i];
    if (std::isspace(static_cast<unsigned char>(c)) != 0) {
      ++i;
      continue;
    }
    if (c == '/' && i + 1 < n && src[i + 1] == '/') {
      const std::size_t start = i;
      while (i < n && src[i] != '\n') ++i;
      note_comment(start, i);
      continue;
    }
    if (c == '/' && i + 1 < n && src[i + 1] == '*') {
      const std::size_t start = i;
      i += 2;
      while (i + 1 < n && !(src[i] == '*' && src[i + 1] == '/')) ++i;
      i = (i + 1 < n) ? i + 2 : n;
      note_comment(start, i);
      continue;
    }
    if (ident_start(c)) {
      const std::size_t start = i;
      while (i < n && ident_char(src[i])) ++i;
      std::string word = src.substr(start, i - start);
      // String-literal prefixes: R"...(raw)...", u8"...", L'...', etc.
      const bool raw = !word.empty() && word.back() == 'R';
      const bool prefix =
          word == "R" || word == "u8" || word == "u" || word == "L" ||
          word == "u8R" || word == "uR" || word == "LR" || word == "UR" ||
          word == "U";
      if (prefix && i < n && (src[i] == '"' || src[i] == '\'')) {
        const int at = line_at(start);
        if (raw && src[i] == '"') {
          ++i;  // opening quote
          std::string delim;
          while (i < n && src[i] != '(') delim += src[i++];
          const std::string closer = ")" + delim + "\"";
          const std::size_t body = (i < n) ? i + 1 : n;
          const std::size_t end = src.find(closer, body);
          std::string text = src.substr(
              body, (end == std::string::npos) ? n - body : end - body);
          i = (end == std::string::npos) ? n : end + closer.size();
          out.tokens.push_back({Token::Kind::kString, std::move(text), at});
        } else {
          const char quote = src[i];
          std::string text = lex_quoted(quote);
          out.tokens.push_back({quote == '"' ? Token::Kind::kString
                                             : Token::Kind::kChar,
                                std::move(text), at});
        }
        continue;
      }
      out.tokens.push_back(
          {Token::Kind::kIdent, std::move(word), line_at(start)});
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) != 0 ||
        (c == '.' && i + 1 < n &&
         std::isdigit(static_cast<unsigned char>(src[i + 1])) != 0)) {
      const std::size_t start = i;
      while (i < n) {
        const char d = src[i];
        if (ident_char(d) || d == '.' || d == '\'') {
          // Exponent signs belong to the literal: 1e-3, 0x1p+4. Digit
          // separators (1'000) are consumed here, never as char literals.
          if ((d == 'e' || d == 'E' || d == 'p' || d == 'P') && i + 1 < n &&
              (src[i + 1] == '+' || src[i + 1] == '-')) {
            i += 2;
            continue;
          }
          ++i;
          continue;
        }
        break;
      }
      out.tokens.push_back(
          {Token::Kind::kNumber, src.substr(start, i - start), line_at(start)});
      continue;
    }
    if (c == '"' || c == '\'') {
      const int at = line_at(i);
      std::string text = lex_quoted(c);
      out.tokens.push_back(
          {c == '"' ? Token::Kind::kString : Token::Kind::kChar,
           std::move(text), at});
      continue;
    }
    // Punctuation; fuse the two-char operators the rules care about. '<' and
    // '>' stay single-char so template-argument balancing sees each bracket.
    static constexpr std::array<std::string_view, 12> kTwoChar = {
        "::", "->", "==", "!=", "<=", ">=", "&&", "||", "+=", "-=", "*=",
        "/="};
    std::string text(1, c);
    if (i + 1 < n) {
      const std::string two{src[i], src[i + 1]};
      if (std::find(kTwoChar.begin(), kTwoChar.end(), two) != kTwoChar.end()) {
        text = two;
      }
    }
    const int at = line_at(i);
    i += text.size();
    out.tokens.push_back({Token::Kind::kPunct, std::move(text), at});
  }
  return out;
}

constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

/// Index of the token matching the opener at open_idx ("(", "[", "{", "<"),
/// scanning no further than end. kNpos when unbalanced.
std::size_t find_match(const std::vector<Token>& toks, std::size_t open_idx,
                       std::string_view open, std::string_view close,
                       std::size_t end) {
  int depth = 0;
  const std::size_t stop = std::min(end, toks.size());
  for (std::size_t j = open_idx; j < stop; ++j) {
    if (toks[j].kind != Token::Kind::kPunct) continue;
    if (toks[j].text == open) {
      ++depth;
    } else if (toks[j].text == close && --depth == 0) {
      return j;
    }
  }
  return kNpos;
}

bool next_is(const std::vector<Token>& toks, std::size_t i,
             std::string_view text) {
  return i + 1 < toks.size() && toks[i + 1].text == text;
}

// ---------------------------------------------------------------------------
// Suppression directives.

struct Allow {
  int line;
  std::string rule;
};

void collect_allows(const LexedFile& lexed, const std::string& file,
                    std::vector<Allow>& allows, std::vector<Finding>& meta) {
  std::set<std::pair<int, std::string>> seen;  // block comments span lines
  for (const auto& [line, text] : lexed.comments) {
    static const std::string kTag = "wild5g-lint: allow(";
    std::size_t pos = 0;
    while ((pos = text.find(kTag, pos)) != std::string::npos) {
      pos += kTag.size();
      const std::size_t close = text.find(')', pos);
      if (close == std::string::npos) break;
      const std::string rule = text.substr(pos, close - pos);
      // Only well-formed rule identifiers count as directive attempts;
      // placeholders in prose ("allow(<rule>)") are not directives.
      const bool plausible =
          !rule.empty() &&
          std::islower(static_cast<unsigned char>(rule.front())) != 0 &&
          std::all_of(rule.begin(), rule.end(), [](char ch) {
            return std::islower(static_cast<unsigned char>(ch)) != 0 ||
                   std::isdigit(static_cast<unsigned char>(ch)) != 0 ||
                   ch == '-';
          });
      if (!plausible) {
        pos = close;
        continue;
      }
      std::string rest = text.substr(close + 1);
      const auto last = rest.find_last_not_of(" \t*/-:");
      const auto first = rest.find_first_not_of(" \t*/-:");
      rest = (first == std::string::npos)
                 ? std::string{}
                 : rest.substr(first, last - first + 1);
      if (!seen.insert({line, rule + "|" + rest}).second) {
        pos = close;
        continue;
      }
      if (!is_known_rule(rule)) {
        meta.push_back({file, line, "unknown-rule",
                        "allow(" + rule + ") names a rule wild5g-lint does "
                        "not define (see --list-rules)",
                        {}});
      } else if (rest.empty()) {
        meta.push_back({file, line, "allow-needs-justification",
                        "allow(" + rule + ") must be followed by a "
                        "justification explaining why the construct is safe",
                        {}});
      } else {
        allows.push_back({line, rule});
      }
      pos = close;
    }
  }
}

/// A directive covers its own line (trailing-comment style) and the first
/// line at or after it that contains code, so a multi-line justification
/// comment still attaches to the statement below it.
bool suppressed(const std::vector<Allow>& allows,
                const std::set<int>& token_lines, const Finding& f) {
  return std::any_of(allows.begin(), allows.end(), [&](const Allow& a) {
    if (a.rule != f.rule) return false;
    if (a.line == f.line) return true;
    const auto next_code = token_lines.upper_bound(a.line);
    return next_code != token_lines.end() && *next_code == f.line;
  });
}

// ---------------------------------------------------------------------------
// Token-level rule implementations (the original wild5g-lint families).

bool is_float_literal(const std::string& t) {
  if (t.size() > 1 && t[0] == '0' && (t[1] == 'x' || t[1] == 'X')) {
    return t.find('p') != std::string::npos || t.find('P') != std::string::npos;
  }
  if (t.find('.') != std::string::npos) return true;
  if (t.find('e') != std::string::npos || t.find('E') != std::string::npos) {
    return true;
  }
  const char suffix = t.empty() ? '\0' : t.back();
  return suffix == 'f' || suffix == 'F';
}

/// True when token i is a free-function-style use: not a member access, and
/// not qualified by a namespace other than std.
bool free_call_context(const std::vector<Token>& toks, std::size_t i) {
  if (i == 0) return true;
  const std::string& prev = toks[i - 1].text;
  if (prev == "." || prev == "->") return false;
  if (prev == "::" && i >= 2 && toks[i - 2].text != "std") return false;
  return true;
}

struct FileContext {
  std::string display_path;  // as reported in findings
  bool is_rng_header = false;
  bool feeds_metrics = false;  // includes core/json.h or bench_common.h
  bool swallow_allowed = false;  // file is on the catch-swallow allow-list
  bool in_bench = false;       // virtual path lives under bench/
};

void check_banned_idents(const std::vector<Token>& toks,
                         const FileContext& ctx,
                         std::vector<Finding>& out) {
  static const std::set<std::string> kCRand = {"rand", "srand", "rand_r",
                                              "drand48", "srand48", "lrand48"};
  static const std::set<std::string> kClockIdents = {
      "system_clock",   "steady_clock", "high_resolution_clock",
      "gettimeofday",   "clock_gettime", "timespec_get",
      "localtime",      "gmtime",        "mktime"};
  static const std::set<std::string> kClockCalls = {"time", "clock"};
  static const std::set<std::string> kEngines = {
      "mt19937",        "mt19937_64",    "minstd_rand",
      "minstd_rand0",   "ranlux24",      "ranlux24_base",
      "ranlux48",       "ranlux48_base", "knuth_b",
      "default_random_engine", "random_shuffle"};

  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != Token::Kind::kIdent) continue;
    const std::string& id = toks[i].text;
    const int line = toks[i].line;

    if (id == "random_device") {
      out.push_back({ctx.display_path, line, "ban-random-device",
                     "std::random_device is nondeterministic; seed a "
                     "wild5g::Rng and fork() child streams instead",
                     {}});
      continue;
    }
    if (kCRand.count(id) != 0 && next_is(toks, i, "(") &&
        free_call_context(toks, i)) {
      out.push_back({ctx.display_path, line, "ban-c-rand",
                     "'" + id + "' bypasses the seeded wild5g::Rng; draw "
                     "from an explicitly threaded Rng instead",
                     {}});
      continue;
    }
    if (kClockIdents.count(id) != 0 ||
        (kClockCalls.count(id) != 0 && next_is(toks, i, "(") &&
         free_call_context(toks, i))) {
      out.push_back({ctx.display_path, line, "ban-wall-clock",
                     "wall-clock source '" + id + "' breaks bit-for-bit "
                     "reproducibility; thread simulated time explicitly",
                     {}});
      continue;
    }
    const bool distribution_like =
        id.size() > 13 &&
        id.compare(id.size() - 13, 13, "_distribution") == 0;
    if (!ctx.is_rng_header && (kEngines.count(id) != 0 || distribution_like)) {
      out.push_back({ctx.display_path, line, "ban-raw-engine",
                     "'" + id + "' constructs a raw <random> " +
                         (distribution_like ? "distribution" : "engine") +
                         " outside src/core/rng.h; its output is "
                         "implementation-defined — use the typed "
                         "wild5g::Rng API",
                     {}});
    }
  }
}

void check_float_equality(const std::vector<Token>& toks,
                          const FileContext& ctx,
                          std::vector<Finding>& out) {
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != Token::Kind::kPunct ||
        (toks[i].text != "==" && toks[i].text != "!=")) {
      continue;
    }
    const Token* lit = nullptr;
    if (i > 0 && toks[i - 1].kind == Token::Kind::kNumber &&
        is_float_literal(toks[i - 1].text)) {
      lit = &toks[i - 1];
    }
    if (lit == nullptr && i + 1 < toks.size() &&
        toks[i + 1].kind == Token::Kind::kNumber &&
        is_float_literal(toks[i + 1].text)) {
      lit = &toks[i + 1];
    }
    if (lit != nullptr) {
      out.push_back({ctx.display_path, toks[i].line, "float-equality",
                     "exact '" + toks[i].text + "' against floating-point "
                     "literal " + lit->text + "; compare with an explicit "
                     "tolerance (or justify via allow)",
                     {}});
    }
  }
}

void check_printf_float(const std::vector<Token>& toks, const FileContext& ctx,
                        std::vector<Finding>& out) {
  static const std::set<std::string> kPrintf = {
      "printf",  "fprintf",  "sprintf",  "snprintf",
      "vprintf", "vfprintf", "vsprintf", "vsnprintf", "dprintf"};

  auto has_float_conversion = [](const std::string& fmt) {
    for (std::size_t p = 0; p + 1 < fmt.size(); ++p) {
      if (fmt[p] != '%') continue;
      std::size_t q = p + 1;
      if (q < fmt.size() && fmt[q] == '%') {  // literal percent
        p = q;
        continue;
      }
      while (q < fmt.size() &&
             (std::isdigit(static_cast<unsigned char>(fmt[q])) != 0 ||
              fmt[q] == '#' || fmt[q] == '0' || fmt[q] == '-' ||
              fmt[q] == '+' || fmt[q] == ' ' || fmt[q] == '.' ||
              fmt[q] == '*' || fmt[q] == '\'' || fmt[q] == 'l' ||
              fmt[q] == 'h' || fmt[q] == 'L' || fmt[q] == 'z' ||
              fmt[q] == 'j' || fmt[q] == 't')) {
        ++q;
      }
      if (q < fmt.size()) {
        const char conv = fmt[q];
        if (conv == 'f' || conv == 'F' || conv == 'e' || conv == 'E' ||
            conv == 'g' || conv == 'G' || conv == 'a' || conv == 'A') {
          return true;
        }
      }
      p = q;
    }
    return false;
  };

  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != Token::Kind::kIdent ||
        kPrintf.count(toks[i].text) == 0 || !next_is(toks, i, "(") ||
        !free_call_context(toks, i)) {
      continue;
    }
    int depth = 0;
    for (std::size_t j = i + 1; j < toks.size(); ++j) {
      if (toks[j].kind == Token::Kind::kPunct) {
        if (toks[j].text == "(") ++depth;
        if (toks[j].text == ")" && --depth == 0) break;
      }
      if (toks[j].kind == Token::Kind::kString &&
          has_float_conversion(toks[j].text)) {
        out.push_back({ctx.display_path, toks[i].line, "printf-float",
                       "'" + toks[i].text + "' formats a float directly; "
                       "route numbers through json::format_number / the "
                       "Table formatter so rendering stays deterministic",
                       {}});
        break;
      }
    }
  }
}

void check_catch_swallow(const std::vector<Token>& toks,
                         const FileContext& ctx,
                         std::vector<Finding>& out) {
  if (ctx.swallow_allowed) return;
  // Identifiers that count as handling the exception inside the catch body:
  // rethrowing it, capturing it as an exception_ptr, terminating, or writing
  // a diagnostic somewhere a caller or human will see.
  static const std::set<std::string> kHandles = {
      "throw",          "current_exception", "rethrow_exception",
      "rethrow_if_nested", "cerr",           "clog",
      "perror",         "fprintf",           "printf",
      "syslog",         "exit",              "_Exit",
      "quick_exit",     "abort",             "terminate"};
  for (std::size_t i = 0; i + 6 < toks.size(); ++i) {
    // The lexer emits the ellipsis parameter as three '.' punct tokens.
    if (toks[i].kind != Token::Kind::kIdent || toks[i].text != "catch" ||
        toks[i + 1].text != "(" || toks[i + 2].text != "." ||
        toks[i + 3].text != "." || toks[i + 4].text != "." ||
        toks[i + 5].text != ")" || toks[i + 6].text != "{") {
      continue;
    }
    int depth = 0;
    bool handled = false;
    for (std::size_t j = i + 6; j < toks.size(); ++j) {
      if (toks[j].kind == Token::Kind::kPunct) {
        if (toks[j].text == "{") ++depth;
        if (toks[j].text == "}" && --depth == 0) break;
      }
      if (toks[j].kind == Token::Kind::kIdent &&
          kHandles.count(toks[j].text) != 0) {
        handled = true;
        break;
      }
    }
    if (!handled) {
      out.push_back({ctx.display_path, toks[i].line, "catch-swallow",
                     "catch (...) swallows the exception without rethrowing, "
                     "storing std::current_exception(), or reporting it; a "
                     "silent failure here can mask a broken fault path — "
                     "handle it or justify via allow",
                     {}});
    }
  }
}

/// bench-sample-hoard: in bench/ files, calling the sort-on-query stats
/// helpers (stats::percentile / stats::median / stats::p95) means the
/// campaign hoarded every sample in a vector first. That pattern is O(n)
/// memory per metric and is exactly what stats::SampleAccumulator replaces;
/// flag the query site so new campaigns stream instead. Member calls
/// (acc.percentile(...)) are the sanctioned API and never match.
void check_sample_hoard(const std::vector<Token>& toks,
                        const FileContext& ctx,
                        std::vector<Finding>& out) {
  if (!ctx.in_bench) return;
  static const std::set<std::string> kSortOnQuery = {"percentile", "median",
                                                     "p95"};
  for (std::size_t i = 2; i < toks.size(); ++i) {
    if (toks[i].kind != Token::Kind::kIdent ||
        kSortOnQuery.count(toks[i].text) == 0) {
      continue;
    }
    if (toks[i - 1].text != "::" || toks[i - 2].text != "stats") continue;
    if (!next_is(toks, i, "(")) continue;
    out.push_back({ctx.display_path, toks[i].line, "bench-sample-hoard",
                   "'stats::" + toks[i].text + "' in bench code implies a "
                   "hoarded std::vector<double> of samples; stream them "
                   "through a stats::SampleAccumulator and query its " +
                       toks[i].text + "() instead",
                   {}});
  }
}

/// engine-blocking-call: src/engine/ code executes on the service compute
/// thread (wild5g_serve) or under a bench's supervision loop; a blocking
/// filesystem or sleep call there stalls every queued campaign and breaks
/// the watchdog's liveness assumptions. engine/snapshot.{h,cpp} is the one
/// sanctioned checkpoint writer; supervision sleeps and wall-clock waits
/// belong to the layer driving the engine (bench_common.h, wild5g_serve).
/// Clock reads are already covered by ban-wall-clock, so this rule only
/// names the filesystem and sleep families.
/// Identifier set behind engine-blocking-call: names whose presence marks a
/// call that can block the calling thread for an unbounded or
/// scheduler-scale time.
const std::set<std::string>& blocking_idents() {
  static const std::set<std::string> kBlocking = {
      "ifstream",  "ofstream",    "fstream", "fopen",     "freopen",
      "tmpfile",   "fread",       "fwrite",  "system",    "popen",
      "sleep_for", "sleep_until", "usleep",  "nanosleep"};
  return kBlocking;
}

void check_engine_blocking(const std::vector<Token>& toks,
                           const FileContext& ctx, const std::string& vpath,
                           std::vector<Finding>& out) {
  if (vpath.rfind("src/engine/", 0) != 0) return;
  if (vpath == "src/engine/snapshot.h" ||
      vpath == "src/engine/snapshot.cpp") {
    return;
  }
  for (const auto& tok : toks) {
    if (tok.kind != Token::Kind::kIdent ||
        blocking_idents().count(tok.text) == 0) {
      continue;
    }
    out.push_back(
        {ctx.display_path, tok.line, "engine-blocking-call",
         "'" + tok.text + "' blocks the engine compute thread; src/engine "
         "must stay pure — checkpoint I/O belongs in engine/snapshot.cpp "
         "and supervision waits in the driving layer (bench_common.h, "
         "tools/wild5g_serve.cpp)",
         {}});
  }
}

void check_unordered_iteration(const std::vector<Token>& toks,
                               const FileContext& ctx,
                               std::vector<Finding>& out) {
  if (!ctx.feeds_metrics) return;
  static const std::set<std::string> kUnordered = {
      "unordered_map", "unordered_set", "unordered_multimap",
      "unordered_multiset"};

  // Pass 1: names declared with an unordered type in this file.
  std::set<std::string> names;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != Token::Kind::kIdent ||
        kUnordered.count(toks[i].text) == 0) {
      continue;
    }
    std::size_t j = i + 1;
    if (j < toks.size() && toks[j].text == "<") {
      int depth = 0;
      for (; j < toks.size(); ++j) {
        if (toks[j].text == "<") ++depth;
        if (toks[j].text == ">" && --depth == 0) {
          ++j;
          break;
        }
      }
    }
    while (j < toks.size() &&
           (toks[j].text == "&" || toks[j].text == "*" ||
            toks[j].text == "const")) {
      ++j;
    }
    if (j < toks.size() && toks[j].kind == Token::Kind::kIdent) {
      names.insert(toks[j].text);
    }
  }
  if (names.empty()) return;

  // Pass 2a: range-for whose range expression mentions a tracked name.
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != Token::Kind::kIdent || toks[i].text != "for" ||
        !next_is(toks, i, "(")) {
      continue;
    }
    int depth = 0;
    std::size_t colon = 0;
    std::size_t close = 0;
    for (std::size_t j = i + 1; j < toks.size(); ++j) {
      if (toks[j].kind != Token::Kind::kPunct) continue;
      if (toks[j].text == "(") ++depth;
      if (toks[j].text == ")" && --depth == 0) {
        close = j;
        break;
      }
      if (toks[j].text == ":" && depth == 1 && colon == 0) colon = j;
    }
    if (colon == 0 || close == 0) continue;
    for (std::size_t j = colon + 1; j < close; ++j) {
      if (toks[j].kind == Token::Kind::kIdent &&
          names.count(toks[j].text) != 0) {
        out.push_back({ctx.display_path, toks[i].line, "unordered-iteration",
                       "range-for over unordered container '" + toks[j].text +
                           "' in a file that emits metrics; hash order is "
                           "nondeterministic across standard libraries — "
                           "iterate a sorted copy of the keys",
                       {}});
        break;
      }
    }
  }

  // Pass 2b: explicit iterator walks (x.begin() / x->cbegin() ...).
  static const std::set<std::string> kBegin = {"begin", "cbegin", "rbegin",
                                              "crbegin"};
  for (std::size_t i = 0; i + 3 < toks.size(); ++i) {
    if (toks[i].kind == Token::Kind::kIdent &&
        names.count(toks[i].text) != 0 &&
        (toks[i + 1].text == "." || toks[i + 1].text == "->") &&
        kBegin.count(toks[i + 2].text) != 0 && toks[i + 3].text == "(") {
      out.push_back({ctx.display_path, toks[i].line, "unordered-iteration",
                     "iterator walk over unordered container '" +
                         toks[i].text + "' in a file that emits metrics; "
                         "hash order is nondeterministic — iterate a sorted "
                         "copy of the keys",
                     {}});
    }
  }
}

// ---------------------------------------------------------------------------
// Declaration-shape helpers shared by the scans below: telling a function
// declaration or definition apart from a call or a constructor-initialized
// variable without a parser.

const std::set<std::string>& non_type_keywords() {
  static const std::set<std::string> kWords = {
      "return", "if",     "while",    "for",       "switch",  "case",
      "new",    "delete", "do",       "else",      "throw",   "goto",
      "sizeof", "co_await", "co_return", "co_yield", "and",   "or",
      "not",    "catch",  "decltype", "alignof",   "noexcept", "operator",
      "static_assert", "define", "include", "until"};
  return kWords;
}

/// Whether one parameter chunk [b, e) is declaration-shaped: `type name`,
/// `const type& name`, `std::vector<double> name`, `type` (no name), or
/// `...`; anything with arithmetic, strings, or numbers outside template
/// arguments disqualifies the whole candidate.
bool decl_chunk(const std::vector<Token>& toks, std::size_t b,
                std::size_t e) {
  // Cut a default-argument tail; only the declaration part is shaped.
  int angle = 0;
  std::size_t stop = e;
  for (std::size_t j = b; j < e; ++j) {
    if (toks[j].kind != Token::Kind::kPunct) continue;
    if (toks[j].text == "<") ++angle;
    if (toks[j].text == ">") --angle;
    if (toks[j].text == "=" && angle == 0) {
      stop = j;
      break;
    }
  }
  angle = 0;
  for (std::size_t j = b; j < stop; ++j) {
    const Token& t = toks[j];
    if (t.kind == Token::Kind::kIdent) continue;
    if (t.kind == Token::Kind::kNumber) {
      if (angle == 0) return false;
      continue;
    }
    if (t.kind != Token::Kind::kPunct) return false;
    if (t.text == "<") {
      ++angle;
      continue;
    }
    if (t.text == ">") {
      --angle;
      continue;
    }
    if (t.text == "::" || t.text == "&" || t.text == "*" || t.text == "[" ||
        t.text == "]" || t.text == "&&" || t.text == ",") {
      continue;  // "," only occurs inside <...> after chunk splitting
    }
    if ((t.text == "(" || t.text == ")") && angle > 0) {
      // Function-type template argument (std::function<void(int)>): still
      // declaration-shaped. At angle 0 a paren means a call expression.
      continue;
    }
    if (t.text == ".") {
      // Only the variadic ellipsis is declaration-shaped; a member access
      // chain (config.timeout_s) marks the candidate as a call.
      if (stop - b == 3 && toks[b].text == "." && toks[b + 1].text == "." &&
          toks[b + 2].text == ".") {
        continue;
      }
      return false;
    }
    return false;
  }
  return true;
}

/// Splits [b, e) at depth-0 commas (tracking (), [], {} — template commas in
/// parameter lists are rare and simply fail the arity match downstream).
std::vector<std::pair<std::size_t, std::size_t>> split_args(
    const std::vector<Token>& toks, std::size_t b, std::size_t e) {
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  if (b >= e) return chunks;
  int depth = 0;
  int angle = 0;
  std::size_t start = b;
  for (std::size_t j = b; j < e; ++j) {
    if (toks[j].kind != Token::Kind::kPunct) continue;
    const std::string& t = toks[j].text;
    if (t == "(" || t == "[" || t == "{") ++depth;
    if (t == ")" || t == "]" || t == "}") --depth;
    if (t == "<") ++angle;
    if (t == ">") angle = std::max(0, angle - 1);
    if (t == "," && depth == 0 && angle == 0) {
      chunks.emplace_back(start, j);
      start = j + 1;
    }
  }
  chunks.emplace_back(start, e);
  return chunks;
}

// ---------------------------------------------------------------------------
// Parallel-Rng discipline (the static twin of the runtime byte-identity
// gate; see src/core/parallel.h). Two rules over parallel_map/parallel_for
// call sites:
//   parallel-rng-capture  an Rng explicitly captured by reference into the
//                         task lambda — concurrent draws race, and even a
//                         mutex would make results schedule-dependent.
//   parallel-rng-stream   a draw inside the task body on an outer Rng (any
//                         stream not derived per-task via fork(i)/split()
//                         or constructed locally from a per-task seed).
// A default [&] capture alone is not a finding — the tree-wide idiom is
// `[&]` with every draw routed through a lambda-local fork(i) child, which
// the stream rule verifies.

/// Names in this file declared as wild5g::Rng (or bound via
/// `auto x = ....fork(...)/....split()`). File scope is a sound
/// over-approximation: tracking extra names can only matter if they are
/// drawn from inside a task body without a local declaration.
std::set<std::string> collect_rng_vars(const std::vector<Token>& toks) {
  std::set<std::string> vars;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != Token::Kind::kIdent) continue;
    if (toks[i].text == "Rng") {
      std::size_t j = i + 1;
      while (j < toks.size() &&
             (toks[j].text == "&" || toks[j].text == "*" ||
              toks[j].text == "const")) {
        ++j;
      }
      if (j < toks.size() && toks[j].kind == Token::Kind::kIdent) {
        vars.insert(toks[j].text);
      }
      continue;
    }
    if (toks[i].text == "auto" && i + 2 < toks.size() &&
        toks[i + 1].kind == Token::Kind::kIdent && toks[i + 2].text == "=") {
      const std::size_t stop = std::min(toks.size(), i + 20);
      for (std::size_t j = i + 3; j < stop && toks[j].text != ";"; ++j) {
        if (toks[j].kind == Token::Kind::kIdent &&
            (toks[j].text == "fork" || toks[j].text == "split")) {
          vars.insert(toks[i + 1].text);
          break;
        }
      }
    }
  }
  return vars;
}

void check_parallel_rng(const std::vector<Token>& toks, const FileContext& ctx,
                        const std::set<std::string>& rng_vars,
                        std::vector<Finding>& out) {
  // Mutating draw methods of wild5g::Rng. fork() is const and seed-derived,
  // so calling it inside a task body is exactly the sanctioned idiom.
  static const std::set<std::string> kDraws = {
      "uniform", "uniform_int", "normal",  "lognormal", "exponential",
      "bernoulli", "pick",      "shuffle", "split"};
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != Token::Kind::kIdent ||
        (toks[i].text != "parallel_map" && toks[i].text != "parallel_for") ||
        toks[i + 1].text != "(") {
      continue;
    }
    const std::size_t call_close =
        find_match(toks, i + 1, "(", ")", toks.size());
    if (call_close == kNpos) continue;
    // The first '[' inside the call opens the task lambda's capture list.
    std::size_t cap_open = kNpos;
    for (std::size_t j = i + 2; j < call_close; ++j) {
      if (toks[j].kind == Token::Kind::kPunct && toks[j].text == "[") {
        cap_open = j;
        break;
      }
    }
    if (cap_open == kNpos) continue;
    const std::size_t cap_close =
        find_match(toks, cap_open, "[", "]", call_close);
    if (cap_close == kNpos) continue;

    // Rule 1: explicit by-reference captures of a known Rng.
    for (std::size_t j = cap_open + 1; j < cap_close; ++j) {
      if (toks[j].kind != Token::Kind::kPunct || toks[j].text != "&" ||
          j + 1 >= cap_close || toks[j + 1].kind != Token::Kind::kIdent) {
        continue;
      }
      std::string target;
      if (j + 2 < cap_close && toks[j + 2].text == "=") {
        // Init capture `&alias = expr`: flag only when expr is exactly a
        // tracked Rng variable.
        if (j + 3 < cap_close && toks[j + 3].kind == Token::Kind::kIdent &&
            rng_vars.count(toks[j + 3].text) != 0 &&
            (j + 4 >= cap_close || toks[j + 4].text == ",")) {
          target = toks[j + 3].text;
        }
      } else if (rng_vars.count(toks[j + 1].text) != 0) {
        target = toks[j + 1].text;
      }
      if (target.empty()) continue;
      out.push_back(
          {ctx.display_path, toks[j].line, "parallel-rng-capture",
           "Rng '" + target + "' is captured by reference into a " +
               toks[i].text + " task lambda; concurrent draws race and "
               "break byte-identical goldens at any thread count",
           "split() a base stream before the loop (Rng base = " + target +
               ".split();) and draw from base.fork(i) inside the task"});
    }

    // Rule 2: draws inside the task body on non-local Rng streams.
    std::set<std::string> locals;
    std::size_t j = cap_close + 1;
    if (j < call_close && toks[j].text == "(") {
      const std::size_t params_close =
          find_match(toks, j, "(", ")", call_close);
      if (params_close == kNpos) continue;
      // Every identifier in the parameter list shadows an outer name (the
      // over-approximation also swallows type names, which is harmless).
      for (std::size_t k = j + 1; k < params_close; ++k) {
        if (toks[k].kind == Token::Kind::kIdent) locals.insert(toks[k].text);
      }
      j = params_close + 1;
    }
    while (j < call_close && toks[j].kind == Token::Kind::kIdent) {
      ++j;  // mutable, noexcept
    }
    if (j >= call_close || toks[j].text != "{") continue;
    const std::size_t body_open = j;
    const std::size_t body_close =
        find_match(toks, body_open, "{", "}", call_close + 1);
    if (body_close == kNpos) continue;
    for (std::size_t k = body_open + 1; k + 1 < body_close; ++k) {
      if (toks[k].kind != Token::Kind::kIdent ||
          non_type_keywords().count(toks[k].text) != 0) {
        continue;
      }
      // `Type name`, `Type& name`, `auto name`: a declaration inside the
      // body makes `name` task-local (bench_fig09's `Rng rng(seed + d)`
      // idiom is deterministic — the stream derives from the task index).
      std::size_t m = k + 1;
      while (m < body_close &&
             (toks[m].text == "&" || toks[m].text == "*" ||
              toks[m].text == "const")) {
        ++m;
      }
      if (m < body_close && toks[m].kind == Token::Kind::kIdent &&
          m + 1 < body_close &&
          (toks[m + 1].text == "=" || toks[m + 1].text == "(" ||
           toks[m + 1].text == "{" || toks[m + 1].text == ";")) {
        locals.insert(toks[m].text);
      }
    }
    for (std::size_t k = body_open + 1; k + 3 < body_close; ++k) {
      if (toks[k].kind == Token::Kind::kIdent &&
          rng_vars.count(toks[k].text) != 0 &&
          locals.count(toks[k].text) == 0 &&
          (toks[k + 1].text == "." || toks[k + 1].text == "->") &&
          toks[k + 2].kind == Token::Kind::kIdent &&
          kDraws.count(toks[k + 2].text) != 0 && toks[k + 3].text == "(") {
        out.push_back(
            {ctx.display_path, toks[k].line, "parallel-rng-stream",
             "'" + toks[k].text + "." + toks[k + 2].text + "(...)' inside a " +
                 toks[i].text + " task body draws from a stream that is not "
                 "derived per task; results depend on scheduling and break "
                 "thread-count invariance",
             "derive a task-local stream first (auto child = base.fork(i);) "
             "and draw from it"});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Shared-state scan. global-mutable-state is the inventory of shared mutable
// state: every non-const namespace-scope or static-local variable in src/
// must be const, thread-confined (thread_local / sync primitives), or
// justified via allow. Whether a parallel task actually reaches it is left
// to the runtime thread-count and TSan gates.

/// std sync primitives whose namespace-scope instances are coordination, not
/// observable state: a mutex cannot leak scheduling order into metrics.
const std::set<std::string>& sync_type_names() {
  static const std::set<std::string> kSync = {
      "mutex",          "recursive_mutex",
      "shared_mutex",   "timed_mutex",
      "recursive_timed_mutex", "condition_variable",
      "condition_variable_any", "once_flag",
      "atomic_flag"};
  return kSync;
}

struct GlobalDecl {
  std::string name;
  int line = 0;
  bool static_local = false;  // function-local static vs namespace scope
};

/// Collects mutable (non-const, non-thread-confined) namespace-scope and
/// static-local variable definitions. A hand-rolled scope tracker classifies
/// each `{`: namespace bodies stay at namespace scope, class/enum bodies are
/// member scope (data members are per-object state, not globals), everything
/// else — function bodies, initializers — is block scope, where only
/// `static` declarations are of interest. Ambiguous shapes (most-vexing
/// parse, function pointers, macro invocations) resolve to silence: this
/// feeds a build-failing gate, so false negatives beat false positives.
void collect_globals(const std::vector<Token>& toks,
                     std::vector<GlobalDecl>& out) {
  enum class Scope { kNamespace, kClass, kEnum, kBlock };
  std::vector<Scope> stack;
  const auto at_namespace = [&] {
    return stack.empty() || stack.back() == Scope::kNamespace;
  };

  static const std::set<std::string> kNotADecl = {
      "using",  "typedef", "namespace", "friend",   "template",
      "static_assert",     "extern",    "goto",     "return",
      "if",     "while",   "for",       "do",       "switch",
      "case",   "break",   "continue",  "throw",    "delete",
      "operator", "public", "private",  "protected", "class",
      "struct", "union",   "enum",      "asm",      "new"};

  // Analyzes the statement chunk [b, e) as a potential variable definition
  // and appends a GlobalDecl when it declares mutable non-exempt state.
  const auto analyze = [&](std::size_t b, std::size_t e, bool static_local) {
    while (b < e && toks[b].kind == Token::Kind::kIdent &&
           (toks[b].text == "static" || toks[b].text == "inline")) {
      ++b;
    }
    if (b >= e || toks[b].kind != Token::Kind::kIdent) return;
    if (kNotADecl.count(toks[b].text) != 0) return;
    // Cut the initializer: the declaration part ends at the first '=' that
    // is outside parentheses/brackets (template '<' is not tracked — a '='
    // inside template arguments would only make the check quieter).
    int depth = 0;
    std::size_t stop = e;
    for (std::size_t j = b; j < e; ++j) {
      if (toks[j].kind != Token::Kind::kPunct) continue;
      const std::string& t = toks[j].text;
      if (t == "(" || t == "[" || t == "{") ++depth;
      if (t == ")" || t == "]" || t == "}") --depth;
      if (t == "=" && depth == 0) {
        stop = j;
        break;
      }
    }
    if (stop - b < 2) return;  // a lone identifier is never a definition
    // Exemptions: const-qualified, thread-confined, or a sync primitive.
    for (std::size_t j = b; j < stop; ++j) {
      if (toks[j].kind != Token::Kind::kIdent) continue;
      const std::string& t = toks[j].text;
      if (t == "const" || t == "constexpr" || t == "thread_local" ||
          sync_type_names().count(t) != 0) {
        return;
      }
      if (t == "operator") return;
    }
    // Name resolution: with a parameter-ish '(' the candidate is either a
    // function declaration (all chunks declaration-shaped — skip) or a
    // constructor-initialized variable (expression-shaped args — flag).
    std::size_t paren = kNpos;
    depth = 0;
    for (std::size_t j = b; j < stop; ++j) {
      if (toks[j].kind != Token::Kind::kPunct) continue;
      const std::string& t = toks[j].text;
      if (t == "(" && depth == 0) {
        paren = j;
        break;
      }
      if (t == "[" || t == "{") ++depth;
      if (t == "]" || t == "}") --depth;
    }
    std::size_t name_idx = kNpos;
    if (paren != kNpos) {
      if (paren == b || toks[paren - 1].kind != Token::Kind::kIdent) return;
      name_idx = paren - 1;
      const std::size_t close = find_match(toks, paren, "(", ")", stop + 1);
      bool all_decl_shaped = true;
      if (close != kNpos && close > paren + 1) {
        for (const auto& [cb, ce] : split_args(toks, paren + 1, close)) {
          if (cb >= ce || !decl_chunk(toks, cb, ce)) {
            all_decl_shaped = false;
            break;
          }
        }
      }
      if (all_decl_shaped) return;  // function declaration, not a variable
    } else {
      for (std::size_t j = stop; j > b;) {
        --j;
        if (toks[j].kind == Token::Kind::kIdent) {
          name_idx = j;
          break;
        }
        if (toks[j].kind == Token::Kind::kPunct &&
            (toks[j].text == "]" || toks[j].text == "[")) {
          continue;  // array extents sit after the name
        }
        if (toks[j].kind != Token::Kind::kNumber) return;
      }
    }
    if (name_idx == kNpos) return;
    const std::string& name = toks[name_idx].text;
    if (kNotADecl.count(name) != 0 || non_type_keywords().count(name) != 0) {
      return;
    }
    out.push_back({name, toks[name_idx].line, static_local});
  };

  std::size_t stmt = 0;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind == Token::Kind::kPunct && t.text == "#") {
      // Preprocessor directive: consume the physical line.
      const int line = t.line;
      while (i + 1 < toks.size() && toks[i + 1].line == line) ++i;
      stmt = i + 1;
      continue;
    }
    if (t.kind == Token::Kind::kIdent && t.text == "static" &&
        !stack.empty() && stack.back() == Scope::kBlock) {
      // Static local. Scan to the statement's ';' (balanced through any
      // braced initializer) and analyze; the cap bounds pathological input.
      int depth = 0;
      std::size_t semi = kNpos;
      const std::size_t cap = std::min(toks.size(), i + 96);
      for (std::size_t j = i + 1; j < cap; ++j) {
        if (toks[j].kind != Token::Kind::kPunct) continue;
        const std::string& p = toks[j].text;
        if (p == "(" || p == "[" || p == "{") ++depth;
        if (p == ")" || p == "]" || p == "}") --depth;
        if (p == ";" && depth == 0) {
          semi = j;
          break;
        }
      }
      if (semi != kNpos) {
        analyze(i + 1, semi, /*static_local=*/true);
        i = semi;
        stmt = i + 1;
      }
      continue;
    }
    if (t.kind != Token::Kind::kPunct) continue;
    if (t.text == "{") {
      // Classify the brace from its header chunk [stmt, i).
      bool is_init = false;
      int depth = 0;
      for (std::size_t j = stmt; j < i; ++j) {
        if (toks[j].kind != Token::Kind::kPunct) continue;
        const std::string& p = toks[j].text;
        if (p == "(" || p == "[") ++depth;
        if (p == ")" || p == "]") --depth;
        if (p == "=" && depth == 0) is_init = true;
      }
      if (is_init) {
        // Braced initializer: skip it; the statement continues to ';'.
        const std::size_t close = find_match(toks, i, "{", "}", toks.size());
        if (close == kNpos) return;
        i = close;
        continue;
      }
      Scope kind = Scope::kBlock;
      bool has_paren = false;
      for (std::size_t j = stmt; j < i; ++j) {
        if (toks[j].kind == Token::Kind::kPunct && toks[j].text == "(") {
          has_paren = true;
        }
      }
      for (std::size_t j = stmt; j < i && !has_paren; ++j) {
        if (toks[j].kind != Token::Kind::kIdent) continue;
        const std::string& w = toks[j].text;
        if (w == "namespace") {
          kind = Scope::kNamespace;
          break;
        }
        if (w == "class" || w == "struct" || w == "union") {
          kind = Scope::kClass;
          break;
        }
        if (w == "enum") {
          kind = Scope::kEnum;
          break;
        }
      }
      stack.push_back(kind);
      stmt = i + 1;
      continue;
    }
    if (t.text == "}") {
      if (!stack.empty()) stack.pop_back();
      stmt = i + 1;
      continue;
    }
    if (t.text == ";") {
      if (at_namespace()) analyze(stmt, i, /*static_local=*/false);
      stmt = i + 1;
    }
  }
}

// ---------------------------------------------------------------------------
// Function definitions: body ranges for the checkpoint/restore pairing.

struct FuncDef {
  std::string name;
  int line = 0;
  std::size_t body_open = 0;
  std::size_t body_close = 0;
  int arity = 0;
  std::size_t name_tok = 0;  // token index of the name (definition order)
};

/// Function definitions: `name(params) [const|noexcept|...]* [-> type] {`.
/// Declaration-shaped parameters and a plausible return-type context before
/// the name keep call sites out.
void collect_function_defs(const std::vector<Token>& toks,
                           std::vector<FuncDef>& out) {
  for (std::size_t i = 1; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != Token::Kind::kIdent || toks[i + 1].text != "(") {
      continue;
    }
    const std::string& name = toks[i].text;
    if (non_type_keywords().count(name) != 0) continue;
    const Token& prev = toks[i - 1];
    const bool prev_ok =
        (prev.kind == Token::Kind::kIdent &&
         non_type_keywords().count(prev.text) == 0) ||
        (prev.kind == Token::Kind::kPunct &&
         (prev.text == "&" || prev.text == "*" || prev.text == ">" ||
          prev.text == "::"));
    if (!prev_ok) continue;
    if (prev.text == "::" && i >= 2 && toks[i - 2].text == "std") continue;
    const std::size_t close = find_match(toks, i + 1, "(", ")", toks.size());
    if (close == kNpos || close + 1 >= toks.size()) continue;

    FuncDef def;
    bool shaped = true;
    if (close > i + 2) {
      for (const auto& [cb, ce] : split_args(toks, i + 2, close)) {
        if (cb >= ce || !decl_chunk(toks, cb, ce)) {
          shaped = false;
          break;
        }
        ++def.arity;
      }
    }
    if (!shaped) continue;
    // Walk past trailing specifiers to the body brace; a ';' means this was
    // only a declaration.
    std::size_t j = close + 1;
    while (j < toks.size() && toks[j].kind == Token::Kind::kIdent &&
           (toks[j].text == "const" || toks[j].text == "noexcept" ||
            toks[j].text == "override" || toks[j].text == "final" ||
            toks[j].text == "mutable")) {
      ++j;
    }
    if (j < toks.size() && toks[j].text == "->") {
      const std::size_t cap = std::min(toks.size(), j + 24);
      while (j < cap && toks[j].text != "{" && toks[j].text != ";") ++j;
    }
    if (j >= toks.size() || toks[j].text != "{") continue;
    def.body_open = j;
    def.body_close = find_match(toks, j, "{", "}", toks.size());
    if (def.body_close == kNpos) continue;
    def.name = name;
    def.name_tok = i;
    def.line = toks[i].line;
    out.push_back(std::move(def));
  }
}

// ---------------------------------------------------------------------------
// Checks over the declaration and function scans.

/// global-mutable-state: the inventory findings. Scoped to src/ virtual
/// paths — bench/tools mains are single-threaded drivers, and the figures'
/// parallel regions are covered by the thread-count byte-identity tests.
void check_global_state(const FileContext& ctx, const std::string& vpath,
                        const std::vector<GlobalDecl>& globals,
                        std::vector<Finding>& out) {
  if (vpath.rfind("src/", 0) != 0) return;
  for (const auto& g : globals) {
    const std::string kind =
        g.static_local ? "function-local static" : "namespace-scope";
    out.push_back(
        {ctx.display_path, g.line, "global-mutable-state",
         kind + " mutable variable '" + g.name + "' is shared state the "
         "multi-UE scheduler refactor cannot reason about; any parallel task "
         "reaching it through a call chain races",
         "const-qualify it, confine it with thread_local, or justify with "
         "// wild5g-lint: allow(global-mutable-state) <why>"});
  }
}

// ---------------------------------------------------------------------------
// Layering. The include DAG over src/ modules must flow strictly downward:
// a module may include core, itself, and any module of strictly lower rank.
// The ranks encode the ISSUE constraints (core at the bottom, sim below
// radio/net/abr/web, bench/ never included from src/) and the current
// dependency structure of the tree; adding an edge that violates them is a
// design decision that belongs in DESIGN.md, not an accident.

const std::map<std::string, int>& layer_ranks() {
  static const std::map<std::string, int> kRanks = {
      {"core", 0},     {"geo", 1},       {"sim", 1},
      {"radio", 2},    {"ml", 2},        {"mobility", 2},
      {"transport", 2}, {"rrc", 3},      {"faults", 3},
      {"net", 4},      {"power", 4},     {"metro", 4},
      {"traces", 5},   {"engine", 5},    {"abr", 6},
      {"web", 6}};
  return kRanks;
}

struct IncludeRef {
  std::string target;  // the quoted include text, verbatim
  int line;
};

std::vector<IncludeRef> collect_includes(const std::vector<Token>& toks) {
  std::vector<IncludeRef> out;
  for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
    if (toks[i].kind == Token::Kind::kPunct && toks[i].text == "#" &&
        toks[i + 1].kind == Token::Kind::kIdent &&
        toks[i + 1].text == "include" &&
        toks[i + 2].kind == Token::Kind::kString &&
        toks[i + 2].line == toks[i].line) {
      out.push_back({toks[i + 2].text, toks[i].line});
    }
  }
  return out;
}

/// Repo-relative "virtual path" starting at the last src/bench/tools/
/// examples path component, so fixtures under tests/lint_fixtures/src/...
/// are laid out exactly like tree files. Empty when the file lives under
/// none of the lintable roots (layering does not apply there).
std::string virtual_path(const fs::path& path) {
  std::vector<std::string> parts;
  for (const auto& comp : path) parts.push_back(comp.generic_string());
  std::size_t start = parts.size();
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (parts[i] == "src" || parts[i] == "bench" || parts[i] == "tools" ||
        parts[i] == "examples") {
      start = i;
    }
  }
  if (start == parts.size()) return {};
  std::string out;
  for (std::size_t i = start; i < parts.size(); ++i) {
    if (!out.empty()) out += '/';
    out += parts[i];
  }
  return out;
}

/// The src/ module of a virtual path ("core", "radio", ...) or "" for
/// bench/tools/examples files and unknown layouts.
std::string src_module_of(const std::string& vpath) {
  if (vpath.rfind("src/", 0) != 0) return {};
  const std::size_t slash = vpath.find('/', 4);
  if (slash == std::string::npos) return {};
  return vpath.substr(4, slash - 4);
}

// ---------------------------------------------------------------------------
// Driver: two passes over the tree. Pass 1 loads and lexes every file and
// gathers per-file facts (includes, Rng names, mutable globals). Pass 2 runs
// the per-file checks, then the include graph is checked for layering
// violations and cycles, and finally suppression directives are applied per
// file.

struct FileUnit {
  fs::path path;
  FileContext ctx;
  LexedFile lexed;
  std::set<int> token_lines;
  std::vector<Allow> allows;
  std::vector<Finding> meta;  // directive problems; never suppressible
  std::vector<Finding> raw;   // rule findings, pre-suppression
  std::string vpath;          // repo-relative layout ("" when unknown)
  std::string src_module;     // "core", "radio", ... ("" outside src/)
  std::vector<IncludeRef> includes;
  std::set<std::string> rng_vars;
  std::vector<std::string> lines;    // raw physical lines, for fingerprints
  std::vector<GlobalDecl> globals;   // mutable global/static inventory
  std::vector<FuncDef> funcs;        // function definitions (per run)
  bool io_error = false;
};

bool path_ends_with(const fs::path& path, std::string_view suffix) {
  const std::string generic = path.generic_string();
  return generic.size() >= suffix.size() &&
         generic.compare(generic.size() - suffix.size(), suffix.size(),
                         suffix) == 0;
}

// Lex-cache telemetry, surfaced in --json so the analyzer-scale test can
// assert shared files are lexed once per path even when scan roots overlap.
int g_files_lexed = 0;
int g_lex_cache_hits = 0;

FileUnit load_file(const fs::path& path) {
  // Everything in a FileUnit at load time is a pure function of the file
  // path and contents (funcs/raw/meta are filled later, per run), so a
  // display-path-keyed copy cache is exact. Overlapping scan roots hit it;
  // the counters feed --json.
  static std::map<std::string, FileUnit> cache;
  const std::string cache_key = path.lexically_normal().generic_string();
  const auto hit = cache.find(cache_key);
  if (hit != cache.end()) {
    ++g_lex_cache_hits;
    return hit->second;
  }
  ++g_files_lexed;
  FileUnit unit;
  unit.path = path;
  unit.ctx.display_path = path.lexically_normal().generic_string();
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    unit.io_error = true;
    unit.meta.push_back(
        {unit.ctx.display_path, 0, "io-error", "cannot open file", {}});
    return unit;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string raw_text = buffer.str();

  unit.ctx.is_rng_header = path_ends_with(path, "src/core/rng.h");
  unit.ctx.feeds_metrics =
      raw_text.find("#include \"core/json.h\"") != std::string::npos ||
      raw_text.find("#include \"bench_common.h\"") != std::string::npos ||
      path_ends_with(path, "bench/bench_common.h") ||
      path_ends_with(path, "src/core/json.h");
  // Path suffixes where a silent catch (...) is deliberate. Empty today —
  // every swallow in the tree must rethrow, store, or report; add a suffix
  // here (with a comment saying why) before exempting a whole file.
  static constexpr std::array<std::string_view, 0> kSwallowAllowed = {};
  unit.ctx.swallow_allowed = std::any_of(
      kSwallowAllowed.begin(), kSwallowAllowed.end(),
      [&](std::string_view suffix) { return path_ends_with(path, suffix); });

  const Source spliced = splice(raw_text);
  unit.lexed = lex(spliced);
  for (const auto& tok : unit.lexed.tokens) unit.token_lines.insert(tok.line);
  collect_allows(unit.lexed, unit.ctx.display_path, unit.allows, unit.meta);
  unit.vpath = virtual_path(path);
  unit.src_module = src_module_of(unit.vpath);
  unit.ctx.in_bench = unit.vpath.rfind("bench/", 0) == 0;
  unit.includes = collect_includes(unit.lexed.tokens);
  unit.rng_vars = collect_rng_vars(unit.lexed.tokens);
  collect_globals(unit.lexed.tokens, unit.globals);
  // Raw physical lines back the --baseline fingerprints: a finding keeps its
  // identity across pure line-number drift (code added above it) but not
  // across edits to the flagged line itself.
  std::string line;
  std::istringstream line_in(raw_text);
  while (std::getline(line_in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    unit.lines.push_back(line);
  }
  cache.emplace(cache_key, unit);
  return unit;
}

/// Stable finding identity for --baseline: rule | virtual path (falling back
/// to the bare filename outside the lintable roots) | the flagged source
/// line with every whitespace byte removed.
std::string fingerprint_of(const FileUnit& unit, const Finding& f) {
  const std::string vkey =
      unit.vpath.empty() ? unit.path.filename().generic_string() : unit.vpath;
  std::string norm;
  if (f.line >= 1 && static_cast<std::size_t>(f.line) <= unit.lines.size()) {
    for (const char c : unit.lines[static_cast<std::size_t>(f.line) - 1]) {
      if (c != ' ' && c != '\t' && c != '\r' && c != '\f' && c != '\v') {
        norm += c;
      }
    }
  }
  return f.rule + "|" + vkey + "|" + norm;
}

// ---------------------------------------------------------------------------
// checkpoint-restore-symmetry: every state key a checkpoint_state() body
// serializes must be read by the paired restore_state() in the same file,
// and vice versa. Pairs are matched in definition order over the function
// definitions collected for this file (unit.funcs).

void check_checkpoint_symmetry(FileUnit& unit) {
  const auto& toks = unit.lexed.tokens;
  std::vector<FuncDef*> ckpts;
  std::vector<FuncDef*> rsts;
  for (auto& def : unit.funcs) {
    if (def.name == "checkpoint_state" && def.arity == 0) {
      ckpts.push_back(&def);
    }
    if (def.name == "restore_state" && def.arity == 1) {
      rsts.push_back(&def);
    }
  }
  const auto by_tok = [](const FuncDef* a, const FuncDef* b) {
    return a->name_tok < b->name_tok;
  };
  std::sort(ckpts.begin(), ckpts.end(), by_tok);
  std::sort(rsts.begin(), rsts.end(), by_tok);
  const std::size_t pairs = std::min(ckpts.size(), rsts.size());
  for (std::size_t p = 0; p < pairs; ++p) {
    const FuncDef& c = *ckpts[p];
    const FuncDef& r = *rsts[p];
    // Keys written: first string argument of every `.set("key", ...)`.
    std::vector<std::pair<std::string, int>> ckpt_keys;
    for (std::size_t j = c.body_open; j + 3 < c.body_close; ++j) {
      if ((toks[j].text == "." || toks[j].text == "->") &&
          toks[j + 1].text == "set" && toks[j + 2].text == "(" &&
          toks[j + 3].kind == Token::Kind::kString) {
        ckpt_keys.push_back({toks[j + 3].text, toks[j + 1].line});
      }
    }
    // Keys read: first string argument inside find/state_field/state_count
    // call parens (skipping non-string leading args like the state ref).
    std::vector<std::pair<std::string, int>> rst_keys;
    for (std::size_t j = r.body_open; j + 1 < r.body_close; ++j) {
      if (toks[j].kind != Token::Kind::kIdent ||
          (toks[j].text != "find" && toks[j].text != "state_field" &&
           toks[j].text != "state_count") ||
          toks[j + 1].text != "(") {
        continue;
      }
      const std::size_t close =
          find_match(toks, j + 1, "(", ")", r.body_close + 1);
      if (close == kNpos) continue;
      for (std::size_t k = j + 2; k < close; ++k) {
        if (toks[k].kind == Token::Kind::kString) {
          rst_keys.push_back({toks[k].text, toks[j].line});
          break;
        }
      }
    }
    std::set<std::string> ckpt_strings;
    for (std::size_t j = c.body_open; j < c.body_close; ++j) {
      if (toks[j].kind == Token::Kind::kString) {
        ckpt_strings.insert(toks[j].text);
      }
    }
    std::set<std::string> rst_strings;
    for (std::size_t j = r.body_open; j < r.body_close; ++j) {
      if (toks[j].kind == Token::Kind::kString) {
        rst_strings.insert(toks[j].text);
      }
    }
    std::set<std::string> seen;
    for (const auto& [key, line] : ckpt_keys) {
      if (rst_strings.count(key) == 0 && seen.insert(key).second) {
        unit.raw.push_back(
            {unit.ctx.display_path, line, "checkpoint-restore-symmetry",
             "checkpoint_state serializes '" + key +
                 "' but the paired restore_state (" + unit.ctx.display_path +
                 ":" + std::to_string(r.line) +
                 ") never reads it; resume silently drops the field",
             "read '" + key + "' in restore_state (same string literal)"});
      }
    }
    for (const auto& [key, line] : rst_keys) {
      if (ckpt_strings.count(key) == 0 && seen.insert(key).second) {
        unit.raw.push_back(
            {unit.ctx.display_path, line, "checkpoint-restore-symmetry",
             "restore_state reads '" + key +
                 "' but the paired checkpoint_state (" +
                 unit.ctx.display_path + ":" + std::to_string(c.line) +
                 ") never writes it; the read sees a default, not state",
             "write '" + key + "' in checkpoint_state (same string "
             "literal)"});
      }
    }
  }
}

/// layering: per-file check of include edges against the module ranks. The
/// target module is read off the include text itself (first path component),
/// so the rule works even when the included file is outside the scan set.
void check_layering(FileUnit& unit) {
  if (unit.src_module.empty()) return;
  const auto& ranks = layer_ranks();
  const auto from = ranks.find(unit.src_module);
  if (from == ranks.end()) return;
  for (const auto& inc : unit.includes) {
    if (inc.target == "bench_common.h" ||
        inc.target.rfind("bench/", 0) == 0) {
      unit.raw.push_back(
          {unit.ctx.display_path, inc.line, "layering",
           "src/" + unit.src_module + " includes bench/ header \"" +
               inc.target + "\"; bench/ sits above every src/ layer and is "
               "never included from src/",
           {}});
      continue;
    }
    const std::size_t slash = inc.target.find('/');
    if (slash == std::string::npos) continue;
    const std::string head = inc.target.substr(0, slash);
    const auto to = ranks.find(head);
    if (to == ranks.end()) continue;
    if (head == unit.src_module || to->second < from->second) continue;
    std::string message = "src/" + unit.src_module + " (layer " +
                          std::to_string(from->second) + ") includes src/" +
                          head + " (layer " + std::to_string(to->second) +
                          "); the include DAG flows strictly downward";
    if (unit.src_module == "core") {
      message += " — src/core depends on nothing outside core";
    } else {
      message += "; move the shared code into a lower layer or invert the "
                 "dependency";
    }
    unit.raw.push_back(
        {unit.ctx.display_path, inc.line, "layering", std::move(message), {}});
  }
}

/// include-cycle: DFS over the include graph restricted to scanned files.
/// Includes are resolved against virtual paths (repo-root-relative first,
/// then bench/, then verbatim, then sibling), so the graph matches what the
/// compiler sees under the tree's -I roots. Each back edge is one finding,
/// attached to the #include line that closes the cycle.
void check_cycles(std::vector<FileUnit>& units) {
  std::map<std::string, FileUnit*> by_vpath;
  for (auto& unit : units) {
    if (!unit.vpath.empty()) by_vpath.emplace(unit.vpath, &unit);
  }
  struct Edge {
    std::string to;
    int line;
  };
  std::map<std::string, std::vector<Edge>> graph;
  for (const auto& [vpath, unit] : by_vpath) {
    const std::string dir = vpath.substr(0, vpath.rfind('/'));
    for (const auto& inc : unit->includes) {
      const std::array<std::string, 4> candidates = {
          "src/" + inc.target, "bench/" + inc.target, inc.target,
          dir + "/" + inc.target};
      for (const auto& candidate : candidates) {
        if (by_vpath.count(candidate) != 0) {
          graph[vpath].push_back({candidate, inc.line});
          break;
        }
      }
    }
  }
  std::map<std::string, int> color;  // 0 = new, 1 = on stack, 2 = done
  std::vector<std::string> stack;
  const std::function<void(const std::string&)> dfs =
      [&](const std::string& vpath) {
        color[vpath] = 1;
        stack.push_back(vpath);
        for (const auto& edge : graph[vpath]) {
          if (color[edge.to] == 1) {
            std::string cycle;
            const auto at = std::find(stack.begin(), stack.end(), edge.to);
            for (auto it = at; it != stack.end(); ++it) {
              cycle += *it + " -> ";
            }
            cycle += edge.to;
            FileUnit* unit = by_vpath[vpath];
            unit->raw.push_back(
                {unit->ctx.display_path, edge.line, "include-cycle",
                 "#include \"" + edge.to.substr(edge.to.find('/') + 1) +
                     "\" closes an include cycle: " + cycle,
                 {}});
          } else if (color[edge.to] == 0) {
            dfs(edge.to);
          }
        }
        stack.pop_back();
        color[vpath] = 2;
      };
  for (const auto& [vpath, unit] : by_vpath) {
    (void)unit;
    if (color[vpath] == 0) dfs(vpath);
  }
}

std::vector<Finding> run_checks(std::vector<FileUnit>& units) {
  for (auto& unit : units) {
    if (unit.io_error) continue;
    const auto& toks = unit.lexed.tokens;
    collect_function_defs(toks, unit.funcs);
    check_banned_idents(toks, unit.ctx, unit.raw);
    check_float_equality(toks, unit.ctx, unit.raw);
    check_printf_float(toks, unit.ctx, unit.raw);
    check_catch_swallow(toks, unit.ctx, unit.raw);
    check_sample_hoard(toks, unit.ctx, unit.raw);
    check_engine_blocking(toks, unit.ctx, unit.vpath, unit.raw);
    check_unordered_iteration(toks, unit.ctx, unit.raw);
    check_parallel_rng(toks, unit.ctx, unit.rng_vars, unit.raw);
    check_global_state(unit.ctx, unit.vpath, unit.globals, unit.raw);
    check_checkpoint_symmetry(unit);
    check_layering(unit);
  }
  check_cycles(units);

  std::vector<Finding> findings;
  for (auto& unit : units) {
    std::vector<Finding> kept = std::move(unit.meta);
    for (auto& f : unit.raw) {
      if (!suppressed(unit.allows, unit.token_lines, f)) {
        kept.push_back(std::move(f));
      }
    }
    for (auto& f : kept) f.fingerprint = fingerprint_of(unit, f);
    std::sort(kept.begin(), kept.end(),
              [](const Finding& a, const Finding& b) {
                return std::tie(a.line, a.rule) < std::tie(b.line, b.rule);
              });
    findings.insert(findings.end(), std::make_move_iterator(kept.begin()),
                    std::make_move_iterator(kept.end()));
  }
  return findings;
}

bool lintable(const fs::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".h" || ext == ".hpp" || ext == ".cpp" || ext == ".cc" ||
         ext == ".cxx";
}

// ---------------------------------------------------------------------------
// Output formats.

namespace json = wild5g::json;

json::Value findings_json(const std::vector<Finding>& findings,
                          std::size_t files_scanned) {
  json::Value doc = json::Value::object();
  json::Value list = json::Value::array();
  for (const auto& f : findings) {
    json::Value entry = json::Value::object();
    entry.set("file", f.file);
    entry.set("line", static_cast<std::int64_t>(f.line));
    entry.set("rule", f.rule);
    entry.set("message", f.message);
    if (!f.fixit.empty()) entry.set("fixit", f.fixit);
    list.push_back(std::move(entry));
  }
  doc.set("files_scanned", static_cast<std::int64_t>(files_scanned));
  doc.set("files_lexed", static_cast<std::int64_t>(g_files_lexed));
  doc.set("lex_cache_hits", static_cast<std::int64_t>(g_lex_cache_hits));
  doc.set("count", static_cast<std::int64_t>(findings.size()));
  doc.set("findings", std::move(list));
  return doc;
}

/// SARIF 2.1.0 in the shape GitHub code scanning consumes: one run, the full
/// rule registry under tool.driver.rules, one result per finding with
/// ruleId/ruleIndex/level/message/physicalLocation. Unregistered diagnostics
/// (io-error) carry a ruleId but no ruleIndex.
json::Value sarif_json(const std::vector<Finding>& findings) {
  json::Value rules = json::Value::array();
  for (const auto& rule : kRules) {
    json::Value entry = json::Value::object();
    entry.set("id", std::string(rule.id));
    json::Value short_desc = json::Value::object();
    short_desc.set("text", std::string(rule.summary));
    entry.set("shortDescription", std::move(short_desc));
    json::Value config = json::Value::object();
    config.set("level", "error");
    entry.set("defaultConfiguration", std::move(config));
    json::Value props = json::Value::object();
    props.set("family", std::string(rule.family));
    entry.set("properties", std::move(props));
    rules.push_back(std::move(entry));
  }
  json::Value driver = json::Value::object();
  driver.set("name", "wild5g-lint");
  driver.set("version", "2.0.0");
  driver.set("rules", std::move(rules));
  json::Value tool = json::Value::object();
  tool.set("driver", std::move(driver));

  json::Value results = json::Value::array();
  for (const auto& f : findings) {
    json::Value result = json::Value::object();
    result.set("ruleId", f.rule);
    const int index = rule_index(f.rule);
    if (index >= 0) result.set("ruleIndex", static_cast<std::int64_t>(index));
    result.set("level", "error");
    json::Value message = json::Value::object();
    message.set("text", f.fixit.empty() ? f.message
                                        : f.message + " (fix: " + f.fixit +
                                              ")");
    result.set("message", std::move(message));
    json::Value artifact = json::Value::object();
    artifact.set("uri", f.file);
    json::Value region = json::Value::object();
    region.set("startLine", static_cast<std::int64_t>(std::max(f.line, 1)));
    json::Value physical = json::Value::object();
    physical.set("artifactLocation", std::move(artifact));
    physical.set("region", std::move(region));
    json::Value location = json::Value::object();
    location.set("physicalLocation", std::move(physical));
    json::Value locations = json::Value::array();
    locations.push_back(std::move(location));
    result.set("locations", std::move(locations));
    if (!f.fingerprint.empty()) {
      json::Value prints = json::Value::object();
      prints.set("wild5gFingerprint/v1", f.fingerprint);
      result.set("partialFingerprints", std::move(prints));
    }
    results.push_back(std::move(result));
  }

  json::Value run = json::Value::object();
  run.set("tool", std::move(tool));
  run.set("results", std::move(results));
  json::Value runs = json::Value::array();
  runs.push_back(std::move(run));
  json::Value doc = json::Value::object();
  doc.set("$schema", "https://json.schemastore.org/sarif-2.1.0.json");
  doc.set("version", "2.1.0");
  doc.set("runs", std::move(runs));
  return doc;
}

json::Value rules_json() {
  json::Value list = json::Value::array();
  for (const auto& rule : kRules) {
    json::Value entry = json::Value::object();
    entry.set("id", std::string(rule.id));
    entry.set("family", std::string(rule.family));
    entry.set("summary", std::string(rule.summary));
    if (!rule.fixit.empty()) entry.set("fixit", std::string(rule.fixit));
    list.push_back(std::move(entry));
  }
  json::Value doc = json::Value::object();
  doc.set("count", static_cast<std::int64_t>(kRules.size()));
  doc.set("rules", std::move(list));
  return doc;
}

/// The markdown behind docs/LINT_RULES.md. Generated so the doc can never
/// drift from the registry: ctest (lint.rules_doc_is_fresh) compares the
/// committed file against this output byte for byte.
std::string rules_doc_markdown() {
  std::ostringstream os;
  os << "<!-- GENERATED FILE - do not edit by hand.\n"
        "     Regenerate with:  ./build/tools/wild5g_lint --rules-doc > "
        "docs/LINT_RULES.md\n"
        "     The lint.rules_doc_is_fresh test fails while this file is "
        "stale. -->\n\n";
  os << "# wild5g-lint rule reference\n\n";
  os << "wild5g-lint (tools/wild5g_lint.cpp) statically enforces the repo's "
        "determinism\nand layering contracts over `src/`, `bench/`, `tools/`, "
        "and `examples/`. It\nexits 0 on a clean tree, 1 when any finding "
        "survives suppression, and 2 on\nusage or I/O errors. Its checks are "
        "per file and lexical; a parallel task that\nreaches shared state "
        "through a call chain is caught at runtime instead, by the\n"
        "per-bench thread-count byte-identity tests and the TSan lane "
        "(DESIGN.md §8).\n\n";
  os << "Suppress a finding with a justified directive comment on the same "
        "line or the\nline(s) directly above it:\n\n"
        "```cpp\n"
        "// wild5g-lint: allow(<rule>) <why this construct is safe here>\n"
        "```\n\n";
  os << "Machine-readable forms: `--list-rules --json` (this table as "
        "JSON),\n`--json` (findings), `--sarif <path>` (SARIF 2.1.0 for "
        "GitHub code scanning).\nRatchet mode: `--baseline <sarif>` fails "
        "only on findings whose fingerprint\n(rule | virtual path | "
        "whitespace-stripped source line) is absent from the\ncommitted "
        "baseline.\n";
  for (const auto& family : kFamilies) {
    os << "\n## " << family << "\n\n";
    os << "| rule | summary | fix-it |\n";
    os << "| --- | --- | --- |\n";
    for (const auto& rule : kRules) {
      if (rule.family != family) continue;
      os << "| `" << rule.id << "` | " << rule.summary << " | "
         << (rule.fixit.empty() ? std::string_view{"-"} : rule.fixit)
         << " |\n";
    }
  }
  return os.str();
}

int usage() {
  std::cerr << "usage: wild5g_lint [--json] [--sarif <path>] "
               "[--baseline <sarif>]\n"
               "                   [--list-rules] [--rules-doc] "
               "<file-or-dir>...\n";
  return 2;
}

/// Loads the fingerprint multiset from a committed baseline SARIF log (one
/// produced by --sarif). Results without a wild5gFingerprint/v1 entry are
/// ignored — they can never match, so they simply do not ratchet.
bool load_baseline(const std::string& path,
                   std::map<std::string, int>& fingerprints) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  json::Value doc;
  try {
    doc = json::parse(buffer.str());
  } catch (const std::exception&) {
    return false;
  }
  const json::Value* runs = doc.find("runs");
  if (runs == nullptr || !runs->is_array()) return false;
  for (const json::Value& run : runs->as_array()) {
    const json::Value* results = run.find("results");
    if (results == nullptr || !results->is_array()) continue;
    for (const json::Value& result : results->as_array()) {
      const json::Value* prints = result.find("partialFingerprints");
      if (prints == nullptr) continue;
      const json::Value* fp = prints->find("wild5gFingerprint/v1");
      if (fp != nullptr && fp->is_string()) ++fingerprints[fp->as_string()];
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool as_json = false;
  bool list_rules = false;
  bool rules_doc = false;
  std::string sarif_path;
  std::string baseline_path;
  std::vector<fs::path> roots;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      as_json = true;
    } else if (arg == "--list-rules") {
      list_rules = true;
    } else if (arg == "--rules-doc") {
      rules_doc = true;
    } else if (arg == "--sarif") {
      if (i + 1 >= argc) {
        std::cerr << "wild5g_lint: --sarif requires a path\n";
        return usage();
      }
      sarif_path = argv[++i];
    } else if (arg == "--baseline") {
      if (i + 1 >= argc) {
        std::cerr << "wild5g_lint: --baseline requires a SARIF path\n";
        return usage();
      }
      baseline_path = argv[++i];
    } else if (arg == "--help" || arg == "-h") {
      return usage();
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "wild5g_lint: unknown flag '" << arg << "'\n";
      return usage();
    } else {
      roots.emplace_back(arg);
    }
  }
  if (rules_doc) {
    std::cout << rules_doc_markdown();
    return 0;
  }
  if (list_rules) {
    if (as_json) {
      std::cout << json::dump(rules_json());
    } else {
      for (const auto& rule : kRules) {
        std::cout << rule.id << " [" << rule.family << "]: " << rule.summary
                  << "\n";
      }
    }
    return 0;
  }
  if (roots.empty()) return usage();

  std::vector<fs::path> files;
  for (const auto& root : roots) {
    std::error_code ec;
    if (fs::is_directory(root, ec)) {
      for (auto it = fs::recursive_directory_iterator(root, ec);
           !ec && it != fs::recursive_directory_iterator(); ++it) {
        if (it->is_regular_file() && lintable(it->path())) {
          files.push_back(it->path());
        }
      }
    } else if (fs::is_regular_file(root, ec)) {
      files.push_back(root);
    } else {
      std::cerr << "wild5g_lint: no such file or directory: "
                << root.generic_string() << "\n";
      return 2;
    }
  }
  std::sort(files.begin(), files.end());

  std::vector<FileUnit> units;
  units.reserve(files.size());
  for (const auto& file : files) units.push_back(load_file(file));
  std::vector<Finding> findings = run_checks(units);

  // Ratchet mode: drop findings already recorded in the committed baseline
  // (multiset semantics — a third copy of a twice-baselined finding is still
  // new). The SARIF log, when also requested, keeps the full pre-filter set
  // so regenerating the baseline from it never loses entries.
  if (!baseline_path.empty()) {
    std::map<std::string, int> baseline;
    if (!load_baseline(baseline_path, baseline)) {
      std::cerr << "wild5g_lint: cannot read baseline SARIF: "
                << baseline_path << "\n";
      return 2;
    }
    if (!sarif_path.empty()) {
      std::ofstream out(sarif_path, std::ios::binary);
      if (!out.good()) {
        std::cerr << "wild5g_lint: cannot write SARIF log: " << sarif_path
                  << "\n";
        return 2;
      }
      out << json::dump(sarif_json(findings)) << "\n";
      sarif_path.clear();
    }
    std::size_t matched = 0;
    std::vector<Finding> fresh;
    for (auto& f : findings) {
      const auto it = baseline.find(f.fingerprint);
      if (it != baseline.end() && it->second > 0) {
        --it->second;
        ++matched;
      } else {
        fresh.push_back(std::move(f));
      }
    }
    findings = std::move(fresh);
    if (matched != 0) {
      std::cerr << "wild5g_lint: " << matched
                << " finding(s) matched the baseline and were suppressed\n";
    }
  }

  if (!sarif_path.empty()) {
    std::ofstream out(sarif_path, std::ios::binary);
    if (!out.good()) {
      std::cerr << "wild5g_lint: cannot write SARIF log: " << sarif_path
                << "\n";
      return 2;
    }
    out << json::dump(sarif_json(findings)) << "\n";
  }
  if (as_json) {
    std::cout << json::dump(findings_json(findings, files.size()));
  } else {
    for (const auto& f : findings) {
      std::cout << f.file << ":" << f.line << ": " << f.rule << ": "
                << f.message << "\n";
      if (!f.fixit.empty()) std::cout << "    fix-it: " << f.fixit << "\n";
    }
    std::cerr << "wild5g_lint: " << files.size() << " file(s), "
              << findings.size() << " finding(s)\n";
  }
  return findings.empty() ? 0 : 1;
}
