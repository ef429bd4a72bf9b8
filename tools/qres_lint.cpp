// qres_lint — in-repo static analyzer for the project's domain invariants.
//
// The planners and the discrete-event simulator are only trustworthy
// because they are bit-deterministic, and the replication/failover plane
// (DESIGN.md §14) is only trustworthy because its protocol contracts
// hold on every path. Nothing in the type system stops a PR from quietly
// introducing a wall-clock read, a hash-ordered iteration, an upward
// #include, a switch that silently swallows a new wire message type, or
// a mutation that runs ahead of the epoch fence — so this tool makes
// those invariants machine-checked (DESIGN.md §10).
//
// v2 architecture: a dependency-free C++20 lexer strips comments,
// string/char literals and raw strings (multi-line included) while
// preserving line structure, and emits a token stream per file. Two
// passes run over the whole scan set:
//
//   pass 1  builds a global symbol index: every `enum class` with its
//           enumerators, every type and function marked QRES_NODISCARD,
//           every function whose declared return type is a nodiscard
//           status type, and every function definition with the set of
//           MutexLock acquisitions in its body (plus QRES_REQUIRES
//           preconditions);
//   pass 2  runs the per-file rules (the original determinism /
//           layering / contracts / hygiene families plus the
//           flow-aware families below) and then the global lock-order
//           cycle check over the whole acquisition graph.
//
// Rule families added in v2:
//
//   unchecked-status   a statement that calls a status-returning API
//                      (QRES_NODISCARD types/functions: ExchangeResult,
//                      DecodeStatus, RpcCode, JournalStatus, ShipAckCode,
//                      SignalStatus, ...) and discards the result fires;
//                      an explicit static_cast<void>/(void) still fires
//                      so every deliberate discard carries a written
//                      justification. Scope: src/ and tools/.
//   wire-exhaustive-switch
//                      a switch over a project enum must name every
//                      enumerator; a default that swallows the rest
//                      needs a justified suppression on its own line.
//                      This is what makes adding wire v4 message types
//                      safe. Scope: src/ and tools/.
//   contract-epoch-fence
//                      *Service mutation handlers (handle_frame /
//                      execute) must consult the request epoch before
//                      any broker mutation, so a deposed primary
//                      redirects instead of mutating state.
//   contract-journal-before-confirm
//                      in *Service::execute the kReplyCache journal
//                      record must be appended before the replication
//                      flush that confirms the grant, or restart-dedup
//                      can lose the reply a client already saw.
//   concurrency-lock-order
//                      the static MutexLock acquisition graph (direct
//                      nesting + one-level call edges + QRES_REQUIRES
//                      preconditions) must be acyclic. The runtime twin
//                      lives in qres::Mutex behind QRES_LOCK_WITNESS.
//
// Violations print `file:line rule-id message` (or JSON objects with
// --format=json) and the tool exits 1. A violation can be suppressed in
// place with a justified comment, either trailing on the offending line
// or alone on a line above (the justification may wrap across further
// comment lines; the suppression attaches to the next code line below
// it); the justification text is mandatory and an
// empty one (or an unknown rule id) is itself a violation
// (lint-bad-suppression). The grammar is the word "qres-lint:" followed
// by "allow(rule-id): justification".
//
// The scanner is still textual by design: no libclang, no compile step —
// it runs in milliseconds on a cold checkout, which is what lets ctest
// run it over the whole tree on every build (qres_lint_tree). Fixture
// self-tests with seeded violations live in tests/lint/fixtures/.
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <optional>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace fs = std::filesystem;

namespace {

struct Rule {
  std::string id;
  std::string description;
};

// Registry of every rule the tool knows, in --list-rules order.
const std::vector<Rule>& rules() {
  static const std::vector<Rule> kRules = {
      {"determinism-random-device",
       "std::random_device is banned in src/ (seed qres::Rng streams "
       "explicitly)"},
      {"determinism-libc-rand",
       "libc random generators (rand/srand/drand48/random) are banned in "
       "src/ (use qres::Rng)"},
      {"determinism-wall-clock",
       "wall-clock time sources (system_clock/steady_clock/std::time/...) "
       "are banned in src/ (simulation time only)"},
      {"determinism-unordered-container",
       "std::unordered_* containers iterate in hash order; use "
       "std::map/std::set/FlatMap in src/"},
      {"determinism-pointer-keyed-container",
       "pointer-keyed std::map/std::set iterates in address order; key by "
       "a stable id instead"},
      {"concurrency-raw-mutex",
       "std::mutex/lock_guard/scoped_lock/unique_lock are banned in src/; "
       "use qres::Mutex + qres::MutexLock (util/annotations.hpp) so "
       "clang's thread-safety analysis tracks the capability"},
      {"concurrency-unannotated-mutex",
       "a qres::Mutex member in a src/ header must appear in at least one "
       "thread-safety annotation (QRES_GUARDED_BY/QRES_REQUIRES/"
       "QRES_EXCLUDES/...) or the analysis has nothing to check"},
      {"concurrency-lock-order",
       "the static MutexLock acquisition graph (nesting + one-level call "
       "edges + QRES_REQUIRES) must be acyclic; a cycle is a potential "
       "deadlock (runtime twin: QRES_LOCK_WITNESS in qres::Mutex)"},
      {"layering-upward-include",
       "#include must follow the layer DAG util <- core <- broker <- "
       "rpc <- mc/signal <- proxy/enforce <- adapt <- sim <- scenario"},
      {"rpc-direct-exchange",
       "IControlTransport::exchange may only be called "
       "through rpc::RpcChannel; direct calls bypass request ids, "
       "deadlines, circuit breakers and per-peer stats (DESIGN.md §12)"},
      {"unchecked-status",
       "a call returning a QRES_NODISCARD status (ExchangeResult, "
       "DecodeStatus, RpcCode, JournalStatus, ShipAckCode, SignalStatus, "
       "...) must consume the result; an explicit void cast still needs a "
       "justified suppression"},
      {"wire-exhaustive-switch",
       "a switch over a wire/protocol enum must name every enumerator; a "
       "default that swallows the rest needs a justified suppression "
       "(this is what makes adding wire v4 message types safe)"},
      {"contract-epoch-fence",
       "*Service mutation handlers must consult the request epoch before "
       "touching broker state, so a deposed primary redirects instead of "
       "mutating (DESIGN.md §14)"},
      {"contract-journal-before-confirm",
       "in *Service::execute the kReplyCache journal record must precede "
       "the replication flush that confirms the grant, or restart-dedup "
       "loses replies clients already saw (DESIGN.md §14)"},
      {"contracts-missing-guard",
       "src/core and src/broker translation units must guard public entry "
       "points with QRES_REQUIRE/QRES_ENSURE/QRES_ASSERT (util/assert.hpp)"},
      {"contracts-assert-side-effect",
       "assertion arguments must be side-effect free (no ++/--/assignment "
       "inside QRES_REQUIRE/QRES_ENSURE/QRES_ASSERT)"},
      {"hygiene-using-namespace-header",
       "'using namespace' in a header leaks the namespace into every "
       "includer"},
      {"hygiene-missing-pragma-once",
       "headers must use #pragma once (the repo's include-guard "
       "convention)"},
      {"lint-bad-suppression",
       "qres-lint: allow(...) suppressions must name a known rule and "
       "carry a non-empty justification"},
  };
  return kRules;
}

bool known_rule(const std::string& id) {
  for (const Rule& r : rules())
    if (r.id == id) return true;
  return false;
}

struct Violation {
  std::string file;  // path as reported (relative to root)
  int line = 0;
  std::string rule;
  std::string message;

  bool operator<(const Violation& other) const {
    if (file != other.file) return file < other.file;
    if (line != other.line) return line < other.line;
    return rule < other.rule;
  }
};

// One parsed suppression comment.
struct Suppression {
  int line = 0;             // line the comment sits on
  bool whole_line = false;  // comment is alone on its line -> covers line+1
  std::string rule;
};

// ---------------------------------------------------------------------------
// Lexing: strip comments and string/char/raw-string literals (multi-line
// included), preserving line structure, so rules never fire on prose —
// and tokenize what remains. Suppression comments are collected from the
// comment text as it is stripped.

struct Token {
  enum Kind { kId, kNum, kStr, kPunct };
  Kind kind = kPunct;
  std::string text;
  int line = 0;
};

struct FileView {
  std::vector<std::string> raw;   // original lines
  std::vector<std::string> code;  // lines with comments/literals blanked
  std::vector<Token> tokens;      // token stream over `code`
  std::vector<Suppression> suppressions;
  std::vector<Violation> bad_suppressions;  // filled during parsing
  bool is_header = false;
};

// Parses `// qres-lint: allow(rule): justification` out of a comment.
// Returns false when the comment is not a suppression at all.
bool parse_allow(const std::string& comment, int line, const std::string& file,
                 bool whole_line, FileView* view) {
  static const std::regex kAllow(
      R"(qres-lint:\s*allow\(([A-Za-z0-9-]+)\)(.*))");
  std::smatch m;
  if (!std::regex_search(comment, m, kAllow)) {
    // A comment that name-drops the tool without matching the allow()
    // shape is almost certainly a typo'd suppression; flag it so it
    // cannot silently fail to suppress.
    if (comment.find("qres-lint:") != std::string::npos) {
      view->bad_suppressions.push_back(
          {file, line, "lint-bad-suppression",
           "malformed suppression (expected `qres-lint: "
           "allow(rule-id): justification`)"});
      return true;
    }
    return false;
  }
  std::string rule = m[1].str();
  std::string rest = m[2].str();
  // rest must be ": <justification>" with a non-empty justification.
  std::string justification;
  std::size_t colon = rest.find(':');
  if (colon != std::string::npos) justification = rest.substr(colon + 1);
  justification.erase(0, justification.find_first_not_of(" \t"));
  while (!justification.empty() &&
         (justification.back() == ' ' || justification.back() == '\t'))
    justification.pop_back();
  if (!known_rule(rule)) {
    view->bad_suppressions.push_back(
        {file, line, "lint-bad-suppression",
         "suppression names unknown rule '" + rule + "'"});
    return true;
  }
  if (colon == std::string::npos || justification.empty()) {
    view->bad_suppressions.push_back(
        {file, line, "lint-bad-suppression",
         "suppression of '" + rule + "' is missing its justification"});
    return true;
  }
  view->suppressions.push_back({line, whole_line, rule});
  return true;
}

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

// Tokenizes one already-stripped code line. Literal content has been
// blanked (only the quote characters survive, plus #include paths), so
// quotes here always pair up within the line.
void tokenize_line(const std::string& line, int ln, std::vector<Token>* out) {
  std::size_t pos = 0;
  while (pos < line.size()) {
    char c = line[pos];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++pos;
      continue;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::size_t start = pos;
      while (pos < line.size() && ident_char(line[pos])) ++pos;
      out->push_back({Token::kId, line.substr(start, pos - start), ln});
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      std::size_t start = pos;
      while (pos < line.size() &&
             (ident_char(line[pos]) || line[pos] == '.'))
        ++pos;
      out->push_back({Token::kNum, line.substr(start, pos - start), ln});
      continue;
    }
    if (c == '"' || c == '\'') {
      std::size_t end = line.find(c, pos + 1);
      if (end == std::string::npos) end = line.size() - 1;
      out->push_back({Token::kStr, line.substr(pos, end - pos + 1), ln});
      pos = end + 1;
      continue;
    }
    // Multi-char punctuators the rules care about; everything else is a
    // single character.
    if (c == ':' && pos + 1 < line.size() && line[pos + 1] == ':') {
      out->push_back({Token::kPunct, "::", ln});
      pos += 2;
      continue;
    }
    if (c == '-' && pos + 1 < line.size() && line[pos + 1] == '>') {
      out->push_back({Token::kPunct, "->", ln});
      pos += 2;
      continue;
    }
    out->push_back({Token::kPunct, std::string(1, c), ln});
    ++pos;
  }
}

// Strips comments/literals from the file, collecting suppressions and
// emitting the token stream. A single character-level state machine so
// block comments and raw strings may span lines.
FileView lex_file(const std::vector<std::string>& lines,
                  const std::string& file) {
  FileView view;
  view.raw = lines;
  view.code.reserve(lines.size());

  enum class State { kCode, kBlockComment, kRawString };
  State state = State::kCode;
  std::string raw_terminator;  // ")delim\"" that ends the raw string

  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    std::string code;
    code.reserve(line.size());
    std::string comment_text;  // comment content seen on this line
    std::size_t pos = 0;
    while (pos < line.size()) {
      if (state == State::kBlockComment) {
        std::size_t end = line.find("*/", pos);
        if (end == std::string::npos) {
          comment_text += line.substr(pos);
          pos = line.size();
        } else {
          comment_text += line.substr(pos, end - pos);
          pos = end + 2;
          state = State::kCode;
        }
        continue;
      }
      if (state == State::kRawString) {
        std::size_t end = line.find(raw_terminator, pos);
        if (end == std::string::npos) {
          pos = line.size();
        } else {
          pos = end + raw_terminator.size();
          code += '"';  // close the blanked literal
          state = State::kCode;
        }
        continue;
      }
      char c = line[pos];
      if (c == '/' && pos + 1 < line.size() && line[pos + 1] == '/') {
        comment_text += line.substr(pos + 2);
        pos = line.size();
        continue;
      }
      if (c == '/' && pos + 1 < line.size() && line[pos + 1] == '*') {
        state = State::kBlockComment;
        pos += 2;
        continue;
      }
      if (c == '"' && pos > 0 && line[pos - 1] == 'R') {
        // Raw string R"delim( ... )delim" — may span lines.
        std::size_t paren = line.find('(', pos + 1);
        std::string delim = paren == std::string::npos
                                ? std::string()
                                : line.substr(pos + 1, paren - pos - 1);
        raw_terminator = ")" + delim + "\"";
        code += '"';
        state = State::kRawString;
        pos = paren == std::string::npos ? line.size() : paren + 1;
        continue;
      }
      if (c == '"' || c == '\'') {
        // Skip the literal, handling \" escapes.
        char quote = c;
        code += quote;  // keep the quote so `#include "x"` survives below
        ++pos;
        std::string literal;
        while (pos < line.size()) {
          if (line[pos] == '\\') {
            pos += 2;
            continue;
          }
          if (line[pos] == quote) {
            ++pos;
            break;
          }
          literal += line[pos];
          ++pos;
        }
        // #include "path" must keep its path; every other literal is
        // blanked so rules cannot fire inside strings.
        std::string head = code;
        if (head.find("#") != std::string::npos &&
            head.find("include") != std::string::npos) {
          code += literal;
        }
        code += quote;
        continue;
      }
      code += c;
      ++pos;
    }
    bool whole_line = true;
    for (char ch : code)
      if (!std::isspace(static_cast<unsigned char>(ch))) whole_line = false;
    if (!comment_text.empty())
      parse_allow(comment_text, static_cast<int>(i) + 1, file, whole_line,
                  &view);
    tokenize_line(code, static_cast<int>(i) + 1, &view.tokens);
    view.code.push_back(std::move(code));
  }
  return view;
}

// ---------------------------------------------------------------------------
// Symbol index (pass 1): enums, QRES_NODISCARD marks, status-returning
// functions, and function definitions with their lock acquisitions.

bool is_cpp_keyword(const std::string& s) {
  static const std::set<std::string> kKeywords = {
      "if",       "else",      "for",      "while",     "do",
      "switch",   "case",      "default",  "break",     "continue",
      "return",   "goto",      "using",    "typedef",   "namespace",
      "class",    "struct",    "union",    "enum",      "template",
      "typename", "public",    "private",  "protected", "friend",
      "static",   "constexpr", "consteval","constinit", "inline",
      "virtual",  "explicit",  "operator", "new",       "delete",
      "throw",    "try",       "catch",    "const",     "volatile",
      "auto",     "extern",    "mutable",  "static_assert",
      "sizeof",   "alignof",   "decltype", "noexcept",  "co_return",
      "co_await", "co_yield",  "this",     "requires",  "concept",
  };
  return kKeywords.count(s) > 0;
}

// Returns the index of the punctuator matching t[open] (one of ( [ { <),
// or t.size() when unbalanced.
std::size_t match_forward(const std::vector<Token>& t, std::size_t open) {
  static const std::map<std::string, std::string> kPairs = {
      {"(", ")"}, {"[", "]"}, {"{", "}"}, {"<", ">"}};
  auto it = kPairs.find(t[open].text);
  if (it == kPairs.end()) return t.size();
  const std::string& oc = it->first;
  const std::string& cc = it->second;
  int depth = 0;
  for (std::size_t i = open; i < t.size(); ++i) {
    if (t[i].text == oc) ++depth;
    if (t[i].text == cc) {
      --depth;
      if (depth == 0) return i;
    }
  }
  return t.size();
}

struct EnumDef {
  std::vector<std::string> enumerators;
  bool ambiguous = false;  // same name, different enumerator sets
};

struct LockAcq {
  std::string name;  // qualified lock name, e.g. "ThreadPool::mutex_"
  int line = 0;
};

struct FuncDef {
  std::string file;
  std::string cls;   // enclosing/qualifying class, may be empty
  std::string name;
  int line = 0;
  std::size_t body_begin = 0;  // token indices into the file's stream
  std::size_t body_end = 0;    // (body_begin points at '{')
  std::vector<std::string> requires_locks;  // QRES_REQUIRES preconditions
  std::vector<LockAcq> acquires;            // MutexLock decls in the body
};

struct Index {
  std::map<std::string, EnumDef> enums;
  std::set<std::string> nodiscard_types;
  std::set<std::string> status_funcs;
  std::vector<FuncDef> funcs;
  std::map<std::string, std::vector<std::size_t>> funcs_by_name;
};

// Qualifies a lock expression with its owning scope: a bare member name
// becomes "Class::member" so the same field name in two classes stays
// two graph nodes; compound expressions are kept verbatim.
std::string qualify_lock(const std::string& expr, const std::string& cls,
                         const std::string& file) {
  bool bare = !expr.empty();
  for (char c : expr)
    if (!ident_char(c)) bare = false;
  if (!bare) return expr;
  if (!cls.empty()) return cls + "::" + expr;
  return fs::path(file).stem().string() + "::" + expr;
}

// Collects enum definitions and QRES_NODISCARD type/function marks.
void index_enums_and_marks(const std::string& rel,
                           const std::vector<Token>& t, Index* index) {
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind == Token::kId && t[i].text == "enum") {
      std::size_t j = i + 1;
      std::string name;
      bool marked_nodiscard = false;
      while (j < t.size() && t[j].text != "{" && t[j].text != ";" &&
             t[j].text != ":" && j < i + 8) {
        if (t[j].text == "QRES_NODISCARD")
          marked_nodiscard = true;
        else if (t[j].kind == Token::kId && t[j].text != "class" &&
                 t[j].text != "struct")
          name = t[j].text;
        ++j;
      }
      if (marked_nodiscard && !name.empty())
        index->nodiscard_types.insert(name);
      while (j < t.size() && t[j].text != "{" && t[j].text != ";") ++j;
      if (j >= t.size() || t[j].text == ";" || name.empty()) continue;
      std::size_t close = match_forward(t, j);
      std::vector<std::string> enumerators;
      bool expect_name = true;
      for (std::size_t k = j + 1; k < close; ++k) {
        if (expect_name && t[k].kind == Token::kId) {
          enumerators.push_back(t[k].text);
          expect_name = false;
        } else if (t[k].text == ",") {
          expect_name = true;
        } else if (t[k].text == "(" || t[k].text == "{") {
          k = match_forward(t, k);
        }
      }
      auto [it, inserted] = index->enums.emplace(name, EnumDef{enumerators});
      if (!inserted && it->second.enumerators != enumerators)
        it->second.ambiguous = true;
      i = close;
      continue;
    }
    if (t[i].kind == Token::kId && t[i].text == "QRES_NODISCARD") {
      // Forward to the first structural token: '(' means the mark sits on
      // a function declaration (the id just before '(' is the name);
      // '{', ';', ':' or '=' mean it marks a type.
      std::string last_id;
      for (std::size_t j = i + 1; j < t.size() && j < i + 64; ++j) {
        const std::string& x = t[j].text;
        if (x == "(") {
          if (!last_id.empty()) index->status_funcs.insert(last_id);
          break;
        }
        if (x == "{" || x == ";" || x == ":" || x == "=") {
          if (!last_id.empty()) index->nodiscard_types.insert(last_id);
          break;
        }
        if (t[j].kind == Token::kId && !is_cpp_keyword(x)) last_id = x;
      }
    }
  }
  (void)rel;
}

// Registers every function whose declared return type is a nodiscard
// status type. Runs after all nodiscard_types are known.
void index_status_functions(const std::vector<Token>& t, Index* index) {
  for (std::size_t i = 0; i + 2 < t.size(); ++i) {
    if (t[i].kind != Token::kId || !index->nodiscard_types.count(t[i].text))
      continue;
    // `Type name(`  or  `Type Class::name(`
    if (t[i + 1].kind == Token::kId && !is_cpp_keyword(t[i + 1].text)) {
      if (t[i + 2].text == "(") {
        index->status_funcs.insert(t[i + 1].text);
      } else if (t[i + 2].text == "::" && i + 4 < t.size() &&
                 t[i + 3].kind == Token::kId && t[i + 4].text == "(") {
        index->status_funcs.insert(t[i + 3].text);
      }
    }
  }
}

// Recursive scope walk collecting function definitions (with bodies),
// their enclosing class, QRES_REQUIRES preconditions and MutexLock
// acquisitions.
void scan_scope(const std::string& rel, const std::vector<Token>& t,
                std::size_t begin, std::size_t end, const std::string& cls,
                Index* index) {
  for (std::size_t i = begin; i < end; ++i) {
    const std::string& x = t[i].text;
    if (t[i].kind != Token::kId) {
      if (x == "{") i = std::min(match_forward(t, i), end);
      continue;
    }
    if (x == "enum") {
      while (i < end && t[i].text != "{" && t[i].text != ";") ++i;
      if (i < end && t[i].text == "{") i = std::min(match_forward(t, i), end);
      continue;
    }
    if (x == "class" || x == "struct") {
      std::string name;
      std::size_t j = i + 1;
      for (; j < end && j < i + 8; ++j) {
        if (t[j].kind == Token::kId && t[j].text != "QRES_NODISCARD" &&
            t[j].text != "final" && !is_cpp_keyword(t[j].text))
          name = t[j].text;
        else if (t[j].text == "{" || t[j].text == ";" || t[j].text == ":")
          break;
        else if (t[j].kind == Token::kPunct && t[j].text != "::")
          break;  // `struct X*`, template args, ... — not a definition
      }
      while (j < end && t[j].text != "{" && t[j].text != ";") {
        if (t[j].text == "(") break;  // function returning a struct, etc.
        ++j;
      }
      if (j < end && t[j].text == "{" && !name.empty()) {
        std::size_t close = std::min(match_forward(t, j), end);
        scan_scope(rel, t, j + 1, close, name, index);
        i = close;
      }
      continue;
    }
    if (x == "namespace") {
      std::size_t j = i + 1;
      while (j < end && t[j].text != "{" && t[j].text != ";") ++j;
      // Fall through into the namespace body with the same class scope.
      i = j;
      continue;
    }
    if (x == "template") {
      if (i + 1 < end && t[i + 1].text == "<")
        i = std::min(match_forward(t, i + 1), end);
      continue;
    }
    if (is_cpp_keyword(x)) continue;
    // Candidate function definition: id '(' ... ')' [qualifiers] '{'.
    if (i + 1 >= end || t[i + 1].text != "(") continue;
    std::string fname = x;
    std::string fcls = cls;
    if (i >= 2 && t[i - 1].text == "::" && t[i - 2].kind == Token::kId)
      fcls = t[i - 2].text;
    std::size_t close = match_forward(t, i + 1);
    if (close >= end) continue;
    std::vector<std::string> requires_locks;
    std::size_t k = close + 1;
    bool is_def = false;
    while (k < end) {
      const std::string& y = t[k].text;
      if (y == "{") {
        is_def = true;
        break;
      }
      if (y == "QRES_REQUIRES" && k + 1 < end && t[k + 1].text == "(") {
        std::size_t rc = match_forward(t, k + 1);
        for (std::size_t a = k + 2; a < rc; ++a)
          if (t[a].kind == Token::kId)
            requires_locks.push_back(qualify_lock(t[a].text, fcls, rel));
        k = rc + 1;
        continue;
      }
      if (t[k].kind == Token::kId) {
        if (k + 1 < end && t[k + 1].text == "(") {
          // Another annotation macro (QRES_EXCLUDES, QRES_ACQUIRE, ...).
          k = match_forward(t, k + 1) + 1;
          continue;
        }
        ++k;  // const / noexcept / override / trailing-return type ids
        continue;
      }
      if (y == "->" || y == "::" || y == "&" || y == "*" || y == "<" ||
          y == ">") {
        ++k;
        continue;
      }
      break;  // ';' (declaration), '=' (= default/delete), ',', ':' (ctor)
    }
    if (!is_def) {
      i = close;
      continue;
    }
    std::size_t body_end = std::min(match_forward(t, k), end);
    FuncDef def;
    def.file = rel;
    def.cls = fcls;
    def.name = fname;
    def.line = t[i].line;
    def.body_begin = k;
    def.body_end = body_end;
    def.requires_locks = std::move(requires_locks);
    for (std::size_t b = k; b < body_end; ++b) {
      if (t[b].kind == Token::kId && t[b].text == "MutexLock" &&
          b + 2 < body_end && t[b + 1].kind == Token::kId &&
          t[b + 2].text == "(") {
        std::size_t lc = match_forward(t, b + 2);
        std::string expr;
        for (std::size_t a = b + 3; a < lc; ++a) expr += t[a].text;
        def.acquires.push_back(
            {qualify_lock(expr, fcls, rel), t[b].line});
        b = lc;
      }
    }
    index->funcs.push_back(std::move(def));
    i = body_end;
  }
}

// ---------------------------------------------------------------------------
// Layer DAG. rank(a) < rank(b) means a is below b; a file may only
// include same-directory or strictly-lower-rank project headers.

const std::map<std::string, int>& layer_ranks() {
  static const std::map<std::string, int> kRanks = {
      {"util", 0},    {"core", 1},  {"broker", 2},  {"rpc", 3},
      {"mc", 4},      {"signal", 4}, {"proxy", 5},  {"enforce", 5},
      {"adapt", 6},   {"sim", 7},   {"scenario", 8},
  };
  return kRanks;
}

bool is_header(const fs::path& p) {
  return p.extension() == ".hpp" || p.extension() == ".h";
}

bool is_source_file(const fs::path& p) {
  auto ext = p.extension();
  return ext == ".hpp" || ext == ".h" || ext == ".cpp" || ext == ".cc" ||
         ext == ".cxx";
}

std::string first_component(const std::string& path) {
  std::size_t slash = path.find('/');
  return slash == std::string::npos ? std::string() : path.substr(0, slash);
}

// ---------------------------------------------------------------------------
// Rule checks. `rel` is the path relative to the scan root using '/'
// separators (e.g. "src/core/planner.cpp").

struct Checker {
  std::string rel;
  const FileView* view;
  const Index* index;
  std::vector<Violation>* out;

  bool in_src() const { return rel.rfind("src/", 0) == 0; }
  bool in_tools() const { return rel.rfind("tools/", 0) == 0; }
  bool in_contract_scope() const {
    return rel.rfind("src/core/", 0) == 0 || rel.rfind("src/broker/", 0) == 0;
  }

  void report(int line, const std::string& rule, const std::string& message) {
    out->push_back({rel, line, rule, message});
  }

  void check_determinism() {
    if (!in_src()) return;
    static const std::regex kRandomDevice(R"(\brandom_device\b)");
    static const std::regex kLibcRand(
        R"(\b(rand|srand|drand48|lrand48|mrand48|random)\s*\()");
    static const std::regex kWallClock(
        R"(\b(system_clock|steady_clock|high_resolution_clock|gettimeofday|clock_gettime)\b|\bstd::time\s*\(|\bstd::clock\s*\()");
    static const std::regex kUnordered(
        R"(\bstd::unordered_(map|set|multimap|multiset)\b)");
    for (std::size_t i = 0; i < view->code.size(); ++i) {
      const std::string& line = view->code[i];
      int ln = static_cast<int>(i) + 1;
      if (std::regex_search(line, kRandomDevice))
        report(ln, "determinism-random-device",
               "std::random_device breaks bit-determinism; seed qres::Rng "
               "explicitly");
      if (std::regex_search(line, kLibcRand))
        report(ln, "determinism-libc-rand",
               "libc random generator breaks bit-determinism; use qres::Rng");
      if (std::regex_search(line, kWallClock))
        report(ln, "determinism-wall-clock",
               "wall-clock read in src/; all time must come from the "
               "simulation clock");
      if (std::regex_search(line, kUnordered))
        report(ln, "determinism-unordered-container",
               "hash-ordered container in src/; iteration order is "
               "unspecified (use std::map/std::set/FlatMap)");
      check_pointer_keyed(line, ln);
    }
  }

  // std::map<T*, ...> / std::set<const T*> — iteration follows pointer
  // values, i.e. allocation addresses: run-to-run nondeterminism.
  void check_pointer_keyed(const std::string& line, int ln) {
    static const std::regex kOrdered(R"(\bstd::(map|set|multimap|multiset)\s*<)");
    for (auto it = std::sregex_iterator(line.begin(), line.end(), kOrdered);
         it != std::sregex_iterator(); ++it) {
      std::size_t start = static_cast<std::size_t>(it->position()) +
                          static_cast<std::size_t>(it->length());
      // Extract the first template argument (up to a top-level ',' or '>').
      int depth = 0;
      std::string arg;
      for (std::size_t i = start; i < line.size(); ++i) {
        char c = line[i];
        if (c == '<') ++depth;
        if (c == '>') {
          if (depth == 0) break;
          --depth;
        }
        if (c == ',' && depth == 0) break;
        arg += c;
      }
      if (arg.find('*') != std::string::npos) {
        report(ln, "determinism-pointer-keyed-container",
               "pointer-keyed ordered container iterates in address order; "
               "key by a stable id instead");
        return;
      }
    }
  }

  // Pool-driven planning (DESIGN.md §11) relies on clang's
  // -Werror=thread-safety lane actually seeing every lock: a raw
  // std::mutex carries no capability attributes, so anything it guards
  // is invisible to the analysis. Similarly a qres::Mutex member that no
  // annotation references guards nothing the analysis can check.
  void check_concurrency(bool header) {
    if (!in_src()) return;
    static const std::regex kRawMutex(
        R"(\bstd::(mutex|timed_mutex|recursive_mutex|recursive_timed_mutex|shared_mutex|shared_timed_mutex|lock_guard|scoped_lock|unique_lock|shared_lock)\b)");
    static const std::regex kMutexMember(
        R"(\b(qres::)?Mutex\s+[A-Za-z_]\w*\s*;)");
    static const std::regex kAnnotation(
        R"(\bQRES_(GUARDED_BY|PT_GUARDED_BY|REQUIRES|EXCLUDES|ACQUIRE|RELEASE|TRY_ACQUIRE)\b)");
    bool any_annotation = false;
    for (const std::string& line : view->code)
      if (std::regex_search(line, kAnnotation)) any_annotation = true;
    for (std::size_t i = 0; i < view->code.size(); ++i) {
      const std::string& line = view->code[i];
      int ln = static_cast<int>(i) + 1;
      if (std::regex_search(line, kRawMutex))
        report(ln, "concurrency-raw-mutex",
               "raw standard-library mutex/lock in src/; use qres::Mutex + "
               "qres::MutexLock so clang thread-safety analysis tracks it");
      if (header && !any_annotation &&
          std::regex_search(line, kMutexMember))
        report(ln, "concurrency-unannotated-mutex",
               "qres::Mutex member with no thread-safety annotation in this "
               "header; annotate the guarded state (QRES_GUARDED_BY) or the "
               "locking contract (QRES_REQUIRES/QRES_EXCLUDES)");
    }
  }

  void check_layering() {
    if (!in_src()) return;
    std::string dir = first_component(rel.substr(4));  // after "src/"
    auto self = layer_ranks().find(dir);
    if (self == layer_ranks().end()) return;
    static const std::regex kInclude(R"(#\s*include\s*\"([^\"]+)\")");
    for (std::size_t i = 0; i < view->code.size(); ++i) {
      std::smatch m;
      if (!std::regex_search(view->code[i], m, kInclude)) continue;
      std::string target_dir = first_component(m[1].str());
      auto target = layer_ranks().find(target_dir);
      if (target == layer_ranks().end()) continue;  // not a project layer
      bool same_dir = target->first == self->first;
      if (!same_dir && target->second >= self->second)
        report(static_cast<int>(i) + 1, "layering-upward-include",
               "layer '" + self->first + "' must not include '" +
                   m[1].str() + "' (" + target->first +
                   " is not below it in the DAG)");
    }
  }

  void check_contracts() {
    if (!in_contract_scope()) return;
    fs::path p(rel);
    bool is_cpp = p.extension() == ".cpp" || p.extension() == ".cc" ||
                  p.extension() == ".cxx";
    static const std::regex kMacro(R"(\bQRES_(REQUIRE|ENSURE|ASSERT)\s*\()");
    bool any_macro = false;
    for (std::size_t i = 0; i < view->code.size(); ++i) {
      const std::string& line = view->code[i];
      for (auto it = std::sregex_iterator(line.begin(), line.end(), kMacro);
           it != std::sregex_iterator(); ++it) {
        any_macro = true;
        check_assert_args(static_cast<int>(i),
                          static_cast<std::size_t>(it->position()) +
                              static_cast<std::size_t>(it->length()));
      }
    }
    if (is_cpp && !any_macro)
      report(1, "contracts-missing-guard",
             "no QRES_REQUIRE/QRES_ENSURE/QRES_ASSERT in this translation "
             "unit; public entry points must guard their preconditions");
  }

  // `start` points just past the macro's '(' on 0-based line `line_idx`.
  // Collects the balanced argument text (possibly spanning lines) and
  // rejects mutation operators inside it.
  void check_assert_args(int line_idx, std::size_t start) {
    std::string args;
    int depth = 1;
    std::size_t i = static_cast<std::size_t>(line_idx);
    std::size_t pos = start;
    while (i < view->code.size()) {
      const std::string& line = view->code[i];
      for (; pos < line.size(); ++pos) {
        char c = line[pos];
        if (c == '(') ++depth;
        if (c == ')') {
          --depth;
          if (depth == 0) break;
        }
        args += c;
      }
      if (depth == 0) break;
      args += ' ';
      ++i;
      pos = 0;
    }
    // Neutralize comparison operators, then any surviving mutation
    // operator is a side effect inside an assertion.
    for (const char* cmp : {"<=>", "==", "!=", "<=", ">="}) {
      std::size_t at;
      while ((at = args.find(cmp)) != std::string::npos)
        args.replace(at, std::strlen(cmp), std::string(std::strlen(cmp), '#'));
    }
    bool mutation = args.find("++") != std::string::npos ||
                    args.find("--") != std::string::npos ||
                    args.find('=') != std::string::npos;
    if (mutation)
      report(line_idx + 1, "contracts-assert-side-effect",
             "assertion argument mutates state (++/--/assignment); "
             "assertions must be side-effect free");
  }

  // The typed RPC shim (rpc::RpcChannel) is the only sanctioned caller of
  // the raw control-transport primitive: it stamps request ids, truncates
  // retry budgets to the propagated deadline, and feeds the per-peer
  // circuit breakers and stats. Only the shim itself, the transport's own
  // translation unit, and the FaultPlane implementation of the interface
  // may touch exchange directly.
  void check_rpc_gateway() {
    if (!in_src()) return;
    if (rel.rfind("src/rpc/", 0) == 0 ||
        rel.rfind("src/core/transport.", 0) == 0 ||
        rel.rfind("src/signal/fault_plane.", 0) == 0)
      return;
    static const std::regex kDirectExchange(
        R"((->|\.)\s*exchange\s*\()");
    for (std::size_t i = 0; i < view->code.size(); ++i)
      if (std::regex_search(view->code[i], kDirectExchange))
        report(static_cast<int>(i) + 1, "rpc-direct-exchange",
               "direct IControlTransport::exchange call outside the RPC "
               "shim; route control-plane traffic through rpc::RpcChannel");
  }

  void check_hygiene(bool header) {
    if (!header) return;
    static const std::regex kUsingNamespace(R"(\busing\s+namespace\b)");
    bool pragma_once = false;
    for (std::size_t i = 0; i < view->code.size(); ++i) {
      const std::string& line = view->code[i];
      if (line.find("#pragma once") != std::string::npos) pragma_once = true;
      if (std::regex_search(line, kUsingNamespace))
        report(static_cast<int>(i) + 1, "hygiene-using-namespace-header",
               "'using namespace' in a header leaks into every includer");
    }
    if (!pragma_once)
      report(1, "hygiene-missing-pragma-once",
             "header does not use #pragma once (the repo's include-guard "
             "convention)");
  }

  // -------------------------------------------------------------------
  // unchecked-status: a statement whose final operation is a call to a
  // status-returning function, with nothing consuming the value. The
  // scan is statement-oriented over the token stream: after a boundary
  // (';', '{', '}', ':'), a postfix chain that ends in a call to an
  // indexed status function and runs straight into ';' is a discard.
  // static_cast<void>(...) and (void)... forms still fire — an explicit
  // discard needs a written justification, same as any suppression.
  void check_unchecked_status() {
    if (!in_src() && !in_tools()) return;
    const std::vector<Token>& t = view->tokens;
    auto is_delim = [](const Token& tok) {
      return tok.kind == Token::kPunct &&
             (tok.text == ";" || tok.text == "{" || tok.text == "}" ||
              tok.text == ":");
    };
    std::size_t i = 0;
    bool at_start = true;  // token 0 begins a statement
    while (i < t.size()) {
      if (!at_start) {
        // Mid-statement: skip to the token after the next delimiter.
        while (i < t.size() && !is_delim(t[i])) ++i;
        if (i >= t.size()) break;
        ++i;
        at_start = true;
        continue;
      }
      // Consecutive delimiters (block edges, empty statements, label
      // colons) each leave the NEXT token at a statement start.
      if (is_delim(t[i])) {
        ++i;
        continue;
      }
      // Hop over control-flow headers so the un-braced body of an
      // `if (...)` / `while (...)` still counts as a statement start.
      std::size_t s = i;
      bool hopped = true;
      while (hopped && s < t.size()) {
        hopped = false;
        while (s < t.size() && (t[s].text == "else" || t[s].text == "do")) {
          ++s;
          hopped = true;
        }
        if (s + 1 < t.size() && t[s + 1].text == "(" &&
            (t[s].text == "if" || t[s].text == "for" ||
             t[s].text == "while" || t[s].text == "switch" ||
             t[s].text == "catch")) {
          std::size_t c = match_forward(t, s + 1);
          if (c >= t.size()) break;
          s = c + 1;
          hopped = true;
        }
      }
      if (s >= t.size()) break;
      if (s != i) {  // hopped: re-evaluate the new position as a start
        i = s;
        continue;
      }
      bool explicit_cast = false;
      if (t[s].text == "static_cast" && s + 4 < t.size() &&
          t[s + 1].text == "<" && t[s + 2].text == "void" &&
          t[s + 3].text == ">" && t[s + 4].text == "(") {
        explicit_cast = true;
        s += 5;
      } else if (t[s].text == "(" && s + 2 < t.size() &&
                 t[s + 1].text == "void" && t[s + 2].text == ")") {
        explicit_cast = true;
        s += 3;
      }
      if (s >= t.size() || t[s].kind != Token::kId ||
          is_cpp_keyword(t[s].text)) {
        i = std::max(i + 1, s);
        at_start = false;
        continue;
      }
      // Parse the postfix chain; track whether the final element is a
      // call and which identifier names its callee.
      std::size_t p = s;
      std::string callee;
      int callee_line = 0;
      bool ends_in_call = false;
      bool broken = false;
      // leading qualified-id
      while (p + 1 < t.size() && t[p + 1].text == "::" &&
             p + 2 < t.size() && t[p + 2].kind == Token::kId)
        p += 2;
      std::string last_id = t[p].text;
      int last_line = t[p].line;
      ++p;
      while (p < t.size() && !broken) {
        const std::string& y = t[p].text;
        if (y == "(") {
          std::size_t c = match_forward(t, p);
          if (c >= t.size()) {
            broken = true;
            break;
          }
          callee = last_id;
          callee_line = last_line;
          ends_in_call = true;
          p = c + 1;
          continue;
        }
        if ((y == "." || y == "->") && p + 1 < t.size() &&
            t[p + 1].kind == Token::kId) {
          last_id = t[p + 1].text;
          last_line = t[p + 1].line;
          ends_in_call = false;
          p += 2;
          // absorb a qualified member (rare)
          while (p + 1 < t.size() && t[p].text == "::" &&
                 t[p + 1].kind == Token::kId) {
            last_id = t[p + 1].text;
            p += 2;
          }
          continue;
        }
        if (y == "[") {
          std::size_t c = match_forward(t, p);
          if (c >= t.size()) {
            broken = true;
            break;
          }
          ends_in_call = false;
          p = c + 1;
          continue;
        }
        break;
      }
      if (!broken && p < t.size() && ends_in_call &&
          index->status_funcs.count(callee)) {
        bool terminated = explicit_cast
                              ? (t[p].text == ")" && p + 1 < t.size() &&
                                 t[p + 1].text == ";")
                              : t[p].text == ";";
        if (terminated)
          report(callee_line, "unchecked-status",
                 "status-returning call '" + callee +
                     "' discards its result; consume the status or "
                     "suppress with a justified allow-comment");
      }
      i = std::max(i + 1, p);
      at_start = false;
    }
  }

  // -------------------------------------------------------------------
  // wire-exhaustive-switch: every switch whose case labels are qualified
  // enumerators of an indexed enum must name all of that enum's
  // enumerators. A default clause does not exempt the switch — it moves
  // the violation to the default's line, where a justified suppression
  // can bless it.
  void check_exhaustive_switch() {
    if (!in_src() && !in_tools()) return;
    const std::vector<Token>& t = view->tokens;
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (t[i].kind != Token::kId || t[i].text != "switch") continue;
      if (i + 1 >= t.size() || t[i + 1].text != "(") continue;
      std::size_t cond_close = match_forward(t, i + 1);
      if (cond_close >= t.size()) continue;
      std::size_t body = cond_close + 1;
      if (body >= t.size() || t[body].text != "{") continue;
      std::size_t body_close = match_forward(t, body);
      if (body_close >= t.size()) continue;
      // Collect case labels and default at this switch's own level
      // (nested switches are separate iterations; their labels are
      // inside deeper brace spans which we skip by tracking depth and
      // letting the outer loop visit them independently — labels are
      // attributed to the innermost enclosing switch).
      std::map<std::string, std::set<std::string>> votes;
      bool has_default = false;
      int default_line = 0;
      int depth = 0;
      std::size_t nested = 0;
      for (std::size_t k = body + 1; k < body_close; ++k) {
        const std::string& y = t[k].text;
        if (y == "{") ++depth;
        if (y == "}") --depth;
        if (t[k].kind == Token::kId && y == "switch") ++nested;
        if (nested > 0) {
          // Skip the whole nested switch body.
          if (y == "{" && depth > 0) {
            std::size_t c = match_forward(t, k);
            if (c < body_close) {
              k = c;
              --depth;
              --nested;
            }
          }
          continue;
        }
        if (t[k].kind == Token::kId && y == "case") {
          // Label: id (:: id)* up to ':'.
          std::string enum_name, member;
          std::size_t m = k + 1;
          while (m < body_close && t[m].text != ":") {
            if (t[m].text == "::" && m >= 1 && m + 1 < body_close &&
                t[m - 1].kind == Token::kId &&
                t[m + 1].kind == Token::kId) {
              enum_name = t[m - 1].text;
              member = t[m + 1].text;
            }
            ++m;
          }
          if (!enum_name.empty()) votes[enum_name].insert(member);
          k = m;
        } else if (t[k].kind == Token::kId && y == "default") {
          has_default = true;
          default_line = t[k].line;
        }
      }
      if (votes.empty()) continue;
      // The enum with the most labels wins (mixed labels should not
      // happen in practice; the max keeps the check deterministic).
      std::string enum_name;
      std::size_t best = 0;
      for (const auto& [name, members] : votes)
        if (members.size() > best) {
          best = members.size();
          enum_name = name;
        }
      auto it = index->enums.find(enum_name);
      if (it == index->enums.end() || it->second.ambiguous) continue;
      std::vector<std::string> missing;
      for (const std::string& e : it->second.enumerators)
        if (!votes[enum_name].count(e)) missing.push_back(e);
      if (missing.empty()) continue;
      std::string list;
      for (const std::string& e : missing) {
        if (!list.empty()) list += ", ";
        list += e;
      }
      if (has_default)
        report(default_line, "wire-exhaustive-switch",
               "switch over '" + enum_name + "' hides enumerators (" + list +
                   ") behind a default; name them or justify the default "
                   "with an allow-comment");
      else
        report(t[i].line, "wire-exhaustive-switch",
               "switch over '" + enum_name + "' does not handle " + list +
                   " and has no default; name every enumerator");
    }
  }

  // -------------------------------------------------------------------
  // Protocol-contract pins for *Service mutation handlers (DESIGN.md
  // §14): the epoch fence must precede the first broker mutation, and
  // the kReplyCache journal record must precede the replication flush
  // that confirms the grant. Checked as ordered-token patterns inside
  // the indexed handler bodies.
  void check_service_contracts() {
    if (!in_src()) return;
    static const std::set<std::string> kMutations = {
        "reserve",      "reserve_leased", "release",
        "release_amount", "renew_lease",  "try_post"};
    const std::vector<Token>& t = view->tokens;
    for (const FuncDef& f : index->funcs) {
      if (f.file != rel) continue;
      if (f.cls.size() < 7 ||
          f.cls.compare(f.cls.size() - 7, 7, "Service") != 0)
        continue;
      if (f.name != "handle_frame" && f.name != "execute") continue;
      std::size_t first_epoch = t.size();
      std::size_t first_mutation = t.size();
      std::size_t first_flush = t.size();
      std::size_t first_reply_cache = t.size();
      std::string mutation_name;
      for (std::size_t k = f.body_begin; k < f.body_end; ++k) {
        if (t[k].kind != Token::kId) continue;
        const std::string& y = t[k].text;
        if (y == "epoch" && first_epoch == t.size()) first_epoch = k;
        if (first_mutation == t.size() && kMutations.count(y) &&
            k + 1 < f.body_end && t[k + 1].text == "(") {
          first_mutation = k;
          mutation_name = y;
        }
        if (y == "flush" && first_flush == t.size() &&
            k + 1 < f.body_end && t[k + 1].text == "(")
          first_flush = k;
        if (y == "kReplyCache" && first_reply_cache == t.size())
          first_reply_cache = k;
      }
      if (first_mutation < t.size() && first_epoch > first_mutation)
        report(t[first_mutation].line, "contract-epoch-fence",
               "mutation '" + mutation_name + "' in " + f.cls +
                   "::" + f.name +
                   " runs before any epoch check; fence stale epochs "
                   "first so a deposed primary redirects instead of "
                   "mutating");
      if (f.name == "execute" && first_flush < t.size() &&
          first_reply_cache > first_flush)
        report(t[first_flush].line, "contract-journal-before-confirm",
               "replication flush in " + f.cls +
                   "::execute runs before the kReplyCache journal record; "
                   "journal the cached reply first so restart-dedup "
                   "survives the commit");
    }
  }
};

// ---------------------------------------------------------------------------
// concurrency-lock-order: build the global acquisition graph and fail on
// cycles. Nodes are qualified lock names; edges come from (a) MutexLock
// nesting inside one body, (b) a call made while holding a lock to an
// indexed function that itself acquires locks, and (c) QRES_REQUIRES
// preconditions treated as already-held locks.

struct LockEdge {
  std::string file;
  int line = 0;
};

void collect_lock_edges(
    const std::map<std::string, FileView>& views, const Index& index,
    std::map<std::pair<std::string, std::string>, LockEdge>* edges) {
  for (const FuncDef& f : index.funcs) {
    const std::vector<Token>& t = views.at(f.file).tokens;
    struct Active {
      std::string name;
      int depth;
    };
    std::vector<Active> active;
    for (const std::string& r : f.requires_locks)
      active.push_back({r, -1});  // held for the whole body
    int depth = 0;
    for (std::size_t k = f.body_begin; k < f.body_end; ++k) {
      const std::string& y = t[k].text;
      if (y == "{") ++depth;
      if (y == "}") {
        --depth;
        while (!active.empty() && active.back().depth > depth)
          active.pop_back();
      }
      if (t[k].kind != Token::kId) continue;
      if (y == "MutexLock" && k + 2 < f.body_end &&
          t[k + 1].kind == Token::kId && t[k + 2].text == "(") {
        std::size_t lc = match_forward(t, k + 2);
        std::string expr;
        for (std::size_t a = k + 3; a < lc; ++a) expr += t[a].text;
        std::string lock = qualify_lock(expr, f.cls, f.file);
        for (const Active& a : active)
          edges->emplace(std::make_pair(a.name, lock),
                         LockEdge{f.file, t[k].line});
        active.push_back({lock, depth});
        k = lc;
        continue;
      }
      // Interprocedural one-level edge: a call while holding locks to an
      // indexed function that acquires its own.
      if (active.empty() || is_cpp_keyword(y) || y == "MutexLock") continue;
      if (k + 1 >= f.body_end || t[k + 1].text != "(") continue;
      auto byname = index.funcs_by_name.find(y);
      if (byname == index.funcs_by_name.end()) continue;
      bool receiver =
          k > 0 && (t[k - 1].text == "." || t[k - 1].text == "->");
      const FuncDef* callee = nullptr;
      if (receiver) {
        // Only resolve when the name is unambiguous across the index;
        // we cannot see the receiver's type.
        if (byname->second.size() == 1)
          callee = &index.funcs[byname->second[0]];
      } else {
        for (std::size_t idx : byname->second)
          if (index.funcs[idx].cls == f.cls) {
            callee = &index.funcs[idx];
            break;
          }
        if (callee == nullptr && byname->second.size() == 1)
          callee = &index.funcs[byname->second[0]];
      }
      if (callee == nullptr || callee == &f) continue;
      if (callee->cls == f.cls && callee->name == f.name) continue;
      for (const LockAcq& acq : callee->acquires) {
        for (const Active& a : active) {
          if (a.name == acq.name) continue;  // resolution is heuristic;
                                             // never fabricate self-edges
          edges->emplace(std::make_pair(a.name, acq.name),
                         LockEdge{f.file, t[k].line});
        }
      }
    }
  }
}

void check_lock_order(
    const std::map<std::pair<std::string, std::string>, LockEdge>& edges,
    std::vector<Violation>* out) {
  std::map<std::string, std::vector<std::string>> adj;
  for (const auto& [key, edge] : edges) adj[key.first].push_back(key.second);
  for (auto& [node, next] : adj) std::sort(next.begin(), next.end());

  std::set<std::vector<std::string>> reported;  // canonicalized cycles
  std::map<std::string, int> color;             // 0 white, 1 grey, 2 black
  std::vector<std::string> stack;

  std::function<void(const std::string&)> dfs = [&](const std::string& n) {
    color[n] = 1;
    stack.push_back(n);
    auto it = adj.find(n);
    if (it != adj.end()) {
      for (const std::string& m : it->second) {
        if (color[m] == 1) {
          // Found a cycle: stack suffix from m .. n.
          auto at = std::find(stack.begin(), stack.end(), m);
          std::vector<std::string> cycle(at, stack.end());
          // Canonicalize: rotate so the smallest node leads.
          auto min_it = std::min_element(cycle.begin(), cycle.end());
          std::rotate(cycle.begin(), min_it, cycle.end());
          if (reported.insert(cycle).second) {
            // Describe the cycle and anchor the violation at its
            // first edge (sorted by file:line) so a suppression has a
            // stable home.
            std::string path;
            std::string edge_list;
            const LockEdge* anchor = nullptr;
            for (std::size_t i = 0; i < cycle.size(); ++i) {
              const std::string& a = cycle[i];
              const std::string& b = cycle[(i + 1) % cycle.size()];
              path += a + " -> ";
              auto eit = edges.find({a, b});
              if (eit == edges.end()) continue;
              if (!edge_list.empty()) edge_list += ", ";
              edge_list += eit->second.file + ":" +
                           std::to_string(eit->second.line);
              if (anchor == nullptr ||
                  eit->second.file < anchor->file ||
                  (eit->second.file == anchor->file &&
                   eit->second.line < anchor->line))
                anchor = &eit->second;
            }
            path += cycle.front();
            if (anchor != nullptr)
              out->push_back(
                  {anchor->file, anchor->line, "concurrency-lock-order",
                   "lock acquisition cycle " + path + " (edges at " +
                       edge_list + "); a consistent global order is "
                       "required to rule out deadlock"});
          }
        } else if (color[m] == 0) {
          dfs(m);
        }
      }
    }
    stack.pop_back();
    color[n] = 2;
  };
  for (const auto& [node, next] : adj)
    if (color[node] == 0) dfs(node);
}

// ---------------------------------------------------------------------------

bool suppressed(const Violation& v, const FileView& view) {
  auto code_blank = [&view](int line) {
    if (line < 1 || line > static_cast<int>(view.code.size())) return false;
    const std::string& s = view.code[line - 1];
    return s.find_first_not_of(" \t\r") == std::string::npos;
  };
  for (const Suppression& s : view.suppressions) {
    if (s.rule != v.rule) continue;
    if (s.line == v.line) return true;
    if (s.whole_line) {
      // A whole-line allow-comment covers the next CODE line: the
      // justification may wrap over further comment lines, and those
      // (blank once stripped) do not break the attachment.
      int target = s.line + 1;
      while (code_blank(target)) ++target;
      if (target == v.line) return true;
    }
  }
  return false;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void usage() {
  std::cout
      << "usage: qres_lint [--root DIR] [--format text|json] [--list-rules] "
         "[paths...]\n"
         "\n"
         "Scans C++ sources for the repo's determinism, layering, contract,\n"
         "protocol and hygiene invariants (DESIGN.md §10). Paths are\n"
         "relative to --root (default: the current directory) and default\n"
         "to `src tests tools`. Prints `file:line rule-id message` per\n"
         "violation (or a JSON array with --format=json) and exits 1 when\n"
         "any are found.\n";
}

}  // namespace

int main(int argc, char** argv) {
  fs::path root = ".";
  std::vector<std::string> targets;
  std::string format = "text";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--list-rules") {
      for (const Rule& r : rules())
        std::cout << r.id << "\n    " << r.description << "\n";
      return 0;
    }
    if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    }
    if (arg == "--root") {
      if (i + 1 >= argc) {
        std::cerr << "qres_lint: --root needs a directory\n";
        return 2;
      }
      root = argv[++i];
      continue;
    }
    if (arg.rfind("--format=", 0) == 0) {
      format = arg.substr(9);
    } else if (arg == "--format") {
      if (i + 1 >= argc) {
        std::cerr << "qres_lint: --format needs a value (text|json)\n";
        return 2;
      }
      format = argv[++i];
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "qres_lint: unknown flag '" << arg << "'\n";
      usage();
      return 2;
    } else {
      targets.push_back(arg);
      continue;
    }
    if (format != "text" && format != "json") {
      std::cerr << "qres_lint: --format must be text or json\n";
      return 2;
    }
  }
  if (targets.empty()) targets = {"src", "tests", "tools"};

  std::error_code ec;
  if (!fs::is_directory(root, ec)) {
    std::cerr << "qres_lint: root '" << root.string()
              << "' is not a directory\n";
    return 2;
  }

  // Collect files in sorted relative-path order so output is stable.
  std::vector<std::pair<fs::path, std::string>> files;  // abs, rel
  for (const std::string& target : targets) {
    fs::path dir = root / target;
    if (!fs::is_directory(dir, ec)) continue;
    for (auto it = fs::recursive_directory_iterator(dir);
         it != fs::recursive_directory_iterator(); ++it) {
      if (!it->is_regular_file() || !is_source_file(it->path())) continue;
      std::string rel =
          fs::relative(it->path(), root).generic_string();
      // The lint self-test fixtures carry violations on purpose, and the
      // analyzer's own source documents the suppression grammar in prose
      // that would read as malformed suppressions.
      if (rel.rfind("tests/lint/fixtures", 0) == 0) continue;
      if (rel == "tools/qres_lint.cpp") continue;
      files.emplace_back(it->path(), rel);
    }
  }
  std::sort(files.begin(), files.end(),
            [](const auto& a, const auto& b) { return a.second < b.second; });

  // Lex everything up front: the symbol index is global across the scan
  // set (an enum defined in src/rpc/wire.hpp constrains a switch in
  // src/proxy/qos_proxy.cpp).
  std::map<std::string, FileView> views;
  for (const auto& [path, rel] : files) {
    std::ifstream in(path);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
    FileView view = lex_file(lines, rel);
    view.is_header = is_header(path);
    views.emplace(rel, std::move(view));
  }

  // Pass 1: the index.
  Index index;
  for (const auto& [rel, view] : views)
    index_enums_and_marks(rel, view.tokens, &index);
  for (const auto& [rel, view] : views)
    index_status_functions(view.tokens, &index);
  for (const auto& [rel, view] : views)
    scan_scope(rel, view.tokens, 0, view.tokens.size(), "", &index);
  for (std::size_t i = 0; i < index.funcs.size(); ++i)
    index.funcs_by_name[index.funcs[i].name].push_back(i);

  // Pass 2: per-file rules, then the global lock graph.
  std::vector<Violation> raw;
  for (const auto& [rel, view] : views) {
    Checker checker{rel, &view, &index, &raw};
    checker.check_determinism();
    checker.check_concurrency(view.is_header);
    checker.check_layering();
    checker.check_rpc_gateway();
    checker.check_contracts();
    checker.check_hygiene(view.is_header);
    checker.check_unchecked_status();
    checker.check_exhaustive_switch();
    checker.check_service_contracts();
  }
  std::map<std::pair<std::string, std::string>, LockEdge> edges;
  collect_lock_edges(views, index, &edges);
  check_lock_order(edges, &raw);

  std::vector<Violation> all;
  for (const Violation& v : raw) {
    auto it = views.find(v.file);
    if (it != views.end() && suppressed(v, it->second)) continue;
    all.push_back(v);
  }
  // Bad suppressions are never themselves suppressible.
  for (const auto& [rel, view] : views)
    for (const Violation& v : view.bad_suppressions) all.push_back(v);
  std::sort(all.begin(), all.end());

  if (format == "json") {
    std::cout << "[";
    for (std::size_t i = 0; i < all.size(); ++i) {
      const Violation& v = all[i];
      std::cout << (i == 0 ? "" : ",") << "\n  {\"file\": \""
                << json_escape(v.file) << "\", \"line\": " << v.line
                << ", \"rule\": \"" << json_escape(v.rule)
                << "\", \"message\": \"" << json_escape(v.message) << "\"}";
    }
    std::cout << (all.empty() ? "]\n" : "\n]\n");
  } else {
    for (const Violation& v : all)
      std::cout << v.file << ":" << v.line << " " << v.rule << " "
                << v.message << "\n";
  }
  if (!all.empty()) {
    std::cerr << "qres_lint: " << all.size() << " violation"
              << (all.size() == 1 ? "" : "s") << " in " << files.size()
              << " files\n";
    return 1;
  }
  return 0;
}
