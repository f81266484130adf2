// The directive front end: the one module that decides what a directive is
// and where its body ends. The translator, the static analyzer
// (cid::analyze) and the explorer (cid::explore) all read its answer.
//
//  - scan_directives() builds the lexical directive tree: every
//    #pragma comm_* in live code (not in comments or string literals),
//    parsed, with source locations, attached-body extents and nesting.
//    Malformed pragmas and structural problems (missing body, unbalanced
//    braces, unterminated continuations) are reported as ScanIssues instead
//    of aborting the scan, so one bad directive does not hide the rest of
//    the file.
//  - the clause rules the static layers share: textual inheritance
//    (merge_directives), the clauses a merged transfer must carry
//    (required_clause_problems), rank-symbolic clause expressions
//    (clause_expr) and buffer identity (buffer_identity);
//  - character-level helpers the analyzer's declaration scan also uses
//    (block extents, line numbers, the code mask).
#pragma once

#include <cctype>
#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "core/expr.hpp"
#include "core/pragma.hpp"

namespace cid::translate {

// --- character-level helpers ------------------------------------------------

/// Position of the matching '}' for the '{' at `open`, skipping string and
/// character literals and // and /* */ comments. npos when unbalanced.
std::size_t find_block_end(std::string_view text, std::size_t open);

/// Offsets at which the lines of a text start, so a line number is a binary
/// search instead of a rescan from the start of the text.
class LineIndex {
 public:
  explicit LineIndex(std::string_view text = {});
  /// 1-based line number of `pos`.
  int line_of(std::size_t pos) const;

 private:
  std::vector<std::size_t> starts_;
};

/// Byte mask over `text`: 1 where the byte is live code, 0 inside comments,
/// string literals (including raw strings) and character literals. Used to
/// ignore pragma text quoted in strings and to scan identifier references.
std::vector<unsigned char> code_mask(std::string_view text);

// --- clause rules shared by the translator, analyzer and explorer ----------

/// Textual clause inheritance: `inner`'s clauses layered over those of the
/// enclosing region `outer` (clauses present on `inner` win, absent ones
/// inherit; `inner` itself when there is no region) — the static
/// counterpart of core::Clauses::merged. The result keeps `inner`'s kind.
core::ParsedDirective merge_directives(const core::ParsedDirective* outer,
                                       const core::ParsedDirective& inner);

/// One reason a comm_p2p / comm_collective cannot be lowered.
struct ClauseProblem {
  std::string missing;  ///< the absent required clause(s), comma-separated;
                        ///< empty when the sbuf/rbuf lists disagree
  std::string message;
};

/// What a merged comm_p2p must carry (sbuf, rbuf, sender, receiver; sbuf and
/// rbuf listing the same number of buffers) and what a merged
/// comm_collective must carry (sbuf, rbuf, count, and root unless its
/// pattern is all-to-all; exactly one buffer each). `merged` has its
/// inherited clauses resolved (merge_directives). Returns the missing-clause
/// problems first, then the buffer-list one; empty when the directive is
/// complete (always for comm_parameters). The translator rejects on the
/// first problem, the analyzer reports them (CID-P005/P006), the explorer
/// skips the directive.
std::vector<ClauseProblem> required_clause_problems(
    const core::ParsedDirective& merged);

/// A clause expression as the static layers read it. `symbolic` when its
/// value cannot be swept over rank/nprocs: it names any other variable, or
/// it does not parse (then `expr` is invalid and `error` holds the parser's
/// message).
struct ClauseExpr {
  bool present = false;
  bool symbolic = false;
  core::Expr expr;    ///< valid iff present and the text parsed
  std::string text;   ///< verbatim clause argument
  std::string error;  ///< parser message when the text does not parse

  bool unparsable() const { return present && !expr.valid(); }
};

/// Parse a clause argument; empty `text` is an absent clause.
ClauseExpr clause_expr(std::string text);

/// The first argument of clause `name` on `merged` (absent when missing).
ClauseExpr clause_expr(const core::ParsedDirective& merged,
                       std::string_view name);

/// A buffer clause argument as the static layers compare buffers: its text
/// without whitespace, so rbuf(r[0]) and rbuf(r[ 0 ]) name one buffer.
inline std::string buffer_identity(std::string_view argument) {
  std::string out(argument);
  std::erase_if(out, [](unsigned char c) { return std::isspace(c) != 0; });
  return out;
}

// --- the directive tree -----------------------------------------------------

/// One directive with its attached body. `children` are the directives in
/// that body: a region's clause scope, or a comm_p2p/comm_collective's
/// overlap body (whose directives belong to the same enclosing region).
struct DirectiveNode {
  core::ParsedDirective directive;
  int line = 0;    ///< 1-based line of the pragma's '#'
  int column = 0;  ///< 1-based column of the pragma's '#'
  std::size_t pragma_begin = 0;  ///< offset of the '#'
  std::size_t body_begin = 0;    ///< content offset (inside braces, or the
                                 ///< statement / nested-directive start)
  std::size_t body_end = 0;      ///< content end (exclusive)
  std::size_t node_end = 0;      ///< offset just past the whole construct
  bool body_is_block = false;
  bool pragma_continued = false;  ///< pragma spanned '\'-continued lines
  std::vector<DirectiveNode> children;  ///< directives nested in the body
};

/// A problem found while scanning: a malformed pragma line or a structural
/// error around a directive. `status` carries the parser's message.
struct ScanIssue {
  int line = 0;
  int column = 0;
  Status status;
};

struct DirectiveTree {
  std::vector<DirectiveNode> roots;
  std::vector<ScanIssue> issues;
  /// code_mask(source) and the source's line starts, built once by the scan
  /// for every later pass over the same source.
  std::vector<unsigned char> mask;
  LineIndex lines;

  /// The first issue as a "line N: <message>" error; Ok when none.
  Status first_issue() const;
};

/// Scan a whole source buffer into its directive tree. Pragma text inside
/// comments and string literals is ignored. Never fails: problems are
/// reported through `issues` and the affected directive is skipped.
DirectiveTree scan_directives(std::string_view source);

}  // namespace cid::translate
