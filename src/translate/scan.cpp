#include "translate/scan.hpp"

#include <algorithm>
#include <cctype>
#include <utility>

#include "common/strings.hpp"

namespace cid::translate {

namespace {

/// Lexical state shared by the extent finders.
enum class LexState { Code, LineComment, BlockComment, String, Char };

/// Advance one character of the comment/literal state machine. Returns the
/// number of extra characters consumed (0 or 1).
std::size_t step(std::string_view text, std::size_t i, LexState& state) {
  const char c = text[i];
  const char next = i + 1 < text.size() ? text[i + 1] : '\0';
  switch (state) {
    case LexState::Code:
      if (c == '/' && next == '/') {
        state = LexState::LineComment;
        return 1;
      }
      if (c == '/' && next == '*') {
        state = LexState::BlockComment;
        return 1;
      }
      if (c == '"') state = LexState::String;
      if (c == '\'') state = LexState::Char;
      return 0;
    case LexState::LineComment:
      if (c == '\n') state = LexState::Code;
      return 0;
    case LexState::BlockComment:
      if (c == '*' && next == '/') {
        state = LexState::Code;
        return 1;
      }
      return 0;
    case LexState::String:
      if (c == '\\') return 1;
      if (c == '"') state = LexState::Code;
      return 0;
    case LexState::Char:
      if (c == '\\') return 1;
      if (c == '\'') state = LexState::Code;
      return 0;
  }
  return 0;
}

/// Position just past the ';' terminating the statement starting at `start`
/// (same literal/comment skipping as find_block_end). npos when not found.
std::size_t find_statement_end(std::string_view text, std::size_t start) {
  LexState state = LexState::Code;
  int parens = 0;
  for (std::size_t i = start; i < text.size(); ++i) {
    if (state == LexState::Code) {
      const char c = text[i];
      if (c == '(') {
        ++parens;
      } else if (c == ')') {
        --parens;
      } else if (c == ';' && parens == 0) {
        return i + 1;
      }
    }
    i += step(text, i, state);
  }
  return std::string_view::npos;
}

/// 1-based column number of `pos`.
int column_of(std::string_view text, std::size_t pos) {
  int column = 1;
  for (std::size_t i = pos; i > 0 && text[i - 1] != '\n'; --i) ++column;
  return column;
}

/// Is there a comm directive pragma starting at the beginning of the line
/// containing position `i`? (`i` must point at the '#'.)
bool is_pragma_start(std::string_view text, std::size_t i) {
  std::size_t j = i;
  while (j > 0 && (text[j - 1] == ' ' || text[j - 1] == '\t')) --j;
  if (j != 0 && text[j - 1] != '\n') return false;
  std::string_view rest = text.substr(i);
  if (!cid::starts_with(rest, "#")) return false;
  rest = cid::trim(rest.substr(1, 64));
  return cid::starts_with(rest, "pragma comm_parameters") ||
         cid::starts_with(rest, "pragma comm_p2p") ||
         cid::starts_with(rest, "pragma comm_collective");
}

}  // namespace

std::size_t find_block_end(std::string_view text, std::size_t open) {
  int depth = 0;
  LexState state = LexState::Code;
  for (std::size_t i = open; i < text.size(); ++i) {
    if (state == LexState::Code) {
      const char c = text[i];
      if (c == '{') {
        ++depth;
      } else if (c == '}') {
        if (--depth == 0) return i;
      }
    }
    i += step(text, i, state);
  }
  return std::string_view::npos;
}

LineIndex::LineIndex(std::string_view text) : starts_{0} {
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '\n') starts_.push_back(i + 1);
  }
}

int LineIndex::line_of(std::size_t pos) const {
  return static_cast<int>(
      std::upper_bound(starts_.begin(), starts_.end(), pos) - starts_.begin());
}

std::vector<unsigned char> code_mask(std::string_view text) {
  std::vector<unsigned char> mask(text.size(), 0);
  LexState state = LexState::Code;
  for (std::size_t i = 0; i < text.size(); ++i) {
    // Raw string literals need lookahead the LexState machine does not have:
    // R"delim( ... )delim" with no escape processing.
    if (state == LexState::Code && text[i] == 'R' && i + 1 < text.size() &&
        text[i + 1] == '"' &&
        (i == 0 || (!std::isalnum(static_cast<unsigned char>(text[i - 1])) &&
                    text[i - 1] != '_'))) {
      std::size_t delim_end = i + 2;
      while (delim_end < text.size() && text[delim_end] != '(' &&
             text[delim_end] != '"' && text[delim_end] != '\n') {
        ++delim_end;
      }
      if (delim_end < text.size() && text[delim_end] == '(') {
        const std::string closer =
            ")" + std::string(text.substr(i + 2, delim_end - (i + 2))) + "\"";
        const std::size_t close = text.find(closer, delim_end + 1);
        const std::size_t stop = close == std::string_view::npos
                                     ? text.size()
                                     : close + closer.size();
        i = stop - 1;  // literal bytes stay masked out
        continue;
      }
    }
    const LexState before = state;
    const std::size_t extra = step(text, i, state);
    // A byte is code when it is outside comments/literals both before and
    // after the step (so quotes and comment openers are not marked live).
    if (before == LexState::Code && state == LexState::Code) mask[i] = 1;
    i += extra;
  }
  return mask;
}

core::ParsedDirective merge_directives(const core::ParsedDirective* outer,
                                       const core::ParsedDirective& inner) {
  if (outer == nullptr) return inner;
  core::ParsedDirective merged;
  merged.kind = inner.kind;
  for (const auto& clause : outer->clauses) {
    if (inner.find(clause.name) == nullptr) merged.clauses.push_back(clause);
  }
  for (const auto& clause : inner.clauses) merged.clauses.push_back(clause);
  return merged;
}

std::vector<ClauseProblem> required_clause_problems(
    const core::ParsedDirective& merged) {
  const bool p2p = merged.kind == core::DirectiveKind::CommP2P;
  if (!p2p && merged.kind != core::DirectiveKind::CommCollective) return {};
  std::vector<const char*> required = {"sbuf", "rbuf"};
  if (p2p) {
    required.insert(required.end(), {"sender", "receiver"});
  } else {
    required.push_back("count");
  }
  std::vector<ClauseProblem> problems;
  std::string missing;
  for (const char* name : required) {
    if (merged.find(name) == nullptr) {
      if (!missing.empty()) missing += ", ";
      missing += name;
    }
  }
  if (!missing.empty()) {
    problems.push_back(
        {missing, p2p ? "comm_p2p is missing required clause(s) after "
                        "inheritance: " + missing
                      : "comm_collective is missing required clause(s): " +
                            missing});
  }
  // The executor's rule (Clauses::validate_for_collective), in its words.
  if (const core::RawClause* pattern = merged.find("pattern");
      !p2p && pattern != nullptr && merged.find("root") == nullptr) {
    auto parsed = core::parse_pattern_keyword(pattern->args[0]);
    if (parsed.is_ok() && parsed.value() != core::Pattern::AllToAll) {
      problems.push_back({"root", "pattern " + pattern->args[0] +
                                      " requires the root clause"});
    }
  }
  const core::RawClause* sbuf = merged.find("sbuf");
  const core::RawClause* rbuf = merged.find("rbuf");
  if (sbuf == nullptr || rbuf == nullptr) return problems;
  if (p2p && sbuf->args.size() != rbuf->args.size()) {
    problems.push_back(
        {"", "sbuf lists " + std::to_string(sbuf->args.size()) +
                 " buffer(s) but rbuf lists " +
                 std::to_string(rbuf->args.size()) +
                 "; paired send/receive buffers must agree in number"});
  } else if (!p2p && (sbuf->args.size() != 1 || rbuf->args.size() != 1)) {
    problems.push_back(
        {"", "comm_collective takes exactly one sbuf and one rbuf"});
  }
  return problems;
}

ClauseExpr clause_expr(std::string text) {
  ClauseExpr out;
  if (text.empty()) return out;
  out.present = true;
  auto parsed = core::Expr::parse(text);
  out.text = std::move(text);
  if (!parsed.is_ok()) {
    out.symbolic = true;
    out.error = parsed.status().message();
    return out;
  }
  out.expr = std::move(parsed).take();
  for (const std::string& variable : out.expr.free_variables()) {
    if (variable != "rank" && variable != "nprocs") out.symbolic = true;
  }
  return out;
}

ClauseExpr clause_expr(const core::ParsedDirective& merged,
                       std::string_view name) {
  const core::RawClause* clause = merged.find(name);
  return clause_expr(clause == nullptr ? std::string() : clause->args[0]);
}

Status DirectiveTree::first_issue() const {
  if (issues.empty()) return Status::ok();
  const ScanIssue& first = issues.front();
  return Status(first.status.code(), "line " + std::to_string(first.line) +
                                         ": " + first.status.message());
}

namespace {

class Scanner {
 public:
  explicit Scanner(std::string_view source) : source_(source) {
    tree_.mask = code_mask(source);
    tree_.lines = LineIndex(source);
  }

  DirectiveTree run() && {
    scan_range(0, source_.size(), tree_.roots, tree_.issues);
    return std::move(tree_);
  }

 private:
  void add_issue(std::vector<ScanIssue>& issues, std::size_t pos,
                 Status status) {
    issues.push_back({tree_.lines.line_of(pos), column_of(source_, pos),
                      std::move(status)});
  }

  /// Collect the pragma line starting at `i` (joining backslash
  /// continuations); sets `cursor` just past it. Returns false (with an
  /// issue) when a continuation runs off the end of the range.
  bool collect_pragma(std::size_t i, std::size_t end, std::string& text,
                      std::size_t& cursor, bool& continued,
                      std::vector<ScanIssue>& issues) {
    cursor = i;
    text.clear();
    continued = false;
    for (;;) {
      std::size_t eol = source_.find('\n', cursor);
      if (eol == std::string_view::npos || eol > end) eol = end;
      std::string_view line = source_.substr(cursor, eol - cursor);
      const bool at_end = eol >= end;
      cursor = at_end ? end : eol + 1;
      std::string_view trimmed = cid::trim(line);
      if (!trimmed.empty() && trimmed.back() == '\\') {
        text += trimmed.substr(0, trimmed.size() - 1);
        text += ' ';
        continued = true;
        if (at_end) {
          add_issue(issues, i,
                    Status(ErrorCode::ParseError,
                           "unterminated '\\' continuation in pragma"));
          return false;
        }
      } else {
        text += trimmed;
        return true;
      }
    }
  }

  void scan_range(std::size_t begin, std::size_t end,
                  std::vector<DirectiveNode>& nodes,
                  std::vector<ScanIssue>& issues) {
    std::size_t i = begin;
    while (i < end) {
      if (source_[i] == '#' && tree_.mask[i] != 0 &&
          is_pragma_start(source_, i)) {
        i = scan_directive(i, end, nodes, issues);
        continue;
      }
      ++i;
    }
  }

  /// Scan the directive at `i`; append a node (or an issue) and return the
  /// position to continue from.
  std::size_t scan_directive(std::size_t i, std::size_t end,
                             std::vector<DirectiveNode>& nodes,
                             std::vector<ScanIssue>& issues) {
    std::string pragma_text;
    std::size_t cursor = 0;
    bool continued = false;
    if (!collect_pragma(i, end, pragma_text, cursor, continued, issues)) {
      return end;
    }

    auto parsed = core::parse_pragma(pragma_text);
    if (!parsed.is_ok()) {
      add_issue(issues, i, parsed.status());
      return cursor;  // keep scanning after the bad pragma line
    }

    DirectiveNode node;
    node.directive = std::move(parsed).take();
    node.pragma_continued = continued;
    node.line = tree_.lines.line_of(i);
    node.column = column_of(source_, i);
    node.pragma_begin = i;

    // Locate the attached statement or block.
    std::size_t body_begin = cursor;
    while (body_begin < end &&
           std::isspace(static_cast<unsigned char>(source_[body_begin]))) {
      ++body_begin;
    }
    if (body_begin >= end) {
      add_issue(issues, i,
                Status(ErrorCode::ParseError,
                       "directive has no attached statement or block"));
      return end;
    }

    if (source_[body_begin] == '{') {
      const std::size_t close = find_block_end(
          source_.substr(0, end), body_begin);
      if (close == std::string_view::npos) {
        add_issue(issues, body_begin,
                  Status(ErrorCode::ParseError,
                         "unbalanced braces after directive"));
        return end;
      }
      node.body_is_block = true;
      node.body_begin = body_begin + 1;
      node.body_end = close;
      node.node_end = close + 1;
    } else if (source_[body_begin] == '#' && tree_.mask[body_begin] != 0 &&
               is_pragma_start(source_, body_begin) &&
               node.directive.kind == core::DirectiveKind::CommParameters) {
      // A comm_parameters followed directly by another directive: the inner
      // directive (with its block) is the region body.
      std::vector<DirectiveNode> inner;
      const std::size_t before = issues.size();
      const std::size_t after =
          scan_directive(body_begin, end, inner, issues);
      if (inner.empty()) {
        // The nested directive failed to scan; its issue is already recorded.
        if (issues.size() == before) {
          add_issue(issues, body_begin,
                    Status(ErrorCode::ParseError,
                           "directive has no attached statement or block"));
        }
        return after;
      }
      node.body_begin = body_begin;
      node.body_end = after;
      node.node_end = after;
      node.children = std::move(inner);
      nodes.push_back(std::move(node));
      return after;
    } else {
      const std::size_t semi =
          find_statement_end(source_.substr(0, end), body_begin);
      if (semi == std::string_view::npos) {
        add_issue(issues, body_begin,
                  Status(ErrorCode::ParseError,
                         "directive statement is not terminated"));
        return end;
      }
      node.body_begin = body_begin;
      node.body_end = semi;
      node.node_end = semi;
    }

    scan_range(node.body_begin, node.body_end, node.children, issues);
    const std::size_t node_end = node.node_end;
    nodes.push_back(std::move(node));
    return node_end;
  }

  std::string_view source_;
  DirectiveTree tree_;  // mask and lines filled in first, read by the scan
};

}  // namespace

DirectiveTree scan_directives(std::string_view source) {
  return Scanner(source).run();
}

}  // namespace cid::translate
