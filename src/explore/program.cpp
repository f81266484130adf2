#include "explore/program.hpp"

#include <utility>

#include "core/clauses.hpp"
#include "core/pragma.hpp"
#include "translate/scan.hpp"

namespace cid::explore {

namespace {

using core::DirectiveKind;
using core::ParsedDirective;
using translate::DirectiveNode;

struct Builder {
  Program program;

  void note(const DirectiveNode& node, const std::string& text) {
    program.notes.push_back("line " + std::to_string(node.line) + ": " + text);
  }

  /// A transfer the translator rejects and the analyzer reports as
  /// CID-P005/P006 is not modeled.
  bool incomplete(const DirectiveNode& node, const ParsedDirective& merged) {
    const auto problems = translate::required_clause_problems(merged);
    if (problems.empty()) return false;
    note(node, problems.front().message + "; skipped (" +
                   (problems.front().missing.empty() ? "CID-P006"
                                                     : "CID-P005") +
                   " territory)");
    return true;
  }

  /// Decode a transfer's clauses into `op`; false, with a note, when the
  /// explorer skips it.
  bool p2p(const DirectiveNode& node, const ParsedDirective& merged,
           Node& op) {
    if (incomplete(node, merged)) return false;
    op.sender = translate::clause_expr(merged, "sender");
    op.receiver = translate::clause_expr(merged, "receiver");
    op.sendwhen = translate::clause_expr(merged, "sendwhen");
    op.receivewhen = translate::clause_expr(merged, "receivewhen");
    if (op.sender.unparsable() || op.receiver.unparsable() ||
        op.sendwhen.unparsable() || op.receivewhen.unparsable()) {
      note(node, "comm_p2p skipped: clause expression does not parse "
                 "(CID-P003 territory)");
      return false;
    }
    const core::RawClause* sbuf = merged.find("sbuf");
    op.sbuf = translate::buffer_identity(sbuf->args[0]);
    op.rbuf = translate::buffer_identity(merged.find("rbuf")->args[0]);
    if (sbuf->args.size() > 1) {
      note(node, "only the first sbuf/rbuf pair is modeled");
    }
    if (op.sender.symbolic || op.receiver.symbolic || op.sendwhen.symbolic ||
        op.receivewhen.symbolic) {
      ++program.symbolic_clauses;
    }
    return true;
  }

  bool collective(const DirectiveNode& node, const ParsedDirective& merged,
                  Node& op) {
    if (incomplete(node, merged)) return false;
    // The scanner rejects a collective without a pattern clause.
    const std::string& pattern = merged.find("pattern")->args[0];
    auto kind = core::parse_pattern_keyword(pattern);
    if (!kind.is_ok()) {
      note(node, "comm_collective skipped: unknown pattern '" + pattern + "'");
      return false;
    }
    op.pattern = kind.value();
    op.root = translate::clause_expr(merged, "root");
    if (op.root.unparsable()) {
      note(node, "comm_collective skipped: root expression does not parse");
      return false;
    }
    if (op.root.symbolic) ++program.symbolic_clauses;
    return true;
  }

  /// Decode the leaves of `nodes` and their bodies in textual order.
  void decode(const std::vector<DirectiveNode>& nodes,
              const ParsedDirective* enclosing) {
    for (const DirectiveNode& node : nodes) {
      const ParsedDirective merged =
          translate::merge_directives(enclosing, node.directive);
      if (node.directive.kind == DirectiveKind::CommParameters) {
        if (merged.find("reliability") != nullptr) {
          note(node, "reliability clause ignored (no fault layer under "
                     "exploration)");
        }
        if (merged.find("max_comm_iter") != nullptr) {
          note(node, "region body executes once (max_comm_iter ignored)");
        }
        decode(node.children, &merged);
        continue;
      }
      const bool transfer = node.directive.kind == DirectiveKind::CommP2P;
      Node op;
      op.line = node.line;
      op.site = static_cast<int>(program.leaves.size());
      op.skipped = !(transfer ? p2p(node, merged, op)
                              : collective(node, merged, op));
      program.leaves.push_back(std::move(op));
      decode(node.children, enclosing);
    }
  }
};

}  // namespace

Result<Program> build_program(std::string_view source) {
  translate::DirectiveTree tree = translate::scan_directives(source);
  if (Status status = tree.first_issue(); !status.is_ok()) return status;
  Builder builder;
  builder.decode(tree.roots, nullptr);
  builder.program.roots = std::move(tree.roots);
  return std::move(builder.program);
}

}  // namespace cid::explore
