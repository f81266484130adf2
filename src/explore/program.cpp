#include "explore/program.hpp"

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
  SyncScope open;

  void flush() {
    if (open.ops.empty()) return;
    program.scopes.push_back(std::move(open));
    open = SyncScope{};
  }

  void note(const DirectiveNode& node, const std::string& text) {
    program.notes.push_back("line " + std::to_string(node.line) + ": " + text);
  }

  /// A transfer the translator rejects and the analyzer reports as
  /// CID-P005/P006 is not modeled.
  bool incomplete(const DirectiveNode& node, const ParsedDirective& merged) {
    const auto problems = translate::required_clause_problems(merged);
    if (problems.empty()) return false;
    note(node, problems.front().message + "; skipped (" +
                   (problems.front().missing ? "CID-P005" : "CID-P006") +
                   " territory)");
    return true;
  }

  /// Directives nested in a transfer's body are not modeled.
  void note_nested(const std::vector<DirectiveNode>& nodes) {
    for (const DirectiveNode& node : nodes) {
      note(node, "directive nested in a transfer's body not modeled");
      note_nested(node.children);
    }
  }

  int new_site(int line) {
    program.site_lines.push_back(line);
    return static_cast<int>(program.site_lines.size()) - 1;
  }

  void add_p2p(const DirectiveNode& node, const ParsedDirective& merged) {
    Op op;
    op.site = new_site(node.line);
    op.line = node.line;
    if (incomplete(node, merged)) return;
    op.sender = translate::clause_expr(merged, "sender");
    op.receiver = translate::clause_expr(merged, "receiver");
    op.sendwhen = translate::clause_expr(merged, "sendwhen");
    op.receivewhen = translate::clause_expr(merged, "receivewhen");
    if (op.sender.unparsable() || op.receiver.unparsable() ||
        op.sendwhen.unparsable() || op.receivewhen.unparsable()) {
      note(node, "comm_p2p skipped: clause expression does not parse "
                 "(CID-P003 territory)");
      return;
    }
    const core::RawClause* sbuf = merged.find("sbuf");
    op.sbuf = sbuf->args[0];
    op.rbuf = merged.find("rbuf")->args[0];
    if (sbuf->args.size() > 1) {
      note(node, "only the first sbuf/rbuf pair is modeled");
    }
    if (op.sender.symbolic || op.receiver.symbolic || op.sendwhen.symbolic ||
        op.receivewhen.symbolic) {
      ++program.symbolic_clauses;
    }
    open.ops.push_back(std::move(op));
  }

  void add_collective(const DirectiveNode& node,
                      const ParsedDirective& merged) {
    Op op;
    op.collective = true;
    op.site = new_site(node.line);
    op.line = node.line;
    if (incomplete(node, merged)) return;
    const core::RawClause* pattern = merged.find("pattern");
    if (pattern == nullptr || pattern->args.empty()) {
      note(node, "comm_collective skipped: missing pattern clause");
      return;
    }
    auto kind = core::parse_pattern_keyword(pattern->args[0]);
    if (!kind.is_ok()) {
      note(node, "comm_collective skipped: unknown pattern '" +
                     pattern->args[0] + "'");
      return;
    }
    switch (kind.value()) {
      case core::Pattern::OneToMany:
        op.kind = CollectiveKind::Bcast;
        break;
      case core::Pattern::ManyToOne:
        op.kind = CollectiveKind::Gather;
        break;
      case core::Pattern::AllToAll:
        op.kind = CollectiveKind::AllToAll;
        break;
    }
    op.root = translate::clause_expr(merged, "root");
    if (op.root.unparsable()) {
      note(node, "comm_collective skipped: root expression does not parse");
      return;
    }
    if (op.root.symbolic) ++program.symbolic_clauses;
    open.ops.push_back(std::move(op));
  }

  /// Walk the children of a region (or the root list). A nested
  /// comm_parameters closes the surrounding scope: its transfers complete at
  /// its own end, before anything posted after it.
  void walk(const std::vector<DirectiveNode>& nodes,
            const ParsedDirective* inherited) {
    for (const DirectiveNode& node : nodes) {
      ParsedDirective merged =
          inherited != nullptr
              ? translate::merge_directives(*inherited, node.directive)
              : node.directive;
      switch (node.directive.kind) {
        case DirectiveKind::CommParameters: {
          flush();
          if (merged.find("reliability") != nullptr) {
            note(node, "reliability clause ignored (no fault layer under "
                       "exploration)");
          }
          if (merged.find("max_comm_iter") != nullptr) {
            note(node, "region body executes once (max_comm_iter ignored)");
          }
          if (const auto* sync = merged.find("place_sync");
              sync != nullptr && !sync->args.empty() &&
              sync->args[0] != "END_PARAM_REGION") {
            note(node, "place_sync " + sync->args[0] +
                           " modeled as END_PARAM_REGION");
          }
          const int before = static_cast<int>(program.scopes.size());
          walk(node.children, &merged);
          flush();
          if (static_cast<int>(program.scopes.size()) > before &&
              program.scopes[before].line == 0) {
            program.scopes[before].line = node.line;
          }
          break;
        }
        case DirectiveKind::CommP2P:
          add_p2p(node, merged);
          note_nested(node.children);
          if (open.line == 0) open.line = node.line;
          if (inherited == nullptr) flush();  // standalone: own sync scope
          break;
        case DirectiveKind::CommCollective:
          add_collective(node, merged);
          note_nested(node.children);
          if (open.line == 0) open.line = node.line;
          if (inherited == nullptr) flush();
          break;
      }
    }
  }
};

}  // namespace

Result<Program> build_program(std::string_view source) {
  const translate::DirectiveTree tree = translate::scan_directives(source);
  if (Status status = tree.first_issue(); !status.is_ok()) return status;
  Builder builder;
  builder.walk(tree.roots, nullptr);
  builder.flush();
  return std::move(builder.program);
}

}  // namespace cid::explore
