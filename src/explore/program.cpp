#include "explore/program.hpp"

#include <optional>

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

  /// Directives nested in a transfer's body are not modeled.
  void note_nested(const std::vector<DirectiveNode>& nodes) {
    for (const DirectiveNode& node : nodes) {
      note(node, "directive nested in a transfer's body not modeled");
      note_nested(node.children);
    }
  }

  /// A transfer or collective leaf with a fresh site index.
  Node leaf(const DirectiveNode& node, Node::Kind kind) {
    program.site_lines.push_back(node.line);
    Node leaf;
    leaf.kind = kind;
    leaf.line = node.line;
    leaf.site = static_cast<int>(program.site_lines.size()) - 1;
    return leaf;
  }

  std::optional<Node> p2p(const DirectiveNode& node,
                          const ParsedDirective& merged) {
    Node op = leaf(node, Node::Kind::Transfer);
    if (incomplete(node, merged)) return std::nullopt;
    op.sender = translate::clause_expr(merged, "sender");
    op.receiver = translate::clause_expr(merged, "receiver");
    op.sendwhen = translate::clause_expr(merged, "sendwhen");
    op.receivewhen = translate::clause_expr(merged, "receivewhen");
    if (op.sender.unparsable() || op.receiver.unparsable() ||
        op.sendwhen.unparsable() || op.receivewhen.unparsable()) {
      note(node, "comm_p2p skipped: clause expression does not parse "
                 "(CID-P003 territory)");
      return std::nullopt;
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
    return op;
  }

  std::optional<Node> collective(const DirectiveNode& node,
                                 const ParsedDirective& merged) {
    Node op = leaf(node, Node::Kind::Collective);
    if (incomplete(node, merged)) return std::nullopt;
    // The scanner rejects a collective without a pattern clause.
    const std::string& pattern = merged.find("pattern")->args[0];
    auto kind = core::parse_pattern_keyword(pattern);
    if (!kind.is_ok()) {
      note(node, "comm_collective skipped: unknown pattern '" + pattern + "'");
      return std::nullopt;
    }
    op.pattern = kind.value();
    op.root = translate::clause_expr(merged, "root");
    if (op.root.unparsable()) {
      note(node, "comm_collective skipped: root expression does not parse");
      return std::nullopt;
    }
    if (op.root.symbolic) ++program.symbolic_clauses;
    return op;
  }

  /// The modeled nodes of the children of a region (or of the root list).
  std::vector<Node> walk(const std::vector<DirectiveNode>& nodes,
                         const ParsedDirective* inherited) {
    std::vector<Node> out;
    for (const DirectiveNode& node : nodes) {
      ParsedDirective merged =
          inherited != nullptr
              ? translate::merge_directives(*inherited, node.directive)
              : node.directive;
      std::optional<Node> modeled;
      switch (node.directive.kind) {
        case DirectiveKind::CommParameters: {
          if (merged.find("reliability") != nullptr) {
            note(node, "reliability clause ignored (no fault layer under "
                       "exploration)");
          }
          if (merged.find("max_comm_iter") != nullptr) {
            note(node, "region body executes once (max_comm_iter ignored)");
          }
          Node region;
          region.kind = Node::Kind::Region;
          region.line = node.line;
          // An invalid keyword is the analyzer's CID-S032.
          const auto placement = core::place_sync_of(node.directive);
          if (placement.is_ok()) region.place_sync = placement.value();
          region.children = walk(node.children, &merged);
          modeled = std::move(region);
          break;
        }
        case DirectiveKind::CommP2P:
          modeled = p2p(node, merged);
          note_nested(node.children);
          break;
        case DirectiveKind::CommCollective:
          modeled = collective(node, merged);
          note_nested(node.children);
          break;
      }
      if (modeled) out.push_back(std::move(*modeled));
    }
    return out;
  }
};

}  // namespace

Result<Program> build_program(std::string_view source) {
  const translate::DirectiveTree tree = translate::scan_directives(source);
  if (Status status = tree.first_issue(); !status.is_ok()) return status;
  Builder builder;
  builder.program.roots = builder.walk(tree.roots, nullptr);
  return std::move(builder.program);
}

}  // namespace cid::explore
