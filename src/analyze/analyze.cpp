// The analysis driver: scans the source into the directive tree the
// translator also lowers (translate::scan_directives), recovers the
// declaration model, then walks the tree the way the translator walks it —
// same clause inheritance, same required-clause rule, same synchronization
// placement (core::SyncPlan) — dispatching the match, buffer and type passes
// and performing the sync-placement checks itself (they need sibling context
// the per-directive passes do not have).
#include <algorithm>
#include <cctype>
#include <string>

#include "analyze/analyze.hpp"
#include "analyze/passes.hpp"
#include "core/clauses.hpp"
#include "core/expr.hpp"
#include "core/pragma.hpp"
#include "translate/scan.hpp"

namespace cid::analyze {

using translate::DirectiveNode;
using translate::DirectiveTree;

namespace detail {

int clause_column(const DirectiveNode& node, const core::RawClause& clause) {
  // Clause offsets index the joined pragma text; for single-line pragmas
  // that text starts at the '#', so the offset maps straight to a column.
  // Continuation joining rewrites whitespace, and clauses inherited from an
  // enclosing region live on a different line entirely — both fall back to
  // the pragma's own column.
  if (node.pragma_continued) return node.column;
  const core::RawClause* own = node.directive.find(clause.name);
  if (own == nullptr || own->offset != clause.offset) return node.column;
  return node.column + static_cast<int>(clause.offset);
}

namespace {
bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}
}  // namespace

bool references_identifier(
    const AnalysisContext& ctx, std::size_t begin, std::size_t end,
    const std::string& identifier,
    const std::vector<std::pair<std::size_t, std::size_t>>& exclude) {
  if (identifier.empty()) return false;
  const std::string_view source = ctx.source;
  end = std::min(end, source.size());
  for (std::size_t i = begin; i + identifier.size() <= end; ++i) {
    if (ctx.mask[i] == 0) continue;
    bool excluded = false;
    for (const auto& [from, to] : exclude) {
      if (i >= from && i < to) {
        excluded = true;
        break;
      }
    }
    if (excluded) continue;
    if (source.compare(i, identifier.size(), identifier) != 0) continue;
    if (i > begin && ident_char(source[i - 1])) continue;
    const std::size_t after = i + identifier.size();
    if (after < end && ident_char(source[after])) continue;
    return true;
  }
  return false;
}

}  // namespace detail

namespace {

using detail::AnalysisContext;
using detail::InFlight;
using detail::InFlightPlan;

class Walker {
 public:
  explicit Walker(AnalysisContext& ctx) : ctx_(ctx) {}

  void run(const std::vector<DirectiveNode>& roots) {
    sequence(roots, nullptr);
  }

 private:
  AnalysisContext& ctx_;
  /// Receives in flight, placed the way the executor and translator place
  /// their synchronization; a landed batch is simply forgotten.
  InFlightPlan plan_;
  static void forget(std::vector<InFlight>& batch) { batch.clear(); }

  static bool is_region(const DirectiveNode& node) {
    return node.directive.kind == core::DirectiveKind::CommParameters;
  }

  /// Clause-value checks on a region directive: place_sync/target keywords
  /// (CID-S032), max_comm_iter positivity (CID-S032), conflicts with the
  /// enclosing region (CID-S033) and reliability constraints (CID-S035).
  void check_region_clauses(const DirectiveNode& node,
                            const core::ParsedDirective* inherited,
                            const core::ParsedDirective& merged) {
    if (const auto* clause = node.directive.find("place_sync")) {
      auto parsed = core::parse_sync_placement_keyword(clause->args[0]);
      if (!parsed.is_ok()) {
        ctx_.report.add("CID-S032", Severity::Error, node.line,
                        detail::clause_column(node, *clause),
                        "place_sync(" + clause->args[0] + "): " +
                            parsed.status().message());
      }
    }
    if (const auto* clause = node.directive.find("max_comm_iter")) {
      auto expr = core::Expr::parse(clause->args[0]);
      if (expr.is_ok() && expr.value().free_variables().empty()) {
        auto value = expr.value().eval(core::Env{});
        if (value.is_ok() && value.value() <= 0) {
          ctx_.report.add(
              "CID-S032", Severity::Error, node.line,
              detail::clause_column(node, *clause),
              "max_comm_iter(" + clause->args[0] + ") evaluates to " +
                  std::to_string(value.value()) +
                  "; the region would execute no communication iterations");
        }
      }
      if (inherited != nullptr) {
        if (const auto* outer = inherited->find("max_comm_iter");
            outer != nullptr && outer->args[0] != clause->args[0]) {
          ctx_.report.add(
              "CID-S033", Severity::Warning, node.line,
              detail::clause_column(node, *clause),
              "max_comm_iter(" + clause->args[0] +
                  ") overrides the enclosing region's max_comm_iter(" +
                  outer->args[0] +
                  "); nested regions iterate under the inner bound only",
              "drop the inner clause or make the bounds agree");
        }
      }
    }
    if (const auto* clause = merged.find("reliability")) {
      // TARGET_COMM_AUTO is fine: the runtime tuner forces the two-sided
      // lowering whenever a reliability clause is present.
      if (const auto* target = merged.find("target");
          target != nullptr && target->args[0] != "TARGET_COMM_MPI_2SIDE" &&
          target->args[0] != "TARGET_COMM_AUTO") {
        ctx_.report.add(
            "CID-S035", Severity::Error, node.line,
            detail::clause_column(node, *clause),
            "reliability requires TARGET_COMM_MPI_2SIDE, but the region "
            "targets " + target->args[0],
            "the ack/retransmit protocol rides on two-sided messages; drop "
            "the target clause or the reliability clause");
      }
      for (std::size_t i = 0; i < clause->args.size(); ++i) {
        auto expr = core::Expr::parse(clause->args[i]);
        if (!expr.is_ok() || !expr.value().free_variables().empty()) continue;
        auto value = expr.value().eval(core::Env{});
        if (!value.is_ok()) continue;
        if ((i == 0 && value.value() <= 0) || (i == 1 && value.value() < 0)) {
          ctx_.report.add(
              "CID-S035", Severity::Warning, node.line,
              detail::clause_column(node, *clause),
              "reliability(" + clause->args[0] + ", " + clause->args[1] +
                  "): " + (i == 0 ? "timeout must be positive"
                                  : "retry count must be non-negative"));
          break;
        }
      }
    }
    if (const auto* clause = node.directive.find("target")) {
      auto parsed = core::parse_target_keyword(clause->args[0]);
      if (!parsed.is_ok()) {
        ctx_.report.add("CID-S032", Severity::Error, node.line,
                        detail::clause_column(node, *clause),
                        "target(" + clause->args[0] + "): " +
                            parsed.status().message());
      }
    }
  }

  /// Walk one sibling sequence (the file top level, or a region body).
  void sequence(const std::vector<DirectiveNode>& nodes,
                const core::ParsedDirective* inherited) {
    std::size_t previous_end = std::string::npos;

    for (std::size_t k = 0; k < nodes.size(); ++k) {
      const DirectiveNode& node = nodes[k];
      ++ctx_.report.directives_checked;

      // Statements between this node and the previous sibling run while
      // deferred receives are still in flight.
      if (previous_end != std::string::npos &&
          previous_end < node.pragma_begin) {
        plan_.for_each_deferred([&](const std::vector<InFlight>& batch) {
          detail::check_gap_references(ctx_, previous_end, node.pragma_begin,
                                       batch);
        });
      }

      const core::ParsedDirective merged =
          inherited == nullptr
              ? node.directive
              : translate::merge_directives(*inherited, node.directive);

      if (is_region(node)) {
        check_region_clauses(node, inherited, merged);

        // An invalid keyword is reported above (CID-S032).
        const auto parsed = core::place_sync_of(node.directive);
        const core::SyncPlacement placement =
            parsed.is_ok() ? parsed.value()
                           : core::SyncPlacement::EndParamRegion;
        if (placement != core::SyncPlacement::EndParamRegion) {
          // Deferred syncs drain only at a later sibling region.
          bool has_following_region = false;
          for (std::size_t j = k + 1; j < nodes.size(); ++j) {
            if (is_region(nodes[j])) has_following_region = true;
          }
          if (!has_following_region) {
            const bool begin_next =
                placement == core::SyncPlacement::BeginNextParamRegion;
            ctx_.report.add(
                begin_next ? "CID-S030" : "CID-S031", Severity::Error,
                node.line, node.column,
                std::string("place_sync(") +
                    (begin_next ? "BEGIN_NEXT_PARAM_REGION"
                                : "END_ADJ_PARAM_REGIONS") +
                    ") defers the consolidated sync to a following "
                    "parameter region, but no region follows this one",
                "the receives posted here would never be completed; use "
                "END_PARAM_REGION or add the adjacent region");
          }
        }

        plan_.begin_region(forget);
        sequence(node.children, &merged);
        plan_.end_region(placement, forget);
      } else {
        // A collective synchronizes: the executor lands the open batch
        // before it runs.
        if (node.directive.kind == core::DirectiveKind::CommCollective) {
          forget(plan_.open());
        }
        const bool usable =
            detail::check_required_clauses(ctx_, node, merged);
        if (usable) {
          detail::check_match_and_counts(ctx_, node, merged);
          detail::check_buffer_types(ctx_, node, merged);
          detail::check_p2p_buffers(ctx_, node, merged, plan_,
                                    /*append=*/inherited != nullptr);
        }
        if (const auto* clause = node.directive.find("target")) {
          auto parsed = core::parse_target_keyword(clause->args[0]);
          if (!parsed.is_ok()) {
            ctx_.report.add("CID-S032", Severity::Error, node.line,
                            detail::clause_column(node, *clause),
                            "target(" + clause->args[0] + "): " +
                                parsed.status().message());
          }
        }
        // Directives nested inside a p2p body inherit the same surrounding
        // region, as the translator lowers them.
        sequence(node.children, inherited);
      }
      previous_end = node.node_end;
    }
  }
};

/// Classify a scan issue by its message: the scanner produces a closed set
/// of structural messages, everything else is the pragma parser speaking.
void add_scan_issue(Report& report, const translate::ScanIssue& issue) {
  const std::string& message = issue.status.message();
  const char* id = "CID-P001";
  std::string hint;
  if (message.find("continuation") != std::string::npos) {
    id = "CID-P004";
    hint = "every '\\'-continued line must be followed by another line";
  } else if (message == "directive has no attached statement or block" ||
             message == "unbalanced braces after directive" ||
             message == "directive statement is not terminated") {
    id = "CID-P002";
  } else {
    hint = "see docs/DIRECTIVES.md for the clause grammar";
  }
  report.add(id, Severity::Error, issue.line, issue.column, message,
             std::move(hint));
}

}  // namespace

Report analyze_source(std::string_view source, const Options& options) {
  Report report;
  const DirectiveTree tree = translate::scan_directives(source);
  const SourceModel model = SourceModel::scan(source, tree);

  for (const translate::ScanIssue& issue : tree.issues) {
    add_scan_issue(report, issue);
  }

  AnalysisContext ctx{source, tree.mask, tree.lines, model, options, report};
  Walker(ctx).run(tree.roots);
  report.sort();
  return report;
}

}  // namespace cid::analyze
