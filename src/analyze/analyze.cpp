// The analysis driver: scans the source into the directive tree the
// translator also lowers (translate::scan_directives), recovers the
// declaration model, then runs the tree through translate::walk, the static
// walk the explorer also runs, so it merges clauses and lands every batch
// where the directive executor does. Its effects dispatch the match, buffer
// and type passes and perform the sync-placement checks.
#include <algorithm>
#include <cctype>
#include <optional>
#include <span>
#include <string>

#include "analyze/analyze.hpp"
#include "analyze/passes.hpp"
#include "core/clauses.hpp"
#include "core/expr.hpp"
#include "core/pragma.hpp"
#include "translate/scan.hpp"
#include "translate/walk.hpp"

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

/// The analyzer's effects for translate::walk. One plan stands for every
/// rank: a batch (the buffers held) lands where some rank provably does.
class Analysis {
 public:
  using Batch = std::vector<InFlight>;

  explicit Analysis(AnalysisContext& ctx) : ctx_(ctx) {}

  /// A region's clause-value checks: place_sync/target keywords
  /// (CID-S032), a deferring place_sync with no later sibling region
  /// (CID-S030/S031), max_comm_iter positivity (CID-S032), conflicts with
  /// the enclosing region (CID-S033) and reliability constraints (CID-S035).
  void region(const DirectiveNode& node, const core::ParsedDirective& merged,
              const core::ParsedDirective* enclosing,
              std::span<const DirectiveNode> later) {
    ++ctx_.report.directives_checked;
    if (const auto* clause = node.directive.find("place_sync")) {
      auto parsed = core::parse_sync_placement_keyword(clause->args[0]);
      if (!parsed.is_ok()) {
        ctx_.report.add("CID-S032", Severity::Error, node.line,
                        detail::clause_column(node, *clause),
                        "place_sync(" + clause->args[0] + "): " +
                            parsed.status().message());
      } else if (parsed.value() != core::SyncPlacement::EndParamRegion &&
                 std::none_of(later.begin(), later.end(), [](const auto& s) {
                   return s.directive.kind ==
                          core::DirectiveKind::CommParameters;
                 })) {
        // Deferred syncs drain only at a later sibling region.
        const bool begin_next =
            parsed.value() == core::SyncPlacement::BeginNextParamRegion;
        ctx_.report.add(
            begin_next ? "CID-S030" : "CID-S031", Severity::Error, node.line,
            node.column,
            "place_sync(" + clause->args[0] +
                ") defers the consolidated sync to a following parameter "
                "region, but no region follows this one",
            "the receives posted here would never be completed; use "
            "END_PARAM_REGION or add the adjacent region");
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
      if (enclosing != nullptr) {
        if (const auto* outer = enclosing->find("max_comm_iter");
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
    check_target_keyword(node);
  }

  void between(const DirectiveNode& previous, const DirectiveNode& next,
               const Batch& deferred) {
    detail::check_gap_references(ctx_, previous, next, deferred);
  }

  std::optional<Batch> prepare(const DirectiveNode& node,
                               const core::ParsedDirective& merged) {
    if (!check_leaf(node, merged)) return std::nullopt;
    reported_ = false;
    return detail::check_p2p_buffers(ctx_, node, merged);
  }

  bool touches(const Batch& batch, const Batch& posting) {
    return detail::touches_in_flight(ctx_, posting, batch, reported_);
  }

  void post(const Batch& posting, Batch& open) {
    open.insert(open.end(), posting.begin(), posting.end());
  }

  void land(Batch& batch) { batch.clear(); }

  void collective(const DirectiveNode& node,
                  const core::ParsedDirective& merged) {
    check_leaf(node, merged);
  }

 private:
  /// The checks every transfer and collective gets. Returns false when the
  /// directive is too malformed for the buffer checks.
  bool check_leaf(const DirectiveNode& node,
                  const core::ParsedDirective& merged) {
    ++ctx_.report.directives_checked;
    const bool usable = detail::check_required_clauses(ctx_, node, merged);
    if (usable) {
      detail::check_match_and_counts(ctx_, node, merged);
      detail::check_buffer_types(ctx_, node, merged);
    }
    check_target_keyword(node);
    return usable;
  }

  void check_target_keyword(const DirectiveNode& node) {
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

  AnalysisContext& ctx_;
  bool reported_ = false;  ///< CID-B020 already reported for this posting
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
  Analysis analysis(ctx);
  translate::walk(tree.roots, analysis);
  report.sort();
  return report;
}

}  // namespace cid::analyze
