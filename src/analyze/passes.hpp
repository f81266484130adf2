// Internal plumbing shared by the analyzer passes. Not installed; include
// only from within src/analyze.
#pragma once

#include <string>
#include <vector>

#include "analyze/analyze.hpp"
#include "analyze/diagnostics.hpp"
#include "analyze/source_model.hpp"
#include "core/sync_plan.hpp"
#include "translate/scan.hpp"

namespace cid::analyze::detail {

struct AnalysisContext {
  std::string_view source;
  const std::vector<unsigned char>& mask;  ///< translate::code_mask(source)
  const translate::LineIndex& lines;       ///< line starts of source
  const SourceModel& model;
  const Options& options;
  Report& report;
};

/// A receive posted by an earlier comm_p2p whose consolidated sync has not
/// landed yet.
struct InFlight {
  std::string text;  ///< rbuf clause argument, whitespace-normalized
  std::string base;  ///< base identifier ("" when none)
  std::string receivewhen;  ///< guard expression text ("" when unguarded)
  int line = 0;             ///< line of the posting directive
};

/// The receives in flight, one batch per synchronization point
/// (core/sync_plan.hpp).
using InFlightPlan = core::SyncPlan<std::vector<InFlight>>;

/// Column of a clause within its pragma (falls back to the pragma's own
/// column for '\'-continued pragmas, where joined offsets do not map back).
int clause_column(const translate::DirectiveNode& node,
                  const core::RawClause& clause);

/// Does [begin,end) reference `identifier` as a whole token in live code
/// (comments/strings masked out), outside the given excluded subranges?
bool references_identifier(
    const AnalysisContext& ctx, std::size_t begin, std::size_t end,
    const std::string& identifier,
    const std::vector<std::pair<std::size_t, std::size_t>>& exclude);

/// Rank-symbolic match analysis + count checks + dead-directive detection
/// for one comm_p2p (CID-M010..M015, CID-S034) or comm_collective
/// (root-range check). `merged` is the directive with inherited clauses.
void check_match_and_counts(AnalysisContext& ctx,
                            const translate::DirectiveNode& node,
                            const core::ParsedDirective& merged);

/// translate::required_clause_problems reported as diagnostics: required
/// clauses after inheritance (CID-P005) and sbuf/rbuf list-length agreement
/// (CID-P006). Returns false when the directive is too malformed for the
/// other passes.
bool check_required_clauses(AnalysisContext& ctx,
                            const translate::DirectiveNode& node,
                            const core::ParsedDirective& merged);

/// Buffer race checks for one comm_p2p: rbuf already in flight in any batch
/// of `plan` (CID-B020), sbuf/rbuf self-alias on a rank that both sends and
/// receives (CID-B021), overlap statements touching an in-flight rbuf
/// (CID-B022). Appends the directive's rbufs to the plan's open batch when
/// `append` is set (directives inside a comm_parameters region, whose
/// consolidated sync is still to come); standalone directives synchronize
/// immediately and leave nothing behind.
void check_p2p_buffers(AnalysisContext& ctx,
                       const translate::DirectiveNode& node,
                       const core::ParsedDirective& merged, InFlightPlan& plan,
                       bool append);

/// CID-B023: statements in [begin,end) touching buffers whose sync was
/// deferred past their region (place_sync BEGIN_NEXT/END_ADJ).
void check_gap_references(AnalysisContext& ctx, std::size_t begin,
                          std::size_t end,
                          const std::vector<InFlight>& deferred);

/// Reflection rules surfaced at lint time (CID-T040..T042) for every
/// composite buffer of the directive.
void check_buffer_types(AnalysisContext& ctx,
                        const translate::DirectiveNode& node,
                        const core::ParsedDirective& merged);

}  // namespace cid::analyze::detail
