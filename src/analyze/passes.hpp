// Internal plumbing shared by the analyzer passes. Not installed; include
// only from within src/analyze.
#pragma once

#include <string>
#include <vector>

#include "analyze/analyze.hpp"
#include "analyze/diagnostics.hpp"
#include "analyze/source_model.hpp"
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

/// A buffer a comm_p2p holds until its synchronization lands: a receive
/// writes it, a send reads it.
struct InFlight {
  std::string text;   ///< clause argument (translate::buffer_identity)
  std::string base;   ///< base identifier ("" when none)
  std::string guard;  ///< its receivewhen/sendwhen text ("" when unguarded)
  int line = 0;       ///< line of the posting directive
  int column = 0;     ///< column of its buffer clause there
  bool recv = false;
};

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

/// The buffers a comm_p2p that passed check_required_clauses holds once
/// posted, after its sbuf/rbuf self-alias (CID-B021) and overlap-block
/// (CID-B022) checks.
std::vector<InFlight> check_p2p_buffers(AnalysisContext& ctx,
                                        const translate::DirectiveNode& node,
                                        const core::ParsedDirective& merged);

/// The adjacency rule: does a transfer holding `posting` touch a buffer
/// `batch` holds, on a rank that provably posts both? CID-B020 (unless
/// `reported`, which it sets) when a receive holds it: the executor
/// completes that receive first.
bool touches_in_flight(AnalysisContext& ctx,
                       const std::vector<InFlight>& posting,
                       const std::vector<InFlight>& batch, bool& reported);

/// CID-B023: statements between two sibling directives touching buffers
/// whose receive was deferred past them (place_sync BEGIN_NEXT/END_ADJ).
void check_gap_references(AnalysisContext& ctx,
                          const translate::DirectiveNode& previous,
                          const translate::DirectiveNode& next,
                          const std::vector<InFlight>& deferred);

/// Reflection rules surfaced at lint time (CID-T040..T042) for every
/// composite buffer of the directive.
void check_buffer_types(AnalysisContext& ctx,
                        const translate::DirectiveNode& node,
                        const core::ParsedDirective& merged);

}  // namespace cid::analyze::detail
