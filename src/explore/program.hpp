// The directive program model executed by the schedule-space explorer.
//
// cid::explore does not interpret arbitrary C++ — it interprets the
// *communication intent*: the tree of #pragma comm_* directives, with clause
// inheritance resolved, flattened into the sequence of synchronization
// scopes the directive executor runs (post every transfer of the scope,
// one consolidated completion at its end). Everything the static analyzer
// must skip as symbolic — guards, peers and roots referencing variables
// other than rank/nprocs — becomes an explicit nondeterministic decision
// point for the explorer instead.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "translate/scan.hpp"

namespace cid::explore {

/// One clause expression, read as the analyzer reads it
/// (translate::clause_expr). The explorer branches over the outcomes of
/// `symbolic` expressions instead of evaluating them.
using translate::ClauseExpr;

enum class CollectiveKind { Bcast, Gather, AllToAll };

/// One transfer of the program: a comm_p2p (on rank r: send to receiver(r)
/// under sendwhen(r), receive from sender(r) under receivewhen(r)) or a
/// comm_collective. `site` is the directive's index in textual order — it is
/// stamped into every payload the directive sends, which is how the explorer
/// attributes a delivered message back to its source line.
struct Op {
  bool collective = false;
  int site = 0;
  int line = 0;
  // point-to-point
  ClauseExpr sender, receiver, sendwhen, receivewhen;
  std::string sbuf, rbuf;
  // collective
  CollectiveKind kind = CollectiveKind::Bcast;
  ClauseExpr root;
};

/// Ops posted together and completed by one consolidated sync — a
/// comm_parameters region (or the slice of one between nested regions), or
/// a standalone directive.
struct SyncScope {
  std::vector<Op> ops;
  int line = 0;
};

struct Program {
  std::vector<SyncScope> scopes;
  std::vector<int> site_lines;     ///< site index -> 1-based source line
  std::vector<std::string> notes;  ///< model simplifications applied
  int symbolic_clauses = 0;        ///< ops carrying >= 1 symbolic clause
};

/// Build the program from annotated source. Fails on scan-level structural
/// errors; directives that are unusable (missing required clauses, unparsable
/// expressions) are skipped with a note — the static analyzer already
/// reports those as CID-P0xx errors.
Result<Program> build_program(std::string_view source);

}  // namespace cid::explore
