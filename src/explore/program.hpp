// The directive program model executed by the schedule-space explorer.
//
// cid::explore does not interpret arbitrary C++ — it interprets the
// *communication intent*: the directive tree, which each rank runs through
// translate::walk, with the leaves' clauses decoded once, here. Everything
// the static analyzer must skip as symbolic — guards, peers and roots
// referencing variables other than rank/nprocs — becomes an explicit
// nondeterministic decision point for the explorer instead.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "core/clauses.hpp"
#include "translate/scan.hpp"

namespace cid::explore {

/// One clause expression, read as the analyzer reads it
/// (translate::clause_expr). The explorer branches over the outcomes of
/// `symbolic` expressions instead of evaluating them.
using translate::ClauseExpr;

/// One leaf of the directive tree: a transfer (comm_p2p; on rank r: send to
/// receiver(r) under sendwhen(r), receive from sender(r) under
/// receivewhen(r)) or a collective. Its `site` is its index in textual leaf
/// order, the order translate::walk reaches leaves in; it is stamped into
/// every payload the leaf sends, which is how the explorer attributes a
/// delivered message back to its source line. The explorer does not model
/// a `skipped` leaf (see Program::notes).
struct Node {
  int line = 0;
  int site = 0;
  bool skipped = false;
  // transfer
  ClauseExpr sender, receiver, sendwhen, receivewhen;
  std::string sbuf, rbuf;  ///< the first pair, as translate::buffer_identity
  // collective
  core::Pattern pattern = core::Pattern::OneToMany;
  ClauseExpr root;
};

/// The adjacency rule on buffer identities: a transfer receiving into
/// op.rbuf touches any held buffer of that name; one sending from op.sbuf
/// touches a held buffer of that name that a receive writes.
inline bool touches_buffer(const Node& op, bool receives, bool sends,
                           const std::string& held, bool held_by_receive) {
  return (receives && held == op.rbuf) ||
         (sends && held_by_receive && held == op.sbuf);
}

struct Program {
  /// The directive tree; interpret_rank runs it through translate::walk.
  std::vector<translate::DirectiveNode> roots;
  std::vector<Node> leaves;        ///< by site
  std::vector<std::string> notes;  ///< model simplifications applied
  int symbolic_clauses = 0;        ///< leaves carrying >= 1 symbolic clause
};

/// Build the program from annotated source. Fails on scan-level structural
/// errors; directives that are unusable (missing required clauses, unparsable
/// expressions) are skipped with a note — the static analyzer already
/// reports those as CID-P0xx errors.
Result<Program> build_program(std::string_view source);

}  // namespace cid::explore
