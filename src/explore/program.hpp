// The directive program model executed by the schedule-space explorer.
//
// cid::explore does not interpret arbitrary C++ — it interprets the
// *communication intent*: the tree of #pragma comm_* directives, with clause
// inheritance resolved. Regions keep their own place_sync and their
// children; the leaves are transfers (comm_p2p) and collectives. walk()
// runs the tree on one rank with every synchronization placed by
// core::SyncPlan, exactly where the directive executor places it.
// Everything the static analyzer must skip as symbolic — guards, peers and
// roots referencing variables other than rank/nprocs — becomes an explicit
// nondeterministic decision point for the explorer instead.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "core/clauses.hpp"
#include "core/sync_plan.hpp"
#include "translate/scan.hpp"

namespace cid::explore {

/// One clause expression, read as the analyzer reads it
/// (translate::clause_expr). The explorer branches over the outcomes of
/// `symbolic` expressions instead of evaluating them.
using translate::ClauseExpr;

/// One node of the directive tree. A Region is a comm_parameters region:
/// its own place_sync (never inherited) and its children. A Transfer is a
/// comm_p2p (on rank r: send to receiver(r) under sendwhen(r), receive from
/// sender(r) under receivewhen(r)); a Collective is a comm_collective. A
/// leaf's `site` is its directive's index in textual order — it is stamped
/// into every payload the directive sends, which is how the explorer
/// attributes a delivered message back to its source line.
struct Node {
  enum class Kind { Region, Transfer, Collective };
  Kind kind = Kind::Transfer;
  int line = 0;
  // region
  core::SyncPlacement place_sync = core::SyncPlacement::EndParamRegion;
  std::vector<Node> children;
  // transfer and collective
  int site = 0;
  // transfer
  ClauseExpr sender, receiver, sendwhen, receivewhen;
  std::string sbuf, rbuf;
  // collective
  core::Pattern pattern = core::Pattern::OneToMany;
  ClauseExpr root;
};

struct Program {
  std::vector<Node> roots;
  std::vector<int> site_lines;     ///< site index -> 1-based source line
  std::vector<std::string> notes;  ///< model simplifications applied
  int symbolic_clauses = 0;        ///< leaves carrying >= 1 symbolic clause
};

/// Build the program from annotated source. Fails on scan-level structural
/// errors; directives that are unusable (missing required clauses, unparsable
/// expressions) are skipped with a note — the static analyzer already
/// reports those as CID-P0xx errors.
Result<Program> build_program(std::string_view source);

namespace detail {

template <typename Rank>
void walk_nodes(const std::vector<Node>& nodes, bool in_region, Rank& rank,
                core::SyncPlan<typename Rank::Batch>& plan) {
  const auto land = [&rank](typename Rank::Batch& batch) { rank.land(batch); };
  for (const Node& node : nodes) {
    switch (node.kind) {
      case Node::Kind::Region:
        plan.begin_region(land);
        walk_nodes(node.children, true, rank, plan);
        plan.end_region(node.place_sync, land);
        break;
      case Node::Kind::Transfer: {
        auto posting = rank.prepare(node);
        plan.for_each_in_flight([&](typename Rank::Batch& batch) {
          if (rank.touches(batch, posting)) land(batch);
        });
        rank.post(posting, plan.open());
        if (!in_region && !plan.open().empty()) land(plan.open());
        break;
      }
      case Node::Kind::Collective:
        if (!plan.open().empty()) land(plan.open());
        rank.collective(node);
        break;
    }
  }
}

}  // namespace detail

/// Run `program` on one rank, landing synchronization where the directive
/// executor lands it (core/region.cpp, core/collective.cpp): begin_region
/// and end_region(own place_sync) at each region; before a transfer posts,
/// every in-flight batch it touches (the adjacency rule); the open batch
/// after a standalone transfer and before a collective; and at the end what
/// is still deferred, as a closing comm_flush would. `Rank` supplies the
/// Batch type and the effects: prepare(transfer) takes its decisions and
/// returns a posting, touches(batch, posting), post(posting, open batch),
/// land(batch) (which leaves it empty) and collective(node).
template <typename Rank>
void walk(const Program& program, Rank& rank) {
  core::SyncPlan<typename Rank::Batch> plan;
  detail::walk_nodes(program.roots, false, rank, plan);
  plan.flush_all([&rank](typename Rank::Batch& batch) { rank.land(batch); });
}

}  // namespace cid::explore
