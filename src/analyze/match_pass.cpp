// Rank-symbolic match analysis: the paper's communication intent, checked.
//
// A comm_p2p executes on every rank of the SPMD program. On rank r the
// directive posts a send to receiver(r) when sendwhen(r) holds, and posts a
// receive from sender(r) when receivewhen(r) holds. For the program to be
// free of stranded messages and never-completing receives, every posted
// send must meet a posted receive on its destination naming the sending
// rank, and vice versa. nprocs is unknown statically, so the pass sweeps a
// configurable range and evaluates the clause expressions with the same
// core::expr evaluator the runtime uses; the first offending (nprocs, rank)
// pair is reported per diagnostic.
//
// Expressions referencing variables other than rank/nprocs (loop counters,
// problem sizes) are symbolic (translate::clause_expr, the rule the explorer
// also reads them by) — the pass skips them rather than guess.
#include <algorithm>
#include <optional>

#include "analyze/passes.hpp"
#include "core/expr.hpp"

namespace cid::analyze::detail {

namespace {

using core::Env;
using core::Expr;
using core::ExprValue;
using translate::DirectiveNode;

using translate::ClauseExpr;

/// A clause expression prepared for the sweep (absent guards default to
/// true). An unparsable one is reported here as CID-P003.
ClauseExpr prepare(AnalysisContext& ctx, const DirectiveNode& node,
                   const core::ParsedDirective& merged, const char* name) {
  ClauseExpr out = translate::clause_expr(merged, name);
  if (out.unparsable()) {
    ctx.report.add("CID-P003", Severity::Error, node.line,
                   clause_column(node, *merged.find(name)),
                   "clause " + std::string(name) + "(" + out.text +
                       ") does not parse: " + out.error);
  }
  return out;
}

}  // namespace

bool check_required_clauses(AnalysisContext& ctx, const DirectiveNode& node,
                            const core::ParsedDirective& merged) {
  const auto problems = translate::required_clause_problems(merged);
  for (const translate::ClauseProblem& problem : problems) {
    const bool missing = !problem.missing.empty();
    ctx.report.add(missing ? "CID-P005" : "CID-P006", Severity::Error,
                   node.line, node.column, problem.message,
                   missing ? "add " + problem.missing +
                                 " on the directive or on the enclosing "
                                 "comm_parameters region"
                           : "");
  }
  return problems.empty();
}

void check_match_and_counts(AnalysisContext& ctx, const DirectiveNode& node,
                            const core::ParsedDirective& merged) {
  // --- count / extent agreement (works even with symbolic guards) ----------
  const auto* count_clause = merged.find("count");
  const auto* sbuf = merged.find("sbuf");
  const auto* rbuf = merged.find("rbuf");

  std::optional<ExprValue> count_value;
  if (count_clause != nullptr) {
    auto parsed = Expr::parse(count_clause->args[0]);
    if (parsed.is_ok() && parsed.value().free_variables().empty()) {
      auto value = parsed.value().eval(Env{});
      if (value.is_ok()) count_value = value.value();
    }
  }

  std::vector<std::pair<std::string, long long>> known_extents;
  for (const auto* list : {sbuf, rbuf}) {
    if (list == nullptr) continue;
    for (const auto& argument : list->args) {
      if (auto extent = ctx.model.extent_of(argument)) {
        known_extents.emplace_back(argument, *extent);
      }
    }
  }

  if (count_value.has_value()) {
    for (const auto& [name, extent] : known_extents) {
      if (*count_value > extent) {
        ctx.report.add(
            "CID-M014", Severity::Error, node.line,
            clause_column(node, *count_clause),
            "count(" + count_clause->args[0] + ") transfers " +
                std::to_string(*count_value) + " element(s) but buffer '" +
                name + "' is declared with extent " + std::to_string(extent),
            "reduce the count or enlarge the buffer");
        break;
      }
    }
  } else if (count_clause == nullptr && known_extents.size() >= 2) {
    auto [min_it, max_it] = std::minmax_element(
        known_extents.begin(), known_extents.end(),
        [](const auto& a, const auto& b) { return a.second < b.second; });
    if (min_it->second != max_it->second) {
      ctx.report.add(
          "CID-M013", Severity::Warning, node.line, node.column,
          "count is inferred from buffer extents, but '" + max_it->first +
              "' has extent " + std::to_string(max_it->second) + " while '" +
              min_it->first + "' has extent " +
              std::to_string(min_it->second) +
              "; the transfer will truncate to the smallest",
          "add an explicit count clause or match the declared extents");
    }
  }

  // --- rank-symbolic match sweep -------------------------------------------
  if (merged.kind == core::DirectiveKind::CommCollective) {
    // For collectives only the root must name a member rank.
    const auto* root = merged.find("root");
    if (root == nullptr) return;
    ClauseExpr root_expr = prepare(ctx, node, merged, "root");
    if (root_expr.symbolic) {
      // Parse failures already reported CID-P003; a genuinely symbolic root
      // is a silent skip the user must hear about (see Report::symbolic_skips
      // and `cidt explore`).
      if (root_expr.expr.valid()) ++ctx.report.symbolic_skips;
      return;
    }
    for (int nprocs = ctx.options.nprocs_min;
         nprocs <= ctx.options.nprocs_max; ++nprocs) {
      Env env;
      env.bind("nprocs", nprocs);
      env.bind("rank", 0);
      auto value = root_expr.expr.eval(env);
      if (!value.is_ok()) return;
      if (value.value() < 0 || value.value() >= nprocs) {
        ctx.report.add("CID-M010", Severity::Error, node.line,
                       clause_column(node, *root),
                       "root(" + root->args[0] + ") evaluates to " +
                           std::to_string(value.value()) + " at nprocs=" +
                           std::to_string(nprocs) + ", outside 0.." +
                           std::to_string(nprocs - 1));
        return;
      }
    }
    return;
  }
  if (merged.kind != core::DirectiveKind::CommP2P) return;

  ClauseExpr sender = prepare(ctx, node, merged, "sender");
  ClauseExpr receiver = prepare(ctx, node, merged, "receiver");
  ClauseExpr sendwhen = prepare(ctx, node, merged, "sendwhen");
  ClauseExpr receivewhen = prepare(ctx, node, merged, "receivewhen");
  if (!sender.present || !receiver.present) return;  // CID-P005 already fired
  if (sender.symbolic || receiver.symbolic || sendwhen.symbolic ||
      receivewhen.symbolic) {
    // Nothing provable statically. Count the skip (unless a CID-P003 parse
    // error already fired for the clause) so the renderers can tell the user
    // this directive needs `cidt explore` instead of passing silently.
    if (!sender.unparsable() && !receiver.unparsable() &&
        !sendwhen.unparsable() && !receivewhen.unparsable()) {
      ++ctx.report.symbolic_skips;
    }
    return;
  }

  bool reported_range = false;
  bool reported_stranded = false;
  bool reported_orphan = false;
  bool reported_eval = false;
  bool fires_somewhere = false;

  const std::string sweep_note =
      " (swept nprocs " + std::to_string(ctx.options.nprocs_min) + ".." +
      std::to_string(ctx.options.nprocs_max) + ")";

  for (int nprocs = ctx.options.nprocs_min; nprocs <= ctx.options.nprocs_max;
       ++nprocs) {
    // (rank, peer) pairs posted at this nprocs.
    std::vector<std::pair<int, ExprValue>> sends;
    std::vector<std::pair<int, ExprValue>> recvs;
    bool eval_failed = false;

    auto eval_on = [&](const char* name, const ClauseExpr& swept, int rank,
                       ExprValue fallback) -> std::optional<ExprValue> {
      if (!swept.present) return fallback;
      Env env;
      env.bind("rank", rank);
      env.bind("nprocs", nprocs);
      auto value = swept.expr.eval(env);
      if (!value.is_ok()) {
        if (!reported_eval) {
          reported_eval = true;
          ctx.report.add("CID-M015", Severity::Warning, node.line,
                         clause_column(node, *merged.find(name)),
                         "clause " + std::string(name) + "(" + swept.text +
                             ") fails to evaluate on rank " +
                             std::to_string(rank) + " at nprocs=" +
                             std::to_string(nprocs) + ": " +
                             value.status().message() + sweep_note);
        }
        eval_failed = true;
        return std::nullopt;
      }
      return value.value();
    };

    for (int rank = 0; rank < nprocs && !eval_failed; ++rank) {
      const auto sends_here = eval_on("sendwhen", sendwhen, rank, 1);
      const auto recvs_here = eval_on("receivewhen", receivewhen, rank, 1);
      if (!sends_here || !recvs_here) break;
      if (*sends_here != 0) {
        if (const auto peer = eval_on("receiver", receiver, rank, 0)) {
          sends.emplace_back(rank, *peer);
        }
      }
      if (*recvs_here != 0) {
        if (const auto peer = eval_on("sender", sender, rank, 0)) {
          recvs.emplace_back(rank, *peer);
        }
      }
    }
    if (eval_failed) continue;
    if (!sends.empty() || !recvs.empty()) fires_somewhere = true;

    for (const auto& [rank, dest] : sends) {
      if (dest < 0 || dest >= nprocs) {
        if (!reported_range) {
          reported_range = true;
          ctx.report.add(
              "CID-M010", Severity::Error, node.line,
              clause_column(node, *merged.find("receiver")),
              "receiver(" + receiver.text + ") evaluates to " +
                  std::to_string(dest) + " on sending rank " +
                  std::to_string(rank) + " at nprocs=" +
                  std::to_string(nprocs) + ", outside 0.." +
                  std::to_string(nprocs - 1) + sweep_note,
              "guard the send with sendwhen(...) so edge ranks do not post "
              "it, as in the paper's Listing 2");
        }
        continue;
      }
      const bool matched = std::any_of(
          recvs.begin(), recvs.end(), [&, r = rank, d = dest](const auto& rv) {
            return rv.first == static_cast<int>(d) && rv.second == r;
          });
      if (!matched && !reported_stranded) {
        reported_stranded = true;
        ctx.report.add(
            "CID-M011", Severity::Warning, node.line, node.column,
            "send posted by rank " + std::to_string(rank) + " to rank " +
                std::to_string(dest) + " at nprocs=" + std::to_string(nprocs) +
                " has no matching receive: rank " + std::to_string(dest) +
                (receivewhen.present
                     ? " does not satisfy receivewhen(" +
                           receivewhen.text + ")"
                     : " expects sender(" + sender.text +
                           ") which does not name rank " +
                           std::to_string(rank)) +
                sweep_note,
            "the message is stranded in the destination mailbox; align the "
            "sender/receiver expressions or the guards");
      }
    }

    for (const auto& [rank, src] : recvs) {
      if (src < 0 || src >= nprocs) {
        if (!reported_range) {
          reported_range = true;
          ctx.report.add(
              "CID-M010", Severity::Error, node.line,
              clause_column(node, *merged.find("sender")),
              "sender(" + sender.text + ") evaluates to " +
                  std::to_string(src) + " on receiving rank " +
                  std::to_string(rank) + " at nprocs=" +
                  std::to_string(nprocs) + ", outside 0.." +
                  std::to_string(nprocs - 1) + sweep_note,
              "guard the receive with receivewhen(...) so edge ranks do not "
              "post it, as in the paper's Listing 2");
        }
        continue;
      }
      const bool matched = std::any_of(
          sends.begin(), sends.end(), [&, r = rank, s = src](const auto& sd) {
            return sd.first == static_cast<int>(s) && sd.second == r;
          });
      if (!matched && !reported_orphan) {
        reported_orphan = true;
        ctx.report.add(
            "CID-M012", Severity::Error, node.line, node.column,
            "receive posted by rank " + std::to_string(rank) +
                " from rank " + std::to_string(src) + " at nprocs=" +
                std::to_string(nprocs) +
                " never completes: rank " + std::to_string(src) +
                (sendwhen.present
                     ? " does not satisfy sendwhen(" +
                           sendwhen.text + ")"
                     : " sends to receiver(" + receiver.text +
                           ") which does not name rank " +
                           std::to_string(rank)) +
                sweep_note,
            "the consolidated sync will deadlock waiting for this receive; "
            "align the sender/receiver expressions or the guards");
      }
    }
  }

  if (!fires_somewhere && (sendwhen.present || receivewhen.present)) {
    ctx.report.add("CID-S034", Severity::Warning, node.line, node.column,
                   "directive never sends nor receives on any rank" +
                       sweep_note,
                   "the guards are unsatisfiable in the swept range; delete "
                   "the directive or fix sendwhen/receivewhen");
  }
}

}  // namespace cid::analyze::detail
