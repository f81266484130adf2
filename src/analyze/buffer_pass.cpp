// Buffer race detection over the directive tree.
//
// The translated program posts nonblocking operations at each comm_p2p and
// completes them at the region's consolidated synchronization, so between
// the directive and the sync every rbuf is live hardware territory. These
// checks find the textual patterns that reuse that territory: a transfer
// touching a buffer an earlier receive still writes, a hidden sync in the
// executor (CID-B020), a directive whose send and receive buffers alias on
// a rank that does both (CID-B021), an overlap block touching the buffer it
// is supposed to be overlapping with (CID-B022), and statements between
// regions touching buffers whose sync was deferred by place_sync (CID-B023).
//
// Guards are respected: two receives into the same buffer race only when
// some rank can post both, so receivewhen/sendwhen expressions are swept
// exactly like the match pass sweeps them. Symbolic guards make the pair
// unprovable and produce no diagnostic.
#include <optional>
#include <utility>

#include "analyze/passes.hpp"
#include "core/expr.hpp"

namespace cid::analyze::detail {

namespace {

using core::Env;
using core::RawClause;
using translate::DirectiveNode;

using translate::buffer_identity;
using translate::ClauseExpr;

/// Does a sendwhen/receivewhen guard hold on `rank`? Absent guards are always
/// true (the directive fires unconditionally).
bool true_on(const ClauseExpr& guard, int rank, int nprocs) {
  if (!guard.present) return true;
  Env env;
  env.bind("rank", rank);
  env.bind("nprocs", nprocs);
  auto value = guard.expr.eval(env);
  return value.is_ok() && value.value() != 0;
}

/// First (nprocs, rank) in the sweep where both guards hold; nullopt when
/// provably disjoint or when either guard is symbolic (unprovable).
std::optional<std::pair<int, int>> first_overlap(const AnalysisContext& ctx,
                                                 const ClauseExpr& a,
                                                 const ClauseExpr& b) {
  if (a.symbolic || b.symbolic) return std::nullopt;
  for (int nprocs = ctx.options.nprocs_min; nprocs <= ctx.options.nprocs_max;
       ++nprocs) {
    for (int rank = 0; rank < nprocs; ++rank) {
      if (true_on(a, rank, nprocs) && true_on(b, rank, nprocs)) {
        return std::make_pair(nprocs, rank);
      }
    }
  }
  return std::nullopt;
}

}  // namespace

std::vector<InFlight> check_p2p_buffers(AnalysisContext& ctx,
                                        const DirectiveNode& node,
                                        const core::ParsedDirective& merged) {
  const RawClause* sbuf = merged.find("sbuf");
  const RawClause* rbuf = merged.find("rbuf");
  const ClauseExpr send_guard = translate::clause_expr(merged, "sendwhen");
  const ClauseExpr recv_guard = translate::clause_expr(merged, "receivewhen");
  std::vector<InFlight> posting;
  for (const bool recv : {true, false}) {
    for (const std::string& argument : (recv ? rbuf : sbuf)->args) {
      posting.push_back(
          {buffer_identity(argument), buffer_base_identifier(argument),
           (recv ? recv_guard : send_guard).text, node.line,
           clause_column(node, recv ? *rbuf : *sbuf), recv});
    }
  }

  // CID-B021: send and receive staged through the same memory on a rank
  // that does both.
  const std::size_t pairs = std::min(sbuf->args.size(), rbuf->args.size());
  for (std::size_t i = 0; i < pairs; ++i) {
    if (buffer_identity(sbuf->args[i]) != buffer_identity(rbuf->args[i])) {
      continue;
    }
    const auto overlap = first_overlap(ctx, send_guard, recv_guard);
    if (!overlap.has_value()) continue;
    ctx.report.add(
        "CID-B021", Severity::Error, node.line, clause_column(node, *rbuf),
        "sbuf and rbuf both name '" + sbuf->args[i] + "' and rank " +
            std::to_string(overlap->second) + " both sends and receives "
            "at nprocs=" + std::to_string(overlap->first) +
            ", so the incoming message overwrites the outgoing data",
        "stage through distinct buffers, or make sendwhen/receivewhen "
        "disjoint as in the paper's transfer_atom example");
    break;
  }

  // CID-B022: the overlap block (the directive's own body) touching an rbuf
  // whose receive it is overlapping with. Clause text of nested pragmas is
  // excluded — naming a buffer in a directive is not touching it.
  if (node.body_is_block) {
    std::vector<std::pair<std::size_t, std::size_t>> exclude;
    for (const DirectiveNode& child : node.children) {
      exclude.emplace_back(child.pragma_begin, child.body_begin);
    }
    for (const std::string& argument : rbuf->args) {
      const std::string base = buffer_base_identifier(argument);
      if (base.empty()) continue;
      if (references_identifier(ctx, node.body_begin, node.body_end, base,
                                exclude)) {
        ctx.report.add(
            "CID-B022", Severity::Warning, node.line,
            clause_column(node, *rbuf),
            "the overlap block reads or writes '" + base + "' while the "
                "receive into rbuf(" + argument + ") is in flight",
            "the receive completes only at the consolidated sync; overlap "
            "computation must not touch the buffers being transferred");
        break;
      }
    }
  }
  return posting;
}

bool touches_in_flight(AnalysisContext& ctx,
                       const std::vector<InFlight>& posting,
                       const std::vector<InFlight>& batch, bool& reported) {
  bool touched = false;
  for (const InFlight& mine : posting) {
    for (const InFlight& earlier : batch) {
      // Two reads never conflict.
      if (mine.text != earlier.text || !(mine.recv || earlier.recv)) continue;
      const auto overlap =
          first_overlap(ctx, translate::clause_expr(mine.guard),
                        translate::clause_expr(earlier.guard));
      if (!overlap.has_value()) continue;
      touched = true;
      if (!earlier.recv || std::exchange(reported, true)) continue;
      const std::string line = std::to_string(earlier.line);
      ctx.report.add(
          "CID-B020", Severity::Error, mine.line, mine.column,
          (mine.recv ? "rbuf(" + mine.text + ") is reused while the receive"
                     : "sbuf(" + mine.text + ") sends from the buffer the "
                       "receive") +
              " posted by the directive at line " + line +
              (mine.recv ? " is still in flight" : " is still writing") +
              " (rank " + std::to_string(overlap->second) +
              " posts both at nprocs=" + std::to_string(overlap->first) +
              "); the executor completes that receive here, before it posts "
              "this directive",
          "that completion is a hidden synchronization: it blocks until line " +
              line + "'s message arrives, and deadlocks when its sender "
              "sends only after this directive; use distinct buffers or "
              "split the region");
    }
  }
  return touched;
}

void check_gap_references(AnalysisContext& ctx, const DirectiveNode& previous,
                          const DirectiveNode& next,
                          const std::vector<InFlight>& deferred) {
  const std::size_t begin = previous.node_end;
  const std::size_t end = next.pragma_begin;
  for (const InFlight& entry : deferred) {
    if (!entry.recv || entry.base.empty()) continue;
    if (!references_identifier(ctx, begin, end, entry.base, {})) continue;
    ctx.report.add(
        "CID-B023", Severity::Warning, ctx.lines.line_of(begin), 0,
        "code between parameter regions touches '" + entry.base +
            "' while the receive posted at line " +
            std::to_string(entry.line) +
            " is still waiting for its deferred synchronization",
        "place_sync moved the consolidated sync past this code; move the "
        "statements after the next region or use END_PARAM_REGION");
  }
}

void check_buffer_types(AnalysisContext& ctx, const DirectiveNode& node,
                        const core::ParsedDirective& merged) {
  bool reported_pointer = false;
  bool reported_nested = false;
  bool reported_unregistered = false;
  for (const char* list_name : {"sbuf", "rbuf"}) {
    const RawClause* list = merged.find(list_name);
    if (list == nullptr) continue;
    for (const std::string& argument : list->args) {
      const std::string base = buffer_base_identifier(argument);
      if (base.empty()) continue;
      const StructDecl* decl = ctx.model.struct_of_variable(base);
      if (decl == nullptr) continue;
      for (const StructFieldDecl& field : decl->fields) {
        if (field.is_pointer && !reported_pointer) {
          reported_pointer = true;
          ctx.report.add(
              "CID-T040", Severity::Error, node.line,
              clause_column(node, *list),
              "buffer '" + base + "' has composite type '" + decl->name +
                  "' whose member '" + field.name + "' is a pointer; "
                  "reflection transfers raw bytes and cannot follow it",
              "transfer the pointee through its own buffer clause, as the "
              "paper's AtomScalars/vr split does");
        }
        if (!field.is_pointer && !reported_nested &&
            ctx.model.structs.count(field.type) != 0) {
          reported_nested = true;
          ctx.report.add(
              "CID-T041", Severity::Error, node.line,
              clause_column(node, *list),
              "buffer '" + base + "' has composite type '" + decl->name +
                  "' whose member '" + field.name +
                  "' is itself a composite ('" + field.type +
                  "'); nested composites are rejected by type reflection",
              "flatten the nested structure or transfer its fields "
              "directly");
        }
      }
      if (!decl->reflected && !reported_unregistered) {
        reported_unregistered = true;
        ctx.report.add(
            "CID-T042", Severity::Warning, node.line,
            clause_column(node, *list),
            "composite buffer type '" + decl->name +
                "' is transferred but has no CID_REFLECT_STRUCT "
                "registration in this file",
            "register the type with CID_REFLECT_STRUCT(" + decl->name +
                ", ...) so the runtime can derive its layout");
      }
    }
  }
}

}  // namespace cid::analyze::detail
