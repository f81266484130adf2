#include "translate/translator.hpp"

#include <algorithm>
#include <vector>

#include "common/strings.hpp"
#include "core/pragma.hpp"
#include "core/sync_plan.hpp"
#include "translate/scan.hpp"

namespace cid::translate {

namespace {

using core::DirectiveKind;
using core::ParsedDirective;
using core::RawClause;
using core::SyncPlacement;
using core::Target;

// ---------------------------------------------------------------------------
// Clause utilities (the directive tree, the textual clause merge and the
// required-clause rule live in translate/scan.cpp, shared with the static
// analyzer and the explorer)
// ---------------------------------------------------------------------------

std::string clause_arg(const ParsedDirective& directive,
                       std::string_view name, std::string fallback = {}) {
  const RawClause* clause = directive.find(name);
  return clause != nullptr ? clause->args[0] : fallback;
}

std::vector<std::string> clause_args(const ParsedDirective& directive,
                                     std::string_view name) {
  const RawClause* clause = directive.find(name);
  return clause != nullptr ? clause->args : std::vector<std::string>{};
}

// ---------------------------------------------------------------------------
// Translator
// ---------------------------------------------------------------------------

class Translator {
 public:
  Translator(std::string_view source, const Options& options)
      : source_(source), options_(options) {}

  Result<Translation> run() {
    const DirectiveTree tree = scan_directives(source_);
    if (Status status = tree.first_issue(); !status.is_ok()) return status;
    auto body = translate_range(0, source_.size(), tree.roots, nullptr);
    if (!body.is_ok()) return body.status();
    Translation out;
    out.source = std::move(body).take();
    if (!sync_plan_.idle()) {
      out.source +=
          "\n/* cid-translate WARNING: deferred synchronization without a "
          "following comm_parameters region; draining here. */\n";
      sync_plan_.flush_all(EmitInto{out.source});
    }
    out.summary = summary_;
    return out;
  }

 private:
  struct RegionContext {
    ParsedDirective clauses;
    Target target = Target::Mpi2Side;
    std::string requests_var;  ///< MPI request vector in scope
    std::string comm_var;
    bool used_mpi2 = false;
    bool used_shmem = false;
    /// A reliability clause forces the embedded-API lowering: the ack/
    /// retransmit protocol is a runtime service, not a call pattern the
    /// translator can open-code.
    bool reliable = false;
    std::string region_var;  ///< the ::cid::core::Region lambda parameter
  };

  /// The SyncPlan landing callback: emits a batch of sync statements.
  struct EmitInto {
    std::string& out;
    void operator()(std::vector<std::string>& batch) const {
      for (const std::string& statement : batch) out += statement;
      batch.clear();
    }
  };

  /// A posted transfer's sync statement joins the open batch (once).
  void post_sync(std::string statement) {
    auto& open = sync_plan_.open();
    if (std::find(open.begin(), open.end(), statement) == open.end()) {
      open.push_back(std::move(statement));
    }
  }

  /// The error `status` of directive `node`, with the node's line.
  static Status at(const DirectiveNode& node, const Status& status) {
    return Status(status.code(), "line " + std::to_string(node.line) + ": " +
                                     status.message());
  }

  /// Translate source_[begin, end), whose directives are `nodes`: the text
  /// between them is copied verbatim. `region` is the innermost enclosing
  /// comm_parameters context (nullptr at top level).
  Result<std::string> translate_range(std::size_t begin, std::size_t end,
                                      const std::vector<DirectiveNode>& nodes,
                                      RegionContext* region) {
    std::string out;
    for (const DirectiveNode& node : nodes) {
      out += source_.substr(begin, node.pragma_begin - begin);
      auto code = node.directive.kind == DirectiveKind::CommParameters
                      ? emit_region(node, region)
                  : node.directive.kind == DirectiveKind::CommCollective
                      ? emit_collective(node, region)
                      : emit_p2p(node, region);
      if (!code.is_ok()) return code.status();
      out += std::move(code).take();
      begin = node.node_end;
    }
    out += source_.substr(begin, end - begin);
    return out;
  }

  // --- code generation ----------------------------------------------------

  Target directive_target(const ParsedDirective& directive) const {
    const RawClause* clause = directive.find("target");
    if (clause == nullptr) return options_.default_target;
    auto target = core::parse_target_keyword(clause->args[0]);
    if (!target.is_ok()) return options_.default_target;
    // target(auto) adapts per site at runtime (cid::tune); the open-coded
    // translation is static, so it lowers to the configured default.
    if (target.value() == Target::Auto) return options_.default_target;
    return target.value();
  }

  std::string annotate(const std::string& note) const {
    return options_.annotate ? "/* cid-translate: " + note + " */" : "";
  }

  /// A clause's C expression wrapped as a runtime callable, evaluated in the
  /// user's scope each time the directive executes (the embedded-API
  /// equivalent of pasting the expression into generated code).
  static std::string expr_lambda(const std::string& expr) {
    return "[&]() -> ::cid::core::ExprValue { return "
           "static_cast<::cid::core::ExprValue>(" +
           expr + "); }";
  }

  /// Rebuild a parsed clause set as a ::cid::core::Clauses builder chain for
  /// the embedded-API lowering (reliable regions).
  Result<std::string> clauses_builder(const ParsedDirective& directive) {
    std::string out = "::cid::core::Clauses()";
    for (const auto& clause : directive.clauses) {
      if (clause.name == "sender" || clause.name == "receiver" ||
          clause.name == "sendwhen" || clause.name == "receivewhen" ||
          clause.name == "count" || clause.name == "max_comm_iter") {
        out += "\n    ." + clause.name + "(" + expr_lambda(clause.args[0]) +
               ")";
      } else if (clause.name == "reliability") {
        out += "\n    .reliability(" + expr_lambda(clause.args[0]) + ", " +
               expr_lambda(clause.args[1]) + ")";
      } else if (clause.name == "target") {
        auto target = core::parse_target_keyword(clause.args[0]);
        if (!target.is_ok()) return target.status();
        if (target.value() == Target::Auto) {
          // Resolved per site by the runtime; reliability forces the
          // two-sided lowering there (tune::auto_target).
          out += "\n    .target(::cid::core::Target::Auto)";
        } else if (target.value() != Target::Mpi2Side) {
          return Status(ErrorCode::UnsupportedTarget,
                        "reliability requires TARGET_COMM_MPI_2SIDE");
        } else {
          out += "\n    .target(::cid::core::Target::Mpi2Side)";
        }
      } else if (clause.name == "place_sync") {
        auto placement = core::parse_sync_placement_keyword(clause.args[0]);
        if (!placement.is_ok()) return placement.status();
        const char* keyword =
            placement.value() == SyncPlacement::EndParamRegion
                ? "EndParamRegion"
                : placement.value() == SyncPlacement::BeginNextParamRegion
                      ? "BeginNextParamRegion"
                      : "EndAdjParamRegions";
        out += "\n    .place_sync(::cid::core::SyncPlacement::" +
               std::string(keyword) + ")";
      } else if (clause.name == "sbuf" || clause.name == "rbuf") {
        for (const auto& arg : clause.args) {
          out += "\n    ." + clause.name + "(::cid::core::buf(" + arg +
                 ", \"" + arg + "\"))";
        }
      } else {
        return Status(ErrorCode::InvalidClause,
                      "clause '" + clause.name +
                          "' is not supported in a reliability region");
      }
    }
    return out;
  }

  Result<std::string> emit_region(const DirectiveNode& node,
                                  RegionContext* parent) {
    const ParsedDirective& directive = node.directive;
    ++summary_.parameter_regions;
    const int id = next_id_++;

    RegionContext region;
    region.clauses = parent != nullptr
                         ? merge_directives(parent->clauses, directive)
                         : directive;
    region.clauses.kind = DirectiveKind::CommParameters;
    region.target = directive_target(region.clauses);
    region.requests_var = "cid_reqs_" + std::to_string(id);
    region.comm_var = "cid_comm_" + std::to_string(id);
    region.reliable = region.clauses.find("reliability") != nullptr;
    region.region_var = "cid_region_" + std::to_string(id);

    auto placement = core::place_sync_of(directive);
    if (!placement.is_ok()) return at(node, placement.status());
    std::string landed_at_begin;
    sync_plan_.begin_region(EmitInto{landed_at_begin});
    auto body = translate_range(node.body_begin, node.body_end,
                                node.children, &region);
    if (!body.is_ok()) return body.status();
    std::string landed_at_end;
    sync_plan_.end_region(placement.value(), EmitInto{landed_at_end});

    if (region.reliable) {
      ++summary_.reliable_regions;
      // The reliability protocol (ack/timeout/retransmit, DeliveryReport)
      // lives in the runtime, so the region is lowered through the embedded
      // API instead of open-coded message passing; nested comm_p2p
      // directives become Region::p2p calls on the lambda's Region.
      auto builder = clauses_builder(region.clauses);
      if (!builder.is_ok()) return at(node, builder.status());
      std::string out;
      out += "{ " + annotate("comm_parameters region " + std::to_string(id) +
                             " (reliable: runtime-lowered)") + "\n";
      out += landed_at_begin;
      out += "::cid::core::comm_parameters(" + std::move(builder).take() +
             ",\n    [&](::cid::core::Region& " + region.region_var +
             ") {\n";
      out += std::move(body).take();
      out += "}); " +
             annotate("reliable synchronization: ack/retransmit protocol "
                      "drains here") +
             "\n";
      out += landed_at_end;
      out += "}\n";
      ++summary_.consolidated_syncs;
      return out;
    }

    if (region.used_mpi2) ++summary_.consolidated_syncs;
    if (region.used_shmem) ++summary_.consolidated_syncs;

    std::string decls;
    if (region.used_mpi2) {
      decls += "std::vector<::cid::mpi::Request> " + region.requests_var +
               ";\n";
      decls += "auto " + region.comm_var + " = " + options_.comm_expr + ";\n";
    } else if (region.used_shmem || region_needs_comm_) {
      decls += "auto " + region.comm_var + " = " + options_.comm_expr + ";\n";
    }
    region_needs_comm_ = false;

    // A request vector whose waitall may still be deferred must outlive the
    // region's block: declare it before the outermost enclosing region.
    if (region.used_mpi2 && !sync_plan_.idle()) {
      hoisted_decls_ += decls;
      decls.clear();
    }

    std::string out;
    if (parent == nullptr) {
      out += hoisted_decls_;
      hoisted_decls_.clear();
    }
    out += "{ " + annotate("comm_parameters region " + std::to_string(id)) +
           "\n";
    out += decls;
    out += landed_at_begin;
    out += std::move(body).take();
    out += landed_at_end;
    out += "}\n";
    return out;
  }

  /// The collective-directive extension (paper Section V): lowered to the
  /// cid::mpi collectives on a group communicator. Only the (default) MPI
  /// two-sided target is supported by generated code; retarget via the
  /// embedded API for SHMEM collectives.
  Result<std::string> emit_collective(const DirectiveNode& node,
                                      RegionContext* region) {
    ++summary_.collective_directives;
    const int id = next_id_++;

    if (region != nullptr && region->reliable) {
      return at(node,
                Status(ErrorCode::InvalidClause,
                       "comm_collective inside a reliability region is not "
                       "supported (reliability covers point-to-point "
                       "transfers)"));
    }

    const ParsedDirective merged =
        region != nullptr ? merge_directives(region->clauses, node.directive)
                          : node.directive;

    const Target target = directive_target(merged);
    if (target != Target::Mpi2Side) {
      return at(node, Status(ErrorCode::UnsupportedTarget,
                             "translated comm_collective supports only "
                             "TARGET_COMM_MPI_2SIDE; use the embedded API for "
                             "other targets"));
    }
    if (auto problems = required_clause_problems(merged); !problems.empty()) {
      return at(node,
                Status(ErrorCode::InvalidClause, problems.front().message));
    }
    const std::string pattern = clause_arg(merged, "pattern");
    const std::string sb = clause_arg(merged, "sbuf");
    const std::string rb = clause_arg(merged, "rbuf");
    const std::string count = clause_arg(merged, "count");
    const std::string root = clause_arg(merged, "root", "0");
    const std::string group = clause_arg(merged, "group");

    const std::string comm_var = "cid_gcomm_" + std::to_string(id);
    std::string out;
    out += "{ " + annotate("comm_collective " + std::to_string(id)) + "\n";
    if (group.empty()) {
      out += "auto " + comm_var + " = " + options_.comm_expr + ";\n";
      out += "{\n";
    } else {
      out += "auto " + comm_var + " = " + options_.comm_expr + ".split((" +
             group + ") < 0 ? -1 : static_cast<int>(" + group +
             "), ::cid::rt::current_ctx().rank());\n";
      out += "if (" + comm_var + ".valid()) {\n";
    }

    if (pattern == "PATTERN_ONE_TO_MANY") {
      out += "if (" + comm_var + ".rank() == (" + root +
             ")) ::cid::trt::copy_block(" + rb + ", " + sb +
             ", static_cast<std::size_t>(" + count + "));\n";
      out += "::cid::mpi::bcast(" + comm_var + ", ::cid::trt::data_ptr(" +
             rb + "), static_cast<std::size_t>(" + count +
             "), ::cid::trt::datatype_of_expr(" + rb + "), (" + root +
             "));\n";
    } else if (pattern == "PATTERN_MANY_TO_ONE") {
      out += "::cid::mpi::gather(" + comm_var + ", ::cid::trt::data_ptr(" +
             sb + "), static_cast<std::size_t>(" + count +
             "), ::cid::trt::datatype_of_expr(" + sb + "), " + comm_var +
             ".rank() == (" + root +
             ") ? static_cast<void*>(::cid::trt::data_ptr(" + rb +
             ")) : nullptr, (" + root + "));\n";
    } else if (pattern == "PATTERN_ALL_TO_ALL") {
      out += "::cid::mpi::alltoall(" + comm_var + ", ::cid::trt::data_ptr(" +
             sb + "), static_cast<std::size_t>(" + count +
             "), ::cid::trt::datatype_of_expr(" + sb +
             "), ::cid::trt::data_ptr(" + rb + "));\n";
    } else {
      return at(node, Status(ErrorCode::InvalidClause,
                             "unknown pattern keyword '" + pattern + "'"));
    }
    out += "}\n";

    // Directives in the body belong to the same enclosing region.
    auto body = translate_range(node.body_begin, node.body_end,
                                node.children, region);
    if (!body.is_ok()) return body.status();
    if (!cid::trim(body.value()).empty()) {
      out += "{ " + annotate("post-collective statement") + "\n" +
             body.value() + "\n}\n";
    }
    out += "}\n";
    return out;
  }

  Result<std::string> emit_p2p(const DirectiveNode& node,
                               RegionContext* region) {
    ++summary_.p2p_directives;
    const int id = next_id_++;

    const ParsedDirective merged =
        region != nullptr ? merge_directives(region->clauses, node.directive)
                          : node.directive;
    if (auto problems = required_clause_problems(merged); !problems.empty()) {
      return at(node,
                Status(ErrorCode::InvalidClause, problems.front().message));
    }

    const auto sbufs = clause_args(merged, "sbuf");
    const auto rbufs = clause_args(merged, "rbuf");
    const std::string sender = clause_arg(merged, "sender");
    const std::string receiver = clause_arg(merged, "receiver");
    const std::string sendwhen = clause_arg(merged, "sendwhen");
    const std::string receivewhen = clause_arg(merged, "receivewhen");
    std::string count = clause_arg(merged, "count");
    if (count.empty()) {
      // Count inference from array extents, resolved in the generated code.
      std::string args;
      for (const auto& name : sbufs) {
        if (!args.empty()) args += ", ";
        args += name;
      }
      for (const auto& name : rbufs) {
        args += ", ";
        args += name;
      }
      count = "::cid::trt::smallest_extent(" + args + ")";
    }
    const Target target = region != nullptr && merged.find("target") == nullptr
                              ? region->target
                              : directive_target(merged);

    // Directives in the overlap body belong to the same enclosing region.
    // They are translated before this directive's own code, so a nested
    // one-sided directive fences its windows before this one opens any.
    auto body = translate_range(node.body_begin, node.body_end,
                                node.children, region);
    if (!body.is_ok()) return body.status();
    const std::string overlap = std::move(body).take();
    const bool has_overlap = !cid::trim(overlap).empty();
    const std::string tag = std::to_string(options_.tag);

    if (region != nullptr && region->reliable) {
      // Inside a reliable region the runtime executes the directive (and its
      // retransmission protocol); emit a Region::p2p call with the site's
      // own clauses — inheritance happens in the runtime, like the paper's
      // region-scoped assertions.
      auto builder = clauses_builder(node.directive);
      if (!builder.is_ok()) return at(node, builder.status());
      std::string out = annotate("comm_p2p " + std::to_string(id) +
                                 " (reliable region)") + "\n";
      out += region->region_var + ".p2p(" + std::move(builder).take();
      if (has_overlap) {
        out += ",\n    [&]() { " + annotate("overlapped computation") + "\n" +
               overlap + "\n}";
      }
      out += ");\n";
      return out;
    }

    std::string out;
    out += "{ " + annotate("comm_p2p " + std::to_string(id)) + "\n";

    std::string reqs_var;
    std::string comm_var;
    const bool standalone = region == nullptr;
    switch (target) {
      case Target::Auto:  // directive_target resolves Auto to the default
      case Target::Mpi2Side: {
        if (standalone) {
          reqs_var = "cid_reqs_" + std::to_string(id);
          comm_var = "cid_comm_" + std::to_string(id);
          out += "std::vector<::cid::mpi::Request> " + reqs_var + ";\n";
          out += "auto " + comm_var + " = " + options_.comm_expr + ";\n";
        } else {
          reqs_var = region->requests_var;
          comm_var = region->comm_var;
          region->used_mpi2 = true;
          post_sync("::cid::mpi::waitall(" + reqs_var + "); " +
                    annotate("consolidated synchronization") + "\n");
        }
        const std::string indent = "  ";
        std::string recv_code;
        for (const auto& rb : rbufs) {
          recv_code += indent + reqs_var + ".push_back(::cid::mpi::irecv(" +
                       comm_var + ", ::cid::trt::data_ptr(" + rb +
                       "), static_cast<std::size_t>(" + count +
                       "), ::cid::trt::datatype_of_expr(" + rb + "), (" +
                       sender + "), " + tag + "));\n";
        }
        std::string send_code;
        for (const auto& sb : sbufs) {
          send_code += indent + reqs_var + ".push_back(::cid::mpi::isend(" +
                       comm_var + ", ::cid::trt::data_ptr(" + sb +
                       "), static_cast<std::size_t>(" + count +
                       "), ::cid::trt::datatype_of_expr(" + sb + "), (" +
                       receiver + "), " + tag + "));\n";
        }
        if (!receivewhen.empty()) {
          out += "if (" + receivewhen + ") {\n" + recv_code + "}\n";
        } else {
          out += recv_code;
        }
        if (!sendwhen.empty()) {
          out += "if (" + sendwhen + ") {\n" + send_code + "}\n";
        } else {
          out += send_code;
        }
        break;
      }

      case Target::Shmem: {
        std::string put_code;
        for (std::size_t b = 0; b < sbufs.size(); ++b) {
          put_code += "  ::cid::shmem::putmem(::cid::trt::data_ptr(" +
                      rbufs[b] + "), ::cid::trt::data_ptr(" + sbufs[b] +
                      "), static_cast<std::size_t>(" + count +
                      ") * ::cid::trt::element_size(" + sbufs[b] + "), (" +
                      receiver + "));\n";
        }
        if (!sendwhen.empty()) {
          out += "if (" + sendwhen + ") {\n" + put_code + "}\n";
        } else {
          out += put_code;
        }
        if (region != nullptr) {
          region->used_shmem = true;
          post_sync("::cid::shmem::barrier_all(); " +
                    annotate("consolidated SHMEM synchronization") + "\n");
        }
        break;
      }

      case Target::Mpi1Side: {
        comm_var = standalone ? "cid_comm_" + std::to_string(id)
                              : region->comm_var;
        if (standalone) {
          out += "auto " + comm_var + " = " + options_.comm_expr + ";\n";
        } else {
          region_needs_comm_ = true;
        }
        for (std::size_t b = 0; b < rbufs.size(); ++b) {
          const std::string win_var =
              "cid_win_" + std::to_string(id) + "_" + std::to_string(b);
          out += "auto " + win_var + " = ::cid::mpi::Win::create(" + comm_var +
                 ", ::cid::trt::data_ptr(" + rbufs[b] +
                 "), static_cast<std::size_t>(" + count +
                 ") * ::cid::trt::element_size(" + rbufs[b] + "));\n";
          std::string put_code = "  " + win_var +
                                 ".put(::cid::trt::data_ptr(" + sbufs[b] +
                                 "), static_cast<std::size_t>(" + count +
                                 "), ::cid::trt::datatype_of_expr(" +
                                 sbufs[b] + "), (" + receiver + "), 0);\n";
          if (!sendwhen.empty()) {
            out += "if (" + sendwhen + ") {\n" + put_code + "}\n";
          } else {
            out += put_code;
          }
          window_fences_.push_back(win_var);
        }
        break;
      }
    }

    if (has_overlap) {
      out += "{ " + annotate("overlapped computation") + "\n";
      out += overlap;
      out += "\n}\n";
    }

    // Standalone directive (or one-sided windows): synchronize here.
    if (target == Target::Mpi1Side) {
      for (const auto& win_var : window_fences_) {
        out += win_var + ".fence();\n";
      }
      window_fences_.clear();
    }
    if (standalone) {
      switch (target) {
        case Target::Auto:
        case Target::Mpi2Side:
          out += "::cid::mpi::waitall(" + reqs_var + ");\n";
          break;
        case Target::Shmem:
          out += "::cid::shmem::barrier_all();\n";
          break;
        case Target::Mpi1Side:
          break;  // fences above
      }
    }
    out += "}\n";
    return out;
  }

  std::string_view source_;
  Options options_;
  Summary summary_;
  int next_id_ = 1;
  core::SyncPlan<std::vector<std::string>> sync_plan_;
  /// Declarations of request vectors that outlive their region's block,
  /// emitted before the outermost enclosing region.
  std::string hoisted_decls_;
  std::vector<std::string> window_fences_;
  bool region_needs_comm_ = false;
};

}  // namespace

Result<Translation> translate_source(std::string_view source,
                                     const Options& options) {
  return Translator(source, options).run();
}

}  // namespace cid::translate
