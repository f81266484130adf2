#include "translate/translator.hpp"

#include <cstddef>
#include <vector>

#include "common/strings.hpp"
#include "core/pragma.hpp"
#include "translate/scan.hpp"

namespace cid::translate {

namespace {

using core::DirectiveKind;
using core::ParsedDirective;
using core::RawClause;

// ---------------------------------------------------------------------------
// Clause utilities (the directive tree, the textual clause merge and the
// required-clause rule live in translate/scan.cpp, shared with the static
// analyzer and the explorer)
// ---------------------------------------------------------------------------

/// The ::cid::core enumerator names, in the declaration order of core's
/// Target, Pattern and SyncPlacement enums.
constexpr std::string_view kTargets[] = {"Mpi2Side", "Mpi1Side", "Shmem",
                                         "Auto"};
constexpr std::string_view kPatterns[] = {"OneToMany", "ManyToOne",
                                          "AllToAll"};
constexpr std::string_view kPlacements[] = {
    "EndParamRegion", "BeginNextParamRegion", "EndAdjParamRegions"};

bool is_keyword_clause(std::string_view name) {
  return name == "target" || name == "place_sync" || name == "pattern";
}

/// The enumerator `parsed` names, spelled `::cid::core::<type>::<name>`, or
/// core's error for an unknown keyword.
template <typename Enum, std::size_t N>
Result<std::string> enumerator(const Result<Enum>& parsed,
                               std::string_view type,
                               const std::string_view (&names)[N]) {
  if (!parsed.is_ok()) return parsed.status();
  return "::cid::core::" + std::string(type) + "::" +
         std::string(names[static_cast<std::size_t>(parsed.value())]);
}

/// The ::cid::core enumerator a keyword clause names.
Result<std::string> keyword_enumerator(const RawClause& clause) {
  const std::string& keyword = clause.args[0];
  if (clause.name == "target") {
    return enumerator(core::parse_target_keyword(keyword), "Target",
                      kTargets);
  }
  if (clause.name == "pattern") {
    return enumerator(core::parse_pattern_keyword(keyword), "Pattern",
                      kPatterns);
  }
  return enumerator(core::parse_sync_placement_keyword(keyword),
                    "SyncPlacement", kPlacements);
}

/// A clause's C expression wrapped as a runtime callable, evaluated in the
/// user's scope each time the directive executes.
std::string expr_lambda(const std::string& expr) {
  return "[&]() -> ::cid::core::ExprValue { return "
         "static_cast<::cid::core::ExprValue>(" +
         expr + "); }";
}

/// A parsed clause set as a ::cid::core::Clauses builder chain: expressions
/// become lambdas, buffers core::buf descriptors, keywords enumerators.
Result<std::string> clauses_builder(const ParsedDirective& directive) {
  std::string out = "::cid::core::Clauses()";
  for (const RawClause& clause : directive.clauses) {
    if (clause.name == "sbuf" || clause.name == "rbuf") {
      for (const std::string& arg : clause.args) {
        out += "\n    ." + clause.name + "(::cid::core::buf(" + arg + ", \"" +
               arg + "\"))";
      }
      continue;
    }
    std::string args;
    if (is_keyword_clause(clause.name)) {
      auto enumerator = keyword_enumerator(clause);
      if (!enumerator.is_ok()) return enumerator.status();
      args = std::move(enumerator).take();
    } else {
      for (const std::string& arg : clause.args) {
        if (!args.empty()) args += ", ";
        args += expr_lambda(arg);
      }
    }
    out += "\n    ." + clause.name + "(" + args + ")";
  }
  return out;
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
    return Translation{std::move(body).take(), summary_};
  }

 private:
  /// The error `status` of directive `node`, with the node's line.
  static Status at(const DirectiveNode& node, const Status& status) {
    return Status(status.code(), "line " + std::to_string(node.line) + ": " +
                                     status.message());
  }

  /// Translate source_[begin, end), whose directives are `nodes`: the text
  /// between them is copied verbatim. `region` is the merged clause set of
  /// the innermost enclosing comm_parameters (nullptr at top level).
  Result<std::string> translate_range(std::size_t begin, std::size_t end,
                                      const std::vector<DirectiveNode>& nodes,
                                      const ParsedDirective* region) {
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

  /// An explanatory comment line (empty when annotation is off).
  std::string annotate(const std::string& note) const {
    return options_.annotate ? "/* cid-translate: " + note + " */\n" : "";
  }

  /// The target keyword a merged clause set lowers to: its own, else the
  /// configured default.
  std::string target_of(const ParsedDirective& merged) const {
    const RawClause* clause = merged.find("target");
    return clause != nullptr
               ? clause->args[0]
               : std::string(core::target_keyword(options_.default_target));
  }

  /// `directive`'s own clauses as a builder chain. The runtime inherits the
  /// rest through its region stack; a top-level directive without a target
  /// clause gets the configured default.
  Result<std::string> own_clauses(const DirectiveNode& node,
                                  const ParsedDirective* region) const {
    ParsedDirective own = node.directive;
    if (region == nullptr && own.find("target") == nullptr) {
      own.clauses.push_back({"target", {target_of(own)}, 0});
    }
    auto builder = clauses_builder(own);
    if (!builder.is_ok()) return at(node, builder.status());
    return builder;
  }

  Result<std::string> emit_region(const DirectiveNode& node,
                                  const ParsedDirective* parent) {
    ++summary_.parameter_regions;
    const int id = next_id_++;
    const ParsedDirective merged = merge_directives(parent, node.directive);
    const bool reliable = merged.find("reliability") != nullptr;
    if (reliable) ++summary_.reliable_regions;

    auto builder = own_clauses(node, parent);
    if (!builder.is_ok()) return builder.status();
    auto body = translate_range(node.body_begin, node.body_end,
                                node.children, &merged);
    if (!body.is_ok()) return body.status();
    return annotate("comm_parameters region " + std::to_string(id) +
                    (reliable ? " (reliable)" : "")) +
           "::cid::core::comm_parameters(" + std::move(builder).take() +
           ",\n    [&](::cid::core::Region&) {\n" + std::move(body).take() +
           "\n});\n";
  }

  /// The collective-directive extension (paper Section V). The runtime's
  /// comm_collective reads only its own clauses, so the chain carries the
  /// collective clauses of the statically merged set.
  Result<std::string> emit_collective(const DirectiveNode& node,
                                      const ParsedDirective* region) {
    ++summary_.collective_directives;
    const int id = next_id_++;

    if (region != nullptr && region->find("reliability") != nullptr) {
      return at(node,
                Status(ErrorCode::InvalidClause,
                       "comm_collective inside a reliability region is not "
                       "supported (reliability covers point-to-point "
                       "transfers)"));
    }
    const ParsedDirective merged = merge_directives(region, node.directive);
    if (auto problems = required_clause_problems(merged); !problems.empty()) {
      return at(node,
                Status(ErrorCode::InvalidClause, problems.front().message));
    }
    auto target = core::parse_target_keyword(target_of(merged));
    if (!target.is_ok()) return at(node, target.status());
    if (target.value() == core::Target::Mpi1Side) {
      return at(node, Status(ErrorCode::UnsupportedTarget,
                             "comm_collective does not support "
                             "TARGET_COMM_MPI_1SIDE"));
    }
    ParsedDirective collective;
    collective.kind = DirectiveKind::CommCollective;
    for (const RawClause& clause : merged.clauses) {
      for (const char* name :
           {"pattern", "root", "group", "count", "sbuf", "rbuf"}) {
        if (clause.name == name) collective.clauses.push_back(clause);
      }
    }
    collective.clauses.push_back(
        {"target", {std::string(core::target_keyword(target.value()))}, 0});
    auto builder = clauses_builder(collective);
    if (!builder.is_ok()) return at(node, builder.status());

    std::string out = annotate("comm_collective " + std::to_string(id)) +
                      "::cid::core::comm_collective(" +
                      std::move(builder).take() + ");\n";
    // Directives in the body belong to the same enclosing region.
    auto body = translate_range(node.body_begin, node.body_end,
                                node.children, region);
    if (!body.is_ok()) return body.status();
    if (cid::trim(body.value()).empty()) return out;
    // One statement, so that a directive under an unbraced for or if keeps
    // its body under it too.
    return "{\n" + out + annotate("post-collective statement") +
           body.value() + "\n}\n";
  }

  Result<std::string> emit_p2p(const DirectiveNode& node,
                               const ParsedDirective* region) {
    ++summary_.p2p_directives;
    const int id = next_id_++;

    const ParsedDirective merged = merge_directives(region, node.directive);
    if (auto problems = required_clause_problems(merged); !problems.empty()) {
      return at(node,
                Status(ErrorCode::InvalidClause, problems.front().message));
    }
    if (merged.find("reliability") != nullptr) {
      const std::string target = target_of(merged);
      if (target != "TARGET_COMM_MPI_2SIDE" && target != "TARGET_COMM_AUTO") {
        return at(node, Status(ErrorCode::UnsupportedTarget,
                               "reliability requires TARGET_COMM_MPI_2SIDE"));
      }
    }
    auto builder = own_clauses(node, region);
    if (!builder.is_ok()) return builder.status();

    // Directives in the overlap body belong to the same enclosing region.
    auto body = translate_range(node.body_begin, node.body_end,
                                node.children, region);
    if (!body.is_ok()) return body.status();
    std::string out = annotate("comm_p2p " + std::to_string(id)) +
                      "::cid::core::comm_p2p(" + std::move(builder).take();
    if (!cid::trim(body.value()).empty()) {
      out += ",\n    [&]() {\n" + annotate("overlapped computation") +
             body.value() + "\n}";
    }
    return out + ");\n";
  }

  std::string_view source_;
  Options options_;
  Summary summary_;
  int next_id_ = 1;
};

}  // namespace

Result<Translation> translate_source(std::string_view source,
                                     const Options& options) {
  return Translator(source, options).run();
}

}  // namespace cid::translate
