#include "core/pragma.hpp"

#include <algorithm>
#include <array>

#include "common/strings.hpp"

namespace cid::core {

namespace {

struct ClauseRule {
  std::string_view name;
  std::size_t min_args;
  std::size_t max_args;
};

constexpr std::array<ClauseRule, 14> kClauseRules = {{
    {"sender", 1, 1},
    {"receiver", 1, 1},
    {"sbuf", 1, SIZE_MAX},
    {"rbuf", 1, SIZE_MAX},
    {"sendwhen", 1, 1},
    {"receivewhen", 1, 1},
    {"target", 1, 1},
    {"count", 1, 1},
    {"place_sync", 1, 1},
    {"max_comm_iter", 1, 1},
    {"reliability", 2, 2},
    // comm_collective extension (paper Section V future work):
    {"pattern", 1, 1},
    {"root", 1, 1},
    {"group", 1, 1},
}};

const ClauseRule* find_rule(std::string_view name) {
  for (const auto& rule : kClauseRules) {
    if (rule.name == name) return &rule;
  }
  return nullptr;
}

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

}  // namespace

const RawClause* ParsedDirective::find(std::string_view name) const noexcept {
  for (const auto& clause : clauses) {
    if (clause.name == name) return &clause;
  }
  return nullptr;
}

Result<SyncPlacement> place_sync_of(const ParsedDirective& directive) {
  const RawClause* clause = directive.find("place_sync");
  if (clause == nullptr) return SyncPlacement::EndParamRegion;
  return parse_sync_placement_keyword(clause->args[0]);
}

Result<ParsedDirective> parse_pragma(std::string_view line) {
  std::string_view rest = trim(line);
  if (starts_with(rest, "#")) {
    rest = trim(rest.substr(1));
    if (!starts_with(rest, "pragma")) {
      return Status(ErrorCode::ParseError, "expected '#pragma'");
    }
    rest = trim(rest.substr(6));
  }

  ParsedDirective directive;
  if (starts_with(rest, "comm_parameters")) {
    directive.kind = DirectiveKind::CommParameters;
    rest = trim(rest.substr(15));
  } else if (starts_with(rest, "comm_p2p")) {
    directive.kind = DirectiveKind::CommP2P;
    rest = trim(rest.substr(8));
  } else if (starts_with(rest, "comm_collective")) {
    directive.kind = DirectiveKind::CommCollective;
    rest = trim(rest.substr(15));
  } else {
    return Status(ErrorCode::ParseError,
                  "expected 'comm_parameters', 'comm_p2p' or "
                  "'comm_collective', got '" +
                      std::string(rest.substr(0, 24)) + "'");
  }

  while (!rest.empty()) {
    // Clause name.
    std::size_t i = 0;
    while (i < rest.size() && ident_char(rest[i])) ++i;
    if (i == 0) {
      return Status(ErrorCode::ParseError,
                    "expected a clause name, got '" +
                        std::string(rest.substr(0, 16)) + "'");
    }
    RawClause clause;
    clause.name = std::string(rest.substr(0, i));
    clause.offset = static_cast<std::size_t>(rest.data() - line.data());
    rest = trim(rest.substr(i));

    const ClauseRule* rule = find_rule(clause.name);
    if (rule == nullptr) {
      return Status(ErrorCode::InvalidClause,
                    "unknown clause '" + clause.name + "'");
    }
    if (directive.find(clause.name) != nullptr) {
      return Status(ErrorCode::InvalidClause,
                    "duplicate clause '" + clause.name + "'");
    }

    // Balanced parenthesized argument list.
    if (rest.empty() || rest.front() != '(') {
      return Status(ErrorCode::ParseError,
                    "clause '" + clause.name + "' expects '('");
    }
    int depth = 0;
    std::size_t end = 0;
    for (; end < rest.size(); ++end) {
      if (rest[end] == '(') ++depth;
      if (rest[end] == ')' && --depth == 0) break;
    }
    if (depth != 0) {
      return Status(ErrorCode::ParseError,
                    "unbalanced parentheses in clause '" + clause.name + "'");
    }
    const std::string_view args_text = rest.substr(1, end - 1);
    rest = trim(rest.substr(end + 1));

    for (std::string_view piece : split_top_level(args_text, ',')) {
      const std::string_view arg = trim(piece);
      if (arg.empty()) {
        return Status(ErrorCode::ParseError,
                      "empty argument in clause '" + clause.name + "'");
      }
      clause.args.emplace_back(arg);
    }
    if (clause.args.size() < rule->min_args ||
        clause.args.size() > rule->max_args) {
      return Status(ErrorCode::InvalidClause,
                    "clause '" + clause.name + "' has " +
                        std::to_string(clause.args.size()) +
                        " arguments, expected " +
                        (rule->min_args == rule->max_args
                             ? std::to_string(rule->min_args)
                             : "at least " + std::to_string(rule->min_args)));
    }
    directive.clauses.push_back(std::move(clause));
  }

  // Directive-level structural checks that need no evaluation.
  if (directive.kind == DirectiveKind::CommP2P) {
    if (directive.find("place_sync") != nullptr) {
      return Status(ErrorCode::InvalidClause,
                    "place_sync may only be used with comm_parameters");
    }
    if (directive.find("max_comm_iter") != nullptr) {
      return Status(ErrorCode::InvalidClause,
                    "max_comm_iter may only be used with comm_parameters");
    }
    if (directive.find("reliability") != nullptr) {
      return Status(ErrorCode::InvalidClause,
                    "reliability may only be used with comm_parameters");
    }
  }
  if (directive.kind != DirectiveKind::CommCollective) {
    for (const char* name : {"pattern", "root", "group"}) {
      if (directive.find(name) != nullptr) {
        return Status(ErrorCode::InvalidClause,
                      std::string(name) +
                          " may only be used with comm_collective");
      }
    }
  } else {
    for (const char* name :
         {"sender", "receiver", "sendwhen", "receivewhen", "place_sync",
          "max_comm_iter", "reliability"}) {
      if (directive.find(name) != nullptr) {
        return Status(ErrorCode::InvalidClause,
                      std::string(name) + " does not apply to "
                      "comm_collective");
      }
    }
    if (directive.find("pattern") == nullptr) {
      return Status(ErrorCode::InvalidClause,
                    "comm_collective requires the pattern clause");
    }
  }
  const bool has_sendwhen = directive.find("sendwhen") != nullptr;
  const bool has_receivewhen = directive.find("receivewhen") != nullptr;
  if (has_sendwhen != has_receivewhen) {
    return Status(ErrorCode::InvalidClause,
                  "sendwhen and receivewhen must both be present or both be "
                  "omitted");
  }
  return directive;
}

Result<BufferRef> BufferTable::lookup(const std::string& name) const {
  auto it = buffers_.find(name);
  if (it == buffers_.end()) {
    return Status(ErrorCode::InvalidClause,
                  "buffer '" + name + "' is not bound in the buffer table");
  }
  return it->second;
}

Result<Clauses> clauses_from_parsed(const ParsedDirective& directive,
                                    const BufferTable* buffers) {
  Clauses out;
  for (const auto& clause : directive.clauses) {
    if (clause.name == "sender" || clause.name == "receiver" ||
        clause.name == "sendwhen" || clause.name == "receivewhen" ||
        clause.name == "count" || clause.name == "max_comm_iter" ||
        clause.name == "root" || clause.name == "group") {
      auto expr = Expr::parse(clause.args[0]);
      if (!expr.is_ok()) return expr.status();
      ClauseExpr value(std::move(expr).take());
      if (clause.name == "sender") out.sender(std::move(value));
      else if (clause.name == "receiver") out.receiver(std::move(value));
      else if (clause.name == "sendwhen") out.sendwhen(std::move(value));
      else if (clause.name == "receivewhen") out.receivewhen(std::move(value));
      else if (clause.name == "count") out.count(std::move(value));
      else if (clause.name == "root") out.root(std::move(value));
      else if (clause.name == "group") out.group(std::move(value));
      else out.max_comm_iter(std::move(value));
    } else if (clause.name == "reliability") {
      auto timeout = Expr::parse(clause.args[0]);
      if (!timeout.is_ok()) return timeout.status();
      auto retries = Expr::parse(clause.args[1]);
      if (!retries.is_ok()) return retries.status();
      out.reliability(ClauseExpr(std::move(timeout).take()),
                      ClauseExpr(std::move(retries).take()));
    } else if (clause.name == "pattern") {
      auto pattern = parse_pattern_keyword(clause.args[0]);
      if (!pattern.is_ok()) return pattern.status();
      out.pattern(pattern.value());
    } else if (clause.name == "target") {
      auto target = parse_target_keyword(clause.args[0]);
      if (!target.is_ok()) return target.status();
      out.target(target.value());
    } else if (clause.name == "place_sync") {
      auto placement = parse_sync_placement_keyword(clause.args[0]);
      if (!placement.is_ok()) return placement.status();
      out.place_sync(placement.value());
    } else if (clause.name == "sbuf" || clause.name == "rbuf") {
      if (buffers == nullptr) {
        return Status(ErrorCode::InvalidClause,
                      "directive lists buffers but no buffer table was "
                      "provided");
      }
      for (const auto& arg : clause.args) {
        auto buffer = buffers->lookup(arg);
        if (!buffer.is_ok()) return buffer.status();
        BufferRef ref = std::move(buffer).take();
        if (ref.name.empty()) ref.name = arg;
        if (clause.name == "sbuf") out.sbuf(std::move(ref));
        else out.rbuf(std::move(ref));
      }
    } else {
      return Status(ErrorCode::InvalidClause,
                    "unhandled clause '" + clause.name + "'");
    }
  }
  return out;
}

}  // namespace cid::core
