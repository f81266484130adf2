// The clause expression mini-language.
//
// Clause arguments in the paper are C expressions over process-local values:
//   sender(rank-1)   receiver((rank+1)%nprocs)   sendwhen(rank%2==0)
// This module parses that subset (integer arithmetic, comparisons, logical
// operators, ternary) into an AST that can be (a) evaluated at directive
// execution time against an environment binding `rank`, `nprocs` and user
// variables, and (b) printed back verbatim by the source-to-source
// translator.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"

namespace cid::core {

using ExprValue = std::int64_t;

/// Variable bindings for evaluation. `rank` and `nprocs` are bound by the
/// executor; user variables come from Clauses::let(). A small flat table
/// that borrows its names: a name must outlive the Env (string literals and
/// the names a Clauses holds do), so binding a temporary string is rejected
/// at compile time.
class Env {
 public:
  /// Binds `name`, overwriting an earlier binding of the same name.
  void bind(std::string_view name, ExprValue value);
  void bind(const char* name, ExprValue value) {
    bind(std::string_view(name), value);
  }
  void bind(std::string&& name, ExprValue value) = delete;

  /// Looks up a variable; error Status when unbound.
  Result<ExprValue> lookup(std::string_view name) const;

 private:
  struct Binding {
    std::string_view name;
    ExprValue value = 0;
  };
  const Binding* find(std::string_view name) const;

  static constexpr std::size_t kInline = 8;
  std::array<Binding, kInline> inline_{};
  std::size_t size_ = 0;  ///< entries of inline_ in use
  std::vector<Binding> spill_;  ///< bindings past the first kInline
};

/// Parsed expression; immutable, shareable.
class Expr {
 public:
  /// An invalid (empty) expression; eval() and to_string() reject it.
  Expr() = default;

  /// Parse the clause-expression subset. Returns ParseError status with a
  /// position-annotated message on failure.
  static Result<Expr> parse(std::string_view text);

  /// Evaluate against an environment. Errors: unbound variable, division or
  /// modulo by zero.
  Result<ExprValue> eval(const Env& env) const;

  /// Render back to C syntax (normalized whitespace, original structure).
  std::string to_string() const;

  /// Names of all variables referenced (sorted, unique) — used by validation
  /// and by the translator to check scope.
  std::vector<std::string> free_variables() const;

  bool valid() const noexcept { return node_ != nullptr; }

  struct Node;

 private:
  explicit Expr(std::shared_ptr<const Node> node) : node_(std::move(node)) {}
  std::shared_ptr<const Node> node_;
};

}  // namespace cid::core
