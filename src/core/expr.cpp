#include "core/expr.hpp"

#include <cctype>
#include <set>

namespace cid::core {

// ---------------------------------------------------------------------------
// AST
// ---------------------------------------------------------------------------

enum class Op {
  // binary
  Add, Sub, Mul, Div, Mod,
  Eq, Ne, Lt, Le, Gt, Ge,
  And, Or,
  // unary
  Neg, Not,
};

namespace {
std::string_view op_token(Op op) {
  switch (op) {
    case Op::Add: return "+";
    case Op::Sub: return "-";
    case Op::Mul: return "*";
    case Op::Div: return "/";
    case Op::Mod: return "%";
    case Op::Eq: return "==";
    case Op::Ne: return "!=";
    case Op::Lt: return "<";
    case Op::Le: return "<=";
    case Op::Gt: return ">";
    case Op::Ge: return ">=";
    case Op::And: return "&&";
    case Op::Or: return "||";
    case Op::Neg: return "-";
    case Op::Not: return "!";
  }
  return "?";
}
}  // namespace

struct Expr::Node {
  enum class Kind { Literal, Variable, Unary, Binary, Ternary } kind;
  // Literal
  ExprValue value = 0;
  // Variable
  std::string name;
  // Unary / Binary
  Op op = Op::Add;
  std::shared_ptr<const Node> lhs;  // also: unary operand, ternary condition
  std::shared_ptr<const Node> rhs;  // also: ternary then-branch
  std::shared_ptr<const Node> third;  // ternary else-branch
};

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

namespace {

enum class TokKind {
  End, Number, Ident,
  Plus, Minus, Star, Slash, Percent,
  EqEq, NotEq, Lt, Le, Gt, Ge,
  AndAnd, OrOr, Not,
  LParen, RParen, Question, Colon,
};

struct Token {
  TokKind kind = TokKind::End;
  ExprValue number = 0;
  std::string ident;
  std::size_t pos = 0;
};

class Lexer {
 public:
  explicit Lexer(std::string_view text) : text_(text) {}

  Result<std::vector<Token>> run() {
    std::vector<Token> tokens;
    while (true) {
      skip_space();
      Token token;
      token.pos = pos_;
      if (pos_ >= text_.size()) {
        token.kind = TokKind::End;
        tokens.push_back(token);
        return tokens;
      }
      const char c = text_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c))) {
        ExprValue value = 0;
        while (pos_ < text_.size() &&
               std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
          value = value * 10 + (text_[pos_] - '0');
          ++pos_;
        }
        token.kind = TokKind::Number;
        token.number = value;
      } else if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        std::size_t start = pos_;
        while (pos_ < text_.size() &&
               (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '_')) {
          ++pos_;
        }
        token.kind = TokKind::Ident;
        token.ident = std::string(text_.substr(start, pos_ - start));
      } else {
        switch (c) {
          case '+': token.kind = TokKind::Plus; ++pos_; break;
          case '-': token.kind = TokKind::Minus; ++pos_; break;
          case '*': token.kind = TokKind::Star; ++pos_; break;
          case '/': token.kind = TokKind::Slash; ++pos_; break;
          case '%': token.kind = TokKind::Percent; ++pos_; break;
          case '(': token.kind = TokKind::LParen; ++pos_; break;
          case ')': token.kind = TokKind::RParen; ++pos_; break;
          case '?': token.kind = TokKind::Question; ++pos_; break;
          case ':': token.kind = TokKind::Colon; ++pos_; break;
          case '=':
            if (peek2() == '=') {
              token.kind = TokKind::EqEq;
              pos_ += 2;
            } else {
              return error("'=' (assignment) is not a clause expression; "
                           "did you mean '=='?");
            }
            break;
          case '!':
            if (peek2() == '=') {
              token.kind = TokKind::NotEq;
              pos_ += 2;
            } else {
              token.kind = TokKind::Not;
              ++pos_;
            }
            break;
          case '<':
            if (peek2() == '=') {
              token.kind = TokKind::Le;
              pos_ += 2;
            } else {
              token.kind = TokKind::Lt;
              ++pos_;
            }
            break;
          case '>':
            if (peek2() == '=') {
              token.kind = TokKind::Ge;
              pos_ += 2;
            } else {
              token.kind = TokKind::Gt;
              ++pos_;
            }
            break;
          case '&':
            if (peek2() == '&') {
              token.kind = TokKind::AndAnd;
              pos_ += 2;
            } else {
              return error("single '&' is not supported");
            }
            break;
          case '|':
            if (peek2() == '|') {
              token.kind = TokKind::OrOr;
              pos_ += 2;
            } else {
              return error("single '|' is not supported");
            }
            break;
          default:
            return error(std::string("unexpected character '") + c + "'");
        }
      }
      tokens.push_back(std::move(token));
    }
  }

 private:
  char peek2() const {
    return pos_ + 1 < text_.size() ? text_[pos_ + 1] : '\0';
  }
  void skip_space() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }
  Status error(const std::string& message) const {
    return Status(ErrorCode::ParseError,
                  message + " at position " + std::to_string(pos_) +
                      " in expression '" + std::string(text_) + "'");
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Parser (recursive descent, C precedence)
// ---------------------------------------------------------------------------

using NodePtr = std::shared_ptr<const Expr::Node>;

class Parser {
 public:
  Parser(std::vector<Token> tokens, std::string_view text)
      : tokens_(std::move(tokens)), text_(text) {}

  Result<NodePtr> run() {
    auto expr = parse_ternary();
    if (!expr.is_ok()) return expr;
    if (current().kind != TokKind::End) {
      return error("trailing tokens after expression");
    }
    return expr;
  }

 private:
  const Token& current() const { return tokens_[index_]; }
  void advance() { ++index_; }
  bool accept(TokKind kind) {
    if (current().kind == kind) {
      advance();
      return true;
    }
    return false;
  }
  Status error(const std::string& message) const {
    return Status(ErrorCode::ParseError,
                  message + " at position " + std::to_string(current().pos) +
                      " in expression '" + std::string(text_) + "'");
  }

  static NodePtr make_literal(ExprValue value) {
    auto node = std::make_shared<Expr::Node>();
    node->kind = Expr::Node::Kind::Literal;
    node->value = value;
    return node;
  }
  static NodePtr make_variable(std::string name) {
    auto node = std::make_shared<Expr::Node>();
    node->kind = Expr::Node::Kind::Variable;
    node->name = std::move(name);
    return node;
  }
  static NodePtr make_unary(Op op, NodePtr operand) {
    auto node = std::make_shared<Expr::Node>();
    node->kind = Expr::Node::Kind::Unary;
    node->op = op;
    node->lhs = std::move(operand);
    return node;
  }
  static NodePtr make_binary(Op op, NodePtr lhs, NodePtr rhs) {
    auto node = std::make_shared<Expr::Node>();
    node->kind = Expr::Node::Kind::Binary;
    node->op = op;
    node->lhs = std::move(lhs);
    node->rhs = std::move(rhs);
    return node;
  }

  Result<NodePtr> parse_ternary() {
    auto condition = parse_or();
    if (!condition.is_ok()) return condition;
    if (!accept(TokKind::Question)) return condition;
    auto then_branch = parse_ternary();
    if (!then_branch.is_ok()) return then_branch;
    if (!accept(TokKind::Colon)) return error("expected ':' in ternary");
    auto else_branch = parse_ternary();
    if (!else_branch.is_ok()) return else_branch;
    auto node = std::make_shared<Expr::Node>();
    node->kind = Expr::Node::Kind::Ternary;
    node->lhs = std::move(condition).take();
    node->rhs = std::move(then_branch).take();
    node->third = std::move(else_branch).take();
    return NodePtr(node);
  }

  Result<NodePtr> parse_or() {
    auto lhs = parse_and();
    if (!lhs.is_ok()) return lhs;
    NodePtr node = std::move(lhs).take();
    while (accept(TokKind::OrOr)) {
      auto rhs = parse_and();
      if (!rhs.is_ok()) return rhs;
      node = make_binary(Op::Or, node, std::move(rhs).take());
    }
    return node;
  }

  Result<NodePtr> parse_and() {
    auto lhs = parse_equality();
    if (!lhs.is_ok()) return lhs;
    NodePtr node = std::move(lhs).take();
    while (accept(TokKind::AndAnd)) {
      auto rhs = parse_equality();
      if (!rhs.is_ok()) return rhs;
      node = make_binary(Op::And, node, std::move(rhs).take());
    }
    return node;
  }

  Result<NodePtr> parse_equality() {
    auto lhs = parse_relational();
    if (!lhs.is_ok()) return lhs;
    NodePtr node = std::move(lhs).take();
    for (;;) {
      Op op;
      if (accept(TokKind::EqEq)) {
        op = Op::Eq;
      } else if (accept(TokKind::NotEq)) {
        op = Op::Ne;
      } else {
        return node;
      }
      auto rhs = parse_relational();
      if (!rhs.is_ok()) return rhs;
      node = make_binary(op, node, std::move(rhs).take());
    }
  }

  Result<NodePtr> parse_relational() {
    auto lhs = parse_additive();
    if (!lhs.is_ok()) return lhs;
    NodePtr node = std::move(lhs).take();
    for (;;) {
      Op op;
      if (accept(TokKind::Lt)) {
        op = Op::Lt;
      } else if (accept(TokKind::Le)) {
        op = Op::Le;
      } else if (accept(TokKind::Gt)) {
        op = Op::Gt;
      } else if (accept(TokKind::Ge)) {
        op = Op::Ge;
      } else {
        return node;
      }
      auto rhs = parse_additive();
      if (!rhs.is_ok()) return rhs;
      node = make_binary(op, node, std::move(rhs).take());
    }
  }

  Result<NodePtr> parse_additive() {
    auto lhs = parse_multiplicative();
    if (!lhs.is_ok()) return lhs;
    NodePtr node = std::move(lhs).take();
    for (;;) {
      Op op;
      if (accept(TokKind::Plus)) {
        op = Op::Add;
      } else if (accept(TokKind::Minus)) {
        op = Op::Sub;
      } else {
        return node;
      }
      auto rhs = parse_multiplicative();
      if (!rhs.is_ok()) return rhs;
      node = make_binary(op, node, std::move(rhs).take());
    }
  }

  Result<NodePtr> parse_multiplicative() {
    auto lhs = parse_unary();
    if (!lhs.is_ok()) return lhs;
    NodePtr node = std::move(lhs).take();
    for (;;) {
      Op op;
      if (accept(TokKind::Star)) {
        op = Op::Mul;
      } else if (accept(TokKind::Slash)) {
        op = Op::Div;
      } else if (accept(TokKind::Percent)) {
        op = Op::Mod;
      } else {
        return node;
      }
      auto rhs = parse_unary();
      if (!rhs.is_ok()) return rhs;
      node = make_binary(op, node, std::move(rhs).take());
    }
  }

  Result<NodePtr> parse_unary() {
    if (accept(TokKind::Minus)) {
      auto operand = parse_unary();
      if (!operand.is_ok()) return operand;
      return make_unary(Op::Neg, std::move(operand).take());
    }
    if (accept(TokKind::Not)) {
      auto operand = parse_unary();
      if (!operand.is_ok()) return operand;
      return make_unary(Op::Not, std::move(operand).take());
    }
    return parse_primary();
  }

  Result<NodePtr> parse_primary() {
    if (current().kind == TokKind::Number) {
      const ExprValue value = current().number;
      advance();
      return make_literal(value);
    }
    if (current().kind == TokKind::Ident) {
      std::string name = current().ident;
      advance();
      return make_variable(std::move(name));
    }
    if (accept(TokKind::LParen)) {
      auto inner = parse_ternary();
      if (!inner.is_ok()) return inner;
      if (!accept(TokKind::RParen)) return error("expected ')'");
      return inner;
    }
    return error("expected a number, variable or '('");
  }

  std::vector<Token> tokens_;
  std::string_view text_;
  std::size_t index_ = 0;
};

// ---------------------------------------------------------------------------
// Evaluation / printing helpers
// ---------------------------------------------------------------------------

Result<ExprValue> eval_node(const Expr::Node& node, const Env& env) {
  using Kind = Expr::Node::Kind;
  switch (node.kind) {
    case Kind::Literal:
      return node.value;
    case Kind::Variable:
      return env.lookup(node.name);
    case Kind::Unary: {
      auto operand = eval_node(*node.lhs, env);
      if (!operand.is_ok()) return operand;
      const ExprValue v = operand.value();
      return node.op == Op::Neg ? -v : static_cast<ExprValue>(v == 0);
    }
    case Kind::Binary: {
      auto lhs = eval_node(*node.lhs, env);
      if (!lhs.is_ok()) return lhs;
      const ExprValue a = lhs.value();
      // Short-circuit for logical operators, like C.
      if (node.op == Op::And && a == 0) return ExprValue{0};
      if (node.op == Op::Or && a != 0) return ExprValue{1};
      auto rhs = eval_node(*node.rhs, env);
      if (!rhs.is_ok()) return rhs;
      const ExprValue b = rhs.value();
      switch (node.op) {
        case Op::Add: return a + b;
        case Op::Sub: return a - b;
        case Op::Mul: return a * b;
        case Op::Div:
          if (b == 0) {
            return Status(ErrorCode::ParseError,
                          "division by zero in clause expression");
          }
          return a / b;
        case Op::Mod:
          if (b == 0) {
            return Status(ErrorCode::ParseError,
                          "modulo by zero in clause expression");
          }
          return a % b;
        case Op::Eq: return ExprValue{a == b};
        case Op::Ne: return ExprValue{a != b};
        case Op::Lt: return ExprValue{a < b};
        case Op::Le: return ExprValue{a <= b};
        case Op::Gt: return ExprValue{a > b};
        case Op::Ge: return ExprValue{a >= b};
        case Op::And: return ExprValue{b != 0};
        case Op::Or: return ExprValue{b != 0};
        case Op::Neg:
        case Op::Not: break;
      }
      return Status(ErrorCode::RuntimeFault, "bad binary operator");
    }
    case Kind::Ternary: {
      auto condition = eval_node(*node.lhs, env);
      if (!condition.is_ok()) return condition;
      return condition.value() != 0 ? eval_node(*node.rhs, env)
                                    : eval_node(*node.third, env);
    }
  }
  return Status(ErrorCode::RuntimeFault, "bad expression node");
}

void print_node(const Expr::Node& node, std::string& out) {
  using Kind = Expr::Node::Kind;
  switch (node.kind) {
    case Kind::Literal:
      out += std::to_string(node.value);
      return;
    case Kind::Variable:
      out += node.name;
      return;
    case Kind::Unary:
      out += op_token(node.op);
      out += '(';
      print_node(*node.lhs, out);
      out += ')';
      return;
    case Kind::Binary:
      out += '(';
      print_node(*node.lhs, out);
      out += op_token(node.op);
      print_node(*node.rhs, out);
      out += ')';
      return;
    case Kind::Ternary:
      out += '(';
      print_node(*node.lhs, out);
      out += '?';
      print_node(*node.rhs, out);
      out += ':';
      print_node(*node.third, out);
      out += ')';
      return;
  }
}

void collect_variables(const Expr::Node& node, std::set<std::string>& out) {
  using Kind = Expr::Node::Kind;
  switch (node.kind) {
    case Kind::Literal:
      return;
    case Kind::Variable:
      out.insert(node.name);
      return;
    case Kind::Unary:
      collect_variables(*node.lhs, out);
      return;
    case Kind::Binary:
      collect_variables(*node.lhs, out);
      collect_variables(*node.rhs, out);
      return;
    case Kind::Ternary:
      collect_variables(*node.lhs, out);
      collect_variables(*node.rhs, out);
      collect_variables(*node.third, out);
      return;
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Env
// ---------------------------------------------------------------------------

const Env::Binding* Env::find(std::string_view name) const {
  for (std::size_t i = 0; i < size_; ++i) {
    if (inline_[i].name == name) return &inline_[i];
  }
  for (const Binding& binding : spill_) {
    if (binding.name == name) return &binding;
  }
  return nullptr;
}

void Env::bind(std::string_view name, ExprValue value) {
  if (const Binding* existing = find(name)) {
    // find() points into this (non-const) Env's own storage.
    const_cast<Binding*>(existing)->value = value;
  } else if (size_ < kInline) {
    inline_[size_++] = {name, value};
  } else {
    spill_.push_back({name, value});
  }
}

Result<ExprValue> Env::lookup(std::string_view name) const {
  if (const Binding* binding = find(name)) return binding->value;
  return Status(ErrorCode::ParseError, "unbound variable '" +
                                           std::string(name) +
                                           "' in clause expression");
}

// ---------------------------------------------------------------------------
// Expr public interface
// ---------------------------------------------------------------------------

Result<Expr> Expr::parse(std::string_view text) {
  auto tokens = Lexer(text).run();
  if (!tokens.is_ok()) return tokens.status();
  if (tokens.value().size() == 1) {  // just End
    return Status(ErrorCode::ParseError, "empty clause expression");
  }
  auto node = Parser(std::move(tokens).take(), text).run();
  if (!node.is_ok()) return node.status();
  return Expr(std::move(node).take());
}

Result<ExprValue> Expr::eval(const Env& env) const {
  CID_REQUIRE(valid(), ErrorCode::InvalidArgument, "eval() on invalid Expr");
  return eval_node(*node_, env);
}

std::string Expr::to_string() const {
  if (!valid()) return "<invalid>";
  std::string out;
  print_node(*node_, out);
  return out;
}

std::vector<std::string> Expr::free_variables() const {
  std::set<std::string> names;
  if (valid()) collect_variables(*node_, names);
  return std::vector<std::string>(names.begin(), names.end());
}

}  // namespace cid::core
