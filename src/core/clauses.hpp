// The directive clause model: the ten clauses of comm_parameters / comm_p2p
// (paper Section III-B), their builder API, inheritance (comm_parameters
// assertions apply to every enclosed comm_p2p) and validation rules.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/buffer.hpp"
#include "core/expr.hpp"

namespace cid::core {

/// The target clause keywords.
enum class Target {
  Mpi2Side,  ///< TARGET_COMM_MPI_2SIDE: MPI_Isend / MPI_Irecv (the default)
  Mpi1Side,  ///< TARGET_COMM_MPI_1SIDE: MPI_Put
  Shmem,     ///< TARGET_COMM_SHMEM: typed shmem_put
  Auto,      ///< TARGET_COMM_AUTO: cid::tune picks per site (docs/TUNING.md)
};

/// The place_sync clause keywords (comm_parameters only).
enum class SyncPlacement {
  EndParamRegion,        ///< END_PARAM_REGION
  BeginNextParamRegion,  ///< BEGIN_NEXT_PARAM_REGION
  EndAdjParamRegions,    ///< END_ADJ_PARAM_REGIONS
};

/// Collective communication patterns — the paper's Section V extension
/// ("many-to-one, one-to-many and all-to-all patterns" over "groups of
/// processes").
enum class Pattern {
  OneToMany,  ///< PATTERN_ONE_TO_MANY: broadcast from root
  ManyToOne,  ///< PATTERN_MANY_TO_ONE: gather to root
  AllToAll,   ///< PATTERN_ALL_TO_ALL: full block exchange
};

std::string_view target_keyword(Target target) noexcept;
std::string_view sync_placement_keyword(SyncPlacement placement) noexcept;
std::string_view pattern_keyword(Pattern pattern) noexcept;
Result<Target> parse_target_keyword(std::string_view keyword);
Result<SyncPlacement> parse_sync_placement_keyword(std::string_view keyword);
Result<Pattern> parse_pattern_keyword(std::string_view keyword);

/// A clause argument: a constant, a parsed expression (evaluated against the
/// directive environment), or a callable (evaluated at execution time on each
/// rank — the embedded-API equivalent of a C expression in the pragma).
class ClauseExpr {
 public:
  ClauseExpr() = default;
  ClauseExpr(ExprValue value) : value_(value), kind_(Kind::Value) {}  // NOLINT
  ClauseExpr(int value)                                                // NOLINT
      : value_(value), kind_(Kind::Value) {}
  ClauseExpr(Expr expr);  // NOLINT
  template <typename F>
    requires std::is_invocable_r_v<ExprValue, F> &&
             (!std::is_arithmetic_v<std::decay_t<F>>)
  ClauseExpr(F fn)  // NOLINT(google-explicit-constructor)
      : fn_(std::move(fn)), kind_(Kind::Callable) {}
  /// Clause text is parsed once per distinct content, process-wide: a text
  /// seen before shares its immutable parse. A parse failure is reported at
  /// evaluation time so the builder API stays chainable.
  ClauseExpr(const char* text) : ClauseExpr(std::string_view(text)) {}  // NOLINT
  ClauseExpr(const std::string& text)  // NOLINT
      : ClauseExpr(std::string_view(text)) {}

  bool present() const noexcept { return kind_ != Kind::Absent; }

  Result<ExprValue> eval(const Env& env) const;

  /// Human-readable form for diagnostics and codegen.
  std::string describe() const;

  /// The outcome of parsing one clause text: an expression or the parser's
  /// error. Immutable, so one parse serves every ClauseExpr of that text.
  struct Parsed {
    std::size_t hash = 0;  ///< of `text`; the parse cache's key
    std::string text;
    Expr expr;
    Status error;
  };

 private:
  enum class Kind { Absent, Value, Parsed, Callable };

  explicit ClauseExpr(std::string_view text);

  ExprValue value_ = 0;
  std::shared_ptr<const Parsed> parsed_;
  std::function<ExprValue()> fn_;
  Kind kind_ = Kind::Absent;
};

/// A full clause set. Used for both directives; validation differs.
class Clauses {
 public:
  // --- builder ---------------------------------------------------------
  Clauses& sender(ClauseExpr expr) { sender_ = std::move(expr); return *this; }
  Clauses& receiver(ClauseExpr expr) { receiver_ = std::move(expr); return *this; }
  Clauses& sendwhen(ClauseExpr expr) { sendwhen_ = std::move(expr); return *this; }
  Clauses& receivewhen(ClauseExpr expr) { receivewhen_ = std::move(expr); return *this; }
  Clauses& count(ClauseExpr expr) { count_ = std::move(expr); return *this; }
  Clauses& max_comm_iter(ClauseExpr expr) { max_comm_iter_ = std::move(expr); return *this; }
  /// Reliable delivery for the region's MPI-two-sided transfers:
  /// ack/timeout/retransmit with exponential backoff in virtual time.
  /// `timeout_us` is the base retransmission timeout in virtual
  /// microseconds; `max_retries` bounds retransmissions per transfer, after
  /// which the pair is reported undelivered (see core::delivery_report()).
  Clauses& reliability(ClauseExpr timeout_us, ClauseExpr max_retries) {
    reliability_timeout_us_ = std::move(timeout_us);
    reliability_max_retries_ = std::move(max_retries);
    return *this;
  }
  Clauses& target(Target target) { target_ = target; return *this; }
  Clauses& place_sync(SyncPlacement placement) { place_sync_ = placement; return *this; }
  /// Collective-directive clauses (comm_collective only).
  Clauses& pattern(Pattern pattern) { pattern_ = pattern; return *this; }
  Clauses& root(ClauseExpr expr) { root_ = std::move(expr); return *this; }
  /// Group color: ranks with equal values form one group (< 0 = excluded).
  Clauses& group(ClauseExpr expr) { group_ = std::move(expr); return *this; }
  Clauses& sbuf(BufferRef buffer) { sbuf_.push_back(std::move(buffer)); return *this; }
  Clauses& sbuf(std::initializer_list<BufferRef> buffers) {
    sbuf_.insert(sbuf_.end(), buffers.begin(), buffers.end());
    return *this;
  }
  Clauses& rbuf(BufferRef buffer) { rbuf_.push_back(std::move(buffer)); return *this; }
  Clauses& rbuf(std::initializer_list<BufferRef> buffers) {
    rbuf_.insert(rbuf_.end(), buffers.begin(), buffers.end());
    return *this;
  }
  /// Bind a variable for string clause expressions (snapshot by value).
  Clauses& let(std::string name, ExprValue value) {
    bindings_.emplace_back(std::move(name), value);
    return *this;
  }

  // --- accessors --------------------------------------------------------
  const ClauseExpr& sender_clause() const noexcept { return sender_; }
  const ClauseExpr& receiver_clause() const noexcept { return receiver_; }
  const ClauseExpr& sendwhen_clause() const noexcept { return sendwhen_; }
  const ClauseExpr& receivewhen_clause() const noexcept { return receivewhen_; }
  const ClauseExpr& count_clause() const noexcept { return count_; }
  const ClauseExpr& max_comm_iter_clause() const noexcept { return max_comm_iter_; }
  const ClauseExpr& reliability_timeout_clause() const noexcept { return reliability_timeout_us_; }
  const ClauseExpr& reliability_retries_clause() const noexcept { return reliability_max_retries_; }
  bool reliability_present() const noexcept { return reliability_timeout_us_.present(); }
  const std::optional<Target>& target_clause() const noexcept { return target_; }
  const std::optional<SyncPlacement>& place_sync_clause() const noexcept { return place_sync_; }
  const std::optional<Pattern>& pattern_clause() const noexcept { return pattern_; }
  const ClauseExpr& root_clause() const noexcept { return root_; }
  const ClauseExpr& group_clause() const noexcept { return group_; }
  const std::vector<BufferRef>& sbuf_list() const noexcept { return sbuf_; }
  const std::vector<BufferRef>& rbuf_list() const noexcept { return rbuf_; }

  /// Validation of the clauses written directly on a comm_p2p site (before
  /// inheritance): rejects the comm_parameters-only clauses place_sync and
  /// max_comm_iter.
  Status validate_p2p_site() const;

  /// Validation for a standalone comm_p2p; see ClauseView::validate_for_p2p.
  Status validate_for_p2p() const;

  /// Validation for a comm_parameters directive: any subset of clauses, with
  /// sendwhen/receivewhen pairing enforced.
  Status validate_for_params() const;

  /// Validation for a comm_collective directive: pattern + buffers required,
  /// root required except for ALL_TO_ALL, point-to-point-only clauses
  /// rejected.
  Status validate_for_collective() const;

 private:
  friend class ClauseView;

  ClauseExpr sender_;
  ClauseExpr receiver_;
  ClauseExpr sendwhen_;
  ClauseExpr receivewhen_;
  ClauseExpr count_;
  ClauseExpr max_comm_iter_;
  ClauseExpr reliability_timeout_us_;
  ClauseExpr reliability_max_retries_;
  std::optional<Target> target_;
  std::optional<SyncPlacement> place_sync_;
  std::optional<Pattern> pattern_;
  ClauseExpr root_;
  ClauseExpr group_;
  std::vector<BufferRef> sbuf_;
  std::vector<BufferRef> rbuf_;
  std::vector<std::pair<std::string, ExprValue>> bindings_;
};

/// Clause inheritance resolved without copying: each accessor returns the
/// winning point-to-point clause of a comm_p2p site (or a nested region)
/// layered over the clauses of its enclosing comm_parameters regions. Every clause present on
/// the inner set wins; absent ones inherit (paper: instances "do not need to
/// re-express these communication clauses, but may provide additional
/// assertions"). A view borrows: the Clauses it reads, and its outer view,
/// must outlive it. Nothing here is cached across executions — buffers,
/// callables and let() values may change between them. place_sync is not
/// here: it belongs to one region and is never inherited (core/sync_plan.hpp).
class ClauseView {
 public:
  explicit ClauseView(const Clauses& clauses);
  /// `inner` layered over `outer`.
  ClauseView(const ClauseView& outer, const Clauses& inner);

  const ClauseExpr& sender_clause() const noexcept { return *sender_; }
  const ClauseExpr& receiver_clause() const noexcept { return *receiver_; }
  const ClauseExpr& sendwhen_clause() const noexcept { return *sendwhen_; }
  const ClauseExpr& receivewhen_clause() const noexcept { return *receivewhen_; }
  const ClauseExpr& count_clause() const noexcept { return *count_; }
  const ClauseExpr& max_comm_iter_clause() const noexcept { return *max_comm_iter_; }
  const ClauseExpr& reliability_timeout_clause() const noexcept { return *reliability_timeout_us_; }
  const ClauseExpr& reliability_retries_clause() const noexcept { return *reliability_max_retries_; }
  bool reliability_present() const noexcept { return reliability_timeout_us_->present(); }
  const std::optional<Target>& target_clause() const noexcept { return *target_; }
  const std::vector<BufferRef>& sbuf_list() const noexcept { return *sbuf_; }
  const std::vector<BufferRef>& rbuf_list() const noexcept { return *rbuf_; }

  /// Binds every let() value, outermost region first, so inner bindings
  /// shadow outer ones (Env::bind overwrites).
  void bind_lets(Env& env) const;

  /// Validation for a standalone or inherited comm_p2p: required clauses
  /// present, sendwhen/receivewhen paired, buffer lists consistent.
  Status validate_for_p2p() const;

 private:
  const ClauseView* outer_ = nullptr;
  const std::vector<std::pair<std::string, ExprValue>>* bindings_;
  const ClauseExpr* sender_;
  const ClauseExpr* receiver_;
  const ClauseExpr* sendwhen_;
  const ClauseExpr* receivewhen_;
  const ClauseExpr* count_;
  const ClauseExpr* max_comm_iter_;
  const ClauseExpr* reliability_timeout_us_;
  const ClauseExpr* reliability_max_retries_;
  const std::optional<Target>* target_;
  const std::vector<BufferRef>* sbuf_;
  const std::vector<BufferRef>* rbuf_;
};

}  // namespace cid::core
