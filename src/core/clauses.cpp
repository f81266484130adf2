#include "core/clauses.hpp"

#include "common/intern.hpp"

namespace cid::core {

std::string_view target_keyword(Target target) noexcept {
  switch (target) {
    case Target::Mpi2Side: return "TARGET_COMM_MPI_2SIDE";
    case Target::Mpi1Side: return "TARGET_COMM_MPI_1SIDE";
    case Target::Shmem: return "TARGET_COMM_SHMEM";
    case Target::Auto: return "TARGET_COMM_AUTO";
  }
  return "TARGET_COMM_UNKNOWN";
}

std::string_view sync_placement_keyword(SyncPlacement placement) noexcept {
  switch (placement) {
    case SyncPlacement::EndParamRegion: return "END_PARAM_REGION";
    case SyncPlacement::BeginNextParamRegion: return "BEGIN_NEXT_PARAM_REGION";
    case SyncPlacement::EndAdjParamRegions: return "END_ADJ_PARAM_REGIONS";
  }
  return "UNKNOWN_SYNC_PLACEMENT";
}

Result<Target> parse_target_keyword(std::string_view keyword) {
  if (keyword == "TARGET_COMM_MPI_2SIDE") return Target::Mpi2Side;
  if (keyword == "TARGET_COMM_MPI_1SIDE") return Target::Mpi1Side;
  if (keyword == "TARGET_COMM_SHMEM") return Target::Shmem;
  if (keyword == "TARGET_COMM_AUTO") return Target::Auto;
  return Status(ErrorCode::InvalidClause,
                "unknown target keyword '" + std::string(keyword) + "'");
}

std::string_view pattern_keyword(Pattern pattern) noexcept {
  switch (pattern) {
    case Pattern::OneToMany: return "PATTERN_ONE_TO_MANY";
    case Pattern::ManyToOne: return "PATTERN_MANY_TO_ONE";
    case Pattern::AllToAll: return "PATTERN_ALL_TO_ALL";
  }
  return "PATTERN_UNKNOWN";
}

Result<Pattern> parse_pattern_keyword(std::string_view keyword) {
  if (keyword == "PATTERN_ONE_TO_MANY") return Pattern::OneToMany;
  if (keyword == "PATTERN_MANY_TO_ONE") return Pattern::ManyToOne;
  if (keyword == "PATTERN_ALL_TO_ALL") return Pattern::AllToAll;
  return Status(ErrorCode::InvalidClause,
                "unknown pattern keyword '" + std::string(keyword) + "'");
}

Result<SyncPlacement> parse_sync_placement_keyword(std::string_view keyword) {
  if (keyword == "END_PARAM_REGION") return SyncPlacement::EndParamRegion;
  if (keyword == "BEGIN_NEXT_PARAM_REGION") {
    return SyncPlacement::BeginNextParamRegion;
  }
  if (keyword == "END_ADJ_PARAM_REGIONS") {
    return SyncPlacement::EndAdjParamRegions;
  }
  return Status(ErrorCode::InvalidClause,
                "unknown place_sync keyword '" + std::string(keyword) + "'");
}

namespace {

/// Distinct clause texts kept by the parse cache. A program that builds a
/// new text on every execution fills it once; later texts are parsed each
/// time, exactly as without a cache, so memory stays bounded.
constexpr std::size_t kMaxCachedTexts = 4096;

ClauseExpr::Parsed parse_text(std::string_view text, std::size_t hash) {
  ClauseExpr::Parsed parsed;
  parsed.hash = hash;
  parsed.text = std::string(text);
  auto expr = Expr::parse(text);
  if (expr.is_ok()) {
    parsed.expr = std::move(expr).take();
  } else {
    parsed.error = expr.status();
  }
  return parsed;
}

}  // namespace

ClauseExpr::ClauseExpr(Expr expr) : kind_(Kind::Parsed) {
  auto parsed = std::make_shared<Parsed>();
  parsed->expr = std::move(expr);
  parsed_ = std::move(parsed);
}

ClauseExpr::ClauseExpr(std::string_view text) : kind_(Kind::Parsed) {
  // Never destroyed: cached parses are shared by every rank and thread for
  // the life of the process.
  static auto& cache = *new InternTable<Parsed>(kMaxCachedTexts);
  const std::size_t hash = std::hash<std::string_view>{}(text);
  const Parsed* cached = cache.intern(
      hash, [&](const Parsed& entry) { return entry.text == text; },
      [&] { return parse_text(text, hash); });
  // A cached parse outlives every clause, so the handle does not own it and
  // copying a clause bumps no reference count.
  parsed_ = cached != nullptr
                ? std::shared_ptr<const Parsed>(std::shared_ptr<void>(), cached)
                : std::make_shared<const Parsed>(parse_text(text, hash));
}

Result<ExprValue> ClauseExpr::eval(const Env& env) const {
  switch (kind_) {
    case Kind::Absent:
      return Status(ErrorCode::InvalidClause, "evaluating an absent clause");
    case Kind::Value:
      return value_;
    case Kind::Parsed:
      if (!parsed_->error.is_ok()) return parsed_->error;
      return parsed_->expr.eval(env);
    case Kind::Callable:
      return fn_();
  }
  return Status(ErrorCode::RuntimeFault, "bad ClauseExpr kind");
}

std::string ClauseExpr::describe() const {
  switch (kind_) {
    case Kind::Absent:
      return "<absent>";
    case Kind::Value:
      return std::to_string(value_);
    case Kind::Parsed:
      if (!parsed_->error.is_ok()) {
        return "<parse error: " + parsed_->error.message() + ">";
      }
      return parsed_->expr.to_string();
    case Kind::Callable:
      return "<callable>";
  }
  return "<bad>";
}

ClauseView::ClauseView(const Clauses& clauses)
    : bindings_(&clauses.bindings_),
      sender_(&clauses.sender_),
      receiver_(&clauses.receiver_),
      sendwhen_(&clauses.sendwhen_),
      receivewhen_(&clauses.receivewhen_),
      count_(&clauses.count_),
      max_comm_iter_(&clauses.max_comm_iter_),
      reliability_timeout_us_(&clauses.reliability_timeout_us_),
      reliability_max_retries_(&clauses.reliability_max_retries_),
      target_(&clauses.target_),
      sbuf_(&clauses.sbuf_),
      rbuf_(&clauses.rbuf_) {}

ClauseView::ClauseView(const ClauseView& outer, const Clauses& inner)
    : ClauseView(outer) {
  outer_ = &outer;
  bindings_ = &inner.bindings_;
  const auto inherit = [](const ClauseExpr*& winner, const ClauseExpr& own) {
    if (own.present()) winner = &own;
  };
  inherit(sender_, inner.sender_);
  inherit(receiver_, inner.receiver_);
  inherit(sendwhen_, inner.sendwhen_);
  inherit(receivewhen_, inner.receivewhen_);
  inherit(count_, inner.count_);
  inherit(max_comm_iter_, inner.max_comm_iter_);
  if (inner.reliability_timeout_us_.present()) {
    reliability_timeout_us_ = &inner.reliability_timeout_us_;
    reliability_max_retries_ = &inner.reliability_max_retries_;
  }
  if (inner.target_.has_value()) target_ = &inner.target_;
  if (!inner.sbuf_.empty()) sbuf_ = &inner.sbuf_;
  if (!inner.rbuf_.empty()) rbuf_ = &inner.rbuf_;
}

void ClauseView::bind_lets(Env& env) const {
  if (outer_ != nullptr) outer_->bind_lets(env);
  for (const auto& [name, value] : *bindings_) env.bind(name, value);
}

Status Clauses::validate_p2p_site() const {
  if (place_sync_.has_value()) {
    return Status(ErrorCode::InvalidClause,
                  "place_sync may only be used with comm_parameters");
  }
  if (max_comm_iter_.present()) {
    return Status(ErrorCode::InvalidClause,
                  "max_comm_iter may only be used with comm_parameters");
  }
  if (reliability_present()) {
    return Status(ErrorCode::InvalidClause,
                  "reliability may only be used with comm_parameters");
  }
  return Status::ok();
}

Status Clauses::validate_for_p2p() const {
  return ClauseView(*this).validate_for_p2p();
}

Status ClauseView::validate_for_p2p() const {
  if (!sender_clause().present()) {
    return Status(ErrorCode::InvalidClause,
                  "comm_p2p requires the sender clause");
  }
  if (!receiver_clause().present()) {
    return Status(ErrorCode::InvalidClause,
                  "comm_p2p requires the receiver clause");
  }
  if (sbuf_list().empty()) {
    return Status(ErrorCode::InvalidClause,
                  "comm_p2p requires a non-empty sbuf clause");
  }
  if (rbuf_list().empty()) {
    return Status(ErrorCode::InvalidClause,
                  "comm_p2p requires a non-empty rbuf clause");
  }
  if (sbuf_list().size() != rbuf_list().size()) {
    return Status(ErrorCode::InvalidClause,
                  "sbuf and rbuf must list the same number of buffers (got " +
                      std::to_string(sbuf_list().size()) + " and " +
                      std::to_string(rbuf_list().size()) + ")");
  }
  if (sendwhen_clause().present() != receivewhen_clause().present()) {
    return Status(ErrorCode::InvalidClause,
                  "sendwhen and receivewhen must both be present or both be "
                  "omitted");
  }
  for (std::size_t i = 0; i < sbuf_list().size(); ++i) {
    const BufferRef& s = sbuf_list()[i];
    const BufferRef& r = rbuf_list()[i];
    if (s.element_size != r.element_size ||
        s.is_composite() != r.is_composite() ||
        (s.is_composite() ? s.layout != r.layout : s.basic != r.basic)) {
      return Status(ErrorCode::InvalidClause,
                    "sbuf/rbuf pair " + std::to_string(i) +
                        " have mismatched element types");
    }
    if (s.is_composite()) {
      CID_RETURN_IF_ERROR(s.layout->validate());
    }
  }
  return Status::ok();
}

Status Clauses::validate_for_collective() const {
  if (!pattern_.has_value()) {
    return Status(ErrorCode::InvalidClause,
                  "comm_collective requires the pattern clause");
  }
  if (sbuf_.empty() || rbuf_.empty()) {
    return Status(ErrorCode::InvalidClause,
                  "comm_collective requires sbuf and rbuf clauses");
  }
  if (sbuf_.size() != 1 || rbuf_.size() != 1) {
    return Status(ErrorCode::InvalidClause,
                  "comm_collective takes exactly one sbuf and one rbuf");
  }
  if (*pattern_ != Pattern::AllToAll && !root_.present()) {
    return Status(ErrorCode::InvalidClause,
                  "pattern " + std::string(pattern_keyword(*pattern_)) +
                      " requires the root clause");
  }
  if (sendwhen_.present() || receivewhen_.present()) {
    return Status(ErrorCode::InvalidClause,
                  "sendwhen/receivewhen do not apply to comm_collective "
                  "(use the group clause to select participants)");
  }
  if (sender_.present() || receiver_.present()) {
    return Status(ErrorCode::InvalidClause,
                  "sender/receiver do not apply to comm_collective");
  }
  if (place_sync_.has_value() || max_comm_iter_.present()) {
    return Status(ErrorCode::InvalidClause,
                  "place_sync/max_comm_iter do not apply to comm_collective");
  }
  if (reliability_present()) {
    return Status(ErrorCode::InvalidClause,
                  "reliability does not apply to comm_collective");
  }
  const BufferRef& s = sbuf_.front();
  const BufferRef& r = rbuf_.front();
  if (s.element_size != r.element_size ||
      s.is_composite() != r.is_composite() ||
      (s.is_composite() ? s.layout != r.layout : s.basic != r.basic)) {
    return Status(ErrorCode::InvalidClause,
                  "comm_collective sbuf/rbuf have mismatched element types");
  }
  if (s.is_composite()) {
    CID_RETURN_IF_ERROR(s.layout->validate());
  }
  return Status::ok();
}

Status Clauses::validate_for_params() const {
  if (sendwhen_.present() != receivewhen_.present()) {
    return Status(ErrorCode::InvalidClause,
                  "sendwhen and receivewhen must both be present or both be "
                  "omitted");
  }
  if (sbuf_.size() != rbuf_.size() && !sbuf_.empty() && !rbuf_.empty()) {
    return Status(ErrorCode::InvalidClause,
                  "sbuf and rbuf on comm_parameters must list the same "
                  "number of buffers");
  }
  return Status::ok();
}

}  // namespace cid::core
