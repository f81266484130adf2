#include "explore/explore.hpp"

#include <algorithm>
#include <array>
#include <map>
#include <optional>
#include <set>
#include <string>

#include "explore/program.hpp"
#include "explore/session.hpp"
#include "mpi/collectives.hpp"
#include "mpi/comm.hpp"
#include "mpi/p2p.hpp"
#include "mpi/request.hpp"
#include "net/transport.hpp"
#include "rt/runtime.hpp"
#include "simnet/machine_model.hpp"
#include "translate/walk.hpp"

namespace cid::explore {

namespace {

using detail::Candidate;
using detail::ChoicePoint;
using detail::DecisionKind;
using detail::kP2PTag;
using detail::RbufReuse;
using detail::SendRecord;
using detail::Session;
using detail::WaitInfo;

/// One rank of the interpreter: the effects translate::walk drives, on the
/// real runtime. The walk reaches leaves in site order.
class RankInterpreter {
 public:
  /// One posted request: a receive and the buffer it writes, or a send and
  /// the buffer it reads.
  struct Posted {
    mpi::Request request;
    bool recv = false;
    int src = -1;  ///< receive: the sender, mpi::kAnySource when symbolic
    int line = 0;
    std::string buffer;
  };
  using Batch = std::vector<Posted>;

  /// One transfer on this rank after its decisions.
  struct Posting {
    const Node* op = nullptr;
    std::optional<int> src;   ///< receive from (mpi::kAnySource: symbolic)
    std::optional<int> dest;  ///< send to
  };

  RankInterpreter(const Program& program, Session& session, int rank,
                  int nprocs)
      : program_(program), session_(session), rank_(rank), nprocs_(nprocs) {}

  // The explorer checks no regions or gaps.
  void region(const auto&, const auto&, const auto*, auto) {}
  void between(const auto&, const auto&, const Batch&) {}

  /// The decisions in order: receive guard, sender, send guard, receiver.
  std::optional<Posting> prepare(const translate::DirectiveNode&,
                                 const core::ParsedDirective&) {
    const Node& op = program_.leaves[next_site_++];
    if (op.skipped) return std::nullopt;
    Posting posting;
    posting.op = &op;
    if (holds(op.receivewhen, op)) {
      posting.src = op.sender.symbolic ? std::optional<int>(mpi::kAnySource)
                                       : peer(op.sender);
      if (!posting.src) skipped(op, "receive", "sender");
    }
    if (holds(op.sendwhen, op)) {
      posting.dest = op.receiver.symbolic
                         ? std::optional<int>(session_.decide(
                               DecisionKind::Value, rank_, op.site, nprocs_))
                         : peer(op.receiver);
      if (!posting.dest) skipped(op, "send", "receiver");
    }
    return posting;
  }

  /// A receive into a buffer still being received into is CID-E105.
  bool touches(const Batch& batch, const Posting& posting) {
    const Node& op = *posting.op;
    bool touched = false;
    for (const Posted& pending : batch) {
      if (pending.recv && posting.src && pending.buffer == op.rbuf) {
        session_.note_rbuf_reuse(rank_, pending.line, op.line, op.rbuf);
        return true;
      }
      touched = touched || touches_buffer(op, posting.src.has_value(),
                                          posting.dest.has_value(),
                                          pending.buffer, pending.recv);
    }
    return touched;
  }

  /// Receive side first (the executor posts irecv before isend). Payloads
  /// carry {site, sender}; what a receive gets is never read, so every
  /// receive lands in one sink.
  void post(const Posting& posting, Batch& open) {
    const Node& op = *posting.op;
    if (posting.src) {
      open.push_back({mpi::irecv(world_, sink_.data(), 2, *posting.src,
                                 kP2PTag),
                      true, *posting.src, op.line, op.rbuf});
    }
    if (posting.dest) {
      const std::array<int, 2> payload{{op.site, rank_}};
      open.push_back({mpi::isend(world_, payload.data(), 2, *posting.dest,
                                 kP2PTag),
                      false, -1, op.line, op.sbuf});
    }
  }

  /// Consolidated sync: complete the batch's receives in post order, then
  /// finalize the (eagerly completed) sends.
  void land(Batch& batch) {
    for (Posted& posted : batch) {
      if (!posted.recv) continue;
      session_.set_wait(rank_, {posted.src == mpi::kAnySource
                                    ? WaitInfo::kWildRecv
                                    : WaitInfo::kExactRecv,
                                posted.src, posted.line});
      mpi::wait(posted.request);
    }
    session_.set_wait(rank_, {WaitInfo::kNone, -1, 0});
    for (Posted& posted : batch) {
      if (!posted.recv) mpi::wait(posted.request);
    }
    batch.clear();
  }

  void collective(const translate::DirectiveNode&,
                  const core::ParsedDirective&) {
    const Node& op = program_.leaves[next_site_++];
    if (op.skipped) return;
    int root = 0;
    if (op.root.symbolic) {
      // A collective's root must be agreed by every rank (MPI semantics):
      // one shared decision, not a per-rank branch.
      root = session_.decide_shared(rank_, op.site, nprocs_);
    } else if (op.root.present) {
      const auto value = peer(op.root);
      if (!value) {
        skipped(op, "collective", "root");
        return;
      }
      root = *value;
    }
    session_.set_wait(rank_, {WaitInfo::kCollective, -1, op.line});
    std::vector<int> send(nprocs_, rank_);
    std::vector<int> recv(nprocs_, 0);
    switch (op.pattern) {
      case core::Pattern::OneToMany:
        mpi::bcast(world_, send.data(), 1, root);
        break;
      case core::Pattern::ManyToOne:
        mpi::gather(world_, send.data(), 1, recv.data(), root);
        break;
      case core::Pattern::AllToAll:
        mpi::alltoall(world_, send.data(), 1, recv.data());
        break;
    }
    session_.set_wait(rank_, {WaitInfo::kNone, -1, 0});
  }

 private:
  std::optional<core::ExprValue> value_of(const ClauseExpr& clause) const {
    core::Env env;
    env.bind("rank", rank_);
    env.bind("nprocs", nprocs_);
    auto value = clause.expr.eval(env);
    if (!value.is_ok()) return std::nullopt;
    return value.value();
  }

  /// Guard evaluation: absent means true; symbolic branches the execution;
  /// a failed evaluation (division by zero) is modeled as false with a note.
  bool holds(const ClauseExpr& guard, const Node& op) {
    if (!guard.present) return true;
    if (guard.symbolic) {
      return session_.decide(DecisionKind::Guard, rank_, op.site, 2) == 1;
    }
    const auto value = value_of(guard);
    if (!value) {
      session_.note("line " + std::to_string(op.line) +
                    ": guard fails to evaluate on rank " +
                    std::to_string(rank_) + "; treated as false");
      return false;
    }
    return *value != 0;
  }

  /// A rank-valued clause on this rank; nullopt when it does not evaluate
  /// to a rank.
  std::optional<int> peer(const ClauseExpr& clause) const {
    const auto value = value_of(clause);
    if (!value || *value < 0 || *value >= nprocs_) return std::nullopt;
    return static_cast<int>(*value);
  }

  void skipped(const Node& op, const char* what, const char* clause) {
    session_.note("line " + std::to_string(op.line) + ": " + what +
                  " skipped on rank " + std::to_string(rank_) + " (" +
                  clause + " unevaluable or out of range)");
  }

  const Program& program_;
  std::size_t next_site_ = 0;
  Session& session_;
  int rank_;
  int nprocs_;
  mpi::Comm world_ = mpi::Comm::world();
  std::array<int, 2> sink_{};
};

/// Run one execution under `session`. Returns why it failed; empty when it
/// completed, deadlocked or was truncated.
std::string run_one(const Program& program, const Options& options,
                    Session& session) {
  rt::RunOptions run_options;
  // Determinism is load-bearing: the explicit sim transport (never
  // CID_BACKEND) and a single pooled worker make every execution a pure
  // function of (program, schedule).
  run_options.transport = net::make_transport(net::Backend::Sim);
  run_options.sim_workers = 1;
  run_options.world_setup = [&](rt::World& world) { session.install(world); };
  run_options.idle_hook = [&] { return session.on_idle(); };
  try {
    rt::run(options.nprocs, simnet::MachineModel::cray_xk7_gemini(),
            [&](rt::RankCtx& ctx) {
              RankInterpreter rank(program, session, ctx.rank(), ctx.nranks());
              translate::walk(program.roots, rank);
              session.rank_done(ctx.rank());
            },
            run_options);
  } catch (const CidError& error) {
    if (!session.deadlocked() && !session.truncated()) return error.what();
  }
  return {};
}

std::vector<int> chosen_prefix(const std::vector<ChoicePoint>& choices,
                               std::size_t length) {
  std::vector<int> prefix;
  prefix.reserve(length);
  for (std::size_t i = 0; i < length && i < choices.size(); ++i) {
    prefix.push_back(choices[i].chosen);
  }
  return prefix;
}

std::string wait_description(const WaitInfo& wait, int rank) {
  switch (wait.kind) {
    case WaitInfo::kExactRecv:
      return "rank " + std::to_string(rank) + " waits for a receive from " +
             "rank " + std::to_string(wait.peer) + " (line " +
             std::to_string(wait.line) + ")";
    case WaitInfo::kWildRecv:
      return "rank " + std::to_string(rank) +
             " waits on a wildcard receive with no candidate message (line " +
             std::to_string(wait.line) + ")";
    case WaitInfo::kCollective:
      return "rank " + std::to_string(rank) +
             " is blocked inside a collective (line " +
             std::to_string(wait.line) + ")";
    case WaitInfo::kNone:
      return "rank " + std::to_string(rank) + " is blocked in the runtime";
    case WaitInfo::kDone:
      return "rank " + std::to_string(rank) + " finished";
  }
  return {};
}

/// Collects diagnostics across executions, deduplicating by content key so
/// the same finding reached along many schedules reports once (with the
/// first witness).
struct Harvest {
  const Program* program;
  const Options* options;
  analyze::Report report;
  std::vector<Witness> witnesses;
  std::set<std::string> seen;
  std::set<std::string> notes;

  std::string replay_hint(const std::vector<int>& schedule) const {
    return "replay: cidt explore --nprocs " + std::to_string(options->nprocs) +
           (options->dpor ? "" : " --naive") + " --schedule " +
           format_schedule(schedule) + " --max-executions 1 <file>";
  }

  void add(const std::string& key, const std::string& id,
           analyze::Severity severity, int line, const std::string& message,
           const std::vector<int>& schedule) {
    if (!seen.insert(key).second) return;
    report.add(id, severity, line, 0,
               message + " [witness schedule " + format_schedule(schedule) +
                   "]",
               replay_hint(schedule));
    witnesses.push_back({id, line, schedule});
  }

  void harvest(const Session& run, const std::string& error) {
    for (const std::string& note : run.notes()) notes.insert(note);
    const std::vector<int> full =
        chosen_prefix(run.choices(), run.choices().size());
    if (run.deadlocked()) {
      std::string signature;
      std::string description;
      int line = 0;
      int blocked = 0;
      for (std::size_t r = 0; r < run.wait_snapshot().size(); ++r) {
        const WaitInfo& wait = run.wait_snapshot()[r];
        signature += std::to_string(static_cast<int>(wait.kind)) + ":" +
                     std::to_string(wait.peer) + ":" +
                     std::to_string(wait.line) + ";";
        if (wait.kind == WaitInfo::kDone) continue;
        ++blocked;
        if (!description.empty()) description += "; ";
        description += wait_description(wait, static_cast<int>(r));
        if (line == 0 && wait.line > 0) line = wait.line;
      }
      const std::string id = run.cyclic() ? "CID-E100" : "CID-E101";
      add(id + signature, id, analyze::Severity::Error, line,
          "schedule-space deadlock (" + std::to_string(blocked) + " of " +
              std::to_string(options->nprocs) + " ranks blocked" +
              (run.cyclic() ? ", cyclic wait" : ", no cycle: orphaned waits") +
              "): " + description,
          full);
    }
    // Wildcard races: every Wild decision whose candidate set (per receiving
    // rank) holds >= 2 messages is nondeterministic. Distinct send sites
    // feed the receive from different source lines — a value race (E102);
    // one site with several senders is a match-order race (E103).
    for (std::size_t i = 0; i < run.choices().size(); ++i) {
      const ChoicePoint& point = run.choices()[i];
      if (point.kind != DecisionKind::Wild) continue;
      std::map<int, std::vector<const Candidate*>> by_rank;
      for (const Candidate& candidate : point.candidates) {
        by_rank[candidate.recv_rank].push_back(&candidate);
      }
      for (const auto& [recv_rank, candidates] : by_rank) {
        if (candidates.size() < 2) continue;
        std::set<int> sites;
        std::set<int> srcs;
        bool all_concurrent = true;
        for (const Candidate* candidate : candidates) {
          if (candidate->site >= 0) sites.insert(candidate->site);
          srcs.insert(candidate->src);
        }
        for (std::size_t a = 0; a + 1 < candidates.size(); ++a) {
          for (std::size_t b = a + 1; b < candidates.size(); ++b) {
            const SendRecord& sa = run.sends()[candidates[a]->uid - 1];
            const SendRecord& sb = run.sends()[candidates[b]->uid - 1];
            if (!Session::concurrent(sa, sb)) all_concurrent = false;
          }
        }
        const int line = candidates.front()->recv_line;
        std::string origin;
        for (const Candidate* candidate : candidates) {
          if (!origin.empty()) origin += ", ";
          origin += "rank " + std::to_string(candidate->src);
          if (candidate->site >= 0) {
            origin += " (line " +
                      std::to_string(program->leaves[candidate->site].line) +
                      ")";
          }
        }
        const std::vector<int> witness = chosen_prefix(run.choices(), i + 1);
        std::string key_sites;
        for (int site : sites) key_sites += std::to_string(site) + ",";
        std::string key_srcs;
        for (int src : srcs) key_srcs += std::to_string(src) + ",";
        if (sites.size() > 1) {
          add("E102:" + std::to_string(recv_rank) + ":" +
                  std::to_string(line) + ":" + key_sites,
              "CID-E102", analyze::Severity::Error, line,
              "wildcard receive value race on rank " +
                  std::to_string(recv_rank) + ": " +
                  std::to_string(candidates.size()) +
                  " concurrent messages from different directives compete — " +
                  origin + "; the received value depends on the schedule" +
                  (all_concurrent ? "" : " (some sends are ordered)"),
              witness);
        } else {
          add("E103:" + std::to_string(recv_rank) + ":" +
                  std::to_string(line) + ":" + key_sites + key_srcs,
              "CID-E103", analyze::Severity::Warning, line,
              "wildcard match-order race on rank " +
                  std::to_string(recv_rank) + ": " +
                  std::to_string(candidates.size()) +
                  " concurrent sends from the same directive compete — " +
                  origin + "; completion order is schedule-dependent",
              witness);
        }
      }
    }
    if (!run.deadlocked() && !run.truncated() && error.empty()) {
      std::vector<const SendRecord*> stranded;
      for (const SendRecord& send : run.sends()) {
        if (send.site >= 0 && !send.extracted) stranded.push_back(&send);
      }
      if (!stranded.empty()) {
        std::string key = "E104:";
        std::string detail;
        for (std::size_t k = 0; k < stranded.size(); ++k) {
          key += std::to_string(stranded[k]->site) + ",";
          if (k >= 3) continue;
          if (!detail.empty()) detail += "; ";
          detail += "send at line " +
                    std::to_string(program->leaves[stranded[k]->site].line) +
                    " (rank " + std::to_string(stranded[k]->src) + " -> " +
                    std::to_string(stranded[k]->dest) + ")";
        }
        if (stranded.size() > 3) detail += "; ...";
        add(key, "CID-E104", analyze::Severity::Warning,
            program->leaves[stranded.front()->site].line,
            std::to_string(stranded.size()) +
                " message(s) left unreceived at exit: " + detail,
            full);
      }
    }
    for (const RbufReuse& reuse : run.rbuf_reuses()) {
      add("E105:" + std::to_string(reuse.line_first) + ":" +
              std::to_string(reuse.line_second) + ":" + reuse.buffer,
          "CID-E105", analyze::Severity::Warning, reuse.line_second,
          "receive at line " + std::to_string(reuse.line_second) +
              " posts into buffer '" + reuse.buffer +
              "' while the receive at line " +
              std::to_string(reuse.line_first) +
              " is still in flight (seen on rank " +
              std::to_string(reuse.rank) + ")",
          full);
    }
    if (!error.empty()) {
      notes.insert("internal: execution failed: " + error);
    }
  }
};

}  // namespace

std::string format_schedule(const std::vector<int>& schedule) {
  if (schedule.empty()) return "-";
  std::string out;
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(schedule[i]);
  }
  return out;
}

Result<std::vector<int>> parse_schedule(std::string_view text) {
  std::vector<int> out;
  if (text.empty() || text == "-") return out;
  std::size_t begin = 0;
  while (begin <= text.size()) {
    std::size_t end = text.find(',', begin);
    if (end == std::string_view::npos) end = text.size();
    const std::string token(text.substr(begin, end - begin));
    try {
      std::size_t used = 0;
      const int value = std::stoi(token, &used);
      if (used != token.size() || value < 0) throw std::invalid_argument("");
      out.push_back(value);
    } catch (...) {
      return Status(ErrorCode::ParseError,
                    "bad schedule entry '" + token +
                        "': expected a comma-separated list of choice "
                        "indices, e.g. 1,0,2");
    }
    begin = end + 1;
    if (end == text.size()) break;
  }
  return out;
}

Result<ExploreResult> explore_source(std::string_view source,
                                     const Options& options) {
  if (options.nprocs < 1) {
    return Status(ErrorCode::InvalidArgument, "--nprocs must be >= 1");
  }
  auto built = build_program(source);
  if (!built.is_ok()) return built.status();
  const Program program = std::move(built).take();

  ExploreResult result;
  result.nprocs = options.nprocs;
  result.dpor = options.dpor;
  result.symbolic_clauses = program.symbolic_clauses;

  Harvest harvest{&program, &options, {}, {}, {}, {}};
  for (const std::string& note : program.notes) harvest.notes.insert(note);

  // Stateless DFS over schedule prefixes. Each execution records its full
  // decision sequence; every untaken alternative at or beyond the prefix
  // becomes a new prefix to run. The seed prefix (Options::schedule) is
  // fixed — replay never re-expands below it.
  std::vector<std::vector<int>> worklist;
  worklist.push_back(options.schedule);
  const std::size_t seed_length = options.schedule.size();
  while (!worklist.empty() && result.executions < options.max_executions) {
    std::vector<int> prefix = std::move(worklist.back());
    worklist.pop_back();
    Session session(options.nprocs, options.dpor, prefix,
                    options.max_decisions);
    harvest.harvest(session, run_one(program, options, session));
    const std::vector<ChoicePoint>& choices = session.choices();
    ++result.executions;
    result.decisions += static_cast<long long>(choices.size());
    result.max_depth =
        std::max(result.max_depth, static_cast<int>(choices.size()));
    if (session.truncated()) {
      result.truncated = true;
      continue;
    }
    for (std::size_t i = std::max(prefix.size(), seed_length);
         i < choices.size(); ++i) {
      for (int alt = 1; alt < choices[i].num_options; ++alt) {
        std::vector<int> next = chosen_prefix(choices, i);
        next.push_back(alt);
        worklist.push_back(std::move(next));
      }
    }
  }
  if (!worklist.empty()) result.truncated = true;

  harvest.report.directives_checked =
      static_cast<int>(program.leaves.size());
  harvest.report.sort();
  result.report = std::move(harvest.report);
  result.witnesses = std::move(harvest.witnesses);
  result.notes.assign(harvest.notes.begin(), harvest.notes.end());
  return result;
}

std::string to_json(const std::string& path, const ExploreResult& result) {
  std::string out;
  using analyze::append_json_string;
  out += "{\"cidexplore\":1,\"file\":";
  append_json_string(out, path);
  out += ",\"nprocs\":" + std::to_string(result.nprocs);
  out += ",\"mode\":\"" + std::string(result.dpor ? "dpor" : "naive") + "\"";
  out += ",\"executions\":" + std::to_string(result.executions);
  out += ",\"decisions\":" + std::to_string(result.decisions);
  out += ",\"max_depth\":" + std::to_string(result.max_depth);
  out += ",\"truncated\":" + std::string(result.truncated ? "true" : "false");
  out += ",\"symbolic_clauses\":" + std::to_string(result.symbolic_clauses);
  out += ",\"diagnostics\":[";
  for (std::size_t i = 0; i < result.report.diagnostics.size(); ++i) {
    const analyze::Diagnostic& diagnostic = result.report.diagnostics[i];
    if (i > 0) out += ',';
    out += "{\"id\":";
    append_json_string(out, diagnostic.id);
    out += ",\"severity\":\"";
    out += diagnostic.severity == analyze::Severity::Error ? "error"
                                                           : "warning";
    out += "\",\"line\":" + std::to_string(diagnostic.line);
    out += ",\"message\":";
    append_json_string(out, diagnostic.message);
    out += ",\"hint\":";
    append_json_string(out, diagnostic.hint);
    out += '}';
  }
  out += "],\"witnesses\":[";
  for (std::size_t i = 0; i < result.witnesses.size(); ++i) {
    const Witness& witness = result.witnesses[i];
    if (i > 0) out += ',';
    out += "{\"id\":";
    append_json_string(out, witness.id);
    out += ",\"line\":" + std::to_string(witness.line);
    out += ",\"schedule\":[";
    for (std::size_t k = 0; k < witness.schedule.size(); ++k) {
      if (k > 0) out += ',';
      out += std::to_string(witness.schedule[k]);
    }
    out += "]}";
  }
  out += "],\"notes\":[";
  for (std::size_t i = 0; i < result.notes.size(); ++i) {
    if (i > 0) out += ',';
    append_json_string(out, result.notes[i]);
  }
  out += "],\"summary\":{\"errors\":" + std::to_string(result.report.errors());
  out += ",\"warnings\":" + std::to_string(result.report.warnings());
  out += "}}\n";
  return out;
}

}  // namespace cid::explore
