// The one synchronization-placement model (core/sync_plan.hpp) and its
// consumers. Every place_sync sequence of three sibling regions, every
// nesting of one region in another, collectives, transfers that reuse an
// earlier transfer's buffer and transfers nested in an overlap body are
// scripted once and run through the plan itself, the directive executor,
// the static analyzer and the schedule-space explorer's walk
// (translate::walk); each must land every transfer where the plan does, a
// collective landing the open batch and a reusing transfer the batches it
// touches. The source translator leaves placement to the executor: it must
// hand each region exactly its own place_sync.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analyze/analyze.hpp"
#include "core/core.hpp"
#include "core/sync_plan.hpp"
#include "explore/program.hpp"
#include "rt/runtime.hpp"
#include "translate/translator.hpp"
#include "translate/walk.hpp"

namespace {

using namespace cid::core;

// --- scripted programs -------------------------------------------------------

/// One step of a directive program: a region opens (with its own place_sync,
/// if any), a transfer posts (standalone outside every region, otherwise in
/// the innermost open region) and may open an overlap body, an overlap body
/// closes, a collective runs, a region closes, or host statements run
/// between two sibling directives (a gap). Transfer t sends s<t> from rank 0
/// into r<t> on rank 1, unless it reuses an earlier transfer u's buffer:
/// then it receives into r<u>, or it sends r<u> the other way, from rank 1
/// into s<u> on rank 0. Transfers are numbered in textual order.
struct Step {
  enum Kind { Begin, Post, Overlap, Done, Collective, End, Gap };
  Kind kind;
  int id;  ///< region (Begin/End), transfer (Post/Overlap), collective or
           ///< gap number
  std::optional<SyncPlacement> place_sync = std::nullopt;  ///< Begin only
  int reuses = -1;       ///< Post: the transfer whose buffer it reuses
  bool reverse = false;  ///< Post: sends r<reuses> from rank 1
};
using Program = std::vector<Step>;

Step begin(int region, std::optional<SyncPlacement> place_sync) {
  return {Step::Begin, region, place_sync};
}
Step post(int transfer) { return {Step::Post, transfer}; }
Step reuse(int transfer, int of, bool reverse) {
  return {Step::Post, transfer, std::nullopt, of, reverse};
}
Step overlap(int transfer) { return {Step::Overlap, transfer}; }
Step done() { return {Step::Done, 0}; }
Step collective(int id) { return {Step::Collective, id}; }
Step end(int region) { return {Step::End, region}; }
Step gap(int id) { return {Step::Gap, id}; }

constexpr SyncPlacement kPlacements[] = {SyncPlacement::EndParamRegion,
                                         SyncPlacement::BeginNextParamRegion,
                                         SyncPlacement::EndAdjParamRegions};

/// R1, R2, R3 in a row, each posting one transfer, with a gap after each.
Program siblings(SyncPlacement p1, SyncPlacement p2, SyncPlacement p3) {
  return {begin(1, p1), post(0), end(1), gap(0),
          begin(2, p2), post(1), end(2), gap(1),
          begin(3, p3), post(2), end(3), gap(2)};
}

/// R2 nested in R1 between two of R1's transfers, then a plain R3.
Program nested(SyncPlacement outer, std::optional<SyncPlacement> inner) {
  return {begin(1, outer), post(0),
          begin(2, inner), post(1), end(2), gap(0),
          post(2),         end(1),  gap(1),
          begin(3, std::nullopt), post(3), end(3), gap(2)};
}

/// A collective lands R1's first transfer; R1's second and R2's transfer
/// meet R2's place_sync, then collectives in R1 and R3 run while what R2
/// and R1 deferred may still be in flight.
Program with_collectives(SyncPlacement outer, SyncPlacement inner) {
  return {begin(1, outer), post(0), collective(0), post(1),
          begin(2, inner), post(2), end(2), gap(0),
          collective(1),   end(1),  gap(1),
          begin(3, std::nullopt), collective(2), post(3), end(3), gap(2)};
}

/// t1 reuses t0's buffer in R1's open batch (`deferred` false), or t2
/// reuses it after R1's place_sync moved t0 past its region.
Program reusing(SyncPlacement p1, bool deferred, bool reverse) {
  if (deferred) {
    return {begin(1, p1), post(0), post(1), end(1), gap(0),
            begin(2, std::nullopt), reuse(2, 0, reverse), end(2), gap(1)};
  }
  return {begin(1, p1), post(0), reuse(1, 0, reverse), end(1), gap(0),
          begin(2, std::nullopt), post(2), end(2), gap(1)};
}

/// t1 reuses t0's buffer inside t0's overlap body, both standalone.
Program reusing_in_overlap(bool reverse) {
  return {overlap(0), reuse(1, 0, reverse), done(), gap(0),
          begin(1, std::nullopt), post(2), end(1), gap(1)};
}

/// t1 in a standalone t0's overlap body, then t3 in the overlap body of t2
/// in R1, whose sync R2 lands if R1 defers it.
Program nested_in_overlap(SyncPlacement p1) {
  return {overlap(0), post(1), done(), gap(0),
          begin(1, p1), overlap(2), post(3), done(), end(1), gap(1),
          begin(2, std::nullopt), end(2), gap(2)};
}

std::string describe(const Program& program) {
  std::ostringstream out;
  for (const Step& step : program) {
    switch (step.kind) {
      case Step::Begin:
        out << "R" << step.id << "("
            << (step.place_sync ? sync_placement_keyword(*step.place_sync)
                                : "-")
            << "){";
        break;
      case Step::Post:
      case Step::Overlap:
        out << "t" << step.id;
        if (step.reuses >= 0) {
          out << (step.reverse ? "(sends r" : "(into r") << step.reuses << ")";
        }
        out << (step.kind == Step::Overlap ? "{" : " ");
        break;
      case Step::Done: out << "} "; break;
      case Step::Collective: out << "c" << step.id << " "; break;
      case Step::End: out << "} "; break;
      case Step::Gap: out << "gap" << step.id << " "; break;
    }
  }
  return out.str();
}

/// Where synchronization landed: "begin R<n>", "end R<n>", "collective C<n>",
/// "post t<n>" (before t<n> posts), "after t<n>" (a standalone transfer's own
/// landing) or "flush", with the transfers (bit t = transfer t) and the
/// number of batches landed there.
struct Landing {
  std::string where;
  unsigned transfers = 0;
  int batches = 0;
  bool operator==(const Landing&) const = default;
};

std::ostream& operator<<(std::ostream& out, const Landing& landing) {
  return out << landing.where << ":" << landing.transfers << "/"
             << landing.batches;
}

void record(std::vector<Landing>& log, const std::string& where,
            unsigned transfers, int batches) {
  if (!log.empty() && log.back().where == where) {
    log.back().transfers |= transfers;
    log.back().batches += batches;
  } else {
    log.push_back({where, transfers, batches});
  }
}

// --- the plan ----------------------------------------------------------------

struct TransferSet {
  unsigned bits = 0;
  bool empty() const noexcept { return bits == 0; }
  void merge_from(TransferSet&& other) {
    bits |= other.bits;
    other.bits = 0;
  }
};

struct Expected {
  std::vector<Landing> landings;
  /// Transfers whose receive buffer a later transfer touched while in
  /// flight, landing it (CID-B020).
  unsigned reused = 0;
  std::map<int, unsigned> deferred_at_gap;  ///< transfers deferred past it
  /// Transfers still in flight right after each collective.
  std::map<int, unsigned> in_flight_after_collective;
  /// Posts ("post t<n>"), collectives ("collective") and landed batches
  /// ("land <transfers>"), in order.
  std::vector<std::string> events;
};

/// The plan on `rank`. Rank 1 holds the receive buffers r<t> (rank 0 those
/// of reversed transfers), rank 0 the send buffers s<t>, so a reusing
/// transfer touches t<u> on rank 1, and a reversed one on rank 0 as well.
Expected plan_of(const Program& program, int rank = 1) {
  SyncPlan<TransferSet> plan;
  Expected out;
  std::map<int, SyncPlacement> own;
  std::string where;
  int regions = 0;
  int transfers = 0;
  std::vector<int> bodies;
  const auto land = [&](TransferSet& batch) {
    record(out.landings, where, batch.bits, 1);
    out.events.push_back("land " + std::to_string(batch.bits));
    batch.bits = 0;
  };
  const auto land_standalone = [&](int transfer) {
    where = "after t" + std::to_string(transfer);
    if (regions == 0 && !plan.open().empty()) land(plan.open());
  };
  for (const Step& step : program) {
    switch (step.kind) {
      case Step::Begin:
        own[step.id] = step.place_sync.value_or(SyncPlacement::EndParamRegion);
        where = "begin R" + std::to_string(step.id);
        plan.begin_region(land);
        ++regions;
        break;
      case Step::Post:
      case Step::Overlap:
        EXPECT_EQ(step.id, transfers++) << "transfers in textual order";
        where = "post t" + std::to_string(step.id);
        if (step.reuses >= 0 && (rank == 1 || step.reverse)) {
          plan.land_touching(
              [&](const TransferSet& batch) {
                const bool touched = (batch.bits >> step.reuses) & 1u;
                if (touched) out.reused |= 1u << step.reuses;
                return touched;
              },
              land);
        }
        out.events.push_back("post t" + std::to_string(step.id));
        plan.open().bits |= 1u << step.id;
        if (step.kind == Step::Overlap) {
          bodies.push_back(step.id);
        } else {
          land_standalone(step.id);
        }
        break;
      case Step::Done:
        land_standalone(bodies.back());
        bodies.pop_back();
        break;
      case Step::Collective: {
        // A collective synchronizes the open batch, not a deferred one.
        where = "collective C" + std::to_string(step.id);
        if (!plan.open().empty()) land(plan.open());
        out.events.push_back("collective");
        unsigned in_flight = 0;
        plan.for_each_in_flight(
            [&](const TransferSet& batch) { in_flight |= batch.bits; });
        out.in_flight_after_collective[step.id] = in_flight;
        break;
      }
      case Step::End:
        where = "end R" + std::to_string(step.id);
        plan.end_region(own[step.id], land);
        --regions;
        break;
      case Step::Gap: {
        unsigned deferred = 0;
        plan.for_each_deferred(
            [&](const TransferSet& batch) { deferred |= batch.bits; });
        out.deferred_at_gap[step.id] = deferred;
        break;
      }
    }
  }
  where = "flush";
  plan.flush_all(land);
  return out;
}

// --- the executor ------------------------------------------------------------

/// Runs a program through the embedded API on two ranks. Transfer t is one
/// p2p directive with 2^t one-element buffer pairs, so the requests a
/// landing retires spell out which transfers it completed. A reusing
/// transfer reuses the buffer in its first pair.
class ExecutorRun {
 public:
  explicit ExecutorRun(const Program& program) : program_(program) {}

  std::vector<Landing> run() {
    next_ = 0;
    log_.clear();
    run_steps();
    const Snapshot before = snapshot();
    comm_flush();
    note("flush", before);
    return log_;
  }

 private:
  struct Snapshot {
    std::uint64_t retired = 0;
    std::uint64_t waitalls = 0;
  };

  static Snapshot snapshot() {
    return {comm_stats().requests_retired, comm_stats().waitalls};
  }

  void note(const std::string& where, const Snapshot& before) {
    const Snapshot now = snapshot();
    if (now.retired == before.retired) return;
    record(log_, where, static_cast<unsigned>(now.retired - before.retired),
           static_cast<int>(now.waitalls - before.waitalls));
  }

  /// Runs steps up to the End or Done that closes the current scope.
  void run_steps() {
    while (next_ < program_.size()) {
      const Step& step = program_[next_++];
      switch (step.kind) {
        case Step::Begin: run_region(step); break;
        case Step::Post:
        case Step::Overlap: run_transfer(step); break;
        case Step::Collective: run_collective(step); break;
        case Step::End:
        case Step::Done: return;
        case Step::Gap: break;
      }
    }
  }

  void run_collective(const Step& step) {
    const Snapshot before = snapshot();
    comm_collective(Clauses()
                        .pattern(Pattern::OneToMany)
                        .root(0)
                        .count(1)
                        .sbuf(buf(&coll_send_))
                        .rbuf(buf(&coll_recv_)));
    note("collective C" + std::to_string(step.id), before);
  }

  void run_transfer(const Step& step) {
    const int from = step.reverse ? 1 : 0;
    Clauses clauses = Clauses()
                          .sender(from)
                          .receiver(1 - from)
                          .sendwhen("rank==" + std::to_string(from))
                          .receivewhen("rank==" + std::to_string(1 - from))
                          .count(1);
    for (int i = 0; i < (1 << step.id); ++i) {
      double* sbuf = &send_[step.id][i];
      double* rbuf = &recv_[step.id][i];
      if (i == 0 && step.reuses >= 0) {
        sbuf = step.reverse ? &recv_[step.reuses][0] : sbuf;
        rbuf = step.reverse ? &send_[step.reuses][0] : &recv_[step.reuses][0];
      }
      clauses.sbuf(buf(sbuf)).rbuf(buf(rbuf));
    }
    const std::string name = "t" + std::to_string(step.id);
    const Snapshot before = snapshot();
    Snapshot body_end;
    comm_p2p(clauses, [&] {
      note("post " + name, before);
      if (step.kind == Step::Overlap) run_steps();
      body_end = snapshot();
    });
    note("after " + name, body_end);
  }

  void run_region(const Step& opening) {
    Clauses clauses = Clauses()
                          .sender(0)
                          .receiver(1)
                          .sendwhen("rank==0")
                          .receivewhen("rank==1")
                          .count(1);
    if (opening.place_sync) clauses.place_sync(*opening.place_sync);
    const std::string name = "R" + std::to_string(opening.id);
    const Snapshot before = snapshot();
    Snapshot body_end;
    comm_parameters(clauses, [&](Region&) {
      note("begin " + name, before);
      run_steps();
      body_end = snapshot();
    });
    note("end " + name, body_end);
  }

  const Program& program_;
  std::size_t next_ = 0;
  std::vector<Landing> log_;
  double send_[4][8] = {};
  double recv_[4][8] = {};
  double coll_send_ = 0.0;
  double coll_recv_ = 0.0;
};

std::vector<std::vector<Landing>> run_executor(const Program& program) {
  std::vector<std::vector<Landing>> per_rank(2);
  cid::rt::run(2, cid::simnet::MachineModel::zero(),
               [&](cid::rt::RankCtx& ctx) {
                 per_rank[ctx.rank()] = ExecutorRun(program).run();
               });
  return per_rank;
}

// --- the translator, the analyzer and the explorer ----------------------------

/// Variations of a program's directive source.
struct Probes {
  /// This gap writes every buffer a receive may write.
  int touched_gap = -1;
  /// A standalone directive after the program, so its last gap lies between
  /// two siblings (where the analyzer checks gaps).
  bool trailing_sibling = false;
  /// After this collective, one receive into probed_transfer's buffer, and
  /// the program ends there (so only the probe can reuse a buffer).
  int probed_collective = -1;
  int probed_transfer = -1;
};

/// The receive a probe posts into transfer t's buffer.
std::string probe_receive(int transfer) {
  return "#pragma comm_p2p sender(0) receiver(1) sendwhen(rank==0) "
         "receivewhen(rank==1) count(1) sbuf(s9) rbuf(r" +
         std::to_string(transfer) + ")\n{ }\n";
}

/// Directive source for a program. A marker before each region's pragma
/// tells the translated regions apart.
std::string source_of(const Program& program, const Probes& probes) {
  std::string out = "double s0[8], s1[8], s2[8], s3[8], s9[8];\n"
                    "double r0[8], r1[8], r2[8], r3[8], r9[8];\n"
                    "void program() {\n";
  int depth = 0;  ///< open braces
  int regions = 0;
  for (const Step& step : program) {
    const std::string id = std::to_string(step.id);
    switch (step.kind) {
      case Step::Begin:
        out += "mark_open(" + id + ");\n"
               "#pragma comm_parameters sender(0) receiver(1) "
               "sendwhen(rank==0) receivewhen(rank==1) count(1)";
        if (step.place_sync) {
          out += " place_sync(" +
                 std::string(sync_placement_keyword(*step.place_sync)) + ")";
        }
        out += "\n{\n";
        ++depth;
        ++regions;
        break;
      case Step::Post:
      case Step::Overlap: {
        out += "#pragma comm_p2p ";
        if (step.reverse) {
          out += "sender(1) receiver(0) sendwhen(rank==1) receivewhen(rank==0) "
                 "count(1) ";
        } else if (regions == 0) {
          out += "sender(0) receiver(1) sendwhen(rank==0) receivewhen(rank==1) "
                 "count(1) ";
        }
        const std::string reused = std::to_string(step.reuses);
        out += step.reuses < 0 ? "sbuf(s" + id + ") rbuf(r" + id + ")"
               : step.reverse  ? "sbuf(r" + reused + ") rbuf(s" + reused + ")"
                               : "sbuf(s" + id + ") rbuf(r" + reused + ")";
        if (step.kind == Step::Overlap) {
          out += "\n{\n";
          ++depth;
        } else {
          out += "\n{ }\n";
        }
        break;
      }
      case Step::Done:
        out += "}\n";
        --depth;
        break;
      case Step::Collective:
        out += "#pragma comm_collective pattern(PATTERN_ONE_TO_MANY) root(0) "
               "count(1) sbuf(s9) rbuf(r9)\n{ }\n";
        if (step.id == probes.probed_collective) {
          out += probe_receive(probes.probed_transfer);
          for (; depth > 0; --depth) out += "}\n";
          return out + "}\n";
        }
        break;
      case Step::End:
        out += "}\n";
        --depth;
        --regions;
        break;
      case Step::Gap:
        if (step.id == probes.touched_gap) {
          out += "r0[0] = r1[0] = r2[0] = r3[0] = 0.0;\n"
                 "s0[0] = s1[0] = s2[0] = s3[0] = 0.0;\n";
        }
        break;
    }
  }
  if (probes.trailing_sibling) out += probe_receive(9);
  return out + "}\n";
}

int number_after(const std::string& line, const std::string& prefix) {
  return std::stoi(line.substr(line.find(prefix) + prefix.size()));
}

/// The place_sync each translated region carries, by region: the
/// SyncPlacement enumerator it names, "-" for none, "twice" for more.
std::map<int, std::string> run_translator(const Program& program) {
  auto result = cid::translate::translate_source(source_of(program, {}));
  EXPECT_TRUE(result.is_ok()) << result.status().to_string();
  if (!result.is_ok()) return {};
  const std::string& out = result.value().source;
  const std::string call = ".place_sync(::cid::core::SyncPlacement::";
  std::map<int, std::string> carried;
  for (std::size_t mark = out.find("mark_open("); mark != std::string::npos;
       mark = out.find("mark_open(", mark + 1)) {
    const std::size_t begin = out.find("::cid::core::comm_parameters(", mark);
    const std::string chain = out.substr(
        begin, out.find("[&](::cid::core::Region&)", begin) - begin);
    std::string& own = carried[number_after(out.substr(mark), "mark_open(")];
    own = "-";
    for (std::size_t at = chain.find(call); at != std::string::npos;
         at = chain.find(call, at + 1)) {
      const std::size_t name = at + call.size();
      own = own == "-" ? chain.substr(name, chain.find(')', name) - name)
                       : "twice";
    }
  }
  return carried;
}

/// The place_sync each region of `program` writes itself, spelled as
/// run_translator reports it.
std::map<int, std::string> own_place_syncs(const Program& program) {
  std::map<int, std::string> own;
  for (const Step& step : program) {
    if (step.kind != Step::Begin) continue;
    own[step.id] = !step.place_sync ? "-"
                   : *step.place_sync == SyncPlacement::EndParamRegion
                       ? "EndParamRegion"
                   : *step.place_sync == SyncPlacement::BeginNextParamRegion
                       ? "BeginNextParamRegion"
                       : "EndAdjParamRegions";
  }
  return own;
}

/// The transfer whose pragma is on `line` of `source`: transfers are the
/// program's comm_p2p pragmas in textual order.
int transfer_at_line(const std::string& source, int line) {
  std::istringstream in(source);
  std::string text;
  int transfer = 0;
  for (int at = 1; std::getline(in, text) && at < line; ++at) {
    if (text.starts_with("#pragma comm_p2p")) ++transfer;
  }
  return transfer;
}

/// The analyzer's view of one gap: the transfers whose receive it reports
/// as still waiting for a deferred synchronization (CID-B023).
unsigned run_analyzer(const Program& program, int gap_id) {
  const std::string source =
      source_of(program, {.touched_gap = gap_id, .trailing_sibling = true});
  const auto report = cid::analyze::analyze_source(source);
  unsigned deferred = 0;
  for (const auto& diagnostic : report.diagnostics) {
    if (diagnostic.id != "CID-B023") continue;
    deferred |= 1u << transfer_at_line(
                    source, number_after(diagnostic.message, "posted at line "));
  }
  return deferred;
}

/// The analyzer's view right after a collective: the transfers whose
/// receive buffer a probe, one per analysis, reports as still in flight
/// (CID-B020).
unsigned run_analyzer_at_collective(const Program& program, int id) {
  unsigned in_flight = 0;
  for (int t = 0; t < 4; ++t) {
    const auto report = cid::analyze::analyze_source(source_of(
        program, {.probed_collective = id, .probed_transfer = t}));
    for (const auto& diagnostic : report.diagnostics) {
      if (diagnostic.id == "CID-B020") in_flight |= 1u << t;
    }
  }
  return in_flight;
}

/// The analyzer's view of buffer reuse: the transfers whose receive buffer
/// a later transfer is reported to touch while in flight (CID-B020).
unsigned run_analyzer_for_reuse(const Program& program) {
  const auto report = cid::analyze::analyze_source(source_of(program, {}));
  unsigned reused = 0;
  for (const auto& diagnostic : report.diagnostics) {
    if (diagnostic.id != "CID-B020") continue;
    reused |= 1u << number_after(diagnostic.message, "buf(r");
  }
  return reused;
}

/// The explorer's side of translate::walk on one rank: the program's decoded
/// leaves (explore::build_program), its buffer rule (explore::touches_buffer)
/// and batches that record what they land.
class ExplorerRun {
 public:
  struct Batch {
    unsigned bits = 0;
    std::vector<std::pair<std::string, bool>> held;  ///< buffer, written
    bool empty() const noexcept { return bits == 0; }
    void merge_from(Batch&& other) {
      bits |= std::exchange(other.bits, 0);
      held.insert(held.end(), other.held.begin(), other.held.end());
      other.held.clear();
    }
  };
  struct Posting {
    int transfer;
    const cid::explore::Node* op;
    bool receives, sends;
  };

  ExplorerRun(const cid::explore::Program& program, int rank)
      : program_(program), rank_(rank) {}

  void region(const cid::translate::DirectiveNode&,
              const cid::core::ParsedDirective&,
              const cid::core::ParsedDirective*,
              std::span<const cid::translate::DirectiveNode>) {}
  void between(const cid::translate::DirectiveNode&,
               const cid::translate::DirectiveNode&, const Batch&) {}
  std::optional<Posting> prepare(const cid::translate::DirectiveNode&,
                                 const cid::core::ParsedDirective&) {
    const cid::explore::Node& op = program_.leaves[next_site_++];
    return Posting{next_transfer_++, &op, holds(op.receivewhen),
                   holds(op.sendwhen)};
  }
  bool touches(const Batch& batch, const Posting& posting) {
    for (const auto& [buffer, written] : batch.held) {
      if (cid::explore::touches_buffer(*posting.op, posting.receives,
                                       posting.sends, buffer, written)) {
        return true;
      }
    }
    return false;
  }
  void post(const Posting& posting, Batch& open) {
    events.push_back("post t" + std::to_string(posting.transfer));
    open.bits |= 1u << posting.transfer;
    if (posting.receives) open.held.emplace_back(posting.op->rbuf, true);
    if (posting.sends) open.held.emplace_back(posting.op->sbuf, false);
  }
  void land(Batch& batch) {
    events.push_back("land " + std::to_string(batch.bits));
    batch = {};
  }
  void collective(const cid::translate::DirectiveNode&,
                  const cid::core::ParsedDirective&) {
    ++next_site_;
    events.push_back("collective");
  }

  std::vector<std::string> events;

 private:
  bool holds(const cid::translate::ClauseExpr& guard) const {
    cid::core::Env env;
    env.bind("rank", rank_);
    env.bind("nprocs", 2);
    return guard.expr.eval(env).value() != 0;
  }

  const cid::explore::Program& program_;
  int rank_;
  std::size_t next_site_ = 0;
  int next_transfer_ = 0;
};

std::vector<std::string> run_explorer(const Program& program, int rank) {
  auto built = cid::explore::build_program(source_of(program, {}));
  EXPECT_TRUE(built.is_ok()) << built.status().to_string();
  if (!built.is_ok()) return {};
  EXPECT_TRUE(built.value().notes.empty());
  ExplorerRun run(built.value(), rank);
  cid::translate::walk(built.value().roots, run);
  return run.events;
}

void expect_consumers_agree(const Program& program) {
  SCOPED_TRACE(describe(program));
  // One plan stands for every rank in the analyzer: where some rank
  // provably lands, which is the receiving rank.
  const Expected expected = plan_of(program, 1);

  const auto per_rank = run_executor(program);
  for (int rank = 0; rank < 2; ++rank) {
    EXPECT_EQ(per_rank[rank], plan_of(program, rank).landings)
        << "executor, rank " << rank;
  }

  EXPECT_EQ(run_translator(program), own_place_syncs(program))
      << "translator";

  for (const auto& [gap_id, deferred] : expected.deferred_at_gap) {
    EXPECT_EQ(run_analyzer(program, gap_id), deferred)
        << "analyzer, gap " << gap_id;
  }
  for (const auto& [id, in_flight] : expected.in_flight_after_collective) {
    EXPECT_EQ(run_analyzer_at_collective(program, id), in_flight)
        << "analyzer, collective " << id;
  }

  EXPECT_EQ(run_analyzer_for_reuse(program), expected.reused)
      << "analyzer, reuse";

  for (int rank = 0; rank < 2; ++rank) {
    EXPECT_EQ(run_explorer(program, rank), plan_of(program, rank).events)
        << "explorer, rank " << rank;
  }
}

// --- the rules ---------------------------------------------------------------

// The rules themselves, on the two sequences where earlier copies of them
// disagreed: mixed deferrals, and a region nested in a deferring region.
TEST(SyncPlan, EachDeferredBatchLandsAtItsOwnPoint) {
  const Expected plan = plan_of(
      {begin(1, SyncPlacement::EndAdjParamRegions), post(0), end(1), gap(0),
       begin(2, SyncPlacement::BeginNextParamRegion), post(1), end(2), gap(1),
       begin(3, std::nullopt), post(2), end(3)});
  const std::vector<Landing> expected = {{"begin R3", 0b010, 1},
                                         {"end R3", 0b101, 2}};
  EXPECT_EQ(plan.landings, expected);
  EXPECT_EQ(plan.deferred_at_gap.at(0), 0b001u);
  EXPECT_EQ(plan.deferred_at_gap.at(1), 0b011u);
}

TEST(SyncPlan, NestedRegionLandsOpenTransfersUnderItsOwnClause) {
  const Expected plan = plan_of(nested(SyncPlacement::BeginNextParamRegion,
                                       std::nullopt));
  const std::vector<Landing> expected = {{"end R2", 0b0011, 1},
                                         {"begin R3", 0b0100, 1},
                                         {"end R3", 0b1000, 1}};
  EXPECT_EQ(plan.landings, expected);
}

TEST(SyncPlan, FlushLandsEveryBatch) {
  const Expected plan = plan_of(
      {begin(1, SyncPlacement::EndAdjParamRegions), post(0), end(1),
       begin(2, SyncPlacement::BeginNextParamRegion), post(1), end(2)});
  const std::vector<Landing> expected = {{"flush", 0b11, 2}};
  EXPECT_EQ(plan.landings, expected);
}

// --- the consumers -------------------------------------------------------------

TEST(SyncPlan, ThreeSiblingRegionsLandAlikeInEveryConsumer) {
  int sequences = 0;
  for (const SyncPlacement p1 : kPlacements) {
    for (const SyncPlacement p2 : kPlacements) {
      for (const SyncPlacement p3 : kPlacements) {
        expect_consumers_agree(siblings(p1, p2, p3));
        ++sequences;
      }
    }
  }
  EXPECT_EQ(sequences, 27);
}

TEST(SyncPlan, CollectiveLandsOnlyTheOpenBatch) {
  const Expected plan = plan_of(
      with_collectives(SyncPlacement::EndParamRegion,
                       SyncPlacement::EndAdjParamRegions));
  const std::vector<Landing> expected = {{"collective C0", 0b0001, 1},
                                         {"end R1", 0b0110, 1},
                                         {"end R3", 0b1000, 1}};
  EXPECT_EQ(plan.landings, expected);
  EXPECT_EQ(plan.in_flight_after_collective.at(0), 0u);
  EXPECT_EQ(plan.in_flight_after_collective.at(1), 0b0110u);
  EXPECT_EQ(plan.in_flight_after_collective.at(2), 0u);

  const Expected deferred = plan_of(
      with_collectives(SyncPlacement::EndAdjParamRegions,
                       SyncPlacement::EndAdjParamRegions));
  EXPECT_EQ(deferred.in_flight_after_collective.at(2), 0b0110u);
}

TEST(SyncPlan, NestedRegionsLandAlikeInEveryConsumer) {
  for (const SyncPlacement outer : kPlacements) {
    expect_consumers_agree(nested(outer, std::nullopt));  // nothing inherited
    for (const SyncPlacement inner : kPlacements) {
      expect_consumers_agree(nested(outer, inner));
    }
  }
}

TEST(SyncPlan, CollectivesLandAlikeInEveryConsumer) {
  for (const SyncPlacement outer : kPlacements) {
    for (const SyncPlacement inner : kPlacements) {
      expect_consumers_agree(with_collectives(outer, inner));
    }
  }
}

TEST(SyncPlan, ReuseLandsTheTouchedBatchBeforeThePost) {
  const Program program =
      reusing(SyncPlacement::EndAdjParamRegions, /*deferred=*/true, false);
  const std::vector<Landing> receiver = {{"post t2", 0b011, 1},
                                         {"end R2", 0b100, 1}};
  EXPECT_EQ(plan_of(program, 1).landings, receiver);
  EXPECT_EQ(plan_of(program, 1).reused, 0b1u);
  // The sending rank holds only s0 and s1, which t2 does not touch.
  const std::vector<Landing> sender = {{"end R2", 0b111, 2}};
  EXPECT_EQ(plan_of(program, 0).landings, sender);

  const Program reversed =
      reusing(SyncPlacement::EndAdjParamRegions, /*deferred=*/true, true);
  EXPECT_EQ(plan_of(reversed, 0).landings, receiver);
}

TEST(SyncPlan, OverlapBodiesPostIntoTheEnclosingBatch) {
  const std::vector<Landing> expected = {{"after t1", 0b0011, 1},
                                         {"end R1", 0b1100, 1}};
  EXPECT_EQ(plan_of(nested_in_overlap(SyncPlacement::EndParamRegion)).landings,
            expected);
}

TEST(SyncPlan, BufferReuseLandsAlikeInEveryConsumer) {
  int sequences = 0;
  for (const bool reverse : {false, true}) {
    for (const SyncPlacement p1 : kPlacements) {
      for (const bool deferred : {false, true}) {
        expect_consumers_agree(reusing(p1, deferred, reverse));
        ++sequences;
      }
    }
    expect_consumers_agree(reusing_in_overlap(reverse));
    ++sequences;
  }
  EXPECT_EQ(sequences, 14);
}

TEST(SyncPlan, OverlapBodiesLandAlikeInEveryConsumer) {
  for (const SyncPlacement p1 : kPlacements) {
    expect_consumers_agree(nested_in_overlap(p1));
  }
}

}  // namespace
