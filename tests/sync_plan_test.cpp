// The one synchronization-placement model (core/sync_plan.hpp) and its
// consumers. Every place_sync sequence of three sibling regions, and every
// nesting of one region in another, is scripted once and run through the
// plan itself, the directive executor, the static analyzer and the
// schedule-space explorer's walk; each must land every transfer where the
// plan does, a collective landing the open batch. The source translator
// leaves placement to the executor: it must hand each region exactly its
// own place_sync.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analyze/analyze.hpp"
#include "core/core.hpp"
#include "core/sync_plan.hpp"
#include "explore/program.hpp"
#include "rt/runtime.hpp"
#include "translate/translator.hpp"

namespace {

using namespace cid::core;

// --- scripted programs -------------------------------------------------------

/// One step of a directive program: a region opens (with its own place_sync,
/// if any), the innermost open region posts a transfer or runs a collective,
/// a region closes, or host statements run between two sibling directives
/// (a gap).
struct Step {
  enum Kind { Begin, Post, Collective, End, Gap };
  Kind kind;
  int id;  ///< region (Begin/End), transfer (Post), collective or gap number
  std::optional<SyncPlacement> place_sync = std::nullopt;  ///< Begin only
};
using Program = std::vector<Step>;

Step begin(int region, std::optional<SyncPlacement> place_sync) {
  return {Step::Begin, region, place_sync};
}
Step post(int transfer) { return {Step::Post, transfer}; }
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
      case Step::Post: out << "t" << step.id << " "; break;
      case Step::Collective: out << "c" << step.id << " "; break;
      case Step::End: out << "} "; break;
      case Step::Gap: out << "gap" << step.id << " "; break;
    }
  }
  return out.str();
}

/// Where synchronization landed: "begin R<n>", "end R<n>", "collective C<n>"
/// or "flush", with the transfers (bit t = transfer t) and the number of
/// batches landed there.
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
  std::map<int, unsigned> deferred_at_gap;  ///< transfers deferred past it
  /// Transfers still in flight right after each collective.
  std::map<int, unsigned> in_flight_after_collective;
  /// Posts ("post t<n>"), collectives ("collective") and landed batches
  /// ("land <transfers>"), in order.
  std::vector<std::string> events;
};

Expected plan_of(const Program& program) {
  SyncPlan<TransferSet> plan;
  Expected out;
  std::map<int, SyncPlacement> own;
  std::string where;
  const auto land = [&](TransferSet& batch) {
    record(out.landings, where, batch.bits, 1);
    out.events.push_back("land " + std::to_string(batch.bits));
    batch.bits = 0;
  };
  for (const Step& step : program) {
    switch (step.kind) {
      case Step::Begin:
        own[step.id] = step.place_sync.value_or(SyncPlacement::EndParamRegion);
        where = "begin R" + std::to_string(step.id);
        plan.begin_region(land);
        break;
      case Step::Post:
        out.events.push_back("post t" + std::to_string(step.id));
        plan.open().bits |= 1u << step.id;
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

/// Runs a program through the embedded API on two ranks. Transfer t is
/// 2^t one-element p2p directives (rank 0 to rank 1), so the requests a
/// landing retires spell out which transfers it completed.
class ExecutorRun {
 public:
  explicit ExecutorRun(const Program& program) : program_(program) {}

  std::vector<Landing> run() {
    next_ = 0;
    log_.clear();
    while (next_ < program_.size()) {
      const Step& step = program_[next_++];
      if (step.kind == Step::Begin) run_region(step);
    }
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
    comm_parameters(clauses, [&](Region& region) {
      note("begin " + name, before);
      for (;;) {
        const Step& step = program_[next_++];
        if (step.kind == Step::End) break;
        if (step.kind == Step::Begin) run_region(step);
        if (step.kind == Step::Collective) run_collective(step);
        if (step.kind == Step::Post) {
          for (int i = 0; i < (1 << step.id); ++i) {
            region.p2p(Clauses()
                           .sbuf(buf(&send_[step.id][i]))
                           .rbuf(buf(&recv_[step.id][i])));
          }
        }
      }
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
  /// This gap writes every receive buffer.
  int touched_gap = -1;
  /// A standalone directive after the program, so its last gap lies between
  /// two siblings (where the analyzer checks gaps).
  bool trailing_sibling = false;
  /// After this collective, one receive into each transfer's buffer, and
  /// the program ends there (so only the probes can reuse a buffer).
  int probed_collective = -1;
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
  int depth = 0;
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
        break;
      case Step::Post:
        out += "#pragma comm_p2p sbuf(s" + id + ") rbuf(r" + id + ")\n{ }\n";
        break;
      case Step::Collective:
        out += "#pragma comm_collective pattern(PATTERN_ONE_TO_MANY) root(0) "
               "count(1) sbuf(s9) rbuf(r9)\n{ }\n";
        if (step.id == probes.probed_collective) {
          for (int t = 0; t < 4; ++t) out += probe_receive(t);
          for (; depth > 0; --depth) out += "}\n";
          return out + "}\n";
        }
        break;
      case Step::End:
        out += "}\n";
        --depth;
        break;
      case Step::Gap:
        if (step.id == probes.touched_gap) {
          out += "r0[0] = r1[0] = r2[0] = r3[0] = 0.0;\n";
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

/// The analyzer's view of one gap: the transfers whose receive buffer it
/// reports as still waiting for a deferred synchronization (CID-B023).
unsigned run_analyzer(const Program& program, int gap_id) {
  const auto report = cid::analyze::analyze_source(source_of(
      program, {.touched_gap = gap_id, .trailing_sibling = true}));
  unsigned deferred = 0;
  for (const auto& diagnostic : report.diagnostics) {
    if (diagnostic.id != "CID-B023") continue;
    deferred |= 1u << number_after(diagnostic.message, "touches 'r");
  }
  return deferred;
}

/// The analyzer's view right after a collective: the transfers whose
/// receive buffer a probe reports as still in flight (CID-B020).
unsigned run_analyzer_at_collective(const Program& program, int id) {
  const auto report = cid::analyze::analyze_source(
      source_of(program, {.probed_collective = id}));
  unsigned in_flight = 0;
  for (const auto& diagnostic : report.diagnostics) {
    if (diagnostic.id != "CID-B020") continue;
    in_flight |= 1u << number_after(diagnostic.message, "rbuf(r");
  }
  return in_flight;
}

/// The explorer's walk (explore::walk, the one interpret_rank runs) over
/// the program's directive tree, with batches that record what they land.
class ExplorerRun {
 public:
  using Batch = TransferSet;

  int prepare(const cid::explore::Node& transfer) {
    return std::stoi(transfer.sbuf.substr(1));  // sbuf(s<t>)
  }
  /// Every transfer of a script has buffers of its own.
  bool touches(const TransferSet&, int) { return false; }
  void post(int transfer, TransferSet& open) {
    events.push_back("post t" + std::to_string(transfer));
    open.bits |= 1u << transfer;
  }
  void land(TransferSet& batch) {
    events.push_back("land " + std::to_string(batch.bits));
    batch.bits = 0;
  }
  void collective(const cid::explore::Node&) {
    events.push_back("collective");
  }

  std::vector<std::string> events;
};

std::vector<std::string> run_explorer(const Program& program) {
  auto built = cid::explore::build_program(source_of(program, {}));
  EXPECT_TRUE(built.is_ok()) << built.status().to_string();
  if (!built.is_ok()) return {};
  EXPECT_TRUE(built.value().notes.empty());
  ExplorerRun rank;
  cid::explore::walk(built.value(), rank);
  return rank.events;
}

void expect_consumers_agree(const Program& program) {
  SCOPED_TRACE(describe(program));
  const Expected expected = plan_of(program);

  for (const auto& landings : run_executor(program)) {
    EXPECT_EQ(landings, expected.landings) << "executor";
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

  EXPECT_EQ(run_explorer(program), expected.events) << "explorer";
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

}  // namespace
