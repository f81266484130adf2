// Tests for cid::explore — the schedule-space model checker behind
// `cidt explore` — and the cross-layer fuzzer behind `cidt fuzz`.
//
// The two flagship cases mirror the committed examples: a wildcard value
// race (examples/explore_race.cpp) and a symbolic-guard ring deadlock
// (examples/explore_deadlock.cpp). In both, `cidt check` must stay clean
// apart from the symbolic-skip note — the defect is only findable by
// exploring schedules — and the witness schedule each diagnostic carries
// must replay the finding deterministically.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "analyze/analyze.hpp"
#include "explore/explore.hpp"
#include "explore/fuzz.hpp"
#include "explore/program.hpp"

namespace {

using cid::explore::ExploreResult;
using cid::explore::Options;
using cid::explore::Witness;

// The committed examples, inlined so the tests do not depend on paths.
constexpr const char* kWildcardRace = R"(
int a[8]; int b[8]; int c[8]; int d[8];
int k;
void stage1(); void stage2();
void step() {
#pragma comm_p2p sbuf(a) rbuf(b) count(4) receiver(0) sender(k) sendwhen(rank==1) receivewhen(rank==0)
  { stage1(); }
#pragma comm_p2p sbuf(c) rbuf(d) count(4) receiver(0) sender(k) sendwhen(rank==2) receivewhen(rank==0)
  { stage2(); }
}
)";

constexpr const char* kGuardedRing = R"(
int a[8]; int b[8];
int k;
void exchange();
void step() {
#pragma comm_p2p sbuf(a) rbuf(b) count(4) receiver((rank+1)%nprocs) sender((rank+nprocs-1)%nprocs) sendwhen(k>0) receivewhen(rank>=0)
  { exchange(); }
}
)";

// Four wildcard receives across two ranks in one region: rank 1 and rank 2
// each receive into a buffer they are already receiving into, so each lands
// its first wildcard receive while competing messages are in flight. That
// quiescence point is exactly where DPOR's lowest-rank rule prunes and
// naive enumeration does not.
constexpr const char* kTwoRankWildcards = R"(
int a[8]; int b[8]; int c[8]; int d[8];
int k;
void w0(); void w1(); void w2(); void w3();
void step() {
#pragma comm_parameters count(4)
  {
#pragma comm_p2p sbuf(a) rbuf(b) count(4) receiver(1) sendwhen(rank==0) sender(k) receivewhen(rank==1)
  { w0(); }
#pragma comm_p2p sbuf(a) rbuf(d) count(4) receiver(2) sendwhen(rank==0) sender(k) receivewhen(rank==2)
  { w1(); }
#pragma comm_p2p sbuf(c) rbuf(b) count(4) receiver(1) sendwhen(rank==2) sender(k) receivewhen(rank==1)
  { w2(); }
#pragma comm_p2p sbuf(c) rbuf(d) count(4) receiver(2) sendwhen(rank==1) sender(k) receivewhen(rank==2)
  { w3(); }
  }
}
)";

constexpr const char* kCleanRing = R"(
int a[8]; int b[8];
void shift();
void step() {
#pragma comm_p2p sbuf(a) rbuf(b) count(4) receiver((rank+1)%nprocs) sender((rank+nprocs-1)%nprocs)
  { shift(); }
}
)";

ExploreResult explore(const char* source, int nprocs, bool dpor = true) {
  Options options;
  options.nprocs = nprocs;
  options.dpor = dpor;
  auto result = cid::explore::explore_source(source, options);
  EXPECT_TRUE(result.is_ok()) << result.status().to_string();
  return result.is_ok() ? result.value() : ExploreResult{};
}

bool has(const ExploreResult& result, std::string_view id) {
  for (const auto& d : result.report.diagnostics) {
    if (d.id == id) return true;
  }
  return false;
}

const Witness& witness_of(const ExploreResult& result, std::string_view id) {
  for (const auto& w : result.witnesses) {
    if (w.id == id) return w;
  }
  static const Witness missing;
  EXPECT_TRUE(false) << "no witness for " << id;
  return missing;
}

// --- the two flagship defects the static layer cannot see -------------------

TEST(Explore, FindsWildcardValueRaceWhereCheckIsClean) {
  // Static layer: nothing provable, nothing reported — only the skip count.
  cid::analyze::Options static_opts;
  static_opts.nprocs_min = 3;
  static_opts.nprocs_max = 3;
  const auto report = cid::analyze::analyze_source(kWildcardRace, static_opts);
  EXPECT_TRUE(report.diagnostics.empty());
  EXPECT_EQ(report.symbolic_skips, 2);

  // Dynamic layer: the two producers race into rank 0's first wildcard
  // receive, and the competing messages come from different directives.
  const auto result = explore(kWildcardRace, 3);
  EXPECT_TRUE(has(result, "CID-E102"));
  EXPECT_GE(result.report.errors(), 1);
  EXPECT_EQ(result.symbolic_clauses, 2);
}

TEST(Explore, FindsSymbolicGuardDeadlockWhereCheckIsClean) {
  cid::analyze::Options static_opts;
  static_opts.nprocs_min = 3;
  static_opts.nprocs_max = 3;
  const auto report = cid::analyze::analyze_source(kGuardedRing, static_opts);
  EXPECT_TRUE(report.diagnostics.empty());
  EXPECT_EQ(report.symbolic_skips, 1);

  // The all-guards-false branch leaves every rank waiting on its
  // predecessor: a full cycle (E100). Partial-guard branches strand
  // subsets without a cycle (E101).
  const auto result = explore(kGuardedRing, 3);
  EXPECT_TRUE(has(result, "CID-E100"));
  EXPECT_TRUE(has(result, "CID-E101"));
}

// --- witness replay ---------------------------------------------------------

TEST(Explore, WitnessScheduleReplaysTheDeadlockDeterministically) {
  const auto full = explore(kGuardedRing, 3);
  const Witness& witness = witness_of(full, "CID-E100");
  ASSERT_FALSE(witness.schedule.empty());

  Options replay_opts;
  replay_opts.nprocs = 3;
  replay_opts.schedule = witness.schedule;
  replay_opts.max_executions = 1;
  for (int attempt = 0; attempt < 2; ++attempt) {
    auto replay = cid::explore::explore_source(kGuardedRing, replay_opts);
    ASSERT_TRUE(replay.is_ok());
    EXPECT_EQ(replay.value().executions, 1);
    EXPECT_TRUE(has(replay.value(), "CID-E100"));
    EXPECT_FALSE(has(replay.value(), "CID-E101"))
        << "single replayed execution reached a different outcome";
  }
}

TEST(Explore, WitnessScheduleReplaysTheRaceDeterministically) {
  const auto full = explore(kWildcardRace, 3);
  const Witness& witness = witness_of(full, "CID-E102");

  Options replay_opts;
  replay_opts.nprocs = 3;
  replay_opts.schedule = witness.schedule;
  replay_opts.max_executions = 1;
  auto replay = cid::explore::explore_source(kWildcardRace, replay_opts);
  ASSERT_TRUE(replay.is_ok());
  EXPECT_EQ(replay.value().executions, 1);
  EXPECT_TRUE(has(replay.value(), "CID-E102"));
}

// --- DPOR reduction ---------------------------------------------------------

TEST(Explore, DporExploresStrictlyFewerExecutionsThanNaive) {
  const auto dpor = explore(kTwoRankWildcards, 3, /*dpor=*/true);
  const auto naive = explore(kTwoRankWildcards, 3, /*dpor=*/false);
  EXPECT_FALSE(dpor.truncated);
  EXPECT_FALSE(naive.truncated);
  EXPECT_LT(dpor.executions, naive.executions)
      << "DPOR must prune the schedule tree";
  EXPECT_GT(dpor.executions, 1);

  // Reduction must not cost findings: same diagnostic IDs both ways.
  auto ids = [](const ExploreResult& r) {
    std::set<std::string> s;
    for (const auto& d : r.report.diagnostics) s.insert(d.id);
    return s;
  };
  EXPECT_EQ(ids(dpor), ids(naive));
  EXPECT_TRUE(has(dpor, "CID-E102"));
  EXPECT_TRUE(has(dpor, "CID-E105"));  // b and d are each reused in flight
}

// --- determinism and clean programs -----------------------------------------

TEST(Explore, IdenticalRunsProduceIdenticalResults) {
  const auto first = explore(kGuardedRing, 3);
  const auto second = explore(kGuardedRing, 3);
  EXPECT_EQ(first.executions, second.executions);
  EXPECT_EQ(first.decisions, second.decisions);
  ASSERT_EQ(first.report.diagnostics.size(), second.report.diagnostics.size());
  for (std::size_t i = 0; i < first.report.diagnostics.size(); ++i) {
    EXPECT_EQ(first.report.diagnostics[i].id, second.report.diagnostics[i].id);
    EXPECT_EQ(first.report.diagnostics[i].message,
              second.report.diagnostics[i].message);
  }
  ASSERT_EQ(first.witnesses.size(), second.witnesses.size());
  for (std::size_t i = 0; i < first.witnesses.size(); ++i) {
    EXPECT_EQ(first.witnesses[i].schedule, second.witnesses[i].schedule);
  }
}

TEST(Explore, FullyExactProgramIsOneCleanExecution) {
  const auto result = explore(kCleanRing, 4);
  EXPECT_EQ(result.executions, 1);  // no choice points at all
  EXPECT_TRUE(result.report.diagnostics.empty());
  EXPECT_FALSE(result.truncated);
  EXPECT_EQ(result.symbolic_clauses, 0);
}

TEST(Explore, RespectsExecutionBudgetAndReportsTruncation) {
  Options options;
  options.nprocs = 4;
  options.max_executions = 3;
  auto result = cid::explore::explore_source(kGuardedRing, options);
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(result.value().executions, 3);
  EXPECT_TRUE(result.value().truncated);
}

// --- schedule round-trip ----------------------------------------------------

TEST(Explore, ScheduleFormatsAndParsesRoundTrip) {
  const std::vector<int> schedule = {1, 0, 2};
  const std::string text = cid::explore::format_schedule(schedule);
  EXPECT_EQ(text, "1,0,2");
  auto parsed = cid::explore::parse_schedule(text);
  ASSERT_TRUE(parsed.is_ok());
  EXPECT_EQ(parsed.value(), schedule);

  EXPECT_EQ(cid::explore::format_schedule({}), "-");
  auto empty = cid::explore::parse_schedule("-");
  ASSERT_TRUE(empty.is_ok());
  EXPECT_TRUE(empty.value().empty());

  EXPECT_FALSE(cid::explore::parse_schedule("1,x,2").is_ok());
}

// --- synchronization lands where the executor lands it ---------------------

// Two ranks, each receiving from (recv-only) or sending to (send-only) the
// other.
#define CID_RECV_ONLY \
  "sender(1-rank) receiver(1-rank) sendwhen(rank<0) receivewhen(rank>=0)"
#define CID_SEND_ONLY \
  "sender(1-rank) receiver(1-rank) sendwhen(rank>=0) receivewhen(rank<0)"

TEST(ExploreSync, NestedRegionLandsTheOuterReceiveAtItsEnd) {
  // The nested region's begin lands nothing; its end lands the outer
  // receive after the send is posted.
  const auto result = explore(R"(
int a[4]; int b[4];
void step() {
#pragma comm_parameters count(4)
  {
#pragma comm_p2p sbuf(a) rbuf(b) )" CID_RECV_ONLY R"(
    { }
#pragma comm_parameters count(4)
    {
#pragma comm_p2p sbuf(a) rbuf(b) )" CID_SEND_ONLY R"(
      { }
    }
  }
}
)",
                              2);
  EXPECT_TRUE(result.report.diagnostics.empty());
}

TEST(ExploreSync, DeferredReceiveLandsAfterTheNextRegionSends) {
  const auto result = explore(R"(
int a[4]; int b[4];
void step() {
#pragma comm_parameters count(4) place_sync(END_ADJ_PARAM_REGIONS)
  {
#pragma comm_p2p sbuf(a) rbuf(b) )" CID_RECV_ONLY R"(
    { }
  }
#pragma comm_parameters count(4)
  {
#pragma comm_p2p sbuf(a) rbuf(b) )" CID_SEND_ONLY R"(
    { }
  }
}
)",
                              2);
  EXPECT_TRUE(result.report.diagnostics.empty());
  EXPECT_TRUE(result.notes.empty());
}

TEST(ExploreSync, CollectiveLandsTheOpenReceiveFirst) {
  // The receive waits at the collective, before any rank sends: a cycle.
  const auto result = explore(R"(
int a[4]; int b[4]; int c[8]; int d[8];
void step() {
#pragma comm_parameters count(4)
  {
#pragma comm_p2p sbuf(a) rbuf(b) )" CID_RECV_ONLY R"(
    { }
#pragma comm_collective pattern(PATTERN_ALL_TO_ALL) sbuf(c) rbuf(d)
    { }
#pragma comm_p2p sbuf(a) rbuf(b) )" CID_SEND_ONLY R"(
    { }
  }
}
)",
                              2);
  EXPECT_TRUE(has(result, "CID-E100"));
}

TEST(ExploreSync, ReceiveIntoAnInFlightBufferLandsItFirst) {
  // The second receive into b lands the first before it posts, and no rank
  // has sent yet: the adjacency rule's sync deadlocks.
  const auto result = explore(R"(
int a[4]; int b[4];
void step() {
#pragma comm_parameters count(4)
  {
#pragma comm_p2p sbuf(a) rbuf(b) )" CID_RECV_ONLY R"(
    { }
#pragma comm_p2p sbuf(a) rbuf(b) )" CID_RECV_ONLY R"(
    { }
#pragma comm_p2p sbuf(a) rbuf(b) )" CID_SEND_ONLY R"(
    { }
#pragma comm_p2p sbuf(a) rbuf(b) )" CID_SEND_ONLY R"(
    { }
  }
}
)",
                              2);
  EXPECT_TRUE(has(result, "CID-E100"));
  EXPECT_TRUE(has(result, "CID-E105"));
}

TEST(ExploreSync, OneBufferSpelledTwoWaysIsReusedInFlight) {
  // r[0] and r[ 0 ] name one address: the executor lands the first receive
  // before it posts the second, and the analyzer reports CID-B020.
  const char* source = R"(
int s[4]; int r[4];
void step() {
#pragma comm_parameters count(1) sender((rank+nprocs-1)%nprocs) receiver((rank+1)%nprocs)
  {
#pragma comm_p2p sbuf(s) rbuf(r[0])
    { }
#pragma comm_p2p sbuf(s) rbuf(r[ 0 ])
    { }
  }
}
)";
  EXPECT_TRUE(has(explore(source, 3), "CID-E105"));
  const auto report = cid::analyze::analyze_source(source);
  EXPECT_EQ(report.diagnostics.size(), 1u);
  EXPECT_EQ(report.diagnostics[0].id, "CID-B020");
}

TEST(ExploreSync, TransferNestedInAnOverlapBodyPostsBeforeTheOuterLands) {
  // Each rank's receive is a standalone transfer whose overlap body holds
  // its send: the send posts before the receive lands, so nothing blocks.
  const auto result = explore(R"(
int a[4]; int b[4];
void step() {
#pragma comm_p2p sbuf(a) rbuf(b) count(4) )" CID_RECV_ONLY R"(
  {
#pragma comm_p2p sbuf(a) rbuf(b) count(4) )" CID_SEND_ONLY R"(
    { }
  }
}
)",
                              2);
  EXPECT_TRUE(result.report.diagnostics.empty());
  EXPECT_TRUE(result.notes.empty());
}

TEST(ExploreSync, CollectiveLandsTheRingBeforeTheNextRing) {
  // A ring into b, a collective, and a ring into b again: the collective
  // lands the first ring, so b is not in flight when the second ring posts
  // (Analyze.CollectiveLandsTheOpenBatch is the static twin).
  const auto result = explore(R"(
int a[4]; int b[4]; int c[4]; int d[4];
void step() {
#pragma comm_parameters count(4)
  {
#pragma comm_p2p sbuf(a) rbuf(b) receiver((rank+1)%nprocs) sender((rank+nprocs-1)%nprocs)
    { }
#pragma comm_collective pattern(PATTERN_ONE_TO_MANY) root(0) sbuf(c) rbuf(d)
    { }
#pragma comm_p2p sbuf(a) rbuf(b) receiver((rank+1)%nprocs) sender((rank+nprocs-1)%nprocs)
    { }
  }
}
)",
                              3);
  EXPECT_TRUE(result.report.diagnostics.empty());
  EXPECT_EQ(result.executions, 1);
}

#undef CID_RECV_ONLY
#undef CID_SEND_ONLY

// examples/explore_deferred.cpp: a race that exists only because the first
// region defers its sync.
constexpr const char* kDeferredRace = R"(
int a[8]; int b[8]; int c[8]; int d[8];
int k;
void produce(); void reflect();
void step() {
#pragma comm_parameters count(4) place_sync(END_ADJ_PARAM_REGIONS)
  {
#pragma comm_p2p sbuf(a) rbuf(b) receiver(0) sender(k) sendwhen(rank==1) receivewhen(rank==0)
    { produce(); }
  }
#pragma comm_parameters count(4)
  {
#pragma comm_p2p sbuf(c) rbuf(d) receiver(0) sender(k) sendwhen(rank==0) receivewhen(rank==0)
    { reflect(); }
  }
}
)";

TEST(ExploreSync, DeferredSyncRaceIsFoundWhereCheckIsClean) {
  cid::analyze::Options static_opts;
  static_opts.nprocs_min = 3;
  static_opts.nprocs_max = 3;
  const auto report = cid::analyze::analyze_source(kDeferredRace, static_opts);
  EXPECT_TRUE(report.diagnostics.empty());
  EXPECT_EQ(report.symbolic_skips, 2);

  const auto full = explore(kDeferredRace, 3);
  ASSERT_TRUE(has(full, "CID-E102"));
  Options replay_opts;
  replay_opts.nprocs = 3;
  replay_opts.schedule = witness_of(full, "CID-E102").schedule;
  replay_opts.max_executions = 1;
  auto replay = cid::explore::explore_source(kDeferredRace, replay_opts);
  ASSERT_TRUE(replay.is_ok());
  EXPECT_EQ(replay.value().executions, 1);
  EXPECT_TRUE(has(replay.value(), "CID-E102"));

  // Without the deferral rank 0 completes b before it sends to itself.
  std::string landed = kDeferredRace;
  landed.replace(landed.find(" place_sync(END_ADJ_PARAM_REGIONS)"),
                 std::string(" place_sync(END_ADJ_PARAM_REGIONS)").size(), "");
  EXPECT_TRUE(explore(landed.c_str(), 3).report.diagnostics.empty());
}

// --- the directive program model -------------------------------------------

TEST(ExploreProgram, NestedTransferDirectivesAreModeled) {
  auto program = cid::explore::build_program(R"(
int a[8]; int b[8]; int c[8]; int d[8];
void step() {
#pragma comm_p2p sbuf(a) rbuf(b) count(4) receiver(0) sender(0)
  {
#pragma comm_p2p sbuf(c) rbuf(d) count(4) receiver(0) sender(0)
    { }
  }
}
)");
  ASSERT_TRUE(program.is_ok()) << program.status().to_string();
  EXPECT_TRUE(program.value().notes.empty());
  ASSERT_EQ(program.value().roots.size(), 1u);
  const auto& leaves = program.value().leaves;
  ASSERT_EQ(leaves.size(), 2u);
  EXPECT_EQ(leaves[0].rbuf, "b");
  EXPECT_EQ(leaves[1].rbuf, "d");
  EXPECT_EQ(leaves[1].line, 6);
  EXPECT_FALSE(leaves[1].skipped);
}

TEST(ExploreProgram, LeavesAreIndexedBySiteInTextualOrder) {
  auto program = cid::explore::build_program(R"(
int a[8]; int b[8];
void step() {
#pragma comm_parameters count(4) place_sync(BEGIN_NEXT_PARAM_REGION)
  {
#pragma comm_parameters sender(0) receiver(0)
    {
#pragma comm_p2p sbuf(a) rbuf(b)
      { }
    }
#pragma comm_collective pattern(PATTERN_ALL_TO_ALL) sbuf(a) rbuf(b)
    { }
  }
}
)");
  ASSERT_TRUE(program.is_ok()) << program.status().to_string();
  EXPECT_TRUE(program.value().notes.empty());
  const auto& roots = program.value().roots;
  ASSERT_EQ(roots.size(), 1u);
  ASSERT_EQ(roots[0].children.size(), 2u);
  const auto& leaves = program.value().leaves;
  ASSERT_EQ(leaves.size(), 2u);
  EXPECT_EQ(leaves[0].rbuf, "b");  // the transfer
  EXPECT_EQ(leaves[0].site, 0);
  EXPECT_EQ(leaves[0].line, 8);
  EXPECT_EQ(leaves[0].sender.text, "0");  // inherited from the inner region
  EXPECT_EQ(leaves[1].pattern, cid::core::Pattern::AllToAll);
  EXPECT_EQ(leaves[1].site, 1);
  EXPECT_EQ(leaves[1].line, 11);
}

TEST(ExploreProgram, IncompleteTransferIsSkippedByTheSharedClauseRule) {
  auto program = cid::explore::build_program(R"(
int a[8]; int b[8];
void step() {
#pragma comm_p2p sbuf(a) count(4) receiver(0) sender(0)
  { }
}
)");
  ASSERT_TRUE(program.is_ok()) << program.status().to_string();
  ASSERT_EQ(program.value().notes.size(), 1u);
  EXPECT_EQ(program.value().notes[0],
            "line 4: comm_p2p is missing required clause(s) after "
            "inheritance: rbuf; skipped (CID-P005 territory)");
  ASSERT_EQ(program.value().leaves.size(), 1u);
  EXPECT_TRUE(program.value().leaves[0].skipped);
}

// --- the cross-layer fuzzer -------------------------------------------------

TEST(Fuzz, GenerationIsDeterministicPerSeed) {
  for (std::uint64_t seed : {1ull, 7ull, 99ull}) {
    EXPECT_EQ(cid::explore::generate_program(seed),
              cid::explore::generate_program(seed));
  }
  EXPECT_NE(cid::explore::generate_program(1),
            cid::explore::generate_program(2));
}

TEST(Fuzz, OneHundredSeedsProduceNoDivergence) {
  cid::explore::FuzzOptions options;
  options.nprocs = 3;
  int deadlocks = 0;
  int symbolic = 0;
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    const auto outcome = cid::explore::fuzz_one(seed, options);
    EXPECT_FALSE(outcome.divergence)
        << "seed " << seed << ": " << outcome.detail << "\n"
        << outcome.program;
    if (outcome.explore_deadlock) ++deadlocks;
    if (outcome.analyze_symbolic_skips > 0) ++symbolic;
  }
  // The corpus must actually exercise the interesting territory, not just
  // pass vacuously.
  EXPECT_GT(deadlocks, 10);
  EXPECT_GT(symbolic, 10);
}

}  // namespace
