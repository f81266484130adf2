// Golden tests for cid::analyze — the static directive verifier behind
// `cidt check`. Each pass family gets a minimal triggering source and pins
// the diagnostic ID (and, for the flagship findings, the exact message), so
// the IDs documented in docs/ANALYSIS.md cannot drift silently. The shipped
// examples are swept at the end: they must stay free of diagnostics because
// CI gates on `cidt check examples/*.cpp`.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analyze/analyze.hpp"
#include "analyze/diagnostics.hpp"
#include "analyze/source_model.hpp"
#include "obs/trace_read.hpp"
#include "translate/scan.hpp"
#include "translate/translator.hpp"

namespace {

using cid::analyze::Diagnostic;
using cid::analyze::Report;
using cid::analyze::Severity;

Report analyze(std::string_view source) {
  return cid::analyze::analyze_source(source);
}

std::vector<std::string> ids_of(const Report& report) {
  std::vector<std::string> ids;
  ids.reserve(report.diagnostics.size());
  for (const auto& d : report.diagnostics) ids.push_back(d.id);
  return ids;
}

bool has(const Report& report, std::string_view id) {
  const auto ids = ids_of(report);
  return std::find(ids.begin(), ids.end(), id) != ids.end();
}

const Diagnostic& find(const Report& report, std::string_view id) {
  for (const auto& d : report.diagnostics) {
    if (d.id == id) return d;
  }
  static const Diagnostic missing;
  EXPECT_TRUE(false) << "diagnostic " << id << " not reported";
  return missing;
}

std::string render(const Report& report) {
  std::ostringstream out;
  cid::analyze::print_human({"test.cpp", report}, out);
  return out.str();
}

// --- clean programs ---------------------------------------------------------

TEST(Analyze, CleanRingProgramHasNoDiagnostics) {
  const Report report = analyze(R"(
double sb[8];
double rb[8];
int main() {
#pragma comm_p2p sender((rank-1+nprocs)%nprocs) receiver((rank+1)%nprocs) sbuf(sb) rbuf(rb) count(8)
{ }
}
)");
  EXPECT_TRUE(report.clean()) << render(report);
  EXPECT_EQ(report.directives_checked, 1);
}

TEST(Analyze, PaperListing2GuardedEdgeExchangeIsClean) {
  // Listing 2's pattern: shift right, edge ranks guarded off.
  const Report report = analyze(R"(
double sb[4];
double rb[4];
int main() {
#pragma comm_parameters sender(rank-1) receiver(rank+1) sendwhen(rank<nprocs-1) receivewhen(rank>0)
{
#pragma comm_p2p sbuf(sb) rbuf(rb) count(4)
{ }
}
}
)");
  EXPECT_TRUE(report.clean()) << render(report);
  EXPECT_EQ(report.directives_checked, 2);
}

TEST(Analyze, SymbolicClausesProduceNoFalsePositives) {
  // prev/next/size are runtime values the analyzer cannot bind; the sweep
  // must skip silently rather than guess.
  const Report report = analyze(R"(
int main() {
#pragma comm_p2p sender(prev) receiver(next) sbuf(a) rbuf(b) count(size)
{ }
}
)");
  EXPECT_TRUE(report.clean()) << render(report);
}

TEST(Analyze, PragmasInStringsAndCommentsAreIgnored) {
  const Report report = analyze(R"(
// #pragma comm_p2p bogus(1)
const char* quoted = R"x(
#pragma comm_p2p sbuf(a)
)x";
int main() { return 0; }
)");
  EXPECT_TRUE(report.clean()) << render(report);
  EXPECT_EQ(report.directives_checked, 0);
}

// --- rank-symbolic match analysis -------------------------------------------

TEST(Analyze, UnmatchedGuardsStrandSendsAndReceives) {
  // Both guards select even ranks: every send targets an odd rank that
  // never posts the receive, and even receivers wait forever.
  const Report report = analyze(R"(
int main() {
#pragma comm_parameters sender(rank-1) receiver(rank+1) sendwhen(rank%2==0) receivewhen(rank%2==0)
{
#pragma comm_p2p sbuf(a) rbuf(b) count(1)
{ }
}
}
)");
  EXPECT_TRUE(has(report, "CID-M011")) << render(report);
  const Diagnostic& stranded = find(report, "CID-M011");
  EXPECT_EQ(stranded.severity, Severity::Warning);
  EXPECT_EQ(stranded.line, 5);
  EXPECT_EQ(stranded.message,
            "send posted by rank 0 to rank 1 at nprocs=2 has no matching "
            "receive: rank 1 does not satisfy receivewhen(rank%2==0) "
            "(swept nprocs 2..8)");
  const Diagnostic& orphan = find(report, "CID-M012");
  EXPECT_EQ(orphan.severity, Severity::Error);
}

TEST(Analyze, UnguardedEdgeRanksGoOutOfRange) {
  const Report report = analyze(R"(
int main() {
#pragma comm_p2p sender(rank-1) receiver(rank+1) sbuf(a) rbuf(b) count(1)
{ }
}
)");
  const Diagnostic& d = find(report, "CID-M010");
  EXPECT_EQ(d.severity, Severity::Error);
  EXPECT_EQ(d.message,
            "receiver(rank+1) evaluates to 2 on sending rank 1 at nprocs=2, "
            "outside 0..1 (swept nprocs 2..8)");
}

TEST(Analyze, DeadDirectiveNeverFires) {
  const Report report = analyze(R"(
int main() {
#pragma comm_p2p sender(0) receiver(1) sendwhen(rank<0) receivewhen(rank<0) sbuf(a) rbuf(b)
{ }
}
)");
  const Diagnostic& d = find(report, "CID-S034");
  EXPECT_EQ(d.severity, Severity::Warning);
}

TEST(Analyze, EvaluationFailureInSweepWarns) {
  // receiver divides by zero on rank 1.
  const Report report = analyze(R"(
int main() {
#pragma comm_p2p sender(0) receiver(1/(rank-1)) sbuf(a) rbuf(b)
{ }
}
)");
  EXPECT_TRUE(has(report, "CID-M015")) << render(report);
}

TEST(Analyze, CollectiveRootOutOfRange) {
  const Report report = analyze(R"(
int main() {
#pragma comm_collective pattern(PATTERN_ONE_TO_MANY) root(nprocs) sbuf(a) rbuf(b) count(4)
{ }
}
)");
  EXPECT_TRUE(has(report, "CID-M010")) << render(report);
}

// --- count / extent checks --------------------------------------------------

TEST(Analyze, CountLargerThanDeclaredExtent) {
  const Report report = analyze(R"(
double rb[4];
int main() {
#pragma comm_p2p sender((rank-1+nprocs)%nprocs) receiver((rank+1)%nprocs) sbuf(sb) rbuf(rb) count(8)
{ }
}
)");
  const Diagnostic& d = find(report, "CID-M014");
  EXPECT_EQ(d.severity, Severity::Error);
  EXPECT_EQ(d.message,
            "count(8) transfers 8 element(s) but buffer 'rb' is declared "
            "with extent 4");
}

TEST(Analyze, InferredCountFromMismatchedExtentsWarns) {
  const Report report = analyze(R"(
double sb[8];
double rb[4];
int main() {
#pragma comm_p2p sender((rank-1+nprocs)%nprocs) receiver((rank+1)%nprocs) sbuf(sb) rbuf(rb)
{ }
}
)");
  EXPECT_TRUE(has(report, "CID-M013")) << render(report);
}

TEST(Analyze, SbufRbufListLengthMismatch) {
  const Report report = analyze(R"(
int main() {
#pragma comm_p2p sender(0) receiver(1) sbuf(a, b) rbuf(c)
{ }
}
)");
  const Diagnostic& d = find(report, "CID-P006");
  EXPECT_EQ(d.message,
            "sbuf lists 2 buffer(s) but rbuf lists 1; paired send/receive "
            "buffers must agree in number");
}

TEST(Analyze, MissingRequiredClausesAfterInheritance) {
  const Report report = analyze(R"(
int main() {
#pragma comm_p2p sbuf(a) rbuf(b)
{ }
}
)");
  const Diagnostic& d = find(report, "CID-P005");
  EXPECT_EQ(d.message,
            "comm_p2p is missing required clause(s) after inheritance: "
            "sender, receiver");
  EXPECT_EQ(d.hint,
            "add sender, receiver on the directive or on the enclosing "
            "comm_parameters region");
}

// A collective inherits count, sbuf and rbuf like a transfer does; the hint
// names what is missing.
TEST(Analyze, CollectiveHintNamesTheMissingClauses) {
  const Report report = analyze(R"(
int main() {
#pragma comm_parameters count(4) sbuf(a)
{
#pragma comm_collective pattern(PATTERN_ALL_TO_ALL)
{ }
}
#pragma comm_collective pattern(PATTERN_ONE_TO_MANY) sbuf(a) rbuf(b) count(1)
{ }
}
)");
  ASSERT_EQ(report.errors(), 2) << render(report);
  EXPECT_EQ(report.diagnostics[0].id, "CID-P005");
  EXPECT_EQ(report.diagnostics[0].message,
            "comm_collective is missing required clause(s): rbuf");
  EXPECT_EQ(report.diagnostics[0].hint,
            "add rbuf on the directive or on the enclosing comm_parameters "
            "region");
  EXPECT_EQ(report.diagnostics[1].id, "CID-P005");
  EXPECT_EQ(report.diagnostics[1].hint,
            "add root on the directive or on the enclosing comm_parameters "
            "region");
}

// The executor requires root for every collective pattern but all-to-all.
TEST(Analyze, RootlessGatherIsMissingRoot) {
  const Report report = analyze(R"(
int main() {
#pragma comm_collective pattern(PATTERN_MANY_TO_ONE) sbuf(a) rbuf(b) count(1)
{ }
#pragma comm_collective pattern(PATTERN_ALL_TO_ALL) sbuf(a) rbuf(b) count(1)
{ }
}
)");
  const Diagnostic& d = find(report, "CID-P005");
  EXPECT_EQ(d.line, 3);
  EXPECT_EQ(d.message, "pattern PATTERN_MANY_TO_ONE requires the root clause");
  EXPECT_EQ(report.errors(), 1);
}

// --- buffer race detection --------------------------------------------------

// A collective synchronizes: the executor lands the open batch before it
// runs, so the second ring's receive into rb is not a reuse in flight.
TEST(Analyze, CollectiveLandsTheOpenBatch) {
  const Report report = analyze(R"(
double sb[8];
double rb[8];
double cs[8];
double cr[8];
int main() {
#pragma comm_parameters count(4)
{
#pragma comm_p2p sbuf(sb) rbuf(rb) receiver((rank+1)%nprocs) sender((rank+nprocs-1)%nprocs)
{ }
#pragma comm_collective pattern(PATTERN_ONE_TO_MANY) root(0) sbuf(cs) rbuf(cr)
{ }
#pragma comm_p2p sbuf(sb) rbuf(rb) receiver((rank+1)%nprocs) sender((rank+nprocs-1)%nprocs)
{ }
}
}
)");
  EXPECT_TRUE(report.clean()) << render(report);
}

TEST(Analyze, RbufReusedWhileInFlight) {
  const Report report = analyze(R"(
double sb[8];
double rb[8];
int main() {
#pragma comm_parameters sender(rank-1) receiver(rank+1) sendwhen(rank<nprocs-1) receivewhen(rank>0)
{
#pragma comm_p2p sbuf(sb) rbuf(rb) count(4)
{ }
#pragma comm_p2p sbuf(sb) rbuf(rb) count(4)
{ }
}
}
)");
  const Diagnostic& d = find(report, "CID-B020");
  EXPECT_EQ(d.severity, Severity::Error);
  EXPECT_EQ(d.line, 9);
  EXPECT_EQ(d.message,
            "rbuf(rb) is reused while the receive posted by the directive "
            "at line 7 is still in flight (rank 1 posts both at nprocs=2); "
            "the executor completes that receive here, before it posts this "
            "directive");
  EXPECT_EQ(d.hint,
            "that completion is a hidden synchronization: it blocks until "
            "line 7's message arrives, and deadlocks when its sender sends "
            "only after this directive; use distinct buffers or split the "
            "region");
}

TEST(Analyze, SendFromAnRbufInFlightIsAHiddenSync) {
  // Rank 1 receives into rb, then sends rb back before the region's sync:
  // the executor completes the receive first.
  const Report report = analyze(R"(
double sb[8];
double rb[8];
int main() {
#pragma comm_parameters count(4)
{
#pragma comm_p2p sender(0) receiver(1) sendwhen(rank==0) receivewhen(rank==1) sbuf(sb) rbuf(rb)
{ }
#pragma comm_p2p sender(1) receiver(0) sendwhen(rank==1) receivewhen(rank==0) sbuf(rb) rbuf(sb)
{ }
}
}
)");
  const Diagnostic& d = find(report, "CID-B020");
  EXPECT_EQ(d.line, 9);
  EXPECT_EQ(d.message,
            "sbuf(rb) sends from the buffer the receive posted by the "
            "directive at line 7 is still writing (rank 1 posts both at "
            "nprocs=2); the executor completes that receive here, before it "
            "posts this directive");
}

TEST(Analyze, ReceiveLandedByReuseIsNotReportedAsDeferred) {
  // Line 8 reuses r, so the executor completes line 6's receive there:
  // only line 8's receive is still deferred at the gap.
  const Report report = analyze(R"(
double s0[8], s1[8], r[8];
int main() {
#pragma comm_parameters sender(0) receiver(1) sendwhen(rank==0) receivewhen(rank==1) count(8) place_sync(BEGIN_NEXT_PARAM_REGION)
{
#pragma comm_p2p sbuf(s0) rbuf(r)
{ }
#pragma comm_p2p sbuf(s1) rbuf(r)
{ }
}
  r[0] = 1.0;
#pragma comm_parameters sender(0) receiver(1) sendwhen(rank==0) receivewhen(rank==1) count(8)
{
}
}
)");
  int deferred = 0;
  for (const Diagnostic& d : report.diagnostics) {
    if (d.id != "CID-B023") continue;
    ++deferred;
    EXPECT_NE(d.message.find("posted at line 8"), std::string::npos)
        << render(report);
  }
  EXPECT_EQ(deferred, 1) << render(report);
  EXPECT_EQ(find(report, "CID-B020").line, 8);
}

TEST(Analyze, DisjointGuardsMakeRbufReuseSafe) {
  // The two receives land on different ranks; no rank posts both.
  const Report report = analyze(R"(
double sb[8];
double rb[8];
int main() {
#pragma comm_parameters sender(0) count(4)
{
#pragma comm_p2p receiver(1) sendwhen(rank==0) receivewhen(rank==1) sbuf(sb) rbuf(rb)
{ }
#pragma comm_p2p receiver(2) sendwhen(rank==0 && nprocs>2) receivewhen(rank==2) sbuf(sb) rbuf(rb)
{ }
}
}
)");
  EXPECT_FALSE(has(report, "CID-B020")) << render(report);
}

TEST(Analyze, SelfAliasedSendReceiveBuffers) {
  const Report report = analyze(R"(
double buf[8];
int main() {
#pragma comm_p2p sender((rank-1+nprocs)%nprocs) receiver((rank+1)%nprocs) sbuf(buf) rbuf(buf) count(8)
{ }
}
)");
  const Diagnostic& d = find(report, "CID-B021");
  EXPECT_EQ(d.severity, Severity::Error);
}

TEST(Analyze, DisjointGuardsMakeSelfAliasSafe) {
  // The paper's transfer_atom pattern: same staging buffers on both sides,
  // but a rank either sends or receives, never both.
  const Report report = analyze(R"(
double stage[8];
int main() {
#pragma comm_p2p sender(0) receiver(1) sendwhen(rank==0) receivewhen(rank==1) sbuf(stage) rbuf(stage) count(8)
{ }
}
)");
  EXPECT_TRUE(report.clean()) << render(report);
}

TEST(Analyze, OverlapBlockTouchingInFlightRbuf) {
  const Report report = analyze(R"(
double sb[8];
double rb[8];
int main() {
#pragma comm_p2p sender((rank-1+nprocs)%nprocs) receiver((rank+1)%nprocs) sbuf(sb) rbuf(rb) count(8)
{
  rb[0] = 1.0;
}
}
)");
  const Diagnostic& d = find(report, "CID-B022");
  EXPECT_EQ(d.severity, Severity::Warning);
}

TEST(Analyze, OverlapBlockReadingSbufIsFine) {
  const Report report = analyze(R"(
double sb[8];
double rb[8];
double acc;
int main() {
#pragma comm_p2p sender((rank-1+nprocs)%nprocs) receiver((rank+1)%nprocs) sbuf(sb) rbuf(rb) count(8)
{
  acc += sb[0];
}
}
)");
  EXPECT_TRUE(report.clean()) << render(report);
}

TEST(Analyze, CodeBetweenRegionsTouchingDeferredBuffer) {
  const Report report = analyze(R"(
double sb[8];
double rb[8];
int main() {
#pragma comm_parameters sender(rank-1) receiver(rank+1) sendwhen(rank<nprocs-1) receivewhen(rank>0) place_sync(BEGIN_NEXT_PARAM_REGION)
{
#pragma comm_p2p sbuf(sb) rbuf(rb) count(8)
{ }
}
  rb[0] = 2.0;
#pragma comm_parameters sender(rank-1) receiver(rank+1) sendwhen(rank<nprocs-1) receivewhen(rank>0)
{
#pragma comm_p2p sbuf(sb) rbuf(sb) sendwhen(rank<0) receivewhen(rank<0) count(8)
{ }
}
}
)");
  EXPECT_TRUE(has(report, "CID-B023")) << render(report);
}

// An END_ADJ region's receives stay in flight through an intervening
// BEGIN_NEXT region: they land at the end of the next non-deferring region.
TEST(Analyze, DeferredSyncSurvivesAnInterveningDeferringRegion) {
  const Report report = analyze(R"(
double a[8], b[8], c[8], d[8], e[8], f[8];
int main() {
#pragma comm_parameters sender(0) receiver(1) sendwhen(rank==0) receivewhen(rank==1) count(8) place_sync(END_ADJ_PARAM_REGIONS)
{
#pragma comm_p2p sbuf(a) rbuf(b)
{ }
}
#pragma comm_parameters sender(0) receiver(1) sendwhen(rank==0) receivewhen(rank==1) count(8) place_sync(BEGIN_NEXT_PARAM_REGION)
{
#pragma comm_p2p sbuf(c) rbuf(d)
{ }
}
  b[0] = 1.0;
#pragma comm_parameters sender(0) receiver(1) sendwhen(rank==0) receivewhen(rank==1) count(8)
{
#pragma comm_p2p sbuf(e) rbuf(f)
{ }
}
}
)");
  const Diagnostic& d = find(report, "CID-B023");
  EXPECT_NE(d.message.find("touches 'b'"), std::string::npos)
      << render(report);
  EXPECT_NE(d.message.find("posted at line 6"), std::string::npos)
      << render(report);
}

// --- synchronization placement ----------------------------------------------

TEST(Analyze, BeginNextWithoutFollowingRegion) {
  const Report report = analyze(R"(
double sb[8];
double rb[8];
int main() {
#pragma comm_parameters sender(rank-1) receiver(rank+1) sendwhen(rank<nprocs-1) receivewhen(rank>0) place_sync(BEGIN_NEXT_PARAM_REGION)
{
#pragma comm_p2p sbuf(sb) rbuf(rb) count(8)
{ }
}
}
)");
  const Diagnostic& d = find(report, "CID-S030");
  EXPECT_EQ(d.severity, Severity::Error);
  EXPECT_EQ(d.line, 5);
  EXPECT_EQ(d.message,
            "place_sync(BEGIN_NEXT_PARAM_REGION) defers the consolidated "
            "sync to a following parameter region, but no region follows "
            "this one");
}

TEST(Analyze, EndAdjWithoutFollowingRegion) {
  const Report report = analyze(R"(
int main() {
#pragma comm_parameters sender(0) receiver(1) sendwhen(rank==0) receivewhen(rank==1) place_sync(END_ADJ_PARAM_REGIONS)
{
#pragma comm_p2p sbuf(a) rbuf(b) count(1)
{ }
}
}
)");
  EXPECT_TRUE(has(report, "CID-S031")) << render(report);
}

TEST(Analyze, DeferredSyncWithFollowingRegionIsClean) {
  const Report report = analyze(R"(
double sb[8];
double rb[8];
double sb2[8];
double rb2[8];
int main() {
#pragma comm_parameters sender(rank-1) receiver(rank+1) sendwhen(rank<nprocs-1) receivewhen(rank>0) place_sync(BEGIN_NEXT_PARAM_REGION)
{
#pragma comm_p2p sbuf(sb) rbuf(rb) count(8)
{ }
}
#pragma comm_parameters sender(rank-1) receiver(rank+1) sendwhen(rank<nprocs-1) receivewhen(rank>0)
{
#pragma comm_p2p sbuf(sb2) rbuf(rb2) count(8)
{ }
}
}
)");
  EXPECT_TRUE(report.clean()) << render(report);
}

TEST(Analyze, InvalidKeywordsAreReported) {
  const Report report = analyze(R"(
int main() {
#pragma comm_parameters sender(0) receiver(1) sendwhen(rank==0) receivewhen(rank==1) place_sync(SOMETIME) target(TARGET_COMM_CARRIER_PIGEON)
{
#pragma comm_p2p sbuf(a) rbuf(b) count(1)
{ }
}
}
)");
  int s032 = 0;
  for (const auto& d : report.diagnostics) {
    if (d.id == "CID-S032") ++s032;
  }
  EXPECT_EQ(s032, 2) << render(report);
}

TEST(Analyze, NonPositiveMaxCommIter) {
  const Report report = analyze(R"(
int main() {
#pragma comm_parameters sender(0) receiver(1) sendwhen(rank==0) receivewhen(rank==1) max_comm_iter(0)
{
#pragma comm_p2p sbuf(a) rbuf(b) count(1)
{ }
}
}
)");
  EXPECT_TRUE(has(report, "CID-S032")) << render(report);
}

TEST(Analyze, NestedMaxCommIterConflictWarns) {
  const Report report = analyze(R"(
int main() {
#pragma comm_parameters sender(0) receiver(1) sendwhen(rank==0) receivewhen(rank==1) max_comm_iter(4)
{
#pragma comm_parameters max_comm_iter(8)
{
#pragma comm_p2p sbuf(a) rbuf(b) count(1)
{ }
}
}
}
)");
  const Diagnostic& d = find(report, "CID-S033");
  EXPECT_EQ(d.severity, Severity::Warning);
}

TEST(Analyze, ReliabilityRequiresTwoSidedMpi) {
  const Report report = analyze(R"(
int main() {
#pragma comm_parameters sender(0) receiver(1) sendwhen(rank==0) receivewhen(rank==1) reliability(1000, 3) target(TARGET_COMM_SHMEM)
{
#pragma comm_p2p sbuf(a) rbuf(b) count(1)
{ }
}
}
)");
  EXPECT_TRUE(has(report, "CID-S035")) << render(report);
}

TEST(Analyze, ReliabilityAcceptsAutoTarget) {
  // target(TARGET_COMM_AUTO) is compatible with reliability: the runtime
  // tuner resolves auto to the two-sided lowering whenever the clause is
  // present (docs/TUNING.md).
  const Report report = analyze(R"(
int main() {
#pragma comm_parameters sender(0) receiver(1) sendwhen(rank==0) receivewhen(rank==1) reliability(1000, 3) target(TARGET_COMM_AUTO)
{
#pragma comm_p2p sbuf(a) rbuf(b) count(1)
{ }
}
}
)");
  EXPECT_FALSE(has(report, "CID-S035")) << render(report);
}

// --- reflection / type rules ------------------------------------------------

TEST(Analyze, CompositeWithPointerMember) {
  const Report report = analyze(R"(
struct Vec3 { double x, y, z; };
struct Particle { Vec3 pos; double* history; };
Particle psend;
Particle precv;
int main() {
#pragma comm_p2p sender(0) receiver(1) sendwhen(rank==0) receivewhen(rank==1) sbuf(psend) rbuf(precv) count(1)
{ }
}
)");
  const Diagnostic& pointer = find(report, "CID-T040");
  EXPECT_EQ(pointer.severity, Severity::Error);
  EXPECT_EQ(pointer.message,
            "buffer 'psend' has composite type 'Particle' whose member "
            "'history' is a pointer; reflection transfers raw bytes and "
            "cannot follow it");
  EXPECT_TRUE(has(report, "CID-T041")) << render(report);
  EXPECT_TRUE(has(report, "CID-T042")) << render(report);
}

TEST(Analyze, ReflectedFlatCompositeIsClean) {
  const Report report = analyze(R"(
struct Scalars { double energy; int count; };
CID_REFLECT_STRUCT(Scalars, energy, count);
Scalars ssend;
Scalars srecv;
int main() {
#pragma comm_p2p sender(0) receiver(1) sendwhen(rank==0) receivewhen(rank==1) sbuf(ssend) rbuf(srecv) count(1)
{ }
}
)");
  EXPECT_TRUE(report.clean()) << render(report);
}

// --- scanner issues ---------------------------------------------------------

TEST(Analyze, MalformedPragmaForwardsParserMessage) {
  const Report report = analyze("#pragma comm_p2p bogus(1)\n{ }\n");
  const Diagnostic& d = find(report, "CID-P001");
  EXPECT_EQ(d.message, "unknown clause 'bogus'");
  EXPECT_EQ(d.line, 1);
}

TEST(Analyze, DirectiveWithoutBody) {
  const Report report = analyze("#pragma comm_p2p sbuf(a) rbuf(b)\n");
  const Diagnostic& d = find(report, "CID-P002");
  EXPECT_EQ(d.message, "directive has no attached statement or block");
}

TEST(Analyze, UnbalancedBracesAfterDirective) {
  const Report report =
      analyze("#pragma comm_p2p sbuf(a) rbuf(b)\n{ int x = 0;\n");
  EXPECT_TRUE(has(report, "CID-P002")) << render(report);
}

TEST(Analyze, UnterminatedContinuation) {
  const Report report = analyze("#pragma comm_p2p sbuf(a) rbuf(b) \\");
  const Diagnostic& d = find(report, "CID-P004");
  EXPECT_EQ(d.message, "unterminated '\\' continuation in pragma");
}

TEST(Analyze, UnparseableClauseExpression) {
  const Report report = analyze(R"(
int main() {
#pragma comm_p2p sender(rank ++ 1) receiver(1) sbuf(a) rbuf(b)
{ }
}
)");
  EXPECT_TRUE(has(report, "CID-P003")) << render(report);
}

// --- report plumbing --------------------------------------------------------

TEST(Analyze, ReportSortsByPosition) {
  Report report;
  report.add("CID-M011", Severity::Warning, 9, 2, "later");
  report.add("CID-B020", Severity::Error, 3, 7, "earlier");
  report.add("CID-A000", Severity::Error, 3, 1, "first");
  report.sort();
  EXPECT_EQ(report.diagnostics[0].message, "first");
  EXPECT_EQ(report.diagnostics[1].message, "earlier");
  EXPECT_EQ(report.diagnostics[2].message, "later");
  EXPECT_EQ(report.errors(), 2);
  EXPECT_EQ(report.warnings(), 1);
}

TEST(Analyze, HumanRenderingIsCompilerStyle) {
  Report report;
  report.add("CID-B020", Severity::Error, 3, 7, "the message", "the hint");
  const std::string text = render(report);
  EXPECT_EQ(text,
            "test.cpp:3:7: error: [CID-B020] the message\n"
            "  hint: the hint\n");
}

TEST(Analyze, SymbolicClausesAreCountedAndReportedAsSkips) {
  // A symbolic sender (free variable `k`) is beyond the rank/nprocs model:
  // the matcher must skip the directive, say so, and count it so callers
  // (and `cidt check` output) can distinguish "proved clean" from "could
  // not look".
  const Report report = analyze(R"(
int k;
void f() {
#pragma comm_p2p sbuf(a) rbuf(b) count(1) receiver((rank+1)%nprocs) sender(k)
{ }
}
)");
  EXPECT_TRUE(report.diagnostics.empty()) << render(report);
  EXPECT_EQ(report.symbolic_skips, 1);

  const std::string text = render(report);
  EXPECT_NE(text.find("1 directive(s) skipped"), std::string::npos) << text;
  EXPECT_NE(text.find("symbolic clause"), std::string::npos) << text;
  EXPECT_NE(text.find("cidt explore"), std::string::npos) << text;
}

TEST(Analyze, ProvedCleanProgramReportsZeroSymbolicSkips) {
  const Report report = analyze(R"(
void f() {
#pragma comm_p2p sbuf(a) rbuf(b) count(1) receiver((rank+1)%nprocs) sender((rank+nprocs-1)%nprocs)
{ }
}
)");
  EXPECT_TRUE(report.clean()) << render(report);
  EXPECT_EQ(report.symbolic_skips, 0);
  // No skip note when nothing was skipped.
  EXPECT_EQ(render(report).find("skipped"), std::string::npos);
}

// --- JSON output ------------------------------------------------------------

TEST(AnalyzeJson, RoundTripsThroughSchema) {
  const Report report = analyze(R"(
int main() {
#pragma comm_parameters sender(rank-1) receiver(rank+1) sendwhen(rank%2==0) receivewhen(rank%2==0)
{
#pragma comm_p2p sbuf(a) rbuf(b) count(1)
{ }
}
}
)");
  ASSERT_FALSE(report.clean());
  const std::string json =
      cid::analyze::to_json({{"match.cpp", report}});

  auto parsed = cid::obs::parse_json(json);
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  const cid::obs::Json& doc = parsed.value();
  ASSERT_EQ(doc.kind, cid::obs::Json::Kind::Object);

  const auto* version = doc.find("cidlint");
  ASSERT_NE(version, nullptr);
  EXPECT_EQ(version->number, 1.0);

  const auto* files = doc.find("files");
  ASSERT_NE(files, nullptr);
  ASSERT_EQ(files->array.size(), 1u);
  const cid::obs::Json& file = files->array[0];
  EXPECT_EQ(file.find("path")->string, "match.cpp");
  EXPECT_EQ(static_cast<int>(file.find("directives")->number),
            report.directives_checked);

  const auto* diagnostics = file.find("diagnostics");
  ASSERT_NE(diagnostics, nullptr);
  ASSERT_EQ(diagnostics->array.size(), report.diagnostics.size());
  for (std::size_t i = 0; i < diagnostics->array.size(); ++i) {
    const cid::obs::Json& entry = diagnostics->array[i];
    const Diagnostic& expected = report.diagnostics[i];
    EXPECT_EQ(entry.find("id")->string, expected.id);
    EXPECT_EQ(entry.find("severity")->string,
              cid::analyze::severity_name(expected.severity));
    EXPECT_EQ(static_cast<int>(entry.find("line")->number), expected.line);
    EXPECT_EQ(static_cast<int>(entry.find("column")->number),
              expected.column);
    EXPECT_EQ(entry.find("message")->string, expected.message);
  }

  const auto* summary = doc.find("summary");
  ASSERT_NE(summary, nullptr);
  EXPECT_EQ(static_cast<int>(summary->find("errors")->number),
            report.errors());
  EXPECT_EQ(static_cast<int>(summary->find("warnings")->number),
            report.warnings());
  EXPECT_EQ(static_cast<int>(summary->find("files")->number), 1);
}

TEST(AnalyzeJson, CarriesSymbolicSkipCounts) {
  const Report report = analyze(R"(
int k;
void f() {
#pragma comm_p2p sbuf(a) rbuf(b) count(1) receiver((rank+1)%nprocs) sender(k)
{ }
}
)");
  ASSERT_EQ(report.symbolic_skips, 1);
  const std::string json = cid::analyze::to_json({{"skip.cpp", report}});
  auto parsed = cid::obs::parse_json(json);
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  const auto& file = parsed.value().find("files")->array[0];
  EXPECT_EQ(static_cast<int>(file.find("symbolic_skips")->number), 1);
  const auto* summary = parsed.value().find("summary");
  ASSERT_NE(summary, nullptr);
  EXPECT_EQ(static_cast<int>(summary->find("symbolic_skips")->number), 1);
}

TEST(AnalyzeJson, EscapesSpecialCharacters) {
  Report report;
  report.add("CID-X999", Severity::Error, 1, 1, "quote \" slash \\ tab \t");
  const std::string json = cid::analyze::to_json({{"a\"b.cpp", report}});
  auto parsed = cid::obs::parse_json(json);
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  const auto& file = parsed.value().find("files")->array[0];
  EXPECT_EQ(file.find("path")->string, "a\"b.cpp");
  EXPECT_EQ(file.find("diagnostics")->array[0].find("message")->string,
            "quote \" slash \\ tab \t");
}

// --- the declaration model --------------------------------------------------

cid::analyze::SourceModel model_of(std::string_view source) {
  return cid::analyze::SourceModel::scan(
      source, cid::translate::scan_directives(source));
}

TEST(SourceModel, RecoversConstantExtents) {
  const auto model = model_of(
      "double buf[4];\nint other[16];\nchar* p;\ndouble dyn[n];\n");
  ASSERT_EQ(model.array_extents.count("buf"), 1u);
  EXPECT_EQ(model.array_extents.at("buf"), 4);
  EXPECT_EQ(model.array_extents.at("other"), 16);
  EXPECT_EQ(model.array_extents.count("dyn"), 0u);
  EXPECT_EQ(model.extent_of("buf").value_or(-1), 4);
  EXPECT_FALSE(model.extent_of("&buf[2]").has_value());
}

TEST(SourceModel, ConflictingExtentsBecomeUnknown) {
  const auto model = model_of(
      "void f() { double buf[4]; }\nvoid g() { double buf[8]; }\n");
  EXPECT_EQ(model.array_extents.count("buf"), 0u);
}

TEST(SourceModel, ParsesStructFields) {
  const auto model = model_of(R"(
struct Particle {
  double x, y;
  double* history;
  int ids[4];
};
)");
  ASSERT_EQ(model.structs.count("Particle"), 1u);
  const auto& decl = model.structs.at("Particle");
  ASSERT_EQ(decl.fields.size(), 4u);
  EXPECT_EQ(decl.fields[0].name, "x");
  EXPECT_EQ(decl.fields[1].name, "y");
  EXPECT_FALSE(decl.fields[1].is_pointer);
  EXPECT_EQ(decl.fields[2].name, "history");
  EXPECT_TRUE(decl.fields[2].is_pointer);
  EXPECT_EQ(decl.fields[3].name, "ids");
  EXPECT_TRUE(decl.fields[3].is_array);
  EXPECT_FALSE(decl.reflected);
}

TEST(SourceModel, ReflectRegistrationMarksStruct) {
  const auto model = model_of(
      "struct S { int a; };\nCID_REFLECT_STRUCT(S, a);\n");
  EXPECT_TRUE(model.structs.at("S").reflected);
}

TEST(SourceModel, BufferBaseIdentifier) {
  EXPECT_EQ(cid::analyze::buffer_base_identifier("buf"), "buf");
  EXPECT_EQ(cid::analyze::buffer_base_identifier("&ev[3*p]"), "ev");
  EXPECT_EQ(cid::analyze::buffer_base_identifier("stage.vr"), "stage");
  EXPECT_EQ(cid::analyze::buffer_base_identifier("(&x[0])"), "x");
  EXPECT_EQ(cid::analyze::buffer_base_identifier("42"), "");
}

// --- the directive scanner --------------------------------------------------

TEST(ScanDirectives, LineIndexCountsNewlinesBeforeThePosition) {
  const cid::translate::LineIndex lines("a\nbc\n\nd");
  EXPECT_EQ(lines.line_of(0), 1);
  EXPECT_EQ(lines.line_of(1), 1);  // the '\n' itself ends line 1
  EXPECT_EQ(lines.line_of(2), 2);
  EXPECT_EQ(lines.line_of(4), 2);
  EXPECT_EQ(lines.line_of(5), 3);
  EXPECT_EQ(lines.line_of(6), 4);
  EXPECT_EQ(lines.line_of(100), 4);  // past the end: the last line
}

TEST(ScanDirectives, TreeCarriesMaskAndLines) {
  const std::string source = "// #pragma comm_p2p\nint x; /* y */\n";
  const auto tree = cid::translate::scan_directives(source);
  EXPECT_EQ(tree.mask, cid::translate::code_mask(source));
  EXPECT_EQ(tree.lines.line_of(source.find("int")), 2);
  EXPECT_TRUE(tree.roots.empty());
}

TEST(ScanDirectives, BuildsNestedTree) {
  const auto tree = cid::translate::scan_directives(R"(
#pragma comm_parameters sender(0) receiver(1) sendwhen(rank==0) receivewhen(rank==1)
{
#pragma comm_p2p sbuf(a) rbuf(b) count(1)
{ }
#pragma comm_p2p sbuf(c) rbuf(d) count(1)
{ }
}
)");
  EXPECT_TRUE(tree.issues.empty());
  ASSERT_EQ(tree.roots.size(), 1u);
  EXPECT_EQ(tree.roots[0].directive.kind,
            cid::core::DirectiveKind::CommParameters);
  EXPECT_EQ(tree.roots[0].line, 2);
  ASSERT_EQ(tree.roots[0].children.size(), 2u);
  EXPECT_EQ(tree.roots[0].children[1].line, 6);
}

TEST(ScanDirectives, RegionDirectlyWrappingDirective) {
  // Listing 3's shape: comm_parameters followed by a loop... but also the
  // bare form where the region's body IS the next directive.
  const auto tree = cid::translate::scan_directives(R"(
#pragma comm_parameters sender(0) receiver(1) sendwhen(rank==0) receivewhen(rank==1)
#pragma comm_p2p sbuf(a) rbuf(b) count(1)
{ }
)");
  EXPECT_TRUE(tree.issues.empty());
  ASSERT_EQ(tree.roots.size(), 1u);
  ASSERT_EQ(tree.roots[0].children.size(), 1u);
}

TEST(ScanDirectives, ContinuationLinesJoin) {
  const auto tree = cid::translate::scan_directives(
      "#pragma comm_p2p sender(0) receiver(1) \\\n"
      "    sbuf(a) rbuf(b) count(1)\n"
      "{ }\n");
  EXPECT_TRUE(tree.issues.empty());
  ASSERT_EQ(tree.roots.size(), 1u);
  EXPECT_TRUE(tree.roots[0].pragma_continued);
  EXPECT_NE(tree.roots[0].directive.find("count"), nullptr);
}

// --- shipped sources must stay clean ----------------------------------------

TEST(AnalyzeShipped, ExamplesAndWllsmsAreDiagnosticFree) {
  const std::vector<std::string> paths = {
      "examples/collective_demo.cpp", "examples/evenodd_groups.cpp",
      "examples/halo2d.cpp",          "examples/pipeline.cpp",
      "examples/quickstart.cpp",      "examples/translate_demo.cpp",
      "examples/wllsms_demo.cpp",     "src/wllsms/comm_directive.cpp",
  };
  for (const std::string& relative : paths) {
    const std::string path = std::string(CID_SOURCE_DIR) + "/" + relative;
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << "cannot read " << path;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const Report report = analyze(buffer.str());
    EXPECT_TRUE(report.clean())
        << relative << " has diagnostics:\n"
        << render(report);
  }
}

TEST(AnalyzeShipped, TranslatorLowersEveryDirectiveTheAnalyzerChecks) {
  // One front end: the translator and the analyzer read the same directive
  // tree, so they agree on how many directives each shipped source holds.
  const std::filesystem::path root(CID_SOURCE_DIR);
  std::vector<std::filesystem::path> paths = {
      root / "src/wllsms/comm_directive.cpp"};
  for (const auto& entry :
       std::filesystem::directory_iterator(root / "examples")) {
    if (entry.path().extension() == ".cpp") paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  ASSERT_GT(paths.size(), 10u);
  for (const std::filesystem::path& path : paths) {
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << "cannot read " << path;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const std::string source = buffer.str();
    auto translated = cid::translate::translate_source(source);
    ASSERT_TRUE(translated.is_ok())
        << path << ": " << translated.status().to_string();
    const auto& summary = translated.value().summary;
    EXPECT_EQ(summary.p2p_directives + summary.collective_directives +
                  summary.parameter_regions,
              analyze(source).directives_checked)
        << path;
  }
}

}  // namespace
