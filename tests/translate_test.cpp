// Tests for the source-to-source translator: every directive becomes the
// embedded API's call with its own clauses (the executor inherits the rest),
// clause expressions become lambdas, buffers core::buf descriptors, and the
// static checks report bad input with its line.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/strings.hpp"
#include "translate/translator.hpp"

namespace {

using cid::contains;
using cid::translate::Options;
using cid::translate::translate_source;

std::string translate_ok(const std::string& source, Options options = {}) {
  auto result = translate_source(source, options);
  EXPECT_TRUE(result.is_ok()) << result.status().to_string();
  return result.is_ok() ? result.value().source : std::string{};
}

/// The builder call a clause expression becomes.
std::string expr(const std::string& clause, const std::string& text) {
  return "." + clause +
         "([&]() -> ::cid::core::ExprValue { return "
         "static_cast<::cid::core::ExprValue>(" +
         text + "); })";
}

/// The builder call a buffer clause argument becomes.
std::string buffer(const std::string& clause, const std::string& name) {
  return "." + clause + "(::cid::core::buf(" + name + ", \"" + name + "\"))";
}

/// The clause chain of every `callee` call in `out`, in source order: from
/// the callee up to its body lambda or the end of the call.
std::vector<std::string> chains(const std::string& out,
                                const std::string& callee) {
  std::vector<std::string> found;
  for (std::size_t pos = out.find(callee); pos != std::string::npos;
       pos = out.find(callee, pos + 1)) {
    const std::size_t end =
        std::min(out.find(");\n", pos), out.find(",\n    [&](", pos));
    found.push_back(out.substr(pos, end - pos));
  }
  return found;
}

std::size_t occurrences(const std::string& text, const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + 1)) {
    ++count;
  }
  return count;
}

// Paper Listing 1.
constexpr const char* kListing1 = R"(
prev = (rank-1+nprocs)%nprocs;
next = (rank+1)%nprocs;
#pragma comm_p2p sender(prev) receiver(next) sbuf(buf1) rbuf(buf2)
{ }
)";

TEST(Translate, Listing1GeneratesNonblockingMpi) {
  const std::string out = translate_ok(kListing1);
  const auto p2p = chains(out, "::cid::core::comm_p2p(");
  ASSERT_EQ(p2p.size(), 1u) << out;
  EXPECT_EQ(p2p[0], "::cid::core::comm_p2p(::cid::core::Clauses()\n    " +
                        expr("sender", "prev") + "\n    " +
                        expr("receiver", "next") + "\n    " +
                        buffer("sbuf", "buf1") + "\n    " +
                        buffer("rbuf", "buf2") +
                        "\n    .target(::cid::core::Target::Mpi2Side)");
  // The executor lowers it: no message passing call is open-coded.
  EXPECT_FALSE(contains(out, "cid::mpi::"));
  // Original non-directive lines preserved.
  EXPECT_TRUE(contains(out, "prev = (rank-1+nprocs)%nprocs;"));
  // No pragma left behind.
  EXPECT_FALSE(contains(out, "#pragma comm_p2p"));
}

TEST(Translate, CountInferredFromArrays) {
  // No count clause: the buffers carry their extents and the executor
  // infers the count from the smallest.
  const std::string out = translate_ok(kListing1);
  EXPECT_TRUE(contains(out, buffer("sbuf", "buf1")));
  EXPECT_TRUE(contains(out, buffer("rbuf", "buf2")));
  EXPECT_FALSE(contains(out, ".count("));
}

TEST(Translate, ExplicitCountPassedVerbatim) {
  const std::string out = translate_ok(R"(
#pragma comm_p2p sender(prev) receiver(next) sbuf(a) rbuf(b) count(3*n)
{ }
)");
  EXPECT_TRUE(contains(out, expr("count", "3*n")));
}

// Paper Listing 2: guards become if statements.
TEST(Translate, Listing2GuardsBecomeConditionals) {
  const std::string out = translate_ok(R"(
#pragma comm_p2p sbuf(buf1) rbuf(buf2) sender(rank-1) receiver(rank+1) sendwhen(rank%2==0) receivewhen(rank%2==1)
{ }
)");
  EXPECT_TRUE(contains(out, expr("sendwhen", "rank%2==0")));
  EXPECT_TRUE(contains(out, expr("receivewhen", "rank%2==1")));
}

// Paper Listing 3: region with loop, clause inheritance, backslash
// continuations.
constexpr const char* kListing3 = R"(
#pragma comm_parameters sender(rank-1) \
    receiver(rank+1) sendwhen(rank%2==0) \
    receivewhen(rank%2==1) count(size) \
    max_comm_iter(n) place_sync(END_PARAM_REGION)
{
for(p=0; p < n; p++)
#pragma comm_p2p sbuf(&buf1[p]) rbuf(&buf2[p])
{ }
}
)";

TEST(Translate, Listing3RegionInheritsClauses) {
  auto result = translate_source(kListing3);
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  const std::string& out = result.value().source;
  // The region carries its clauses; the nested p2p only its own, and the
  // executor inherits sender/receiver/count through the region.
  const auto region = chains(out, "::cid::core::comm_parameters(");
  ASSERT_EQ(region.size(), 1u) << out;
  for (const std::string& call :
       {expr("sender", "rank-1"), expr("receiver", "rank+1"),
        expr("sendwhen", "rank%2==0"), expr("receivewhen", "rank%2==1"),
        expr("count", "size"), expr("max_comm_iter", "n"),
        std::string(".place_sync(::cid::core::SyncPlacement::"
                    "EndParamRegion)")}) {
    EXPECT_TRUE(contains(region[0], call)) << call;
  }
  const auto p2p = chains(out, "::cid::core::comm_p2p(");
  ASSERT_EQ(p2p.size(), 1u) << out;
  EXPECT_EQ(p2p[0], "::cid::core::comm_p2p(::cid::core::Clauses()\n    " +
                        buffer("sbuf", "&buf1[p]") + "\n    " +
                        buffer("rbuf", "&buf2[p]"));
  // The for loop survives around the directive call, in the region body.
  EXPECT_TRUE(contains(out, "for(p=0; p < n; p++)\n/* cid-translate: "
                            "comm_p2p 2 */\n::cid::core::comm_p2p("));
  EXPECT_LT(out.find("[&](::cid::core::Region&)"), out.find("for(p=0"));
}

TEST(Translate, ShmemTargetGeneratesPuts) {
  const std::string out = translate_ok(R"(
#pragma comm_p2p sender(prev) receiver(next) sbuf(src) rbuf(dst) count(4) target(TARGET_COMM_SHMEM)
{ }
)");
  EXPECT_TRUE(contains(out, ".target(::cid::core::Target::Shmem)"));
  EXPECT_FALSE(contains(out, "cid::shmem::"));
  EXPECT_FALSE(contains(out, "Target::Mpi2Side"));
}

TEST(Translate, Mpi1SideTargetGeneratesPutAndFence) {
  const std::string out = translate_ok(R"(
#pragma comm_p2p sender(prev) receiver(next) sbuf(src) rbuf(dst) count(4) target(TARGET_COMM_MPI_1SIDE)
{ }
)");
  EXPECT_TRUE(contains(out, ".target(::cid::core::Target::Mpi1Side)"));
  EXPECT_FALSE(contains(out, "Win::create"));
  EXPECT_FALSE(contains(out, ".fence()"));
}

TEST(Translate, DefaultTargetOptionApplies) {
  Options options;
  options.default_target = cid::core::Target::Shmem;
  const std::string out = translate_ok(R"(
#pragma comm_p2p sender(prev) receiver(next) sbuf(a) rbuf(b) count(1)
{ }
)",
                                       options);
  EXPECT_TRUE(contains(out, ".target(::cid::core::Target::Shmem)"));
}

TEST(Translate, TargetClauseOverridesDefault) {
  Options options;
  options.default_target = cid::core::Target::Shmem;
  const std::string out = translate_ok(R"(
#pragma comm_p2p sender(prev) receiver(next) sbuf(a) rbuf(b) count(1) target(TARGET_COMM_MPI_2SIDE)
{ }
)",
                                       options);
  EXPECT_TRUE(contains(out, ".target(::cid::core::Target::Mpi2Side)"));
  EXPECT_FALSE(contains(out, "Target::Shmem"));
}

TEST(Translate, BufferListsFanOutToCalls) {
  const std::string out = translate_ok(R"(
#pragma comm_p2p sender(f) receiver(t) sbuf(ec,nc,lc,kc) rbuf(ec,nc,lc,kc) count(size2)
{ }
)");
  // Four send and four receive buffers, in clause order.
  EXPECT_EQ(occurrences(out, ".sbuf(::cid::core::buf("), 4u);
  EXPECT_EQ(occurrences(out, ".rbuf(::cid::core::buf("), 4u);
  EXPECT_TRUE(contains(out, buffer("sbuf", "ec") + "\n    " +
                                buffer("sbuf", "nc") + "\n    " +
                                buffer("sbuf", "lc") + "\n    " +
                                buffer("sbuf", "kc")));
}

TEST(Translate, OverlapBlockEmbedded) {
  const std::string out = translate_ok(R"(
#pragma comm_p2p sender(s) receiver(r) sbuf(a) rbuf(b) count(1)
{
  calculateCoreState(comm, lsms, local, recv_p, !core_states_done);
}
)");
  EXPECT_TRUE(contains(out, "calculateCoreState(comm, lsms, local"));
  // The overlap body is the call's lambda argument, after the clauses.
  const std::size_t chain = out.find(buffer("rbuf", "b"));
  const std::size_t lambda = out.find(",\n    [&]() {\n");
  const std::size_t body = out.find("calculateCoreState");
  const std::size_t end = out.find("\n});\n");
  ASSERT_NE(chain, std::string::npos) << out;
  ASSERT_NE(lambda, std::string::npos) << out;
  ASSERT_NE(end, std::string::npos) << out;
  EXPECT_LT(chain, lambda);
  EXPECT_LT(lambda, body);
  EXPECT_LT(body, end);
}

TEST(Translate, SingleStatementBodyAccepted) {
  const std::string out = translate_ok(R"(
#pragma comm_p2p sender(s) receiver(r) sbuf(a) rbuf(b) count(1)
do_work(p);
)");
  EXPECT_TRUE(contains(out, "[&]() {\n/* cid-translate: overlapped "
                            "computation */\ndo_work(p);"));
}

TEST(Translate, PlaceSyncBeginNextRegionDefers) {
  auto result = translate_source(R"(
#pragma comm_parameters sender(0) receiver(1) count(1) place_sync(BEGIN_NEXT_PARAM_REGION)
{
#pragma comm_p2p sbuf(a) rbuf(b)
{ }
}
#pragma comm_parameters sender(0) receiver(1) count(1)
{
#pragma comm_p2p sbuf(c) rbuf(d)
{ }
}
)");
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  // Each region passes its own place_sync to the executor, which lands the
  // deferred batch at the second region's begin.
  const auto regions =
      chains(result.value().source, "::cid::core::comm_parameters(");
  ASSERT_EQ(regions.size(), 2u);
  EXPECT_TRUE(contains(
      regions[0],
      ".place_sync(::cid::core::SyncPlacement::BeginNextParamRegion)"));
  EXPECT_FALSE(contains(regions[1], ".place_sync("));
}

TEST(Translate, EndAdjacentRegionsDrainAtSeriesEnd) {
  auto result = translate_source(R"(
#pragma comm_parameters sender(0) receiver(1) count(1) place_sync(END_ADJ_PARAM_REGIONS)
{
#pragma comm_p2p sbuf(a) rbuf(b)
{ }
}
#pragma comm_parameters sender(0) receiver(1) count(1)
{
#pragma comm_p2p sbuf(c) rbuf(d)
{ }
}
)");
  ASSERT_TRUE(result.is_ok());
  const auto regions =
      chains(result.value().source, "::cid::core::comm_parameters(");
  ASSERT_EQ(regions.size(), 2u);
  EXPECT_TRUE(contains(
      regions[0],
      ".place_sync(::cid::core::SyncPlacement::EndAdjParamRegions)"));
  EXPECT_FALSE(contains(regions[1], ".place_sync("));
}

// A nested region is a comm_parameters call inside the enclosing region's
// body, carrying only its own clauses: the executor lands the enclosing
// region's open transfers at its end.
TEST(Translate, NestedRegionEndWaitsEnclosingRequests) {
  const std::string out = translate_ok(R"(
#pragma comm_parameters sender(0) receiver(1) count(1)
{
#pragma comm_p2p sbuf(a) rbuf(b)
{ }
#pragma comm_parameters count(1)
{
#pragma comm_p2p sbuf(c) rbuf(d)
{ }
}
}
)");
  const auto regions = chains(out, "::cid::core::comm_parameters(");
  ASSERT_EQ(regions.size(), 2u) << out;
  EXPECT_EQ(regions[1],
            "::cid::core::comm_parameters(::cid::core::Clauses()\n    " +
                expr("count", "1"));
  // The outer transfer, then the nested region holding the inner one.
  const std::size_t outer_post = out.find(buffer("sbuf", "a"));
  const std::size_t nested = out.find(regions[1]);
  const std::size_t nested_post = out.find(buffer("sbuf", "c"));
  ASSERT_NE(nested_post, std::string::npos) << out;
  EXPECT_LT(outer_post, nested);
  EXPECT_LT(nested, nested_post);
}

TEST(Translate, SourceWithoutDirectivesIsUnchanged) {
  const std::string source = "int main() { return 0; }\n";
  auto result = translate_source(source);
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(result.value().source, source);
  EXPECT_EQ(result.value().summary.p2p_directives, 0);
}

TEST(Translate, CollectiveIsCountedApartFromPointToPoint) {
  auto result = translate_source(R"(
#pragma comm_collective pattern(PATTERN_ONE_TO_MANY) root(0) sbuf(a) rbuf(b) count(4)
{ }
)");
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_EQ(result.value().summary.p2p_directives, 0);
  EXPECT_EQ(result.value().summary.collective_directives, 1);
  EXPECT_EQ(result.value().summary.parameter_regions, 0);
}

TEST(Translate, OtherPragmasLeftAlone) {
  const std::string source = "#pragma omp parallel for\nfor(;;) {}\n";
  auto result = translate_source(source);
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(result.value().source, source);
}

TEST(Translate, BracesInStringsAndCommentsIgnored) {
  const std::string out = translate_ok(R"(
#pragma comm_p2p sender(s) receiver(r) sbuf(a) rbuf(b) count(1)
{
  const char* text = "closing } brace";
  // also a } here
  /* and { here */
  work(text);
}
)");
  EXPECT_TRUE(contains(out, "closing } brace"));
  EXPECT_TRUE(contains(out, "work(text);\n\n});\n"));
}

TEST(Translate, ErrorsCarryLineNumbers) {
  auto bad_clause = translate_source(R"(
int x;
#pragma comm_p2p bogus(1)
{ }
)");
  ASSERT_FALSE(bad_clause.is_ok());
  EXPECT_TRUE(contains(bad_clause.status().message(), "line 3"));

  auto no_block = translate_source(
      "#pragma comm_p2p sender(s) receiver(r) sbuf(a) rbuf(b)");
  EXPECT_FALSE(no_block.is_ok());

  auto unbalanced = translate_source(R"(
#pragma comm_p2p sender(s) receiver(r) sbuf(a) rbuf(b)
{ if (x) {
)");
  EXPECT_FALSE(unbalanced.is_ok());
}

TEST(Translate, PragmaInBlockCommentIsCopiedVerbatim) {
  // No statement follows the commented-out pragma: a translator that took
  // it for a directive would reject the file.
  const std::string source =
      "/* disabled:\n"
      "#pragma comm_p2p sender(0) receiver(1) sbuf(a) rbuf(b)\n"
      "*/\n";
  auto result = translate_source(source);
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_EQ(result.value().source, source);
  EXPECT_EQ(result.value().summary.p2p_directives, 0);
}

TEST(Translate, PragmaInRawStringIsCopiedVerbatim) {
  const std::string source =
      "const char* listing = R\"(\n"
      "#pragma comm_p2p sender(0) receiver(1) sbuf(a) rbuf(b)\n"
      "{ }\n"
      ")\";\n";
  auto result = translate_source(source);
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_EQ(result.value().source, source);
  EXPECT_EQ(result.value().summary.p2p_directives, 0);
}

TEST(Translate, P2PNestedInOverlapBodyIsTranslated) {
  auto result = translate_source(R"(
#pragma comm_parameters sender(0) receiver(1) count(1)
{
#pragma comm_p2p sbuf(a) rbuf(b)
{
#pragma comm_p2p sbuf(c) rbuf(d)
{ }
}
}
)");
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  const std::string& out = result.value().source;
  EXPECT_EQ(result.value().summary.p2p_directives, 2);
  EXPECT_FALSE(contains(out, "#pragma"));
  // The nested transfer is a comm_p2p call in the outer one's overlap
  // lambda, so it joins the same region's synchronization.
  const std::size_t overlap = out.find(",\n    [&]() {\n");
  const std::size_t nested = out.find(buffer("rbuf", "d"));
  ASSERT_NE(overlap, std::string::npos) << out;
  ASSERT_NE(nested, std::string::npos) << out;
  EXPECT_LT(overlap, nested);
  EXPECT_EQ(chains(out, "::cid::core::comm_p2p(").size(), 2u);
}

TEST(Translate, UnterminatedContinuationRejectedWithScannerMessage) {
  auto result = translate_source(
      "#pragma comm_p2p sender(0) receiver(1) sbuf(a) rbuf(b) \\");
  ASSERT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().message(),
            "line 1: unterminated '\\' continuation in pragma");
}

TEST(Translate, ClauseErrorsCarryTheDirectiveLine) {
  auto result = translate_source(R"(
#pragma comm_parameters count(1)
{
#pragma comm_p2p sbuf(a) rbuf(b)
{ }
}
)");
  ASSERT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().message(),
            "line 4: comm_p2p is missing required clause(s) after "
            "inheritance: sender, receiver");
}

TEST(Translate, MissingRequiredClausesRejected) {
  auto result = translate_source(R"(
#pragma comm_p2p sbuf(a) rbuf(b)
{ }
)");
  EXPECT_FALSE(result.is_ok());
  EXPECT_TRUE(contains(result.status().message(), "sender"));
}

TEST(Translate, SummaryCounts) {
  auto result = translate_source(kListing3);
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(result.value().summary.parameter_regions, 1);
  EXPECT_EQ(result.value().summary.p2p_directives, 1);
}

TEST(Translate, AnnotationsCanBeDisabled) {
  Options options;
  options.annotate = false;
  const std::string out = translate_ok(kListing1, options);
  EXPECT_FALSE(contains(out, "cid-translate:"));
}

}  // namespace

namespace {

TEST(Translate, NestedRegionsInheritTransitively) {
  auto result = translate_source(R"(
#pragma comm_parameters sender(rank-1) receiver(rank+1) sendwhen(rank%2==0) receivewhen(rank%2==1)
{
#pragma comm_parameters count(8)
{
#pragma comm_p2p sbuf(a) rbuf(b)
{ }
}
}
)");
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  const std::string& out = result.value().source;
  // The innermost p2p inherits sender/receiver from the outer region and
  // count from the inner one, at run time: each call carries its own.
  const auto regions = chains(out, "::cid::core::comm_parameters(");
  ASSERT_EQ(regions.size(), 2u) << out;
  EXPECT_TRUE(contains(regions[0], expr("sender", "rank-1")));
  EXPECT_TRUE(contains(regions[0], expr("receiver", "rank+1")));
  EXPECT_TRUE(contains(regions[1], expr("count", "8")));
  EXPECT_FALSE(contains(regions[1], ".sender("));
  EXPECT_FALSE(contains(chains(out, "::cid::core::comm_p2p(")[0], ".count("));
  EXPECT_EQ(result.value().summary.parameter_regions, 2);
  EXPECT_EQ(result.value().summary.p2p_directives, 1);
}

TEST(Translate, InnerRegionOverridesOuterClause) {
  auto result = translate_source(R"(
#pragma comm_parameters count(4) sender(0) receiver(1)
{
#pragma comm_parameters count(16)
{
#pragma comm_p2p sbuf(a) rbuf(b)
{ }
}
}
)");
  ASSERT_TRUE(result.is_ok());
  const auto regions =
      chains(result.value().source, "::cid::core::comm_parameters(");
  ASSERT_EQ(regions.size(), 2u);
  // The inner region's own count; the executor layers it over the outer one.
  EXPECT_TRUE(contains(regions[0], expr("count", "4")));
  EXPECT_TRUE(contains(regions[1], expr("count", "16")));
  EXPECT_FALSE(contains(regions[1], expr("count", "4")));
}

TEST(Translate, RegionWhoseBodyIsABareDirective) {
  // comm_parameters followed directly by a nested directive (no braces), as
  // the paper's Listing 3 formatting allows.
  auto result = translate_source(R"(
#pragma comm_parameters sender(0) receiver(1) count(2)
#pragma comm_p2p sbuf(a) rbuf(b)
{ }
)");
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_EQ(result.value().summary.parameter_regions, 1);
  EXPECT_EQ(result.value().summary.p2p_directives, 1);
  EXPECT_TRUE(contains(result.value().source,
                       "[&](::cid::core::Region&) {\n/* cid-translate: "
                       "comm_p2p 2 */\n::cid::core::comm_p2p("));
}

TEST(Translate, MultipleIndependentP2PsShareRegionSync) {
  auto result = translate_source(R"(
#pragma comm_parameters sender(0) receiver(1) count(1)
{
#pragma comm_p2p sbuf(a) rbuf(b)
{ }
#pragma comm_p2p sbuf(c) rbuf(d)
{ }
#pragma comm_p2p sbuf(e) rbuf(f)
{ }
}
)");
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(result.value().summary.p2p_directives, 3);
  // Three calls in one region body: the executor's region end is their one
  // synchronization; the generated code holds none of its own.
  const std::string& out = result.value().source;
  const std::size_t body = out.find("[&](::cid::core::Region&)");
  const auto p2p = chains(out, "::cid::core::comm_p2p(");
  ASSERT_EQ(p2p.size(), 3u) << out;
  EXPECT_LT(body, out.find(p2p[0]));
  EXPECT_FALSE(contains(out, "waitall"));
}


TEST(Translate, ReliabilityRegionLowersThroughEmbeddedApi) {
  auto result = translate_source(R"(
#pragma comm_parameters sender(rank-1) receiver(rank+1) count(4) reliability(100, 5)
{
#pragma comm_p2p sbuf(a) rbuf(b)
{ }
}
)");
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  const std::string& out = result.value().source;
  // Like every region, a reliable one becomes an embedded-API call; the
  // ack/retransmit protocol lives in the executor.
  EXPECT_TRUE(contains(out, "::cid::core::comm_parameters("));
  EXPECT_TRUE(contains(out, ".reliability([&]"));
  EXPECT_TRUE(contains(out, "::cid::core::comm_p2p("));
  EXPECT_FALSE(contains(out, "cid::mpi::isend"));
  EXPECT_FALSE(contains(out, "cid::mpi::waitall"));
  EXPECT_EQ(result.value().summary.reliable_regions, 1);
  EXPECT_EQ(result.value().summary.parameter_regions, 1);
}

TEST(Translate, ReliabilityRejectsNonMpi2SideTargets) {
  auto result = translate_source(R"(
#pragma comm_parameters sender(0) receiver(1) count(1) reliability(100, 5) target(TARGET_COMM_SHMEM)
{
#pragma comm_p2p sbuf(a) rbuf(b)
{ }
}
)");
  ASSERT_FALSE(result.is_ok());
  EXPECT_TRUE(contains(result.status().message(), "TARGET_COMM_MPI_2SIDE"));
}

TEST(Translate, ReliabilityRejectsCollectivesInRegion) {
  auto result = translate_source(R"(
#pragma comm_parameters reliability(100, 5)
{
#pragma comm_collective pattern(PATTERN_ONE_TO_MANY) root(0) sbuf(a) rbuf(b) count(4)
{ }
}
)");
  ASSERT_FALSE(result.is_ok());
  EXPECT_TRUE(contains(result.status().message(), "comm_collective"));
}

}  // namespace

namespace {

// The executor never lets a nested region inherit place_sync: a region
// nested in a deferring one carries no place_sync of its own.
TEST(Translate, NestedRegionDoesNotInheritPlaceSync) {
  const std::string out = translate_ok(R"(
#pragma comm_parameters sender(0) receiver(1) count(1) place_sync(BEGIN_NEXT_PARAM_REGION)
{
#pragma comm_parameters reliability(100, 3)
{
#pragma comm_p2p sbuf(a) rbuf(b)
{ }
}
}
)");
  bool reliable_region = false;
  for (const std::string& chain :
       chains(out, "::cid::core::comm_parameters(")) {
    if (!contains(chain, ".reliability(")) continue;
    reliable_region = true;
    EXPECT_FALSE(contains(chain, ".place_sync(")) << chain;
  }
  EXPECT_TRUE(reliable_region) << out;
}

// target(auto) is resolved per site by the executor (cid::tune), so it
// stays Target::Auto instead of lowering to the default target.
TEST(Translate, AutoTargetStaysAuto) {
  Options options;
  options.default_target = cid::core::Target::Shmem;
  const std::string out = translate_ok(R"(
#pragma comm_p2p sender(prev) receiver(next) sbuf(a) rbuf(b) target(TARGET_COMM_AUTO)
{ }
)",
                                       options);
  EXPECT_TRUE(contains(out, ".target(::cid::core::Target::Auto)"));
  EXPECT_FALSE(contains(out, "Target::Shmem"));
}

TEST(Translate, UnknownTargetKeywordRejected) {
  auto result = translate_source(R"(
#pragma comm_p2p sender(0) receiver(1) sbuf(a) rbuf(b) target(TARGET_COMM_PIGEON)
{ }
)");
  ASSERT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().message(),
            "line 2: unknown target keyword 'TARGET_COMM_PIGEON'");
}

// A region's clauses are captured where the region opens and evaluated by
// the executor each time a transfer inside it runs.
TEST(Translate, RegionBodyIsALambda) {
  const std::string out = translate_ok(R"(
#pragma comm_parameters sender(0) receiver(1) count(1)
{
  step();
}
)");
  EXPECT_TRUE(contains(out, "[&](::cid::core::Region&) {\n\n  step();\n\n});"))
      << out;
}

}  // namespace
