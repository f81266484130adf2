// Tests for the source-to-source translator: clause inheritance resolved
// statically, codegen for all three targets, sync placement, count
// inference, and error reporting.
#include <gtest/gtest.h>

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

// Paper Listing 1.
constexpr const char* kListing1 = R"(
prev = (rank-1+nprocs)%nprocs;
next = (rank+1)%nprocs;
#pragma comm_p2p sender(prev) receiver(next) sbuf(buf1) rbuf(buf2)
{ }
)";

TEST(Translate, Listing1GeneratesNonblockingMpi) {
  const std::string out = translate_ok(kListing1);
  EXPECT_TRUE(contains(out, "cid::mpi::irecv"));
  EXPECT_TRUE(contains(out, "cid::mpi::isend"));
  EXPECT_TRUE(contains(out, "cid::mpi::waitall"));
  EXPECT_TRUE(contains(out, "(prev)"));
  EXPECT_TRUE(contains(out, "(next)"));
  // Original non-directive lines preserved.
  EXPECT_TRUE(contains(out, "prev = (rank-1+nprocs)%nprocs;"));
  // No pragma left behind.
  EXPECT_FALSE(contains(out, "#pragma comm_p2p"));
}

TEST(Translate, CountInferredFromArrays) {
  const std::string out = translate_ok(kListing1);
  EXPECT_TRUE(contains(out, "smallest_extent(buf1, buf2)"));
}

TEST(Translate, ExplicitCountPassedVerbatim) {
  const std::string out = translate_ok(R"(
#pragma comm_p2p sender(prev) receiver(next) sbuf(a) rbuf(b) count(3*n)
{ }
)");
  EXPECT_TRUE(contains(out, "(3*n)"));
  EXPECT_FALSE(contains(out, "smallest_extent"));
}

// Paper Listing 2: guards become if statements.
TEST(Translate, Listing2GuardsBecomeConditionals) {
  const std::string out = translate_ok(R"(
#pragma comm_p2p sbuf(buf1) rbuf(buf2) sender(rank-1) receiver(rank+1) sendwhen(rank%2==0) receivewhen(rank%2==1)
{ }
)");
  EXPECT_TRUE(contains(out, "if (rank%2==0)"));
  EXPECT_TRUE(contains(out, "if (rank%2==1)"));
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
  // The nested p2p inherited sender/receiver/count from the region.
  EXPECT_TRUE(contains(out, "(rank-1)"));
  EXPECT_TRUE(contains(out, "(rank+1)"));
  EXPECT_TRUE(contains(out, "(size)"));
  EXPECT_TRUE(contains(out, "&buf1[p]"));
  EXPECT_TRUE(contains(out, "&buf2[p]"));
  // Exactly one consolidated waitall for the whole region.
  EXPECT_EQ(result.value().summary.consolidated_syncs, 1);
  std::size_t count = 0;
  std::size_t pos = 0;
  while ((pos = out.find("waitall", pos)) != std::string::npos) {
    ++count;
    pos += 7;
  }
  EXPECT_EQ(count, 1u);
  // The for loop survives around the posting code.
  EXPECT_TRUE(contains(out, "for(p=0; p < n; p++)"));
}

TEST(Translate, ShmemTargetGeneratesPuts) {
  const std::string out = translate_ok(R"(
#pragma comm_p2p sender(prev) receiver(next) sbuf(src) rbuf(dst) count(4) target(TARGET_COMM_SHMEM)
{ }
)");
  EXPECT_TRUE(contains(out, "cid::shmem::putmem"));
  EXPECT_TRUE(contains(out, "cid::shmem::barrier_all"));
  EXPECT_FALSE(contains(out, "isend"));
}

TEST(Translate, Mpi1SideTargetGeneratesPutAndFence) {
  const std::string out = translate_ok(R"(
#pragma comm_p2p sender(prev) receiver(next) sbuf(src) rbuf(dst) count(4) target(TARGET_COMM_MPI_1SIDE)
{ }
)");
  EXPECT_TRUE(contains(out, "cid::mpi::Win::create"));
  EXPECT_TRUE(contains(out, ".put("));
  EXPECT_TRUE(contains(out, ".fence()"));
}

TEST(Translate, DefaultTargetOptionApplies) {
  Options options;
  options.default_target = cid::core::Target::Shmem;
  const std::string out = translate_ok(R"(
#pragma comm_p2p sender(prev) receiver(next) sbuf(a) rbuf(b) count(1)
{ }
)",
                                       options);
  EXPECT_TRUE(contains(out, "putmem"));
}

TEST(Translate, TargetClauseOverridesDefault) {
  Options options;
  options.default_target = cid::core::Target::Shmem;
  const std::string out = translate_ok(R"(
#pragma comm_p2p sender(prev) receiver(next) sbuf(a) rbuf(b) count(1) target(TARGET_COMM_MPI_2SIDE)
{ }
)",
                                       options);
  EXPECT_TRUE(contains(out, "isend"));
  EXPECT_FALSE(contains(out, "putmem"));
}

TEST(Translate, BufferListsFanOutToCalls) {
  const std::string out = translate_ok(R"(
#pragma comm_p2p sender(f) receiver(t) sbuf(ec,nc,lc,kc) rbuf(ec,nc,lc,kc) count(size2)
{ }
)");
  // Four receives and four sends.
  std::size_t sends = 0, recvs = 0, pos = 0;
  while ((pos = out.find("isend", pos)) != std::string::npos) {
    ++sends;
    pos += 5;
  }
  pos = 0;
  while ((pos = out.find("irecv", pos)) != std::string::npos) {
    ++recvs;
    pos += 5;
  }
  EXPECT_EQ(sends, 4u);
  EXPECT_EQ(recvs, 4u);
}

TEST(Translate, OverlapBlockEmbedded) {
  const std::string out = translate_ok(R"(
#pragma comm_p2p sender(s) receiver(r) sbuf(a) rbuf(b) count(1)
{
  calculateCoreState(comm, lsms, local, recv_p, !core_states_done);
}
)");
  EXPECT_TRUE(contains(out, "calculateCoreState(comm, lsms, local"));
  // The overlap body sits between the posts and the waitall.
  const std::size_t post = out.find("isend");
  const std::size_t body = out.find("calculateCoreState");
  const std::size_t sync = out.find("waitall");
  ASSERT_NE(post, std::string::npos);
  ASSERT_NE(body, std::string::npos);
  ASSERT_NE(sync, std::string::npos);
  EXPECT_LT(post, body);
  EXPECT_LT(body, sync);
}

TEST(Translate, SingleStatementBodyAccepted) {
  const std::string out = translate_ok(R"(
#pragma comm_p2p sender(s) receiver(r) sbuf(a) rbuf(b) count(1)
do_work(p);
)");
  EXPECT_TRUE(contains(out, "do_work(p);"));
  EXPECT_TRUE(contains(out, "waitall"));
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
  const std::string& out = result.value().source;
  // The first region's waitall must appear INSIDE the second region, before
  // the second region's own posting code.
  const std::size_t first_wait = out.find("waitall(cid_reqs_1)");
  const std::size_t second_region_post = out.find("cid_reqs_");
  const std::size_t second_wait = out.find("waitall(cid_reqs_", first_wait + 1);
  ASSERT_NE(first_wait, std::string::npos);
  ASSERT_NE(second_wait, std::string::npos);
  EXPECT_GT(first_wait, second_region_post);
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
  const std::string& out = result.value().source;
  // Both waitalls appear, and the deferred one is at the second region's end
  // (after the second region's posting code).
  const std::size_t deferred = out.find("waitall(cid_reqs_1)");
  const std::size_t second_post = out.rfind("isend");
  ASSERT_NE(deferred, std::string::npos);
  EXPECT_GT(deferred, second_post);
}

// A nested region's end lands every transfer posted since the last
// landing, the enclosing region's included, exactly like the runtime.
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
  // The nested region (id 3) is the block opened by its annotation.
  const std::size_t open =
      out.rfind('{', out.find("comm_parameters region 3"));
  ASSERT_NE(open, std::string::npos);
  std::size_t close = open;
  for (int depth = 0; close < out.size(); ++close) {
    if (out[close] == '{') ++depth;
    if (out[close] == '}' && --depth == 0) break;
  }
  const std::string nested = out.substr(open, close - open);
  const std::size_t post = nested.find("data_ptr(c)");
  const std::size_t outer_wait = nested.find("waitall(cid_reqs_1)");
  const std::size_t own_wait = nested.find("waitall(cid_reqs_3)");
  ASSERT_NE(post, std::string::npos) << out;
  ASSERT_NE(outer_wait, std::string::npos) << out;
  ASSERT_NE(own_wait, std::string::npos) << out;
  EXPECT_GT(outer_wait, post);
  EXPECT_GT(own_wait, post);
}

TEST(Translate, DeferredSyncWithoutNextRegionWarnsAndDrains) {
  auto result = translate_source(R"(
#pragma comm_parameters sender(0) receiver(1) count(1) place_sync(BEGIN_NEXT_PARAM_REGION)
{
#pragma comm_p2p sbuf(a) rbuf(b)
{ }
}
)");
  ASSERT_TRUE(result.is_ok());
  EXPECT_TRUE(contains(result.value().source, "WARNING"));
  EXPECT_TRUE(contains(result.value().source, "waitall"));
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
  EXPECT_TRUE(contains(out, "waitall"));
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
  EXPECT_TRUE(contains(out, "::cid::trt::data_ptr(d)"));
  // The nested transfer joins the enclosing region's consolidated sync.
  EXPECT_EQ(out.find("waitall"), out.rfind("waitall"));
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
  // The innermost p2p inherited sender/receiver from the outer region and
  // count from the inner one.
  EXPECT_TRUE(contains(out, "(rank-1)"));
  EXPECT_TRUE(contains(out, "(rank+1)"));
  EXPECT_TRUE(contains(out, "(8)"));
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
  const std::string& out = result.value().source;
  EXPECT_TRUE(contains(out, "(16)"));
  // The overridden outer count must not appear in any generated call.
  EXPECT_FALSE(contains(out, "static_cast<std::size_t>(4)"));
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
  EXPECT_TRUE(contains(result.value().source, "waitall"));
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
  EXPECT_EQ(result.value().summary.consolidated_syncs, 1);
  std::size_t waitalls = 0;
  std::size_t pos = 0;
  const std::string& out = result.value().source;
  while ((pos = out.find("waitall", pos)) != std::string::npos) {
    ++waitalls;
    pos += 7;
  }
  EXPECT_EQ(waitalls, 1u);
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
  // The protocol lives in the runtime, so the region becomes an embedded-API
  // call instead of open-coded message passing.
  EXPECT_TRUE(contains(out, "::cid::core::comm_parameters("));
  EXPECT_TRUE(contains(out, ".reliability("));
  EXPECT_TRUE(contains(out, ".p2p("));
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
