// Tests for cid::obs — histogram bucketing, the metrics registry, the
// golden Chrome trace-event export, the trace-file reader, and the live
// instrumentation path through a two-rank directive region.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "core/core.hpp"
#include "obs/obs.hpp"
#include "obs/trace_read.hpp"
#include "obs/trace_tool.hpp"
#include "rt/runtime.hpp"

namespace {

using namespace cid::core;
using cid::obs::Histogram;
using cid::obs::MetricsRegistry;
using cid::rt::RankCtx;
using cid::simnet::MachineModel;

/// Every obs test starts from a clean, disabled recorder and leaves it that
/// way: the registry is process-global, so leaked state would couple tests.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cid::obs::set_enabled(false);
    cid::obs::clear();
  }
  void TearDown() override {
    cid::obs::set_enabled(false);
    cid::obs::clear();
  }
};

// --- histogram bucketing -----------------------------------------------------

TEST_F(ObsTest, HistogramBucketZeroAbsorbsBaseAndBelow) {
  EXPECT_EQ(Histogram::bucket_of(0.0), 0);
  EXPECT_EQ(Histogram::bucket_of(-1.0), 0);
  EXPECT_EQ(Histogram::bucket_of(Histogram::kBase), 0);
  EXPECT_EQ(Histogram::bucket_of(Histogram::kBase / 2), 0);
}

TEST_F(ObsTest, HistogramBucketBoundariesAreInclusiveAbove) {
  // Bucket i covers (kBase * 2^(i-1), kBase * 2^i]: the upper bound lands in
  // its own bucket, anything just above spills into the next.
  for (int i = 1; i < 40; ++i) {
    const double upper = Histogram::bucket_upper_bound(i);
    EXPECT_EQ(Histogram::bucket_of(upper), i) << "upper bound of bucket " << i;
    EXPECT_EQ(Histogram::bucket_of(upper * 1.001), i + 1)
        << "just above bucket " << i;
  }
}

TEST_F(ObsTest, HistogramLastBucketAbsorbsEverything) {
  EXPECT_EQ(Histogram::bucket_of(1e300), Histogram::kBucketCount - 1);
}

TEST_F(ObsTest, HistogramTwoSecondsLandsInBucket31) {
  // 2 s / 1e-9 is just under 2^31, so frexp-based ceil(log2) gives 31.
  // Pinned because the golden JSON below hardcodes this bucket index.
  EXPECT_EQ(Histogram::bucket_of(2.0), 31);
}

TEST_F(ObsTest, HistogramStatistics) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.mean(), 0.0);
  h.observe(1.0);
  h.observe(3.0);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_DOUBLE_EQ(h.sum(), 4.0);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 3.0);
  EXPECT_DOUBLE_EQ(h.mean(), 2.0);
  std::uint64_t total = 0;
  for (const auto n : h.buckets()) total += n;
  EXPECT_EQ(total, 2u);
}

// --- recorder gating ---------------------------------------------------------

TEST_F(ObsTest, DisabledRecorderDropsEverything) {
  cid::obs::span({0, "sync", "flush", 0.0, 1.0, 0, 0});
  cid::obs::count("m", "s", 0);
  cid::obs::observe("m", "s", 0, 1.0);
  EXPECT_TRUE(cid::obs::spans().empty());
  EXPECT_TRUE(MetricsRegistry::global().counters().empty());
  EXPECT_TRUE(MetricsRegistry::global().histograms().empty());
}

TEST_F(ObsTest, CountersAccumulateAndSortByKey) {
  cid::obs::set_enabled(true);
  cid::obs::count("z.metric", "site", 0, 2);
  cid::obs::count("a.metric", "site", 1, 3);
  cid::obs::count("z.metric", "site", 0, 5);
  const auto counters = MetricsRegistry::global().counters();
  ASSERT_EQ(counters.size(), 2u);
  EXPECT_EQ(counters[0].key.metric, "a.metric");
  EXPECT_EQ(counters[0].value, 3u);
  EXPECT_EQ(counters[1].key.metric, "z.metric");
  EXPECT_EQ(counters[1].value, 7u);
}

// --- golden Chrome JSON ------------------------------------------------------

TEST_F(ObsTest, GoldenChromeJsonForTwoRanks) {
  cid::obs::set_enabled(true);
  // Insert out of order: the exporter must sort into the deterministic
  // (rank, begin, ...) order regardless of recording interleaving.
  cid::obs::span({1, "sync", "flush", 1.0, 2.0, 0, 0});
  cid::obs::span({0, "comm_p2p", "a.cpp:1", 0.0, 2.0, 8, 1});
  cid::obs::count("m.count", "a.cpp:1", 0, 5);
  cid::obs::observe("m.lat", "flush", 1, 2.0);

  std::ostringstream out;
  cid::obs::write_chrome_json(out);

  const std::string golden =
      "{\n"
      "\"traceEvents\": [\n"
      R"({"name":"process_name","ph":"M","pid":0,"tid":0,"args":{"name":"cid virtual time"}})"
      ",\n"
      R"({"name":"thread_name","ph":"M","pid":0,"tid":0,"args":{"name":"rank 0"}})"
      ",\n"
      R"({"name":"thread_name","ph":"M","pid":0,"tid":1,"args":{"name":"rank 1"}})"
      ",\n"
      R"({"name":"a.cpp:1","cat":"comm_p2p","ph":"X","pid":0,"tid":0,"ts":0,"dur":2000000,"args":{"bytes":8,"messages":1}})"
      ",\n"
      R"({"name":"flush","cat":"sync","ph":"X","pid":0,"tid":1,"ts":1000000,"dur":1000000,"args":{"bytes":0,"messages":0}})"
      "\n"
      "],\n"
      "\"displayTimeUnit\": \"ns\",\n"
      "\"cidMetrics\": {\n"
      "\"counters\": [\n"
      R"({"metric":"m.count","site":"a.cpp:1","rank":0,"value":5})"
      "\n"
      "],\n"
      "\"histograms\": [\n"
      R"({"metric":"m.lat","site":"flush","rank":1,"count":1,"sum":2,"min":2,"max":2,"buckets":[[31,1]]})"
      "\n"
      "]\n"
      "}\n"
      "}\n";
  EXPECT_EQ(out.str(), golden);
}

// --- JSON reader -------------------------------------------------------------

TEST_F(ObsTest, ParseJsonHandlesEscapesAndNesting) {
  const auto result = cid::obs::parse_json(
      R"({"a": [1, -2.5e3, "x\"\\\n"], "b": {"c": true, "d": null}})");
  ASSERT_TRUE(result.is_ok());
  const auto& json = result.value();
  const auto* a = json.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->array.size(), 3u);
  EXPECT_EQ(a->array[0].number, 1.0);
  EXPECT_EQ(a->array[1].number, -2500.0);
  EXPECT_EQ(a->array[2].string, "x\"\\\n");
  const auto* b = json.find("b");
  ASSERT_NE(b, nullptr);
  EXPECT_TRUE(b->find("c")->boolean);
  EXPECT_EQ(b->find("d")->kind, cid::obs::Json::Kind::Null);
}

TEST_F(ObsTest, ParseJsonRejectsGarbage) {
  EXPECT_FALSE(cid::obs::parse_json("{").is_ok());
  EXPECT_FALSE(cid::obs::parse_json("[1,]").is_ok());
  EXPECT_FALSE(cid::obs::parse_json("[1] trailing").is_ok());
}

TEST_F(ObsTest, ExportRoundTripsThroughReader) {
  cid::obs::set_enabled(true);
  cid::obs::span({0, "comm_p2p", "a.cpp:1", 0.0, 2.0, 64, 2});
  cid::obs::span({1, "sync", "flush", 1.0, 2.0, 0, 0});
  cid::obs::count("m.count", "a.cpp:1", 0, 5);
  cid::obs::observe("m.lat", "flush", 1, 2.0);

  std::ostringstream out;
  cid::obs::write_chrome_json(out);
  const auto parsed = cid::obs::parse_trace(out.str());
  ASSERT_TRUE(parsed.is_ok());
  const auto& trace = parsed.value();

  ASSERT_EQ(trace.spans.size(), 2u);  // metadata events skipped
  EXPECT_EQ(trace.spans[0].cat, "comm_p2p");
  EXPECT_EQ(trace.spans[0].rank, 0);
  EXPECT_EQ(trace.spans[0].dur_us, 2000000.0);
  EXPECT_EQ(trace.spans[0].bytes, 64u);
  EXPECT_EQ(trace.spans[0].messages, 2u);
  ASSERT_EQ(trace.counters.size(), 1u);
  EXPECT_EQ(trace.counters[0].metric, "m.count");
  EXPECT_EQ(trace.counters[0].value, 5u);
  ASSERT_EQ(trace.histograms.size(), 1u);
  EXPECT_EQ(trace.histograms[0].count, 1u);
  EXPECT_DOUBLE_EQ(trace.histograms[0].sum, 2.0);
}

TEST_F(ObsTest, ReaderRejectsBareEventArray) {
  // The one trace shape is the object write_chrome_json emits; a bare array
  // of events is valid JSON but not a trace.
  const char* text =
      R"([{"name":"a.cpp:1","cat":"comm_p2p","ph":"X","pid":0,)"
      R"("tid":2,"ts":1.5,"dur":2.5,"args":{"bytes":16,"messages":1}}])";
  ASSERT_TRUE(cid::obs::parse_json(text).is_ok());
  const auto parsed = cid::obs::parse_trace(text);
  ASSERT_FALSE(parsed.is_ok());
  EXPECT_EQ(parsed.status().code(), cid::ErrorCode::ParseError);
}

// --- summarize / diff --------------------------------------------------------

TEST_F(ObsTest, SummarizeReportsPerPhaseAndPerSite) {
  cid::obs::set_enabled(true);
  cid::obs::span({0, "comm_p2p", "a.cpp:1", 0.0, 2e-6, 128, 1});
  cid::obs::span({1, "comm_p2p", "a.cpp:1", 0.0, 2e-6, 128, 1});
  cid::obs::span({0, "sync", "flush", 2e-6, 3e-6, 0, 0});
  std::ostringstream json;
  cid::obs::write_chrome_json(json);
  const auto trace = cid::obs::parse_trace(json.str());
  ASSERT_TRUE(trace.is_ok());

  std::ostringstream report;
  cid::obs::summarize_trace(trace.value(), report);
  const std::string text = report.str();
  EXPECT_NE(text.find("3 spans on 2 rank(s)"), std::string::npos) << text;
  EXPECT_NE(text.find("comm_p2p"), std::string::npos);
  EXPECT_NE(text.find("a.cpp:1"), std::string::npos);
  EXPECT_NE(text.find("256"), std::string::npos);  // total bytes
}

TEST_F(ObsTest, DiffDetectsChangedAggregates) {
  cid::obs::TraceFile lhs;
  lhs.spans.push_back({0, "comm_p2p", "a.cpp:1", 0.0, 2.0, 128, 1});
  cid::obs::TraceFile rhs = lhs;

  std::ostringstream sink;
  EXPECT_TRUE(cid::obs::diff_traces(lhs, rhs, sink));

  rhs.spans[0].bytes = 64;
  std::ostringstream report;
  EXPECT_FALSE(cid::obs::diff_traces(lhs, rhs, report));
  EXPECT_NE(report.str().find("a.cpp:1"), std::string::npos) << report.str();
}

// --- live two-rank region ----------------------------------------------------

/// One exchange iteration with a region, two guarded p2p directives (one
/// overlapped), mirroring the paper's halo pattern at miniature scale.
void run_two_rank_region() {
  cid::rt::run(2, MachineModel::cray_xk7_gemini(), [](RankCtx&) {
    double a[4] = {1, 2, 3, 4}, b[4] = {};
    comm_parameters(Clauses().count(4), [&](Region& region) {
      region.p2p(Clauses()
                     .sender(0)
                     .receiver(1)
                     .sendwhen("rank==0")
                     .receivewhen("rank==1")
                     .sbuf(buf(a))
                     .rbuf(buf(b)));
      region.p2p(Clauses()
                     .sender(1)
                     .receiver(0)
                     .sendwhen("rank==1")
                     .receivewhen("rank==0")
                     .sbuf(buf(a))
                     .rbuf(buf(b)),
                 [] { /* overlapped compute */ });
    });
  });
}

TEST_F(ObsTest, LiveRegionRecordsAllPhaseKindsOnAllRanks) {
  cid::obs::set_enabled(true);
  run_two_rank_region();
  const auto spans = cid::obs::spans();
  ASSERT_FALSE(spans.empty());

  std::vector<std::string> cats;
  std::vector<int> ranks;
  for (const auto& s : spans) {
    if (std::find(cats.begin(), cats.end(), s.cat) == cats.end()) {
      cats.push_back(s.cat);
    }
    if (std::find(ranks.begin(), ranks.end(), s.rank) == ranks.end()) {
      ranks.push_back(s.rank);
    }
  }
  EXPECT_GE(cats.size(), 3u) << "expected region/p2p/sync/overlap kinds";
  EXPECT_EQ(ranks.size(), 2u);
  for (const char* kind : {"comm_parameters", "comm_p2p", "sync", "overlap"}) {
    EXPECT_NE(std::find(cats.begin(), cats.end(), kind), cats.end())
        << "missing phase kind " << kind;
  }

  // The forwarding layer derives per-site metrics from the same events.
  bool saw_p2p_bytes = false;
  for (const auto& row : MetricsRegistry::global().counters()) {
    if (row.key.metric == "cid.p2p.bytes_sent" && row.value > 0) {
      saw_p2p_bytes = true;
    }
  }
  EXPECT_TRUE(saw_p2p_bytes);
}

TEST_F(ObsTest, ExportedSiteNamesAreRootRelative) {
  // Site names come from std::source_location; the build strips the source
  // root, so exports, trace diffs and tune profiles match across checkouts.
  cid::obs::set_enabled(true);
  run_two_rank_region();
  std::ostringstream json;
  cid::obs::write_chrome_json(json);
  const auto trace = cid::obs::parse_trace(json.str());
  ASSERT_TRUE(trace.is_ok());
  bool saw_this_file = false;
  for (const auto& s : trace.value().spans) {
    EXPECT_FALSE(s.name.starts_with('/')) << s.name;
    saw_this_file = saw_this_file || s.name.starts_with("tests/obs_test.cpp:");
  }
  EXPECT_TRUE(saw_this_file);
  ASSERT_FALSE(trace.value().counters.empty());
  for (const auto& c : trace.value().counters) {
    EXPECT_FALSE(c.site.starts_with('/')) << c.metric << " " << c.site;
  }
  for (const auto& h : trace.value().histograms) {
    EXPECT_FALSE(h.site.starts_with('/')) << h.metric << " " << h.site;
  }
}

TEST_F(ObsTest, ExportIsByteIdenticalAcrossRuns) {
  // Deterministic virtual time + total-order serialization: two identical
  // runs must export byte-identical JSON.
  cid::obs::set_enabled(true);
  run_two_rank_region();
  std::ostringstream first;
  cid::obs::write_chrome_json(first);

  cid::obs::clear();
  run_two_rank_region();
  std::ostringstream second;
  cid::obs::write_chrome_json(second);

  EXPECT_EQ(first.str(), second.str());
  EXPECT_GT(first.str().size(), 100u);
}

TEST_F(ObsTest, EnablingObsDoesNotPerturbVirtualTime) {
  auto makespan_of = [] {
    double grid[8] = {};
    const auto result =
        cid::rt::run(2, MachineModel::cray_xk7_gemini(), [&](RankCtx&) {
          double b[8] = {};
          comm_p2p(Clauses()
                       .sender(0)
                       .receiver(1)
                       .sendwhen("rank==0")
                       .receivewhen("rank==1")
                       .sbuf(buf(grid))
                       .rbuf(buf(b)));
        });
    return result.makespan();
  };
  cid::obs::set_enabled(false);
  const double off = makespan_of();
  cid::obs::set_enabled(true);
  const double on = makespan_of();
  EXPECT_EQ(off, on);  // bit-exact, not approximately
}

}  // namespace
