// Tests for cid::obs — histogram bucketing, the metrics registry, the
// golden Chrome trace-event export, the trace-file reader, the live
// instrumentation path through a two-rank directive region, and the
// rank-local recorders' merge.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/log.hpp"
#include "core/core.hpp"
#include "obs/obs.hpp"
#include "obs/recorder.hpp"
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

// --- rank-local recorders ----------------------------------------------------

TEST_F(ObsTest, HistogramMergeEqualsObservingAllSamples) {
  // Dyadic samples keep every partial sum exact, so the merged sum must
  // equal the one-histogram sum bit for bit. The minimum and the maximum
  // both come from the second operand.
  const std::vector<double> left = {0.25, 3.0, 2048.5, 0.5};
  const std::vector<double> right = {1.0 / 1024, 4096.0, 7.75};
  Histogram all, a, b;
  for (const double v : left) {
    all.observe(v);
    a.observe(v);
  }
  for (const double v : right) {
    all.observe(v);
    b.observe(v);
  }
  Histogram merged = a;
  merged.merge(b);
  EXPECT_EQ(merged, all);

  Histogram from_empty;
  from_empty.merge(all);
  EXPECT_EQ(from_empty, all);
  Histogram unchanged = all;
  unchanged.merge(Histogram{});
  EXPECT_EQ(unchanged, all);
}

TEST_F(ObsTest, ProbesWithoutARankLandInTheSharedTable) {
  cid::obs::set_enabled(true);
  ASSERT_EQ(cid::log::thread_rank(), -1);
  cid::obs::count("main.thread", "s", 3, 2);
  std::thread([] {
    cid::obs::count("other.thread", "s", 5, 7);
    cid::obs::observe("other.thread.h", "s", 5, 1.0);
  }).join();

  const auto& shared = cid::obs::detail::shared_recorder().recorder;
  ASSERT_EQ(shared.counters.entries().size(), 2u);
  EXPECT_EQ(shared.counters.entries()[0].metric, "main.thread");
  EXPECT_EQ(shared.counters.entries()[0].rank, 3);
  EXPECT_EQ(shared.counters.entries()[1].value, 7u);
  ASSERT_EQ(shared.histograms.entries().size(), 1u);
  // No rank recorder saw them: the snapshot is exactly the shared table.
  const auto counters = MetricsRegistry::global().counters();
  ASSERT_EQ(counters.size(), 2u);
  EXPECT_EQ(counters[0].key.metric, "main.thread");
  EXPECT_EQ(counters[1].key.metric, "other.thread");
}

TEST_F(ObsTest, KeyWrittenByManyRanksExportsOneSummedRow) {
  // Like rt.deliver.messages, which every sender adds to under the
  // destination's rank: four ranks write the same keys, plus the shared
  // table from the main thread.
  cid::obs::set_enabled(true);
  cid::rt::run(4, MachineModel::cray_xk7_gemini(), [](RankCtx& ctx) {
    cid::obs::count("many.writers", "world", 0,
                    static_cast<std::uint64_t>(ctx.rank() + 1));
    cid::obs::observe("many.writers.h", "world", 0, 0.25 * (ctx.rank() + 1));
  });
  cid::obs::count("many.writers", "world", 0, 100);

  const auto counters = MetricsRegistry::global().counters();
  std::vector<cid::obs::MetricsRegistry::CounterRow> rows;
  for (const auto& row : counters) {
    if (row.key.metric == "many.writers") rows.push_back(row);
  }
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].value, 1u + 2u + 3u + 4u + 100u);

  const auto histograms = MetricsRegistry::global().histograms();
  ASSERT_EQ(histograms.size(), 1u);
  EXPECT_EQ(histograms[0].histogram.count(), 4u);
  EXPECT_EQ(histograms[0].histogram.sum(), 2.5);
  EXPECT_EQ(histograms[0].histogram.min(), 0.25);
  EXPECT_EQ(histograms[0].histogram.max(), 1.0);

  // The export carries the merged rows once each, in key order.
  for (std::size_t i = 1; i < counters.size(); ++i) {
    EXPECT_LT(counters[i - 1].key, counters[i].key);
  }
}

/// A ring on `ranks` ranks: a region with two p2p directives per iteration,
/// one overlapped, so every directive event kind and the delivery counters
/// (keyed by destination) are recorded.
cid::rt::RunResult run_ring(int ranks, const cid::rt::RunOptions& options) {
  return cid::rt::run(
      ranks, MachineModel::cray_xk7_gemini(),
      [](RankCtx& ctx) {
        const int n = ctx.nranks();
        const int me = ctx.rank();
        const int right = (me + 1) % n;
        const int left = (me + n - 1) % n;
        double out[16], from_left[16] = {}, from_right[16] = {};
        for (int i = 0; i < 16; ++i) out[i] = me * 100.0 + i;
        for (int it = 0; it < 3; ++it) {
          comm_parameters(Clauses().count(16), [&](Region& region) {
            region.p2p(Clauses()
                           .sender(left)
                           .receiver(right)
                           .sbuf(buf(out))
                           .rbuf(buf(from_left)));
            region.p2p(Clauses()
                           .sender(right)
                           .receiver(left)
                           .sbuf(buf(out))
                           .rbuf(buf(from_right)),
                       [&] { ctx.charge_compute(1e-6 * (me + 1)); });
          });
        }
        EXPECT_EQ(from_left[1], left * 100.0 + 1);
        EXPECT_EQ(from_right[2], right * 100.0 + 2);
      },
      options);
}

struct Recording {
  std::vector<cid::obs::Span> spans;
  std::vector<MetricsRegistry::CounterRow> counters;
  std::vector<MetricsRegistry::HistogramRow> histograms;
};

/// Everything recorded so far, without the schedule-dependent rt.sched.*
/// rows (the pooled scheduler reports its worker count there).
Recording snapshot() {
  Recording out;
  out.spans = cid::obs::spans();
  for (auto& row : MetricsRegistry::global().counters()) {
    if (!row.key.metric.starts_with("rt.sched.")) out.counters.push_back(row);
  }
  for (auto& row : MetricsRegistry::global().histograms()) {
    if (!row.key.metric.starts_with("rt.sched.")) {
      out.histograms.push_back(row);
    }
  }
  return out;
}

TEST_F(ObsTest, RecordingIsIdenticalAcrossSchedulers) {
  cid::obs::set_enabled(true);
  std::vector<Recording> recordings;
  for (const int workers : {1, 4, 2}) {
    cid::obs::clear();
    cid::rt::RunOptions options;
    options.sim_workers = workers;
    run_ring(8, options);
    recordings.push_back(snapshot());
  }
  const Recording& first = recordings.front();
  ASSERT_FALSE(first.spans.empty());
  ASSERT_FALSE(first.histograms.empty());
  bool saw_deliveries = false;
  for (const auto& row : first.counters) {
    saw_deliveries = saw_deliveries || row.key.metric == "rt.deliver.messages";
  }
  EXPECT_TRUE(saw_deliveries);
  for (std::size_t i = 1; i < recordings.size(); ++i) {
    SCOPED_TRACE("recording " + std::to_string(i));
    EXPECT_EQ(recordings[i].spans, first.spans);
    ASSERT_EQ(recordings[i].counters.size(), first.counters.size());
    for (std::size_t r = 0; r < first.counters.size(); ++r) {
      EXPECT_EQ(recordings[i].counters[r].key, first.counters[r].key);
      EXPECT_EQ(recordings[i].counters[r].value, first.counters[r].value)
          << first.counters[r].key.metric;
    }
    ASSERT_EQ(recordings[i].histograms.size(), first.histograms.size());
    for (std::size_t r = 0; r < first.histograms.size(); ++r) {
      EXPECT_EQ(recordings[i].histograms[r].key, first.histograms[r].key);
      EXPECT_EQ(recordings[i].histograms[r].histogram,
                first.histograms[r].histogram)
          << first.histograms[r].key.metric;
    }
  }
}

TEST_F(ObsTest, ClearLeavesOnlyTheNextRunsRecording) {
  // The recorders keep their capacity across clear(); nothing of the first
  // run may survive into the second run's snapshot.
  cid::obs::set_enabled(true);
  run_ring(3, {});
  const Recording alone = snapshot();

  cid::obs::clear();
  run_ring(6, {});
  run_two_rank_region();
  cid::obs::clear();
  run_ring(3, {});
  const Recording after = snapshot();

  EXPECT_EQ(after.spans, alone.spans);
  ASSERT_EQ(after.counters.size(), alone.counters.size());
  for (std::size_t r = 0; r < alone.counters.size(); ++r) {
    EXPECT_EQ(after.counters[r].key, alone.counters[r].key);
    EXPECT_EQ(after.counters[r].value, alone.counters[r].value);
  }
  ASSERT_EQ(after.histograms.size(), alone.histograms.size());
  for (const auto& span : after.spans) EXPECT_LT(span.rank, 3);
}

}  // namespace
