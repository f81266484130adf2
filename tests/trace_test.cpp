// Tests for directive events: the spans the directive executors record into
// cid::obs (kinds, virtual timestamps, nesting, determinism) and their
// Chrome JSON export.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <string>

#include "core/core.hpp"
#include "core/trace.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "rt/runtime.hpp"
#include "shmem/shmem.hpp"

namespace {

using namespace cid::core;
using cid::obs::Span;
using cid::rt::RankCtx;
using cid::simnet::MachineModel;

/// Records into a clean obs recorder for one scope; restores the disabled,
/// empty default even on assertion failure.
struct Recording {
  Recording() {
    cid::obs::clear();
    cid::obs::set_enabled(true);
  }
  ~Recording() {
    cid::obs::set_enabled(false);
    cid::obs::clear();
  }
};

std::vector<Span> run_traced(int nranks, const MachineModel& model,
                             const cid::rt::RankFn& fn) {
  Recording recording;
  cid::rt::run(nranks, model, fn);
  return cid::obs::spans();
}

int count_kind(const std::vector<Span>& spans, TraceEventKind kind) {
  return static_cast<int>(
      std::count_if(spans.begin(), spans.end(), [kind](const Span& s) {
        return s.cat == trace_event_kind_name(kind);
      }));
}

TEST(Trace, DisabledByDefault) {
  // With recording off, directives record nothing and cost nothing extra.
  cid::obs::clear();
  cid::rt::run(2, MachineModel::zero(), [](RankCtx&) {
    double a[2] = {}, b[2] = {};
    comm_p2p(Clauses()
                 .sender(0)
                 .receiver(1)
                 .sendwhen("rank==0")
                 .receivewhen("rank==1")
                 .sbuf(buf(a))
                 .rbuf(buf(b)));
  });
  EXPECT_TRUE(cid::obs::spans().empty());
}

TEST(Trace, RecordsP2PSpansPerRank) {
  auto spans = run_traced(3, MachineModel::zero(), [](RankCtx&) {
    double a[4] = {}, b[4] = {};
    comm_p2p(Clauses()
                 .sender("(rank-1+nprocs)%nprocs")
                 .receiver("(rank+1)%nprocs")
                 .sbuf(buf(a))
                 .rbuf(buf(b)));
  });
  EXPECT_EQ(count_kind(spans, TraceEventKind::P2PDirective), 3);
  for (const auto& s : spans) {
    EXPECT_GE(s.end, s.begin);
    EXPECT_FALSE(s.name.empty());
    if (s.cat == "comm_p2p") {
      EXPECT_EQ(s.messages, 1u);  // one send injected per rank (ring)
      EXPECT_EQ(s.bytes, 4 * sizeof(double));
    }
  }
}

TEST(Trace, RegionAndSyncSpans) {
  auto spans = run_traced(2, MachineModel::cray_xk7_gemini(), [](RankCtx&) {
    std::vector<double> data(12);
    comm_parameters(
        Clauses().sender(0).receiver(1).sendwhen("rank==0")
            .receivewhen("rank==1").count(3).max_comm_iter(4),
        [&](Region& region) {
          for (int p = 0; p < 4; ++p) {
            region.p2p(
                Clauses().sbuf(buf_n(&data[3 * p], 3)).rbuf(
                    buf_n(&data[3 * p], 3)));
          }
        });
  });
  EXPECT_EQ(count_kind(spans, TraceEventKind::RegionDirective), 2);
  EXPECT_EQ(count_kind(spans, TraceEventKind::P2PDirective), 8);
  // One consolidated sync per rank, nested inside the region span.
  EXPECT_EQ(count_kind(spans, TraceEventKind::Synchronization), 2);
  for (const auto& region_span : spans) {
    if (region_span.cat != "comm_parameters") continue;
    for (const auto& inner : spans) {
      if (inner.rank != region_span.rank || inner.cat == "comm_parameters") {
        continue;
      }
      EXPECT_GE(inner.begin, region_span.begin);
      EXPECT_LE(inner.end, region_span.end);
    }
  }
}

TEST(Trace, OverlapSpanRecorded) {
  auto spans = run_traced(2, MachineModel::cray_xk7_gemini(), [](RankCtx& ctx) {
    double a[2] = {}, b[2] = {};
    comm_p2p(Clauses()
                 .sender(0)
                 .receiver(1)
                 .sendwhen("rank==0")
                 .receivewhen("rank==1")
                 .sbuf(buf(a))
                 .rbuf(buf(b)),
             [&] { ctx.charge_compute(25e-6); });
  });
  ASSERT_EQ(count_kind(spans, TraceEventKind::Overlap), 2);
  for (const auto& s : spans) {
    if (s.cat == "overlap") {
      EXPECT_NEAR(s.end - s.begin, 25e-6, 1e-9);
    }
  }
}

TEST(Trace, CollectiveSpanRecorded) {
  auto spans = run_traced(4, MachineModel::zero(), [](RankCtx&) {
    double s[4] = {}, r[4] = {};
    comm_collective(
        Clauses().pattern(Pattern::AllToAll).count(1).sbuf(buf(s)).rbuf(
            buf(r)));
  });
  EXPECT_EQ(count_kind(spans, TraceEventKind::CollectiveDirective), 4);
}

// A region's and a collective's spans carry the bytes and messages their
// transfers sent, as the cid.region / cid.collective counters do. A
// collective's bytes are what CommStats counts: SHMEM puts here; the MPI
// target's collective traffic goes through the miniMPI collective engine,
// which CommStats does not count.
TEST(Trace, RegionAndCollectiveSpansCarryTheirBytes) {
  Recording recording;
  cid::rt::run(4, MachineModel::cray_xk7_gemini(), [](RankCtx& ctx) {
    double data[6] = {};
    comm_parameters(
        Clauses().sender(0).receiver(1).sendwhen("rank==0")
            .receivewhen("rank==1").count(3),
        [&](Region& region) {
          region.p2p(Clauses().sbuf(buf_n(&data[0], 3)).rbuf(
              buf_n(&data[0], 3)));
          region.p2p(Clauses().sbuf(buf_n(&data[3], 3)).rbuf(
              buf_n(&data[3], 3)));
        });
    double* rbuf_sym = cid::shmem::malloc_of<double>(8);
    double sbuf_local[8] = {};
    ctx.barrier();
    comm_collective(Clauses()
                        .pattern(Pattern::AllToAll)
                        .count(2)
                        .target(Target::Shmem)
                        .sbuf(buf(sbuf_local))
                        .rbuf(buf_n(rbuf_sym, 8)));
  });
  std::map<std::string, std::uint64_t> bytes_by_rank_kind;
  for (const Span& s : cid::obs::spans()) {
    if (s.cat == "comm_parameters" || s.cat == "comm_collective") {
      const std::string key = s.cat + "@" + std::to_string(s.rank);
      bytes_by_rank_kind[key] = s.bytes;
      if (s.cat == "comm_parameters") {
        EXPECT_EQ(s.messages, s.rank == 0 ? 2u : 0u) << key;
      } else {
        EXPECT_EQ(s.messages, 3u) << key;  // one put per peer
      }
    }
  }
  EXPECT_EQ(bytes_by_rank_kind["comm_parameters@0"], 6 * sizeof(double));
  EXPECT_EQ(bytes_by_rank_kind["comm_parameters@1"], 0u);
  for (int rank = 0; rank < 4; ++rank) {
    EXPECT_EQ(bytes_by_rank_kind["comm_collective@" + std::to_string(rank)],
              3 * 2 * sizeof(double));
  }
  std::uint64_t region_counter = 0;
  std::uint64_t collective_counter = 0;
  for (const auto& row : cid::obs::MetricsRegistry::global().counters()) {
    if (row.key.metric == "cid.region.bytes_sent") region_counter += row.value;
    if (row.key.metric == "cid.collective.bytes_sent") {
      collective_counter += row.value;
    }
  }
  EXPECT_EQ(region_counter, 6 * sizeof(double));
  EXPECT_EQ(collective_counter, 4 * 3 * 2 * sizeof(double));
}

TEST(Trace, DeterministicAcrossRuns) {
  auto run_once = [] {
    return run_traced(4, MachineModel::cray_xk7_gemini(), [](RankCtx&) {
      double a[8] = {}, b[8] = {};
      for (int lap = 0; lap < 3; ++lap) {
        comm_p2p(Clauses()
                     .sender("(rank-1+nprocs)%nprocs")
                     .receiver("(rank+1)%nprocs")
                     .sbuf(buf(a))
                     .rbuf(buf(b)));
      }
    });
  };
  const auto first = run_once();
  const auto second = run_once();
  ASSERT_FALSE(first.empty());
  EXPECT_TRUE(first == second);  // every field, bit for bit
}

TEST(Trace, ChromeJsonIsWellFormedEnough) {
  Recording recording;
  cid::rt::run(2, MachineModel::zero(), [](RankCtx&) {
    double a[2] = {}, b[2] = {};
    comm_p2p(Clauses()
                 .sender(0)
                 .receiver(1)
                 .sendwhen("rank==0")
                 .receivewhen("rank==1")
                 .sbuf(buf(a))
                 .rbuf(buf(b)));
  });
  std::ostringstream out;
  cid::obs::write_chrome_json(out);
  const std::string json = out.str();
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find(R"("traceEvents")"), std::string::npos);
  EXPECT_NE(json.find(R"("ph":"X")"), std::string::npos);
  EXPECT_NE(json.find(R"("cat":"comm_p2p")"), std::string::npos);
  EXPECT_NE(json.find(R"("tid":1)"), std::string::npos);
  // Balanced braces (cheap structural check).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST(Trace, ClearDropsEvents) {
  Recording recording;
  cid::rt::run(1, MachineModel::zero(), [](RankCtx&) {
    double a[1] = {}, b[1] = {};
    comm_p2p(Clauses().sender(0).receiver(0).count(1).sbuf(buf(a)).rbuf(
        buf(b)));
  });
  EXPECT_FALSE(cid::obs::spans().empty());
  cid::obs::clear();
  EXPECT_TRUE(cid::obs::spans().empty());
}

}  // namespace
