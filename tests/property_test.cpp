// Property-style tests: invariants checked over seeded random inputs and
// parameter sweeps rather than hand-picked cases — expression algebraic
// identities and print/parse round trips; datatype gather/scatter as the
// identity on random struct layouts; virtual-clock monotonicity and barrier
// max-reduction over rank sweeps; random guarded ring/pair transfers
// delivering exactly the data the guards select, on every target.
//
// NOTE: the HotPathGolden fingerprints hash directive site strings
// ("file:line" of this file), so edits above run_faulty_exchange must keep
// its line numbers stable: compensate for added/removed lines, or append below.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "core/core.hpp"
#include "faults/fault_plan.hpp"
#include "faults/injector.hpp"
#include "mpi/mpi.hpp"
#include "obs/obs.hpp"
#include "rt/runtime.hpp"
#include "shmem/shmem.hpp"

namespace {

using namespace cid::core;
using cid::Rng;
using cid::rt::RankCtx;
using cid::simnet::MachineModel;

void spmd(int nranks, const cid::rt::RankFn& fn) {
  cid::rt::run(nranks, MachineModel::zero(), fn);
}

// ---------------------------------------------------------------------------
// Expression properties
// ---------------------------------------------------------------------------

/// Random expression generator: returns (text, reference value).
class ExprGen {
 public:
  explicit ExprGen(std::uint64_t seed) : rng_(seed) {}

  struct Sample {
    std::string text;
    ExprValue value;
  };

  Sample generate(int depth) {
    if (depth <= 0 || rng_.next_below(4) == 0) {
      // Leaf: literal or bound variable.
      if (rng_.next_below(2) == 0) {
        const ExprValue v = static_cast<ExprValue>(rng_.next_below(100));
        return {std::to_string(v), v};
      }
      const int which = static_cast<int>(rng_.next_below(3));
      static const char* names[] = {"rank", "nprocs", "n"};
      static const ExprValue values[] = {5, 16, 7};
      return {names[which], values[which]};
    }
    const Sample lhs = generate(depth - 1);
    const Sample rhs = generate(depth - 1);
    switch (rng_.next_below(8)) {
      case 0:
        return {"(" + lhs.text + "+" + rhs.text + ")", lhs.value + rhs.value};
      case 1:
        return {"(" + lhs.text + "-" + rhs.text + ")", lhs.value - rhs.value};
      case 2:
        return {"(" + lhs.text + "*" + rhs.text + ")", lhs.value * rhs.value};
      case 3:
        if (rhs.value != 0) {
          return {"(" + lhs.text + "/" + rhs.text + ")",
                  lhs.value / rhs.value};
        }
        return {"(" + lhs.text + "+" + rhs.text + ")", lhs.value + rhs.value};
      case 4:
        if (rhs.value != 0) {
          return {"(" + lhs.text + "%" + rhs.text + ")",
                  lhs.value % rhs.value};
        }
        return {"(" + lhs.text + "-" + rhs.text + ")", lhs.value - rhs.value};
      case 5:
        return {"(" + lhs.text + "==" + rhs.text + ")",
                lhs.value == rhs.value ? 1 : 0};
      case 6:
        return {"(" + lhs.text + "<" + rhs.text + ")",
                lhs.value < rhs.value ? 1 : 0};
      default:
        return {"(" + lhs.text + "?" + rhs.text + ":" +
                    std::to_string(depth) + ")",
                lhs.value != 0 ? rhs.value : depth};
    }
  }

 private:
  Rng rng_;
};

class ExprProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ExprProperty, RandomTreesEvaluateToReference) {
  Env env;
  env.bind("rank", 5);
  env.bind("nprocs", 16);
  env.bind("n", 7);
  ExprGen gen(GetParam());
  for (int i = 0; i < 50; ++i) {
    const auto sample = gen.generate(4);
    auto expr = Expr::parse(sample.text);
    ASSERT_TRUE(expr.is_ok()) << sample.text;
    auto value = expr.value().eval(env);
    ASSERT_TRUE(value.is_ok()) << sample.text;
    EXPECT_EQ(value.value(), sample.value) << sample.text;
  }
}

TEST_P(ExprProperty, PrintParsePrintIsStable) {
  // Deliberately a DIFFERENT environment from the generator's reference, so
  // some expressions hit division/modulo by zero — the round-tripped form
  // must then fail identically.
  Env env;
  env.bind("rank", 3);
  env.bind("nprocs", 8);
  env.bind("n", 2);
  ExprGen gen(GetParam() ^ 0x777);
  for (int i = 0; i < 50; ++i) {
    const auto sample = gen.generate(3);
    auto first = Expr::parse(sample.text);
    ASSERT_TRUE(first.is_ok());
    const std::string printed = first.value().to_string();
    auto second = Expr::parse(printed);
    ASSERT_TRUE(second.is_ok()) << printed;
    EXPECT_EQ(second.value().to_string(), printed);
    // Evaluation agrees between original and round-tripped form — including
    // the failure case.
    const auto original = first.value().eval(env);
    const auto round_tripped = second.value().eval(env);
    ASSERT_EQ(original.is_ok(), round_tripped.is_ok()) << sample.text;
    if (original.is_ok()) {
      EXPECT_EQ(original.value(), round_tripped.value()) << sample.text;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExprProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// ---------------------------------------------------------------------------
// Datatype properties
// ---------------------------------------------------------------------------

class DatatypeProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DatatypeProperty, GatherScatterIsIdentityOnRandomLayouts) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    // Build a random non-overlapping layout inside a 256-byte extent.
    constexpr std::size_t kExtent = 256;
    std::vector<cid::mpi::TypeField> fields;
    std::size_t offset = 0;
    while (offset + 16 < kExtent && fields.size() < 12) {
      offset += rng.next_below(9);  // random hole
      // Alignment-safe block of doubles, ints or chars.
      const int kind = static_cast<int>(rng.next_below(3));
      cid::mpi::TypeField field;
      if (kind == 0) {
        offset = (offset + 7) & ~std::size_t{7};
        field = {offset, 1 + rng.next_below(3),
                 cid::mpi::BasicType::Double};
        offset += field.block_length * 8;
      } else if (kind == 1) {
        offset = (offset + 3) & ~std::size_t{3};
        field = {offset, 1 + rng.next_below(4), cid::mpi::BasicType::Int};
        offset += field.block_length * 4;
      } else {
        field = {offset, 1 + rng.next_below(8), cid::mpi::BasicType::Char};
        offset += field.block_length;
      }
      if (offset > kExtent) break;
      fields.push_back(field);
    }
    if (fields.empty()) continue;

    auto result = cid::mpi::Datatype::create_struct(fields, kExtent);
    ASSERT_TRUE(result.is_ok()) << result.status().to_string();
    auto dtype = std::move(result).take();
    dtype.commit();

    // Random element contents; remember them.
    const std::size_t count = 1 + rng.next_below(4);
    std::vector<std::byte> original(kExtent * count);
    for (auto& byte : original) {
      byte = static_cast<std::byte>(rng.next_below(256));
    }
    std::vector<std::byte> working = original;

    auto wire = dtype.gather(working.data(), count);
    EXPECT_EQ(wire.size(), dtype.payload_size() * count);

    // Corrupt the working copy, then scatter back: payload fields must be
    // restored; bytes outside fields keep the corrupted values.
    std::vector<std::byte> corrupted(working.size(),
                                     static_cast<std::byte>(0xAA));
    ASSERT_TRUE(dtype
                    .scatter(cid::ByteSpan(wire.data(), wire.size()),
                             corrupted.data(), count)
                    .is_ok());
    for (std::size_t e = 0; e < count; ++e) {
      for (const auto& field : fields) {
        const std::size_t bytes =
            field.block_length * cid::mpi::basic_type_size(field.type);
        for (std::size_t b = 0; b < bytes; ++b) {
          const std::size_t pos = e * kExtent + field.displacement + b;
          EXPECT_EQ(corrupted[pos], original[pos])
              << "trial " << trial << " field at " << field.displacement;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DatatypeProperty,
                         ::testing::Values(11, 22, 33, 44));

// ---------------------------------------------------------------------------
// Runtime properties
// ---------------------------------------------------------------------------

class BarrierProperty : public ::testing::TestWithParam<int> {};

TEST_P(BarrierProperty, BarrierEqualizesToMaximum) {
  const int nranks = GetParam();
  MachineModel model = MachineModel::zero();
  model.barrier_base = 1e-6;
  cid::rt::run(nranks, model, [nranks](RankCtx& ctx) {
    Rng rng(0xbeef ^ static_cast<std::uint64_t>(ctx.rank()));
    double expected_max = 0.0;
    for (int r = 0; r < nranks; ++r) {
      Rng peer(0xbeef ^ static_cast<std::uint64_t>(r));
      expected_max =
          std::max(expected_max, 1e-6 * static_cast<double>(
                                             peer.next_below(1000)));
    }
    ctx.charge_compute(1e-6 * static_cast<double>(rng.next_below(1000)));
    ctx.barrier();
    EXPECT_DOUBLE_EQ(ctx.clock().now(), expected_max + 1e-6);
  });
}

INSTANTIATE_TEST_SUITE_P(Sizes, BarrierProperty,
                         ::testing::Values(2, 3, 8, 17, 33));

TEST(RuntimeProperty, VirtualTimeIsDeterministicAcrossRuns) {
  auto run_once = [] {
    auto result = cid::rt::run(
        9, MachineModel::cray_xk7_gemini(), [](RankCtx& ctx) {
          namespace mpi = cid::mpi;
          auto world = mpi::Comm::world();
          double token[4] = {1, 2, 3, 4};
          const int next = (ctx.rank() + 1) % ctx.nranks();
          const int prev = (ctx.rank() - 1 + ctx.nranks()) % ctx.nranks();
          for (int lap = 0; lap < 3; ++lap) {
            auto recv_req = mpi::irecv(world, token, 4, prev, lap);
            auto send_req = mpi::isend(world, token, 4, next, lap);
            mpi::wait(recv_req);
            mpi::wait(send_req);
            ctx.barrier();
          }
        });
    return result.final_clocks;
  };
  const auto first = run_once();
  const auto second = run_once();
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_DOUBLE_EQ(first[i], second[i]) << "rank " << i;
  }
}

// ---------------------------------------------------------------------------
// Directive properties
// ---------------------------------------------------------------------------

struct DirectiveSweepParam {
  int nranks;
  Target target;
};

class DirectiveSweep
    : public ::testing::TestWithParam<DirectiveSweepParam> {};

TEST_P(DirectiveSweep, RandomGuardedTransfersDeliverExactly) {
  const auto param = GetParam();
  spmd(param.nranks, [param](RankCtx& ctx) {
    namespace shmem = cid::shmem;
    constexpr int kRounds = 6;
    constexpr int kElems = 3;
    double* rbuf_sym = shmem::malloc_of<double>(kElems);
    double sbuf_local[kElems];
    ctx.barrier();

    // Deterministic random schedule shared by all ranks: per round, a
    // random sender/receiver pair and a guard.
    Rng schedule(0x5c4edu);
    for (int round = 0; round < kRounds; ++round) {
      const int from =
          static_cast<int>(schedule.next_below(
              static_cast<std::uint64_t>(param.nranks)));
      int to = static_cast<int>(schedule.next_below(
          static_cast<std::uint64_t>(param.nranks)));
      if (to == from) to = (to + 1) % param.nranks;

      for (int i = 0; i < kElems; ++i) {
        sbuf_local[i] = ctx.rank() * 100.0 + round * 10.0 + i;
        rbuf_sym[i] = -1.0;
      }
      // Reinitialization of rbuf races with nothing: transfers complete at
      // the directive, and the schedule is globally synchronized below.
      ctx.barrier();

      comm_p2p(Clauses()
                   .sender(from)
                   .receiver(to)
                   .sendwhen([&]() -> ExprValue { return ctx.rank() == from; })
                   .receivewhen([&]() -> ExprValue { return ctx.rank() == to; })
                   .count(kElems)
                   .target(param.target)
                   .sbuf(buf(sbuf_local))
                   .rbuf(buf_n(rbuf_sym, kElems)));

      if (ctx.rank() == to) {
        for (int i = 0; i < kElems; ++i) {
          EXPECT_DOUBLE_EQ(rbuf_sym[i], from * 100.0 + round * 10.0 + i)
              << "round " << round;
        }
      } else {
        for (int i = 0; i < kElems; ++i) {
          EXPECT_DOUBLE_EQ(rbuf_sym[i], -1.0) << "round " << round;
        }
      }
      ctx.barrier();
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DirectiveSweep,
    ::testing::Values(DirectiveSweepParam{2, Target::Mpi2Side},
                      DirectiveSweepParam{5, Target::Mpi2Side},
                      DirectiveSweepParam{8, Target::Mpi2Side},
                      DirectiveSweepParam{2, Target::Shmem},
                      DirectiveSweepParam{5, Target::Shmem},
                      DirectiveSweepParam{8, Target::Shmem}));

class RingSweep : public ::testing::TestWithParam<int> {};

TEST_P(RingSweep, RingHoldsForAllSizesAndCounts) {
  const int nranks = GetParam();
  spmd(nranks, [nranks](RankCtx& ctx) {
    for (const std::size_t count : {1u, 2u, 7u, 64u}) {
      std::vector<double> out(count);
      std::vector<double> in(count, -1.0);
      for (std::size_t i = 0; i < count; ++i) {
        out[i] = ctx.rank() * 1000.0 + static_cast<double>(i);
      }
      comm_p2p(Clauses()
                   .sender("(rank-1+nprocs)%nprocs")
                   .receiver("(rank+1)%nprocs")
                   .count(static_cast<ExprValue>(count))
                   .sbuf(buf(out))
                   .rbuf(buf(in)));
      const int prev = (ctx.rank() - 1 + nranks) % nranks;
      for (std::size_t i = 0; i < count; ++i) {
        EXPECT_DOUBLE_EQ(in[i], prev * 1000.0 + static_cast<double>(i));
      }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Sizes, RingSweep,
                         ::testing::Values(1, 2, 3, 4, 6, 9, 16, 25));

// ---------------------------------------------------------------------------
// Fault-injection determinism: the whole point of the cid::faults design is
// that a seeded FaultPlan makes a faulty run a reproducible artifact. Same
// seed => identical recorded span stream and identical per-rank comm_stats,
// no matter how the OS schedules the rank threads.
// ---------------------------------------------------------------------------

/// Enable obs recording for one scope; restore the disabled default even on
/// assertion failure.
struct ObsRecordingScope {
  ObsRecordingScope() {
    cid::obs::clear();
    cid::obs::set_enabled(true);
  }
  ~ObsRecordingScope() {
    cid::obs::set_enabled(false);
    cid::obs::clear();
  }
};

struct FaultTraceRun {
  std::string trace;  ///< span_fingerprint of the run; empty if unrecorded
  std::map<int, CommStats> stats;
  cid::faults::FaultStats fault_stats;
};

/// Every field of every recorded span, in obs::spans()'s total order.
std::string span_fingerprint(const std::vector<cid::obs::Span>& spans) {
  std::ostringstream out;
  out.precision(17);
  for (const auto& s : spans) {
    out << s.rank << ' ' << s.cat << ' ' << s.name << ' ' << s.begin << ' '
        << s.end << ' ' << s.bytes << ' ' << s.messages << '\n';
  }
  return out.str();
}

/// A reliable ring exchange under a mixed fault plan, recorded by cid::obs
/// unless `record` is false.
FaultTraceRun run_faulty_exchange(std::uint64_t seed, bool record = true) {
  cid::faults::FaultSpec spec;
  spec.drop_rate = 0.08;
  spec.duplicate_rate = 0.05;
  spec.delay_rate = 0.1;
  const cid::faults::FaultPlan plan(seed, spec);

  std::optional<ObsRecordingScope> recording;
  if (record) recording.emplace();
  FaultTraceRun out;
  std::mutex mu;
  auto run = cid::faults::run_with_faults(
      4, MachineModel::cray_xk7_gemini(), plan, [&](RankCtx& ctx) {
        for (int round = 0; round < 4; ++round) {
          double sbuf_ring[4], rbuf_ring[4] = {};
          for (int i = 0; i < 4; ++i) {
            sbuf_ring[i] = ctx.rank() * 10.0 + round + i * 0.25;
          }
          comm_parameters(
              Clauses()
                  .sender("(rank-1+nprocs)%nprocs")
                  .receiver("(rank+1)%nprocs")
                  .count(4)
                  .reliability(100, 8),
              [&](Region& region) {
                region.p2p(
                    Clauses().sbuf(buf(sbuf_ring)).rbuf(buf(rbuf_ring)));
              });
          const int prev = (ctx.rank() + 3) % 4;
          for (int i = 0; i < 4; ++i) {
            EXPECT_DOUBLE_EQ(rbuf_ring[i], prev * 10.0 + round + i * 0.25);
          }
        }
        std::lock_guard<std::mutex> lock(mu);
        out.stats[ctx.rank()] = comm_stats();
      });
  out.fault_stats = run.stats;
  if (record) out.trace = span_fingerprint(cid::obs::spans());
  return out;
}

TEST(FaultDeterminism, SameSeedByteIdenticalTraceAndStats) {
  const FaultTraceRun a = run_faulty_exchange(0x5eedULL);
  const FaultTraceRun b = run_faulty_exchange(0x5eedULL);
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.stats, b.stats);
  EXPECT_EQ(a.fault_stats, b.fault_stats);
  // The plan did interfere (the runs are not trivially fault-free)...
  EXPECT_GT(a.fault_stats.faults(), 0u);
  // ...and the protocol recovered: retransmissions happened somewhere.
  std::uint64_t retransmits = 0;
  for (const auto& [rank, s] : a.stats) retransmits += s.retransmits;
  EXPECT_GT(retransmits, 0u);
}

TEST(FaultDeterminism, DifferentSeedsProduceDifferentFaultPatterns) {
  const FaultTraceRun a = run_faulty_exchange(1);
  const FaultTraceRun b = run_faulty_exchange(2);
  EXPECT_TRUE(a.trace != b.trace ||
              !(a.fault_stats == b.fault_stats));
}

// ---------------------------------------------------------------------------
// Hot-path refactor pinning. These fingerprints were captured on the
// pre-overhaul runtime (linear-scan mailbox, deep-copied payloads,
// field-by-field datatype walks, commit e787382). The indexed mailbox /
// shared-payload / pack-plan implementations are pure wall-clock
// optimizations: virtual time, traces and stats must stay byte-identical,
// so these constants must never need regeneration. (To inspect current
// values when a legitimate semantic change lands, run with
// CID_PRINT_GOLDEN=1, which prints instead of asserting.)
// ---------------------------------------------------------------------------

// Captured with CID_PRINT_GOLDEN=1 on the pre-overhaul tree. The trace hash
// was re-pinned once, when the per-run directive trace collector was folded
// into cid::obs, for two reasons: the collector's bare-array JSON is gone, so
// the hash now covers the obs span stream (span_fingerprint; not cidMetrics,
// whose mpi.pack.wall_ns histograms are host wall time), and directive site
// names are now root-relative ("tests/property_test.cpp:N"), not absolute
// paths. The stats and clock goldens were not re-pinned.
constexpr std::uint64_t kGoldenFaultyTraceHash = 0x985b44fe2ce2619eULL;
constexpr std::uint64_t kGoldenFaultyStatsHash = 0xfdedf4d0466a7a28ULL;
constexpr std::uint64_t kGoldenCleanClocksHash = 0x8a76a8c1800d04aaULL;
constexpr double kGoldenCleanMakespan = 4.8169200000000006e-05;

std::uint64_t fnv1a64(std::string_view text) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

/// Every counter of every rank in a fixed order, as text.
std::string stats_fingerprint(const std::map<int, CommStats>& stats) {
  std::ostringstream out;
  for (const auto& [rank, s] : stats) {
    out << rank << ':' << s.p2p_directives << ',' << s.regions << ','
        << s.collective_directives << ',' << s.mpi2_messages << ','
        << s.mpi2_bytes << ',' << s.mpi1_puts << ',' << s.mpi1_bytes << ','
        << s.shmem_puts << ',' << s.shmem_bytes << ',' << s.waitalls << ','
        << s.requests_retired << ',' << s.shmem_quiets << ','
        << s.window_fences << ',' << s.conflict_flushes << ','
        << s.deferred_syncs << ',' << s.datatypes_created << ','
        << s.datatype_cache_hits << ',' << s.reliable_transfers << ','
        << s.retransmits << ',' << s.timeouts << ','
        << s.duplicates_suppressed << ',' << s.undelivered_pairs << ';';
  }
  return out.str();
}

TEST(HotPathGolden, FaultyRunTraceAndStatsMatchPrePrFingerprint) {
  const FaultTraceRun run = run_faulty_exchange(0x5eedULL);
  const std::uint64_t trace_hash = fnv1a64(run.trace);
  const std::uint64_t stats_hash = fnv1a64(stats_fingerprint(run.stats));
  if (std::getenv("CID_PRINT_GOLDEN") != nullptr) {
    std::printf("faulty trace_hash  = 0x%016llxULL\n",
                static_cast<unsigned long long>(trace_hash));
    std::printf("faulty stats_hash  = 0x%016llxULL\n",
                static_cast<unsigned long long>(stats_hash));
    std::printf("faulty drops=%llu dups=%llu delays=%llu stalls=%llu\n",
                static_cast<unsigned long long>(run.fault_stats.drops),
                static_cast<unsigned long long>(run.fault_stats.duplicates),
                static_cast<unsigned long long>(run.fault_stats.delays),
                static_cast<unsigned long long>(run.fault_stats.stalls));
    GTEST_SKIP() << "golden print mode";
  }
  EXPECT_EQ(trace_hash, kGoldenFaultyTraceHash);
  EXPECT_EQ(stats_hash, kGoldenFaultyStatsHash);
}

TEST(HotPathGolden, CleanRingClocksMatchPrePrFingerprint) {
  auto result = cid::rt::run(
      9, MachineModel::cray_xk7_gemini(), [](RankCtx& ctx) {
        namespace mpi = cid::mpi;
        auto world = mpi::Comm::world();
        double token[4] = {1, 2, 3, 4};
        const int next = (ctx.rank() + 1) % ctx.nranks();
        const int prev = (ctx.rank() - 1 + ctx.nranks()) % ctx.nranks();
        for (int lap = 0; lap < 3; ++lap) {
          auto recv_req = mpi::irecv(world, token, 4, prev, lap);
          auto send_req = mpi::isend(world, token, 4, next, lap);
          mpi::wait(recv_req);
          mpi::wait(send_req);
          ctx.barrier();
        }
      });
  // Hash the exact bit patterns of every final clock.
  std::string bits(result.final_clocks.size() * sizeof(double), '\0');
  std::memcpy(bits.data(), result.final_clocks.data(), bits.size());
  const std::uint64_t clocks_hash = fnv1a64(bits);
  if (std::getenv("CID_PRINT_GOLDEN") != nullptr) {
    std::printf("clean clocks_hash  = 0x%016llxULL\n",
                static_cast<unsigned long long>(clocks_hash));
    std::printf("clean makespan     = %.17g\n", result.makespan());
    GTEST_SKIP() << "golden print mode";
  }
  EXPECT_EQ(clocks_hash, kGoldenCleanClocksHash);
  EXPECT_DOUBLE_EQ(result.makespan(), kGoldenCleanMakespan);
}

// ---------------------------------------------------------------------------
// Observability must be a pure observer: with cid::obs recording enabled
// (the CID_TRACE_OUT path), virtual time and the stats counters must match
// the same golden fingerprints bit for bit as with recording off. Recording
// never touches a rank clock, so any divergence here means a probe leaked
// into the simulation.
// ---------------------------------------------------------------------------

TEST(ObsExport, DoesNotPerturbFaultyRunGoldenFingerprints) {
  const FaultTraceRun off = run_faulty_exchange(0x5eedULL, /*record=*/false);
  EXPECT_TRUE(cid::obs::spans().empty());  // nothing recorded while off
  const FaultTraceRun on = run_faulty_exchange(0x5eedULL);
  if (std::getenv("CID_PRINT_GOLDEN") != nullptr) {
    GTEST_SKIP() << "golden print mode";
  }
  EXPECT_EQ(fnv1a64(stats_fingerprint(off.stats)), kGoldenFaultyStatsHash);
  EXPECT_EQ(fnv1a64(stats_fingerprint(on.stats)), kGoldenFaultyStatsHash);
  EXPECT_EQ(fnv1a64(on.trace), kGoldenFaultyTraceHash);
}

TEST(ObsExport, DoesNotPerturbCleanRingClocks) {
  auto clocks_hash_of = [] {
    auto result = cid::rt::run(
        9, MachineModel::cray_xk7_gemini(), [](RankCtx& ctx) {
          namespace mpi = cid::mpi;
          auto world = mpi::Comm::world();
          double token[4] = {1, 2, 3, 4};
          const int next = (ctx.rank() + 1) % ctx.nranks();
          const int prev = (ctx.rank() - 1 + ctx.nranks()) % ctx.nranks();
          for (int lap = 0; lap < 3; ++lap) {
            auto recv_req = mpi::irecv(world, token, 4, prev, lap);
            auto send_req = mpi::isend(world, token, 4, next, lap);
            mpi::wait(recv_req);
            mpi::wait(send_req);
            ctx.barrier();
          }
        });
    std::string bits(result.final_clocks.size() * sizeof(double), '\0');
    std::memcpy(bits.data(), result.final_clocks.data(), bits.size());
    return fnv1a64(bits);
  };
  std::uint64_t with_obs = 0;
  {
    ObsRecordingScope recording;
    with_obs = clocks_hash_of();
  }
  if (std::getenv("CID_PRINT_GOLDEN") != nullptr) {
    GTEST_SKIP() << "golden print mode";
  }
  EXPECT_EQ(with_obs, kGoldenCleanClocksHash);
}

}  // namespace
