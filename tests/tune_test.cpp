// cid::tune tests: profile round-trips, deterministic decision functions,
// the small-message aggregation wire format and its fault tombstones, and
// end-to-end record -> on runs proving tuned dispatch preserves semantics
// (and that CID_TUNE=off after tuner activity stays byte-identical).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "core/core.hpp"
#include "rt/agg.hpp"
#include "rt/mailbox.hpp"
#include "rt/runtime.hpp"
#include "tune/profile.hpp"
#include "tune/tune.hpp"

/// Non-contiguous element for the flat-copy tests: real padding holes
/// between the reflected fields. (Reflection must happen at global scope.)
struct TuneTestPadded {
  char c;    // offset 0, then 7 bytes of padding
  double d;  // offset 8
  int i;     // offset 16, then 4 bytes of tail padding
};
CID_REFLECT_STRUCT(TuneTestPadded, c, d, i)

namespace {

using namespace cid::core;
using cid::ByteSpan;
using cid::rt::RankCtx;
using cid::simnet::MachineModel;
namespace tune = cid::tune;
namespace agg = cid::rt::agg;

/// Set an environment variable for one scope, restoring on exit.
class EnvGuard {
 public:
  EnvGuard(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) saved_ = old;
    had_ = old != nullptr;
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~EnvGuard() {
    if (had_) {
      ::setenv(name_, saved_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  EnvGuard(const EnvGuard&) = delete;
  EnvGuard& operator=(const EnvGuard&) = delete;

 private:
  const char* name_;
  std::string saved_;
  bool had_ = false;
};

tune::SiteProfile sample_site() {
  tune::SiteProfile p;
  p.messages = 128;
  p.bytes = 8192;
  p.min_bytes = 32;
  p.mean_bytes = 64;
  p.max_bytes = 96;
  p.symmetric_ok = true;
  p.plan_ns_per_byte = 1.25;
  p.flat_ns_per_byte = 0.25;
  p.rtt_p50 = 1e-5;
  p.rtt_p99 = 4e-5;
  p.wall_rtt_p99 = 2e-3;
  p.min_timeout = 1.0;
  p.coll_calls = 12;
  p.coll_mean_bytes = 48;
  p.coll_max_bytes = 96;
  p.coll_group = 8;
  p.coll_o2m = 4;
  p.coll_m2o = 3;
  p.coll_a2a = 5;
  return p;
}

// ---------------------------------------------------------------------------
// Profile round-trip and site-key lookup.
// ---------------------------------------------------------------------------

TEST(TuneProfile, JsonRoundTripIsLossless) {
  tune::Profile profile;
  profile.sites["ring.cpp:42"] = sample_site();
  tune::SiteProfile other;
  other.messages = 1;
  other.bytes = 1 << 20;
  other.min_bytes = other.mean_bytes = other.max_bytes = 1 << 20;
  profile.sites["halo.cpp:7"] = other;

  const std::string json = profile.to_json();
  auto parsed = tune::Profile::parse(json);
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed.value().sites, profile.sites);
  // Serialization is deterministic: a second pass is byte-identical.
  EXPECT_EQ(parsed.value().to_json(), json);
}

TEST(TuneProfile, ParseRejectsGarbage) {
  EXPECT_FALSE(tune::Profile::parse("not json").is_ok());
  EXPECT_FALSE(tune::Profile::parse("{\"sites\": {}}").is_ok());  // no marker
}

TEST(TuneProfile, FindMatchesTheExactSiteKey) {
  tune::Profile profile;
  profile.sites["examples/ring.cpp:42"] = sample_site();
  EXPECT_NE(profile.find("examples/ring.cpp:42"), nullptr);
  EXPECT_EQ(profile.find("examples/ring.cpp:43"), nullptr);
  // Same basename, different file: a different site.
  EXPECT_EQ(profile.find("perfbench/ring.cpp:42"), nullptr);
}

// ---------------------------------------------------------------------------
// Decision functions: pure and deterministic given a fixed profile.
// ---------------------------------------------------------------------------

TEST(TuneDecisions, ReliabilityForcesTwoSided) {
  const auto site = sample_site();
  tune::SiteFacts facts;
  facts.reliability = true;
  facts.single_process = true;
  const auto choice =
      tune::auto_target(&site, MachineModel::cray_xk7_gemini(), facts);
  EXPECT_EQ(choice.lowering, tune::Lowering::Mpi2Side);
}

TEST(TuneDecisions, CrossProcessForcesTwoSided) {
  const auto site = sample_site();  // symmetric_ok, would otherwise pick shmem
  tune::SiteFacts facts;
  facts.single_process = false;
  const auto choice =
      tune::auto_target(&site, MachineModel::cray_xk7_gemini(), facts);
  EXPECT_EQ(choice.lowering, tune::Lowering::Mpi2Side);
}

TEST(TuneDecisions, UnknownSiteFallsBackToTwoSided) {
  tune::SiteFacts facts;
  facts.single_process = true;
  const auto choice =
      tune::auto_target(nullptr, MachineModel::cray_xk7_gemini(), facts);
  EXPECT_EQ(choice.lowering, tune::Lowering::Mpi2Side);
  EXPECT_FALSE(choice.reason.empty());
}

TEST(TuneDecisions, SymmetricSmallMessagesPickShmem) {
  // The paper's setEvec case: small messages, symmetric buffers — the SHMEM
  // put path wins on the calibrated Gemini model.
  auto site = sample_site();
  site.mean_bytes = 64;
  site.symmetric_ok = true;
  tune::SiteFacts facts;
  facts.single_process = true;
  const auto choice =
      tune::auto_target(&site, MachineModel::cray_xk7_gemini(), facts);
  EXPECT_EQ(choice.lowering, tune::Lowering::Shmem);

  // Same sizes without the symmetric heap: shmem is off the table.
  site.symmetric_ok = false;
  const auto fallback =
      tune::auto_target(&site, MachineModel::cray_xk7_gemini(), facts);
  EXPECT_NE(fallback.lowering, tune::Lowering::Shmem);
}

TEST(TuneDecisions, DecisionsAreDeterministic) {
  const auto site = sample_site();
  tune::SiteFacts facts;
  facts.single_process = true;
  const auto model = MachineModel::cray_xk7_gemini();
  const auto a = tune::auto_target(&site, model, facts);
  const auto b = tune::auto_target(&site, model, facts);
  EXPECT_EQ(a.lowering, b.lowering);
  EXPECT_EQ(a.reason, b.reason);
}

TEST(TuneDecisions, AggregationThresholdTracksEagerThreshold) {
  auto model = MachineModel::cray_xk7_gemini();
  const std::size_t threshold = tune::aggregation_threshold(model);
  EXPECT_EQ(threshold, std::clamp<std::size_t>(
                           model.mpi_two_sided.eager_threshold_bytes / 4, 64,
                           4096));
}

TEST(TuneDecisions, ShouldAggregateNeedsProfileAndSmallSizes) {
  const auto model = MachineModel::cray_xk7_gemini();
  const std::size_t threshold = tune::aggregation_threshold(model);
  auto site = sample_site();
  site.max_bytes = static_cast<double>(threshold);

  EXPECT_FALSE(tune::should_aggregate(nullptr, 8, model));
  EXPECT_TRUE(tune::should_aggregate(&site, threshold, model));
  EXPECT_FALSE(tune::should_aggregate(&site, threshold + 1, model));

  // A site that ever sent a big message never aggregates (its profile says
  // the small sizes are not representative).
  site.max_bytes = static_cast<double>(threshold) * 8;
  EXPECT_FALSE(tune::should_aggregate(&site, 8, model));
}

TEST(TuneDecisions, FlatCopyNeedsCalibrationDensityAndCrossover) {
  auto site = sample_site();  // plan 1.25 ns/B, flat 0.25 ns/B

  // Dense layout (extent 24, payload 13): flat copy wins.
  EXPECT_TRUE(tune::use_flat_copy(&site, 13, 24));
  // Too sparse: extent > 2x payload.
  EXPECT_FALSE(tune::use_flat_copy(&site, 13, 27));
  // No calibration data: never.
  site.flat_ns_per_byte = 0.0;
  EXPECT_FALSE(tune::use_flat_copy(&site, 13, 24));
  EXPECT_FALSE(tune::use_flat_copy(nullptr, 13, 24));
  // Crossover: flat rate too slow to pay for the extra wire bytes.
  site.flat_ns_per_byte = 1.2;
  EXPECT_FALSE(tune::use_flat_copy(&site, 13, 24));
}

TEST(TuneDecisions, TunedTimeoutCapsAtClauseValue) {
  auto site = sample_site();  // rtt_p99 = 4e-5
  EXPECT_DOUBLE_EQ(tune::tuned_timeout(&site, 1.0), 4.0 * 4e-5);
  EXPECT_DOUBLE_EQ(tune::tuned_timeout(&site, 1e-6), 1e-6);  // clause smaller
  site.rtt_p99 = 0.0;
  EXPECT_DOUBLE_EQ(tune::tuned_timeout(&site, 0.5), 0.5);  // no data
  EXPECT_DOUBLE_EQ(tune::tuned_timeout(nullptr, 0.5), 0.5);
}

// ---------------------------------------------------------------------------
// Collective algorithm selection: decision pins on the cray model in both
// asymptotic regimes, applicability checks, and CID_COLL parsing.
// ---------------------------------------------------------------------------

tune::CollChoice choose(tune::CollOp op, std::size_t block, int nprocs,
                        const tune::SiteProfile* profile = nullptr) {
  const bool vector_op = op == tune::CollOp::Bcast ||
                         op == tune::CollOp::Reduce ||
                         op == tune::CollOp::Allreduce;
  const tune::CollShape shape{
      block,
      vector_op ? block : block * static_cast<std::size_t>(nprocs), nprocs};
  return tune::choose_collective(op, shape, MachineModel::cray_xk7_gemini(),
                                 profile);
}

TEST(TuneColl, DecisionPinsOnCrayModel) {
  using tune::CollAlgo;
  using tune::CollOp;
  // Latency-bound shapes take the logarithmic algorithms; bandwidth-bound
  // shapes take the pipelined / windowed ones. All pins sit comfortably
  // inside their asymptotic regime so small model tweaks don't flip them.
  EXPECT_EQ(choose(CollOp::Bcast, 8, 1024).algo, CollAlgo::Binomial);
  EXPECT_EQ(choose(CollOp::Bcast, 16u << 20, 64).algo, CollAlgo::VanDeGeijn);
  EXPECT_EQ(choose(CollOp::Gather, 64, 4).algo, CollAlgo::Flat);
  EXPECT_EQ(choose(CollOp::Gather, 64, 256).algo, CollAlgo::Binomial);
  EXPECT_EQ(choose(CollOp::Scatter, 64, 256).algo, CollAlgo::Binomial);
  EXPECT_EQ(choose(CollOp::Allgather, 2, 1024).algo,
            CollAlgo::RecursiveDoubling);
  EXPECT_EQ(choose(CollOp::Allgather, 4096, 1024).algo, CollAlgo::Ring);
  EXPECT_EQ(choose(CollOp::Allgather, 2, 1000).algo, CollAlgo::Ring)
      << "recursive doubling must not fire on non-power-of-two groups";
  EXPECT_EQ(choose(CollOp::Alltoall, 8, 1024).algo, CollAlgo::Bruck);
  EXPECT_EQ(choose(CollOp::Alltoall, 64u << 10, 1024).algo,
            CollAlgo::PairwiseWindow);
  EXPECT_EQ(choose(CollOp::Reduce, 8, 1024).algo, CollAlgo::Binomial);
  EXPECT_EQ(choose(CollOp::Reduce, 4u << 20, 64).algo,
            CollAlgo::Rabenseifner);
  EXPECT_EQ(choose(CollOp::Allreduce, 8, 1024).algo,
            CollAlgo::RecursiveDoubling);
  EXPECT_EQ(choose(CollOp::Allreduce, 16u << 20, 1024).algo, CollAlgo::Ring);
  // Degenerate group.
  EXPECT_EQ(choose(CollOp::Allreduce, 8, 1).algo, CollAlgo::Flat);
}

TEST(TuneColl, DecisionsAreDeterministic) {
  for (int i = 0; i < 3; ++i) {
    const auto a = choose(tune::CollOp::Alltoall, 8, 1024);
    const auto b = choose(tune::CollOp::Alltoall, 8, 1024);
    EXPECT_EQ(a.algo, b.algo);
    EXPECT_STREQ(a.reason, b.reason);
  }
}

TEST(TuneColl, ProfileSteeringOverridesCallShape) {
  // A recorded site decides by its observed mean block size: a site whose
  // history says "8-byte blocks" keeps Bruck even when one call is large.
  auto site = sample_site();
  site.coll_calls = 100;
  site.coll_mean_bytes = 8;
  EXPECT_EQ(choose(tune::CollOp::Alltoall, 64u << 10, 1024).algo,
            tune::CollAlgo::PairwiseWindow);
  EXPECT_EQ(choose(tune::CollOp::Alltoall, 64u << 10, 1024, &site).algo,
            tune::CollAlgo::Bruck);
  // A profile with no collective history leaves the call shape in charge.
  site.coll_calls = 0;
  EXPECT_EQ(choose(tune::CollOp::Alltoall, 64u << 10, 1024, &site).algo,
            tune::CollAlgo::PairwiseWindow);
}

TEST(TuneColl, AlgoValidityMatrix) {
  using tune::CollAlgo;
  using tune::CollOp;
  EXPECT_TRUE(tune::coll_algo_valid(CollOp::Bcast, CollAlgo::VanDeGeijn, 8));
  EXPECT_FALSE(tune::coll_algo_valid(CollOp::Bcast, CollAlgo::Bruck, 8));
  EXPECT_TRUE(
      tune::coll_algo_valid(CollOp::Allgather, CollAlgo::RecursiveDoubling, 8));
  EXPECT_FALSE(
      tune::coll_algo_valid(CollOp::Allgather, CollAlgo::RecursiveDoubling, 6));
  EXPECT_TRUE(tune::coll_algo_valid(CollOp::Allreduce, CollAlgo::Ring, 6));
  EXPECT_FALSE(tune::coll_algo_valid(CollOp::Gather, CollAlgo::Ring, 6));
}

TEST(TuneColl, ParseOverridesRoundTrip) {
  auto parsed = tune::parse_coll_overrides(
      "alltoall:bruck,allreduce:rd,allgather:recursive_doubling");
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  const auto& o = parsed.value();
  EXPECT_EQ(o[static_cast<std::size_t>(tune::CollOp::Alltoall)],
            tune::CollAlgo::Bruck);
  EXPECT_EQ(o[static_cast<std::size_t>(tune::CollOp::Allreduce)],
            tune::CollAlgo::RecursiveDoubling);
  EXPECT_EQ(o[static_cast<std::size_t>(tune::CollOp::Allgather)],
            tune::CollAlgo::RecursiveDoubling);
  EXPECT_FALSE(o[static_cast<std::size_t>(tune::CollOp::Bcast)].has_value());
}

TEST(TuneColl, ParseOverridesRejectsBadEntries) {
  EXPECT_FALSE(tune::parse_coll_overrides("alltoall").is_ok());
  EXPECT_FALSE(tune::parse_coll_overrides("frobnicate:ring").is_ok());
  EXPECT_FALSE(tune::parse_coll_overrides("alltoall:warp").is_ok());
  EXPECT_FALSE(tune::parse_coll_overrides("bcast:bruck").is_ok());
  EXPECT_TRUE(tune::parse_coll_overrides("").is_ok());
  EXPECT_TRUE(tune::parse_coll_overrides("alltoall:bruck,").is_ok());
}

// ---------------------------------------------------------------------------
// Aggregation wire format and the mailbox split.
// ---------------------------------------------------------------------------

std::vector<std::byte> bytes_of(const std::string& text) {
  std::vector<std::byte> out(text.size());
  std::memcpy(out.data(), text.data(), text.size());
  return out;
}

TEST(TuneAgg, CodecRoundTrips) {
  std::vector<std::byte> wire;
  const auto a = bytes_of("hello");
  const auto b = bytes_of("world!!");
  agg::append(wire, /*tag=*/7, /*context=*/1, ByteSpan(a.data(), a.size()));
  agg::append(wire, /*tag=*/9, /*context=*/1, ByteSpan(b.data(), b.size()));
  EXPECT_EQ(agg::count(ByteSpan(wire.data(), wire.size())), 2u);

  std::vector<agg::Sub> subs;
  ASSERT_TRUE(
      agg::decode(ByteSpan(wire.data(), wire.size()), false, subs));
  ASSERT_EQ(subs.size(), 2u);
  EXPECT_EQ(subs[0].tag, 7);
  EXPECT_EQ(subs[0].bytes, 5u);
  EXPECT_EQ(subs[1].tag, 9);
  EXPECT_EQ(subs[1].bytes, 7u);
  EXPECT_EQ(std::memcmp(wire.data() + subs[1].offset, "world!!", 7), 0);
}

TEST(TuneAgg, MergeCarriesSubsAcrossBuffers) {
  std::vector<std::byte> first;
  std::vector<std::byte> second;
  const auto a = bytes_of("aa");
  const auto b = bytes_of("bbb");
  agg::append(first, 1, 0, ByteSpan(a.data(), a.size()));
  agg::append(second, 2, 0, ByteSpan(b.data(), b.size()));
  agg::merge(first, ByteSpan(second.data(), second.size()));
  EXPECT_EQ(agg::count(ByteSpan(first.data(), first.size())), 2u);
  std::vector<agg::Sub> subs;
  ASSERT_TRUE(agg::decode(ByteSpan(first.data(), first.size()), false, subs));
  EXPECT_EQ(subs[1].tag, 2);
  EXPECT_EQ(subs[1].bytes, 3u);
}

TEST(TuneAgg, DecodeRejectsTruncatedWire) {
  std::vector<std::byte> wire;
  const auto a = bytes_of("payload");
  agg::append(wire, 3, 0, ByteSpan(a.data(), a.size()));
  wire.pop_back();
  std::vector<agg::Sub> subs;
  EXPECT_FALSE(agg::decode(ByteSpan(wire.data(), wire.size()), false, subs));
}

TEST(TuneAgg, MailboxSplitsAggregateIntoOrderedSubEnvelopes) {
  std::vector<std::byte> wire;
  const auto a = bytes_of("first");
  const auto b = bytes_of("second");
  agg::append(wire, 2000, 5, ByteSpan(a.data(), a.size()));
  agg::append(wire, 2000, 5, ByteSpan(b.data(), b.size()));

  cid::rt::Mailbox mailbox;
  cid::rt::Envelope envelope;
  envelope.src = 3;
  envelope.tag = 0;
  envelope.channel = cid::rt::Channel::Internal;
  envelope.context = agg::kContext;
  envelope.available_at = 1.5;
  envelope.payload = cid::rt::Payload(std::vector<std::byte>(wire));
  mailbox.push(std::move(envelope));
  EXPECT_EQ(mailbox.size(), 2u);

  cid::rt::MatchKey key;
  key.channel = cid::rt::Channel::MpiPointToPoint;
  key.context = 5;
  key.src = 3;
  key.tag = 2000;
  auto one = mailbox.try_extract(key);
  auto two = mailbox.try_extract(key);
  ASSERT_TRUE(one.has_value());
  ASSERT_TRUE(two.has_value());
  // Same per-source order as unbatched pushes, same metadata and payloads.
  EXPECT_LT(one->seq, two->seq);
  EXPECT_DOUBLE_EQ(one->available_at, 1.5);
  ASSERT_EQ(one->payload.span().size(), 5u);
  EXPECT_EQ(std::memcmp(one->payload.span().data(), "first", 5), 0);
  ASSERT_EQ(two->payload.span().size(), 6u);
  EXPECT_EQ(std::memcmp(two->payload.span().data(), "second", 6), 0);
  EXPECT_FALSE(one->faulted);
}

TEST(TuneAgg, TombstoneFansOutFaultedPayloadlessSubs) {
  std::vector<std::byte> wire;
  const auto a = bytes_of("first");
  const auto b = bytes_of("second");
  agg::append(wire, 2000, 5, ByteSpan(a.data(), a.size()));
  agg::append(wire, 2001, 5, ByteSpan(b.data(), b.size()));

  // What World::deliver does to a dropped aggregate: keep headers, drop
  // payload bytes, mark faulted.
  cid::rt::Envelope envelope;
  envelope.src = 1;
  envelope.channel = cid::rt::Channel::Internal;
  envelope.context = agg::kContext;
  envelope.payload =
      cid::rt::Payload(agg::tombstone(ByteSpan(wire.data(), wire.size())));
  envelope.faulted = true;

  cid::rt::Mailbox mailbox;
  mailbox.push(std::move(envelope));
  EXPECT_EQ(mailbox.size(), 2u);

  cid::rt::MatchKey key;
  key.channel = cid::rt::Channel::MpiPointToPoint;
  key.context = 5;
  key.src = 1;
  key.tag = 2000;
  key.faults = cid::rt::FaultFilter::Faulted;
  auto one = mailbox.try_extract(key);
  ASSERT_TRUE(one.has_value());
  EXPECT_TRUE(one->faulted);
  EXPECT_EQ(one->payload.span().size(), 0u);  // tombstones carry no bytes
  key.tag = 2001;
  auto two = mailbox.try_extract(key);
  ASSERT_TRUE(two.has_value());
  EXPECT_TRUE(two->faulted);
}

// ---------------------------------------------------------------------------
// End to end: record -> on preserves data and stats semantics; off stays
// byte-identical even after tuner activity in the same process.
// ---------------------------------------------------------------------------

struct RingRun {
  std::map<int, CommStats> stats;
  std::map<int, std::vector<double>> received;
  std::vector<double> clocks;
};

/// A one-shot region (no max_comm_iter, so no persistent requests): each
/// rank ships four small messages to its right neighbour.
RingRun run_small_message_ring(int nranks) {
  RingRun out;
  std::mutex mu;
  auto result = cid::rt::run(
      nranks, MachineModel::cray_xk7_gemini(), [&](RankCtx& ctx) {
        double s0[4], s1[4], s2[4], s3[4];
        double r0[4] = {}, r1[4] = {}, r2[4] = {}, r3[4] = {};
        for (int i = 0; i < 4; ++i) {
          s0[i] = ctx.rank() * 100.0 + i;
          s1[i] = ctx.rank() * 100.0 + 10 + i;
          s2[i] = ctx.rank() * 100.0 + 20 + i;
          s3[i] = ctx.rank() * 100.0 + 30 + i;
        }
        comm_parameters(
            Clauses()
                .sender("(rank-1+nprocs)%nprocs")
                .receiver("(rank+1)%nprocs"),
            [&](Region& region) {
              region.p2p(Clauses().sbuf(buf(s0)).rbuf(buf(r0)));
              region.p2p(Clauses().sbuf(buf(s1)).rbuf(buf(r1)));
              region.p2p(Clauses().sbuf(buf(s2)).rbuf(buf(r2)));
              region.p2p(Clauses().sbuf(buf(s3)).rbuf(buf(r3)));
            });
        std::lock_guard<std::mutex> lock(mu);
        auto& got = out.received[ctx.rank()];
        got.insert(got.end(), r0, r0 + 4);
        got.insert(got.end(), r1, r1 + 4);
        got.insert(got.end(), r2, r2 + 4);
        got.insert(got.end(), r3, r3 + 4);
        out.stats[ctx.rank()] = comm_stats();
      });
  out.clocks = result.final_clocks;
  return out;
}

void expect_ring_data(const RingRun& run, int nranks) {
  for (const auto& [rank, got] : run.received) {
    const int prev = (rank - 1 + nranks) % nranks;
    ASSERT_EQ(got.size(), 16u);
    for (int m = 0; m < 4; ++m) {
      for (int i = 0; i < 4; ++i) {
        EXPECT_DOUBLE_EQ(got[static_cast<std::size_t>(m * 4 + i)],
                         prev * 100.0 + m * 10 + i)
            << "rank " << rank << " message " << m << " element " << i;
      }
    }
  }
}

TEST(TuneEndToEnd, RecordThenOnAggregatesWithoutChangingSemantics) {
  constexpr int kRanks = 4;
  EnvGuard profile_env("CID_TUNE_PROFILE", nullptr);

  RingRun untuned;
  {
    EnvGuard env("CID_TUNE", nullptr);
    untuned = run_small_message_ring(kRanks);
  }
  expect_ring_data(untuned, kRanks);

  {
    EnvGuard env("CID_TUNE", "record");
    const RingRun recorded = run_small_message_ring(kRanks);
    expect_ring_data(recorded, kRanks);
  }
  // The record run populated per-site size statistics.
  EXPECT_FALSE(tune::Tuner::global().profile().empty());

  RingRun tuned;
  {
    EnvGuard env("CID_TUNE", "on");
    tuned = run_small_message_ring(kRanks);
  }
  expect_ring_data(tuned, kRanks);

  std::uint64_t untuned_retired = 0;
  std::uint64_t tuned_retired = 0;
  for (int r = 0; r < kRanks; ++r) {
    const CommStats& u = untuned.stats.at(r);
    const CommStats& t = tuned.stats.at(r);
    // Semantic invariants: same logical messages and bytes through the same
    // lowering, same directive/region counts.
    EXPECT_EQ(u.mpi2_messages, t.mpi2_messages);
    EXPECT_EQ(u.mpi2_bytes, t.mpi2_bytes);
    EXPECT_EQ(u.p2p_directives, t.p2p_directives);
    EXPECT_EQ(u.regions, t.regions);
    untuned_retired += u.requests_retired;
    tuned_retired += t.requests_retired;
  }
  // Mechanical proof that aggregation engaged: the four per-destination
  // sends collapsed into one wire envelope, so fewer requests were retired.
  EXPECT_LT(tuned_retired, untuned_retired);
}

TEST(TuneEndToEnd, OffIsByteIdenticalAfterTunerActivity) {
  constexpr int kRanks = 4;
  EnvGuard profile_env("CID_TUNE_PROFILE", nullptr);

  RingRun before;
  {
    EnvGuard env("CID_TUNE", nullptr);
    before = run_small_message_ring(kRanks);
  }
  // Record and tune in between...
  {
    EnvGuard env("CID_TUNE", "record");
    run_small_message_ring(kRanks);
  }
  {
    EnvGuard env("CID_TUNE", "on");
    run_small_message_ring(kRanks);
  }
  // ...then off again: stats and every rank's final virtual clock must be
  // bit-identical to the pristine run.
  RingRun after;
  {
    EnvGuard env("CID_TUNE", "off");
    after = run_small_message_ring(kRanks);
  }
  EXPECT_EQ(before.stats, after.stats);
  ASSERT_EQ(before.clocks.size(), after.clocks.size());
  for (std::size_t r = 0; r < before.clocks.size(); ++r) {
    EXPECT_EQ(before.clocks[r], after.clocks[r]) << "rank " << r;
  }
}

TEST(TuneEndToEnd, RecordPersistsProfileToFile) {
  const std::string path = ::testing::TempDir() + "cid_tune_profile.json";
  std::remove(path.c_str());
  {
    EnvGuard env("CID_TUNE", "record");
    EnvGuard profile_env("CID_TUNE_PROFILE", path.c_str());
    run_small_message_ring(2);
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "profile file not written: " << path;
  std::ostringstream text;
  text << in.rdbuf();
  auto parsed = tune::Profile::parse(text.str());
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  EXPECT_FALSE(parsed.value().empty());
  for (const auto& [site, p] : parsed.value().sites) {
    EXPECT_TRUE(site.starts_with("tests/tune_test.cpp:")) << site;
    EXPECT_GT(p.messages, 0u);
    EXPECT_EQ(p.mean_bytes, 32.0);  // 4 doubles per message
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Flat-copy: a non-contiguous layout shipped as whole extents when the
// profile says the memcpy wins; pack-plan holes stay untouched either way.
// ---------------------------------------------------------------------------

using Padded = TuneTestPadded;

struct PaddedRun {
  std::map<int, std::vector<Padded>> received;
  std::map<int, CommStats> stats;
};

PaddedRun run_padded_exchange(int nranks) {
  PaddedRun out;
  std::mutex mu;
  cid::rt::run(nranks, MachineModel::cray_xk7_gemini(), [&](RankCtx& ctx) {
    Padded send[3];
    Padded recv[3];
    // Poison the receive buffer: the pack plan (and the flat-copy scatter)
    // must only write the reflected fields, never the padding holes.
    std::memset(recv, 0xAB, sizeof(recv));
    for (int k = 0; k < 3; ++k) {
      send[k].c = static_cast<char>('a' + ctx.rank() + k);
      send[k].d = ctx.rank() * 2.5 + k;
      send[k].i = ctx.rank() * 1000 + k;
    }
    comm_parameters(Clauses()
                        .sender("(rank-1+nprocs)%nprocs")
                        .receiver("(rank+1)%nprocs")
                        .count(3),
                    [&](Region& region) {
                      region.p2p(Clauses()
                                     .sbuf(buf(&send[0], "send"))
                                     .rbuf(buf(&recv[0], "recv")));
                    });
    std::lock_guard<std::mutex> lock(mu);
    out.received[ctx.rank()] = {recv[0], recv[1], recv[2]};
    out.stats[ctx.rank()] = comm_stats();
  });
  return out;
}

void expect_padded_data(const PaddedRun& run, int nranks) {
  for (const auto& [rank, got] : run.received) {
    const int prev = (rank - 1 + nranks) % nranks;
    ASSERT_EQ(got.size(), 3u);
    for (int k = 0; k < 3; ++k) {
      const auto& e = got[static_cast<std::size_t>(k)];
      EXPECT_EQ(e.c, static_cast<char>('a' + prev + k));
      EXPECT_DOUBLE_EQ(e.d, prev * 2.5 + k);
      EXPECT_EQ(e.i, prev * 1000 + k);
      // The padding holes kept their poison bytes.
      const auto* raw = reinterpret_cast<const unsigned char*>(&e);
      for (std::size_t off = 1; off < 8; ++off) {
        EXPECT_EQ(raw[off], 0xABu) << "hole byte " << off << " overwritten";
      }
    }
  }
}

TEST(TuneEndToEnd, FlatCopyPreservesFieldsAndHoles) {
  constexpr int kRanks = 3;
  EnvGuard profile_env("CID_TUNE_PROFILE", nullptr);

  // Record once so the profile learns the real site keys (and calibrates
  // the copy rates for the non-contiguous layout).
  {
    EnvGuard env("CID_TUNE", "record");
    const PaddedRun recorded = run_padded_exchange(kRanks);
    expect_padded_data(recorded, kRanks);
  }
  bool calibrated = false;
  for (const auto& [site, p] : tune::Tuner::global().profile().sites) {
    if (p.plan_ns_per_byte > 0.0 && p.flat_ns_per_byte > 0.0) {
      calibrated = true;
    }
  }
  EXPECT_TRUE(calibrated) << "record run never calibrated the copy rates";

  // Force the flat-copy branch deterministically: overwrite the measured
  // rates so the crossover always picks flat, and inflate max_bytes so
  // aggregation (which would otherwise win) stays off.
  tune::Profile forced = tune::Tuner::global().profile();
  for (auto& [site, p] : forced.sites) {
    p.plan_ns_per_byte = 10.0;
    p.flat_ns_per_byte = 0.1;
    p.max_bytes = 1e9;
  }
  tune::Tuner::global().set_profile(std::move(forced));

  PaddedRun tuned;
  {
    EnvGuard env("CID_TUNE", "on");
    tuned = run_padded_exchange(kRanks);
  }
  expect_padded_data(tuned, kRanks);

  PaddedRun untuned;
  {
    EnvGuard env("CID_TUNE", nullptr);
    untuned = run_padded_exchange(kRanks);
  }
  for (int r = 0; r < kRanks; ++r) {
    // Same logical traffic either way.
    EXPECT_EQ(untuned.stats.at(r).mpi2_messages,
              tuned.stats.at(r).mpi2_messages);
  }
}

// ---------------------------------------------------------------------------
// Reliability RTT recording feeds the timeout derivation.
// ---------------------------------------------------------------------------

TEST(TuneEndToEnd, RecordCapturesReliabilityRtts) {
  EnvGuard profile_env("CID_TUNE_PROFILE", nullptr);
  EnvGuard env("CID_TUNE", "record");
  cid::rt::run(2, MachineModel::cray_xk7_gemini(), [&](RankCtx& ctx) {
    double s[2] = {ctx.rank() + 0.5, ctx.rank() + 1.5};
    double r[2] = {};
    comm_parameters(Clauses()
                        .sender("(rank-1+nprocs)%nprocs")
                        .receiver("(rank+1)%nprocs")
                        .reliability(100, 4),
                    [&](Region& region) {
                      region.p2p(Clauses().sbuf(buf(s)).rbuf(buf(r)));
                    });
  });
  bool saw_rtt = false;
  for (const auto& [site, p] : tune::Tuner::global().profile().sites) {
    if (p.rtt_p99 > 0.0 && p.min_timeout > 0.0) {
      saw_rtt = true;
      // The derived timeout can only tighten the clause value.
      EXPECT_LE(tune::tuned_timeout(&p, p.min_timeout), p.min_timeout);
    }
  }
  EXPECT_TRUE(saw_rtt) << "reliable record run captured no RTT samples";
}

}  // namespace
