// Tests for the SPMD runtime: launch, rank identity, virtual clocks,
// max-reducing barrier, mailboxes, failure poisoning.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <new>
#include <numeric>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>

#include "common/rng.hpp"
#include "rt/arena.hpp"
#include "rt/mailbox.hpp"
#include "rt/payload.hpp"
#include "rt/runtime.hpp"
#include "rt/sched.hpp"

namespace {
/// Global operator new calls in this process, so a test can check that a
/// code path allocates nothing.
std::atomic<long> g_allocations{0};
}  // namespace

// noinline: inlined into a caller, the free() below would look mismatched
// with that caller's new-expression to GCC's -Wmismatched-new-delete.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace {

using cid::rt::RankCtx;
using cid::simnet::MachineModel;

TEST(Runtime, RunsEveryRankExactlyOnce) {
  std::atomic<int> visits{0};
  std::array<std::atomic<int>, 8> per_rank{};
  cid::rt::run(8, MachineModel::zero(), [&](RankCtx& ctx) {
    visits.fetch_add(1);
    per_rank[static_cast<std::size_t>(ctx.rank())].fetch_add(1);
    EXPECT_EQ(ctx.nranks(), 8);
  });
  EXPECT_EQ(visits.load(), 8);
  for (const auto& count : per_rank) EXPECT_EQ(count.load(), 1);
}

TEST(Runtime, SingleRankWorldWorks) {
  auto result = cid::rt::run(1, MachineModel::zero(),
                             [](RankCtx& ctx) { ctx.barrier(); });
  EXPECT_EQ(result.final_clocks.size(), 1u);
}

TEST(Runtime, RejectsZeroRanks) {
  EXPECT_THROW(cid::rt::run(0, MachineModel::zero(), [](RankCtx&) {}),
               cid::CidError);
}

TEST(Runtime, CurrentCtxOutsideRegionThrows) {
  EXPECT_THROW(cid::rt::current_ctx(), cid::CidError);
  EXPECT_FALSE(cid::rt::in_spmd_region());
}

TEST(Runtime, CurrentCtxInsideRegionMatchesArgument) {
  cid::rt::run(4, MachineModel::zero(), [](RankCtx& ctx) {
    EXPECT_TRUE(cid::rt::in_spmd_region());
    EXPECT_EQ(&cid::rt::current_ctx(), &ctx);
  });
}

TEST(Runtime, ChargeComputeAdvancesOnlyLocalClock) {
  auto result = cid::rt::run(3, MachineModel::zero(), [](RankCtx& ctx) {
    ctx.charge_compute(static_cast<double>(ctx.rank()) * 1e-3);
  });
  EXPECT_DOUBLE_EQ(result.final_clocks[0], 0.0);
  EXPECT_DOUBLE_EQ(result.final_clocks[1], 1e-3);
  EXPECT_DOUBLE_EQ(result.final_clocks[2], 2e-3);
  EXPECT_DOUBLE_EQ(result.makespan(), 2e-3);
}

TEST(Runtime, BarrierMaxReducesClocks) {
  MachineModel model = MachineModel::zero();
  model.barrier_base = 5e-6;
  auto result = cid::rt::run(4, model, [](RankCtx& ctx) {
    ctx.charge_compute(static_cast<double>(ctx.rank()) * 1e-3);
    ctx.barrier();
  });
  // Everyone leaves the barrier at max(3ms) + barrier cost.
  for (double clock : result.final_clocks) {
    EXPECT_DOUBLE_EQ(clock, 3e-3 + 5e-6);
  }
}

TEST(Runtime, RepeatedBarriersStayConsistent) {
  auto result = cid::rt::run(5, MachineModel::zero(), [](RankCtx& ctx) {
    for (int i = 0; i < 50; ++i) {
      ctx.charge_compute(1e-6);
      ctx.barrier();
    }
  });
  for (double clock : result.final_clocks) {
    EXPECT_NEAR(clock, 50e-6, 1e-12);
  }
}

TEST(Runtime, ExceptionOnOneRankPropagatesAndUnblocksOthers) {
  EXPECT_THROW(
      cid::rt::run(4, MachineModel::zero(),
                   [](RankCtx& ctx) {
                     if (ctx.rank() == 2) {
                       throw cid::CidError(cid::ErrorCode::InvalidArgument,
                                           "boom");
                     }
                     ctx.barrier();  // would deadlock without poisoning
                   }),
      cid::CidError);
}

TEST(Runtime, ExceptionWhileWaitingOnMailboxUnblocks) {
  EXPECT_THROW(cid::rt::run(2, MachineModel::zero(),
                            [](RankCtx& ctx) {
                              if (ctx.rank() == 0) {
                                throw std::runtime_error("fail");
                              }
                              // Rank 1 waits forever for a message that will
                              // never come; poisoning must wake it.
                              ctx.mailbox().wait_extract(
                                  cid::rt::MatchKey{});
                            }),
               std::runtime_error);
}

TEST(Runtime, NestedRunIsRejected) {
  EXPECT_THROW(cid::rt::run(1, MachineModel::zero(),
                            [](RankCtx&) {
                              cid::rt::run(1, MachineModel::zero(),
                                           [](RankCtx&) {});
                            }),
               cid::CidError);
}

TEST(Mailbox, DeliversInArrivalOrder) {
  cid::rt::run(2, MachineModel::zero(), [](RankCtx& ctx) {
    if (ctx.rank() == 0) {
      for (int i = 0; i < 5; ++i) {
        cid::rt::Envelope envelope;
        envelope.src = 0;
        envelope.tag = i;
        ctx.world().mailbox(1).push(std::move(envelope));
      }
    } else {
      for (int i = 0; i < 5; ++i) {
        auto envelope = ctx.mailbox().wait_extract(cid::rt::MatchKey{});
        EXPECT_EQ(envelope.tag, i);
      }
    }
  });
}

TEST(Mailbox, PredicateSelectsAcrossQueue) {
  cid::rt::run(2, MachineModel::zero(), [](RankCtx& ctx) {
    if (ctx.rank() == 0) {
      for (int tag : {7, 3, 9}) {
        cid::rt::Envelope envelope;
        envelope.src = 0;
        envelope.tag = tag;
        ctx.world().mailbox(1).push(std::move(envelope));
      }
    } else {
      cid::rt::MatchKey tag9;
      tag9.tag = 9;
      auto nine = ctx.mailbox().wait_extract(tag9);
      EXPECT_EQ(nine.tag, 9);
      auto seven = ctx.mailbox().wait_extract(cid::rt::MatchKey{});
      EXPECT_EQ(seven.tag, 7);  // arrival order among the rest
      EXPECT_EQ(ctx.mailbox().size(), 1u);
    }
  });
}

TEST(Mailbox, TryExtractReturnsEmptyWhenNoMatch) {
  cid::rt::run(1, MachineModel::zero(), [](RankCtx& ctx) {
    auto result = ctx.mailbox().try_extract(cid::rt::MatchKey{});
    EXPECT_FALSE(result.has_value());
  });
}

// Helper for the MatchKey tests: queue one envelope into the calling rank's
// own mailbox.
void push_self(RankCtx& ctx, int src, int tag, cid::rt::Channel channel,
               int context, bool faulted = false) {
  cid::rt::Envelope envelope;
  envelope.src = src;
  envelope.tag = tag;
  envelope.channel = channel;
  envelope.context = context;
  envelope.faulted = faulted;
  ctx.mailbox().push(std::move(envelope));
}

TEST(MatchKey, ExactExtractPreservesNonOvertakingOrder) {
  cid::rt::run(1, MachineModel::zero(), [](RankCtx& ctx) {
    // Three messages from (src=2, tag=5) interleaved with unrelated traffic
    // on the same channel+context; exact extraction must see them in arrival
    // (push) order - MPI's non-overtaking guarantee.
    using cid::rt::Channel;
    push_self(ctx, 2, 5, Channel::MpiPointToPoint, 0);  // seq 0
    push_self(ctx, 3, 5, Channel::MpiPointToPoint, 0);
    push_self(ctx, 2, 7, Channel::MpiPointToPoint, 0);
    push_self(ctx, 2, 5, Channel::MpiPointToPoint, 0);  // seq 3
    push_self(ctx, 2, 5, Channel::MpiPointToPoint, 0);  // seq 4
    cid::rt::MatchKey key;
    key.src = 2;
    key.tag = 5;
    std::vector<std::uint64_t> seqs;
    while (auto e = ctx.mailbox().try_extract(key)) seqs.push_back(e->seq);
    ASSERT_EQ(seqs.size(), 3u);
    EXPECT_TRUE(std::is_sorted(seqs.begin(), seqs.end()));
    EXPECT_EQ(seqs.front(), 0u);
    EXPECT_EQ(ctx.mailbox().size(), 2u);  // the unrelated two remain
  });
}

TEST(MatchKey, WildcardsMatchAcrossSourcesAndTagsInArrivalOrder) {
  cid::rt::run(1, MachineModel::zero(), [](RankCtx& ctx) {
    using cid::rt::Channel;
    push_self(ctx, 0, 10, Channel::MpiPointToPoint, 0);
    push_self(ctx, 4, 11, Channel::MpiPointToPoint, 0);
    push_self(ctx, 1, 10, Channel::MpiPointToPoint, 0);

    // ANY_SOURCE with an exact tag.
    cid::rt::MatchKey any_src;
    any_src.src = cid::rt::kMatchAny;
    any_src.tag = 10;
    auto first = ctx.mailbox().try_extract(any_src);
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(first->src, 0);  // arrival order, not source order

    // ANY_SOURCE + ANY_TAG takes whatever arrived first of the rest.
    cid::rt::MatchKey any_any;
    any_any.src = cid::rt::kMatchAny;
    any_any.tag = cid::rt::kMatchAny;
    auto second = ctx.mailbox().try_extract(any_any);
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(second->src, 4);
    EXPECT_EQ(second->tag, 11);
  });
}

TEST(MatchKey, FaultFiltersSeparateTombstonesFromCleanTraffic) {
  cid::rt::run(1, MachineModel::zero(), [](RankCtx& ctx) {
    using cid::rt::Channel;
    // Clean / tombstone / clean / tombstone, all same (src, tag).
    push_self(ctx, 1, 3, Channel::MpiPointToPoint, 0, /*faulted=*/false);
    push_self(ctx, 1, 3, Channel::MpiPointToPoint, 0, /*faulted=*/true);
    push_self(ctx, 1, 3, Channel::MpiPointToPoint, 0, /*faulted=*/false);
    push_self(ctx, 1, 3, Channel::MpiPointToPoint, 0, /*faulted=*/true);

    cid::rt::MatchKey clean;  // FaultFilter::Clean is the default
    clean.src = 1;
    clean.tag = 3;
    auto c1 = ctx.mailbox().try_extract(clean);
    ASSERT_TRUE(c1.has_value());
    EXPECT_EQ(c1->seq, 0u);  // skipped no clean envelope

    cid::rt::MatchKey faulted = clean;
    faulted.faults = cid::rt::FaultFilter::Faulted;
    auto t1 = ctx.mailbox().try_extract(faulted);
    ASSERT_TRUE(t1.has_value());
    EXPECT_TRUE(t1->faulted);
    EXPECT_EQ(t1->seq, 1u);

    // FaultFilter::Any drains the rest in arrival order regardless of flag.
    cid::rt::MatchKey any = clean;
    any.faults = cid::rt::FaultFilter::Any;
    auto a1 = ctx.mailbox().try_extract(any);
    auto a2 = ctx.mailbox().try_extract(any);
    ASSERT_TRUE(a1.has_value() && a2.has_value());
    EXPECT_EQ(a1->seq, 2u);
    EXPECT_FALSE(a1->faulted);
    EXPECT_EQ(a2->seq, 3u);
    EXPECT_TRUE(a2->faulted);
    EXPECT_EQ(ctx.mailbox().size(), 0u);
  });
}

TEST(MatchKey, MidQueueExactExtractionKeepsRemainingOrder) {
  cid::rt::run(1, MachineModel::zero(), [](RankCtx& ctx) {
    using cid::rt::Channel;
    for (int tag : {1, 2, 3, 2, 1}) {
      push_self(ctx, 0, tag, Channel::MpiPointToPoint, 0);
    }
    // Pull tag 3 out of the middle, then both tag-2 envelopes; the per-(src,
    // tag) sub-queues must skip the holes the other extractions left behind.
    cid::rt::MatchKey key;
    key.src = 0;
    key.tag = 3;
    ASSERT_TRUE(ctx.mailbox().try_extract(key).has_value());
    key.tag = 2;
    auto first2 = ctx.mailbox().try_extract(key);
    auto second2 = ctx.mailbox().try_extract(key);
    ASSERT_TRUE(first2.has_value() && second2.has_value());
    EXPECT_LT(first2->seq, second2->seq);
    // Only the two tag-1 envelopes remain, still in arrival order.
    cid::rt::MatchKey any;
    any.src = cid::rt::kMatchAny;
    any.tag = cid::rt::kMatchAny;
    auto r1 = ctx.mailbox().try_extract(any);
    auto r2 = ctx.mailbox().try_extract(any);
    ASSERT_TRUE(r1.has_value() && r2.has_value());
    EXPECT_EQ(r1->tag, 1);
    EXPECT_EQ(r2->tag, 1);
    EXPECT_LT(r1->seq, r2->seq);
  });
}

TEST(MatchKey, ExactSublistSkipsEnvelopesStolenByWildcard) {
  cid::rt::run(1, MachineModel::zero(), [](RankCtx& ctx) {
    using cid::rt::Channel;
    // Pinned receives and MPI_ANY_SOURCE compete in one bucket: a wildcard
    // extraction removes the head of the (src=2, tag=5) exact sub-queue
    // behind its back, leaving a stale seq the fast path must skip lazily.
    push_self(ctx, 2, 5, Channel::MpiPointToPoint, 0);  // seq 0
    push_self(ctx, 3, 5, Channel::MpiPointToPoint, 0);  // seq 1
    push_self(ctx, 2, 5, Channel::MpiPointToPoint, 0);  // seq 2

    cid::rt::MatchKey any_src;
    any_src.src = cid::rt::kMatchAny;
    any_src.tag = 5;
    auto stolen = ctx.mailbox().try_extract(any_src);
    ASSERT_TRUE(stolen.has_value());
    EXPECT_EQ(stolen->seq, 0u);  // arrival order: src 2's sub-queue head

    cid::rt::MatchKey pinned;
    pinned.src = 2;
    pinned.tag = 5;
    auto remaining = ctx.mailbox().try_extract(pinned);
    ASSERT_TRUE(remaining.has_value());
    EXPECT_EQ(remaining->seq, 2u);  // stale seq 0 skipped, not matched twice
    EXPECT_FALSE(ctx.mailbox().try_extract(pinned).has_value());

    pinned.src = 3;
    auto other = ctx.mailbox().try_extract(pinned);
    ASSERT_TRUE(other.has_value());
    EXPECT_EQ(other->seq, 1u);
    EXPECT_EQ(ctx.mailbox().size(), 0u);
  });
}

TEST(MatchKey, ExactResidualSkipLeavesRejectedEnvelopeInPlace) {
  cid::rt::run(1, MachineModel::zero(), [](RankCtx& ctx) {
    using cid::rt::Channel;
    push_self(ctx, 1, 5, Channel::MpiPointToPoint, 0);  // seq 0
    push_self(ctx, 1, 5, Channel::MpiPointToPoint, 0);  // seq 1

    // The residual rejects the sub-queue head; the fast path must advance
    // to seq 1 without erasing or re-examining seq 0.
    cid::rt::MatchKey pinned;
    pinned.src = 1;
    pinned.tag = 5;
    cid::rt::Mailbox::Residual reject_head = [](const cid::rt::Envelope& e) {
      return e.seq != 0;
    };
    auto second = ctx.mailbox().try_extract(pinned, &reject_head);
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(second->seq, 1u);

    // The rejected envelope is still there for an unconstrained receive —
    // residual skips must never drop messages.
    auto head = ctx.mailbox().try_extract(pinned);
    ASSERT_TRUE(head.has_value());
    EXPECT_EQ(head->seq, 0u);
    EXPECT_EQ(ctx.mailbox().size(), 0u);
  });
}

TEST(MatchKey, ResidualAndWildcardMixNeverSkipsALegalMatch) {
  cid::rt::run(1, MachineModel::zero(), [](RankCtx& ctx) {
    using cid::rt::Channel;
    // Interleaved sources, one bucket: (1,5) (2,5) (1,5) (3,5).
    push_self(ctx, 1, 5, Channel::MpiPointToPoint, 0);  // seq 0
    push_self(ctx, 2, 5, Channel::MpiPointToPoint, 0);  // seq 1
    push_self(ctx, 1, 5, Channel::MpiPointToPoint, 0);  // seq 2
    push_self(ctx, 3, 5, Channel::MpiPointToPoint, 0);  // seq 3

    // Pinned receive whose residual rejects the head: lands on seq 2.
    cid::rt::MatchKey pinned;
    pinned.src = 1;
    pinned.tag = 5;
    cid::rt::Mailbox::Residual reject_head = [](const cid::rt::Envelope& e) {
      return e.seq != 0;
    };
    auto later = ctx.mailbox().try_extract(pinned, &reject_head);
    ASSERT_TRUE(later.has_value());
    EXPECT_EQ(later->seq, 2u);

    // Wildcard sweep picks up the rejected head first (global order), then
    // the other sources' messages; nothing was lost to the earlier skip.
    cid::rt::MatchKey any_src;
    any_src.src = cid::rt::kMatchAny;
    any_src.tag = 5;
    std::vector<std::uint64_t> seqs;
    while (auto e = ctx.mailbox().try_extract(any_src)) seqs.push_back(e->seq);
    EXPECT_EQ(seqs, (std::vector<std::uint64_t>{0u, 1u, 3u}));
    EXPECT_EQ(ctx.mailbox().size(), 0u);
  });
}

TEST(MatchKey, MultiKeyPinnedPlusWildcardHonorsResidualPerCandidate) {
  cid::rt::run(1, MachineModel::zero(), [](RankCtx& ctx) {
    using cid::rt::Channel;
    push_self(ctx, 1, 5, Channel::MpiPointToPoint, 0);  // seq 0
    push_self(ctx, 2, 6, Channel::MpiPointToPoint, 0);  // seq 1

    // One wait posts a pinned key and an ANY_SOURCE key together; the
    // residual vetoes the pinned head, so the wildcard's (later) envelope
    // must win even though the pinned candidate has the lower seq.
    std::vector<cid::rt::MatchKey> keys(2);
    keys[0].src = 1;
    keys[0].tag = 5;
    keys[1].src = cid::rt::kMatchAny;
    keys[1].tag = 6;
    cid::rt::Mailbox::Residual not_seq0 = [](const cid::rt::Envelope& e) {
      return e.seq != 0;
    };
    auto winner = ctx.mailbox().try_extract(
        std::span<const cid::rt::MatchKey>(keys), &not_seq0);
    ASSERT_TRUE(winner.has_value());
    EXPECT_EQ(winner->seq, 1u);
    // Without the residual the pinned envelope is immediately extractable.
    auto head = ctx.mailbox().try_extract(
        std::span<const cid::rt::MatchKey>(keys));
    ASSERT_TRUE(head.has_value());
    EXPECT_EQ(head->seq, 0u);
  });
}

TEST(MatchKey, MultiKeyExtractionReturnsGlobalArrivalOrderAcrossBuckets) {
  cid::rt::run(1, MachineModel::zero(), [](RankCtx& ctx) {
    using cid::rt::Channel;
    // Envelopes land in different (channel, context) buckets; a multi-key
    // wait must still hand them back in global arrival order, exactly like
    // the old single-queue scan did.
    push_self(ctx, 0, 1, Channel::Internal, 7);         // seq 0
    push_self(ctx, 0, 1, Channel::MpiPointToPoint, 0);  // seq 1
    push_self(ctx, 0, 1, Channel::Internal, 8);         // seq 2
    std::vector<cid::rt::MatchKey> keys(3);
    keys[0].channel = Channel::MpiPointToPoint;
    keys[0].context = 0;
    keys[0].src = 0;
    keys[0].tag = 1;
    keys[1].channel = Channel::Internal;
    keys[1].context = 7;
    keys[1].src = 0;
    keys[1].tag = 1;
    keys[2].channel = Channel::Internal;
    keys[2].context = 8;
    keys[2].src = 0;
    keys[2].tag = 1;
    std::vector<std::uint64_t> seqs;
    while (auto e = ctx.mailbox().try_extract(
               std::span<const cid::rt::MatchKey>(keys))) {
      seqs.push_back(e->seq);
    }
    ASSERT_EQ(seqs.size(), 3u);
    EXPECT_EQ(seqs, (std::vector<std::uint64_t>{0, 1, 2}));
  });
}

TEST(MatchKey, ResidualRefinesKeyMatchesWithoutBreakingOrder) {
  cid::rt::run(1, MachineModel::zero(), [](RankCtx& ctx) {
    using cid::rt::Channel;
    for (int src : {5, 6, 5, 7}) {
      push_self(ctx, src, 1, Channel::MpiPointToPoint, 0);
    }
    cid::rt::MatchKey any;
    any.src = cid::rt::kMatchAny;
    any.tag = 1;
    const cid::rt::Mailbox::Residual odd_src_only =
        [](const cid::rt::Envelope& e) { return e.src % 2 == 1; };
    auto first = ctx.mailbox().try_extract(any, &odd_src_only);
    auto second = ctx.mailbox().try_extract(any, &odd_src_only);
    auto third = ctx.mailbox().try_extract(any, &odd_src_only);
    ASSERT_TRUE(first.has_value() && second.has_value() && third.has_value());
    EXPECT_EQ(first->src, 5);
    EXPECT_EQ(second->src, 5);  // the src=6 envelope is skipped, not consumed
    EXPECT_EQ(third->src, 7);
    EXPECT_EQ(ctx.mailbox().size(), 1u);
  });
}

// Brute-force reference for multi-key extraction: for each key, the first
// queued envelope (in arrival order) it admits, the residual accepts and,
// for a non-exact key, the wildcard gate lets through; the answer is the
// lowest of those seqs.
std::optional<std::uint64_t> reference_seq(
    const std::vector<cid::rt::Envelope>& queued,
    const std::vector<cid::rt::MatchKey>& keys,
    const cid::rt::Mailbox::Residual* residual,
    const cid::rt::Mailbox::WildcardGate& gate) {
  std::optional<std::uint64_t> best;
  for (const cid::rt::MatchKey& key : keys) {
    for (const cid::rt::Envelope& e : queued) {
      if (!key.exact() && gate && !gate(e)) continue;
      if (!key.admits(e) || (residual != nullptr && !(*residual)(e))) {
        continue;
      }
      if (!best || e.seq < *best) best = e.seq;
      break;
    }
  }
  return best;
}

TEST(MatchKey, RandomQueuesExtractThePerKeyMinimumSeq) {
  using cid::rt::kMatchAny;
  const cid::rt::Mailbox::Residual residual = [](const cid::rt::Envelope& e) {
    return (e.src * 7 + e.tag * 3 + static_cast<int>(e.seq)) % 3 != 0;
  };
  const cid::rt::Mailbox::WildcardGate gate = [](const cid::rt::Envelope& e) {
    return e.explore_uid % 3 != 1;
  };
  constexpr int kSeeds = 240;
  for (int seed = 0; seed < kSeeds; ++seed) {
    for (const bool with_residual : {false, true}) {
      SCOPED_TRACE("seed " + std::to_string(seed) +
                   (with_residual ? " with residual" : " without residual"));
      cid::Rng rng(static_cast<std::uint64_t>(seed));
      const bool gated = seed % 4 == 0;
      cid::rt::Mailbox mailbox;
      if (gated) mailbox.set_explore_hooks(gate, nullptr);
      const cid::rt::Mailbox::WildcardGate no_gate;
      std::vector<cid::rt::Envelope> queued;  // in arrival (seq) order
      std::uint64_t next_seq = 0;
      const auto push_random = [&] {
        cid::rt::Envelope e;
        e.src = static_cast<int>(rng.next_below(4));
        e.tag = static_cast<int>(rng.next_below(4));
        e.context = static_cast<int>(rng.next_below(3));
        e.faulted = rng.next_below(5) == 0;
        e.explore_uid = next_seq + 1;
        e.seq = next_seq++;
        queued.push_back(e);
        mailbox.push(std::move(e));
      };
      const int initial = 1 + static_cast<int>(rng.next_below(40));
      for (int i = 0; i < initial; ++i) push_random();

      for (int round = 0; round < 60 && !queued.empty(); ++round) {
        std::vector<cid::rt::MatchKey> keys(1 + rng.next_below(6));
        for (cid::rt::MatchKey& key : keys) {
          key.context = static_cast<int>(rng.next_below(3));
          switch (rng.next_below(4)) {
            case 0:  // exact
              key.src = static_cast<int>(rng.next_below(4));
              key.tag = static_cast<int>(rng.next_below(4));
              break;
            case 1:  // (any, tag)
              key.tag = static_cast<int>(rng.next_below(4));
              break;
            case 2:  // (src, any)
              key.src = static_cast<int>(rng.next_below(4));
              break;
            default:  // (any, any)
              break;
          }
          key.faults = static_cast<cid::rt::FaultFilter>(rng.next_below(3));
        }
        const cid::rt::Mailbox::Residual* r =
            with_residual ? &residual : nullptr;
        const auto expected =
            reference_seq(queued, keys, r, gated ? gate : no_gate);
        const auto got = mailbox.try_extract(keys, r);
        ASSERT_EQ(got.has_value(), expected.has_value()) << "round " << round;
        if (got) {
          ASSERT_EQ(got->seq, *expected) << "round " << round;
          queued.erase(std::find_if(
              queued.begin(), queued.end(),
              [&](const cid::rt::Envelope& e) { return e.seq == got->seq; }));
        }
        if (rng.next_below(3) == 0) push_random();
      }
      EXPECT_EQ(mailbox.size(), queued.size());
    }
  }
}

TEST(Mailbox, SteadyStatePushAndExtractAllocateNothing) {
  // Every envelope carries a tag never seen before, like the reliability
  // protocol's per-transfer ids: once the store has grown to its peak
  // occupancy, push and extract must reuse slots and index entries rather
  // than allocate, so an emptied (src, tag) entry has to be reclaimed.
  cid::rt::Mailbox mailbox;
  const auto cycle = [&mailbox](int first_tag) {
    for (int i = 0; i < 8; ++i) {
      cid::rt::Envelope envelope;
      envelope.src = i % 3;
      envelope.tag = first_tag + i;
      envelope.context = i % 2;
      mailbox.push(std::move(envelope));
    }
    for (int i = 0; i < 8; i += 2) {
      cid::rt::MatchKey exact;
      exact.src = i % 3;
      exact.tag = first_tag + i;
      exact.context = i % 2;
      auto got = mailbox.try_extract(exact);
      ASSERT_TRUE(got.has_value());
      EXPECT_EQ(got->tag, first_tag + i);
    }
    // The odd-numbered envelopes are left, all in context 1.
    cid::rt::MatchKey any;
    any.context = 1;
    for (int i = 1; i < 8; i += 2) {
      auto got = mailbox.try_extract(any);
      ASSERT_TRUE(got.has_value());
      EXPECT_EQ(got->tag, first_tag + i);
    }
  };
  cycle(0);
  const long before = g_allocations.load();
  for (int round = 1; round <= 1000; ++round) cycle(8 * round);
  EXPECT_EQ(g_allocations.load() - before, 0);
  EXPECT_EQ(mailbox.size(), 0u);
}

cid::rt::RunOptions one_worker() {
  cid::rt::RunOptions options;
  options.scheduler = cid::rt::sched::Mode::kPool;
  options.sim_workers = 1;
  return options;
}

// Rank 0 queues a tag-1 envelope, meets rank 1 at a barrier, then pushes
// `batches` of tags, yielding before each batch. Rank 1 blocks in
// wait_extract on `key` (with `residual`) right after the barrier, so its
// first search already moves the floor watermark past seq 0. It must get
// the first tag-7 envelope, and everything else must stay queued in arrival
// order. With `gated`, rank 1's mailbox has an explore gate that admits
// everything, which keeps the floor at 0.
void wait_for_tag7(const cid::rt::MatchKey& key,
                   const cid::rt::Mailbox::Residual* residual, bool gated,
                   const std::vector<std::vector<int>>& batches) {
  std::vector<int> arrivals = {1};  // tags in seq order
  for (const std::vector<int>& batch : batches) {
    arrivals.insert(arrivals.end(), batch.begin(), batch.end());
  }
  const auto first7 = static_cast<std::size_t>(
      std::find(arrivals.begin(), arrivals.end(), 7) - arrivals.begin());
  ASSERT_LT(first7, arrivals.size());
  cid::rt::run(
      2, MachineModel::zero(),
      [&](RankCtx& ctx) {
        if (ctx.rank() == 0) {
          const auto push = [&ctx](int tag) {
            cid::rt::Envelope envelope;
            envelope.src = 0;
            envelope.tag = tag;
            ctx.world().mailbox(1).push(std::move(envelope));
          };
          push(1);
          ctx.barrier();
          for (const std::vector<int>& batch : batches) {
            cid::rt::sched::yield();
            for (const int tag : batch) push(tag);
          }
          return;
        }
        if (gated) {
          ctx.mailbox().set_explore_hooks(
              [](const cid::rt::Envelope&) { return true; }, nullptr);
        }
        ctx.barrier();
        const auto got = ctx.mailbox().wait_extract(key, residual);
        EXPECT_EQ(got.tag, 7);
        EXPECT_EQ(got.seq, first7);
        // Everything else is still queued, in arrival order. Rank 0 may
        // not have pushed its last batches yet.
        for (std::size_t seq = 0; seq < arrivals.size(); ++seq) {
          if (seq == first7) continue;
          const auto rest =
              ctx.mailbox().wait_extract(cid::rt::MatchKey{});
          EXPECT_EQ(rest.seq, seq);
          EXPECT_EQ(rest.tag, arrivals[seq]);
        }
        EXPECT_EQ(ctx.mailbox().size(), 0u);
      },
      one_worker());
}

TEST(Mailbox, BlockedWildcardWaitFindsTagAfterUnwantedArrivals) {
  // The resumed search starts at the floor watermark, found by walking back
  // from the bucket's tail over what arrived since.
  cid::rt::MatchKey tag7;
  tag7.tag = 7;
  for (const bool gated : {false, true}) {
    SCOPED_TRACE(gated ? "gated" : "ungated");
    // One envelope per wakeup-free push, the wanted one last.
    wait_for_tag7(tag7, nullptr, gated, {{2}, {3}, {4}, {5}, {7}});
    // The wanted envelope is the first of a batch, so the walk back must
    // stop exactly at the watermark, not one past it. The trailing tag 7
    // keeps a search that missed the first one from waiting forever.
    wait_for_tag7(tag7, nullptr, gated, {{7, 2, 3}, {7}});
  }
}

TEST(Mailbox, WatermarkChecksEachCandidateOnceUnlessGated) {
  // An (any, any) key is woken by every push; the residual picks tag 7.
  // Without a gate each wakeup scans only the new arrivals, so the residual
  // sees every candidate exactly once. A gate resets the floor to 0, so the
  // first envelope is checked again on each wakeup.
  for (const bool gated : {false, true}) {
    SCOPED_TRACE(gated ? "gated" : "ungated");
    std::map<int, int> checks;  // tag -> residual calls
    const cid::rt::Mailbox::Residual tag7_only =
        [&checks](const cid::rt::Envelope& e) {
          ++checks[e.tag];
          return e.tag == 7;
        };
    wait_for_tag7(cid::rt::MatchKey{}, &tag7_only, gated,
                  {{2}, {3}, {4}, {5}, {7}});
    ASSERT_EQ(checks.size(), 6u);
    if (gated) {
      EXPECT_GT(checks[1], 1);
    } else {
      for (const auto& [tag, calls] : checks) {
        EXPECT_EQ(calls, 1) << "tag " << tag;
      }
    }
  }
}

TEST(World, SharedObjectReturnsSameInstance) {
  cid::rt::run(4, MachineModel::zero(), [](RankCtx& ctx) {
    auto object = ctx.world().shared_object<std::atomic<int>>("test.counter");
    object->fetch_add(1);
    ctx.barrier();
    EXPECT_EQ(object->load(), 4);
  });
}

TEST(World, SharedObjectTypeMismatchThrows) {
  cid::rt::run(1, MachineModel::zero(), [](RankCtx& ctx) {
    ctx.world().shared_object<int>("test.key");
    EXPECT_THROW(ctx.world().shared_object<double>("test.key"),
                 cid::CidError);
  });
}

TEST(World, ManyRanksOversubscribed) {
  // Far more ranks than cores: everything must still terminate.
  auto result = cid::rt::run(64, MachineModel::zero(), [](RankCtx& ctx) {
    ctx.barrier();
    ctx.charge_compute(1e-6);
    ctx.barrier();
  });
  EXPECT_EQ(result.final_clocks.size(), 64u);
}

TEST(VirtualClock, AdvanceToNeverMovesBackwards) {
  cid::simnet::VirtualClock clock;
  clock.advance(5.0);
  clock.advance_to(3.0);
  EXPECT_DOUBLE_EQ(clock.now(), 5.0);
  clock.advance_to(7.0);
  EXPECT_DOUBLE_EQ(clock.now(), 7.0);
}

TEST(VirtualClock, NegativeAdvanceThrows) {
  cid::simnet::VirtualClock clock;
  EXPECT_THROW(clock.advance(-1.0), cid::CidError);
}

TEST(MachineModel, BarrierCostGrowsLogarithmically) {
  const auto model = MachineModel::cray_xk7_gemini();
  EXPECT_LT(model.barrier_cost(2), model.barrier_cost(64));
  EXPECT_LT(model.barrier_cost(64), model.barrier_cost(1024));
  // log2 growth: doubling ranks adds one stage.
  const double d1 = model.barrier_cost(8) - model.barrier_cost(4);
  const double d2 = model.barrier_cost(16) - model.barrier_cost(8);
  EXPECT_DOUBLE_EQ(d1, d2);
}

TEST(MachineModel, DeliveryTimeScalesWithSize) {
  const auto model = MachineModel::cray_xk7_gemini();
  const auto& path = model.mpi_two_sided;
  const double small = path.delivery_time(0.0, 8);
  const double large = path.delivery_time(0.0, 1 << 20);
  EXPECT_LT(small, large);
  EXPECT_NEAR(large - small,
              (static_cast<double>((1 << 20) - 8)) / path.bytes_per_second +
                  path.rendezvous_extra_latency,
              1e-12);
}

// ---- Pooled fiber scheduler ------------------------------------------------

namespace sched = cid::rt::sched;

/// A program touching every virtual-time mechanism: compute, ring
/// messaging, and barriers. Used to pin pool/threads equivalence.
void ring_program(RankCtx& ctx) {
  const int np = ctx.nranks();
  const int next = (ctx.rank() + 1) % np;
  ctx.charge_compute(1e-6 * (ctx.rank() + 1));
  ctx.barrier();
  cid::rt::Envelope envelope;
  envelope.src = ctx.rank();
  envelope.tag = 7;
  envelope.available_at = ctx.clock().now() + 2e-6;
  ctx.world().mailbox(next).push(std::move(envelope));
  auto got = ctx.mailbox().wait_extract(cid::rt::MatchKey{});
  ctx.clock().advance_to(got.available_at);
  ctx.barrier();
}

TEST(Sched, PoolAndThreadsProduceIdenticalClocks) {
  // Virtual time must not depend on the scheduler: same program, same model,
  // bit-identical final clocks under the fiber pool and thread-per-rank.
  cid::rt::RunOptions pool;
  pool.scheduler = sched::Mode::kPool;
  cid::rt::RunOptions threads;
  threads.scheduler = sched::Mode::kThreads;
  const auto model = MachineModel::cray_xk7_gemini();
  auto pooled = cid::rt::run(33, model, ring_program, pool);
  auto threaded = cid::rt::run(33, model, ring_program, threads);
  EXPECT_TRUE(pooled.pooled);
  EXPECT_FALSE(threaded.pooled);
  ASSERT_EQ(pooled.final_clocks.size(), threaded.final_clocks.size());
  for (std::size_t r = 0; r < pooled.final_clocks.size(); ++r) {
    EXPECT_EQ(pooled.final_clocks[r], threaded.final_clocks[r]) << "rank " << r;
  }
}

TEST(Sched, ThousandsOfRanksOnTwoWorkers) {
  // O(nranks) fibers over a tiny fixed pool: barriers (sharded), ring
  // traffic, and compute all terminate, with exactly the requested workers.
  cid::rt::RunOptions options;
  options.scheduler = sched::Mode::kPool;
  options.sim_workers = 2;
  auto result =
      cid::rt::run(2048, MachineModel::zero(), ring_program, options);
  EXPECT_TRUE(result.pooled);
  EXPECT_EQ(result.sched_stats.workers, 2u);
  EXPECT_EQ(result.sched_stats.fibers, 2048u);
  EXPECT_EQ(result.final_clocks.size(), 2048u);
}

TEST(Sched, YieldLetsBusyPollersMakeProgress) {
  // A non-blocking poll loop must yield its worker or the polled-for peer
  // never runs on a bounded pool. sched::yield() is that escape hatch (the
  // mpi::test / iprobe miss paths call it).
  cid::rt::RunOptions options;
  options.scheduler = sched::Mode::kPool;
  options.sim_workers = 1;
  auto result = cid::rt::run(
      4, MachineModel::zero(),
      [](RankCtx& ctx) {
        if (ctx.rank() == 0) {
          for (int dest = 1; dest < ctx.nranks(); ++dest) {
            cid::rt::Envelope envelope;
            envelope.src = 0;
            ctx.world().mailbox(dest).push(std::move(envelope));
          }
        } else {
          while (true) {
            auto got = ctx.mailbox().try_extract(cid::rt::MatchKey{});
            if (got.has_value()) break;
            sched::yield();
          }
        }
      },
      options);
  EXPECT_TRUE(result.pooled);
}

TEST(Sched, SmallExplicitStacksWork) {
  cid::rt::RunOptions options;
  options.scheduler = sched::Mode::kPool;
  options.sim_stack_bytes = 64 * 1024;  // the enforced minimum
  auto result = cid::rt::run(64, MachineModel::zero(), ring_program, options);
  EXPECT_EQ(result.final_clocks.size(), 64u);
}

TEST(Sched, PoisonDuringThousandRankBarrier) {
  // One rank of a 1000-rank world dies while every other rank is inside the
  // sharded barrier; the poison must wake all shards and the run must
  // rethrow after a clean teardown. (The TSan CI shard runs this test.)
  cid::rt::RunOptions options;
  options.scheduler = sched::Mode::kPool;
  EXPECT_THROW(
      cid::rt::run(
          1000, MachineModel::zero(),
          [](RankCtx& ctx) {
            if (ctx.rank() == 613) {
              throw std::runtime_error("mid-barrier failure");
            }
            ctx.barrier();
          },
          options),
      std::runtime_error);
}

TEST(Sched, PoisonWakesMailboxAndBarrierWaitersTogether) {
  // Mixed blocking: half the ranks in the barrier, half in mailbox waits,
  // and the failing rank poisons both kinds at once.
  cid::rt::RunOptions options;
  options.scheduler = sched::Mode::kPool;
  EXPECT_THROW(
      cid::rt::run(
          256, MachineModel::zero(),
          [](RankCtx& ctx) {
            if (ctx.rank() == 0) throw std::runtime_error("die");
            if (ctx.rank() % 2 == 0) {
              ctx.barrier();
            } else {
              ctx.mailbox().wait_extract(cid::rt::MatchKey{});
            }
          },
          options),
      std::runtime_error);
}

// ---- Fiber stack cache ------------------------------------------------------

#if defined(__SANITIZE_ADDRESS__)
#define CID_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define CID_TEST_ASAN 1
#endif
#endif

/// Recurse about `bytes` deep on the calling stack, writing every frame.
[[gnu::noinline]] int recurse_through(std::size_t bytes) {
  volatile char frame[1024];
  frame[0] = static_cast<char>(bytes);
  frame[sizeof frame - 1] = frame[0];
  if (bytes <= sizeof frame) return frame[0];
  return recurse_through(bytes - sizeof frame) + frame[sizeof frame - 1];
}

cid::rt::RunOptions pooled_with_stack(std::size_t stack_bytes, int workers) {
  cid::rt::RunOptions options;
  options.scheduler = sched::Mode::kPool;
  options.sim_workers = workers;
  options.sim_stack_bytes = stack_bytes;
  return options;
}

TEST(Sched, BackToBackRunsReuseCachedStacks) {
  // 192 KiB is a size no other test asks for, so the second run can only
  // be served by the first run's stacks.
  const std::size_t stack_bytes = 192 * 1024;
  const auto options = pooled_with_stack(stack_bytes, 2);
  auto& cache = sched::StackCache::global();
  cid::rt::run(48, MachineModel::zero(), ring_program, options);
  const auto before = cache.stats();
  // Every stack parks in the cache with its guard page.
  EXPECT_GE(before.retained_bytes, 48 * (stack_bytes + 4096));
  auto result = cid::rt::run(48, MachineModel::zero(), ring_program, options);
  const auto after = cache.stats();
  EXPECT_EQ(result.final_clocks.size(), 48u);
  EXPECT_EQ(after.mapped, before.mapped);
  EXPECT_EQ(after.reused, before.reused + 48);
  EXPECT_EQ(after.retained_bytes, before.retained_bytes);
}

TEST(Sched, LargerStackIsNeverServedASmallerCachedOne) {
  // The small run leaves 64 KiB stacks in the cache; a body recursing
  // 768 KiB deep would hit the guard page of any of them.
  cid::rt::run(8, MachineModel::zero(), ring_program,
               pooled_with_stack(64 * 1024, 1));
  std::atomic<int> finished{0};
  cid::rt::run(
      8, MachineModel::zero(),
      [&finished](RankCtx& ctx) {
        if (recurse_through(768 * 1024) == ctx.rank() - 1000) return;
        finished.fetch_add(1);
      },
      pooled_with_stack(1024 * 1024, 1));
  EXPECT_EQ(finished.load(), 8);
}

TEST(SchedDeathTest, OverflowOnReusedStackHitsTheGuardPage) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto overflow_reused_stack = [] {
    const auto options = pooled_with_stack(64 * 1024, 1);
    cid::rt::run(1, MachineModel::zero(), [](RankCtx&) {}, options);
    const auto before = sched::StackCache::global().stats();
    cid::rt::run(
        1, MachineModel::zero(),
        [before](RankCtx&) {
          // Exit 3, not a crash, if this run did not get the cached stack.
          if (sched::StackCache::global().stats().reused == before.reused) {
            std::_Exit(3);
          }
          recurse_through(std::size_t{1} << 20);
        },
        options);
  };
#if defined(CID_TEST_ASAN)
  // ASan's SIGSEGV handler reports the fault and exits non-zero.
  EXPECT_EXIT(overflow_reused_stack(),
              [](int status) {
                return WIFEXITED(status) && WEXITSTATUS(status) != 0 &&
                       WEXITSTATUS(status) != 3;
              },
              "SEGV|stack-overflow");
#else
  EXPECT_EXIT(overflow_reused_stack(), testing::KilledBySignal(SIGSEGV), "");
#endif
}

TEST(Sched, ConcurrentSchedulersShareTheStackCache) {
  // Two host threads run pooled schedulers at once; the stack cache is the
  // state they share (the TSan CI job runs this test). The schedulers are
  // driven directly: rt::run itself is not safe to call concurrently (the
  // tuner's per-run prepare() writes process-wide state).
  auto& cache = sched::StackCache::global();
  const auto before = cache.stats();
  std::atomic<int> finished{0};
  std::vector<std::thread> hosts;
  for (int h = 0; h < 2; ++h) {
    hosts.emplace_back([&finished] {
      for (int i = 0; i < 20; ++i) {
        sched::Scheduler scheduler(2, 128 * 1024);
        for (int f = 0; f < 32; ++f) {
          scheduler.add([&finished] {
            sched::yield();  // switch out and back in mid-body
            finished.fetch_add(1);
          });
        }
        scheduler.run();
      }
    });
  }
  for (auto& host : hosts) host.join();
  const auto after = cache.stats();
  EXPECT_EQ(finished.load(), 2 * 20 * 32);
  // At most two runs hold stacks at once, so at most 64 are ever mapped.
  EXPECT_LE(after.mapped - before.mapped, 64u);
  EXPECT_EQ((after.mapped - before.mapped) + (after.reused - before.reused),
            2u * 20u * 32u);
}

// ---- Envelope arena --------------------------------------------------------

TEST(Arena, RecyclesPayloadBuffers) {
  auto& arena = cid::rt::PayloadArena::global();
  const auto before = arena.stats();
  cid::ByteBuffer buffer = arena.acquire(4096);
  EXPECT_EQ(buffer.size(), 4096u);
  arena.release(std::move(buffer));
  const auto mid = arena.stats();
  EXPECT_EQ(mid.releases, before.releases + 1);
  EXPECT_EQ(mid.retained, before.retained + 1);
  // Re-acquiring the same size class must come from the bin, not malloc.
  cid::ByteBuffer again = arena.acquire(4000);  // same power-of-two bin
  const auto after = arena.stats();
  EXPECT_EQ(again.size(), 4000u);
  EXPECT_EQ(after.reuses, mid.reuses + 1);
  arena.release(std::move(again));
}

TEST(Arena, RecycledBuffersAreZeroed) {
  auto& arena = cid::rt::PayloadArena::global();
  cid::ByteBuffer buffer = arena.acquire(512);
  for (auto& b : buffer) b = std::byte{0xAB};
  arena.release(std::move(buffer));
  cid::ByteBuffer again = arena.acquire(512);
  for (std::byte b : again) {
    ASSERT_EQ(b, std::byte{0});  // same value-init guarantee as a fresh buffer
  }
  arena.release(std::move(again));
}

TEST(Arena, PayloadRefcountsThroughArenaNodes) {
  cid::ByteBuffer bytes(128);
  bytes[0] = std::byte{42};
  cid::rt::Payload payload(std::move(bytes));
  EXPECT_EQ(payload.use_count(), 1);
  {
    cid::rt::Payload copy = payload;  // shares the node
    EXPECT_EQ(payload.use_count(), 2);
    EXPECT_EQ(copy.data()[0], std::byte{42});
  }
  EXPECT_EQ(payload.use_count(), 1);
  cid::rt::Payload deep = cid::rt::Payload::copy_of(payload.span());
  EXPECT_EQ(deep.use_count(), 1);
  EXPECT_EQ(deep.data()[0], std::byte{42});
}

TEST(Arena, EnvelopeChurnReusesNodes) {
  auto& arena = cid::rt::PayloadArena::global();
  const auto before = arena.stats();
  // Drive payloads through create/destroy churn; the node freelist and
  // buffer bins must absorb it (recycled counters move, not just released).
  for (int i = 0; i < 64; ++i) {
    cid::rt::Payload payload(cid::ByteBuffer(256));
    cid::rt::Payload copy = payload;
    payload.clear();
  }
  const auto after = arena.stats();
  EXPECT_GE(after.node_reuses, before.node_reuses + 32);
}

}  // namespace
