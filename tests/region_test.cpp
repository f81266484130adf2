// End-to-end tests of the directive executor: the paper's Listings 1-3
// expressed through the embedded API, on all three targets, with clause
// inheritance, count inference, sync consolidation and overlap.
#include <gtest/gtest.h>

#include <cstdio>
#include <numeric>
#include <source_location>
#include <string>
#include <vector>

#include "core/core.hpp"
#include "core/exec_state.hpp"
#include "mpi/mpi.hpp"
#include "rt/runtime.hpp"
#include "shmem/shmem.hpp"

namespace {

using namespace cid::core;
using cid::rt::RankCtx;
using cid::simnet::MachineModel;

void spmd(int nranks, const cid::rt::RankFn& fn) {
  cid::rt::run(nranks, MachineModel::zero(), fn);
}

// Paper Listing 1: ring pattern with only the required clauses.
TEST(Directive, Listing1RingPattern) {
  spmd(6, [](RankCtx& ctx) {
    double buf1[4];
    double buf2[4] = {};
    for (int i = 0; i < 4; ++i) buf1[i] = ctx.rank() * 10.0 + i;

    comm_p2p(Clauses()
                 .sender("(rank-1+nprocs)%nprocs")
                 .receiver("(rank+1)%nprocs")
                 .sbuf(buf(buf1, "buf1"))
                 .rbuf(buf(buf2, "buf2")));

    const int prev = (ctx.rank() - 1 + ctx.nranks()) % ctx.nranks();
    for (int i = 0; i < 4; ++i) {
      EXPECT_DOUBLE_EQ(buf2[i], prev * 10.0 + i);
    }
  });
}

// Paper Listing 2: even ranks send to the next odd rank.
TEST(Directive, Listing2EvenToOdd) {
  spmd(8, [](RankCtx& ctx) {
    int buf1[2] = {ctx.rank(), ctx.rank() + 1000};
    int buf2[2] = {-1, -1};

    comm_p2p(Clauses()
                 .sbuf(buf(buf1))
                 .rbuf(buf(buf2))
                 .sender("rank-1")
                 .receiver("rank+1")
                 .sendwhen("rank%2==0")
                 .receivewhen("rank%2==1"));

    if (ctx.rank() % 2 == 1) {
      EXPECT_EQ(buf2[0], ctx.rank() - 1);
      EXPECT_EQ(buf2[1], ctx.rank() - 1 + 1000);
    } else {
      EXPECT_EQ(buf2[0], -1);  // even ranks receive nothing
    }
  });
}

// Boundary safety: the receiver clause is only evaluated on sending ranks,
// so the last rank's out-of-range neighbour expression is never evaluated.
TEST(Directive, GuardsPreventOutOfRangeNeighbourEvaluation) {
  spmd(4, [](RankCtx& ctx) {
    int out[1] = {ctx.rank()};
    int in[1] = {-1};
    comm_p2p(Clauses()
                 .sbuf(buf(out))
                 .rbuf(buf(in))
                 .sender("rank-1")
                 .receiver("rank+1")
                 .sendwhen("rank<nprocs-1")
                 .receivewhen("rank>0"));
    if (ctx.rank() > 0) { EXPECT_EQ(in[0], ctx.rank() - 1); }
  });
}

TEST(Directive, CountInferenceUsesSmallestArray) {
  spmd(2, [](RankCtx& ctx) {
    double big_send[10];
    double small_recv[6] = {};
    std::iota(big_send, big_send + 10, 0.0);

    comm_p2p(Clauses()
                 .sender(0)
                 .receiver(1)
                 .sendwhen("rank==0")
                 .receivewhen("rank==1")
                 .sbuf(buf(big_send))
                 .rbuf(buf(small_recv)));

    if (ctx.rank() == 1) {
      // count inferred as min(10, 6) = 6
      EXPECT_DOUBLE_EQ(small_recv[5], 5.0);
    }
  });
}

TEST(Directive, ExplicitCountClauseWins) {
  spmd(2, [](RankCtx& ctx) {
    double send[8];
    double recv[8] = {};
    std::iota(send, send + 8, 1.0);
    comm_p2p(Clauses()
                 .sender(0)
                 .receiver(1)
                 .sendwhen("rank==0")
                 .receivewhen("rank==1")
                 .count(3)
                 .sbuf(buf(send))
                 .rbuf(buf(recv)));
    if (ctx.rank() == 1) {
      EXPECT_DOUBLE_EQ(recv[2], 3.0);
      EXPECT_DOUBLE_EQ(recv[3], 0.0);  // only 3 elements moved
    }
  });
}

TEST(Directive, CountRequiredWhenNoArrayExtent) {
  EXPECT_THROW(spmd(2,
                    [](RankCtx&) {
                      double x = 0.0;
                      double y = 0.0;
                      comm_p2p(Clauses()
                                   .sender(0)
                                   .receiver(1)
                                   .sbuf(buf(&x))
                                   .rbuf(buf(&y)));
                    }),
               cid::CidError);
}

TEST(Directive, MissingRequiredClauseThrows) {
  EXPECT_THROW(spmd(2,
                    [](RankCtx&) {
                      double a[2], b[2];
                      comm_p2p(Clauses().sbuf(buf(a)).rbuf(buf(b)));
                    }),
               cid::CidError);
}

TEST(Directive, BufferListsFanOut) {
  // Paper Listing 5 shape: several buffers in one directive.
  spmd(2, [](RankCtx& ctx) {
    std::vector<double> vr(16), rhotot(16);
    std::vector<double> vr_in(16), rhotot_in(16);
    std::iota(vr.begin(), vr.end(), 0.0);
    std::iota(rhotot.begin(), rhotot.end(), 100.0);

    comm_p2p(Clauses()
                 .sender(0)
                 .receiver(1)
                 .sendwhen("rank==0")
                 .receivewhen("rank==1")
                 .count(16)
                 .sbuf({buf(vr, "vr"), buf(rhotot, "rhotot")})
                 .rbuf({buf(vr_in, "vr"), buf(rhotot_in, "rhotot")}));

    if (ctx.rank() == 1) {
      EXPECT_DOUBLE_EQ(vr_in[15], 15.0);
      EXPECT_DOUBLE_EQ(rhotot_in[0], 100.0);
    }
  });
}

// --- composite (struct) buffers ---------------------------------------------

struct SpinScalars {
  int local_id;
  int jmt;
  double xstart;
  double evec[3];
  char header[8];
};

}  // namespace

CID_REFLECT_STRUCT(SpinScalars, local_id, jmt, xstart, evec, header)

namespace {

TEST(Directive, CompositeBufferUsesDerivedDatatype) {
  spmd(2, [](RankCtx& ctx) {
    SpinScalars data{};
    if (ctx.rank() == 0) {
      data = {7, 42, 1.25, {0.1, 0.2, 0.3}, {'a', 'b'}};
    }
    comm_p2p(Clauses()
                 .sender(0)
                 .receiver(1)
                 .sendwhen("rank==0")
                 .receivewhen("rank==1")
                 .count(1)
                 .sbuf(buf(data, "scalars"))
                 .rbuf(buf(data, "scalars")));
    if (ctx.rank() == 1) {
      EXPECT_EQ(data.local_id, 7);
      EXPECT_EQ(data.jmt, 42);
      EXPECT_DOUBLE_EQ(data.xstart, 1.25);
      EXPECT_DOUBLE_EQ(data.evec[2], 0.3);
      EXPECT_EQ(data.header[1], 'b');
    }
  });
}

struct BadComposite {
  int n;
  int* ptr;
};

}  // namespace

CID_REFLECT_STRUCT(BadComposite, n, ptr)

namespace {

TEST(Directive, CompositeWithPointerRejected) {
  EXPECT_THROW(spmd(2,
                    [](RankCtx&) {
                      BadComposite bad{};
                      comm_p2p(Clauses()
                                   .sender(0)
                                   .receiver(1)
                                   .count(1)
                                   .sbuf(buf(bad))
                                   .rbuf(buf(bad)));
                    }),
               cid::CidError);
}

// --- comm_parameters regions -------------------------------------------------

TEST(Directive, Listing3RegionWithLoop) {
  spmd(6, [](RankCtx& ctx) {
    constexpr int kIters = 5;
    double buf1[kIters];
    double buf2[kIters] = {};
    for (int p = 0; p < kIters; ++p) buf1[p] = ctx.rank() + p * 0.125;

    comm_parameters(
        Clauses()
            .sender("rank-1")
            .receiver("rank+1")
            .sendwhen("rank%2==0")
            .receivewhen("rank%2==1")
            .count(1)
            .max_comm_iter(kIters)
            .place_sync(SyncPlacement::EndParamRegion),
        [&](Region& region) {
          for (int p = 0; p < kIters; ++p) {
            region.p2p(Clauses().sbuf(buf(&buf1[p])).rbuf(buf(&buf2[p])));
          }
        });

    if (ctx.rank() % 2 == 1) {
      for (int p = 0; p < kIters; ++p) {
        EXPECT_DOUBLE_EQ(buf2[p], (ctx.rank() - 1) + p * 0.125);
      }
    }
  });
}

TEST(Directive, RegionClauseInheritanceAndOverride) {
  spmd(3, [](RankCtx& ctx) {
    int a[2] = {ctx.rank() * 2, ctx.rank() * 2 + 1};
    int b[2] = {-1, -1};
    int c[2] = {-1, -1};
    comm_parameters(
        Clauses().sender(0).receiver("rank==0?1:0").sendwhen("rank==0")
            .receivewhen("rank==1"),
        [&](Region& region) {
          // Inherits everything; rank 0 -> rank 1.
          region.p2p(Clauses().sbuf(buf(a)).rbuf(buf(b)));
          // Overrides the receiver: rank 0 -> rank 2.
          region.p2p(Clauses().sbuf(buf(a)).rbuf(buf(c)).receiver(2)
                         .receivewhen("rank==2").sendwhen("rank==0"));
        });
    if (ctx.rank() == 1) {
      EXPECT_EQ(b[0], 0);
      EXPECT_EQ(c[0], -1);
    }
    if (ctx.rank() == 2) {
      EXPECT_EQ(b[0], -1);
      EXPECT_EQ(c[0], 0);
    }
  });
}

TEST(Directive, StandalonePlaceSyncOnP2PThrows) {
  EXPECT_THROW(spmd(1,
                    [](RankCtx&) {
                      double a[1], b[1];
                      comm_p2p(Clauses()
                                   .sender(0)
                                   .receiver(0)
                                   .sbuf(buf(a))
                                   .rbuf(buf(b))
                                   .place_sync(SyncPlacement::EndParamRegion));
                    }),
               cid::CidError);
}

TEST(Directive, NestedRegionsInherit) {
  spmd(2, [](RankCtx& ctx) {
    double a[2] = {ctx.rank() + 0.5, ctx.rank() + 1.5};
    double b[2] = {};
    comm_parameters(
        Clauses().sender(0).receiver(1).sendwhen("rank==0").receivewhen(
            "rank==1"),
        [&](Region&) {
          comm_parameters(Clauses().count(2), [&](Region& inner) {
            inner.p2p(Clauses().sbuf(buf(a)).rbuf(buf(b)));
          });
        });
    if (ctx.rank() == 1) {
      EXPECT_DOUBLE_EQ(b[0], 0.5);
      EXPECT_DOUBLE_EQ(b[1], 1.5);
    }
  });
}

// --- targets -------------------------------------------------------------

TEST(Directive, ShmemTargetMovesData) {
  spmd(4, [](RankCtx& ctx) {
    namespace shmem = cid::shmem;
    double* rbuf_sym = shmem::malloc_of<double>(4);
    std::fill(rbuf_sym, rbuf_sym + 4, -1.0);
    double sbuf_local[4];
    for (int i = 0; i < 4; ++i) sbuf_local[i] = ctx.rank() * 100.0 + i;
    ctx.barrier();

    comm_p2p(Clauses()
                 .sender("(rank-1+nprocs)%nprocs")
                 .receiver("(rank+1)%nprocs")
                 .count(4)
                 .target(Target::Shmem)
                 .sbuf(buf(sbuf_local))
                 .rbuf(buf_n(rbuf_sym, 4)));

    const int prev = (ctx.rank() - 1 + ctx.nranks()) % ctx.nranks();
    for (int i = 0; i < 4; ++i) {
      EXPECT_DOUBLE_EQ(rbuf_sym[i], prev * 100.0 + i);
    }
  });
}

TEST(Directive, ShmemTargetRequiresSymmetricRbuf) {
  EXPECT_THROW(spmd(2,
                    [](RankCtx&) {
                      double stack_rbuf[2] = {};
                      double sbuf_local[2] = {};
                      comm_p2p(Clauses()
                                   .sender(0)
                                   .receiver(1)
                                   .count(2)
                                   .target(Target::Shmem)
                                   .sbuf(buf(sbuf_local))
                                   .rbuf(buf(stack_rbuf)));
                    }),
               cid::CidError);
}

TEST(Directive, Mpi1SideTargetMovesData) {
  spmd(3, [](RankCtx& ctx) {
    double send[3];
    double recv[3] = {};
    for (int i = 0; i < 3; ++i) send[i] = ctx.rank() * 7.0 + i;

    comm_p2p(Clauses()
                 .sender("(rank-1+nprocs)%nprocs")
                 .receiver("(rank+1)%nprocs")
                 .target(Target::Mpi1Side)
                 .sbuf(buf(send))
                 .rbuf(buf(recv)));

    const int prev = (ctx.rank() - 1 + ctx.nranks()) % ctx.nranks();
    for (int i = 0; i < 3; ++i) {
      EXPECT_DOUBLE_EQ(recv[i], prev * 7.0 + i);
    }
  });
}

TEST(Directive, AllTargetsProduceSameData) {
  for (Target target : {Target::Mpi2Side, Target::Mpi1Side, Target::Shmem}) {
    spmd(4, [&](RankCtx& ctx) {
      namespace shmem = cid::shmem;
      int* rbuf_mem = shmem::malloc_of<int>(8);  // symmetric works for all
      std::fill(rbuf_mem, rbuf_mem + 8, 0);
      int sbuf_mem[8];
      for (int i = 0; i < 8; ++i) sbuf_mem[i] = ctx.rank() * 1000 + i;
      ctx.barrier();

      comm_p2p(Clauses()
                   .sender("(rank-1+nprocs)%nprocs")
                   .receiver("(rank+1)%nprocs")
                   .count(8)
                   .target(target)
                   .sbuf(buf(sbuf_mem))
                   .rbuf(buf_n(rbuf_mem, 8)));

      const int prev = (ctx.rank() - 1 + ctx.nranks()) % ctx.nranks();
      for (int i = 0; i < 8; ++i) {
        EXPECT_EQ(rbuf_mem[i], prev * 1000 + i) << "target "
                                                << static_cast<int>(target);
      }
    });
  }
}

// --- sync placement / consolidation ---------------------------------------

TEST(Directive, SyncConsolidationOneWaitallPerRegion) {
  // With independent buffers, a region of K adjacent p2p directives must
  // produce ONE waitall: total time ~= K * per-message + one waitall, not
  // K * (per-message + wait).
  const auto model = MachineModel::cray_xk7_gemini();
  constexpr int kMsgs = 32;

  auto directive_time = [&] {
    auto result = cid::rt::run(2, model, [&](RankCtx& ctx) {
      std::vector<double> out(3 * kMsgs), in(3 * kMsgs);
      comm_parameters(
          Clauses().sender(0).receiver(1).sendwhen("rank==0")
              .receivewhen("rank==1").count(3).max_comm_iter(kMsgs),
          [&](Region& region) {
            for (int p = 0; p < kMsgs; ++p) {
              region.p2p(
                  Clauses().sbuf(buf(&out[3 * p])).rbuf(buf(&in[3 * p])));
            }
          });
      (void)ctx;
    });
    return result.makespan();
  };

  auto wait_loop_time = [&] {
    auto result = cid::rt::run(2, model, [&](RankCtx& ctx) {
      namespace mpi = cid::mpi;
      auto world = mpi::Comm::world();
      std::vector<double> data(3 * kMsgs);
      if (ctx.rank() == 0) {
        std::vector<mpi::Request> reqs;
        for (int p = 0; p < kMsgs; ++p) {
          reqs.push_back(mpi::isend(world, &data[3 * p], 3, 1, p));
        }
        for (auto& r : reqs) mpi::wait(r);
      } else {
        std::vector<mpi::Request> reqs;
        for (int p = 0; p < kMsgs; ++p) {
          reqs.push_back(mpi::irecv(world, &data[3 * p], 3, 0, p));
        }
        for (auto& r : reqs) mpi::wait(r);
      }
    });
    return result.makespan();
  };

  EXPECT_LT(directive_time(), wait_loop_time());
}

TEST(Directive, OverlappingBuffersForceIntermediateSync) {
  // Two adjacent p2ps share a buffer: the second must not start before the
  // first completed (WAW on rbuf). Data correctness is the observable.
  spmd(2, [](RankCtx& ctx) {
    double stage[4] = {};
    double final_data[4] = {};
    double source[4];
    for (int i = 0; i < 4; ++i) source[i] = 10.0 + i;

    comm_parameters(
        Clauses().count(4), [&](Region& region) {
          // rank0 -> rank1 into stage
          region.p2p(Clauses()
                         .sender(0)
                         .receiver(1)
                         .sendwhen("rank==0")
                         .receivewhen("rank==1")
                         .sbuf(buf(source))
                         .rbuf(buf(stage)));
          // rank1 -> rank0 from stage (RAW dependence on stage)
          region.p2p(Clauses()
                         .sender(1)
                         .receiver(0)
                         .sendwhen("rank==1")
                         .receivewhen("rank==0")
                         .sbuf(buf(stage))
                         .rbuf(buf(final_data)));
        });

    if (ctx.rank() == 0) {
      for (int i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(final_data[i], 10.0 + i);
    }
  });
}

TEST(Directive, PlaceSyncBeginNextRegion) {
  spmd(2, [](RankCtx& ctx) {
    double a[2] = {1.5, 2.5};
    double b[2] = {};
    double c[2] = {9.5, 8.5};
    double d[2] = {};
    comm_parameters(
        Clauses().sender(0).receiver(1).sendwhen("rank==0")
            .receivewhen("rank==1")
            .place_sync(SyncPlacement::BeginNextParamRegion),
        [&](Region& region) {
          region.p2p(Clauses().sbuf(buf(a)).rbuf(buf(b)));
        });
    // Synchronization deferred: completes at the start of this region.
    comm_parameters(
        Clauses().sender(0).receiver(1).sendwhen("rank==0")
            .receivewhen("rank==1"),
        [&](Region& region) {
          if (ctx.rank() == 1) {
            EXPECT_DOUBLE_EQ(b[0], 1.5);  // already synced at region begin
          }
          region.p2p(Clauses().sbuf(buf(c)).rbuf(buf(d)));
        });
    if (ctx.rank() == 1) {
      EXPECT_DOUBLE_EQ(d[0], 9.5);
    }
  });
}

TEST(Directive, PlaceSyncEndAdjacentRegions) {
  spmd(2, [](RankCtx& ctx) {
    double a[2] = {1.0, 2.0}, b[2] = {};
    double c[2] = {3.0, 4.0}, d[2] = {};
    // Two adjacent regions defer to the end of the series.
    comm_parameters(
        Clauses().sender(0).receiver(1).sendwhen("rank==0")
            .receivewhen("rank==1")
            .place_sync(SyncPlacement::EndAdjParamRegions),
        [&](Region& region) {
          region.p2p(Clauses().sbuf(buf(a)).rbuf(buf(b)));
        });
    comm_parameters(
        Clauses().sender(0).receiver(1).sendwhen("rank==0")
            .receivewhen("rank==1"),
        [&](Region& region) {
          region.p2p(Clauses().sbuf(buf(c)).rbuf(buf(d)));
        });
    // Second region has default END_PARAM_REGION: everything drained.
    if (ctx.rank() == 1) {
      EXPECT_DOUBLE_EQ(b[1], 2.0);
      EXPECT_DOUBLE_EQ(d[1], 4.0);
    }
  });
}

TEST(Directive, CommFlushDrainsDeferredSync) {
  spmd(2, [](RankCtx& ctx) {
    double a[2] = {5.0, 6.0}, b[2] = {};
    comm_parameters(
        Clauses().sender(0).receiver(1).sendwhen("rank==0")
            .receivewhen("rank==1")
            .place_sync(SyncPlacement::EndAdjParamRegions),
        [&](Region& region) {
          region.p2p(Clauses().sbuf(buf(a)).rbuf(buf(b)));
        });
    comm_flush();  // no further region follows
    if (ctx.rank() == 1) {
      EXPECT_DOUBLE_EQ(b[0], 5.0);
    }
  });
}

// A transfer that depends on a receive whose sync a place_sync deferred
// completes that receive first, exactly as a dependence inside one region
// does: the adjacency check walks every in-flight batch, not just the open
// one. The message is past the eager threshold, so an unsynchronized send
// of `b` would ship the zeros it held before the receive landed.
TEST(Directive, AdjacencyCheckSeesDeferredReceives) {
  spmd(2, [](RankCtx& ctx) {
    constexpr int kCount = 65536;
    std::vector<double> a(kCount, 1.0), b(kCount, 0.0), c(kCount, 0.0);
    comm_parameters(
        Clauses().sender(0).receiver(1).sendwhen("rank==0")
            .receivewhen("rank==1").count(kCount)
            .place_sync(SyncPlacement::EndAdjParamRegions),
        [&](Region& region) {
          region.p2p(Clauses().sbuf(buf(a)).rbuf(buf(b)));
        });
    // Adjacent region: rank 1 sends the still-deferred `b` back.
    comm_parameters(
        Clauses().sender(1).receiver(0).sendwhen("rank==1")
            .receivewhen("rank==0").count(kCount),
        [&](Region& region) {
          region.p2p(Clauses().sbuf(buf(b)).rbuf(buf(c)));
        });
    if (ctx.rank() == 0) {
      EXPECT_DOUBLE_EQ(c.front(), 1.0);
      EXPECT_DOUBLE_EQ(c.back(), 1.0);
    } else {
      EXPECT_EQ(comm_stats().conflict_flushes, 1u);
    }
  });
}

// place_sync belongs to the region that names it: a nested region without
// the clause synchronizes at its own end even inside a deferring region.
TEST(Directive, NestedRegionDoesNotInheritPlaceSync) {
  spmd(2, [](RankCtx& ctx) {
    double a[2] = {1.0, 2.0}, b[2] = {};
    comm_parameters(
        Clauses().sender(0).receiver(1).sendwhen("rank==0")
            .receivewhen("rank==1")
            .place_sync(SyncPlacement::BeginNextParamRegion),
        [&](Region&) {
          comm_parameters(Clauses(), [&](Region& inner) {
            inner.p2p(Clauses().sbuf(buf(a)).rbuf(buf(b)));
          });
          EXPECT_EQ(comm_stats().waitalls, 1u);
          if (ctx.rank() == 1) {
            EXPECT_DOUBLE_EQ(b[1], 2.0);
          }
        });
    EXPECT_EQ(comm_stats().deferred_syncs, 1u);
    comm_flush();
  });
}

// --- overlap ---------------------------------------------------------------

TEST(Directive, OverlapBlockRunsBeforeSync) {
  spmd(2, [](RankCtx& ctx) {
    double a[2] = {1.0, 2.0};
    double b[2] = {};
    bool overlap_ran = false;
    comm_p2p(Clauses()
                 .sender(0)
                 .receiver(1)
                 .sendwhen("rank==0")
                 .receivewhen("rank==1")
                 .sbuf(buf(a))
                 .rbuf(buf(b)),
             [&] { overlap_ran = true; });
    EXPECT_TRUE(overlap_ran);
    if (ctx.rank() == 1) { EXPECT_DOUBLE_EQ(b[0], 1.0); }
  });
}

TEST(Directive, OverlapHidesCommunicationTime) {
  const auto model = MachineModel::cray_xk7_gemini();
  constexpr double kComputeSeconds = 500e-6;  // >> per-message cost

  auto run_variant = [&](bool overlapped) {
    auto result = cid::rt::run(2, model, [&](RankCtx& ctx) {
      std::vector<double> out(300), in(300);
      auto compute = [&] { ctx.charge_compute(kComputeSeconds); };
      comm_parameters(
          Clauses().sender(0).receiver(1).sendwhen("rank==0")
              .receivewhen("rank==1").count(3).max_comm_iter(100),
          [&](Region& region) {
            for (int p = 0; p < 100; ++p) {
              region.p2p(
                  Clauses().sbuf(buf(&out[3 * p])).rbuf(buf(&in[3 * p])));
            }
            if (overlapped && ctx.rank() == 1) compute();
          });
      if (!overlapped && ctx.rank() == 1) compute();
    });
    return result.makespan();
  };

  const double with_overlap = run_variant(true);
  const double without_overlap = run_variant(false);
  // Overlapped: communication hides under the compute block.
  EXPECT_LT(with_overlap, without_overlap);
}

// --- virtual-time shape: directive beats hand-written wait loop -------------

TEST(Directive, ShmemTargetFasterThanMpiForSmallMessages) {
  const auto model = MachineModel::cray_xk7_gemini();
  constexpr int kMsgs = 64;

  auto run_target = [&](Target target) {
    auto result = cid::rt::run(2, model, [&](RankCtx& ctx) {
      namespace shmem = cid::shmem;
      double* in = shmem::malloc_of<double>(3 * kMsgs);
      std::vector<double> out(3 * kMsgs, 1.0);
      ctx.barrier();
      comm_parameters(
          Clauses().sender(0).receiver(1).sendwhen("rank==0")
              .receivewhen("rank==1").count(3).max_comm_iter(kMsgs)
              .target(target),
          [&](Region& region) {
            for (int p = 0; p < kMsgs; ++p) {
              region.p2p(
                  Clauses().sbuf(buf(&out[3 * p])).rbuf(buf(&in[3 * p])));
            }
          });
    });
    return result.makespan();
  };

  const double mpi_time = run_target(Target::Mpi2Side);
  const double shmem_time = run_target(Target::Shmem);
  EXPECT_LT(shmem_time, mpi_time);
  // The paper's regime: several-fold advantage for small transfers.
  EXPECT_GT(mpi_time / shmem_time, 2.0);
}

TEST(Directive, OutsideSpmdRegionThrows) {
  double a[1], b[1];
  EXPECT_THROW(
      comm_p2p(Clauses().sender(0).receiver(0).sbuf(buf(a)).rbuf(buf(b))),
      cid::CidError);
  EXPECT_THROW(comm_parameters(Clauses(), [](Region&) {}), cid::CidError);
  EXPECT_THROW(comm_flush(), cid::CidError);
}

}  // namespace

namespace {

// Regression: a SHMEM-targeted site whose SENDER CHANGES between epochs must
// keep its completion flags correct (per-source flag slots; a single shared
// counter deadlocks when the writer changes).
TEST(Directive, ShmemSiteWithChangingSenders) {
  spmd(4, [](RankCtx& ctx) {
    namespace shmem = cid::shmem;
    double* inbox = shmem::malloc_of<double>(2);
    double outbox[2];
    ctx.barrier();
    // Rounds with different (from, to) pairs through the SAME lexical site.
    const int froms[] = {0, 2, 1, 3, 0, 2};
    const int tos[] = {1, 3, 0, 2, 3, 1};
    for (int round = 0; round < 6; ++round) {
      const int from = froms[round];
      const int to = tos[round];
      outbox[0] = ctx.rank() * 10.0 + round;
      outbox[1] = -outbox[0];
      comm_p2p(Clauses()
                   .sender(from)
                   .receiver(to)
                   .sendwhen([&]() -> ExprValue { return ctx.rank() == from; })
                   .receivewhen([&]() -> ExprValue { return ctx.rank() == to; })
                   .count(2)
                   .target(Target::Shmem)
                   .sbuf(buf(outbox))
                   .rbuf(buf_n(inbox, 2)));
      if (ctx.rank() == to) {
        EXPECT_DOUBLE_EQ(inbox[0], from * 10.0 + round) << "round " << round;
        EXPECT_DOUBLE_EQ(inbox[1], -(from * 10.0 + round));
      }
      ctx.barrier();
    }
  });
}

// Regression: ranks that never execute a SHMEM-targeted site (here: rank 2)
// must not skew the flag allocation of ranks that do.
TEST(Directive, ShmemSiteSkippedBySomeRanks) {
  spmd(3, [](RankCtx& ctx) {
    namespace shmem = cid::shmem;
    double* inbox = shmem::malloc_of<double>(1);
    double outbox[1] = {ctx.rank() + 0.5};
    ctx.barrier();
    if (ctx.rank() != 2) {
      comm_p2p(Clauses()
                   .sender(0)
                   .receiver(1)
                   .sendwhen("rank==0")
                   .receivewhen("rank==1")
                   .count(1)
                   .target(Target::Shmem)
                   .sbuf(buf(outbox))
                   .rbuf(buf_n(inbox, 1)));
    }
    if (ctx.rank() == 1) { EXPECT_DOUBLE_EQ(inbox[0], 0.5); }
    ctx.barrier();
    // Rank 2 now makes a user allocation; offsets must still be symmetric.
    double* later = shmem::malloc_of<double>(4);
    ctx.barrier();
    if (ctx.rank() == 0) {
      double v = 9.25;
      shmem::put(later, &v, 1, 2);
    }
    shmem::barrier_all();
    if (ctx.rank() == 2) { EXPECT_DOUBLE_EQ(later[0], 9.25); }
  });
}

// --- clause evaluation per execution ---------------------------------------

/// One directive site for every element type: all instantiations share the
/// source_location of the p2p call.
template <class T>
void exchange_four(Region& region, std::vector<T>& out, std::vector<T>& in) {
  region.p2p(Clauses().sbuf(buf_n(out.data(), 4)).rbuf(buf_n(in.data(), 4)));
}

TEST(Directive, PersistentSlotFollowsElementType) {
  spmd(2, [](RankCtx& ctx) {
    const Clauses pair =
        Clauses().sender("1-rank").receiver("1-rank").max_comm_iter(1);
    // Eight elements each, four exchanged: the tail is a guard that a slot
    // still sized for doubles would overwrite.
    std::vector<double> dout(8, ctx.rank() + 0.5);
    std::vector<double> din(8, -1.0);
    comm_parameters(pair, [&](Region& region) {
      exchange_four(region, dout, din);
    });
    std::vector<int> iout(8, 99);
    std::iota(iout.begin(), iout.begin() + 4, 10 * ctx.rank());
    std::vector<int> iin(8, -1);
    comm_parameters(pair, [&](Region& region) {
      exchange_four(region, iout, iin);
    });
    const int peer = 1 - ctx.rank();
    EXPECT_DOUBLE_EQ(din[3], peer + 0.5);
    for (int i = 0; i < 4; ++i) EXPECT_EQ(iin[i], 10 * peer + i);
    for (int i = 4; i < 8; ++i) EXPECT_EQ(iin[i], -1) << "guard " << i;
  });
}

TEST(Directive, RewrittenClauseTextIsReparsed) {
  spmd(3, [](RankCtx& ctx) {
    char receiver[16];
    char sender[16];
    for (int round = 0; round < 2; ++round) {
      // The same buffers, rewritten: a cache keyed on the pointer would
      // keep evaluating round 0's text.
      std::snprintf(receiver, sizeof receiver, "(rank+%d)%%3", round + 1);
      std::snprintf(sender, sizeof sender, "(rank+%d)%%3", 2 - round);
      double out = ctx.rank();
      double in = -1.0;
      comm_p2p(Clauses()
                   .sender(sender)
                   .receiver(receiver)
                   .sbuf(buf_n(&out, 1))
                   .rbuf(buf_n(&in, 1)));
      EXPECT_DOUBLE_EQ(in, (ctx.rank() + 2 - round) % 3) << "round " << round;
    }
  });
}

TEST(Directive, MalformedClauseThrowsOnEveryExecution) {
  const std::string parser_message =
      Expr::parse("rank+").status().message();
  ASSERT_NE(parser_message.find("position"), std::string::npos);
  spmd(2, [&](RankCtx&) {
    double out = 1.0;
    double in = 0.0;
    for (int round = 0; round < 3; ++round) {
      try {
        comm_p2p(Clauses()
                     .sender("1-rank")
                     .receiver("rank+")
                     .sbuf(buf_n(&out, 1))
                     .rbuf(buf_n(&in, 1)));
        ADD_FAILURE() << "round " << round << " did not throw";
      } catch (const cid::CidError& error) {
        EXPECT_EQ(error.code(), cid::ErrorCode::InvalidClause);
        EXPECT_NE(std::string(error.what()).find(parser_message),
                  std::string::npos)
            << error.what();
      }
    }
  });
}

TEST(Directive, P2PLetShadowsRegionLet) {
  spmd(3, [](RankCtx& ctx) {
    double out = ctx.rank();
    double in = -1.0;
    comm_parameters(Clauses()
                        .let("k", 1)
                        .sender("(rank+nprocs-k)%nprocs")
                        .receiver("(rank+k)%nprocs"),
                    [&](Region& region) {
                      region.p2p(Clauses().let("k", 2).sbuf(buf_n(&out, 1))
                                     .rbuf(buf_n(&in, 1)));
                    });
    EXPECT_DOUBLE_EQ(in, (ctx.rank() + 1) % 3);
  });
}

// A site hashes on its name's content, not on its entry's address, so the
// executor's per-site tables lay their buckets out the same in every process.
TEST(Directive, SiteIdHashesItsNameNotItsAddress) {
  const auto here = std::source_location::current();
  const detail::SiteId site = detail::SiteId::of(here);
  const std::string file = here.file_name();  // the same text elsewhere
  EXPECT_EQ(std::hash<detail::SiteId>{}(site),
            detail::SiteId::hash_of(file, here.line()));
  EXPECT_EQ(site, detail::SiteId::of(here));
  EXPECT_EQ(site.name().text(), file + ":" + std::to_string(here.line()));
}

}  // namespace
