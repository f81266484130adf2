// Tests for the cid::mpi::coll multi-algorithm engine: every algorithm is
// cross-checked element-equal against independently computed reference
// results across group sizes (including non-powers-of-two), all four
// ReduceOps run under every allreduce algorithm, count==0 and single-member
// groups early-out, out-of-range roots throw, CID_COLL overrides steer (and
// reject nonsense), and virtual clocks are identical under both schedulers.
//
// Reduction tests use exactly-representable values (small integers): the
// tree, recursive-doubling and ring algorithms combine partial results in
// different orders, which is only element-identical when every intermediate
// is exact.
#include <gtest/gtest.h>

#include <cstdlib>
#include <numeric>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "mpi/coll.hpp"
#include "mpi/mpi.hpp"
#include "rt/runtime.hpp"

namespace {

using cid::CidError;
using cid::rt::RankCtx;
using cid::simnet::MachineModel;
namespace mpi = cid::mpi;
namespace coll = cid::mpi::coll;
using coll::CollAlgo;

void spmd(int nranks, const cid::rt::RankFn& fn) {
  cid::rt::run(nranks, MachineModel::zero(), fn);
}

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

// Group sizes exercising every structural case: 1 (local copy), 2-4 (tiny
// groups), 5 and 7 (non-power-of-two trees / rd fold), 8 and 16 (clean
// power-of-two doubling).
class CollAlgoSizes : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Sizes, CollAlgoSizes,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 16));

TEST_P(CollAlgoSizes, BcastAlgorithmsMatchReference) {
  const int nranks = GetParam();
  const int root = nranks - 1;
  for (CollAlgo algo : {CollAlgo::Binomial, CollAlgo::VanDeGeijn}) {
    spmd(nranks, [root, algo](RankCtx& ctx) {
      auto world = mpi::Comm::world();
      // 13 elements: not divisible by most group sizes, so the van de Geijn
      // scatter produces ragged (including zero-length) chunks.
      std::vector<int> data(13, -1);
      if (ctx.rank() == root) std::iota(data.begin(), data.end(), 100);
      coll::bcast(world, data.data(), data.size(), mpi::datatype_of<int>(),
                  root, algo);
      for (int i = 0; i < 13; ++i) EXPECT_EQ(data[i], 100 + i);
    });
  }
}

TEST_P(CollAlgoSizes, GatherAlgorithmsMatchReference) {
  const int nranks = GetParam();
  const int root = nranks / 2;
  for (CollAlgo algo : {CollAlgo::Flat, CollAlgo::Binomial}) {
    spmd(nranks, [nranks, root, algo](RankCtx& ctx) {
      auto world = mpi::Comm::world();
      std::array<int, 3> mine{ctx.rank() * 3, ctx.rank() * 3 + 1,
                              ctx.rank() * 3 + 2};
      std::vector<int> all;
      if (ctx.rank() == root) {
        all.assign(3 * static_cast<std::size_t>(nranks), -1);
      }
      coll::gather(world, mine.data(), 3, mpi::datatype_of<int>(),
                   ctx.rank() == root ? all.data() : nullptr, root, algo);
      if (ctx.rank() == root) {
        for (int i = 0; i < 3 * nranks; ++i) EXPECT_EQ(all[i], i);
      }
    });
  }
}

TEST_P(CollAlgoSizes, ScatterAlgorithmsMatchReference) {
  const int nranks = GetParam();
  const int root = nranks - 1;
  for (CollAlgo algo : {CollAlgo::Flat, CollAlgo::Binomial}) {
    spmd(nranks, [nranks, root, algo](RankCtx& ctx) {
      auto world = mpi::Comm::world();
      std::vector<double> source;
      if (ctx.rank() == root) {
        source.resize(2 * static_cast<std::size_t>(nranks));
        std::iota(source.begin(), source.end(), 0.0);
      }
      std::array<double, 2> mine{-1.0, -1.0};
      coll::scatter(world, ctx.rank() == root ? source.data() : nullptr, 2,
                    mpi::datatype_of<double>(), mine.data(), root, algo);
      EXPECT_DOUBLE_EQ(mine[0], 2.0 * ctx.rank());
      EXPECT_DOUBLE_EQ(mine[1], 2.0 * ctx.rank() + 1);
    });
  }
}

TEST_P(CollAlgoSizes, AllgatherAlgorithmsMatchReference) {
  const int nranks = GetParam();
  // RecursiveDoubling silently falls back to ring on non-power-of-two
  // groups; both paths must produce the same bytes.
  for (CollAlgo algo : {CollAlgo::Ring, CollAlgo::RecursiveDoubling}) {
    spmd(nranks, [nranks, algo](RankCtx& ctx) {
      auto world = mpi::Comm::world();
      std::array<int, 2> mine{ctx.rank() * 2, ctx.rank() * 2 + 1};
      std::vector<int> all(2 * static_cast<std::size_t>(nranks), -1);
      coll::allgather(world, mine.data(), 2, mpi::datatype_of<int>(),
                      all.data(), algo);
      for (int i = 0; i < 2 * nranks; ++i) EXPECT_EQ(all[i], i);
    });
  }
}

TEST_P(CollAlgoSizes, AlltoallAlgorithmsMatchReference) {
  const int nranks = GetParam();
  for (CollAlgo algo :
       {CollAlgo::Flat, CollAlgo::Bruck, CollAlgo::PairwiseWindow}) {
    spmd(nranks, [nranks, algo](RankCtx& ctx) {
      auto world = mpi::Comm::world();
      std::vector<int> send(2 * static_cast<std::size_t>(nranks));
      std::vector<int> recv(2 * static_cast<std::size_t>(nranks), -1);
      for (int j = 0; j < nranks; ++j) {
        send[2 * j] = ctx.rank() * 1000 + 2 * j;
        send[2 * j + 1] = ctx.rank() * 1000 + 2 * j + 1;
      }
      coll::alltoall(world, send.data(), 2, mpi::datatype_of<int>(),
                     recv.data(), algo);
      for (int j = 0; j < nranks; ++j) {
        EXPECT_EQ(recv[2 * j], j * 1000 + 2 * ctx.rank());
        EXPECT_EQ(recv[2 * j + 1], j * 1000 + 2 * ctx.rank() + 1);
      }
    });
  }
}

TEST_P(CollAlgoSizes, ReduceAlgorithmsMatchReference) {
  const int nranks = GetParam();
  const int root = nranks / 2;
  for (CollAlgo algo : {CollAlgo::Binomial, CollAlgo::Rabenseifner}) {
    spmd(nranks, [nranks, root, algo](RankCtx& ctx) {
      auto world = mpi::Comm::world();
      // 5 elements: ragged reduce-scatter chunks for most group sizes.
      std::array<double, 5> mine{};
      for (int i = 0; i < 5; ++i) {
        mine[static_cast<std::size_t>(i)] = ctx.rank() + i;
      }
      std::array<double, 5> total{};
      coll::reduce(world, mine.data(), total.data(), 5, mpi::ReduceOp::Sum,
                   root, algo);
      if (ctx.rank() == root) {
        const double ranks_sum = nranks * (nranks - 1) / 2.0;
        for (int i = 0; i < 5; ++i) {
          EXPECT_DOUBLE_EQ(total[static_cast<std::size_t>(i)],
                           ranks_sum + static_cast<double>(i) * nranks);
        }
      }
    });
  }
}

TEST_P(CollAlgoSizes, AllreduceAlgorithmsMatchReference) {
  const int nranks = GetParam();
  for (CollAlgo algo : {CollAlgo::ReduceBcast, CollAlgo::RecursiveDoubling,
                        CollAlgo::Ring}) {
    spmd(nranks, [nranks, algo](RankCtx& ctx) {
      auto world = mpi::Comm::world();
      std::array<double, 5> mine{};
      for (int i = 0; i < 5; ++i) {
        mine[static_cast<std::size_t>(i)] = ctx.rank() + i;
      }
      std::array<double, 5> total{};
      coll::allreduce(world, mine.data(), total.data(), 5,
                      mpi::ReduceOp::Sum, algo);
      const double ranks_sum = nranks * (nranks - 1) / 2.0;
      for (int i = 0; i < 5; ++i) {
        EXPECT_DOUBLE_EQ(total[static_cast<std::size_t>(i)],
                         ranks_sum + static_cast<double>(i) * nranks);
      }
    });
  }
}

TEST(CollEngine, AllReduceOpsUnderEveryAllreduceAlgorithm) {
  // 7 ranks: exercises the recursive-doubling non-power-of-two fold.
  const int nranks = 7;
  for (CollAlgo algo : {CollAlgo::ReduceBcast, CollAlgo::RecursiveDoubling,
                        CollAlgo::Ring}) {
    for (mpi::ReduceOp op : {mpi::ReduceOp::Sum, mpi::ReduceOp::Min,
                             mpi::ReduceOp::Max, mpi::ReduceOp::Prod}) {
      spmd(nranks, [nranks, algo, op](RankCtx& ctx) {
        auto world = mpi::Comm::world();
        // Values in {1, 2}: Prod over 7 ranks stays exact and small.
        std::array<int, 6> mine{};
        for (int i = 0; i < 6; ++i) {
          mine[static_cast<std::size_t>(i)] = (ctx.rank() + i) % 2 + 1;
        }
        std::array<int, 6> out{};
        coll::allreduce(world, mine.data(), out.data(), 6, op, algo);
        for (int i = 0; i < 6; ++i) {
          int expected = (0 + i) % 2 + 1;
          for (int r = 1; r < nranks; ++r) {
            const int v = (r + i) % 2 + 1;
            switch (op) {
              case mpi::ReduceOp::Sum: expected += v; break;
              case mpi::ReduceOp::Min: expected = std::min(expected, v); break;
              case mpi::ReduceOp::Max: expected = std::max(expected, v); break;
              case mpi::ReduceOp::Prod: expected *= v; break;
            }
          }
          EXPECT_EQ(out[static_cast<std::size_t>(i)], expected)
              << "algo=" << static_cast<int>(algo)
              << " op=" << static_cast<int>(op) << " i=" << i;
        }
      });
    }
  }
}

TEST(CollEngine, CountZeroIsANoOpEverywhere) {
  spmd(5, [](RankCtx& ctx) {
    auto world = mpi::Comm::world();
    int guard = 41 + ctx.rank();
    int out = -7;
    double dguard = 1.5;
    double dout = -7.0;
    mpi::bcast(world, &guard, 0, 1);
    mpi::gather(world, &guard, 0, &out, 1);
    mpi::scatter(world, &guard, 0, &out, 1);
    mpi::allgather(world, &guard, 0, &out);
    mpi::alltoall(world, &guard, 0, &out);
    mpi::reduce(world, &dguard, &dout, 0, mpi::ReduceOp::Sum, 1);
    mpi::allreduce(world, &dguard, &dout, 0, mpi::ReduceOp::Sum);
    EXPECT_EQ(guard, 41 + ctx.rank());
    EXPECT_EQ(out, -7);
    EXPECT_DOUBLE_EQ(dout, -7.0);
    // Zero-count collectives must not advance the clock: no messages move.
    EXPECT_DOUBLE_EQ(ctx.clock().now(), 0.0);
  });
}

TEST(CollEngine, AllreduceInPlaceAliasing) {
  // recv == send must work: single-member groups and the local fold both
  // copy through the same buffer.
  spmd(1, [](RankCtx&) {
    auto world = mpi::Comm::world();
    std::array<double, 3> buf{1.0, 2.0, 3.0};
    mpi::allreduce(world, buf.data(), buf.data(), 3, mpi::ReduceOp::Sum);
    EXPECT_DOUBLE_EQ(buf[0], 1.0);
    EXPECT_DOUBLE_EQ(buf[2], 3.0);
  });
}

TEST(CollEngine, OutOfRangeRootsThrow) {
  for (int bad_root : {-1, 3}) {
    EXPECT_THROW(spmd(3,
                      [bad_root](RankCtx&) {
                        int v = 0;
                        mpi::bcast(mpi::Comm::world(), &v, 1, bad_root);
                      }),
                 CidError);
    EXPECT_THROW(spmd(3,
                      [bad_root](RankCtx&) {
                        int v = 0;
                        int out[3];
                        mpi::gather(mpi::Comm::world(), &v, 1, out, bad_root);
                      }),
                 CidError);
    EXPECT_THROW(spmd(3,
                      [bad_root](RankCtx&) {
                        int v[3] = {};
                        int out = 0;
                        mpi::scatter(mpi::Comm::world(), v, 1, &out,
                                     bad_root);
                      }),
                 CidError);
    EXPECT_THROW(spmd(3,
                      [bad_root](RankCtx&) {
                        double v = 1.0;
                        double out = 0.0;
                        mpi::reduce(mpi::Comm::world(), &v, &out, 1,
                                    mpi::ReduceOp::Sum, bad_root);
                      }),
                 CidError);
  }
}

TEST(CollEngine, WorksOnSubcommunicators) {
  // Algorithms must use group-relative ranks, not world ranks.
  spmd(12, [](RankCtx& ctx) {
    auto world = mpi::Comm::world();
    auto sub = world.split(ctx.rank() % 3, ctx.rank());
    std::array<int, 4> all{};
    int mine = ctx.rank();
    coll::allgather(sub, &mine, 1, mpi::datatype_of<int>(), all.data(),
                    CollAlgo::RecursiveDoubling);
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(all[static_cast<std::size_t>(i)], ctx.rank() % 3 + 3 * i);
    }
    int sum = 0;
    coll::allreduce(sub, &mine, &sum, 1, mpi::ReduceOp::Sum,
                    CollAlgo::Ring);
    EXPECT_EQ(sum, 4 * (ctx.rank() % 3) + 3 * (0 + 1 + 2 + 3));
  });
}

TEST(CollEngine, CidCollOverrideSteersSelection) {
  // With the cray model, a flat alltoall at 32 ranks is far slower than
  // Bruck; forcing each via CID_COLL must produce different (and ordered)
  // virtual makespans while both stay correct.
  const auto model = MachineModel::cray_xk7_gemini();
  auto run_with = [&](const char* forced) {
    EnvGuard coll_env("CID_COLL", forced);
    auto result = cid::rt::run(32, model, [](RankCtx& ctx) {
      auto world = mpi::Comm::world();
      std::vector<int> send(32), recv(32, -1);
      for (int j = 0; j < 32; ++j) send[j] = ctx.rank() * 100 + j;
      mpi::alltoall(world, send.data(), 1, recv.data());
      for (int j = 0; j < 32; ++j) {
        EXPECT_EQ(recv[j], j * 100 + ctx.rank());
      }
    });
    return result.makespan();
  };
  const double flat = run_with("alltoall:flat");
  const double bruck = run_with("alltoall:bruck");
  const double pairwise = run_with("alltoall:pairwise");
  EXPECT_NE(flat, bruck);
  EXPECT_LT(bruck, flat);
  EXPECT_NE(bruck, pairwise);
}

TEST(CollEngine, CidCollInapplicableOverrideFallsThrough) {
  // rd allgather cannot run on a 6-rank group; the override must fall
  // through to the cost model instead of crashing or misdelivering.
  EnvGuard coll_env("CID_COLL", "allgather:rd");
  spmd(6, [](RankCtx& ctx) {
    auto world = mpi::Comm::world();
    int mine = ctx.rank() + 1;
    std::array<int, 6> all{};
    mpi::allgather(world, &mine, 1, all.data());
    for (int i = 0; i < 6; ++i) {
      EXPECT_EQ(all[static_cast<std::size_t>(i)], i + 1);
    }
  });
}

TEST(CollEngine, InvalidCidCollRejectedAtStartup) {
  {
    EnvGuard coll_env("CID_COLL", "alltoall:nonsense");
    EXPECT_THROW(spmd(2, [](RankCtx&) {}), CidError);
  }
  {
    EnvGuard coll_env("CID_COLL", "bcast:bruck");  // never implements bcast
    EXPECT_THROW(spmd(2, [](RankCtx&) {}), CidError);
  }
  {
    EnvGuard coll_env("CID_COLL", "frobnicate:ring");
    EXPECT_THROW(spmd(2, [](RankCtx&) {}), CidError);
  }
}

TEST(CollEngine, ClocksIdenticalUnderBothSchedulers) {
  // Every algorithm must produce byte-identical virtual clocks on one pooled
  // worker and on four, where ranks run concurrently. Force each algorithm
  // set via CID_COLL and compare exact makespans.
  const auto model = MachineModel::cray_xk7_gemini();
  const char* forced_sets[] = {
      nullptr,  // cost-model defaults
      "bcast:vandegeijn,gather:binomial,scatter:binomial,allgather:rd,"
      "alltoall:bruck,reduce:rabenseifner,allreduce:rd",
      "bcast:binomial,gather:flat,scatter:flat,allgather:ring,"
      "alltoall:pairwise,reduce:binomial,allreduce:ring",
  };
  auto workload = [](RankCtx& ctx) {
    auto world = mpi::Comm::world();
    std::vector<double> vec(9, ctx.rank() + 1.0);
    mpi::bcast(world, vec.data(), vec.size(), 0);
    std::vector<double> gathered(9 * 16);
    mpi::gather(world, vec.data(), 9, gathered.data(), 2);
    std::vector<int> blocks(16, ctx.rank()), trans(16, 0);
    mpi::alltoall(world, blocks.data(), 1, trans.data());
    std::vector<int> all(16);
    int mine = ctx.rank();
    mpi::allgather(world, &mine, 1, all.data());
    double sum = 0.0;
    double x = ctx.rank() * 0.5;
    mpi::allreduce(world, &x, &sum, 1, mpi::ReduceOp::Sum);
    double top = 0.0;
    mpi::reduce(world, &x, &top, 1, mpi::ReduceOp::Max, 3);
  };
  for (const char* forced : forced_sets) {
    EnvGuard coll_env("CID_COLL", forced);
    cid::rt::RunOptions one;
    one.sim_workers = 1;
    cid::rt::RunOptions four;
    four.sim_workers = 4;
    const double one_t = cid::rt::run(16, model, workload, one).makespan();
    const double four_t = cid::rt::run(16, model, workload, four).makespan();
    EXPECT_GT(one_t, 0.0);
    EXPECT_EQ(one_t, four_t)
        << "CID_COLL=" << (forced == nullptr ? "(default)" : forced);
  }
}

}  // namespace
