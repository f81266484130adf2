// Tests for miniMPI: matching semantics, datatypes, pack/unpack, persistent
// requests, one-sided windows, communicator split, and virtual-time costs.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <limits>
#include <numeric>
#include <vector>

#include "mpi/mpi.hpp"
#include "rt/runtime.hpp"

namespace {

using cid::rt::RankCtx;
using cid::simnet::MachineModel;
namespace mpi = cid::mpi;

void spmd(int nranks, const cid::rt::RankFn& fn) {
  cid::rt::run(nranks, MachineModel::zero(), fn);
}

TEST(MpiP2P, BlockingSendRecvMovesData) {
  spmd(2, [](RankCtx& ctx) {
    auto world = mpi::Comm::world();
    if (ctx.rank() == 0) {
      std::vector<int> data(16);
      std::iota(data.begin(), data.end(), 100);
      mpi::send(world, data.data(), data.size(), 1, /*tag=*/7);
    } else {
      std::vector<int> data(16, 0);
      auto status = mpi::recv(world, data.data(), data.size(), 0, 7);
      EXPECT_EQ(status.source, 0);
      EXPECT_EQ(status.tag, 7);
      EXPECT_EQ(status.count, 16u);
      for (int i = 0; i < 16; ++i) EXPECT_EQ(data[i], 100 + i);
    }
  });
}

TEST(MpiP2P, NonblockingRoundtrip) {
  spmd(2, [](RankCtx& ctx) {
    auto world = mpi::Comm::world();
    double value = ctx.rank() == 0 ? 3.25 : 0.0;
    double incoming = -1.0;
    const int peer = 1 - ctx.rank();
    auto recv_req = mpi::irecv(world, &incoming, 1, peer, 0);
    auto send_req = mpi::isend(world, &value, 1, peer, 0);
    mpi::wait(send_req);
    mpi::wait(recv_req);
    EXPECT_DOUBLE_EQ(incoming, ctx.rank() == 0 ? 0.0 : 3.25);
  });
}

TEST(MpiP2P, MessagesFromOneSourceDoNotOvertake) {
  spmd(2, [](RankCtx& ctx) {
    auto world = mpi::Comm::world();
    if (ctx.rank() == 0) {
      for (int i = 0; i < 10; ++i) {
        mpi::send(world, &i, 1, 1, /*tag=*/5);
      }
    } else {
      for (int i = 0; i < 10; ++i) {
        int got = -1;
        mpi::recv(world, &got, 1, 0, 5);
        EXPECT_EQ(got, i);
      }
    }
  });
}

TEST(MpiP2P, TagsSelectMessages) {
  spmd(2, [](RankCtx& ctx) {
    auto world = mpi::Comm::world();
    if (ctx.rank() == 0) {
      int a = 11, b = 22;
      mpi::send(world, &a, 1, 1, /*tag=*/1);
      mpi::send(world, &b, 1, 1, /*tag=*/2);
    } else {
      int b = 0, a = 0;
      mpi::recv(world, &b, 1, 0, 2);  // out-of-order by tag
      mpi::recv(world, &a, 1, 0, 1);
      EXPECT_EQ(a, 11);
      EXPECT_EQ(b, 22);
    }
  });
}

TEST(MpiP2P, AnySourceAndAnyTag) {
  spmd(3, [](RankCtx& ctx) {
    auto world = mpi::Comm::world();
    if (ctx.rank() != 0) {
      const int value = ctx.rank() * 10;
      mpi::send(world, &value, 1, 0, ctx.rank());
    } else {
      int seen_sum = 0;
      for (int i = 0; i < 2; ++i) {
        int got = 0;
        auto status =
            mpi::recv(world, &got, 1, mpi::kAnySource, mpi::kAnyTag);
        EXPECT_EQ(got, status.source * 10);
        EXPECT_EQ(status.tag, status.source);
        seen_sum += got;
      }
      EXPECT_EQ(seen_sum, 30);
    }
  });
}

TEST(MpiP2P, WaitallCompletesMixedRequests) {
  spmd(2, [](RankCtx& ctx) {
    auto world = mpi::Comm::world();
    constexpr int kCount = 8;
    std::array<int, kCount> out{};
    std::array<int, kCount> in{};
    std::vector<mpi::Request> requests;
    const int peer = 1 - ctx.rank();
    for (int i = 0; i < kCount; ++i) {
      requests.push_back(mpi::irecv(world, &in[i], 1, peer, i));
    }
    for (int i = 0; i < kCount; ++i) {
      out[i] = ctx.rank() * 100 + i;
      requests.push_back(mpi::isend(world, &out[i], 1, peer, i));
    }
    mpi::waitall(requests);
    for (int i = 0; i < kCount; ++i) {
      EXPECT_EQ(in[i], peer * 100 + i);
    }
  });
}

TEST(MpiP2P, TestPollsWithoutBlocking) {
  spmd(2, [](RankCtx& ctx) {
    auto world = mpi::Comm::world();
    if (ctx.rank() == 1) {
      int in = 0;
      auto req = mpi::irecv(world, &in, 1, 0, 0);
      // Poll until completion; rank 0 sends after a handshake.
      int ready = 1;
      mpi::send(world, &ready, 1, 0, 9);
      while (!mpi::test(req)) {
      }
      EXPECT_EQ(in, 42);
    } else {
      int ready = 0;
      mpi::recv(world, &ready, 1, 1, 9);
      int value = 42;
      mpi::send(world, &value, 1, 1, 0);
    }
  });
}

TEST(MpiP2P, SelfSendMatchesOwnReceive) {
  spmd(1, [](RankCtx&) {
    auto world = mpi::Comm::world();
    int out = 5, in = 0;
    auto recv_req = mpi::irecv(world, &in, 1, 0, 0);
    auto send_req = mpi::isend(world, &out, 1, 0, 0);
    mpi::wait(recv_req);
    mpi::wait(send_req);
    EXPECT_EQ(in, 5);
  });
}

TEST(MpiP2P, ShorterMessageThanCapacityReportsActualCount) {
  spmd(2, [](RankCtx& ctx) {
    auto world = mpi::Comm::world();
    if (ctx.rank() == 0) {
      std::array<int, 3> out{1, 2, 3};
      mpi::send(world, out.data(), out.size(), 1, 0);
    } else {
      std::array<int, 10> in{};
      auto status = mpi::recv(world, in.data(), in.size(), 0, 0);
      EXPECT_EQ(status.count, 3u);
      EXPECT_EQ(in[2], 3);
    }
  });
}

TEST(MpiP2P, TruncationThrows) {
  EXPECT_THROW(
      spmd(2,
           [](RankCtx& ctx) {
             auto world = mpi::Comm::world();
             if (ctx.rank() == 0) {
               std::array<int, 8> out{};
               mpi::send(world, out.data(), out.size(), 1, 0);
             } else {
               std::array<int, 2> in{};
               mpi::recv(world, in.data(), in.size(), 0, 0);
             }
           }),
      cid::CidError);
}

TEST(MpiP2P, InvalidDestinationThrows) {
  EXPECT_THROW(spmd(1,
                    [](RankCtx&) {
                      auto world = mpi::Comm::world();
                      int x = 0;
                      mpi::send(world, &x, 1, 3, 0);
                    }),
               cid::CidError);
}

// ---------------------------------------------------------------------------
// Datatypes
// ---------------------------------------------------------------------------

TEST(MpiDatatype, BasicSizes) {
  EXPECT_EQ(mpi::basic_type_size(mpi::BasicType::Double), sizeof(double));
  EXPECT_EQ(mpi::basic_type_size(mpi::BasicType::Int), sizeof(int));
  EXPECT_EQ(mpi::basic_type_size(mpi::BasicType::Char), 1u);
  EXPECT_EQ(mpi::datatype_of<double>().extent(), sizeof(double));
  EXPECT_TRUE(mpi::datatype_of<long>().is_contiguous());
}

struct PaddedStruct {
  char c;      // offset 0
  // 7 bytes padding
  double d;    // offset 8
  int i;       // offset 16
  // 4 bytes tail padding
};

TEST(MpiDatatype, StructGatherScatterRoundTrips) {
  auto dtype_result = mpi::Datatype::create_struct(
      {{offsetof(PaddedStruct, c), 1, mpi::BasicType::Char},
       {offsetof(PaddedStruct, d), 1, mpi::BasicType::Double},
       {offsetof(PaddedStruct, i), 1, mpi::BasicType::Int}},
      sizeof(PaddedStruct));
  ASSERT_TRUE(dtype_result.is_ok());
  auto dtype = std::move(dtype_result).take();
  dtype.commit();
  EXPECT_FALSE(dtype.is_contiguous());
  EXPECT_EQ(dtype.payload_size(), 1 + sizeof(double) + sizeof(int));
  EXPECT_EQ(dtype.extent(), sizeof(PaddedStruct));

  std::array<PaddedStruct, 3> in{};
  for (int k = 0; k < 3; ++k) {
    in[static_cast<std::size_t>(k)] = {static_cast<char>('a' + k),
                                       1.5 * k, 10 * k};
  }
  auto wire = dtype.gather(in.data(), in.size());
  EXPECT_EQ(wire.size(), dtype.payload_size() * 3);

  std::array<PaddedStruct, 3> out{};
  ASSERT_TRUE(dtype
                  .scatter(cid::ByteSpan(wire.data(), wire.size()),
                           out.data(), out.size())
                  .is_ok());
  for (int k = 0; k < 3; ++k) {
    EXPECT_EQ(out[static_cast<std::size_t>(k)].c, 'a' + k);
    EXPECT_DOUBLE_EQ(out[static_cast<std::size_t>(k)].d, 1.5 * k);
    EXPECT_EQ(out[static_cast<std::size_t>(k)].i, 10 * k);
  }
}

TEST(MpiDatatype, StructSendRecvAcrossRanks) {
  spmd(2, [](RankCtx& ctx) {
    auto dtype = mpi::Datatype::create_struct(
                     {{offsetof(PaddedStruct, c), 1, mpi::BasicType::Char},
                      {offsetof(PaddedStruct, d), 1, mpi::BasicType::Double},
                      {offsetof(PaddedStruct, i), 1, mpi::BasicType::Int}},
                     sizeof(PaddedStruct))
                     .take();
    dtype.commit();
    auto world = mpi::Comm::world();
    if (ctx.rank() == 0) {
      PaddedStruct s{'x', 2.75, 99};
      mpi::send(world, &s, 1, dtype, 1, 0);
    } else {
      PaddedStruct s{};
      mpi::recv(world, &s, 1, dtype, 0, 0);
      EXPECT_EQ(s.c, 'x');
      EXPECT_DOUBLE_EQ(s.d, 2.75);
      EXPECT_EQ(s.i, 99);
    }
  });
}

TEST(MpiDatatype, RejectsOverlappingFields) {
  auto result = mpi::Datatype::create_struct(
      {{0, 2, mpi::BasicType::Int}, {4, 1, mpi::BasicType::Int}}, 16);
  EXPECT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().code(), cid::ErrorCode::TypeError);
}

TEST(MpiDatatype, RejectsFieldPastExtent) {
  auto result = mpi::Datatype::create_struct(
      {{8, 4, mpi::BasicType::Double}}, 16);
  EXPECT_FALSE(result.is_ok());
}

TEST(MpiDatatype, RejectsEmptyStruct) {
  auto result = mpi::Datatype::create_struct({}, 8);
  EXPECT_FALSE(result.is_ok());
}

TEST(MpiDatatype, UncommittedTypeCannotBeSent) {
  EXPECT_THROW(
      spmd(1,
           [](RankCtx&) {
             auto dtype =
                 mpi::Datatype::create_struct({{0, 1, mpi::BasicType::Int}}, 4)
                     .take();
             int x = 0;
             mpi::send(mpi::Comm::world(), &x, 1, dtype, 0, 0);
           }),
      cid::CidError);
}

namespace strided {

/// Build a "strided column" struct type: `runs` equal-size byte runs of
/// `run_bytes` each, the first at offset `first`, each `stride` bytes after
/// the previous. run_bytes must be a multiple of 4 (fields are built from
/// Int blocks so any width is expressible).
mpi::Datatype make_column(std::size_t runs, std::size_t run_bytes,
                          std::size_t stride, std::size_t first,
                          std::size_t extent) {
  std::vector<mpi::TypeField> fields;
  for (std::size_t r = 0; r < runs; ++r) {
    fields.push_back(
        {first + r * stride, run_bytes / sizeof(int), mpi::BasicType::Int});
  }
  auto dtype = mpi::Datatype::create_struct(std::move(fields), extent).take();
  dtype.commit();
  return dtype;
}

/// The obviously-correct pack: walk every element, memcpy every run. Both
/// the uniform-runs fast path and the PackRun slow path must match this.
cid::ByteBuffer reference_pack(const std::byte* src, std::size_t count,
                               std::size_t extent, std::size_t runs,
                               std::size_t run_bytes, std::size_t stride,
                               std::size_t first) {
  cid::ByteBuffer wire(count * runs * run_bytes);
  std::byte* out = wire.data();
  for (std::size_t e = 0; e < count; ++e) {
    for (std::size_t r = 0; r < runs; ++r) {
      std::memcpy(out, src + e * extent + first + r * stride, run_bytes);
      out += run_bytes;
    }
  }
  return wire;
}

/// Gather `count` elements through `dtype` and check the wire bytes against
/// the reference pack, then scatter back into a poisoned buffer and check
/// that exactly the run bytes were rewritten.
void check_roundtrip(std::size_t runs, std::size_t run_bytes,
                     std::size_t stride, std::size_t first,
                     std::size_t extent, std::size_t count = 5) {
  SCOPED_TRACE(testing::Message() << runs << " runs of " << run_bytes
                                  << "B at stride " << stride);
  auto dtype = make_column(runs, run_bytes, stride, first, extent);
  ASSERT_EQ(dtype.payload_size(), runs * run_bytes);
  ASSERT_EQ(dtype.extent(), extent);

  std::vector<std::byte> src(count * extent);
  for (std::size_t i = 0; i < src.size(); ++i) {
    src[i] = static_cast<std::byte>((i * 131 + 7) & 0xff);
  }

  auto wire = dtype.gather(src.data(), count);
  auto expect = reference_pack(src.data(), count, extent, runs, run_bytes,
                               stride, first);
  ASSERT_EQ(wire.size(), expect.size());
  EXPECT_EQ(std::memcmp(wire.data(), expect.data(), wire.size()), 0);

  std::vector<std::byte> dst(count * extent, std::byte{0xee});
  ASSERT_TRUE(dtype
                  .scatter(cid::ByteSpan(wire.data(), wire.size()),
                           dst.data(), count)
                  .is_ok());
  for (std::size_t e = 0; e < count; ++e) {
    for (std::size_t off = 0; off < extent; ++off) {
      const std::size_t i = e * extent + off;
      const bool in_run = off >= first && (off - first) % stride < run_bytes &&
                          (off - first) / stride < runs;
      if (in_run) {
        EXPECT_EQ(dst[i], src[i]) << "run byte not round-tripped at " << i;
      } else {
        EXPECT_EQ(dst[i], std::byte{0xee}) << "gap byte clobbered at " << i;
      }
    }
  }
}

}  // namespace strided

// Each width below lands on a different copy_runs dispatch: 4/8/16 get the
// fixed-size fast loops, 12 falls through to the default memcpy loop.
TEST(MpiDatatype, Strided4ByteRunsMatchReferencePack) {
  strided::check_roundtrip(/*runs=*/6, /*run_bytes=*/4, /*stride=*/16,
                           /*first=*/0, /*extent=*/96);
}

TEST(MpiDatatype, Strided8ByteRunsMatchReferencePack) {
  // The bench_hotpath make_strided_struct shape: one double per 16B row.
  strided::check_roundtrip(/*runs=*/8, /*run_bytes=*/8, /*stride=*/16,
                           /*first=*/0, /*extent=*/128);
}

TEST(MpiDatatype, Strided16ByteRunsMatchReferencePack) {
  strided::check_roundtrip(/*runs=*/4, /*run_bytes=*/16, /*stride=*/24,
                           /*first=*/0, /*extent=*/96);
}

TEST(MpiDatatype, StridedWideRunsMatchReferencePack) {
  strided::check_roundtrip(/*runs=*/4, /*run_bytes=*/12, /*stride=*/32,
                           /*first=*/0, /*extent=*/128);
}

TEST(MpiDatatype, StridedRunsWithLeadingGapMatchReferencePack) {
  // first != 0 exercises the run_first offset in the fast path.
  strided::check_roundtrip(/*runs=*/5, /*run_bytes=*/8, /*stride=*/16,
                           /*first=*/8, /*extent=*/88);
}

TEST(MpiDatatype, IrregularOffsetsStillPackCorrectly) {
  // Same-size runs at non-arithmetic offsets: uniform-runs detection must
  // reject this shape and the PackRun walk must still match a reference.
  std::vector<mpi::TypeField> fields = {{0, 1, mpi::BasicType::Int},
                                        {16, 1, mpi::BasicType::Int},
                                        {24, 1, mpi::BasicType::Int}};
  auto dtype = mpi::Datatype::create_struct(fields, 32).take();
  dtype.commit();

  const std::size_t count = 4;
  std::vector<std::byte> src(count * 32);
  for (std::size_t i = 0; i < src.size(); ++i) {
    src[i] = static_cast<std::byte>(i * 37 + 1);
  }
  auto wire = dtype.gather(src.data(), count);
  ASSERT_EQ(wire.size(), count * 12);
  std::byte* out = wire.data();
  for (std::size_t e = 0; e < count; ++e) {
    for (std::size_t off : {0u, 16u, 24u}) {
      EXPECT_EQ(std::memcmp(out, src.data() + e * 32 + off, 4), 0);
      out += 4;
    }
  }

  std::vector<std::byte> dst(count * 32, std::byte{0});
  ASSERT_TRUE(dtype
                  .scatter(cid::ByteSpan(wire.data(), wire.size()),
                           dst.data(), count)
                  .is_ok());
  for (std::size_t e = 0; e < count; ++e) {
    for (std::size_t off : {0u, 16u, 24u}) {
      EXPECT_EQ(std::memcmp(dst.data() + e * 32 + off,
                            src.data() + e * 32 + off, 4),
                0);
    }
  }
}

TEST(MpiDatatype, StridedTypeSendRecvAcrossRanks) {
  // The fast path through the actual wire: a strided column sent rank 0 -> 1
  // must land field-for-field.
  spmd(2, [](RankCtx& ctx) {
    auto dtype = strided::make_column(/*runs=*/4, /*run_bytes=*/8,
                                      /*stride=*/16, /*first=*/0,
                                      /*extent=*/64);
    auto world = mpi::Comm::world();
    std::array<double, 8> block{};  // 64 bytes; doubles at even indices ship
    if (ctx.rank() == 0) {
      for (std::size_t i = 0; i < block.size(); ++i) {
        block[i] = 1.25 * static_cast<double>(i) + 0.5;
      }
      mpi::send(world, block.data(), 1, dtype, 1, 3);
    } else {
      mpi::recv(world, block.data(), 1, dtype, 0, 3);
      for (std::size_t i = 0; i < block.size(); ++i) {
        const double want =
            (i % 2 == 0) ? 1.25 * static_cast<double>(i) + 0.5 : 0.0;
        EXPECT_DOUBLE_EQ(block[i], want);
      }
    }
  });
}

// ---------------------------------------------------------------------------
// Pack / Unpack
// ---------------------------------------------------------------------------

TEST(MpiPack, PackUnpackRoundTrip) {
  spmd(1, [](RankCtx&) {
    auto world = mpi::Comm::world();
    std::vector<std::byte> buffer(256);
    std::size_t position = 0;
    int i = 42;
    double d = 6.5;
    std::array<char, 5> text{'h', 'e', 'l', 'l', 'o'};
    mpi::pack(world, &i, 1, buffer, position);
    mpi::pack(world, &d, 1, buffer, position);
    mpi::pack(world, text.data(), text.size(), buffer, position);
    EXPECT_EQ(position, sizeof(int) + sizeof(double) + 5);

    std::size_t read = 0;
    int i2 = 0;
    double d2 = 0;
    std::array<char, 5> text2{};
    mpi::unpack(world, cid::ByteSpan(buffer.data(), buffer.size()), read, &i2,
                1);
    mpi::unpack(world, cid::ByteSpan(buffer.data(), buffer.size()), read, &d2,
                1);
    mpi::unpack(world, cid::ByteSpan(buffer.data(), buffer.size()), read,
                text2.data(), text2.size());
    EXPECT_EQ(i2, 42);
    EXPECT_DOUBLE_EQ(d2, 6.5);
    EXPECT_EQ(text2, text);
  });
}

TEST(MpiPack, OverflowThrows) {
  EXPECT_THROW(spmd(1,
                    [](RankCtx&) {
                      auto world = mpi::Comm::world();
                      std::vector<std::byte> tiny(4);
                      std::size_t position = 0;
                      double d = 1.0;
                      mpi::pack(world, &d, 1, tiny, position);
                    }),
               cid::CidError);
}

TEST(MpiPack, PackedSendMatchesListing4Shape) {
  // The original WL-LSMS pattern: pack several fields, send as bytes, unpack.
  spmd(2, [](RankCtx& ctx) {
    auto world = mpi::Comm::world();
    constexpr std::size_t kSize = 64;
    if (ctx.rank() == 0) {
      std::vector<std::byte> buffer(kSize);
      std::size_t position = 0;
      int id = 17;
      double alat = 5.4;
      mpi::pack(world, &id, 1, buffer, position);
      mpi::pack(world, &alat, 1, buffer, position);
      mpi::send(world, buffer.data(), position,
                mpi::Datatype::basic(mpi::BasicType::Packed), 1, 0);
    } else {
      std::vector<std::byte> buffer(kSize);
      auto status = mpi::recv(world, buffer.data(), buffer.size(),
                              mpi::Datatype::basic(mpi::BasicType::Packed), 0,
                              0);
      std::size_t position = 0;
      int id = 0;
      double alat = 0;
      mpi::unpack(world, cid::ByteSpan(buffer.data(), status.count), position,
                  &id, 1);
      mpi::unpack(world, cid::ByteSpan(buffer.data(), status.count), position,
                  &alat, 1);
      EXPECT_EQ(id, 17);
      EXPECT_DOUBLE_EQ(alat, 5.4);
    }
  });
}

// ---------------------------------------------------------------------------
// Persistent requests
// ---------------------------------------------------------------------------

TEST(MpiPersistent, StartWaitRestartCycle) {
  spmd(2, [](RankCtx& ctx) {
    auto world = mpi::Comm::world();
    int payload = 0;
    if (ctx.rank() == 0) {
      auto req = mpi::send_init(world, &payload, 1,
                                mpi::datatype_of<int>(), 1, 3);
      for (int i = 0; i < 4; ++i) {
        payload = i * i;
        mpi::start(req);
        mpi::wait(req);
      }
    } else {
      auto req = mpi::recv_init(world, &payload, 1,
                                mpi::datatype_of<int>(), 0, 3);
      for (int i = 0; i < 4; ++i) {
        mpi::start(req);
        mpi::wait(req);
        EXPECT_EQ(payload, i * i);
      }
    }
  });
}

TEST(MpiPersistent, RebindMovesThroughArray) {
  spmd(2, [](RankCtx& ctx) {
    auto world = mpi::Comm::world();
    std::array<double, 6> data{};
    if (ctx.rank() == 0) {
      for (int i = 0; i < 6; ++i) data[static_cast<std::size_t>(i)] = i + 0.5;
      auto req = mpi::send_init(world, &data[0], 2,
                                mpi::datatype_of<double>(), 1, 0);
      for (int i = 0; i < 3; ++i) {
        mpi::rebind_send(req, &data[static_cast<std::size_t>(2 * i)], 2);
        mpi::start(req);
        mpi::wait(req);
      }
    } else {
      auto req = mpi::recv_init(world, &data[0], 2,
                                mpi::datatype_of<double>(), 0, 0);
      for (int i = 0; i < 3; ++i) {
        mpi::rebind_recv(req, &data[static_cast<std::size_t>(2 * i)], 2);
        mpi::start(req);
        mpi::wait(req);
      }
      for (int i = 0; i < 6; ++i) {
        EXPECT_DOUBLE_EQ(data[static_cast<std::size_t>(i)], i + 0.5);
      }
    }
  });
}

TEST(MpiPersistent, DoubleStartThrows) {
  // The matching message never arrives, so the first start leaves the
  // request active and the second start must be rejected.
  EXPECT_THROW(
      spmd(2,
           [](RankCtx& ctx) {
             auto world = mpi::Comm::world();
             int x = 0;
             if (ctx.rank() == 1) {
               auto req = mpi::recv_init(world, &x, 1,
                                         mpi::datatype_of<int>(), 0, 0);
               mpi::start(req);
               mpi::start(req);
             }
           }),
      cid::CidError);
}

TEST(MpiPersistent, RebindActiveRequestThrows) {
  EXPECT_THROW(
      spmd(1,
           [](RankCtx&) {
             auto world = mpi::Comm::world();
             int x = 0;
             auto req = mpi::recv_init(world, &x, 1,
                                       mpi::datatype_of<int>(), 0, 0);
             mpi::start(req);
             mpi::rebind_recv(req, &x, 1);
           }),
      cid::CidError);
}

// ---------------------------------------------------------------------------
// One-sided
// ---------------------------------------------------------------------------

TEST(MpiWin, PutThenFenceDeliversData) {
  spmd(3, [](RankCtx& ctx) {
    auto world = mpi::Comm::world();
    std::array<int, 4> window_mem{};
    auto win = mpi::Win::create(world, window_mem.data(),
                                window_mem.size() * sizeof(int));
    if (ctx.rank() == 0) {
      std::array<int, 4> origin{10, 11, 12, 13};
      win.put(origin.data(), 4, mpi::datatype_of<int>(), 2, 0);
    }
    win.fence();
    if (ctx.rank() == 2) {
      EXPECT_EQ(window_mem[0], 10);
      EXPECT_EQ(window_mem[3], 13);
    } else {
      EXPECT_EQ(window_mem[0], 0);
    }
  });
}

TEST(MpiWin, PutWithDisplacement) {
  spmd(2, [](RankCtx& ctx) {
    auto world = mpi::Comm::world();
    std::array<double, 8> window_mem{};
    auto win = mpi::Win::create(world, window_mem.data(),
                                window_mem.size() * sizeof(double));
    if (ctx.rank() == 0) {
      double value = 2.5;
      win.put(&value, 1, mpi::datatype_of<double>(), 1, 3 * sizeof(double));
    }
    win.fence();
    if (ctx.rank() == 1) {
      EXPECT_DOUBLE_EQ(window_mem[3], 2.5);
      EXPECT_DOUBLE_EQ(window_mem[2], 0.0);
    }
  });
}

TEST(MpiWin, PutPastWindowEndThrows) {
  EXPECT_THROW(spmd(2,
                    [](RankCtx& ctx) {
                      auto world = mpi::Comm::world();
                      std::array<int, 2> mem{};
                      auto win = mpi::Win::create(world, mem.data(),
                                                  sizeof(mem));
                      if (ctx.rank() == 0) {
                        std::array<int, 4> origin{};
                        win.put(origin.data(), 4, mpi::datatype_of<int>(), 1,
                                0);
                      }
                      win.fence();
                    }),
               cid::CidError);
}

// ---------------------------------------------------------------------------
// Communicators
// ---------------------------------------------------------------------------

TEST(MpiComm, WorldIdentity) {
  spmd(4, [](RankCtx& ctx) {
    auto world = mpi::Comm::world();
    EXPECT_EQ(world.rank(), ctx.rank());
    EXPECT_EQ(world.size(), 4);
    EXPECT_EQ(world.context(), 0);
    EXPECT_EQ(world.world_rank(2), 2);
  });
}

TEST(MpiComm, SplitByParity) {
  spmd(6, [](RankCtx& ctx) {
    auto world = mpi::Comm::world();
    auto sub = world.split(ctx.rank() % 2, ctx.rank());
    ASSERT_TRUE(sub.valid());
    EXPECT_EQ(sub.size(), 3);
    EXPECT_EQ(sub.world_rank(sub.rank()), ctx.rank());
    // Members are ordered by key (== world rank here).
    EXPECT_EQ(sub.rank(), ctx.rank() / 2);
    // Traffic on the subcommunicator is isolated from world traffic.
    if (sub.rank() == 0) {
      int value = 1000 + ctx.rank() % 2;
      mpi::send(sub, &value, 1, 1, 0);
    } else if (sub.rank() == 1) {
      int got = 0;
      mpi::recv(sub, &got, 1, 0, 0);
      EXPECT_EQ(got, 1000 + ctx.rank() % 2);
    }
  });
}

TEST(MpiComm, SplitWithUndefinedColorYieldsInvalid) {
  spmd(4, [](RankCtx& ctx) {
    auto world = mpi::Comm::world();
    auto sub = world.split(ctx.rank() == 0 ? -1 : 0, ctx.rank());
    if (ctx.rank() == 0) {
      EXPECT_FALSE(sub.valid());
    } else {
      ASSERT_TRUE(sub.valid());
      EXPECT_EQ(sub.size(), 3);
    }
  });
}

TEST(MpiComm, SplitKeyOrdersRanks) {
  spmd(4, [](RankCtx& ctx) {
    auto world = mpi::Comm::world();
    // Reverse ordering via descending keys.
    auto sub = world.split(0, 100 - ctx.rank());
    ASSERT_TRUE(sub.valid());
    EXPECT_EQ(sub.rank(), 3 - ctx.rank());
  });
}

TEST(MpiComm, NestedSplit) {
  spmd(8, [](RankCtx& ctx) {
    auto world = mpi::Comm::world();
    auto half = world.split(ctx.rank() / 4, ctx.rank());
    auto quarter = half.split(half.rank() / 2, half.rank());
    EXPECT_EQ(quarter.size(), 2);
    EXPECT_EQ(quarter.world_rank(quarter.rank()), ctx.rank());
  });
}

// Checks the world-rank -> comm-rank table of `comm` against its members.
void expect_rank_table_matches_members(const mpi::Comm& comm, int nranks) {
  std::vector<bool> member(static_cast<std::size_t>(nranks), false);
  for (int i = 0; i < comm.size(); ++i) {
    EXPECT_EQ(comm.comm_rank_of_world(comm.world_rank(i)), i);
    member[static_cast<std::size_t>(comm.world_rank(i))] = true;
  }
  for (int w = 0; w < nranks; ++w) {
    if (!member[static_cast<std::size_t>(w)]) {
      EXPECT_EQ(comm.comm_rank_of_world(w), -1) << "world rank " << w;
      EXPECT_FALSE(comm.is_member(w));
    }
  }
  for (int outside : {-1, -2, std::numeric_limits<int>::min(), nranks,
                      nranks + 1, std::numeric_limits<int>::max()}) {
    EXPECT_EQ(comm.comm_rank_of_world(outside), -1) << "input " << outside;
  }
}

TEST(MpiComm, RankOfWorldMatchesMembers) {
  constexpr int kRanks = 12;
  spmd(kRanks, [](RankCtx& ctx) {
    const auto world = mpi::Comm::world();
    EXPECT_EQ(mpi::Comm::world(), world);
    expect_rank_table_matches_members(world, kRanks);
    // Strided, key-reversed and nested groups: members are neither
    // contiguous nor in world order.
    const auto thirds = world.split(ctx.rank() % 3, kRanks - ctx.rank());
    expect_rank_table_matches_members(thirds, kRanks);
    const auto halves = thirds.split(thirds.rank() % 2, thirds.rank());
    expect_rank_table_matches_members(halves, kRanks);
    EXPECT_EQ(halves.comm_rank_of_world(ctx.rank()), halves.rank());
    EXPECT_EQ(mpi::Comm::world(), world);
    EXPECT_EQ(mpi::Comm::world(), mpi::Comm::world());
    EXPECT_FALSE(mpi::Comm{}.is_member(ctx.rank()));
  });
}

TEST(MpiComm, BarrierOnSubcommunicator) {
  cid::rt::run(4, MachineModel::cray_xk7_gemini(), [](RankCtx& ctx) {
    auto world = mpi::Comm::world();
    auto sub = world.split(ctx.rank() % 2, ctx.rank());
    ctx.charge_compute(static_cast<double>(ctx.rank()) * 1e-3);
    sub.barrier();
    // Even group max = 2ms, odd group max = 3ms.
    const double expected = (ctx.rank() % 2 == 0 ? 2e-3 : 3e-3);
    EXPECT_GT(ctx.clock().now(), expected);
    EXPECT_LT(ctx.clock().now(), expected + 1e-4);
  });
}

// ---------------------------------------------------------------------------
// Virtual-time behaviour
// ---------------------------------------------------------------------------

TEST(MpiTime, MessageDeliveryChargesLatencyAndBandwidth) {
  const auto model = MachineModel::cray_xk7_gemini();
  cid::rt::run(2, model, [&](RankCtx& ctx) {
    auto world = mpi::Comm::world();
    std::vector<double> data(256);
    if (ctx.rank() == 0) {
      mpi::send(world, data.data(), data.size(), 1, 0);
    } else {
      mpi::recv(world, data.data(), data.size(), 0, 0);
      const auto& path = model.mpi_two_sided;
      const double bytes = 256 * sizeof(double);
      const double expected_min =
          path.send_overhead + path.latency + bytes / path.bytes_per_second;
      EXPECT_GE(ctx.clock().now(), expected_min);
    }
  });
}

TEST(MpiTime, WaitLoopCostsMoreThanWaitall) {
  const auto model = MachineModel::cray_xk7_gemini();
  constexpr int kMessages = 64;

  auto run_receiver = [&](bool use_waitall) {
    auto result = cid::rt::run(2, model, [&](RankCtx& ctx) {
      auto world = mpi::Comm::world();
      std::vector<double> data(3 * kMessages);
      if (ctx.rank() == 0) {
        std::vector<mpi::Request> reqs;
        for (int i = 0; i < kMessages; ++i) {
          reqs.push_back(mpi::isend(world, &data[3 * i], 3, 1, i));
        }
        mpi::waitall(reqs);
      } else {
        std::vector<mpi::Request> reqs;
        for (int i = 0; i < kMessages; ++i) {
          reqs.push_back(mpi::irecv(world, &data[3 * i], 3, 0, i));
        }
        if (use_waitall) {
          mpi::waitall(reqs);
        } else {
          for (auto& req : reqs) mpi::wait(req);
        }
      }
    });
    return result.makespan();
  };

  const double loop_time = run_receiver(false);
  const double waitall_time = run_receiver(true);
  EXPECT_LT(waitall_time, loop_time);
  // The gap is on the order of kMessages * wait_single (the makespan is a
  // max over ranks, so the sender can cap part of the benefit).
  const double naive_gap =
      kMessages * model.mpi_two_sided.wait_single -
      (model.mpi_two_sided.waitall_base +
       kMessages * model.mpi_two_sided.waitall_per_request);
  EXPECT_GT(loop_time - waitall_time, 0.5 * naive_gap);
  EXPECT_LT(loop_time - waitall_time, 1.2 * naive_gap);
}

TEST(MpiTime, PersistentStartIsCheaperThanIsend) {
  const auto model = MachineModel::cray_xk7_gemini();
  EXPECT_LT(model.mpi_two_sided.persistent_send_overhead,
            model.mpi_two_sided.send_overhead);
  EXPECT_LT(model.mpi_two_sided.persistent_recv_overhead,
            model.mpi_two_sided.recv_overhead);
}

TEST(MpiTime, RendezvousAddsLatencyAboveEagerThreshold) {
  const auto model = MachineModel::cray_xk7_gemini();
  const auto& path = model.mpi_two_sided;
  const std::size_t small = path.eager_threshold_bytes;
  const double t_small = path.delivery_time(0.0, small);
  const double t_large = path.delivery_time(0.0, small + 1);
  EXPECT_GT(t_large - t_small, path.rendezvous_extra_latency * 0.99);
}

}  // namespace

// ---------------------------------------------------------------------------
// Sendrecv / probe (added with the halo-exchange support surface)
// ---------------------------------------------------------------------------

namespace {

TEST(MpiSendrecv, ShiftPatternDoesNotDeadlock) {
  spmd(5, [](RankCtx& ctx) {
    auto world = mpi::Comm::world();
    const int next = (ctx.rank() + 1) % ctx.nranks();
    const int prev = (ctx.rank() - 1 + ctx.nranks()) % ctx.nranks();
    std::array<double, 3> out{ctx.rank() + 0.1, ctx.rank() + 0.2,
                              ctx.rank() + 0.3};
    std::array<double, 3> in{};
    auto status = mpi::sendrecv(world, out.data(), 3,
                                mpi::datatype_of<double>(), next, 0,
                                in.data(), 3, mpi::datatype_of<double>(),
                                prev, 0);
    EXPECT_EQ(status.source, prev);
    EXPECT_EQ(status.count, 3u);
    EXPECT_DOUBLE_EQ(in[0], prev + 0.1);
    EXPECT_DOUBLE_EQ(in[2], prev + 0.3);
  });
}

TEST(MpiProbe, ProbeReportsCountWithoutConsuming) {
  spmd(2, [](RankCtx& ctx) {
    auto world = mpi::Comm::world();
    if (ctx.rank() == 0) {
      std::array<int, 6> data{1, 2, 3, 4, 5, 6};
      mpi::send(world, data.data(), data.size(), 1, 42);
    } else {
      auto status = mpi::probe(world, 0, 42, mpi::datatype_of<int>());
      EXPECT_EQ(status.source, 0);
      EXPECT_EQ(status.tag, 42);
      EXPECT_EQ(status.count, 6u);
      // The message is still receivable (probe did not consume it).
      std::vector<int> in(status.count);
      mpi::recv(world, in.data(), in.size(), 0, 42);
      EXPECT_EQ(in[5], 6);
    }
  });
}

TEST(MpiProbe, IprobeIsNonblocking) {
  spmd(2, [](RankCtx& ctx) {
    auto world = mpi::Comm::world();
    if (ctx.rank() == 1) {
      mpi::RecvStatus status;
      // Nothing sent yet.
      EXPECT_FALSE(mpi::iprobe(world, 0, 7, mpi::datatype_of<double>(),
                               &status));
      int ready = 1;
      mpi::send(world, &ready, 1, 0, 9);
      // Wait for the real message via blocking probe, then iprobe hits.
      mpi::probe(world, 0, 7, mpi::datatype_of<double>());
      EXPECT_TRUE(mpi::iprobe(world, 0, 7, mpi::datatype_of<double>(),
                              &status));
      EXPECT_EQ(status.count, 2u);
      std::array<double, 2> in{};
      mpi::recv(world, in.data(), 2, 0, 7);
      EXPECT_DOUBLE_EQ(in[1], 8.5);
    } else {
      int ready = 0;
      mpi::recv(world, &ready, 1, 1, 9);
      std::array<double, 2> payload{7.5, 8.5};
      mpi::send(world, payload.data(), 2, 1, 7);
    }
  });
}

TEST(MpiProbe, ProbeWithWildcards) {
  spmd(3, [](RankCtx& ctx) {
    auto world = mpi::Comm::world();
    if (ctx.rank() != 0) {
      const int value = ctx.rank();
      mpi::send(world, &value, 1, 0, ctx.rank() * 10);
    } else {
      for (int i = 0; i < 2; ++i) {
        auto status = mpi::probe(world, mpi::kAnySource, mpi::kAnyTag,
                                 mpi::datatype_of<int>());
        EXPECT_EQ(status.tag, status.source * 10);
        int got = 0;
        mpi::recv(world, &got, 1, status.source, status.tag);
        EXPECT_EQ(got, status.source);
      }
    }
  });
}

}  // namespace

namespace {

TEST(MpiWaitany, ReturnsFirstCompleted) {
  spmd(3, [](RankCtx& ctx) {
    auto world = mpi::Comm::world();
    if (ctx.rank() == 0) {
      int early = 0, late = 0;
      std::vector<mpi::Request> reqs;
      reqs.push_back(mpi::irecv(world, &late, 1, 2, 0));
      reqs.push_back(mpi::irecv(world, &early, 1, 1, 0));
      const int first = mpi::waitany(reqs);
      EXPECT_EQ(first, 1);  // rank 1 sends immediately
      EXPECT_EQ(early, 111);
      int go = 1;
      mpi::send(world, &go, 1, 2, 9);
      const int second = mpi::waitany(reqs);
      EXPECT_EQ(second, 0);
      EXPECT_EQ(late, 222);
    } else if (ctx.rank() == 1) {
      int v = 111;
      mpi::send(world, &v, 1, 0, 0);
    } else {
      int go = 0;
      mpi::recv(world, &go, 1, 0, 9);  // wait until rank 0 consumed #1
      int v = 222;
      mpi::send(world, &v, 1, 0, 0);
    }
  });
}

TEST(MpiWaitany, AllInvalidReturnsMinusOne) {
  spmd(1, [](RankCtx&) {
    std::vector<mpi::Request> reqs(3);  // all null
    EXPECT_EQ(mpi::waitany(reqs), -1);
  });
}

TEST(MpiWaitsome, CollectsReadyBatch) {
  spmd(2, [](RankCtx& ctx) {
    auto world = mpi::Comm::world();
    if (ctx.rank() == 0) {
      std::array<int, 4> in{};
      std::vector<mpi::Request> reqs;
      for (int i = 0; i < 4; ++i) {
        reqs.push_back(mpi::irecv(world, &in[i], 1, 1, i));
      }
      std::vector<int> ready;
      int total = 0;
      while (total < 4) {
        total += mpi::waitsome(reqs, ready);
      }
      EXPECT_EQ(ready.size(), 4u);
      for (int i = 0; i < 4; ++i) EXPECT_EQ(in[i], 40 + i);
    } else {
      for (int i = 0; i < 4; ++i) {
        int v = 40 + i;
        mpi::send(world, &v, 1, 0, i);
      }
    }
  });
}

}  // namespace
