// cid::net transport subsystem tests: frame codec (round trip, endianness,
// error paths), backend selection, rank partitioning, the mailbox's timed
// waits, ThreadTransport ordering and fault semantics, the sim backend's
// equivalence with the pre-seam runtime, a forked two-process TcpTransport
// loopback smoke, and the cidt run / net doctor exit-code contract.
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "net/backend.hpp"
#include "net/frame.hpp"
#include "net/sim_transport.hpp"
#include "net/tcp_transport.hpp"
#include "net/thread_transport.hpp"
#include "net/transport.hpp"
#include "rt/runtime.hpp"
#include "rt/world.hpp"

namespace {

using cid::net::Backend;
using cid::net::FrameHeader;
using cid::net::FrameType;
using cid::net::kFrameHeaderBytes;

cid::rt::Envelope make_envelope(int src, int tag, std::uint32_t value) {
  cid::rt::Envelope e;
  e.src = src;
  e.tag = tag;
  e.payload = cid::rt::Payload(cid::copy_to_buffer(cid::as_bytes_of(value)));
  return e;
}

std::uint32_t value_of(const cid::rt::Envelope& e) {
  std::uint32_t value = 0;
  std::memcpy(&value, e.payload.data(), sizeof(value));
  return value;
}

// ---- Frame codec ---------------------------------------------------------

TEST(Frame, HeaderRoundTripsAllFields) {
  FrameHeader header;
  header.generation = 0x1122334455667788ull;
  header.type = FrameType::Payload;
  header.channel = 3;
  header.sender = 12;
  header.receiver = -7;
  header.tag = -1;
  header.length = 4096;

  std::array<std::byte, kFrameHeaderBytes> wire{};
  cid::net::encode_frame_header(header, wire);
  auto decoded =
      cid::net::decode_frame_header(cid::ByteSpan(wire.data(), wire.size()));
  ASSERT_TRUE(decoded.is_ok()) << decoded.status().to_string();
  EXPECT_EQ(decoded.value(), header);
}

TEST(Frame, WireImageIsLittleEndianByteByByte) {
  // The encoding is defined byte by byte, so the wire image is identical on
  // any host: pin it exactly.
  FrameHeader header;
  header.generation = 0x0102030405060708ull;
  header.type = FrameType::Payload;  // 0xdd
  header.channel = 0x02;
  header.sender = 1;
  header.receiver = 256;
  header.tag = -2;
  header.length = 0xabcd;

  std::array<std::byte, kFrameHeaderBytes> wire{};
  cid::net::encode_frame_header(header, wire);
  const unsigned char expected[kFrameHeaderBytes] = {
      0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,  // generation LE
      0xdd, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // type | channel<<8
      0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // sender
      0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // receiver = 256
      0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,  // tag = -2
      0xcd, 0xab, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // length
  };
  for (std::size_t i = 0; i < kFrameHeaderBytes; ++i) {
    EXPECT_EQ(std::to_integer<unsigned>(wire[i]), expected[i]) << "byte " << i;
  }
}

TEST(Frame, TruncatedHeaderIsRejected) {
  FrameHeader header;
  std::array<std::byte, kFrameHeaderBytes> wire{};
  cid::net::encode_frame_header(header, wire);
  for (std::size_t size : {std::size_t{0}, std::size_t{1},
                           kFrameHeaderBytes - 1}) {
    auto decoded =
        cid::net::decode_frame_header(cid::ByteSpan(wire.data(), size));
    ASSERT_FALSE(decoded.is_ok()) << "accepted " << size << " bytes";
    EXPECT_EQ(decoded.status().code(), cid::ErrorCode::InvalidArgument);
  }
}

TEST(Frame, UnknownTypeAndGarbageHighBytesAreRejected) {
  FrameHeader header;
  header.type = FrameType::Hello;
  std::array<std::byte, kFrameHeaderBytes> wire{};
  cid::net::encode_frame_header(header, wire);
  wire[8] = std::byte{0x99};  // no such FrameType
  EXPECT_FALSE(
      cid::net::decode_frame_header(cid::ByteSpan(wire.data(), wire.size()))
          .is_ok());
  cid::net::encode_frame_header(header, wire);
  wire[10] = std::byte{0x01};  // bits above the channel byte must be zero
  EXPECT_FALSE(
      cid::net::decode_frame_header(cid::ByteSpan(wire.data(), wire.size()))
          .is_ok());
}

TEST(Frame, AbsurdPayloadLengthIsRejected) {
  FrameHeader header;
  header.length = cid::net::kMaxFramePayloadBytes + 1;
  std::array<std::byte, kFrameHeaderBytes> wire{};
  cid::net::encode_frame_header(header, wire);
  EXPECT_FALSE(
      cid::net::decode_frame_header(cid::ByteSpan(wire.data(), wire.size()))
          .is_ok());
}

TEST(Frame, SelfTestPasses) {
  const cid::Status status = cid::net::frame_self_test();
  EXPECT_TRUE(status.is_ok()) << status.to_string();
}

// ---- Backend selection ---------------------------------------------------

TEST(Backend, ParseKnownNamesAndRejectTypos) {
  EXPECT_EQ(cid::net::parse_backend("sim"), Backend::Sim);
  EXPECT_EQ(cid::net::parse_backend("thread"), Backend::Thread);
  EXPECT_EQ(cid::net::parse_backend("tcp"), Backend::Tcp);
  EXPECT_FALSE(cid::net::parse_backend("Sim").has_value());
  EXPECT_FALSE(cid::net::parse_backend("").has_value());
  EXPECT_FALSE(cid::net::parse_backend("udp").has_value());
}

TEST(Backend, EnvUnsetDefaultsToSimAndTypoThrows) {
  ::unsetenv("CID_BACKEND");
  EXPECT_EQ(cid::net::backend_from_env(), Backend::Sim);
  ::setenv("CID_BACKEND", "thread", 1);
  EXPECT_EQ(cid::net::backend_from_env(), Backend::Thread);
  ::setenv("CID_BACKEND", "smi", 1);
  EXPECT_THROW(cid::net::backend_from_env(), cid::CidError);
  ::unsetenv("CID_BACKEND");
}

TEST(Backend, PartitionRanksCoversEveryRankExactlyOnce) {
  for (int nranks : {1, 2, 3, 7, 8, 64}) {
    for (int nprocs : {1, 2, 3, 5}) {
      if (nprocs > nranks) continue;
      std::vector<int> owner(nranks, -1);
      for (int p = 0; p < nprocs; ++p) {
        const auto range = cid::net::partition_ranks(nranks, nprocs, p);
        EXPECT_GE(range.count, 1);
        for (int r = range.begin; r < range.begin + range.count; ++r) {
          ASSERT_GE(r, 0);
          ASSERT_LT(r, nranks);
          EXPECT_EQ(owner[r], -1) << "rank " << r << " hosted twice";
          owner[r] = p;
        }
      }
      for (int r = 0; r < nranks; ++r) {
        EXPECT_NE(owner[r], -1) << "rank " << r << " unhosted";
      }
    }
  }
}

TEST(Backend, TcpConfigParsesPeersAndRejectsMalformedEntries) {
  ::setenv("CID_NET_PEERS", "127.0.0.1:7001,localhost:7002", 1);
  ::setenv("CID_NET_PROC", "1", 1);
  auto config = cid::net::tcp_config_from_env();
  ASSERT_TRUE(config.is_ok()) << config.status().to_string();
  EXPECT_EQ(config.value().nprocs(), 2);
  EXPECT_EQ(config.value().proc, 1);
  EXPECT_EQ(config.value().peers[0].host, "127.0.0.1");
  EXPECT_EQ(config.value().peers[0].port, 7001);
  EXPECT_EQ(config.value().peers[1].host, "localhost");

  ::setenv("CID_NET_PROC", "2", 1);  // out of range
  EXPECT_FALSE(cid::net::tcp_config_from_env().is_ok());
  ::setenv("CID_NET_PROC", "0", 1);
  ::setenv("CID_NET_PEERS", "127.0.0.1:99999", 1);  // bad port
  EXPECT_FALSE(cid::net::tcp_config_from_env().is_ok());
  ::setenv("CID_NET_PEERS", "nocolon", 1);
  EXPECT_FALSE(cid::net::tcp_config_from_env().is_ok());
  ::unsetenv("CID_NET_PEERS");
  EXPECT_FALSE(cid::net::tcp_config_from_env().is_ok());
  ::unsetenv("CID_NET_PROC");
}

// ---- Mailbox timed waits -------------------------------------------------

TEST(MailboxTimed, WaitExtractForTimesOutEmpty) {
  cid::rt::Mailbox mailbox;
  cid::rt::MatchKey key;
  key.src = 0;
  key.tag = 1;
  const auto result = mailbox.wait_extract_for(
      std::span<const cid::rt::MatchKey>(&key, 1), 0.01);
  EXPECT_FALSE(result.has_value());
}

TEST(MailboxTimed, WaitExtractForReturnsQueuedEnvelopeImmediately) {
  cid::rt::Mailbox mailbox;
  mailbox.push(make_envelope(0, 1, 42));
  cid::rt::MatchKey key;
  key.src = 0;
  key.tag = 1;
  const auto result = mailbox.wait_extract_for(
      std::span<const cid::rt::MatchKey>(&key, 1), 10.0);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(value_of(*result), 42u);
}

// ---- ThreadTransport -----------------------------------------------------

/// N messages from each sender to rank 0 must arrive per-(src, tag) FIFO
/// even though a messenger thread relays them.
TEST(ThreadTransport, PreservesPerSourceTagOrder) {
  constexpr int kRanks = 4;
  constexpr int kMessages = 200;
  cid::rt::RunOptions options;
  options.transport = std::make_shared<cid::net::ThreadTransport>();
  std::atomic<int> failures{0};
  cid::rt::run(
      kRanks, cid::simnet::MachineModel::cray_xk7_gemini(),
      [&](cid::rt::RankCtx& ctx) {
        if (ctx.rank() != 0) {
          for (int i = 0; i < kMessages; ++i) {
            ctx.world().deliver(
                0, make_envelope(ctx.rank(), /*tag=*/7,
                                 static_cast<std::uint32_t>(i)));
          }
          return;
        }
        std::vector<std::uint32_t> next(kRanks, 0);
        for (int got = 0; got < (kRanks - 1) * kMessages; ++got) {
          cid::rt::MatchKey key;
          key.tag = 7;  // src wildcard: any sender, FIFO within each
          cid::rt::Envelope e = ctx.mailbox().wait_extract(key);
          if (value_of(e) != next[e.src]) ++failures;
          ++next[e.src];
        }
      },
      options);
  EXPECT_EQ(failures.load(), 0);
}

/// Fault-layer drops must still deliver tombstones on the thread backend
/// (ThreadTransport is not a real-loss transport).
TEST(ThreadTransport, FaultTombstonesSurviveTheMessenger) {
  class DropAll : public cid::rt::DeliveryInterceptor {
   public:
    cid::rt::DeliveryVerdict on_deliver(const cid::rt::Envelope&,
                                        int) override {
      cid::rt::DeliveryVerdict verdict;
      verdict.drop = true;
      return verdict;
    }
  };
  cid::rt::RunOptions options;
  options.transport = std::make_shared<cid::net::ThreadTransport>();
  options.interceptor = std::make_shared<DropAll>();
  std::atomic<int> tombstones{0};
  cid::rt::run(
      2, cid::simnet::MachineModel::cray_xk7_gemini(),
      [&](cid::rt::RankCtx& ctx) {
        if (ctx.rank() == 1) {
          ctx.world().deliver(0, make_envelope(1, 5, 99));
          return;
        }
        cid::rt::MatchKey key;
        key.src = 1;
        key.tag = 5;
        key.faults = cid::rt::FaultFilter::Faulted;
        cid::rt::Envelope e = ctx.mailbox().wait_extract(key);
        if (e.faulted && e.payload.empty()) ++tombstones;
      },
      options);
  EXPECT_EQ(tombstones.load(), 1);
}

/// detach() must drain everything: no envelope handed to deliver() before
/// the ranks finish may be lost.
TEST(ThreadTransport, ShutdownDrainsEveryInFlightEnvelope) {
  constexpr int kMessages = 500;
  cid::rt::RunOptions options;
  options.transport = std::make_shared<cid::net::ThreadTransport>();
  std::atomic<int> received{0};
  cid::rt::run(
      2, cid::simnet::MachineModel::cray_xk7_gemini(),
      [&](cid::rt::RankCtx& ctx) {
        if (ctx.rank() == 1) {
          for (int i = 0; i < kMessages; ++i) {
            ctx.world().deliver(0, make_envelope(1, 3,
                                                 static_cast<std::uint32_t>(i)));
          }
          return;
        }
        cid::rt::MatchKey key;
        key.src = 1;
        key.tag = 3;
        for (int i = 0; i < kMessages; ++i) {
          ctx.mailbox().wait_extract(key);
          ++received;
        }
      },
      options);
  EXPECT_EQ(received.load(), kMessages);
}

// ---- Sim backend equivalence (golden seam) -------------------------------

/// A deterministic program must produce identical final virtual clocks when
/// run through the explicit SimTransport seam and under the default
/// environment resolution (CID_BACKEND unset). This pins that the seam did
/// not perturb the simulator; the byte-level goldens live in
/// tests/property_test.cpp.
TEST(SimTransport, SeamIsVirtualTimeIdenticalToDefaultRun) {
  const auto program = [](cid::rt::RankCtx& ctx) {
    ctx.charge_compute(1e-6 * (ctx.rank() + 1));
    const int peer = (ctx.rank() + 1) % ctx.nranks();
    ctx.world().deliver(peer, make_envelope(ctx.rank(), 11, 7));
    cid::rt::MatchKey key;
    key.tag = 11;
    (void)ctx.mailbox().wait_extract(key);
    ctx.barrier();
  };
  ::unsetenv("CID_BACKEND");
  const auto baseline =
      cid::rt::run(4, cid::simnet::MachineModel::cray_xk7_gemini(), program);
  cid::rt::RunOptions options;
  options.transport = std::make_shared<cid::net::SimTransport>();
  const auto seamed = cid::rt::run(
      4, cid::simnet::MachineModel::cray_xk7_gemini(), program, options);
  EXPECT_EQ(baseline.final_clocks, seamed.final_clocks);
}

// ---- TcpTransport over loopback ------------------------------------------

bool loopback_available() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;  // any free port
  const bool ok =
      ::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) == 0;
  ::close(fd);
  return ok;
}

cid::net::TcpConfig loopback_config(int proc, std::uint16_t base) {
  cid::net::TcpConfig config;
  config.peers = {{"127.0.0.1", base}, {"127.0.0.1",
                                        static_cast<std::uint16_t>(base + 1)}};
  config.proc = proc;
  return config;
}

/// Ring exchange over two OS processes: every rank sends rank*10 to the
/// next rank and checks what it received; both processes must agree and
/// exit cleanly. The child is forked, so a hang fails via waitpid timeout
/// (gtest's per-test timeout) rather than deadlocking the suite.
TEST(TcpTransport, TwoProcessLoopbackRingSmoke) {
  if (!loopback_available()) {
    GTEST_SKIP() << "no loopback networking in this environment";
  }
  // Pid-derived so concurrent test runs on one host pick different ports.
  const auto kPortBase =
      static_cast<std::uint16_t>(21000 + (::getpid() % 20000));
  constexpr int kRanks = 4;
  const auto program = [](cid::rt::RankCtx& ctx) {
    const int next = (ctx.rank() + 1) % ctx.nranks();
    const int prev = (ctx.rank() + ctx.nranks() - 1) % ctx.nranks();
    ctx.world().deliver(
        next, make_envelope(ctx.rank(), 21,
                            static_cast<std::uint32_t>(ctx.rank() * 10)));
    cid::rt::MatchKey key;
    key.src = prev;
    key.tag = 21;
    cid::rt::Envelope e = ctx.mailbox().wait_extract(key);
    if (value_of(e) != static_cast<std::uint32_t>(prev * 10)) {
      throw cid::CidError(cid::ErrorCode::RuntimeFault, "wrong ring value");
    }
    ctx.barrier();
  };

  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Proc 1 hosts ranks [2, 4).
    int code = 0;
    try {
      cid::rt::RunOptions options;
      options.transport = std::make_shared<cid::net::TcpTransport>(
          loopback_config(1, kPortBase));
      cid::rt::run(kRanks, cid::simnet::MachineModel::cray_xk7_gemini(),
                   program, options);
    } catch (...) {
      code = 1;
    }
    std::_Exit(code);
  }
  // Proc 0 hosts ranks [0, 2).
  cid::rt::RunOptions options;
  options.transport = std::make_shared<cid::net::TcpTransport>(
      loopback_config(0, kPortBase));
  EXPECT_NO_THROW(cid::rt::run(
      kRanks, cid::simnet::MachineModel::cray_xk7_gemini(), program, options));
  int status = -1;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

/// In-process facilities must refuse to start on a cross-process transport
/// instead of hanging: the world barrier still works, Comm::split-style
/// registries do not. Exercised directly through the World gate.
TEST(TcpTransport, CrossProcessGateRefusesInProcessFacilities) {
  if (!loopback_available()) {
    GTEST_SKIP() << "no loopback networking in this environment";
  }
  auto transport = std::make_shared<cid::net::TcpTransport>(
      loopback_config(0, 19931));
  cid::rt::World world(4, cid::simnet::MachineModel::cray_xk7_gemini(),
                       transport);
  EXPECT_TRUE(world.rank_is_local(0));
  EXPECT_TRUE(world.rank_is_local(1));
  EXPECT_FALSE(world.rank_is_local(2));
  EXPECT_THROW(world.require_single_process("the shmem symmetric heap"),
               cid::CidError);
  cid::rt::World local(4, cid::simnet::MachineModel::cray_xk7_gemini(),
                       std::make_shared<cid::net::SimTransport>());
  EXPECT_NO_THROW(local.require_single_process("anything"));
}

// ---- cidt exit-code contract ---------------------------------------------

int cidt_exit(const std::string& args) {
  const std::string command =
      std::string(CID_BINARY_DIR) + "/tools/cidt " + args + " >/dev/null 2>&1";
  const int status = std::system(command.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(CidtNet, DoctorExitCodeContract) {
  // Clean environment: everything checks out.
  ::unsetenv("CID_BACKEND");
  ::unsetenv("CID_NET_PEERS");
  ::unsetenv("CID_NET_PROC");
  EXPECT_EQ(cidt_exit("net doctor"), 0);
  // Malformed peer table: findings, exit 1.
  ::setenv("CID_NET_PEERS", "not-a-peer", 1);
  ::setenv("CID_NET_PROC", "0", 1);
  EXPECT_EQ(cidt_exit("net doctor"), 1);
  ::unsetenv("CID_NET_PEERS");
  ::unsetenv("CID_NET_PROC");
  // Unknown verb: usage, exit 2.
  EXPECT_EQ(cidt_exit("net ping"), 2);
}

TEST(CidtRun, UsageErrorsExitTwo) {
  EXPECT_EQ(cidt_exit("run"), 2);                      // no program
  EXPECT_EQ(cidt_exit("run --backend udp /bin/true"), 2);
  EXPECT_EQ(cidt_exit("run --backend thread --procs 2 /bin/true"), 2);
}

TEST(CidtRun, ExecsProgramWithBackendEnv) {
  // /bin/sh reads CID_BACKEND back out: the launcher must have set it.
  EXPECT_EQ(cidt_exit("run --backend thread /bin/sh -c "
                      "'test \"$CID_BACKEND\" = thread'"),
            0);
  EXPECT_EQ(cidt_exit("run --backend sim /bin/sh -c "
                      "'test \"$CID_BACKEND\" = sim'"),
            0);
  // Child exit codes propagate.
  EXPECT_EQ(cidt_exit("run --backend sim /bin/sh -c 'exit 7'"), 7);
}

}  // namespace
