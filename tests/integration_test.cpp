// Cross-module integration tests, including the full translator pipeline:
// pragma source -> cidt translation -> host compiler -> executable linked
// against the directive executor -> run -> verify output against an
// embedded-API twin of the same program. This is the end-to-end path the
// paper's Open64 implementation provides.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "translate/translator.hpp"

// Supplied by CMake.
#ifndef CID_SOURCE_DIR
#define CID_SOURCE_DIR "."
#endif
#ifndef CID_BINARY_DIR
#define CID_BINARY_DIR "."
#endif
#ifndef CID_CXX_COMPILER
#define CID_CXX_COMPILER "g++"
#endif
// Extra flags matching the build configuration (sanitizers, notably).
#ifndef CID_EXTRA_CXX_FLAGS
#define CID_EXTRA_CXX_FLAGS ""
#endif

namespace {

std::string temp_dir() {
  std::string dir = std::string(CID_BINARY_DIR) + "/integration_tmp";
  std::string command = "mkdir -p '" + dir + "'";
  EXPECT_EQ(std::system(command.c_str()), 0);
  return dir;
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  ASSERT_TRUE(out.good()) << path;
  out << content;
}

/// Compile `source_path` against the cid libraries; returns the exit status
/// of the compiler.
int compile(const std::string& source_path, const std::string& binary_path,
            std::string* log) {
  const std::string libs = std::string(CID_BINARY_DIR) +
                           "/src/wllsms/libcid_wllsms.a " + CID_BINARY_DIR +
                           "/src/translate/libcid_translate.a " +
                           CID_BINARY_DIR + "/src/core/libcid_core.a " +
                           CID_BINARY_DIR + "/src/mpi/libcid_mpi.a " +
                           CID_BINARY_DIR + "/src/shmem/libcid_shmem.a " +
                           CID_BINARY_DIR + "/src/rt/libcid_rt.a " +
                           CID_BINARY_DIR + "/src/net/libcid_net.a " +
                           // net <-> rt is a link cycle: repeat cid_rt after
                           // cid_net so the transports' rt symbols resolve.
                           CID_BINARY_DIR + "/src/rt/libcid_rt.a " +
                           CID_BINARY_DIR + "/src/tune/libcid_tune.a " +
                           CID_BINARY_DIR + "/src/obs/libcid_obs.a " +
                           CID_BINARY_DIR + "/src/simnet/libcid_simnet.a " +
                           CID_BINARY_DIR + "/src/common/libcid_common.a";
  const std::string command = std::string(CID_CXX_COMPILER) + " -std=c++20 " +
                              CID_EXTRA_CXX_FLAGS + " -I" + CID_SOURCE_DIR +
                              "/src -o '" + binary_path + "' '" + source_path +
                              "' " + libs + " -lpthread 2>'" + binary_path +
                              ".log'";
  const int status = std::system(command.c_str());
  if (log != nullptr) {
    std::ifstream in(binary_path + ".log");
    std::stringstream buffer;
    buffer << in.rdbuf();
    *log = buffer.str();
  }
  return status;
}

/// Run a binary, capture stdout.
std::string run_capture(const std::string& binary_path, int* status) {
  const std::string out_path = binary_path + ".out";
  const std::string command =
      "'" + binary_path + "' >'" + out_path + "' 2>&1";
  *status = std::system(command.c_str());
  std::ifstream in(out_path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Prepended to every translated program below. Each program runs its
/// rank body twice in one process: once with pragmas (translated), once as
/// an embedded-API twin whose text is the same apart from the directives. It
/// prints its OK line only when both runs agree on every rank's receive
/// buffers, directive statistics and final virtual clock.
constexpr const char* kTwinHarness = R"prog(
#include <cstdio>
#include <cstdlib>
#include <vector>
#include "core/core.hpp"
#include "rt/runtime.hpp"
#include "shmem/shmem.hpp"

/// What one run leaves behind, per rank.
struct Leg {
  std::vector<std::vector<unsigned char>> bytes;  ///< receive buffers
  std::vector<cid::core::CommStats> stats;
  cid::rt::RunResult result;
};
Leg legs[2];  // [0] translated pragmas, [1] embedded-API twin

void open_legs(int nprocs) {
  for (Leg& leg : legs) {
    leg.bytes.assign(nprocs, {});
    leg.stats.assign(nprocs, {});
  }
}

/// Append a receive buffer's bytes to the rank's record of run `leg`, and
/// take the rank's statistics so far.
void keep(int leg, int rank, const void* data, std::size_t size) {
  const auto* first = static_cast<const unsigned char*>(data);
  auto& bytes = legs[leg].bytes[rank];
  bytes.insert(bytes.end(), first, first + size);
  legs[leg].stats[rank] = cid::core::comm_stats();
}

bool legs_agree() {
  bool same = true;
  for (std::size_t r = 0; r < legs[0].bytes.size(); ++r) {
    if (legs[0].bytes[r] != legs[1].bytes[r]) {
      std::fprintf(stderr, "rank %zu: receive buffers differ\n", r);
      same = false;
    }
    if (!(legs[0].stats[r] == legs[1].stats[r])) {
      std::fprintf(stderr, "rank %zu: statistics differ\n%s\nvs\n%s\n", r,
                   legs[0].stats[r].to_string().c_str(),
                   legs[1].stats[r].to_string().c_str());
      same = false;
    }
  }
  if (legs[0].result.final_clocks != legs[1].result.final_clocks) {
    for (std::size_t r = 0; r < legs[0].result.final_clocks.size(); ++r) {
      std::fprintf(stderr, "rank %zu: final clock %.9f vs %.9f\n", r,
                   legs[0].result.final_clocks[r],
                   legs[1].result.final_clocks[r]);
    }
    same = false;
  }
  return same;
}
)prog";

/// Translate `program` (after the twin harness), compile it, run it, and
/// expect its OK line. Returns the translation's summary.
cid::translate::Summary expect_twins_agree(const std::string& name,
                                           const char* program,
                                           const std::string& ok_line) {
  const std::string dir = temp_dir();
  auto translated = cid::translate::translate_source(
      std::string(kTwinHarness) + program);
  EXPECT_TRUE(translated.is_ok()) << translated.status().to_string();
  if (!translated.is_ok()) return {};

  const std::string source_path = dir + "/" + name + "_translated.cpp";
  const std::string binary_path = dir + "/" + name + "_translated";
  write_file(source_path, translated.value().source);
  std::string log;
  EXPECT_EQ(compile(source_path, binary_path, &log), 0)
      << "compiler output:\n"
      << log;

  int status = 0;
  const std::string output = run_capture(binary_path, &status);
  EXPECT_EQ(status, 0) << output;
  EXPECT_NE(output.find(ok_line), std::string::npos) << output;
  return translated.value().summary;
}

/// A complete pragma-annotated SPMD program: ring exchange, checked.
constexpr const char* kRingProgram = R"prog(
int main() {
  open_legs(6);
  legs[0].result = cid::rt::run(6, [](cid::rt::RankCtx& ctx) {
    const int rank = ctx.rank();
    const int nprocs = ctx.nranks();
    int prev = (rank - 1 + nprocs) % nprocs;
    int next = (rank + 1) % nprocs;
    double buf1[4];
    double buf2[4] = {0, 0, 0, 0};
    for (int i = 0; i < 4; ++i) buf1[i] = rank * 10.0 + i;

#pragma comm_p2p sender(prev) receiver(next) sbuf(buf1) rbuf(buf2)
    { }

    for (int i = 0; i < 4; ++i) {
      if (buf2[i] != prev * 10.0 + i) {
        std::fprintf(stderr, "rank %d: BAD DATA\n", rank);
        std::exit(1);
      }
    }
    keep(0, rank, buf2, sizeof buf2);
  });
  legs[1].result = cid::rt::run(6, [](cid::rt::RankCtx& ctx) {
    const int rank = ctx.rank();
    const int nprocs = ctx.nranks();
    int prev = (rank - 1 + nprocs) % nprocs;
    int next = (rank + 1) % nprocs;
    double buf1[4];
    double buf2[4] = {0, 0, 0, 0};
    for (int i = 0; i < 4; ++i) buf1[i] = rank * 10.0 + i;

    cid::core::comm_p2p(cid::core::Clauses()
                            .sender(prev)
                            .receiver(next)
                            .sbuf(cid::core::buf(buf1))
                            .rbuf(cid::core::buf(buf2)));

    for (int i = 0; i < 4; ++i) {
      if (buf2[i] != prev * 10.0 + i) {
        std::fprintf(stderr, "rank %d: BAD DATA\n", rank);
        std::exit(1);
      }
    }
    keep(1, rank, buf2, sizeof buf2);
  });
  if (!legs_agree()) return 3;
  std::printf("RING-OK %.3f\n", legs[0].result.makespan() * 1e6);
  return 0;
}
)prog";

TEST(TranslatorPipeline, RingProgramTranslatesCompilesRuns) {
  EXPECT_EQ(expect_twins_agree("ring", kRingProgram, "RING-OK")
                .p2p_directives,
            1);
}

/// The same program retargeted to SHMEM by its target clause; the receive
/// buffer must be symmetric, so the program allocates it with
/// shmem::malloc_of.
constexpr const char* kShmemProgram = R"prog(
int main() {
  open_legs(4);
  legs[0].result = cid::rt::run(4, [](cid::rt::RankCtx& ctx) {
    const int rank = ctx.rank();
    const int nprocs = ctx.nranks();
    int prev = (rank - 1 + nprocs) % nprocs;
    int next = (rank + 1) % nprocs;
    double* buf2 = cid::shmem::malloc_of<double>(4);
    double buf1[4];
    for (int i = 0; i < 4; ++i) { buf1[i] = rank + i * 0.25; buf2[i] = -1; }
    ctx.barrier();

#pragma comm_p2p sender(prev) receiver(next) sbuf(buf1) rbuf(buf2) count(4) target(TARGET_COMM_SHMEM)
    { }

    for (int i = 0; i < 4; ++i) {
      if (buf2[i] != prev + i * 0.25) std::exit(1);
    }
    keep(0, rank, buf2, 4 * sizeof(double));
  });
  legs[1].result = cid::rt::run(4, [](cid::rt::RankCtx& ctx) {
    const int rank = ctx.rank();
    const int nprocs = ctx.nranks();
    int prev = (rank - 1 + nprocs) % nprocs;
    int next = (rank + 1) % nprocs;
    double* buf2 = cid::shmem::malloc_of<double>(4);
    double buf1[4];
    for (int i = 0; i < 4; ++i) { buf1[i] = rank + i * 0.25; buf2[i] = -1; }
    ctx.barrier();

    cid::core::comm_p2p(cid::core::Clauses()
                            .sender(prev)
                            .receiver(next)
                            .sbuf(cid::core::buf(buf1))
                            .rbuf(cid::core::buf(buf2))
                            .count(4)
                            .target(cid::core::Target::Shmem));

    for (int i = 0; i < 4; ++i) {
      if (buf2[i] != prev + i * 0.25) std::exit(1);
    }
    keep(1, rank, buf2, 4 * sizeof(double));
  });
  if (!legs_agree()) return 3;
  std::printf("SHMEM-OK\n");
  return 0;
}
)prog";

TEST(TranslatorPipeline, ShmemTargetCompilesRuns) {
  expect_twins_agree("shmem", kShmemProgram, "SHMEM-OK");
}

/// Region with inheritance, a max_comm_iter loop (persistent requests in the
/// executor), and count taken from the region.
constexpr const char* kRegionProgram = R"prog(
int main() {
  open_legs(4);
  legs[0].result = cid::rt::run(4, [](cid::rt::RankCtx& ctx) {
    const int rank = ctx.rank();
    const int nprocs = ctx.nranks();
    (void)nprocs;
    const int n = 5;
    double buf1[5];
    double buf2[5] = {0, 0, 0, 0, 0};
    for (int p = 0; p < n; ++p) buf1[p] = rank * 2.0 + p;

#pragma comm_parameters sender(rank-1) receiver(rank+1) sendwhen(rank%2==0) receivewhen(rank%2==1) count(1) max_comm_iter(n) place_sync(END_PARAM_REGION)
    {
      for (int p = 0; p < n; ++p)
#pragma comm_p2p sbuf(&buf1[p]) rbuf(&buf2[p])
      { }
    }

    if (rank % 2 == 1) {
      for (int p = 0; p < n; ++p) {
        if (buf2[p] != (rank - 1) * 2.0 + p) std::exit(1);
      }
    }
    keep(0, rank, buf2, sizeof buf2);
  });
  legs[1].result = cid::rt::run(4, [](cid::rt::RankCtx& ctx) {
    const int rank = ctx.rank();
    const int nprocs = ctx.nranks();
    (void)nprocs;
    const int n = 5;
    double buf1[5];
    double buf2[5] = {0, 0, 0, 0, 0};
    for (int p = 0; p < n; ++p) buf1[p] = rank * 2.0 + p;

    cid::core::comm_parameters(
        cid::core::Clauses()
            .sender(rank - 1)
            .receiver(rank + 1)
            .sendwhen(rank % 2 == 0)
            .receivewhen(rank % 2 == 1)
            .count(1)
            .max_comm_iter(n)
            .place_sync(cid::core::SyncPlacement::EndParamRegion),
        [&](cid::core::Region& region) {
      for (int p = 0; p < n; ++p)
        region.p2p(cid::core::Clauses()
                       .sbuf(cid::core::buf(&buf1[p]))
                       .rbuf(cid::core::buf(&buf2[p])));
    });

    if (rank % 2 == 1) {
      for (int p = 0; p < n; ++p) {
        if (buf2[p] != (rank - 1) * 2.0 + p) std::exit(1);
      }
    }
    keep(1, rank, buf2, sizeof buf2);
  });
  if (!legs_agree()) return 3;
  std::printf("REGION-OK\n");
  return 0;
}
)prog";

TEST(TranslatorPipeline, RegionProgramCompilesRuns) {
  const auto summary =
      expect_twins_agree("region", kRegionProgram, "REGION-OK");
  EXPECT_EQ(summary.parameter_regions, 1);
  EXPECT_EQ(summary.p2p_directives, 1);
}

/// A nested region defers its sync, and with it the enclosing region's open
/// transfers, past the enclosing region to the next region's begin.
constexpr const char* kNestedDeferralProgram = R"prog(
int main() {
  open_legs(2);
  legs[0].result = cid::rt::run(2, [](cid::rt::RankCtx& ctx) {
    const int rank = ctx.rank();
    double a[2] = {1.0, 2.0}, b[2] = {0.0, 0.0};
    double c[2] = {3.0, 4.0}, d[2] = {0.0, 0.0};
    double e[2] = {5.0, 6.0}, f[2] = {0.0, 0.0};
#pragma comm_parameters sender(0) receiver(1) sendwhen(rank==0) receivewhen(rank==1)
    {
#pragma comm_p2p sbuf(a) rbuf(b)
      { }
#pragma comm_parameters place_sync(BEGIN_NEXT_PARAM_REGION)
      {
#pragma comm_p2p sbuf(c) rbuf(d)
        { }
      }
    }
#pragma comm_parameters sender(0) receiver(1) sendwhen(rank==0) receivewhen(rank==1)
    {
      if (rank == 1 && (b[1] != 2.0 || d[1] != 4.0)) std::exit(1);
#pragma comm_p2p sbuf(e) rbuf(f)
      { }
    }
    if (rank == 1 && f[1] != 6.0) std::exit(2);
    keep(0, rank, b, sizeof b);
    keep(0, rank, d, sizeof d);
    keep(0, rank, f, sizeof f);
  });
  legs[1].result = cid::rt::run(2, [](cid::rt::RankCtx& ctx) {
    const int rank = ctx.rank();
    double a[2] = {1.0, 2.0}, b[2] = {0.0, 0.0};
    double c[2] = {3.0, 4.0}, d[2] = {0.0, 0.0};
    double e[2] = {5.0, 6.0}, f[2] = {0.0, 0.0};
    cid::core::comm_parameters(
        cid::core::Clauses().sender(0).receiver(1).sendwhen(rank == 0).receivewhen(rank == 1),
        [&](cid::core::Region& region) {
      region.p2p(cid::core::Clauses().sbuf(cid::core::buf(a)).rbuf(cid::core::buf(b)));
      cid::core::comm_parameters(
          cid::core::Clauses().place_sync(cid::core::SyncPlacement::BeginNextParamRegion),
          [&](cid::core::Region& inner) {
        inner.p2p(cid::core::Clauses().sbuf(cid::core::buf(c)).rbuf(cid::core::buf(d)));
      });
    });
    cid::core::comm_parameters(
        cid::core::Clauses().sender(0).receiver(1).sendwhen(rank == 0).receivewhen(rank == 1),
        [&](cid::core::Region& region) {
      if (rank == 1 && (b[1] != 2.0 || d[1] != 4.0)) std::exit(1);
      region.p2p(cid::core::Clauses().sbuf(cid::core::buf(e)).rbuf(cid::core::buf(f)));
    });
    if (rank == 1 && f[1] != 6.0) std::exit(2);
    keep(1, rank, b, sizeof b);
    keep(1, rank, d, sizeof d);
    keep(1, rank, f, sizeof f);
  });
  if (!legs_agree()) return 3;
  std::printf("NESTED-OK\n");
  return 0;
}
)prog";

TEST(TranslatorPipeline, NestedDeferralCompilesRuns) {
  expect_twins_agree("nested", kNestedDeferralProgram, "NESTED-OK");
}

/// A comm_p2p nested in another's overlap body is a transfer of the
/// enclosing region: it must be lowered, not left as a pragma the host
/// compiler ignores.
constexpr const char* kNestedOverlapProgram = R"prog(
int main() {
  open_legs(2);
  legs[0].result = cid::rt::run(2, [](cid::rt::RankCtx& ctx) {
    const int rank = ctx.rank();
    double a[2] = {1.0, 2.0}, b[2] = {0.0, 0.0};
    double c[2] = {3.0, 4.0}, d[2] = {0.0, 0.0};
#pragma comm_parameters sender(0) receiver(1) sendwhen(rank==0) receivewhen(rank==1)
    {
#pragma comm_p2p sbuf(a) rbuf(b)
      {
#pragma comm_p2p sbuf(c) rbuf(d)
        { }
      }
    }
    if (rank == 1 && (b[1] != 2.0 || d[1] != 4.0)) std::exit(1);
    keep(0, rank, b, sizeof b);
    keep(0, rank, d, sizeof d);
  });
  legs[1].result = cid::rt::run(2, [](cid::rt::RankCtx& ctx) {
    const int rank = ctx.rank();
    double a[2] = {1.0, 2.0}, b[2] = {0.0, 0.0};
    double c[2] = {3.0, 4.0}, d[2] = {0.0, 0.0};
    cid::core::comm_parameters(
        cid::core::Clauses().sender(0).receiver(1).sendwhen(rank == 0).receivewhen(rank == 1),
        [&](cid::core::Region& region) {
      region.p2p(cid::core::Clauses().sbuf(cid::core::buf(a)).rbuf(cid::core::buf(b)), [&] {
        region.p2p(cid::core::Clauses().sbuf(cid::core::buf(c)).rbuf(cid::core::buf(d)));
      });
    });
    if (rank == 1 && (b[1] != 2.0 || d[1] != 4.0)) std::exit(1);
    keep(1, rank, b, sizeof b);
    keep(1, rank, d, sizeof d);
  });
  if (!legs_agree()) return 3;
  std::printf("OVERLAP-OK\n");
  return 0;
}
)prog";

TEST(TranslatorPipeline, NestedOverlapTransferCompilesRuns) {
  expect_twins_agree("overlap", kNestedOverlapProgram, "OVERLAP-OK");
}

/// A grouped broadcast inside a region that supplies its count, under an
/// unbraced loop whose post-collective statement must run every iteration.
constexpr const char* kCollectiveProgram = R"prog(
int main() {
  open_legs(4);
  legs[0].result = cid::rt::run(4, [](cid::rt::RankCtx& ctx) {
    const int rank = ctx.rank();
    double src[3], dst[3] = {0, 0, 0}, sum[1] = {0};
    for (int i = 0; i < 3; ++i) src[i] = rank * 10.0 + i;
#pragma comm_parameters count(3)
    {
      for (int step = 0; step < 2; ++step)
#pragma comm_collective pattern(PATTERN_ONE_TO_MANY) root(0) group(rank/2) sbuf(src) rbuf(dst)
        sum[0] += dst[2];
    }
    const double root = (rank / 2) * 2 * 10.0;
    if (dst[0] != root || sum[0] != 2 * (root + 2)) std::exit(1);
    keep(0, rank, dst, sizeof dst);
    keep(0, rank, sum, sizeof sum);
  });
  legs[1].result = cid::rt::run(4, [](cid::rt::RankCtx& ctx) {
    const int rank = ctx.rank();
    double src[3], dst[3] = {0, 0, 0}, sum[1] = {0};
    for (int i = 0; i < 3; ++i) src[i] = rank * 10.0 + i;
    cid::core::comm_parameters(
        cid::core::Clauses().count(3), [&](cid::core::Region&) {
      for (int step = 0; step < 2; ++step) {
        cid::core::comm_collective(cid::core::Clauses()
                                       .pattern(cid::core::Pattern::OneToMany)
                                       .root(0)
                                       .group(rank / 2)
                                       .count(3)
                                       .sbuf(cid::core::buf(src))
                                       .rbuf(cid::core::buf(dst)));
        sum[0] += dst[2];
      }
    });
    const double root = (rank / 2) * 2 * 10.0;
    if (dst[0] != root || sum[0] != 2 * (root + 2)) std::exit(1);
    keep(1, rank, dst, sizeof dst);
    keep(1, rank, sum, sizeof sum);
  });
  if (!legs_agree()) return 3;
  std::printf("COLLECTIVE-OK\n");
  return 0;
}
)prog";

TEST(TranslatorPipeline, CollectiveProgramCompilesRuns) {
  const auto summary =
      expect_twins_agree("collective", kCollectiveProgram, "COLLECTIVE-OK");
  EXPECT_EQ(summary.parameter_regions, 1);
  EXPECT_EQ(summary.collective_directives, 1);
}

TEST(TranslatorPipeline, CidtCliRoundTrip) {
  const std::string dir = temp_dir();
  write_file(dir + "/cli_input.cpp", kRingProgram);
  const std::string cidt = std::string(CID_BINARY_DIR) + "/tools/cidt";
  const std::string command = "'" + cidt + "' -o '" + dir +
                              "/cli_output.cpp' --summary '" + dir +
                              "/cli_input.cpp' 2>'" + dir + "/cli.log'";
  ASSERT_EQ(std::system(command.c_str()), 0);
  std::ifstream in(dir + "/cli_output.cpp");
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_NE(buffer.str().find("::cid::core::comm_p2p("), std::string::npos);

  std::ifstream log(dir + "/cli.log");
  std::stringstream log_buffer;
  log_buffer << log.rdbuf();
  EXPECT_NE(log_buffer.str().find("1 comm_p2p directive(s)"),
            std::string::npos);
}

TEST(TranslatorPipeline, CidtCliRejectsBadInput) {
  const std::string dir = temp_dir();
  write_file(dir + "/bad_input.cpp",
             "#pragma comm_p2p bogus(1)\n{ }\n");
  const std::string cidt = std::string(CID_BINARY_DIR) + "/tools/cidt";
  const std::string command =
      "'" + cidt + "' '" + dir + "/bad_input.cpp' >/dev/null 2>&1";
  EXPECT_NE(std::system(command.c_str()), 0);
}

}  // namespace

namespace {

TEST(TranslatorPipeline, CidtCheckMode) {
  const std::string dir = temp_dir();
  write_file(dir + "/check_ok.cpp", kRingProgram);
  write_file(dir + "/check_bad.cpp",
             "#pragma comm_p2p sbuf(a) rbuf(b)\n{ }\n");
  const std::string cidt = std::string(CID_BINARY_DIR) + "/tools/cidt";
  EXPECT_EQ(std::system(("'" + cidt + "' --check '" + dir +
                         "/check_ok.cpp' 2>/dev/null")
                            .c_str()),
            0);
  EXPECT_NE(std::system(("'" + cidt + "' --check '" + dir +
                         "/check_bad.cpp' >/dev/null 2>&1")
                            .c_str()),
            0);
  // Check mode writes no output file.
  EXPECT_NE(std::system(("test -f '" + dir + "/check_ok.out'").c_str()), 0);
}

// The exit-code contract of the CLI: 0 clean, 1 findings, 2 usage error,
// 3 I/O error — what the CI lint job keys on.
TEST(TranslatorPipeline, CidtCheckSubcommandExitCodes) {
  const std::string dir = temp_dir();
  write_file(dir + "/lint_clean.cpp", kRingProgram);
  write_file(dir + "/lint_bad.cpp",
             "#pragma comm_p2p sender(rank-1) receiver(rank+1) sbuf(a) "
             "rbuf(b)\n{ }\n");
  const std::string cidt = std::string(CID_BINARY_DIR) + "/tools/cidt";
  auto run = [](const std::string& command) {
    const int status = std::system((command + " >/dev/null 2>&1").c_str());
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  };
  EXPECT_EQ(run("'" + cidt + "' check '" + dir + "/lint_clean.cpp'"), 0);
  EXPECT_EQ(run("'" + cidt + "' check '" + dir + "/lint_bad.cpp'"), 1);
  EXPECT_EQ(run("'" + cidt + "' check"), 2);
  EXPECT_EQ(run("'" + cidt + "' check --bogus-flag x.cpp"), 2);
  EXPECT_EQ(run("'" + cidt + "' check '" + dir + "/does_not_exist.cpp'"), 3);
  // --json emits the machine-readable document on stdout.
  EXPECT_EQ(run("'" + cidt + "' check --json '" + dir + "/lint_bad.cpp' | "
                "grep -q '\"cidlint\":1'"),
            0);
}

}  // namespace
