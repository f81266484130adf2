// Cross-module integration tests, including the full translator pipeline:
// pragma source -> cidt translation -> host compiler -> executable linked
// against miniMPI/miniSHMEM -> run -> verify output. This is the end-to-end
// path the paper's Open64 implementation provides.
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

/// A complete pragma-annotated SPMD program: ring exchange, checked, then a
/// region with guards. The translator must turn the pragmas into library
/// calls that compile and produce correct data.
constexpr const char* kRingProgram = R"prog(
#include <cstdio>
#include <cstdlib>
#include <vector>
#include "mpi/mpi.hpp"
#include "rt/runtime.hpp"
#include "shmem/shmem.hpp"
#include "translate/runtime.hpp"

int main() {
  auto result = cid::rt::run(6, [](cid::rt::RankCtx& ctx) {
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
  });
  std::printf("RING-OK %.3f\n", result.makespan() * 1e6);
  return 0;
}
)prog";

TEST(TranslatorPipeline, RingProgramTranslatesCompilesRuns) {
  const std::string dir = temp_dir();
  auto translated = cid::translate::translate_source(kRingProgram);
  ASSERT_TRUE(translated.is_ok()) << translated.status().to_string();
  EXPECT_EQ(translated.value().summary.p2p_directives, 1);

  const std::string source_path = dir + "/ring_translated.cpp";
  write_file(source_path, translated.value().source);

  std::string log;
  ASSERT_EQ(compile(source_path, dir + "/ring_translated", &log), 0)
      << "compiler output:\n"
      << log;

  int status = 0;
  const std::string output = run_capture(dir + "/ring_translated", &status);
  EXPECT_EQ(status, 0) << output;
  EXPECT_NE(output.find("RING-OK"), std::string::npos) << output;
}

/// The same program retargeted to SHMEM via the translator option; buffers
/// must be symmetric, so the program allocates them with shmem::malloc_of.
constexpr const char* kShmemProgram = R"prog(
#include <cstdio>
#include <cstdlib>
#include "rt/runtime.hpp"
#include "mpi/mpi.hpp"
#include "shmem/shmem.hpp"
#include "translate/runtime.hpp"

int main() {
  auto result = cid::rt::run(4, [](cid::rt::RankCtx& ctx) {
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
  });
  std::printf("SHMEM-OK\n");
  (void)result;
  return 0;
}
)prog";

TEST(TranslatorPipeline, ShmemTargetCompilesRuns) {
  const std::string dir = temp_dir();
  auto translated = cid::translate::translate_source(kShmemProgram);
  ASSERT_TRUE(translated.is_ok()) << translated.status().to_string();

  const std::string source_path = dir + "/shmem_translated.cpp";
  write_file(source_path, translated.value().source);

  std::string log;
  ASSERT_EQ(compile(source_path, dir + "/shmem_translated", &log), 0)
      << "compiler output:\n"
      << log;

  int status = 0;
  const std::string output = run_capture(dir + "/shmem_translated", &status);
  EXPECT_EQ(status, 0) << output;
  EXPECT_NE(output.find("SHMEM-OK"), std::string::npos) << output;
}

/// Region with inheritance, loop, and count inference through the translated
/// runtime helpers.
constexpr const char* kRegionProgram = R"prog(
#include <cstdio>
#include <cstdlib>
#include <vector>
#include "mpi/mpi.hpp"
#include "rt/runtime.hpp"
#include "shmem/shmem.hpp"
#include "translate/runtime.hpp"

int main() {
  cid::rt::run(4, [](cid::rt::RankCtx& ctx) {
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
  });
  std::printf("REGION-OK\n");
  return 0;
}
)prog";

TEST(TranslatorPipeline, RegionProgramCompilesRuns) {
  const std::string dir = temp_dir();
  auto translated = cid::translate::translate_source(kRegionProgram);
  ASSERT_TRUE(translated.is_ok()) << translated.status().to_string();
  EXPECT_EQ(translated.value().summary.parameter_regions, 1);
  EXPECT_EQ(translated.value().summary.consolidated_syncs, 1);

  const std::string source_path = dir + "/region_translated.cpp";
  write_file(source_path, translated.value().source);

  std::string log;
  ASSERT_EQ(compile(source_path, dir + "/region_translated", &log), 0)
      << "compiler output:\n"
      << log;

  int status = 0;
  const std::string output = run_capture(dir + "/region_translated", &status);
  EXPECT_EQ(status, 0) << output;
  EXPECT_NE(output.find("REGION-OK"), std::string::npos) << output;
}

/// A nested region defers its sync, and with it the enclosing region's open
/// requests, past the enclosing block: the request vectors it waits on at
/// the next region's begin must still be in scope there.
constexpr const char* kNestedDeferralProgram = R"prog(
#include <cstdio>
#include <cstdlib>
#include <vector>
#include "mpi/mpi.hpp"
#include "rt/runtime.hpp"
#include "shmem/shmem.hpp"
#include "translate/runtime.hpp"

int main() {
  cid::rt::run(2, [](cid::rt::RankCtx& ctx) {
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
  });
  std::printf("NESTED-OK\n");
  return 0;
}
)prog";

TEST(TranslatorPipeline, NestedDeferralCompilesRuns) {
  const std::string dir = temp_dir();
  auto translated = cid::translate::translate_source(kNestedDeferralProgram);
  ASSERT_TRUE(translated.is_ok()) << translated.status().to_string();

  const std::string source_path = dir + "/nested_translated.cpp";
  write_file(source_path, translated.value().source);

  std::string log;
  ASSERT_EQ(compile(source_path, dir + "/nested_translated", &log), 0)
      << "compiler output:\n"
      << log;

  int status = 0;
  const std::string output = run_capture(dir + "/nested_translated", &status);
  EXPECT_EQ(status, 0) << output;
  EXPECT_NE(output.find("NESTED-OK"), std::string::npos) << output;
}

/// A comm_p2p nested in another's overlap body is a transfer of the
/// enclosing region: it must be lowered, not left as a pragma the host
/// compiler ignores.
constexpr const char* kNestedOverlapProgram = R"prog(
#include <cstdio>
#include <cstdlib>
#include <vector>
#include "mpi/mpi.hpp"
#include "rt/runtime.hpp"
#include "shmem/shmem.hpp"
#include "translate/runtime.hpp"

int main() {
  cid::rt::run(2, [](cid::rt::RankCtx& ctx) {
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
  });
  std::printf("OVERLAP-OK\n");
  return 0;
}
)prog";

TEST(TranslatorPipeline, NestedOverlapTransferCompilesRuns) {
  const std::string dir = temp_dir();
  auto translated = cid::translate::translate_source(kNestedOverlapProgram);
  ASSERT_TRUE(translated.is_ok()) << translated.status().to_string();

  const std::string source_path = dir + "/overlap_translated.cpp";
  write_file(source_path, translated.value().source);

  std::string log;
  ASSERT_EQ(compile(source_path, dir + "/overlap_translated", &log), 0)
      << "compiler output:\n"
      << log;

  int status = 0;
  const std::string output = run_capture(dir + "/overlap_translated", &status);
  EXPECT_EQ(status, 0) << output;
  EXPECT_NE(output.find("OVERLAP-OK"), std::string::npos) << output;
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
  EXPECT_NE(buffer.str().find("cid::mpi::isend"), std::string::npos);

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
