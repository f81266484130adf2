// bench_explore - DPOR vs naive schedule enumeration, A/B on the model
// checker's own workloads.
//
// Each workload runs twice through cid::explore::explore_source: once with
// the DPOR lowest-rank reduction (the default) and once branching naively
// over every (rank, message) candidate pair. Execution and decision counts
// are fully deterministic — the schedule tree is a pure function of the
// program — so the committed BENCH_explore.json reproduces exactly on any
// host; wall seconds stay in the report for context only.
//
// The bench gates itself: it exits nonzero if DPOR explores as many (or
// more) executions than naive on any multi-receiver workload, or if the two
// modes disagree on the diagnostic IDs found (reduction must never cost
// findings).
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "explore/explore.hpp"

namespace {

using Clock = std::chrono::steady_clock;

// Two wildcard-receiver ranks, two in-flight candidates each, one region:
// each receiver lands its first wildcard receive before receiving into the
// same buffer again — the minimal shape where the lowest-rank rule prunes
// (same as tests/explore_test.cpp).
constexpr const char* kCrossfire2 = R"(
int a[8]; int b[8]; int c[8]; int d[8];
int k;
void w0(); void w1(); void w2(); void w3();
void step() {
#pragma comm_parameters count(4)
  {
#pragma comm_p2p sbuf(a) rbuf(b) count(4) receiver(1) sendwhen(rank==0) sender(k) receivewhen(rank==1)
  { w0(); }
#pragma comm_p2p sbuf(a) rbuf(d) count(4) receiver(2) sendwhen(rank==0) sender(k) receivewhen(rank==2)
  { w1(); }
#pragma comm_p2p sbuf(c) rbuf(b) count(4) receiver(1) sendwhen(rank==2) sender(k) receivewhen(rank==1)
  { w2(); }
#pragma comm_p2p sbuf(c) rbuf(d) count(4) receiver(2) sendwhen(rank==1) sender(k) receivewhen(rank==2)
  { w3(); }
  }
}
)";

// Three wildcard-receiver ranks, two candidates each: the naive candidate
// product grows combinatorially while DPOR stays linear in receivers.
constexpr const char* kCrossfire3 = R"(
int a[8]; int b[8]; int c[8]; int d[8]; int e[8]; int f[8];
int k;
void w0(); void w1(); void w2(); void w3(); void w4(); void w5();
void step() {
#pragma comm_parameters count(4)
  {
#pragma comm_p2p sbuf(a) rbuf(b) count(4) receiver(1) sendwhen(rank==0) sender(k) receivewhen(rank==1)
  { w0(); }
#pragma comm_p2p sbuf(a) rbuf(d) count(4) receiver(2) sendwhen(rank==0) sender(k) receivewhen(rank==2)
  { w1(); }
#pragma comm_p2p sbuf(a) rbuf(f) count(4) receiver(3) sendwhen(rank==0) sender(k) receivewhen(rank==3)
  { w2(); }
#pragma comm_p2p sbuf(c) rbuf(b) count(4) receiver(1) sendwhen(rank==2) sender(k) receivewhen(rank==1)
  { w3(); }
#pragma comm_p2p sbuf(c) rbuf(d) count(4) receiver(2) sendwhen(rank==3) sender(k) receivewhen(rank==2)
  { w4(); }
#pragma comm_p2p sbuf(e) rbuf(f) count(4) receiver(3) sendwhen(rank==1) sender(k) receivewhen(rank==3)
  { w5(); }
  }
}
)";

// Guard branching only (no simultaneous wildcard candidates): DPOR and
// naive must coincide exactly — the reduction only prunes commuting
// wildcard resolutions, never guard or value branches.
constexpr const char* kGuardedRing = R"(
int a[8]; int b[8];
int k;
void exchange();
void step() {
#pragma comm_p2p sbuf(a) rbuf(b) count(4) receiver((rank+1)%nprocs) sender((rank+nprocs-1)%nprocs) sendwhen(k>0) receivewhen(rank>=0)
  { exchange(); }
}
)";

struct Workload {
  const char* name;
  const char* source;
  int nprocs;
  bool reduction_expected;  ///< DPOR must beat naive here
};

struct Row {
  std::string name;
  std::string mode;  ///< "dpor" | "naive"
  int nprocs = 0;
  int executions = 0;
  long long decisions = 0;
  int max_depth = 0;
  double wall_seconds = 0.0;
  std::set<std::string> ids;
};

Row run_one(const Workload& workload, bool dpor) {
  cid::explore::Options options;
  options.nprocs = workload.nprocs;
  options.dpor = dpor;
  options.max_executions = 4096;
  const auto start = Clock::now();
  auto result = cid::explore::explore_source(workload.source, options);
  const std::chrono::duration<double> wall = Clock::now() - start;
  Row row;
  row.name = workload.name;
  row.mode = dpor ? "dpor" : "naive";
  row.nprocs = workload.nprocs;
  row.wall_seconds = wall.count();
  if (!result.is_ok()) {
    std::fprintf(stderr, "bench_explore: %s failed: %s\n", workload.name,
                 result.status().to_string().c_str());
    std::exit(1);
  }
  row.executions = result.value().executions;
  row.decisions = result.value().decisions;
  row.max_depth = result.value().max_depth;
  if (result.value().truncated) {
    std::fprintf(stderr, "bench_explore: %s [%s] truncated at %d executions\n",
                 workload.name, row.mode.c_str(), row.executions);
    std::exit(1);
  }
  for (const auto& d : result.value().report.diagnostics) row.ids.insert(d.id);
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: bench_explore [--quick] [--out FILE]\n");
      return 2;
    }
  }

  std::vector<Workload> workloads = {
      {"crossfire2", kCrossfire2, 3, true},
      {"crossfire3", kCrossfire3, 4, true},
      {"guarded-ring", kGuardedRing, 3, false},
  };
  if (!quick) {
    workloads.push_back({"crossfire2@4", kCrossfire2, 4, true});
    workloads.push_back({"guarded-ring@4", kGuardedRing, 4, false});
  }

  std::printf("%-16s %-6s %8s %12s %10s %8s %12s\n", "workload", "mode",
              "nprocs", "executions", "decisions", "depth", "wall(s)");
  std::vector<Row> rows;
  int failures = 0;
  for (const Workload& workload : workloads) {
    const Row dpor = run_one(workload, /*dpor=*/true);
    const Row naive = run_one(workload, /*dpor=*/false);
    for (const Row* row : {&dpor, &naive}) {
      std::printf("%-16s %-6s %8d %12d %10lld %8d %12.4f\n", row->name.c_str(),
                  row->mode.c_str(), row->nprocs, row->executions,
                  row->decisions, row->max_depth, row->wall_seconds);
      rows.push_back(*row);
    }
    if (dpor.ids != naive.ids) {
      std::fprintf(stderr,
                   "bench_explore: %s: DPOR and naive disagree on findings\n",
                   workload.name);
      ++failures;
    }
    if (workload.reduction_expected && dpor.executions >= naive.executions) {
      std::fprintf(stderr,
                   "bench_explore: %s: no reduction (dpor %d vs naive %d)\n",
                   workload.name, dpor.executions, naive.executions);
      ++failures;
    }
    if (!workload.reduction_expected && dpor.executions != naive.executions) {
      std::fprintf(stderr,
                   "bench_explore: %s: modes diverged where they must "
                   "coincide (dpor %d vs naive %d)\n",
                   workload.name, dpor.executions, naive.executions);
      ++failures;
    }
  }

  if (!out_path.empty()) {
    std::ofstream out(out_path);
    if (!out) {
      std::fprintf(stderr, "bench_explore: cannot write %s\n",
                   out_path.c_str());
      return 1;
    }
    out << "{\n  \"bench\": \"explore\",\n  \"kind\": \"schedule_counts\",\n"
        << "  \"quick\": " << (quick ? "true" : "false")
        << ",\n  \"workloads\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& row = rows[i];
      char line[256];
      std::snprintf(line, sizeof(line),
                    "    {\"name\": \"%s[%s]\", \"nprocs\": %d, "
                    "\"executions\": %d, \"decisions\": %lld, "
                    "\"max_depth\": %d, \"wall_seconds\": %.6f}%s\n",
                    row.name.c_str(), row.mode.c_str(), row.nprocs,
                    row.executions, row.decisions, row.max_depth,
                    row.wall_seconds, i + 1 < rows.size() ? "," : "");
      out << line;
    }
    out << "  ]\n}\n";
    std::printf("wrote %s\n", out_path.c_str());
  }

  if (failures > 0) {
    std::fprintf(stderr, "bench_explore: %d gate failure(s)\n", failures);
    return 1;
  }
  return 0;
}
