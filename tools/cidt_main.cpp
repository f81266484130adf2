// cidt — the communication-intent directive tool.
//
// One binary, one subcommand per intent layer; run `cidt` with no
// arguments for the generated table. Exit codes, shared by every
// subcommand:
//   0  success / no findings
//   1  findings: diagnostics reported, translation rejected, traces
//      differ, layers diverge
//   2  usage error (unknown option, missing operand)
//   3  I/O error (unreadable input, unwritable output)
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "analyze/analyze.hpp"
#include "explore/explore.hpp"
#include "explore/fuzz.hpp"
#include "net/backend.hpp"
#include "net/doctor.hpp"
#include "obs/trace_read.hpp"
#include "obs/trace_tool.hpp"
#include "simnet/machine_model.hpp"
#include "translate/translator.hpp"
#include "tune/profile.hpp"
#include "tune/tune.hpp"

namespace {

constexpr int kExitClean = 0;
constexpr int kExitFindings = 1;
constexpr int kExitUsage = 2;
constexpr int kExitIo = 3;

/// One row of the generated usage table. Keeping the catalog as data (and
/// rendering it in a loop) means a new subcommand is exactly one entry here
/// plus its dispatch line in main() — the table cannot drift from itself.
struct SubcommandHelp {
  const char* name;      ///< subcommand word; "" for the bare default
  const char* synopsis;  ///< operands and options, one line
  const char* summary;   ///< what it does, where it is documented
};

constexpr SubcommandHelp kSubcommands[] = {
    {"",
     "[-o out.cpp] [--check] [--target mpi2side|mpi1side|shmem]\n"
     "  [--no-annotate] [--summary] input.cpp",
     "translate directive pragmas to directive executor calls;\n"
     "--check validates the directives without writing output"},
    {"check", "[--json] [--sweep MIN..MAX] file.cpp...",
     "static analysis: match/race/sync/type diagnostics\n"
     "(docs/ANALYSIS.md); exits 1 when anything is reported"},
    {"run",
     "[--backend sim|thread|tcp] [--procs N] [--port-base P]\n"
     "  <program> [args...]",
     "exec <program> with CID_BACKEND set; --backend tcp forks\n"
     "--procs processes on loopback ports and wires the peer table"},
    {"trace", "summarize|diff [--semantic]|export <trace.json>...",
     "summarize, diff or export Chrome trace-event files written\n"
     "via CID_TRACE_OUT; diff --semantic ignores virtual time"},
    {"tune", "show|explain <profile.json> [site]",
     "inspect CID_TUNE_PROFILE files (docs/TUNING.md); explain\n"
     "replays every tuning decision with its reason"},
    {"net", "doctor",
     "transport preflight (docs/TRANSPORTS.md): CID_BACKEND, the\n"
     "frame codec and the tcp peer table; exits 1 on findings"},
    {"explore",
     "[--nprocs N] [--naive] [--max-executions N]\n"
     "  [--max-decisions N] [--schedule 1,0,...] [--json] file.cpp",
     "schedule-space model checking (docs/EXPLORE.md): enumerate\n"
     "message orderings, report deadlocks and wildcard races"},
    {"fuzz",
     "[--seeds N] [--seed-base S] [--nprocs N]\n"
     "  [--budget-seconds B] [--dump-dir DIR]",
     "cross-layer directive fuzzer (docs/EXPLORE.md): seeded\n"
     "programs through translate/analyze/explore, exits 1 on\n"
     "divergence"},
};

/// Render one two-column cell pair where either side may span multiple
/// lines; continuation lines indent into their own column.
void print_usage_row(const std::string& left, const char* right) {
  constexpr int kLeftWidth = 26;
  std::istringstream lhs(left);
  std::istringstream rhs(right);
  std::string l;
  std::string r;
  bool more_l = static_cast<bool>(std::getline(lhs, l));
  bool more_r = static_cast<bool>(std::getline(rhs, r));
  while (more_l || more_r) {
    std::fprintf(stderr, "  %-*s %s\n", kLeftWidth, more_l ? l.c_str() : "",
                 more_r ? r.c_str() : "");
    more_l = more_l && static_cast<bool>(std::getline(lhs, l));
    more_r = more_r && static_cast<bool>(std::getline(rhs, r));
  }
}

int usage(const char* argv0) {
  std::fprintf(stderr, "usage: %s [<subcommand>] [options] ...\n\n", argv0);
  for (const SubcommandHelp& row : kSubcommands) {
    const std::string name = row.name[0] == '\0' ? "(default)" : row.name;
    print_usage_row(name, row.summary);
  }
  std::fprintf(stderr, "\nsynopses:\n");
  for (const SubcommandHelp& row : kSubcommands) {
    std::string head = std::string(argv0);
    if (row.name[0] != '\0') head += std::string(" ") + row.name;
    std::istringstream lines(row.synopsis);
    std::string line;
    bool first = true;
    while (std::getline(lines, line)) {
      if (first) {
        std::fprintf(stderr, "  %s %s\n", head.c_str(), line.c_str());
      } else {
        std::fprintf(stderr, "  %*s %s\n",
                     static_cast<int>(head.size()), "", line.c_str());
      }
      first = false;
    }
  }
  return kExitUsage;
}

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  out = buffer.str();
  return true;
}

/// `cidt check`: run the analyzer over each file, render human or JSON
/// output, exit nonzero when anything was found.
int check_main(int argc, char** argv) {
  bool json = false;
  cid::analyze::Options options;
  std::vector<std::string> paths;

  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg == "--sweep" && i + 1 < argc) {
      const std::string range = argv[++i];
      const std::size_t dots = range.find("..");
      int low = 0;
      int high = 0;
      if (dots == std::string::npos ||
          std::sscanf(range.c_str(), "%d..%d", &low, &high) != 2 ||
          low < 1 || high < low) {
        std::fprintf(stderr, "cidt: bad --sweep range '%s' (want MIN..MAX)\n",
                     range.c_str());
        return usage(argv[0]);
      }
      options.nprocs_min = low;
      options.nprocs_max = high;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "cidt: unknown option '%s'\n", arg.c_str());
      return usage(argv[0]);
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.empty()) {
    std::fprintf(stderr, "cidt: check needs at least one input file\n");
    return usage(argv[0]);
  }

  std::vector<cid::analyze::FileReport> files;
  for (const std::string& path : paths) {
    std::string source;
    if (!read_file(path, source)) {
      std::fprintf(stderr, "cidt: cannot read '%s'\n", path.c_str());
      return kExitIo;
    }
    files.push_back({path, cid::analyze::analyze_source(source, options)});
  }

  int errors = 0;
  int warnings = 0;
  int directives = 0;
  for (const auto& file : files) {
    errors += file.report.errors();
    warnings += file.report.warnings();
    directives += file.report.directives_checked;
  }

  if (json) {
    std::fputs(cid::analyze::to_json(files).c_str(), stdout);
    std::fputc('\n', stdout);
  } else {
    for (const auto& file : files) cid::analyze::print_human(file, std::cout);
    std::fprintf(stderr,
                 "cidt check: %zu file(s), %d directive(s), %d error(s), "
                 "%d warning(s)\n",
                 files.size(), directives, errors, warnings);
  }
  return (errors + warnings) == 0 ? kExitClean : kExitFindings;
}

int trace_main(int argc, char** argv) {
  if (argc < 3) return usage(argv[0]);
  const std::string verb = argv[2];

  auto load = [&](const char* path) {
    auto result = cid::obs::read_trace_file(path);
    if (!result.is_ok()) {
      std::fprintf(stderr, "cidt: %s: %s\n", path,
                   result.status().to_string().c_str());
    }
    return result;
  };

  if (verb == "summarize") {
    if (argc != 4) return usage(argv[0]);
    auto trace = load(argv[3]);
    if (!trace.is_ok()) return kExitIo;
    cid::obs::summarize_trace(trace.value(), std::cout);
    return kExitClean;
  }
  if (verb == "diff") {
    bool semantic = false;
    int first = 3;
    if (argc > 3 && std::string(argv[3]) == "--semantic") {
      semantic = true;
      first = 4;
    }
    if (argc != first + 2) return usage(argv[0]);
    auto lhs = load(argv[first]);
    auto rhs = load(argv[first + 1]);
    if (!lhs.is_ok() || !rhs.is_ok()) return kExitIo;
    const bool identical =
        cid::obs::diff_traces(lhs.value(), rhs.value(), std::cout, semantic);
    return identical ? kExitClean : kExitFindings;
  }
  if (verb == "export") {
    if (argc != 4 && !(argc == 6 && std::string(argv[4]) == "-o")) {
      return usage(argv[0]);
    }
    auto trace = load(argv[3]);
    if (!trace.is_ok()) return kExitIo;
    if (argc == 6) {
      std::ofstream out(argv[5]);
      if (!out) {
        std::fprintf(stderr, "cidt: cannot write '%s'\n", argv[5]);
        return kExitIo;
      }
      cid::obs::export_csv(trace.value(), out);
    } else {
      cid::obs::export_csv(trace.value(), std::cout);
    }
    return kExitClean;
  }
  std::fprintf(stderr, "cidt: unknown trace verb '%s'\n", verb.c_str());
  return usage(argv[0]);
}

/// Load and parse a CID_TUNE profile file; on failure prints a diagnostic
/// and returns an error result.
cid::Result<cid::tune::Profile> load_profile(const char* path) {
  std::string text;
  if (!read_file(path, text)) {
    std::fprintf(stderr, "cidt: cannot read '%s'\n", path);
    return cid::Status(cid::ErrorCode::IoError, "unreadable profile");
  }
  auto profile = cid::tune::Profile::parse(text);
  if (!profile.is_ok()) {
    std::fprintf(stderr, "cidt: %s: %s\n", path,
                 profile.status().to_string().c_str());
  }
  return profile;
}

/// `cidt tune`: inspect profiles written by CID_TUNE=record runs.
///   show     the raw per-site observations, one block per site
///   explain  replay every decision the tuner would make from this profile
///            against the reference machine model, with reasons
int tune_main(int argc, char** argv) {
  if (argc < 4) return usage(argv[0]);
  const std::string verb = argv[2];

  if (verb == "show") {
    if (argc != 4) return usage(argv[0]);
    auto profile = load_profile(argv[3]);
    if (!profile.is_ok()) return kExitIo;
    std::printf("profile: %zu site(s)\n", profile.value().sites.size());
    for (const auto& [site, p] : profile.value().sites) {
      std::printf("\n%s\n", site.c_str());
      std::printf("  messages      %llu (%llu bytes; min %.0f mean %.1f "
                  "max %.0f)\n",
                  static_cast<unsigned long long>(p.messages),
                  static_cast<unsigned long long>(p.bytes), p.min_bytes,
                  p.mean_bytes, p.max_bytes);
      std::printf("  symmetric_ok  %s\n", p.symmetric_ok ? "yes" : "no");
      if (p.plan_ns_per_byte > 0.0 || p.flat_ns_per_byte > 0.0) {
        std::printf("  copy rates    plan %.3f ns/B, flat %.3f ns/B\n",
                    p.plan_ns_per_byte, p.flat_ns_per_byte);
      }
      if (p.rtt_p99 > 0.0) {
        std::printf("  ack rtt       p50 %.3g s, p99 %.3g s\n", p.rtt_p50,
                    p.rtt_p99);
      }
      if (p.wall_rtt_p99 > 0.0) {
        std::printf("  wall rtt p99  %.3g s\n", p.wall_rtt_p99);
      }
      if (p.min_timeout > 0.0) {
        std::printf("  min timeout   %.3g s\n", p.min_timeout);
      }
      if (p.coll_calls > 0) {
        std::printf("  collectives   %llu call(s); block mean %.1f B max "
                    "%.0f B; group mean %.1f\n",
                    static_cast<unsigned long long>(p.coll_calls),
                    p.coll_mean_bytes, p.coll_max_bytes, p.coll_group);
        std::printf("  patterns      o2m %llu, m2o %llu, a2a %llu\n",
                    static_cast<unsigned long long>(p.coll_o2m),
                    static_cast<unsigned long long>(p.coll_m2o),
                    static_cast<unsigned long long>(p.coll_a2a));
      }
    }
    return kExitClean;
  }

  if (verb == "explain") {
    if (argc != 4 && argc != 5) return usage(argv[0]);
    auto profile = load_profile(argv[3]);
    if (!profile.is_ok()) return kExitIo;
    const auto model = cid::simnet::MachineModel::cray_xk7_gemini();
    const std::size_t agg_threshold = cid::tune::aggregation_threshold(model);
    const std::string only = argc == 5 ? argv[4] : "";

    std::size_t shown = 0;
    for (const auto& [site, p] : profile.value().sites) {
      if (!only.empty() && site != only) continue;
      ++shown;
      std::printf("%s\n", site.c_str());

      // target(auto): the site had a reliability clause iff it recorded a
      // timeout. Explain assumes a single-process run (the in-process sim
      // reference); profiles cannot record the transport, and symmetric_ok
      // already gates the shmem pick on its own.
      cid::tune::SiteFacts facts;
      facts.reliability = p.min_timeout > 0.0;
      facts.single_process = true;
      const auto choice = cid::tune::auto_target(&p, model, facts);
      std::printf("  target(auto)  -> %s\n                   %s\n",
                  std::string(cid::tune::lowering_name(choice.lowering))
                      .c_str(),
                  choice.reason.c_str());

      const bool agg = cid::tune::should_aggregate(
          &p, static_cast<std::size_t>(p.mean_bytes), model);
      std::printf("  aggregation   -> %s (mean %.1f B vs threshold %zu B)\n",
                  agg ? "batch per destination" : "send individually",
                  p.mean_bytes, agg_threshold);

      if (p.plan_ns_per_byte > 0.0 && p.flat_ns_per_byte > 0.0) {
        // use_flat_copy() depends on the layout's payload/extent ratio;
        // report the measured crossover density instead of one verdict.
        std::printf("  pack copy     -> flat wins below density %.2fx "
                    "(plan %.3f / flat %.3f ns/B), capped at 2x\n",
                    p.plan_ns_per_byte / p.flat_ns_per_byte,
                    p.plan_ns_per_byte, p.flat_ns_per_byte);
      } else {
        std::printf("  pack copy     -> compiled pack plan (no calibration "
                    "recorded)\n");
      }

      if (p.min_timeout > 0.0) {
        const double tuned =
            cid::tune::tuned_timeout(&p, p.min_timeout);
        std::printf("  reliability   -> timeout %.3g s (clause %.3g s, "
                    "4 x rtt p99 = %.3g s)\n",
                    tuned, p.min_timeout, 4.0 * p.rtt_p99);
      }

      if (p.coll_calls > 0) {
        // Replay the collective algorithm chooser per recorded pattern,
        // exactly as the CID_TUNE=on steering hint would compute it.
        const int group = std::max(
            1, static_cast<int>(p.coll_group + 0.5));
        const auto block = static_cast<std::size_t>(p.coll_mean_bytes + 0.5);
        const struct {
          const char* label;
          std::uint64_t calls;
          cid::tune::CollOp op;
        } rows[] = {
            {"ONE_TO_MANY", p.coll_o2m, cid::tune::CollOp::Bcast},
            {"MANY_TO_ONE", p.coll_m2o, cid::tune::CollOp::Gather},
            {"ALL_TO_ALL", p.coll_a2a, cid::tune::CollOp::Alltoall},
        };
        for (const auto& row : rows) {
          if (row.calls == 0) continue;
          const cid::tune::CollShape shape{
              block,
              row.op == cid::tune::CollOp::Bcast
                  ? block
                  : block * static_cast<std::size_t>(group),
              group};
          const auto cc =
              cid::tune::choose_collective(row.op, shape, model, &p);
          std::printf("  %-14s-> %s[%s] (mean block %.1f B, group %d)\n"
                      "                   %s\n",
                      row.label,
                      std::string(cid::tune::coll_op_name(row.op)).c_str(),
                      std::string(cid::tune::coll_algo_name(cc.algo)).c_str(),
                      p.coll_mean_bytes, group, cc.reason);
        }
      }
    }
    if (!only.empty() && shown == 0) {
      std::fprintf(stderr, "cidt: site '%s' not in profile\n", argv[4]);
      return kExitFindings;
    }
    return kExitClean;
  }

  std::fprintf(stderr, "cidt: unknown tune verb '%s'\n", verb.c_str());
  return usage(argv[0]);
}

/// `cidt net doctor`: transport configuration preflight.
int net_main(int argc, char** argv) {
  if (argc < 3 || std::string(argv[2]) != "doctor") {
    if (argc >= 3) {
      std::fprintf(stderr, "cidt: unknown net verb '%s'\n", argv[2]);
    }
    return usage(argv[0]);
  }
  const int findings = cid::net::run_net_doctor(std::cout);
  if (findings > 0) {
    std::fprintf(stderr, "cidt net doctor: %d finding(s)\n", findings);
    return kExitFindings;
  }
  return kExitClean;
}

/// `cidt run`: launch a program under a chosen transport backend. sim and
/// thread exec in place; tcp forks one process per peer on loopback ports
/// and propagates the first nonzero child exit status.
int run_main(int argc, char** argv) {
  std::string backend_name = "sim";
  int procs = 2;
  bool procs_given = false;
  int port_base = 0;
  int program_index = -1;

  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--backend" && i + 1 < argc) {
      backend_name = argv[++i];
    } else if (arg.rfind("--backend=", 0) == 0) {
      backend_name = arg.substr(10);
    } else if (arg == "--procs" && i + 1 < argc) {
      procs = std::atoi(argv[++i]);
      procs_given = true;
    } else if (arg.rfind("--procs=", 0) == 0) {
      procs = std::atoi(arg.c_str() + 8);
      procs_given = true;
    } else if (arg == "--port-base" && i + 1 < argc) {
      port_base = std::atoi(argv[++i]);
    } else if (arg.rfind("--port-base=", 0) == 0) {
      port_base = std::atoi(arg.c_str() + 12);
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "cidt: unknown option '%s'\n", arg.c_str());
      return usage(argv[0]);
    } else {
      program_index = i;
      break;
    }
  }
  if (program_index < 0) {
    std::fprintf(stderr, "cidt: run needs a program to launch\n");
    return usage(argv[0]);
  }
  const auto backend = cid::net::parse_backend(backend_name);
  if (!backend.has_value()) {
    std::fprintf(stderr, "cidt: unknown backend '%s'\n",
                 backend_name.c_str());
    return usage(argv[0]);
  }
  std::vector<char*> child_argv(argv + program_index, argv + argc);
  child_argv.push_back(nullptr);

  if (*backend != cid::net::Backend::Tcp) {
    if (procs_given) {
      std::fprintf(stderr,
                   "cidt: --procs only applies to --backend tcp (%s runs "
                   "every rank in one process)\n",
                   backend_name.c_str());
      return usage(argv[0]);
    }
    ::setenv("CID_BACKEND", backend_name.c_str(), 1);
    ::execvp(child_argv[0], child_argv.data());
    std::fprintf(stderr, "cidt: cannot exec '%s'\n", child_argv[0]);
    return kExitIo;
  }

  if (procs < 1 || procs > 64) {
    std::fprintf(stderr, "cidt: --procs must be in [1, 64]\n");
    return usage(argv[0]);
  }
  if (port_base == 0) {
    // Spread concurrent launches (e.g. parallel CI shards) over the
    // ephemeral range so two runs rarely contend for the same ports.
    port_base = 20000 + static_cast<int>(::getpid() % 20000);
  }
  if (port_base < 1024 || port_base + procs > 65536) {
    std::fprintf(stderr, "cidt: --port-base out of range\n");
    return usage(argv[0]);
  }
  std::string peers;
  for (int p = 0; p < procs; ++p) {
    if (p > 0) peers += ',';
    peers += "127.0.0.1:" + std::to_string(port_base + p);
  }

  std::vector<pid_t> children;
  for (int p = 0; p < procs; ++p) {
    const pid_t pid = ::fork();
    if (pid < 0) {
      std::fprintf(stderr, "cidt: fork failed\n");
      for (pid_t child : children) ::kill(child, SIGTERM);
      return kExitIo;
    }
    if (pid == 0) {
      ::setenv("CID_BACKEND", "tcp", 1);
      ::setenv("CID_NET_PEERS", peers.c_str(), 1);
      ::setenv("CID_NET_PROC", std::to_string(p).c_str(), 1);
      ::execvp(child_argv[0], child_argv.data());
      std::fprintf(stderr, "cidt: cannot exec '%s'\n", child_argv[0]);
      std::_Exit(kExitIo);
    }
    children.push_back(pid);
  }
  int worst = kExitClean;
  for (pid_t child : children) {
    int status = 0;
    ::waitpid(child, &status, 0);
    const int code = WIFEXITED(status) ? WEXITSTATUS(status)
                                       : 128 + WTERMSIG(status);
    if (worst == kExitClean && code != 0) worst = code;
  }
  return worst;
}

/// `cidt explore`: enumerate the schedule space of one directive program
/// and render the findings in the analyzer's diagnostic format.
int explore_main(int argc, char** argv) {
  bool json = false;
  cid::explore::Options options;
  std::string path;

  auto int_arg = [&](int& i, int& slot) {
    slot = std::atoi(argv[++i]);
    return slot >= 1;
  };
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg == "--naive") {
      options.dpor = false;
    } else if (arg == "--nprocs" && i + 1 < argc) {
      if (!int_arg(i, options.nprocs)) {
        std::fprintf(stderr, "cidt: --nprocs must be >= 1\n");
        return usage(argv[0]);
      }
    } else if (arg == "--max-executions" && i + 1 < argc) {
      if (!int_arg(i, options.max_executions)) {
        std::fprintf(stderr, "cidt: --max-executions must be >= 1\n");
        return usage(argv[0]);
      }
    } else if (arg == "--max-decisions" && i + 1 < argc) {
      if (!int_arg(i, options.max_decisions)) {
        std::fprintf(stderr, "cidt: --max-decisions must be >= 1\n");
        return usage(argv[0]);
      }
    } else if (arg == "--schedule" && i + 1 < argc) {
      auto schedule = cid::explore::parse_schedule(argv[++i]);
      if (!schedule.is_ok()) {
        std::fprintf(stderr, "cidt: %s\n",
                     schedule.status().to_string().c_str());
        return usage(argv[0]);
      }
      options.schedule = schedule.value();
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "cidt: unknown option '%s'\n", arg.c_str());
      return usage(argv[0]);
    } else if (path.empty()) {
      path = arg;
    } else {
      std::fprintf(stderr, "cidt: explore takes exactly one input file\n");
      return usage(argv[0]);
    }
  }
  if (path.empty()) {
    std::fprintf(stderr, "cidt: explore needs an input file\n");
    return usage(argv[0]);
  }

  std::string source;
  if (!read_file(path, source)) {
    std::fprintf(stderr, "cidt: cannot read '%s'\n", path.c_str());
    return kExitIo;
  }
  auto explored = cid::explore::explore_source(source, options);
  if (!explored.is_ok()) {
    std::fprintf(stderr, "cidt: %s\n",
                 explored.status().to_string().c_str());
    return kExitFindings;
  }
  const cid::explore::ExploreResult& result = explored.value();

  if (json) {
    std::fputs(cid::explore::to_json(path, result).c_str(), stdout);
    std::fputc('\n', stdout);
  } else {
    for (const auto& d : result.report.diagnostics) {
      std::printf("%s:%d:%d: %s: [%s] %s\n", path.c_str(), d.line, d.column,
                  std::string(cid::analyze::severity_name(d.severity)).c_str(),
                  d.id.c_str(), d.message.c_str());
      if (!d.hint.empty()) std::printf("  hint: %s\n", d.hint.c_str());
    }
    for (const std::string& note : result.notes) {
      std::printf("%s: note: %s\n", path.c_str(), note.c_str());
    }
    std::fprintf(stderr,
                 "cidt explore: nprocs %d, %d execution(s) (%s), %lld "
                 "decision(s), depth %d, %d error(s), %d warning(s)%s\n",
                 result.nprocs, result.executions,
                 result.dpor ? "dpor" : "naive", result.decisions,
                 result.max_depth, result.report.errors(),
                 result.report.warnings(),
                 result.truncated ? "; TRUNCATED (raise --max-executions)"
                                  : "");
  }
  const int findings = result.report.errors() + result.report.warnings();
  return findings == 0 ? kExitClean : kExitFindings;
}

/// `cidt fuzz`: seeded cross-layer differential fuzzing. Exits 1 when any
/// seed diverges; divergent programs are printed (and optionally dumped to
/// --dump-dir as seed-<n>.cpp) so the failure is reproducible offline.
int fuzz_main(int argc, char** argv) {
  int seeds = 100;
  std::uint64_t seed_base = 1;
  double budget_seconds = 0.0;  // 0 = no wall-clock budget
  std::string dump_dir;
  cid::explore::FuzzOptions options;

  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--seeds" && i + 1 < argc) {
      seeds = std::atoi(argv[++i]);
      if (seeds < 1) {
        std::fprintf(stderr, "cidt: --seeds must be >= 1\n");
        return usage(argv[0]);
      }
    } else if (arg == "--seed-base" && i + 1 < argc) {
      seed_base = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--nprocs" && i + 1 < argc) {
      options.nprocs = std::atoi(argv[++i]);
      if (options.nprocs < 1) {
        std::fprintf(stderr, "cidt: --nprocs must be >= 1\n");
        return usage(argv[0]);
      }
    } else if (arg == "--budget-seconds" && i + 1 < argc) {
      budget_seconds = std::atof(argv[++i]);
      if (budget_seconds <= 0.0) {
        std::fprintf(stderr, "cidt: --budget-seconds must be > 0\n");
        return usage(argv[0]);
      }
    } else if (arg == "--dump-dir" && i + 1 < argc) {
      dump_dir = argv[++i];
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "cidt: unknown option '%s'\n", arg.c_str());
      return usage(argv[0]);
    } else {
      std::fprintf(stderr, "cidt: fuzz takes no operands\n");
      return usage(argv[0]);
    }
  }

  const auto start = std::chrono::steady_clock::now();
  int ran = 0;
  int divergences = 0;
  int deadlocks = 0;
  int truncated = 0;
  for (int i = 0; i < seeds; ++i) {
    if (budget_seconds > 0.0) {
      const std::chrono::duration<double> elapsed =
          std::chrono::steady_clock::now() - start;
      if (elapsed.count() > budget_seconds) {
        std::fprintf(stderr,
                     "cidt fuzz: wall-clock budget (%.0fs) reached after "
                     "%d seed(s)\n",
                     budget_seconds, ran);
        break;
      }
    }
    const std::uint64_t seed = seed_base + static_cast<std::uint64_t>(i);
    const cid::explore::FuzzOutcome outcome =
        cid::explore::fuzz_one(seed, options);
    ++ran;
    if (outcome.explore_deadlock) ++deadlocks;
    if (outcome.explore_truncated) ++truncated;
    if (!outcome.divergence) continue;
    ++divergences;
    std::fprintf(stderr, "cidt fuzz: seed %llu DIVERGED: %s\n",
                 static_cast<unsigned long long>(seed),
                 outcome.detail.c_str());
    std::fprintf(stderr, "---- program (seed %llu) ----\n%s----\n",
                 static_cast<unsigned long long>(seed),
                 outcome.program.c_str());
    if (!dump_dir.empty()) {
      const std::string out_path =
          dump_dir + "/seed-" + std::to_string(seed) + ".cpp";
      std::ofstream out(out_path);
      if (out) {
        out << outcome.program;
        std::fprintf(stderr, "cidt fuzz: program written to %s\n",
                     out_path.c_str());
      } else {
        std::fprintf(stderr, "cidt fuzz: cannot write %s\n",
                     out_path.c_str());
      }
    }
  }
  std::fprintf(stderr,
               "cidt fuzz: %d seed(s) run, %d divergence(s); %d with "
               "explored deadlocks, %d truncated\n",
               ran, divergences, deadlocks, truncated);
  return divergences == 0 ? kExitClean : kExitFindings;
}

int translate_main(int argc, char** argv) {
  std::string input_path;
  std::string output_path;
  bool print_summary = false;
  bool check_only = false;
  cid::translate::Options options;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "-o" && i + 1 < argc) {
      output_path = argv[++i];
    } else if (arg == "--target" && i + 1 < argc) {
      const std::string name = argv[++i];
      if (name == "mpi2side") {
        options.default_target = cid::core::Target::Mpi2Side;
      } else if (name == "mpi1side") {
        options.default_target = cid::core::Target::Mpi1Side;
      } else if (name == "shmem") {
        options.default_target = cid::core::Target::Shmem;
      } else {
        std::fprintf(stderr, "cidt: unknown target '%s'\n", name.c_str());
        return usage(argv[0]);
      }
    } else if (arg == "--no-annotate") {
      options.annotate = false;
    } else if (arg == "--summary") {
      print_summary = true;
    } else if (arg == "--check") {
      check_only = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "cidt: unknown option '%s'\n", arg.c_str());
      return usage(argv[0]);
    } else if (input_path.empty()) {
      input_path = arg;
    } else {
      return usage(argv[0]);
    }
  }
  if (input_path.empty()) return usage(argv[0]);

  std::string source;
  if (!read_file(input_path, source)) {
    std::fprintf(stderr, "cidt: cannot read '%s'\n", input_path.c_str());
    return kExitIo;
  }

  auto result = cid::translate::translate_source(source, options);
  if (!result.is_ok()) {
    std::fprintf(stderr, "cidt: %s\n", result.status().to_string().c_str());
    return kExitFindings;
  }

  if (check_only) {
    const auto& summary = result.value().summary;
    std::fprintf(stderr,
                 "cidt: OK — %d comm_p2p directive(s), %d comm_collective "
                 "directive(s), %d comm_parameters region(s), %d reliable\n",
                 summary.p2p_directives, summary.collective_directives,
                 summary.parameter_regions,
                 summary.reliable_regions);
    return kExitClean;
  }

  if (output_path.empty()) {
    std::fputs(result.value().source.c_str(), stdout);
  } else {
    std::ofstream out(output_path);
    if (!out) {
      std::fprintf(stderr, "cidt: cannot write '%s'\n", output_path.c_str());
      return kExitIo;
    }
    out << result.value().source;
  }

  if (print_summary) {
    const auto& summary = result.value().summary;
    std::fprintf(stderr,
                 "cidt: %d comm_p2p directive(s), %d comm_collective "
                 "directive(s), %d comm_parameters region(s) (%d reliable)\n",
                 summary.p2p_directives, summary.collective_directives,
                 summary.parameter_regions, summary.reliable_regions);
  }
  return kExitClean;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::string(argv[1]) == "trace") {
    return trace_main(argc, argv);
  }
  if (argc >= 2 && std::string(argv[1]) == "check") {
    return check_main(argc, argv);
  }
  if (argc >= 2 && std::string(argv[1]) == "tune") {
    return tune_main(argc, argv);
  }
  if (argc >= 2 && std::string(argv[1]) == "net") {
    return net_main(argc, argv);
  }
  if (argc >= 2 && std::string(argv[1]) == "run") {
    return run_main(argc, argv);
  }
  if (argc >= 2 && std::string(argv[1]) == "explore") {
    return explore_main(argc, argv);
  }
  if (argc >= 2 && std::string(argv[1]) == "fuzz") {
    return fuzz_main(argc, argv);
  }
  return translate_main(argc, argv);
}
