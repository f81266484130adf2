// perfbench: runs one workload of the repository benchmark for a fixed time
// and prints one JSON object with every repetition's timings, the exact
// counts, the checks and the per-layer readings. perfbench/run.py builds
// this program, pins its environment and turns the output into metrics.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out FILE] [--spans FILE]
//
// --trace 1 spends the first half of the time untraced and the second half
// with the benchmark's spans on, so the span cost shows as an overhead
// ratio instead of leaking into the end-to-end numbers.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "obs/obs.hpp"
#include "probe.hpp"
#include "rt/arena.hpp"

namespace {

using namespace perfbench;

/// Repetitions every untraced run measures, whatever --seconds allows: the
/// step-time tail is taken at a percentile this many repetitions always
/// support. A traced run reports no step times and measures at least
/// kMinTracedReps in each of its halves.
constexpr int kMinReps = 10;
constexpr int kMinTracedReps = 3;
/// Share of --seconds spent warming up before the measured repetitions.
constexpr double kWarmupShare = 0.1;

struct Rep {
  bool traced = false;
  RepResult result;
};

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out + "\"";
}

std::string json_map(const std::map<std::string, double>& values) {
  std::string out = "{";
  for (const auto& [key, value] : values) {
    if (out.size() > 1) out += ", ";
    out += json_string(key) + ": " + exact_str(value);
  }
  return out + "}";
}

/// Run one repetition, adding the arena's activity during it.
Rep run_rep(Workload& workload, Tracer& tracer, std::uint32_t index,
            Checks& checks) {
  Rep rep;
  rep.traced = tracer.enabled();
  tracer.begin_rep(workload.nranks(), index);
  const cid::rt::ArenaStats before = cid::rt::PayloadArena::global().stats();
  rep.result = workload.rep(tracer, index, checks);
  const cid::rt::ArenaStats after = cid::rt::PayloadArena::global().stats();
  rep.result.layer["rt.arena.reuse_ratio"] =
      ratio(static_cast<double>(after.reuses - before.reuses),
            static_cast<double>(after.acquires - before.acquires));
  rep.result.layer["rt.arena.node_reuse_ratio"] =
      ratio(static_cast<double>(after.node_reuses - before.node_reuses),
            static_cast<double>(after.node_acquires - before.node_acquires));
  rep.result.layer["rt.arena.retained_bytes"] =
      static_cast<double>(after.retained_bytes);
  return rep;
}

/// Median over repetitions of one layer reading.
double layer_median(const std::vector<Rep>& reps, bool traced,
                    const std::string& key) {
  std::vector<double> values;
  for (const Rep& rep : reps) {
    if (rep.traced != traced) continue;
    auto it = rep.result.layer.find(key);
    if (it != rep.result.layer.end()) values.push_back(it->second);
  }
  return median(values);
}

double spawn_seconds(int nranks) {
  // With recording on, every rt::run rewrites the export of everything
  // recorded so far; start from an empty recorder so only the run's own
  // cost is measured.
  cid::obs::clear();
  std::vector<double> samples;
  for (int i = 0; i < 5; ++i) {
    const std::int64_t start = now_ns();
    cid::rt::run(nranks, cid::simnet::MachineModel::cray_xk7_gemini(),
                 [](cid::rt::RankCtx&) {});
    samples.push_back(static_cast<double>(now_ns() - start) * 1e-9);
  }
  return median(samples);
}

int usage(const char* message) {
  std::fprintf(stderr, "perfbench: %s\n", message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  std::string spans_path;
  Options options;
  double seconds = 0.0;
  bool trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      trace = value == "1";
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else if (flag == "--spans") {
      spans_path = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (seconds <= 0.0) return usage("--seconds must be positive");

  std::unique_ptr<Workload> workload;
  if (workload_name == "halo3d_directive") {
    workload = make_halo3d(options, false);
  } else if (workload_name == "halo3d_recorded") {
    if (options.trace_out.empty()) return usage("halo3d_recorded needs --trace-out");
    workload = make_halo3d(options, true);
  } else if (workload_name == "shuffle_wildcard") {
    workload = make_shuffle(options);
  } else if (workload_name == "wllsms_paper") {
    workload = make_wllsms(options);
  } else {
    return usage(("unknown workload '" + workload_name + "'").c_str());
  }

  Tracer tracer;
  Checks checks;
  std::vector<Rep> reps;
  std::uint32_t index = 0;
  // Warm-up: lazy set-up (arena bins, allocator thresholds) is paid here;
  // its checks count, its timings do not.
  std::int64_t start = now_ns();
  const auto elapsed = [&] {
    return static_cast<double>(now_ns() - start) * 1e-9;
  };
  const Rep warmup = run_rep(*workload, tracer, index++, checks);
  while (elapsed() < kWarmupShare * seconds) {
    run_rep(*workload, tracer, index++, checks);
  }

  start = now_ns();
  const double untraced_seconds = trace ? seconds / 2 : seconds;
  const int min_reps = trace ? kMinTracedReps : kMinReps;
  int count = 0;
  while (count < min_reps || elapsed() < untraced_seconds) {
    reps.push_back(run_rep(*workload, tracer, index++, checks));
    ++count;
  }
  if (trace) {
    tracer.set_enabled(true);
    count = 0;
    while (count < min_reps || elapsed() < seconds) {
      reps.push_back(run_rep(*workload, tracer, index++, checks));
      ++count;
    }
  }

  std::map<std::string, double> layer;
  workload->finish(tracer, checks, layer);
  tracer.set_enabled(false);

  // Exact counts must repeat in every repetition of the same kind.
  const auto first_traced = std::find_if(
      reps.begin(), reps.end(), [](const Rep& r) { return r.traced; });
  for (const Rep& rep : reps) {
    const Rep& base = rep.traced ? *first_traced : warmup;
    checks.expect(rep.result.exact == base.result.exact,
                  "exact counts changed between repetitions");
  }

  const auto& exact = warmup.result.exact;
  auto exact_or_zero = [&](const std::string& key) {
    auto it = exact.find(key);
    return it == exact.end() ? 0.0 : it->second;
  };
  std::vector<double> walls;
  for (const Rep& rep : reps) {
    if (!rep.traced) walls.push_back(rep.result.wall_s);
  }
  const double wall = median(walls);

  if (trace) {
    const auto totals = tracer.totals();
    auto per_call_ns = [&](std::initializer_list<Call> calls) {
      std::uint64_t n = 0;
      std::int64_t ns = 0;
      for (Call c : calls) {
        n += totals[static_cast<int>(c)].calls;
        ns += totals[static_cast<int>(c)].inclusive_ns;
      }
      return ratio(static_cast<double>(ns), static_cast<double>(n));
    };
    std::vector<double> traced_walls;
    for (const Rep& rep : reps) {
      if (rep.traced) traced_walls.push_back(rep.result.wall_s);
    }
    // Per repetition, summed over every rank's track.
    const double per_rep_ms = 1e-6 / static_cast<double>(traced_walls.size());
    for (int c = 0; c < kCallCount; ++c) {
      const std::string name = layer_of(static_cast<Call>(c));
      layer[name + ".self_ms"] +=
          static_cast<double>(totals[c].self_ns) * per_rep_ms;
      layer[name + ".busy_ms"] +=
          static_cast<double>(totals[c].busy_ns) * per_rep_ms;
    }
    layer["rt.switch_ms"] = static_cast<double>(tracer.switch_ns()) * per_rep_ms;

    const double hits = exact_or_zero("core.datatype_hits");
    layer["core.datatype_hit_ratio"] =
        ratio(hits, hits + exact_or_zero("core.datatypes_created"));
    layer["core.directive_ns"] = per_call_ns({Call::kCommP2p});
    layer["core.collective_ns"] = per_call_ns({Call::kCommCollective});
    layer["core.directives_per_s"] =
        ratio(exact_or_zero("core.directives"), wall);
    layer["core.host_ratio_vs_original"] =
        layer_median(reps, false, "core.host_ratio_vs_original");
    layer["mpi.post_ns"] = per_call_ns({Call::kMpiIsend, Call::kMpiIrecv});
    layer["mpi.wait_ns"] = per_call_ns({Call::kMpiWaitall});
    layer["shmem.malloc_ns"] = per_call_ns({Call::kShmemMalloc});
    layer["rt.spawn_s"] = spawn_seconds(workload->nranks());
    layer["rt.barrier_ns"] = per_call_ns({Call::kRtBarrier});
    for (const char* key : {"rt.sched.switches", "rt.sched.parks",
                            "rt.arena.reuse_ratio", "rt.arena.node_reuse_ratio",
                            "rt.arena.retained_bytes"}) {
      layer[key] = layer_median(reps, false, key);
    }
    layer["rt.sched.parks_per_envelope"] =
        ratio(layer["rt.sched.parks"], exact_or_zero("wire_messages"));
    layer["wllsms.driver_ms"] = per_call_ns({Call::kWllsmsDriver}) * 1e-6;
    layer["obs.export_ms"] = per_call_ns({Call::kObsExport}) * 1e-6;
    layer["obs.trace_bytes"] = layer_median(reps, true, "obs.trace_bytes");
    const auto spans = first_traced->result.exact.find("obs.spans");
    if (spans != first_traced->result.exact.end()) {
      layer["obs.spans"] = spans->second;
    }
    layer["trace.overhead_ratio"] = ratio(median(traced_walls), wall);
    if (!spans_path.empty() && !tracer.write_spans(spans_path)) {
      checks.expect(false, "cannot write spans to " + spans_path);
    }
  }

  struct rusage usage_now {};
  getrusage(RUSAGE_SELF, &usage_now);

  std::string out = "{\"workload\": " + json_string(workload_name) +
                    ", \"ranks\": " + std::to_string(workload->nranks()) +
                    ", \"min_reps\": " + std::to_string(min_reps) +
                    ", \"peak_rss_mb\": " +
                    exact_str(static_cast<double>(usage_now.ru_maxrss) / 1024.0) +
                    ", \"attempted\": " + std::to_string(checks.attempted) +
                    ", \"failed\": " + std::to_string(checks.failed) +
                    ", \"failures\": [";
  for (std::size_t i = 0; i < checks.failures.size(); ++i) {
    out += (i ? ", " : "") + json_string(checks.failures[i]);
  }
  out += "], \"exact\": " + json_map(exact) + ", \"layer\": " + json_map(layer) +
         ", \"reps\": [";
  for (std::size_t i = 0; i < reps.size(); ++i) {
    const RepResult& r = reps[i].result;
    out += std::string(i ? ", " : "") + "{\"traced\": " +
           (reps[i].traced ? "true" : "false") +
           ", \"setup_s\": " + exact_str(r.setup_s) +
           ", \"wall_s\": " + exact_str(r.wall_s) + ", \"steps_ms\": [";
    for (std::size_t s = 0; s < r.step_ms.size(); ++s) {
      out += (s ? ", " : "") + exact_str(r.step_ms[s]);
    }
    out += "]}";
  }
  out += "]}";
  std::printf("%s\n", out.c_str());
  return 0;
}
