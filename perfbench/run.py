#!/usr/bin/env python3
"""The repository benchmark: a workload and a seed in, metrics out.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S
                             --trace 0|1 [--workers N]

Builds perfbench/ (which compiles the libraries under src/) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), pins the
runtime's environment, runs the workload for S seconds and prints every
metric as `name value unit` lines, then one JSON object as the last line of
standard output (with --workload all, one such block per workload).
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
See perfbench/README.md for what each metric measures.
"""
import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("halo3d_directive", "shuffle_wildcard", "wllsms_paper",
             "halo3d_recorded")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "envelopes_per_s": "1/s",
    "step_p50_ms": "ms",
    "step_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "wire_messages": "count",
    "wire_bytes": "bytes",
}

PER_LAYER = {
    "core.directives": "count",
    "core.regions": "count",
    "core.waitalls": "count",
    "core.requests_retired": "count",
    "core.datatype_hit_ratio": "ratio",
    "core.directive_ns": "ns",
    "core.collective_ns": "ns",
    "core.host_ratio_vs_original": "ratio",
    "core.directives_per_s": "1/s",
    "core.self_ms": "ms",
    "core.busy_ms": "ms",
    "mpi.messages": "count",
    "mpi.bytes": "bytes",
    "mpi.post_ns": "ns",
    "mpi.wait_ns": "ns",
    "mpi.self_ms": "ms",
    "mpi.busy_ms": "ms",
    "shmem.puts": "count",
    "shmem.bytes": "bytes",
    "shmem.quiets": "count",
    "shmem.malloc_ns": "ns",
    "shmem.self_ms": "ms",
    "shmem.busy_ms": "ms",
    "rt.spawn_s": "s",
    "rt.barrier_ns": "ns",
    "rt.sched.switches": "count",
    "rt.sched.parks": "count",
    "rt.sched.parks_per_envelope": "ratio",
    "rt.arena.reuse_ratio": "ratio",
    "rt.arena.node_reuse_ratio": "ratio",
    "rt.arena.retained_bytes": "bytes",
    "rt.self_ms": "ms",
    "rt.busy_ms": "ms",
    "rt.switch_ms": "ms",
    "vt.makespan_us": "us",
    "vt.clock_skew_us": "us",
    "vt.fig3_original_us": "us",
    "vt.fig3_mpi2side_us": "us",
    "vt.fig3_shmem_us": "us",
    "vt.roundtrip_mpi2side_us": "us",
    "vt.roundtrip_shmem_us": "us",
    "wllsms.driver_ms": "ms",
    "wllsms.self_ms": "ms",
    "wllsms.busy_ms": "ms",
    "obs.spans": "count",
    "obs.trace_bytes": "bytes",
    "obs.export_ms": "ms",
    "obs.overhead_ratio": "ratio",
    "obs.self_ms": "ms",
    "bench.self_ms": "ms",
    "bench.busy_ms": "ms",
    "trace.overhead_ratio": "ratio",
}

# The environment the runtime reads. A value inherited from the caller that
# disagrees with these would silently change what is measured, so the
# benchmark refuses to run instead of overriding it.
PINNED = {"CID_BACKEND": "sim", "CID_TUNE": "off"}
UNSET = ("CID_COLL", "CID_SIM_SCHED", "CID_TRACE_OUT")

# Step-time tail: the highest of these percentiles with at least ten
# samples beyond it in the repetitions every run is guaranteed to make, so
# the percentile is the same on every run of a workload.
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def pinned_env(workers, trace_out):
    wanted = dict(PINNED, CID_SIM_WORKERS=str(workers))
    for name, value in wanted.items():
        inherited = os.environ.get(name)
        if inherited not in (None, "", value):
            fail(f"{name}={inherited} is set; the benchmark pins {value}")
    for name in UNSET:
        if os.environ.get(name):
            fail(f"{name} is set; the benchmark runs with it unset")
    env = dict(os.environ, **wanted)
    for name in UNSET:
        env.pop(name, None)
    if trace_out:
        env["CID_TRACE_OUT"] = trace_out
    return env


def build(build_dir):
    """Configure once, then build incrementally; all output to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources: run from a full checkout of the repository")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def run_child(binary, env, workload, seed, seconds, trace, extra=()):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "1" if trace else "0",
           *extra]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              timeout=170, check=False, text=True)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within 170 s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{workload} exited with {proc.returncode}")
    return json.loads(lines[-1])


def tail(samples, guaranteed):
    """(percentile, value, samples beyond) of the step-time tail."""
    percentile = next((p for p in TAIL_LADDER
                       if guaranteed - math.ceil(p / 100.0 * guaranteed) >= 10),
                      50.0)
    ordered = sorted(samples)
    rank = max(1, math.ceil(percentile / 100.0 * len(ordered)))
    return percentile, ordered[rank - 1], len(ordered) - rank


def end_to_end(result):
    reps = [r for r in result["reps"] if not r["traced"]]
    wall = statistics.median(r["wall_s"] for r in reps)
    steps = [s for r in reps for s in r["steps_ms"]]
    guaranteed = result["min_reps"] * len(reps[0]["steps_ms"])
    percentile, tail_ms, beyond = tail(steps, guaranteed)
    exact = result["exact"]
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in reps),
        "wall_s": wall,
        "envelopes_per_s": exact["wire_messages"] / wall,
        "step_p50_ms": statistics.median(steps),
        "step_tail_ms": tail_ms,
        "peak_rss_mb": result["peak_rss_mb"],
        "wire_messages": exact["wire_messages"],
        "wire_bytes": exact["wire_bytes"],
    }
    notes = [f"step samples: {len(steps)} from {len(reps)} repetitions; "
             f"step_tail_ms is p{percentile:g} with {beyond} samples beyond"]
    return values, notes


def per_layer(result, directive_wall=None):
    values = {name: 0.0 for name in PER_LAYER}
    for source in (result["exact"], result["layer"]):
        values.update({k: v for k, v in source.items() if k in PER_LAYER})
    if directive_wall:
        reps = [r for r in result["reps"] if not r["traced"]]
        recorded_wall = statistics.median(r["wall_s"] for r in reps)
        values["obs.overhead_ratio"] = recorded_wall / directive_wall
    return values


def run_workload(workload, args, binary, out_dir):
    """Run one workload and print its metrics, its JSON result line last."""
    recorded = workload == "halo3d_recorded"
    trace_out = os.path.join(out_dir, "halo3d_recorded.trace.json")
    env = pinned_env(args.workers, trace_out if recorded else None)
    print(f"perfbench: workload={workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("environment: " + " ".join(
        f"{k}={env.get(k, '')}" for k in
        (*PINNED, "CID_SIM_WORKERS", *UNSET)))

    spans = os.path.join(out_dir, f"spans_{workload}.tsv")
    extra = ["--spans", spans]
    if recorded:
        extra += ["--trace-out", trace_out]
    attempted = failed = 0
    failures = []
    if args.trace and recorded:
        # obs.overhead_ratio needs the same program with recording off, in
        # a process of its own: the runtime latches CID_TRACE_OUT once.
        plain = pinned_env(args.workers, None)
        base = run_child(binary, plain, "halo3d_directive", args.seed,
                         args.seconds / 3, False)
        result = run_child(binary, env, workload, args.seed,
                           args.seconds * 2 / 3, True, extra)
        directive_wall = statistics.median(
            r["wall_s"] for r in base["reps"] if not r["traced"])
        attempted += base["attempted"] + 1
        failed += base["failed"]
        failures += base["failures"]
        same = {k: v for k, v in result["exact"].items() if k != "obs.spans"}
        if same != base["exact"]:
            failed += 1
            failures.append("halo3d_recorded counts differ from "
                            "halo3d_directive")
        values, notes, units = per_layer(result, directive_wall), [], PER_LAYER
    else:
        result = run_child(binary, env, workload, args.seed,
                           args.seconds, bool(args.trace), extra)
        if args.trace:
            values, notes, units = per_layer(result), [], PER_LAYER
        else:
            (values, notes), units = end_to_end(result), END_TO_END
    attempted += result["attempted"]
    failed += result["failed"]
    failures += result["failures"]

    print(f"ranks: {result['ranks']}; workers: {args.workers}")
    for note in notes:
        print(note)
    for failure in failures:
        print(f"CHECK FAILED: {failure}")
    print(f"failed_ratio {failed / attempted:.6g} ({failed} of {attempted} "
          "output checks)")
    for name, unit in units.items():
        print(f"{name} {values[name]:.9g} {unit}")
    if args.trace:
        print(f"spans of the last traced repetition: {spans}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }), flush=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"),
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workers", type=int, default=1,
                        help="pooled-scheduler worker threads")
    args = parser.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        fail("--seconds must be positive and --seed non-negative")
    if not 1 <= args.workers <= (os.cpu_count() or 1):
        fail(f"--workers must be between 1 and {os.cpu_count()}")
    pinned_env(args.workers, None)  # refuse a conflicting environment early

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"), "perfbench")
    binary = build(build_dir)
    out_dir = os.path.join(build_dir, "out")
    os.makedirs(out_dir, exist_ok=True)
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        run_workload(workload, args, binary, out_dir)


if __name__ == "__main__":
    main()
