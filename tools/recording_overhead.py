#!/usr/bin/env python3
"""Gate the runtime's recording overhead on the halo3d benchmark.

Runs PAIRS pairs of the perfbench workloads halo3d_directive (recording off)
and halo3d_recorded (the same program under CID_TRACE_OUT), each for SECONDS,
and takes the ratio of their step_p50_ms in every pair. halo3d_directive
runs first in odd pairs and second in even ones, so warm-up and drift do not
land on one side of the ratio. A step does not contain the trace export,
which runs after each rt::run, so the ratio measures recording alone. Then
one --trace 1 run of halo3d_recorded reports obs.export_ms, the cost of one
export, beside it.

Prints one line per pair and a summary line:

    recording overhead: median step_p50 ratio R over N pairs (bound B); ...

and exits 1 when the median ratio exceeds BOUND, 2 when a run fails or
reports failed output checks.

Usage:
    python3 tools/recording_overhead.py

Stdlib only; builds and runs perfbench/run.py from this checkout.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# The gate's fixed shape, calibrated on a 4-vCPU VM (docs/PERF.md section
# 9.1). A pair's ratio swings when other load on the host lands on one of
# its runs: with three pairs, two of ten gate runs of the derived-metrics
# recorder failed on a busy host, so the median is taken over five.
PAIRS = 5
SECONDS = 4.0
BOUND = 1.35
SEED = 1


def run(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workers", "1", "--workload", workload, "--seed", str(seed),
           "--seconds", repr(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"recording_overhead: {workload} exited with {proc.returncode}")
        sys.exit(2)
    result = json.loads(lines[-1])
    if not result["correct"]:
        print(proc.stdout)
        print(f"recording_overhead: {workload} failed its output checks")
        sys.exit(2)
    return {name: m["value"] for name, m in result["metrics"].items()}


def main() -> int:
    ratios = []
    for pair in range(PAIRS):
        seed = SEED + pair
        order = ["halo3d_directive", "halo3d_recorded"]
        if pair % 2 == 1:
            order.reverse()
        step = {w: run(w, seed, 0)["step_p50_ms"] for w in order}
        off, on = step["halo3d_directive"], step["halo3d_recorded"]
        ratios.append(on / off)
        print(f"pair {pair + 1}: seed {seed} step_p50_ms directive {off:.3f} "
              f"recorded {on:.3f} ratio {on / off:.3f}", flush=True)
    median = statistics.median(ratios)
    export = run("halo3d_recorded", SEED, 1)
    print(f"recording overhead: median step_p50 ratio {median:.3f} over "
          f"{PAIRS} pairs (bound {BOUND:g}); "
          f"obs.export_ms {export['obs.export_ms']:.1f}")
    if median > BOUND:
        print(f"recording overhead: {median:.3f} exceeds the bound {BOUND:g}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
