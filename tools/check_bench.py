#!/usr/bin/env python3
"""Gate a fresh BENCH_*.json capture against the committed one.

Usage: check_bench.py COMMITTED.json FRESH.json [FRESH.json ...]
                      [--tolerance 0.20]

Accepts the "scale" (bench_scale), "tune" (bench_tune) and "coll"
(bench_coll) captures; every file must carry the same bench tag. For
every workload row present in the committed file and in EVERY fresh
capture (matched on name + ranks), fails (exit 1) when the median of the
fresh envelopes_per_sec values is more than `tolerance` below the
committed value. Faster is never a failure; rows some file lacks (e.g.
the committed full 1k/4k/10k sweep vs a --quick CI run) are skipped.
Wall-clock benches are noisy, so the default tolerance is a generous 20%
— the gate exists to catch "the scheduler fell off a cliff", not
single-digit jitter — and several captures can be passed so that one
slow capture of a short row does not fail the gate on its own.
(BENCH_tune.json and BENCH_coll.json rates are derived from
deterministic virtual makespans, so those rows reproduce exactly; the
tolerance only matters for scale.)
"""

import argparse
import json
import statistics
import sys


KNOWN_BENCHES = ("scale", "tune", "coll")


def rows(path):
    with open(path) as f:
        data = json.load(f)
    if data.get("bench") not in KNOWN_BENCHES:
        sys.exit(f"{path}: not a recognised bench capture "
                 f"(bench={data.get('bench')!r}, expected one of "
                 f"{KNOWN_BENCHES})")
    return data["bench"], {(w["name"], w["ranks"]): w
                           for w in data["workloads"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("committed")
    parser.add_argument("fresh", nargs="+")
    parser.add_argument("--tolerance", type=float, default=0.20)
    args = parser.parse_args()

    committed_bench, committed = rows(args.committed)
    captures = []
    for path in args.fresh:
        fresh_bench, fresh = rows(path)
        if committed_bench != fresh_bench:
            sys.exit(f"bench tag mismatch: {args.committed} is "
                     f"{committed_bench!r}, {path} is {fresh_bench!r}")
        captures.append(fresh)
    shared = sorted(set(committed).intersection(*captures))
    if not shared:
        sys.exit("no (workload, ranks) rows in common; nothing to gate")

    failures = []
    for key in shared:
        base = committed[key]["envelopes_per_sec"]
        values = [fresh[key]["envelopes_per_sec"] for fresh in captures]
        now = statistics.median(values)
        ratio = now / base if base > 0 else float("inf")
        marker = "FAIL" if ratio < 1.0 - args.tolerance else "ok"
        spread = ""
        if len(values) > 1:
            spread = " [" + ", ".join(f"{v:.0f}" for v in values) + "]"
        print(f"{key[0]:>10} @ {key[1]:>6} ranks: "
              f"{base:>12.0f} -> {now:>12.0f} env/sec ({ratio:5.2f}x) "
              f"{marker}{spread}")
        if marker == "FAIL":
            failures.append(key)

    if failures:
        names = ", ".join(f"{n}@{r}" for n, r in failures)
        sys.exit(f"envelopes/sec regressed more than "
                 f"{args.tolerance:.0%} vs {args.committed}: {names}")
    print(f"{len(shared)} row(s) within {args.tolerance:.0%} of committed "
          f"(median of {len(captures)} capture(s))")


if __name__ == "__main__":
    main()
