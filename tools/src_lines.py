#!/usr/bin/env python3
"""Report the lines a change adds to and removes from ``src/``.

Counts ``git diff --numstat`` over ``src/`` from the merge base of BASE and
HEAD to HEAD, the way a pull request's diff is shown, and prints one line:

    src/: +ADDED -REMOVED net NET (FILES files)

It reports and never gates: the exit status is 0 whenever git can diff the
two refs. With -h, --help or a wrong argument count it prints the usage and
exits 2.

Usage:
    python3 tools/src_lines.py BASE [HEAD]     # HEAD defaults to HEAD

Example (a pull request against main, with full history fetched):
    python3 tools/src_lines.py origin/main

Stdlib only; no third-party dependencies.
"""

from __future__ import annotations

import subprocess
import sys


def src_numstat(base: str, head: str) -> list[tuple[int, int, str]]:
    out = subprocess.run(
        ["git", "diff", "--numstat", f"{base}...{head}", "--", "src/"],
        check=True,
        capture_output=True,
        text=True,
    ).stdout
    rows = []
    for line in out.splitlines():
        added, removed, path = line.split("\t", 2)
        if added == "-":  # binary file: no line counts
            continue
        rows.append((int(added), int(removed), path))
    return rows


def main(argv: list[str]) -> int:
    if len(argv) not in (2, 3) or argv[1] in ("-h", "--help"):
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: src_lines.py BASE [HEAD]", file=sys.stderr)
        return 2
    base = argv[1]
    head = argv[2] if len(argv) == 3 else "HEAD"
    rows = src_numstat(base, head)
    added = sum(row[0] for row in rows)
    removed = sum(row[1] for row in rows)
    print(f"src/: +{added} -{removed} net {added - removed:+d} "
          f"({len(rows)} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
