#!/usr/bin/env python3
"""Record one benchmark snapshot of a checkout as a BENCH_*.json file.

For each workload declared in the checkout's ``BENCHMARK.json`` this runs

    python3 perfbench/run.py --workload W --seed 0 --seconds 40 --trace 0

then times the tier-1 suite, and writes the result objects (the last line
each run prints), the machine fingerprint, the date, ``git rev-parse HEAD``,
whether tracked files differ from HEAD, the tier-1 wall time and the line
counts of ``src/fiolab/*.py`` and ``tests/*.py`` to the JSON file given.
Name it after the date and commit::

    python3 scripts/write_bench.py BENCH_20261018_a26d6fd.json

A snapshot takes about five minutes on two cores.  Standard library only.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = 0
SECONDS = 40
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors"]


def _git(checkout: Path, *args: str) -> str:
    out = subprocess.run(["git", "-C", str(checkout), *args],
                         capture_output=True, text=True, check=True)
    return out.stdout.strip()


def run_workload(checkout: Path, workload: str) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    fingerprint = next((json.loads(line.split(" ", 1)[1]) for line in lines
                        if line.startswith("fingerprint ")), None)
    result = None
    if proc.returncode == 0 and lines:
        result = json.loads(lines[-1])
    else:
        print(f"{workload}: run.py exited {proc.returncode}\n{proc.stderr}", file=sys.stderr)
    return {"exit_code": proc.returncode, "fingerprint": fingerprint, "result": result}


def run_tier1(checkout: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(checkout / "src"), os.environ.get("PYTHONPATH")) if p)
    started = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1], cwd=checkout, env=env,
                          capture_output=True, text=True)
    wall = time.perf_counter() - started
    lines = proc.stdout.strip().splitlines()
    return {"command": "python -m pytest -q --continue-on-collection-errors",
            "wall_s": round(wall, 3), "exit_code": proc.returncode,
            "summary": lines[-1] if lines else ""}


def count_lines(checkout: Path) -> dict:
    """Lines (as ``wc -l`` counts them) of each file a pattern matches, and their total."""
    counts = {}
    for pattern in ("src/fiolab/*.py", "tests/*.py"):
        files = {str(path.relative_to(checkout)): path.read_bytes().count(b"\n")
                 for path in sorted(checkout.glob(pattern))}
        counts[pattern] = {"files": files, "total": sum(files.values())}
    return counts


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", type=Path, help="JSON file to write")
    parser.add_argument("--checkout", type=Path, default=ROOT,
                        help="repository to measure (default: this one)")
    args = parser.parse_args()
    checkout = args.checkout.resolve()
    workloads = [w["name"] for w in json.loads(
        (checkout / "BENCHMARK.json").read_text())["workloads"]]

    runs = {}
    for workload in workloads:
        print(f"running {workload} ...", file=sys.stderr, flush=True)
        runs[workload] = run_workload(checkout, workload)
    print("running tier-1 ...", file=sys.stderr, flush=True)
    tier1 = run_tier1(checkout)

    fingerprint = next((r["fingerprint"] for r in runs.values() if r["fingerprint"]), None)
    bench = {
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "git_head": _git(checkout, "rev-parse", "HEAD"),
        "dirty": bool(_git(checkout, "status", "--porcelain", "--untracked-files=no")),
        "fingerprint": fingerprint,
        "command": f"python3 perfbench/run.py --workload W --seed {SEED} --seconds {SECONDS} --trace 0",
        "workloads": {w: {"exit_code": r["exit_code"], "result": r["result"]}
                      for w, r in runs.items()},
        "tier1": tier1,
        "lines": count_lines(checkout),
    }
    args.out.write_text(json.dumps(bench, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)
    failed = any(r["result"] is None for r in runs.values())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
