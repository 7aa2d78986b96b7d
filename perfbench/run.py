#!/usr/bin/env python3
"""fiolab benchmark: end-to-end and per-layer numbers for three CLI workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload smoothing-3d --seed 0 --seconds 30 --trace 0

Workloads (see ``workloads.py`` and ``NOTES.md``): ``smoothing-3d``,
``canonical-norm-2d`` and ``egorov-refine``.  Each repetition of a
workload's op list is a fresh client process (``client.py``), because a
CLI user pays the cold start on every invocation; repetitions run one after
another until the next one would end after ``--seconds``.  Seven extra
clients stop once they are ready, to sample the set-up time.

``--trace 0`` prints the end-to-end metrics: median ``wall_s`` of the op
list, median ``setup_s`` (process start to ready for the first op), the
worst ``result_rel_err`` against ``references.json``, and median
``peak_rss_mb``.  ``--trace 1`` alternates untraced and traced repetitions
and prints the per-layer metrics of ``spans.py`` (medians over the traced
repetitions) plus ``trace.overhead_frac``; the traced repetitions also dump
their spans to ``.perfbench_out/spans/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; earlier lines give
the machine fingerprint and each repetition.  The run exits 0 whenever it
could measure, even if ops failed; it exits 2 without a result when the
checkout has no fiolab sources or references.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 7
# every run must end within 180 s; leave room for the last client's exit
HARD_LIMIT_S = 170.0

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("result_rel_err", "ratio"),
              ("peak_rss_mb", "MB"))


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


class Client:
    """Starts client processes for one run and collects their results."""

    def __init__(self, args, work: Path, started: float):
        self.args = args
        self.work = work
        self.started = started
        self.count = 0
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)

    def run(self, setup_only: bool = False, spans: Path | None = None) -> dict:
        self.count += 1
        result_file = self.work / f"client{self.count}.json"
        cmd = [sys.executable, str(HERE / "client.py"),
               "--workload", self.args.workload, "--seed", str(self.args.seed),
               "--references", str(self.args.references),
               "--out", str(self.work / f"reports{self.count}"), "--result", str(result_file)]
        if self.args.smoke:
            cmd.append("--smoke")
        if setup_only:
            cmd.append("--setup-only")
        if spans is not None:
            cmd += ["--spans", str(spans)]
        timeout = max(1.0, self.started + HARD_LIMIT_S - time.monotonic())
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, env=self.env, cwd=ROOT, stdout=sys.stderr)
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            return {"crashed": f"client timed out after {timeout:.0f} s"}
        finally:
            # also on SIGTERM (see main): no client outlives this run
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if code != 0 or not result_file.exists():
            return {"crashed": f"client exited with code {code}"}
        result = json.loads(result_file.read_text())
        result["setup_s"] = result["ready"] - spawned
        result["traced"] = spans is not None
        return result


def measure(args) -> tuple:
    """Run the clients of one benchmark run; return (setups, repetitions)."""
    started = time.monotonic()
    deadline = started + args.seconds
    work = ROOT / ".perfbench_out" / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    dump = ROOT / ".perfbench_out" / "spans" / f"{args.workload}-seed{args.seed}.json"
    try:
        client = Client(args, work, started)
        setups = [client.run(setup_only=True) for _ in range(SETUP_SAMPLES)]
        reps = []
        while True:
            traced = bool(args.trace) and len(reps) % 2 == 1
            reps.append(client.run(spans=dump if traced else None))
            done = [r["wall_s"] + r["setup_s"] for r in reps if "wall_s" in r]
            next_s = median(done) if done else 0.0
            kinds = {r.get("traced") for r in reps if "wall_s" in r}
            enough = not args.trace or kinds == {True, False}
            now = time.monotonic()
            if now + next_s > started + HARD_LIMIT_S or len(done) < len(reps):
                break
            if enough and now + next_s > deadline:
                break
        return setups, reps
    finally:
        shutil.rmtree(work, ignore_errors=True)


def summarize(args, setups: list, reps: list) -> dict:
    n_ops = len(workloads.op_list(args.workload, args.seed, args.smoke))
    attempted = failed = 0
    for rep in reps:
        attempted += n_ops
        if "crashed" in rep:
            failed += n_ops
            print(f"client failed: {rep['crashed']}", file=sys.stderr)
        elif rep["invalid"]:
            failed += n_ops
            print(f"invalid configs: {rep['invalid']}", file=sys.stderr)
        else:
            for op in rep["ops"]:
                if op["error"]:
                    failed += 1
                    print(f"op failed: {op['error']}", file=sys.stderr)
    ok = [r for r in reps if "wall_s" in r]
    untraced = [r for r in ok if not r["traced"]]
    traced = [r for r in ok if r["traced"]]
    for r in ok:
        ops = ", ".join(f"{o['id']} {o['s']:.3f} s" for o in r["ops"])
        print(f"rep traced={int(r['traced'])} setup_s={r['setup_s']:.4f} wall_s={r['wall_s']:.4f} "
              f"peak_rss_mb={r['peak_rss_mb']:.1f} [{ops}]")
    if ok:
        print("fingerprint " + json.dumps(dict(
            ok[0]["fingerprint"], nproc=os.cpu_count(), git_sha=_git_sha(),
            machine=platform.machine()), sort_keys=True))
    print(f"failed_frac {failed / max(attempted, 1):.6g} ({failed}/{attempted} ops)")

    metrics = {}
    if args.trace and traced and untraced:
        for name, _unit in spans.LAYER_METRICS:
            if name != "trace.overhead_frac":
                metrics[name] = median([r["layers"][name] for r in traced])
        metrics["trace.overhead_frac"] = (
            median([r["wall_s"] for r in traced])
            / median([r["wall_s"] for r in untraced]) - 1.0)
        units = dict(spans.LAYER_METRICS)
    elif not args.trace and untraced:
        setup_samples = [s["setup_s"] for s in setups + reps if "setup_s" in s]
        # worst op distance per repetition; 1.0 when no op produced one
        errs = [max((o["rel_err"] for o in r["ops"] if o["rel_err"] is not None), default=1.0)
                for r in untraced]
        metrics = {
            "wall_s": median([r["wall_s"] for r in untraced]),
            "setup_s": median(setup_samples),
            "result_rel_err": median(errs),
            "peak_rss_mb": median([r["peak_rss_mb"] for r in untraced]),
        }
        units = dict(END_TO_END)
    else:
        return None
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny grids: checks the pipeline, not the performance")
    parser.add_argument("--references", type=Path, default=HERE / "references.json")
    args = parser.parse_args()
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be >= 1 and --seed >= 0")
    if not (ROOT / "src" / "fiolab" / "__init__.py").is_file():
        print(f"no fiolab sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    if not args.references.is_file():
        print(f"missing references file {args.references}", file=sys.stderr)
        return 2
    args.references = args.references.resolve()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    setups, reps = measure(args)
    result = summarize(args, setups, reps)
    if result is None:
        print("no repetition completed; nothing to report", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
