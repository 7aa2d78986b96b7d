#!/usr/bin/env python3
"""Self-test of the benchmark at tiny grids (about half a minute).

Run from the repository root::

    python3 perfbench/smoke.py

For every workload it checks that ``run.py --smoke`` exits 0 and prints, as
its last line, a result with every end-to-end metric (``--trace 0``) or
every per-layer metric (``--trace 1``) by name and unit, with no failed op;
that the traced run dumps spans; that a deliberately wrong reference
(every true value halved) makes ops fail and shows in ``failed_frac``; and
that the benchmark refuses to run, without a result line, in a directory
holding only ``BENCHMARK.json`` and ``perfbench/``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

OUT = ROOT / ".perfbench_out" / "smoke"


def bench(*args: str, cwd: Path = ROOT) -> tuple:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--seconds", "1", "--smoke", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, proc.stderr


def last_result(lines: list) -> dict:
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, result
    assert isinstance(result["failed"], int), result
    return result


def check_metrics(result: dict, expected: tuple, where: str):
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == dict(expected), f"{where}: metrics {got} != {dict(expected)}"
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), f"{where}: {name} = {m['value']!r}"


def halved_references() -> Path:
    refs = json.loads((HERE / "references.json").read_text())
    for workload in workloads.WORKLOADS:
        for rows in refs[workloads.reference_key(workload, smoke=True)].values():
            for row in rows.values():
                row["value"] *= 0.5
    path = OUT / "halved-references.json"
    path.write_text(json.dumps(refs))
    return path


def bare_checkout() -> Path:
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    return bare


def main() -> int:
    shutil.rmtree(OUT, ignore_errors=True)
    OUT.mkdir(parents=True)
    halved = halved_references()
    for workload in workloads.WORKLOADS:
        args = ("--workload", workload, "--seed", "7")
        code, lines, err = bench(*args, "--trace", "0")
        assert code == 0, f"{workload}: exit {code}\n{err}"
        result = last_result(lines)
        check_metrics(result, run.END_TO_END, workload)
        assert result["correct"] and result["failed"] == 0, f"{workload}: {result}\n{err}"
        assert any(line.startswith("failed_frac 0 ") for line in lines), lines
        assert any(line.startswith("fingerprint ") for line in lines), lines

        dump = ROOT / ".perfbench_out" / "spans" / f"{workload}-seed7.json"
        dump.unlink(missing_ok=True)
        code, lines, err = bench(*args, "--trace", "1")
        assert code == 0, f"{workload} traced: exit {code}\n{err}"
        result = last_result(lines)
        check_metrics(result, spans.LAYER_METRICS, f"{workload} traced")
        assert result["correct"], f"{workload} traced: {result}\n{err}"
        assert json.loads(dump.read_text())["spans"], f"{workload}: no spans in {dump}"

        # egorov 2d has no reference (its residual is its error), so one
        # wrong reference per workload suffices: every other op checks one
        code, lines, err = bench(*args, "--trace", "0", "--references", str(halved))
        assert code == 0, f"{workload} halved: exit {code}\n{err}"
        result = last_result(lines)
        assert result["failed"] >= 1 and not result["correct"], f"{workload} halved: {result}"
        frac = [line for line in lines if line.startswith("failed_frac ")]
        assert frac and float(frac[0].split()[1]) > 0, lines
        print(f"{workload}: ok ({result['failed']}/{result['attempted']} ops fail "
              "against halved references)")

    bare = bare_checkout()
    code, lines, err = bench("--workload", "smoothing-3d", "--seed", "0", "--trace", "0",
                             cwd=bare)
    assert code != 0 and not any(line.startswith("{") for line in lines), (code, lines)
    shutil.rmtree(OUT, ignore_errors=True)
    print("bare checkout: refused without a result, as required")
    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
