#!/usr/bin/env python3
"""Regenerate ``perfbench/references.json``: the true values the benchmark checks against.

Run from the repository root (about a minute on 2 cores)::

    PYTHONPATH=src python3 perfbench/make_references.py

For every ``norm`` and ``smoothing`` op of the benchmark, the op's config is
run through ``fiolab.cli.run_experiment`` with ``power_iteration`` replaced,
in ``fiolab.normest`` and ``fiolab.dispersive``, by an ARPACK Lanczos solve
(``scipy.sparse.linalg.eigsh``) of the very normal operator ``B*B`` that
power iteration would receive.  The reference is ``sqrt`` of the top
eigenvalue, stored with the relative residual ``|B*B v - lam v| / lam`` and
``rel_accuracy = max(residual / 2, 1e-12)``, a bound on the relative error
of the singular value.  The references do not depend on the benchmark seed:
they are properties of the operator, not of a start vector.

For ``egorov 3d`` the stored value is the residual the op reports at the
commit that generated the file; the benchmark flags a residual that grows
by more than 1% over it.

This is the only benchmark file that needs scipy; the timed runs use the
standard library, numpy and fiolab only.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from pathlib import Path

import numpy as np
import scipy
from scipy.sparse.linalg import LinearOperator, eigsh

import fiolab.dispersive
import fiolab.normest
from fiolab.cli import ExperimentConfig, run_experiment
from fiolab.lattice import Field
from fiolab.normest import NormEstimate

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

EIGSH_TOL = 1e-13
ACCURACY_FLOOR = 1e-12


class LanczosSolver:
    """Drop-in for ``power_iteration`` that records each solve it makes."""

    def __init__(self):
        self.solves = []

    def __call__(self, normal_apply, start: Field, tol, max_iters) -> NormEstimate:
        grid = start.grid
        matvecs = 0

        def matvec(x):
            nonlocal matvecs
            matvecs += 1
            return normal_apply(Field(grid, x.reshape(grid.shape))).values.reshape(-1)

        op = LinearOperator((grid.size, grid.size), matvec=matvec, dtype=np.complex128)
        ncv = min(grid.size - 1, 40)
        vals, vecs = eigsh(op, k=1, which="LA", tol=EIGSH_TOL, ncv=ncv,
                           v0=start.values.reshape(-1), maxiter=100_000)
        lam = float(vals[0].real)
        v = vecs[:, 0]
        residual = float(np.linalg.norm(matvec(v) - lam * v) / (abs(lam) * np.linalg.norm(v)))
        self.solves.append({
            "value": float(np.sqrt(lam)),
            "residual": residual,
            "rel_accuracy": max(residual / 2.0, ACCURACY_FLOOR),
            "matvecs": matvecs,
        })
        return NormEstimate(float(np.sqrt(lam)), matvecs, True)


def _grid_points(config: dict) -> list:
    pts = config["grid"]["points"]
    return [str(p) for p in (pts if isinstance(pts, list) else [pts])]


def references_for(workload: str, smoke: bool) -> dict:
    out = {}
    for op in workloads.op_list(workload, seed=0, smoke=smoke):
        started = time.perf_counter()
        config = ExperimentConfig.from_dict(op["config"])
        if op["config"]["kind"] == "egorov":
            if op["id"] != "egorov 3d":
                continue
            report = run_experiment(config)
            (n,) = _grid_points(op["config"])
            out[op["id"]] = {n: {"value": report.results["residuals"][n]}}
        else:
            solver = LanczosSolver()
            saved = fiolab.normest.power_iteration, fiolab.dispersive.power_iteration
            fiolab.normest.power_iteration = fiolab.dispersive.power_iteration = solver
            try:
                report = run_experiment(config)
            finally:
                fiolab.normest.power_iteration, fiolab.dispersive.power_iteration = saved
            if report.failed:
                raise RuntimeError(f"{op['id']}: reference run failed: {report.warnings}")
            out[op["id"]] = dict(zip(_grid_points(op["config"]), solver.solves))
        print(f"{workload}{' (smoke)' if smoke else ''} {op['id']}: {out[op['id']]} "
              f"[{time.perf_counter() - started:.1f} s]", flush=True)
    return out


def main() -> int:
    refs = {
        "method": (
            "norm/smoothing: sqrt of the top eigenvalue of the op's own normal operator B*B, "
            f"scipy.sparse.linalg.eigsh(k=1, which='LA', tol={EIGSH_TOL}); "
            "rel_accuracy = max(residual / 2, 1e-12) with residual = |B*B v - lam v| / lam. "
            "egorov 3d: residual reported by the generating commit."
        ),
        "generated_with": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "fiolab": fiolab.__version__,
        },
    }
    for smoke in (True, False):
        for workload in workloads.WORKLOADS:
            refs[workloads.reference_key(workload, smoke)] = references_for(workload, smoke)
    target = HERE / "references.json"
    target.write_text(json.dumps(refs, indent=2, sort_keys=True) + "\n")
    print(f"wrote {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
