"""One benchmark client: a fresh process that issues one workload's op list.

``run.py`` starts this file with ``PYTHONPATH=src``; it is not
meant to be run by hand.  The client imports fiolab, builds and validates
every config, notes when it is ready, and then calls
``fiolab.cli.run_experiment`` for each op in turn, each call only after the
previous one returned (a closed loop with one client).  It checks every
report and writes one JSON result file for ``run.py``.

With ``--setup-only`` the client stops once it is ready.  With
``--spans PATH`` it installs the tracing wrappers after it is ready and
dumps its spans to PATH at the end.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import fiolab
import fiolab.cli

import workloads


def _reject_constant(name: str):
    raise ValueError(f"non-standard JSON constant {name}")


def _blas() -> dict:
    """BLAS name, version and thread count of the loaded numpy."""
    info = {}
    try:
        config = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=config.get("name"), version=config.get("version"))
    except (KeyError, TypeError, ValueError):
        pass
    with open("/proc/self/maps") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                info["threads"] = int(getter())
                return info
    return info


def fingerprint() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": _blas(), "fiolab": fiolab.__version__}


def run_op(op: dict, config, out_dir: Path, references: dict, smoke: bool) -> dict:
    """Issue one op; return its duration (the call alone) and outcome."""
    started = time.perf_counter()
    elapsed = error = rel_err = None
    try:
        fiolab.cli.run_experiment(config, out_dir=out_dir)
        elapsed = time.perf_counter() - started
        report = json.loads((out_dir / "report.json").read_text(),
                            parse_constant=_reject_constant)
        error, rel_err = workloads.check_report(op, report, references, smoke)
    except Exception:  # noqa: BLE001 - any failure of the op is counted, not fatal
        if elapsed is None:
            elapsed = time.perf_counter() - started
        error = f"{op['id']}: {traceback.format_exc(limit=3)}"
    return {"id": op["id"], "s": elapsed, "error": error, "rel_err": rel_err}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--references", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True, help="scratch directory for reports")
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args()

    ops = workloads.op_list(args.workload, args.seed, args.smoke)
    configs = [fiolab.cli.ExperimentConfig.from_dict(op["config"]) for op in ops]
    invalid = [f"{op['id']}: {v.describe()}" for op, c in zip(ops, configs)
               for v in fiolab.cli.validate_config(c) if v.severity == "error"]
    ready = time.monotonic()
    result = {"ready": ready, "invalid": invalid}
    if args.setup_only or invalid:
        args.result.write_text(json.dumps(result))
        return 0

    references = json.loads(args.references.read_text())
    references = references[workloads.reference_key(args.workload, args.smoke)]
    rec = None
    if args.spans is not None:
        import spans

        rec = spans.Recorder()
        spans.install(rec)
    records = []
    for i, (op, config) in enumerate(zip(ops, configs)):
        if rec is not None:
            rec.op_id = op["id"]
        records.append(run_op(op, config, args.out / f"op{i}", references, args.smoke))
    wall = sum(r["s"] for r in records)
    shutil.rmtree(args.out, ignore_errors=True)

    result.update(
        wall_s=wall,
        ops=records,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        fingerprint=fingerprint(),
    )
    if rec is not None:
        result["layers"] = spans.layer_metrics(rec)
        rec.dump(args.spans, {"workload": args.workload, "seed": args.seed, "smoke": args.smoke,
                              "wall_s": wall, "fingerprint": result["fingerprint"]})
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
