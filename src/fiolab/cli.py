"""Config-driven experiment runner with reproducible reports.

Experiments are described by a JSON config file and dispatched through
subcommands::

    fiolab egorov       --config cfg.json --out results/
    fiolab smoothing    --config cfg.json --seed 1 --out results/
    fiolab norm         --config cfg.json --out results/
    fiolab symbol-check --config cfg.json --out results/
    fiolab cotlar       --config cfg.json --out results/
    fiolab validate     --config cfg.json

Each run writes ``report.json`` (strict JSON, deterministic for a fixed
config/seed/version; a failed sub-run's missing number is ``null``) and,
when the experiment sweeps a parameter, ``sweep.csv`` with one row per
sub-run.  Wall-clock time is printed to stdout but deliberately kept out
of the report files so that repeated runs are byte-identical.

Config schema (JSON object); fields not used by a kind are ignored::

    {
      "kind":   "egorov" | "smoothing" | "norm" | "symbol-check" | "cotlar",
      "symbol": {"name": "euclidean"} |
                {"name": "quadratic_form", "diag": [1, 4]} |
                {"name": "perturbed", "base": {...},
                 "bump_amplitude": 0.1, "bump_direction": [1, 0]},
      "grid":   {"dim": 2, "half_width": 10.0, "points": 64 | [32, 64]},
      "window": {"horizon": 4.0 | [4.0, 8.0], "steps_per_unit": 64},
      "weights": {"m_in": 0.0, "m_out": 0.0} | {"delta": 1.0,
                  "kind": "inhomogeneous" | "homogeneous"},
      "operator": {"kind": "identity" | "canonical" | "canonical_inverse"
                   | "bracket_multiplier"},
      "amplitude": {"name": "reciprocal_quadratic" | "oscillating_square"
                    | "constant"},
      "symbol_class": {"kind": "S00" | "SG", "max_order": 2,
                       "bound_tolerance": 5.0, "weight_orders": [0, 0],
                       "dim": 1, "x_half_width": 10.0, "xi_half_width": 10.0,
                       "x_points": 201, "xi_points": 33},
      "family": {"kind": "disjoint_bumps" | "random_matrices", "size": 3},
      "data":   {"sigma": 1.2, "carrier": [5.0, 0.0]},
      "seed":   0
    }

Exit codes: 0 success, 1 config validation failure, 2 numerical failure
propagated from a sub-run.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import get_args

import numpy as np

import fiolab
from fiolab.lattice import Field, make_grid
from fiolab.normest import OperatorFamily, WeightedNormTask, cotlar_bound, operator_norm
from fiolab.operators import (
    canonical_transform_operator,
    identity_operator,
    matrix_operator,
    multiplication_operator,
    multiplier_operator,
)
from fiolab.symbols import (
    SymbolClassSpec,
    check_symbol_class,
    gauss_phase,
    symbol_from_config,
)
from fiolab.dispersive import DerivativeKind, TimeWindow, egorov_residual, smoothing_constant

__all__ = [
    "ExperimentConfig",
    "Violation",
    "ReportRecord",
    "validate_config",
    "run_experiment",
    "main",
]

EXPERIMENT_KINDS = ("egorov", "smoothing", "norm", "symbol-check", "cotlar")


@dataclass(frozen=True)
class Violation:
    field: str
    constraint: str
    actual: object
    severity: str = "error"  # "error" aborts; "warning" proceeds labeled

    def describe(self) -> str:
        return f"[{self.severity}] {self.field}: {self.constraint} (got {self.actual!r})"


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    raw: dict
    seed: int = 0
    threads: int = 1

    @staticmethod
    def from_dict(data: dict, kind: str | None = None, seed: int | None = None, threads: int = 1):
        actual_kind = kind or data.get("kind", "")
        actual_seed = seed if seed is not None else int(data.get("seed", 0))
        return ExperimentConfig(
            kind=actual_kind, raw=dict(data), seed=actual_seed, threads=max(int(threads), 1)
        )


@dataclass
class ReportRecord:
    config: dict
    kind: str
    seed: int
    version: str
    results: dict = field(default_factory=dict)
    sweep_rows: list = field(default_factory=list)
    sweep_header: list = field(default_factory=list)
    warnings: list = field(default_factory=list)
    failed: bool = False
    wall_clock_seconds: float = 0.0

    def to_json_dict(self) -> dict:
        # wall clock excluded: reports must be byte-identical across runs
        return {
            "kind": self.kind,
            "seed": self.seed,
            "toolkit_version": self.version,
            "config": self.config,
            "results": self.results,
            "warnings": self.warnings,
            "failed": self.failed,
            "sweep": {"header": self.sweep_header, "rows": self.sweep_rows},
        }


def _grid_points_list(grid_cfg: dict) -> list:
    pts = grid_cfg.get("points")
    return list(pts) if isinstance(pts, (list, tuple)) else [pts]


def _horizon_list(window_cfg: dict) -> list:
    t = window_cfg.get("horizon")
    return list(t) if isinstance(t, (list, tuple)) else [t]


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def validate_config(config: ExperimentConfig) -> list:
    """Collect violations; empty error list means the experiment can run."""
    v: list[Violation] = []
    raw = config.raw
    if config.kind not in EXPERIMENT_KINDS:
        v.append(Violation("kind", f"must be one of {EXPERIMENT_KINDS}", config.kind))
        return v

    if config.kind in ("egorov", "smoothing", "norm"):
        grid_cfg = raw.get("grid")
        if not isinstance(grid_cfg, dict):
            v.append(Violation("grid", "required mapping", grid_cfg))
        else:
            dim = grid_cfg.get("dim")
            if not _is_int(dim) or dim < 1:
                v.append(Violation("grid.dim", "positive integer", dim))
            half = grid_cfg.get("half_width")
            if not _is_number(half) or half <= 0:
                v.append(Violation("grid.half_width", "positive number", half))
            for n_pts in _grid_points_list(grid_cfg):
                if not _is_int(n_pts) or n_pts < 4:
                    v.append(Violation("grid.points", "integer >= 4", n_pts))
                elif n_pts % 2 != 0:
                    v.append(Violation("grid.points", "must be even", n_pts))

    if config.kind in ("egorov", "smoothing"):
        if not isinstance(raw.get("symbol"), dict) or "name" not in raw.get("symbol", {}):
            v.append(Violation("symbol", "required mapping with a 'name'", raw.get("symbol")))

    if config.kind == "smoothing":
        window_cfg = raw.get("window")
        if not isinstance(window_cfg, dict):
            v.append(Violation("window", "required for smoothing experiments", window_cfg))
        else:
            for t in _horizon_list(window_cfg):
                if not _is_number(t) or t <= 0:
                    v.append(Violation("window.horizon", "positive number", t))
            spu = window_cfg.get("steps_per_unit", 32)
            if not _is_int(spu) or spu < 1:
                v.append(Violation("window.steps_per_unit", "positive integer", spu))
        grid_cfg = raw.get("grid", {})
        if isinstance(grid_cfg, dict) and grid_cfg.get("dim") not in (None, 3):
            v.append(
                Violation(
                    "grid.dim",
                    "outside smoothing-theorem hypotheses (n >= 3); run is labeled, not blocked",
                    grid_cfg.get("dim"),
                    severity="warning",
                )
            )
        weights = raw.get("weights", {})
        delta = weights.get("delta", 1.0) if isinstance(weights, dict) else None
        if not _is_number(delta) or delta < 0:
            v.append(Violation("weights.delta", "nonnegative number", delta))
        kind = weights.get("kind", "inhomogeneous") if isinstance(weights, dict) else None
        if kind not in get_args(DerivativeKind):
            v.append(Violation("weights.kind", f"must be one of {get_args(DerivativeKind)}", kind))

    if config.kind == "norm":
        op_cfg = raw.get("operator")
        if not isinstance(op_cfg, dict) or "kind" not in op_cfg:
            v.append(Violation("operator", "required mapping with a 'kind'", op_cfg))
        elif op_cfg["kind"] in ("canonical", "canonical_inverse") and not isinstance(
            raw.get("symbol"), dict
        ):
            v.append(Violation("symbol", "required for canonical-transform norms", raw.get("symbol")))

    if config.kind == "symbol-check":
        sc = raw.get("symbol_class")
        if not isinstance(sc, dict):
            v.append(Violation("symbol_class", "required mapping", sc))
        else:
            if sc.get("kind") not in ("S00", "SG"):
                v.append(Violation("symbol_class.kind", "must be S00 or SG", sc.get("kind")))
            if not _is_int(sc.get("max_order")) or sc["max_order"] < 1:
                v.append(Violation("symbol_class.max_order", "integer >= 1", sc.get("max_order")))
        if not isinstance(raw.get("amplitude"), dict):
            v.append(Violation("amplitude", "required mapping with a 'name'", raw.get("amplitude")))

    if config.kind == "cotlar":
        fam = raw.get("family")
        if not isinstance(fam, dict) or fam.get("kind") not in ("disjoint_bumps", "random_matrices"):
            v.append(
                Violation("family.kind", "must be disjoint_bumps or random_matrices", fam)
            )
    return v


# ---------------------------------------------------------------------------
# experiment bodies
# ---------------------------------------------------------------------------


def _packet_field(grid, data_cfg: dict) -> Field:
    """Gaussian wave packet used as default probe data."""
    sigma = float(data_cfg.get("sigma", 1.2))
    carrier = data_cfg.get("carrier")
    mesh = grid.spatial_mesh()
    envelope = np.exp(-np.sum(mesh * mesh, axis=-1) / (2.0 * sigma**2))
    if carrier is None:
        return Field(grid, envelope)
    k0 = np.asarray(carrier, dtype=float)
    return Field(grid, envelope * np.exp(1j * np.einsum("...i,i->...", mesh, k0)))


def _sweep(entries, worker, threads: int):
    """Run sweep entries, optionally on a thread pool, keyed by index.

    Results come back in entry order regardless of completion order, so
    reports stay deterministic under parallel dispatch.
    """
    if threads <= 1 or len(entries) <= 1:
        return [worker(e) for e in entries]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(worker, entries))


def _run_egorov(config: ExperimentConfig, report: ReportRecord):
    raw = config.raw
    grid_cfg = raw["grid"]
    report.sweep_header = ["N", "L", "residual", "ok"]

    def worker(n_pts):
        try:
            grid = make_grid(grid_cfg["dim"], grid_cfg["half_width"], n_pts)
            p = symbol_from_config(raw["symbol"], grid.dim)
            u = _packet_field(grid, raw.get("data", {}))
            return [n_pts, grid_cfg["half_width"], egorov_residual(p, u), True], None
        except Exception as exc:  # noqa: BLE001 - propagated into the report
            return [n_pts, grid_cfg["half_width"], None, False], f"egorov N={n_pts}: {exc}"

    for row, warning in _sweep(_grid_points_list(grid_cfg), worker, config.threads):
        report.sweep_rows.append(row)
        if warning:
            report.warnings.append(warning)
            report.failed = True
    report.results["residuals"] = {
        str(r[0]): r[2] for r in report.sweep_rows if r[3]
    }


def _run_smoothing(config: ExperimentConfig, report: ReportRecord):
    raw = config.raw
    grid_cfg = raw["grid"]
    window_cfg = raw["window"]
    weights = raw.get("weights", {})
    delta = float(weights.get("delta", 1.0))
    kind = weights.get("kind", "inhomogeneous")
    steps_per_unit = int(window_cfg.get("steps_per_unit", 32))
    grid = make_grid(grid_cfg["dim"], grid_cfg["half_width"], _grid_points_list(grid_cfg)[0])
    p = symbol_from_config(raw["symbol"], grid.dim)
    if grid.dim < 3:
        report.warnings.append("outside smoothing-theorem hypotheses (n >= 3)")
    report.sweep_header = ["T", "N_t", "delta", "kind", "constant", "converged"]
    for horizon in _horizon_list(window_cfg):
        row = {"T": horizon, "delta": delta, "kind": kind}
        try:
            window = TimeWindow(horizon, int(steps_per_unit * horizon) + 1)
            row["N_t"] = window.steps
            est = smoothing_constant(
                p, grid, window, delta, kind, seed=config.seed,
                tol=float(raw.get("tol", 1e-4)), max_iters=int(raw.get("max_iters", 100)),
            )
            row["constant"], row["converged"] = est.estimate, est.converged
            if not est.converged:
                report.failed = True
        except Exception as exc:  # noqa: BLE001
            row.update(N_t=0, constant=None, converged=False)
            report.warnings.append(f"smoothing T={horizon}: {exc}")
            report.failed = True
        report.sweep_rows.append([row[k] for k in report.sweep_header])
    constants = [r[4] for r in report.sweep_rows if r[5]]
    report.results["constants"] = constants
    if len(constants) > 1:
        lo, hi = min(constants), max(constants)
        report.results["max_pairwise_deviation"] = (hi - lo) / lo if lo > 0 else None


def _build_norm_operator(raw: dict, grid):
    kind = raw["operator"]["kind"]
    if kind == "identity":
        return identity_operator(grid)
    if kind == "bracket_multiplier":
        return multiplier_operator(
            grid, lambda xi: (1.0 + np.sum(xi * xi, axis=-1)) ** 0.25, label="<xi>^1/2"
        )
    if kind in ("canonical", "canonical_inverse"):
        p = symbol_from_config(raw["symbol"], grid.dim)
        direction = "forward" if kind == "canonical" else "inverse"
        return canonical_transform_operator(gauss_phase(p), grid, direction)
    raise ValueError(f"unknown operator kind {kind!r}")


def _run_norm(config: ExperimentConfig, report: ReportRecord):
    raw = config.raw
    grid_cfg = raw["grid"]
    weights = raw.get("weights", {})
    m_in = float(weights.get("m_in", 0.0))
    m_out = float(weights.get("m_out", 0.0))
    report.sweep_header = ["label", "m_in", "m_out", "N", "L", "estimate", "iterations", "converged"]

    def worker(n_pts):
        try:
            grid = make_grid(grid_cfg["dim"], grid_cfg["half_width"], n_pts)
            op = _build_norm_operator(raw, grid)
            task = WeightedNormTask(
                op, m_in, m_out,
                max_iters=int(raw.get("max_iters", 200)),
                tol=float(raw.get("tol", 1e-6)),
                seed=config.seed,
            )
            est = operator_norm(task)
            row = [op.label, m_in, m_out, n_pts, grid_cfg["half_width"],
                   est.estimate, est.iterations, est.converged]
            return row, None if est.converged else "non-converged"
        except Exception as exc:  # noqa: BLE001
            row = ["failed", m_in, m_out, n_pts, grid_cfg["half_width"], None, 0, False]
            return row, f"norm N={n_pts}: {exc}"

    for row, warning in _sweep(_grid_points_list(grid_cfg), worker, config.threads):
        report.sweep_rows.append(row)
        if warning:
            if warning != "non-converged":
                report.warnings.append(warning)
            report.failed = True
    estimates = [r[5] for r in report.sweep_rows if r[7]]
    report.results["estimates"] = estimates
    if len(estimates) > 1 and all(e > 0 for e in estimates):
        ns = [r[3] for r in report.sweep_rows if r[7]]
        slope = float(np.polyfit(np.log(ns), np.log(estimates), 1)[0])
        report.results["log_slope"] = slope


_AMPLITUDES = {
    "reciprocal_quadratic": lambda x, xi: 1.0
    / (1.0 + np.sum(x * x, axis=-1) + np.sum(xi * xi, axis=-1)),
    "oscillating_square": lambda x, xi: np.sin(np.sum(x * x, axis=-1)),
    "constant": lambda x, xi: np.ones(np.broadcast_shapes(x.shape[:-1], xi.shape[:-1])),
}


def _run_symbol_check(config: ExperimentConfig, report: ReportRecord):
    raw = config.raw
    sc = raw["symbol_class"]
    amp_name = raw["amplitude"]["name"]
    if amp_name not in _AMPLITUDES:
        raise ValueError(f"unknown amplitude {amp_name!r}; have {sorted(_AMPLITUDES)}")
    spec = SymbolClassSpec(
        class_kind=sc["kind"],
        max_order=sc["max_order"],
        bound_tolerance=float(sc.get("bound_tolerance", 1.0)),
        weight_orders=tuple(sc["weight_orders"]) if "weight_orders" in sc else None,
    )
    rep = check_symbol_class(
        _AMPLITUDES[amp_name],
        spec,
        dim=int(sc.get("dim", 1)),
        x_half_width=float(sc.get("x_half_width", 10.0)),
        xi_half_width=float(sc.get("xi_half_width", 10.0)),
        x_points=int(sc.get("x_points", 201)),
        xi_points=int(sc.get("xi_points", 33)),
    )
    report.results.update(
        amplitude=amp_name,
        passes=rep.passes,
        worst_constant=rep.worst_constant,
        worst_orders=[list(rep.worst_orders[0]), list(rep.worst_orders[1])],
        worst_point=[list(rep.worst_point[0]), list(rep.worst_point[1])],
        max_order=rep.max_order,
        x_spacing=rep.x_spacing,
        xi_spacing=rep.xi_spacing,
    )


def _run_cotlar(config: ExperimentConfig, report: ReportRecord):
    raw = config.raw
    fam_cfg = raw["family"]
    size = int(fam_cfg.get("size", 3))
    grid = make_grid(1, float(fam_cfg.get("half_width", 8.0)), int(fam_cfg.get("points", 16)))
    rng = np.random.default_rng(config.seed)
    if fam_cfg["kind"] == "disjoint_bumps":
        width = grid.points_per_axis // size
        handles = {}
        for i in range(size):
            vals = np.zeros(grid.points_per_axis)
            vals[i * width : (i + 1) * width] = rng.random() + 0.5
            handles[(i,)] = multiplication_operator(grid, vals, label=f"bump{i}")
    else:
        handles = {
            (i,): matrix_operator(
                grid,
                rng.standard_normal((grid.size, grid.size))
                + 1j * rng.standard_normal((grid.size, grid.size)),
                label=f"rand{i}",
            )
            for i in range(size)
        }
    family = OperatorFamily(tuple(handles), lambda i: handles[i], grid)
    rep = cotlar_bound(family, seed=config.seed)
    report.results.update(
        bound=rep.bound,
        sum_norm=rep.sum_norm,
        sound=bool(rep.bound >= rep.sum_norm * (1 - 1e-9)),
        all_converged=rep.all_converged,
    )
    report.sweep_header = ["index_difference", "gamma"]
    report.sweep_rows = [[str(k), v] for k, v in sorted(rep.gamma.items())]
    if not rep.all_converged:
        report.failed = True


_RUNNERS = {
    "egorov": _run_egorov,
    "smoothing": _run_smoothing,
    "norm": _run_norm,
    "symbol-check": _run_symbol_check,
    "cotlar": _run_cotlar,
}


def run_experiment(config: ExperimentConfig, out_dir=None) -> ReportRecord:
    """Validate, run, and (optionally) persist one experiment.

    Raises ``ValueError`` if the config has error-level violations; numerical
    failures inside sweep entries are recorded in the report instead of
    aborting the sweep.
    """
    violations = validate_config(config)
    errors = [x for x in violations if x.severity == "error"]
    if errors:
        raise ValueError("; ".join(x.describe() for x in errors))
    report = ReportRecord(
        config=config.raw, kind=config.kind, seed=config.seed, version=fiolab.__version__
    )
    report.warnings.extend(x.describe() for x in violations if x.severity == "warning")
    started = time.perf_counter()
    _RUNNERS[config.kind](config, report)
    report.wall_clock_seconds = time.perf_counter() - started
    if out_dir is not None:
        write_report(report, Path(out_dir))
    return report


def write_report(report: ReportRecord, out_dir: Path):
    out_dir.mkdir(parents=True, exist_ok=True)
    # strict JSON: failed sub-runs carry null, never a bare NaN
    payload = json.dumps(report.to_json_dict(), sort_keys=True, indent=2, allow_nan=False) + "\n"
    (out_dir / "report.json").write_text(payload)
    if report.sweep_rows:
        with (out_dir / "sweep.csv").open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(report.sweep_header)
            writer.writerows(report.sweep_rows)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fiolab", description="config-driven operator experiments"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in EXPERIMENT_KINDS + ("validate",):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to a JSON experiment config")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="directory for report.json / sweep.csv")
        p.add_argument(
            "--threads", type=int, default=1,
            help="worker threads for sweep entries; results stay keyed by index",
        )
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        data = json.loads(Path(args.config).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 1
    kind = args.command if args.command != "validate" else data.get("kind", "")
    config = ExperimentConfig.from_dict(data, kind=kind, seed=args.seed, threads=args.threads)

    if args.command == "validate":
        violations = validate_config(config)
        for x in violations:
            print(x.describe())
        errors = [x for x in violations if x.severity == "error"]
        print(f"{len(errors)} error(s), {len(violations) - len(errors)} warning(s)")
        return 1 if errors else 0

    try:
        report = run_experiment(config, out_dir=args.out)
    except ValueError as exc:
        print(f"config invalid: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report.to_json_dict()["results"], sort_keys=True, indent=2))
    print(f"wall clock: {report.wall_clock_seconds:.3f} s", file=sys.stderr)
    if report.failed:
        print("one or more sub-runs failed or did not converge", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
