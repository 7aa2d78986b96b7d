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
sub-run; a run without rows removes an older ``sweep.csv`` from ``--out``.
Wall-clock time is printed to stdout but deliberately kept out of the
report files so that repeated runs are byte-identical.

Config schema (JSON object).  Fields not used by a kind are ignored;
``<...>`` marks a value to supply, and the other values shown are the
defaults of optional fields (``weights.kind`` defaults to the first)::

    {
      "kind":   "egorov" | "smoothing" | "norm" | "symbol-check" | "cotlar",
      "seed":   0,
      "symbol": {"name": "euclidean"} | {"name": "quadratic_form", "diag": <[...]>} |
                {"name": "quadratic_form", "matrix": <[[...], ...]>} (exactly one of
                 diag and matrix) |
                {"name": "perturbed", "base": <{...}>,
                 "bump_amplitude": <number>, "bump_direction": <[...]>},
      "grid":   {"dim": <int>, "half_width": <number>, "points": <N> | <[N, ...]>},
      "window": {"horizon": <T> | <[T, ...]>, "steps_per_unit": 32},
      "weights": {"m_in": 0.0, "m_out": 0.0} |
                 {"delta": 1.0, "kind": "inhomogeneous" | "homogeneous"},
      "tol":    1e-6 (norm) | 1e-4 (smoothing),  "max_iters": 200 | 100,
      "operator": {"kind": "identity" | "canonical" | "canonical_inverse"
                   | "bracket_multiplier"},
      "amplitude": {"name": "reciprocal_quadratic" | "oscillating_square"
                    | "constant"},
      "symbol_class": {"kind": "S00" | "SG", "max_order": <int>,
                       "bound_tolerance": 1.0, "weight_orders": <[m1, m2]> (SG),
                       "dim": 1, "x_half_width": 10.0, "xi_half_width": 10.0,
                       "x_points": 201, "xi_points": 33},
      "family": {"kind": "disjoint_bumps" | "random_matrices", "size": 3,
                 "half_width": 8.0, "points": 16},
      "data":   {"sigma": 1.2, "carrier": <[k_1, ..., k_dim]> (optional)}
    }

Every number in the config, read by its kind or not, must be finite: the
report echoes the config as strict JSON.  Each field is read once, by the
kind's preparation step, so a config error names its field before any
computation starts.

``tol`` bounds the relative residual ``|B*B y - theta y| / (theta |y|)`` of
the Ritz pair the norm solver returns for the measured operator ``B``.  Norm
rows are ``[label, m_in, m_out, N, L, estimate, continuum_norm, iterations,
rel_residual, converged]`` and smoothing rows ``[T, N_t, delta, kind, constant,
iterations, rel_residual, converged]``; ``iterations`` counts the solver's
applies and ``rel_residual`` is that residual (both ``null`` for a failed
row), so ``converged`` can be checked from the report: it holds when
``rel_residual <= tol`` and the estimate has settled, or when the Krylov space
became invariant.  ``continuum_norm`` is the norm of the continuum transform
that a ``canonical`` or ``canonical_inverse`` row approximates at
``m_in = m_out = 0``, ``(min |det D psi|)^{-1/2}`` or ``(max |det D psi|)^{1/2}``
over sampled unit directions, taken with no apply; it is null for other rows.
Egorov rows are ``[N, L, residual, ok]``.  A failed row
keeps its inputs; every measured column is null and ``ok``/``converged`` is
false (a norm row's ``label`` is null when its operator could not be built).

Exit codes: 0 success, 1 config error, 2 numerical failure or non-finite
result (report still written).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import get_args

import numpy as np

import fiolab
from fiolab.lattice import Field, make_grid
from fiolab.normest import cotlar_bound, operator_norm
from fiolab.operators import (
    canonical_transform_operator,
    identity_operator,
    matrix_operator,
    multiplication_operator,
    multiplier_operator,
    weight_operator,
)
from fiolab.symbols import (
    SymbolClassReport,
    SymbolClassSpec,
    check_jacobian_bound,
    check_symbol_class,
    euclidean_symbol,
    gauss_phase,
    perturbed_symbol,
    quadratic_form_symbol,
    sample_axis,
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
    raw: object  # the parsed JSON; anything but a mapping is a config error
    seed: int | None = None  # overrides the config's "seed" when set

    @staticmethod
    def from_dict(data, kind: str | None = None, seed: int | None = None):
        raw = dict(data) if isinstance(data, dict) else data
        actual_kind = kind or (raw.get("kind", "") if isinstance(raw, dict) else "")
        return ExperimentConfig(actual_kind, raw, seed)


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


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x) -> bool:
    # JSON's NaN and Infinity literals and ints beyond float range fail the bound
    return isinstance(x, (int, float)) and not isinstance(x, bool) and abs(x) <= sys.float_info.max


# (predicate, constraint) checks for _Reader.read
_POSITIVE_INT = (lambda x: _is_int(x) and x >= 1, "positive integer")
_SEED = (lambda x: _is_int(x) and x >= 0, "nonnegative integer")
_NUMBER = (_is_number, "finite number")
_POSITIVE = (lambda x: _is_number(x) and x > 0, "positive finite number")
_NONNEGATIVE = (lambda x: _is_number(x) and x >= 0, "nonnegative finite number")
_GRID_POINTS = (lambda x: _is_int(x) and x >= 4 and x % 2 == 0, "even integer >= 4")
_MAPPING = (lambda x: isinstance(x, dict), "mapping")


def _one_of(choices: tuple) -> tuple:
    return (lambda x: x in choices, f"must be one of {choices}")


def _vector(n: int) -> tuple:
    return (lambda x: isinstance(x, list) and len(x) == n and all(map(_is_number, x)),
            f"list of {n} finite numbers")


def _matrix(n: int) -> tuple:
    return (lambda x: isinstance(x, list) and len(x) == n and all(map(_vector(n)[0], x)),
            f"list of {n} lists of {n} finite numbers")


_REQUIRED = object()


class _Reader:
    """Reads config fields and collects a violation per bad one; a bad field
    reads as its default, or as ``None`` when it is required."""

    def __init__(self):
        self.violations: list[Violation] = []

    def error(self, field: str, constraint: str, actual, severity: str = "error"):
        self.violations.append(Violation(field, constraint, actual, severity))

    def read(self, section: dict, path: str, check: tuple, default=_REQUIRED):
        key = path.rpartition(".")[2]
        if key not in section and default is not _REQUIRED:
            return default
        value = section.get(key)
        if check[0](value):
            return value
        self.error(path, check[1], value)
        return None if default is _REQUIRED else default

    def section(self, raw: dict, name: str, default=_REQUIRED) -> dict:
        return self.read(raw, name, _MAPPING, default) or {}

    def read_list(self, section: dict, path: str, check: tuple):
        """A required value or non-empty list of values, as a list."""
        value = section.get(path.rpartition(".")[2])
        values = list(value) if isinstance(value, (list, tuple)) else [value]
        if values and all(check[0](v) for v in values):
            return values
        self.error(path, f"{check[1]} or a non-empty list of them", value)
        return None

    def build(self, field: str, make, *args):
        """``make(*args)``; a rejection becomes a violation of ``field``."""
        try:
            return make(*args)
        except (TypeError, ValueError, ArithmeticError, MemoryError) as exc:
            self.error(field, str(exc), args[0])
            return None


def _read_grids(r: _Reader, raw: dict):
    """One grid per ``grid.points`` entry (none if the section is bad), and
    the half width as written, for the report rows."""
    g = r.section(raw, "grid")
    dim = r.read(g, "grid.dim", _POSITIVE_INT)
    half = r.read(g, "grid.half_width", _POSITIVE)
    points = r.read_list(g, "grid.points", _GRID_POINTS)
    if None in (dim, half, points):
        return [], half
    grids = r.build("grid.half_width", lambda h: [make_grid(dim, h, n) for n in points], half)
    # a size whose mesh cannot be allocated is refused here; the mesh is cached for the run
    meshes = grids and r.build("grid.points", lambda _: [grid.spatial_mesh() for grid in grids],
                               points)
    return (grids if meshes else []), half


def _read_symbol(r: _Reader, section: dict, dim: int, path: str = "symbol"):
    """The symbol that the mapping at ``path`` in ``section`` names, or ``None``
    when a field is bad; a ``perturbed`` symbol's ``base`` is read the same way."""
    s = r.read(section, path, _MAPPING)
    names = ("euclidean", "quadratic_form", "perturbed")
    name = r.read(s, f"{path}.name", _one_of(names)) if s is not None else None
    if name == "euclidean":
        return euclidean_symbol(dim)
    if name == "quadratic_form":
        if ("diag" in s) == ("matrix" in s):
            r.error(path, "exactly one of diag and matrix", sorted(s))
        elif "diag" in s:
            diag = r.read(s, f"{path}.diag", _vector(dim))
            return diag and r.build(path, quadratic_form_symbol, np.diag(diag).tolist())
        else:
            matrix = r.read(s, f"{path}.matrix", _matrix(dim))
            return matrix and r.build(path, quadratic_form_symbol, matrix)
    if name == "perturbed":
        base = _read_symbol(r, s, dim, f"{path}.base")
        amplitude = r.read(s, f"{path}.bump_amplitude", _NUMBER)
        direction = r.read(s, f"{path}.bump_direction", _vector(dim))
        if None in (base, amplitude, direction):
            return None
        return r.build(path, lambda a: perturbed_symbol(base, a, direction), amplitude)
    return None


def _sweep(report: ReportRecord, header: list, key: str, entries: list, worker) -> list:
    """Append a row per entry, in order, that ``worker(entry, row)`` fills by
    ``header``'s names, inputs first.  If it raises, the row keeps what was
    filled, the rest is null, the last column (ok/converged) false, and a
    warning names the ``key`` column.  A false last column fails the run.
    Returns the rows whose last column is true, as dicts."""
    report.sweep_header = header
    done = []
    for entry in entries:
        row = {}
        try:
            worker(entry, row)
        except Exception as exc:  # noqa: BLE001 - propagated into the report
            report.warnings.append(f"{report.kind} {key}={row[key]}: {exc}")
            row = {**dict.fromkeys(header), **row, header[-1]: False}
        report.sweep_rows.append([row[name] for name in header])
        if row[header[-1]]:
            done.append(row)
        else:
            report.failed = True
    return done


# ---------------------------------------------------------------------------
# experiment kinds: each reads its fields and returns the body that runs it
# ---------------------------------------------------------------------------


def _packet_exponent(grid, sigma: float) -> np.ndarray:
    """``|x|^2 / (2 sigma^2)`` on the grid; raises where it is not finite
    (``sigma^2`` underflowing or overflowing, or ``sigma`` far below the spacing)."""
    mesh = grid.spatial_mesh()
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        exponent = np.sum(mesh * mesh, axis=-1) / (2.0 * sigma**2)
    if not np.all(np.isfinite(exponent)):
        raise ValueError(f"packet exponent |x|^2 / (2 sigma^2) is not finite on the "
                         f"{grid.points_per_axis}-point grid")
    return exponent


def _packet_field(grid, sigma: float, carrier) -> Field:
    """Gaussian wave packet used as default probe data."""
    envelope = np.exp(-_packet_exponent(grid, sigma))
    if carrier is None:
        return Field(grid, envelope)
    k0 = np.asarray(carrier, dtype=float)
    return Field(grid, envelope * np.exp(1j * np.einsum("...i,i->...", grid.spatial_mesh(), k0)))


def _prepare_egorov(r: _Reader, raw: dict, seed: int):
    grids, half = _read_grids(r, raw)
    p = _read_symbol(r, raw, grids[0].dim) if grids else None
    if p is not None:  # egorov_residual builds this Gauss map per row; refuse a degenerate one
        r.build("symbol", lambda _: gauss_phase(p), raw["symbol"])
    data = r.section(raw, "data", {})
    sigma = float(r.read(data, "data.sigma", _POSITIVE, 1.2))
    r.build("data.sigma", lambda s: [_packet_exponent(g, s) for g in grids], sigma)
    carrier = r.read(data, "data.carrier", _vector(grids[0].dim), None) if grids else None

    def body(report: ReportRecord):
        def worker(grid, row):
            row.update(N=grid.points_per_axis, L=half)
            row["residual"] = egorov_residual(p, _packet_field(grid, sigma, carrier))
            row["ok"] = True

        done = _sweep(report, ["N", "L", "residual", "ok"], "N", grids, worker)
        report.results["residuals"] = {str(row["N"]): row["residual"] for row in done}

    return body


def _prepare_smoothing(r: _Reader, raw: dict, seed: int):
    grids, _ = _read_grids(r, raw)
    if len(grids) > 1:
        r.error("grid.points", "one size: smoothing sweeps window.horizon", raw["grid"]["points"])
    grid = grids[0] if grids else None
    p = _read_symbol(r, raw, grids[0].dim) if grids else None
    if grid and grid.dim < 3:
        r.error("grid.dim", "outside smoothing-theorem hypotheses (n >= 3); run is labeled, "
                "not blocked", grid.dim, severity="warning")
    window_cfg = r.section(raw, "window")
    horizons = r.read_list(window_cfg, "window.horizon", _POSITIVE) or []
    steps_per_unit = r.read(window_cfg, "window.steps_per_unit", _POSITIVE_INT, 32)
    windows = [r.build("window.horizon", lambda t: TimeWindow(t, int(steps_per_unit * t) + 1), t)
               for t in horizons]
    weights = r.section(raw, "weights", {})
    delta = float(r.read(weights, "weights.delta", _NONNEGATIVE, 1.0))
    kind = r.read(weights, "weights.kind", _one_of(get_args(DerivativeKind)), "inhomogeneous")
    tol = float(r.read(raw, "tol", _POSITIVE, 1e-4))
    max_iters = r.read(raw, "max_iters", _POSITIVE_INT, 100)

    def body(report: ReportRecord):
        def worker(w, row):
            row.update(T=w.horizon, N_t=w.steps, delta=delta, kind=kind)
            est = smoothing_constant(p, grid, w, delta, kind, seed=seed, tol=tol,
                                     max_iters=max_iters)
            row.update(constant=est.estimate, iterations=est.iterations,
                       rel_residual=est.residual, converged=est.converged)

        header = ["T", "N_t", "delta", "kind", "constant", "iterations", "rel_residual",
                  "converged"]
        constants = [row["constant"] for row in _sweep(report, header, "T", windows, worker)]
        report.results["constants"] = constants
        if len(constants) > 1:
            lo, hi = min(constants), max(constants)
            report.results["max_pairwise_deviation"] = (hi - lo) / lo if lo > 0 else None

    return body


_NORM_OPERATORS = ("identity", "bracket_multiplier", "canonical", "canonical_inverse")
# unit-sphere directions for a canonical norm's continuum value; a multiple
# of 4, so that the 2-D sample holds both axis directions
_JACOBIAN_SAMPLES = 360


def _norm_operator(kind: str, grid, psi):
    if kind == "identity":
        return identity_operator(grid)
    if kind == "bracket_multiplier":
        return multiplier_operator(
            grid, lambda xi: (1.0 + np.sum(xi * xi, axis=-1)) ** 0.25, label="<xi>^1/2"
        )
    direction = "forward" if kind == "canonical" else "inverse"
    return canonical_transform_operator(psi, grid, direction)


def _continuum_norm(kind: str, psi) -> float:
    """The continuum L2 norm of the canonical transform ``kind`` names, from
    sampled Jacobian determinants: ``(min |det D psi|)^{-1/2}``, or
    ``(max |det D psi|)^{1/2}`` for ``canonical_inverse``."""
    jac = check_jacobian_bound(psi, _JACOBIAN_SAMPLES)
    return jac.min_abs_det**-0.5 if kind == "canonical" else jac.max_abs_det**0.5


def _prepare_norm(r: _Reader, raw: dict, seed: int):
    grids, half = _read_grids(r, raw)
    kind = r.read(r.section(raw, "operator"), "operator.kind", _one_of(_NORM_OPERATORS))
    canonical = kind in ("canonical", "canonical_inverse")
    p = _read_symbol(r, raw, grids[0].dim) if grids and canonical else None
    psi = p and r.build("symbol", lambda _: gauss_phase(p), raw["symbol"])
    weights = r.section(raw, "weights", {})
    m_in = float(r.read(weights, "weights.m_in", _NUMBER, 0.0))
    m_out = float(r.read(weights, "weights.m_out", _NUMBER, 0.0))
    # the weights <x>^{m_out} and <x>^{-m_in} must be finite on every grid
    r.build("weights.m_out", lambda m: [weight_operator(g, m) for g in grids], m_out)
    r.build("weights.m_in", lambda m: [weight_operator(g, -m) for g in grids], m_in)
    tol = float(r.read(raw, "tol", _POSITIVE, 1e-6))
    max_iters = r.read(raw, "max_iters", _POSITIVE_INT, 200)
    # a zero Jacobian determinant raises ZeroDivisionError, a violation of the symbol
    continuum = (r.build("symbol", lambda _: _continuum_norm(kind, psi), raw["symbol"])
                 if psi and m_in == m_out == 0 else None)

    def body(report: ReportRecord):
        def worker(grid, row):
            row.update(m_in=m_in, m_out=m_out, N=grid.points_per_axis, L=half)
            op = _norm_operator(kind, grid, psi)
            row.update(label=op.label, continuum_norm=continuum)
            est = operator_norm(op, m_in, m_out, tol=tol, max_iters=max_iters, seed=seed)
            row.update(estimate=est.estimate, iterations=est.iterations,
                       rel_residual=est.residual, converged=est.converged)

        header = ["label", "m_in", "m_out", "N", "L", "estimate", "continuum_norm", "iterations",
                  "rel_residual", "converged"]
        done = _sweep(report, header, "N", grids, worker)
        estimates = [row["estimate"] for row in done]
        report.results["estimates"] = estimates
        if len(estimates) > 1 and all(e > 0 for e in estimates):
            ns = [row["N"] for row in done]
            slope = float(np.polyfit(np.log(ns), np.log(estimates), 1)[0])
            report.results["log_slope"] = slope

    return body


_AMPLITUDES = {
    "reciprocal_quadratic": lambda x, xi: 1.0
    / (1.0 + np.sum(x * x, axis=-1) + np.sum(xi * xi, axis=-1)),
    "oscillating_square": lambda x, xi: np.sin(np.sum(x * x, axis=-1)),
    "constant": lambda x, xi: np.ones(np.broadcast_shapes(x.shape[:-1], xi.shape[:-1])),
}


def _prepare_symbol_check(r: _Reader, raw: dict, seed: int):
    amp_name = r.read(r.section(raw, "amplitude"), "amplitude.name", _one_of(tuple(_AMPLITUDES)))
    sc = r.section(raw, "symbol_class")
    class_kind = r.read(sc, "symbol_class.kind", _one_of(("S00", "SG")))
    max_order = r.read(sc, "symbol_class.max_order", _POSITIVE_INT)
    tolerance = float(r.read(sc, "symbol_class.bound_tolerance", _POSITIVE, 1.0))
    weight_orders = r.read(sc, "symbol_class.weight_orders", _vector(2), None)
    spec = None
    if class_kind and max_order:
        spec = r.build("symbol_class", SymbolClassSpec, class_kind, max_order, tolerance,
                       tuple(weight_orders) if weight_orders else None)
    sampling = dict(
        dim=r.read(sc, "symbol_class.dim", _POSITIVE_INT, 1),
        x_half_width=float(r.read(sc, "symbol_class.x_half_width", _POSITIVE, 10.0)),
        xi_half_width=float(r.read(sc, "symbol_class.xi_half_width", _POSITIVE, 10.0)),
        x_points=r.read(sc, "symbol_class.x_points", _POSITIVE_INT, 201),
        xi_points=r.read(sc, "symbol_class.xi_points", _POSITIVE_INT, 33),
    )
    for axis in ("x", "xi"):
        r.build(f"symbol_class.{axis}_half_width", sample_axis, sampling[f"{axis}_half_width"],
                sampling[f"{axis}_points"])
    for key in ("x_points", "xi_points"):
        if spec and sampling[key] < spec.min_points:
            r.error(f"symbol_class.{key}", f"at least {spec.min_points} points for derivative "
                    f"order {max_order}", sampling[key])
    # a sampling table that cannot be allocated is refused here; the probe is dropped at once
    nx, nxi = sampling["x_points"], sampling["xi_points"]
    r.build("symbol_class", lambda n: np.empty((nx,) * n + (nxi,) * n, np.complex128),
            sampling["dim"])

    def body(report: ReportRecord):
        names = ["amplitude"] + [f.name for f in fields(SymbolClassReport)]
        report.results.update(dict.fromkeys(names))
        rep = check_symbol_class(_AMPLITUDES[amp_name], spec, **sampling)
        report.results.update(amplitude=amp_name, **asdict(rep))

    return body


def _prepare_cotlar(r: _Reader, raw: dict, seed: int):
    fam = r.section(raw, "family")
    kind = r.read(fam, "family.kind", _one_of(("disjoint_bumps", "random_matrices")))
    size = r.read(fam, "family.size", _POSITIVE_INT, 3)
    half = r.read(fam, "family.half_width", _POSITIVE, 8.0)
    points = r.read(fam, "family.points", _GRID_POINTS, 16)
    if kind == "disjoint_bumps" and size > points:
        r.error("family.size", f"at most family.points = {points} disjoint bumps", size)
    grid = r.build("family.half_width", lambda h: make_grid(1, h, points), half)

    def body(report: ReportRecord):
        report.results.update(dict.fromkeys(("bound", "sum_norm", "sound", "all_converged")))
        report.sweep_header = ["index_difference", "gamma"]
        rng = np.random.default_rng(seed)
        if kind == "disjoint_bumps":
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
        rep = cotlar_bound(handles, seed=seed)
        report.results.update(
            bound=rep.bound,
            sum_norm=rep.sum_norm,
            sound=bool(rep.bound >= rep.sum_norm * (1 - 1e-9)),
            all_converged=rep.all_converged,
        )
        report.sweep_rows = [[str(k), v] for k, v in sorted(rep.gamma.items())]
        if not rep.all_converged:
            report.failed = True

    return body


_PREPARE = {
    "egorov": _prepare_egorov,
    "smoothing": _prepare_smoothing,
    "norm": _prepare_norm,
    "symbol-check": _prepare_symbol_check,
    "cotlar": _prepare_cotlar,
}


def _prepare(config: ExperimentConfig):
    """Read every field of the experiment once and build its cheap objects;
    return the violations and a closure that runs the experiment into a new
    report, to be called only when no violation is an error."""
    r = _Reader()
    raw = config.raw
    if not isinstance(raw, dict):
        r.error("config", "top level must be a JSON object", type(raw).__name__)
        return r.violations, None
    if config.kind not in EXPERIMENT_KINDS:
        r.error("kind", f"must be one of {EXPERIMENT_KINDS}", config.kind)
        return r.violations, None
    if raw.get("kind", config.kind) != config.kind:
        r.error("kind", f"the config is not for the {config.kind!r} command", raw["kind"])
        return r.violations, None
    seed = r.read(raw if config.seed is None else {"seed": config.seed}, "seed", _SEED, 0)
    body = _PREPARE[config.kind](r, raw, seed)
    named = {x.field for x in r.violations}
    for path, value in _non_finite_numbers(raw):
        if not any(path == f or path.startswith((f + ".", f + "[")) for f in named):
            r.error(path, "finite number (the report echoes the config as strict JSON)", value)

    def run() -> ReportRecord:
        report = ReportRecord(raw, config.kind, seed, fiolab.__version__)
        report.warnings.extend(x.describe() for x in r.violations if x.severity == "warning")
        try:
            body(report)
        except Exception as exc:  # noqa: BLE001 - a numerical failure, reported
            report.failed = True
            report.warnings.append(f"{config.kind}: {exc}")
        results, rows = _finite_or_none(report.results), _finite_or_none(report.sweep_rows)
        if (results, rows) != (report.results, report.sweep_rows):
            report.results, report.sweep_rows = results, rows
            report.failed = True
            report.warnings.append(f"{config.kind}: non-finite numbers reported as null")
        return report

    return r.violations, run


def _non_finite_numbers(value, path: str = ""):
    """``(dotted path, value)`` of each NaN or infinite float in parsed JSON."""
    if isinstance(value, float) and not _is_number(value):
        yield path, value
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from _non_finite_numbers(item, f"{path}.{key}" if path else str(key))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _non_finite_numbers(item, f"{path}[{i}]")


def validate_config(config: ExperimentConfig) -> list:
    """Collect violations; empty error list means the experiment can run."""
    return _prepare(config)[0]


def _finite_or_none(value):
    """``value`` with every non-finite float in its dicts, lists and tuples set to ``None``."""
    if isinstance(value, float) and not _is_number(value):
        return None
    if isinstance(value, dict):
        return {k: _finite_or_none(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value)(_finite_or_none(v) for v in value)
    return value


def run_experiment(config: ExperimentConfig, out_dir=None) -> ReportRecord:
    """Validate, run, and (optionally) persist one experiment.

    Raises ``ValueError`` if the config has error-level violations, and
    ``OSError`` if ``out_dir`` cannot be made a directory, both before any
    computation.  A numerical failure, in a sweep entry or in a whole run,
    is recorded in the report instead: ``failed`` is set, the message joins
    ``warnings``, and a missing or non-finite number is ``None``.
    """
    violations, run = _prepare(config)
    errors = [x for x in violations if x.severity == "error"]
    if errors:
        raise ValueError("; ".join(x.describe() for x in errors))
    if out_dir is not None:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    report = run()
    report.wall_clock_seconds = time.perf_counter() - started
    if out_dir is not None:
        write_report(report, Path(out_dir))
    return report


def write_report(report: ReportRecord, out_dir: Path):
    out_dir.mkdir(parents=True, exist_ok=True)
    # strict JSON: failed sub-runs carry null, never a bare NaN
    payload = json.dumps(report.to_json_dict(), sort_keys=True, indent=2, allow_nan=False) + "\n"
    (out_dir / "report.json").write_text(payload)
    sweep = out_dir / "sweep.csv"
    if report.sweep_rows:
        with sweep.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(report.sweep_header)
            writer.writerows(report.sweep_rows)
    else:
        # a reused directory must not pair this report with an older run's rows
        sweep.unlink(missing_ok=True)


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
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        data = json.loads(Path(args.config).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 1
    kind = None if args.command == "validate" else args.command
    config = ExperimentConfig.from_dict(data, kind=kind, seed=args.seed)

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
    except OSError as exc:
        print(f"cannot use --out {args.out}: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report.to_json_dict()["results"], sort_keys=True, indent=2))
    print(f"wall clock: {report.wall_clock_seconds:.3f} s", file=sys.stderr)
    if report.failed:
        print("one or more sub-runs failed or did not converge", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
