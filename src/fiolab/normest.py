"""Operator-norm measurement on weighted spaces and two bound engines.

``operator_norm`` runs plain power iteration on the normal operator
``B* B`` with ``B = <x>^{m_out} T <x>^{-m_in}``; weights are exact diagonal
multiplications, so the unweighted iteration is reused unchanged.  The
iteration starts from a fixed-seed random field and reports convergence
honestly: a stalled run returns its last estimate with ``converged=False``
and never raises.

``schur_bound`` and ``cotlar_bound`` implement the two classical kernel /
almost-orthogonality bound engines.  Both are guaranteed upper bounds for
the exact operator norm; the tests quantify that they also dominate the
power-iteration estimates in randomized trials.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Mapping

import numpy as np

from fiolab.lattice import Field, Grid, inner_product
from fiolab.operators import OperatorHandle, add, compose, weight_operator

__all__ = [
    "WeightedNormTask",
    "NormEstimate",
    "OperatorFamily",
    "CotlarReport",
    "operator_norm",
    "power_iteration",
    "schur_bound",
    "cotlar_bound",
    "decompose_unity",
]


@dataclass(frozen=True)
class WeightedNormTask:
    """Norm-measurement request for ``T : L2_{m_in} -> L2_{m_out}``."""

    op: OperatorHandle
    m_in: float = 0.0
    m_out: float = 0.0
    max_iters: int = 100
    tol: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


@dataclass(frozen=True)
class NormEstimate:
    estimate: float
    iterations: int
    converged: bool


def _random_field(grid: Grid, seed: int) -> Field:
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    return Field(grid, vals)


def _adjoint(h: OperatorHandle) -> OperatorHandle:
    """The handle of ``h*``: apply and adjoint swapped."""
    return replace(h, apply=h.apply_adjoint, apply_adjoint=h.apply, label=f"({h.label})*")


def _normal_apply(b: OperatorHandle) -> Callable[[Field], Field]:
    """``v -> B* B v``, the operator whose top eigenvalue is ``|B|^2``."""
    return compose(_adjoint(b), b).apply


def power_iteration(
    normal_apply: Callable[[Field], Field],
    start: Field,
    tol: float,
    max_iters: int,
) -> NormEstimate:
    """Largest singular value of ``B`` from its normal operator ``B* B``.

    ``normal_apply`` must implement ``v -> B* B v``.  The estimate after
    each step is ``sqrt(<v, B*Bv> / <v, v>)``; convergence means two
    successive estimates differ by less than ``tol`` relatively.
    """
    v = start
    v_norm = np.sqrt(inner_product(v, v).real)
    if v_norm == 0:
        raise ValueError("power iteration start vector is zero")
    v = v * (1.0 / v_norm)
    previous = None
    estimate = 0.0
    for it in range(1, max_iters + 1):
        w = normal_apply(v)
        rayleigh = inner_product(w, v).real
        estimate = float(np.sqrt(max(rayleigh, 0.0)))
        w_norm = np.sqrt(inner_product(w, w).real)
        if w_norm == 0.0:
            return NormEstimate(0.0, it, True)
        v = w * (1.0 / w_norm)
        if previous is not None and abs(estimate - previous) <= tol * max(estimate, 1e-300):
            return NormEstimate(estimate, it, True)
        previous = estimate
    return NormEstimate(estimate, max_iters, False)


def operator_norm(task: WeightedNormTask) -> NormEstimate:
    """Weighted operator norm by power iteration on the normal operator.

    Deterministic for a fixed seed.  Non-convergence is reported through
    the ``converged`` flag, never as an exception.
    """
    grid = task.op.grid
    if task.m_in == 0.0 and task.m_out == 0.0:
        b = task.op
    else:
        b = compose(weight_operator(grid, task.m_out), task.op, weight_operator(grid, -task.m_in))
    start = _random_field(grid, task.seed)
    return power_iteration(_normal_apply(b), start, task.tol, task.max_iters)


# ---------------------------------------------------------------------------
# Schur test
# ---------------------------------------------------------------------------


def schur_bound(kernel: np.ndarray, row_volume: float = 1.0, col_volume: float = 1.0) -> float:
    """Schur bound ``sqrt(R C)`` for the integral kernel ``s(x_j, y_l)``.

    ``R = sup_j sum_l |s| * col_volume`` and ``C = sup_l sum_j |s| * row_volume``
    are the weighted row and column mass; the classical lemma is the case
    ``R, C <= 1``.  Always an upper bound for the L2 -> L2 operator norm of
    ``u -> sum_l s(.,y_l) u_l * col_volume``.
    """
    k = np.abs(np.asarray(kernel))
    if k.ndim != 2:
        raise ValueError("kernel must be a matrix")
    if not np.all(np.isfinite(k)):
        raise ValueError("kernel must be finite")
    row_mass = float(np.max(np.sum(k, axis=1)) * col_volume) if k.size else 0.0
    col_mass = float(np.max(np.sum(k, axis=0)) * row_volume) if k.size else 0.0
    return float(np.sqrt(row_mass * col_mass))


# ---------------------------------------------------------------------------
# Cotlar-Stein bound
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OperatorFamily:
    """Finite family of operators indexed by integer tuples on one grid."""

    indices: tuple
    member: Callable[[tuple], OperatorHandle]
    grid: Grid

    def __post_init__(self):
        indices = tuple(tuple(int(c) for c in np.atleast_1d(i)) for i in self.indices)
        object.__setattr__(self, "indices", indices)
        if len(indices) == 0:
            raise ValueError("operator family must be non-empty")
        ranks = {len(i) for i in indices}
        if len(ranks) != 1:
            raise ValueError("family indices must share one rank")


@dataclass(frozen=True)
class CotlarReport:
    bound: float
    gamma: Mapping[tuple, float]
    sum_norm: float
    all_converged: bool


def cotlar_bound(
    family: OperatorFamily,
    tol: float = 1e-8,
    max_iters: int = 400,
    seed: int = 0,
) -> CotlarReport:
    """Almost-orthogonality bound ``sum_k gamma(k)`` for ``sum_j T_j``.

    ``gamma(k)`` is the square root of the largest pairwise product norm
    ``max(|T_i* T_j|, |T_i T_j*|)`` over realized index differences
    ``i - j = k`` (the finite-family truncation of the classical lemma).
    The true norm of the summed operator is measured alongside for
    comparison.  Any non-converged pairwise iteration lowers confidence in
    the bound, reported through ``all_converged``.
    """
    handles = {idx: family.member(idx) for idx in family.indices}
    grid = family.grid
    start = _random_field(grid, seed)
    all_converged = True
    gamma: dict[tuple, float] = {}
    for i in family.indices:
        for j in family.indices:
            diff = tuple(a - b for a, b in zip(i, j))
            ti, tj = handles[i], handles[j]
            est1 = power_iteration(_normal_apply(compose(_adjoint(ti), tj)), start, tol, max_iters)
            est2 = power_iteration(_normal_apply(compose(ti, _adjoint(tj))), start, tol, max_iters)
            all_converged = all_converged and est1.converged and est2.converged
            candidate = float(np.sqrt(max(est1.estimate, est2.estimate)))
            gamma[diff] = max(gamma.get(diff, 0.0), candidate)

    bound = float(sum(gamma.values()))
    summed = add(*(handles[idx] for idx in family.indices))
    sum_est = power_iteration(_normal_apply(summed), start, tol, max_iters)
    all_converged = all_converged and sum_est.converged
    return CotlarReport(
        bound=bound, gamma=gamma, sum_norm=sum_est.estimate, all_converged=all_converged
    )


# ---------------------------------------------------------------------------
# partition of unity
# ---------------------------------------------------------------------------


def decompose_unity(profile: Callable[[np.ndarray], np.ndarray], grid: Grid) -> dict:
    """Translate a compactly supported bump over the integer lattice.

    ``profile`` is a one-dimensional nonnegative profile supported in a
    bounded interval; the n-dimensional bump is its tensor product.  The
    translates ``g_k(x) = g(x - k)`` for integer lattice points ``k`` in the
    box are periodized by wrap-around, and their sum must reproduce 1 at
    every grid point to 1e-12, otherwise the decomposition is rejected with
    the worst point named.

    Returns a dict mapping lattice index tuples to weight :class:`Field`.
    """
    half = int(np.floor(grid.half_width))
    if half < 1:
        raise ValueError("grid half-width must cover at least one lattice cell")
    centers = np.arange(-half, half)
    axis = grid.spatial_axis()
    span = 2.0 * grid.half_width

    # periodized 1-d translates: g(x - k) summed over box images
    profiles_1d = {}
    for c in centers:
        total = np.zeros_like(axis)
        for shift in (-span, 0.0, span):
            total = total + np.asarray(profile(axis - c + shift), dtype=float)
        profiles_1d[int(c)] = total

    fields = {}
    for idx in np.ndindex(*(len(centers),) * grid.dim):
        key = tuple(int(centers[i]) for i in idx)
        vals = np.ones(grid.shape)
        for axis_i, c in enumerate(key):
            shape = [1] * grid.dim
            shape[axis_i] = grid.points_per_axis
            vals = vals * profiles_1d[c].reshape(shape)
        fields[key] = Field(grid, vals)

    total = np.zeros(grid.shape)
    for f in fields.values():
        total = total + f.values.real
    deviation = np.abs(total - 1.0)
    worst = np.unravel_index(int(np.argmax(deviation)), grid.shape)
    if deviation[worst] > 1e-12:
        point = grid.spatial_mesh()[worst]
        raise ValueError(
            f"translates do not form a partition of unity: sum deviates by "
            f"{deviation[worst]:.3e} at x = {point.tolist()}"
        )
    return fields
