"""Operator-norm measurement on weighted spaces and two bound engines.

Every norm, here and in ``dispersive.smoothing_constant``, is one call of
``power_iteration`` on a normal operator ``B* B``; it checks ``tol`` and
``max_iters`` for all of them.  Despite its name, that solver is Lanczos
(Golub-Kahan bidiagonalization of ``B``): the name stays because
``perfbench/spans.py`` wraps the function, and ``perfbench/make_references.py``
swaps in its reference solver, under that name in ``normest`` and
``dispersive``.  ``tol`` bounds the relative residual of the returned Ritz
pair.  ``operator_norm`` takes ``B = <x>^{m_out} T <x>^{-m_in}``, with
weights as exact diagonal multiplications; a handle's own ``normal``, when
it has one, serves as ``B* B`` (``_normal_apply``).  The solver starts from a
fixed-seed random field and reports convergence honestly: a run that
exhausts ``max_iters`` returns its last estimate with ``converged=False``.

``schur_bound`` and ``cotlar_bound`` are the classical kernel and
almost-orthogonality upper bounds for the exact operator norm.  Since
``|T_j* T_i| = |T_i* T_j|`` and ``|T_j T_i*| = |T_i T_j*|``, ``gamma(-k) =
gamma(k)``, and ``cotlar_bound`` solves each unordered pair once: K^2 + 1
solves for a K-member family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from fiolab.lattice import Field, Grid
from fiolab.operators import OperatorHandle, add, adjoint, compose, weight_operator

__all__ = [
    "NormEstimate",
    "CotlarReport",
    "operator_norm",
    "power_iteration",
    "schur_bound",
    "cotlar_bound",
]


@dataclass(frozen=True)
class NormEstimate:
    estimate: float
    iterations: int  # normal-operator applies
    converged: bool
    residual: float | None = None  # relative residual of the Ritz pair; None if not measured


# steps that the residual test and the top Ritz value must hold for before
# the solver stops: a cluster's top member can enter the Krylov space late,
# after a lower member's residual has already dipped below tol
_HOLD_STEPS = 2


def _random_field(grid: Grid, seed: int) -> Field:
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    return Field(grid, vals)


def _inner(a: np.ndarray, b: np.ndarray) -> complex:
    """``sum(conj(a) b)``, as ``np.vdot`` but without BLAS.

    OpenBLAS threads its dot products above 10000 entries, and its threads
    then spin for a while after each call; under a normal apply that runs
    its own two workers (``dispersive.smoothing_constant``) they would take
    the second core.
    """
    return complex(np.sum(np.conjugate(a) * b))


def _normal_apply(b: OperatorHandle) -> Callable[[Field], Field]:
    """``v -> B* B v``, the operator whose top eigenvalue is ``|B|^2``: the
    handle's own ``normal`` when it has one (a canonical transform's FFT
    convolution, see ``operators.canonical_transform_operator``), else
    ``apply`` followed by ``apply_adjoint``."""
    if b.normal is not None:
        return b.normal
    return compose(adjoint(b), b).apply


def power_iteration(
    normal_apply: Callable[[Field], Field],
    start: Field,
    tol: float,
    max_iters: int,
) -> NormEstimate:
    """Largest singular value of ``B`` by Lanczos on its normal operator ``B* B``.

    ``normal_apply`` must implement ``v -> B* B v``.  Step k applies it once
    and extends the three-term recurrence

        beta_k v_{k+1} = B*B v_k - alpha_k v_k - beta_{k-1} v_{k-1}

    with one re-orthogonalization against ``v_k``.  No basis is stored, so
    the solver holds three fields whatever the step count; the top Ritz
    value stays accurate without one while ``tol`` is well above
    ``sqrt(eps)`` (Paige 1976).  With ``theta`` the top eigenvalue of the
    k x k tridiagonal ``T_k`` and ``s`` its unit eigenvector, the estimate
    is ``sqrt(theta)`` and the Ritz pair's relative residual
    ``|B*B y - theta y| / (theta |y|)`` is ``beta_k |s_k| / theta``, read
    off ``T_k`` without an apply.  The solver stops, converged, once that
    residual has been at most ``tol`` for ``_HOLD_STEPS`` steps after the
    first, with ``theta`` moving by less than ``tol * theta`` over them, or
    on breakdown, ``beta_k <= eps * theta``, where the Krylov space is
    invariant.  It never stops because two estimates agree.  ``iterations``
    counts the applies.
    """
    if not tol > 0:  # a NaN fails too
        raise ValueError(f"tol must be positive, got {tol}")
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    grid = start.grid
    start_norm = math.sqrt(_inner(start.values, start.values).real)
    if start_norm == 0:
        raise ValueError("solver start vector is zero")
    # the grid's cell volume scales both sides of every pairing, so plain
    # sums over samples serve as the inner product
    v = start.values / start_norm
    v_prev = np.zeros_like(v)
    alphas, betas, thetas = [], [], []
    beta, held = 0.0, 0
    for k in range(1, max_iters + 1):
        w = normal_apply(Field(grid, v)).values - beta * v_prev
        alpha = _inner(v, w).real
        w -= alpha * v
        correction = _inner(v, w)
        w -= correction * v
        alphas.append(alpha + correction.real)
        beta = math.sqrt(_inner(w, w).real)
        t = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
        ritz, vecs = np.linalg.eigh(t)
        theta = max(float(ritz[-1]), 0.0)
        thetas.append(theta)
        if theta > 0:
            residual = beta * abs(float(vecs[-1, -1])) / theta
        else:
            residual = 0.0 if beta == 0 else math.inf
        if beta <= np.finfo(float).eps * theta:
            return NormEstimate(float(np.sqrt(theta)), k, True, residual)
        held = held + 1 if residual <= tol else 0
        if held > _HOLD_STEPS and abs(theta - thetas[-1 - _HOLD_STEPS]) < tol * theta:
            return NormEstimate(float(np.sqrt(theta)), k, True, residual)
        betas.append(beta)
        w /= beta  # in place: the previous w would otherwise stay alive through the next apply
        v_prev, v = v, w
    return NormEstimate(float(np.sqrt(theta)), max_iters, False, residual)


def operator_norm(op: OperatorHandle, m_in: float = 0.0, m_out: float = 0.0, *, tol: float = 1e-6,
                  max_iters: int = 200, seed: int = 0) -> NormEstimate:
    """Norm of ``op : L2_{m_in} -> L2_{m_out}``, deterministic for a fixed seed.

    Non-convergence is reported through the ``converged`` flag, never as an
    exception.  A weight of exponent 0 is left out, since ``<x>^0`` multiplies
    by exactly 1; with no output weight, ``B`` keeps ``op``'s ``normal``.
    """
    outer = [weight_operator(op.grid, m_out)] if m_out else []
    inner = [weight_operator(op.grid, -m_in)] if m_in else []
    b = compose(*outer, op, *inner)
    return power_iteration(_normal_apply(b), _random_field(op.grid, seed), tol, max_iters)


# ---------------------------------------------------------------------------
# Schur test
# ---------------------------------------------------------------------------


def schur_bound(kernel: np.ndarray) -> float:
    """Schur bound ``sqrt(R C)`` for the matrix ``s``.

    ``R = sup_j sum_l |s_jl|`` and ``C = sup_l sum_j |s_jl|`` are its row and
    column mass; the classical lemma is the case ``R, C <= 1``.  Always an
    upper bound for the operator norm of ``u -> s u``; for the integral
    operator ``u -> sum_l s(., y_l) u_l dx^n`` on a grid, pass ``s dx^n``.
    """
    k = np.abs(np.asarray(kernel))
    if k.ndim != 2:
        raise ValueError("kernel must be a matrix")
    if not np.all(np.isfinite(k)):
        raise ValueError("kernel must be finite")
    row_mass = float(np.max(np.sum(k, axis=1))) if k.size else 0.0
    col_mass = float(np.max(np.sum(k, axis=0))) if k.size else 0.0
    return float(np.sqrt(row_mass * col_mass))


# ---------------------------------------------------------------------------
# Cotlar-Stein bound
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CotlarReport:
    bound: float
    gamma: Mapping[tuple, float]
    sum_norm: float
    all_converged: bool


def cotlar_bound(family: Mapping, *, tol: float = 1e-8, max_iters: int = 400,
                 seed: int = 0) -> CotlarReport:
    """Almost-orthogonality bound ``sum_k gamma(k)`` for ``sum_j T_j``.

    ``family`` maps each index (an int or a tuple of ints, one rank for all)
    to its operator handle.  ``gamma(k)`` is the square root of the largest
    pairwise product norm ``max(|T_i* T_j|, |T_i T_j*|)`` over realized index
    differences ``i - j = k`` (the finite-family truncation of the classical
    lemma).  Swapping ``i`` and ``j`` swaps the products for their adjoints,
    so each unordered pair is solved once and written to ``gamma(i - j)``
    and ``gamma(j - i)``; on the diagonal both products have norm
    ``|T_i|^2``, and one solve serves.  The norm of the summed operator is
    measured for comparison; ``all_converged`` covers every solve.
    """
    handles = {tuple(int(c) for c in np.atleast_1d(i)): h for i, h in family.items()}
    if not handles:
        raise ValueError("operator family must be non-empty")
    if len({len(i) for i in handles}) != 1:
        raise ValueError("family indices must share one rank")
    members = list(handles.items())
    start = _random_field(members[0][1].grid, seed)
    estimates = []
    gamma: dict[tuple, float] = {}
    for a, (i, ti) in enumerate(members):
        for j, tj in members[a:]:
            products = [compose(adjoint(ti), tj)]
            if j != i:
                products.append(compose(ti, adjoint(tj)))
            pair = [power_iteration(_normal_apply(b), start, tol, max_iters) for b in products]
            estimates += pair
            candidate = float(np.sqrt(max(est.estimate for est in pair)))
            diff = tuple(x - y for x, y in zip(i, j))
            for k in (diff, tuple(-c for c in diff)):
                gamma[k] = max(gamma.get(k, 0.0), candidate)

    sum_est = power_iteration(_normal_apply(add(*handles.values())), start, tol, max_iters)
    return CotlarReport(
        bound=float(sum(gamma.values())),
        gamma=gamma,
        sum_norm=sum_est.estimate,
        all_converged=all(est.converged for est in estimates + [sum_est]),
    )
