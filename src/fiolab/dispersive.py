"""Generalized free-dispersion propagation and space-time smoothing.

The evolution is ``i d/dt u = -p(D)^2 u`` with a degree-1 homogeneous
symbol ``p``, so the spectral propagator is exact:
``uhat(t) = exp(i t p(xi)^2) fhat``.  The zero frequency uses the
continuity conventions ``p(0) = 0`` and ``|0|^{1/2} = 0``.

The smoothing functional measures

    ( sum_j w_j || <x>^{-delta} D^{1/2} u(t_j) ||_{L2}^2 )^{1/2}

with trapezoidal time weights ``w_j`` over ``[0, T]``; ``D^{1/2}`` is the
spectral multiplier ``<xi>^{1/2}`` (inhomogeneous kind) or ``|xi|^{1/2}``
(homogeneous kind), applied before the spatial weight.  Both smoothing
entries read one normal operator,

    S(T) = D^{1/2} sum_j w_j exp(-i t_j p^2) <x>^{-2 delta} exp(i t_j p^2) D^{1/2}:

the functional of ``f`` is ``<f, S(T) f>^{1/2}``, and the best constant of
the map ``f -> weighted space-time trace`` is the square root of the top
eigenvalue of ``S(T)``, measured by the Lanczos solver
``normest.power_iteration`` (looked up here as a module global under that
name, which ``perfbench/`` wraps and swaps).

``S(T)`` is applied through its time kernel, which depends on a frequency
only through its level ``lambda = p^2``:
``G(lambda, mu) = sum_j w_j exp(-i t_j lambda) exp(i t_j mu)``.  On the
distinct levels of ``p^2`` on the grid, ``G`` is Hermitian positive
semidefinite of numerical rank about ``T max p^2 / (2 pi)`` (the
time-frequency area of the discrete prolates; Slepian 1978, Landau & Widom
1980), so ``G(l, m) = sum_r u_r[l] conj(u_r[m])`` with fewer terms than
nodes, and

    S(T) = D^{1/2} sum_r M_{u_r} <x>^{-2 delta} M_{conj(u_r)} D^{1/2},

where ``M_u`` multiplies each frequency by ``u`` at its level.  The factor
is built once per operator by pivoted Cholesky on ``G``, whose columns have
a closed form (a Dirichlet kernel), until no residual diagonal exceeds
``_FACTOR_CUT = 1e-13`` of ``G``'s diagonal ``T``: 30 terms against 65
nodes at ``T = 1`` on the criterion-5 grid, 272 against 1025 at ``T = 16``.
The build is elementwise numpy, with no LAPACK or BLAS call.  The factor's
table holds levels x terms complex entries (16 B each): 0.5 MB for 1146
levels and 30 terms, and 94 MB for a perturbed diag(1, 1, 4) with 16344
levels and 376 terms at ``T = 16``.  A term costs what a node did, one
inverse and one forward FFT, with the phase table replaced by a gather of
``u_r`` by level index.  ``propagate`` reads the same level index: at each
node it takes ``exp(i t lambda)`` on the distinct levels and gathers it,
so every phase is ``exp(i t p^2)`` of the same floats, with no recurrence.

The apply of ``S(T)`` splits its terms over ``_WORKERS = 2`` fixed workers:
worker 0 on the calling thread and worker 1 on the one thread of a
``concurrent.futures.ThreadPoolExecutor`` that the apply opens and joins
before it returns, so no thread outlives it and an error in either worker
reaches the caller.  Worker ``w`` owns the terms ``r`` with
``r % _WORKERS == w``.  The worker count is fixed in code, not an option.
Each worker sums its own terms in order, one at a time, with elementwise
numpy only (``np.take`` gathers, which run without the GIL); the workers'
partial sums are added in worker order.  Nothing on the apply calls BLAS
(whose idle threads would spin on the second core), and the results are
bitwise deterministic, independent of thread timing.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Literal

import numpy as np

# forward/inverse_transform are unused here but stay for perfbench/spans.py to wrap
from fiolab.lattice import (  # noqa: F401
    Field,
    Grid,
    bracket,
    forward_transform,
    inner_product,
    inverse_transform,
    norm,
)
from fiolab.normest import NormEstimate, _random_field, power_iteration
from fiolab.operators import (
    OperatorHandle,
    canonical_transform_operator,
    evaluate_multiplier,
    multiplier_operator,
)
from fiolab.symbols import HomogeneousSymbol, gauss_phase

__all__ = [
    "TimeWindow",
    "propagate",
    "smoothing_functional",
    "smoothing_constant",
    "egorov_residual",
    "half_derivative_ratio_operator",
    "symbol_on_grid",
    "DerivativeKind",
]

DerivativeKind = Literal["inhomogeneous", "homogeneous"]

_WORKERS = 2
# the level factor of S(T)'s time kernel stops once no residual diagonal exceeds this share of T
_FACTOR_CUT = 1e-13


@dataclass(frozen=True)
class TimeWindow:
    """Trapezoidal quadrature over ``[0, T]`` with ``steps`` nodes."""

    horizon: float
    steps: int

    def __post_init__(self):
        if not 0 < self.horizon < np.inf:
            raise ValueError(f"time horizon must be positive and finite, got {self.horizon}")
        steps = int(self.steps)
        if steps != self.steps or steps < 2:
            raise ValueError(f"time window needs an integer number of nodes >= 2, got {self.steps}")
        object.__setattr__(self, "steps", steps)  # np.linspace takes no float count

    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.steps)

    def weights(self) -> np.ndarray:
        h = self.horizon / (self.steps - 1)
        w = np.full(self.steps, h)
        w[0] = w[-1] = h / 2.0
        return w


def symbol_on_grid(p: HomogeneousSymbol, grid: Grid) -> np.ndarray:
    """Sample ``p`` on the frequency grid with ``p(0) = 0`` enforced."""
    return evaluate_multiplier(p.evaluate, grid, value_at_zero=0.0).real


def _level_index(p: HomogeneousSymbol, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values ``lambda_l`` of ``p^2`` on the grid, ascending, and the
    FFT-order array of level indices: ``p^2 = levels[index]``."""
    levels, index = np.unique(np.fft.ifftshift(symbol_on_grid(p, grid) ** 2), return_inverse=True)
    return levels, index.reshape(grid.shape)


def propagate(p: HomogeneousSymbol, f: Field, window: TimeWindow) -> tuple[Field, ...]:
    """Exact spectral evolution ``uhat(t_j) = exp(i t_j p^2) fhat``, one field per node."""
    levels, index = _level_index(p, f.grid)
    spec = np.fft.fftn(np.fft.ifftshift(f.values))
    return tuple(
        Field(f.grid, np.fft.fftshift(np.fft.ifftn(np.exp(1j * t * levels)[index] * spec)))
        for t in window.nodes()
    )


def _time_kernel(levels: np.ndarray, level: float, window: TimeWindow) -> np.ndarray:
    """``G(lambda_l, level)`` for every level, with the time kernel
    ``G(lambda, mu) = sum_k w_k exp(-i t_k (lambda - mu))`` summed in closed form.

    With ``t_k = k h`` and ``s = lambda - mu``, the sum over the ``K`` nodes is
    ``exp(-i T s / 2) sin(K x) / sin(x)`` with ``x = h s / 2``, less the two
    half-weighted end nodes.  ``x`` is reduced to ``n pi + r``, so the ratio
    stays accurate next to its removable singularities, ``s = 0`` among them.
    """
    steps, horizon = window.steps, window.horizon
    h = horizon / (steps - 1)
    s = levels - level
    x = 0.5 * h * s
    n = np.round(x / np.pi)
    r = x - n * np.pi
    at_pole = r == 0.0
    ratio = np.where(at_pole, steps, np.sin(steps * r) / np.where(at_pole, 1.0, np.sin(r)))
    ratio *= 1.0 - 2.0 * (n * (steps - 1) % 2)  # (-1)^(n (K - 1))
    return h * (np.exp(-0.5j * horizon * s) * ratio - 0.5 * (1.0 + np.exp(-1j * horizon * s)))


def _level_factor(levels: np.ndarray, window: TimeWindow) -> list:
    """Rows ``u_r`` over the levels with ``G(l, m) = sum_r u_r[l] conj(u_r[m])``,
    ``G`` the time kernel of ``_time_kernel`` on the levels.

    Pivoted Cholesky on ``G`` (Harbrecht, Peters & Schneider 2012): each step
    takes the level with the largest residual diagonal, computes its kernel
    column and removes the rank-one term through it.  It stops when no
    residual diagonal exceeds ``_FACTOR_CUT`` times ``G``'s diagonal ``T``.
    Elementwise numpy only: no LAPACK or BLAS call, whose idle threads would
    spin into the applies, and no levels x nodes table.
    """
    residual = np.full(levels.size, float(window.horizon))
    rows: list = []
    for _ in range(min(levels.size, window.steps)):  # the rank of G
        pivot = int(np.argmax(residual))
        if residual[pivot] <= _FACTOR_CUT * window.horizon:
            break
        column = _time_kernel(levels, levels[pivot], window)
        for u in rows:
            column -= u * np.conj(u[pivot])
        column /= np.sqrt(residual[pivot])
        residual -= np.abs(column) ** 2
        rows.append(column)
    return rows


def _worker_sum(factors: list, index: np.ndarray, spec: np.ndarray,
                w2_space: np.ndarray, worker: int) -> np.ndarray:
    """Worker ``worker``'s part of the factored sum, in FFT order:
    ``sum_r u_r[index] fftn(W^2 ifftn(conj(u_r[index]) spec))`` over the terms
    ``r`` with ``r % _WORKERS == worker``, added in order."""
    acc = np.zeros(spec.shape, dtype=complex)
    field = np.empty(spec.shape, complex)
    gather = np.empty(spec.shape, complex)
    for u in factors[worker::_WORKERS]:
        # np.take with out= runs without the GIL, where fancy indexing would hold
        # it; mode="clip" writes to out unbuffered, and index is always in range
        np.take(u, index, out=field, mode="clip")
        np.conjugate(field, out=field)
        field *= spec
        np.fft.ifftn(field, out=field)
        field *= w2_space
        np.fft.fftn(field, out=field)
        field *= np.take(u, index, out=gather, mode="clip")
        acc += field
    return acc


def _half_derivative(grid: Grid, kind: DerivativeKind) -> np.ndarray:
    """``D^{1/2}`` on the frequency grid, math order: ``<xi>^{1/2}`` for the
    inhomogeneous kind, ``|xi|^{1/2}`` for the homogeneous one."""
    mesh = grid.frequency_mesh()
    mag2 = np.sum(mesh * mesh, axis=-1)
    if kind == "inhomogeneous":
        return (1.0 + mag2) ** 0.25
    if kind == "homogeneous":
        return mag2**0.25  # |0|^(1/2) = 0 at the zero frequency
    raise ValueError(f"unknown derivative kind {kind!r}")


def _smoothing_normal(
    p: HomogeneousSymbol, grid: Grid, window: TimeWindow, delta: float, kind: DerivativeKind
) -> Callable[[Field], Field]:
    """The apply of ``S(T)`` (module docstring): the level factor of the time
    kernel, built once, summed term by term over the two workers."""
    half_d = np.fft.ifftshift(_half_derivative(grid, kind))
    w2_space = np.fft.ifftshift(bracket(grid.spatial_mesh()) ** (-2.0 * delta))
    levels, index = _level_index(p, grid)
    factors = _level_factor(levels, window)

    def normal_apply(v: Field) -> Field:
        # the ifft/fft normalizations of each round trip cancel exactly, and
        # so do those of the outer transform pair
        spec = half_d * np.fft.fftn(np.fft.ifftshift(v.values))
        # worker 0 runs here; leaving the block joins the pool's thread, and
        # result() raises a worker's error here
        with ThreadPoolExecutor(max_workers=_WORKERS - 1) as pool:
            others = [pool.submit(_worker_sum, factors, index, spec, w2_space, worker)
                      for worker in range(1, _WORKERS)]
            acc = _worker_sum(factors, index, spec, w2_space, 0)
        for part in others:
            acc += part.result()
        acc *= half_d
        return Field(grid, np.fft.fftshift(np.fft.ifftn(acc)))

    return normal_apply


def smoothing_functional(
    p: HomogeneousSymbol,
    f: Field,
    window: TimeWindow,
    weight_exponent: float,
    kind: DerivativeKind = "inhomogeneous",
) -> float:
    """Weighted space-time trace norm of the evolution of ``f``: ``<f, S(T) f>^{1/2}``
    with ``S(T)`` the normal operator of ``smoothing_constant`` at ``delta = weight_exponent``."""
    s_f = _smoothing_normal(p, f.grid, window, weight_exponent, kind)(f)
    return float(np.sqrt(max(inner_product(s_f, f).real, 0.0)))


def smoothing_constant(
    p: HomogeneousSymbol,
    grid: Grid,
    window: TimeWindow,
    delta: float,
    kind: DerivativeKind = "inhomogeneous",
    *,
    seed: int = 0,
    tol: float = 1e-4,
    max_iters: int = 100,
) -> NormEstimate:
    """Best constant of ``f -> <x>^{-delta} D^{1/2} (evolution of f)``: the square
    root of the top eigenvalue of ``S(T)``, by Lanczos (``power_iteration``;
    ``tol`` bounds the relative residual of the returned Ritz pair)."""
    normal_apply = _smoothing_normal(p, grid, window, delta, kind)
    return power_iteration(normal_apply, _random_field(grid, seed), tol, max_iters)


def half_derivative_ratio_operator(grid: Grid, p: HomogeneousSymbol) -> OperatorHandle:
    """Multiplier ``<xi>^{1/2} (1 + p(xi)^2)^{-1/4}`` on ``grid``, as a handle.

    Relates the inhomogeneous half derivative to its evolution-adapted
    counterpart; reduces to the identity for the Euclidean symbol.
    """
    p2 = symbol_on_grid(p, grid) ** 2
    mult = _half_derivative(grid, "inhomogeneous") * (1.0 + p2) ** -0.25
    return multiplier_operator(grid, mult, label="half-derivative ratio")


def egorov_residual(p: HomogeneousSymbol, u: Field) -> float:
    """Relative residual of the conjugation identity for the dispersion symbol.

    Measures ``|| (T (-Lap) T^{-1} - p(D)^2) u || / || u ||`` where ``T`` is
    the canonical transform of the Gauss-map phase of ``p``.  Exact in the
    continuum, so the discrete value is pure interpolation error and must
    shrink under refinement for band-limited data.
    """
    grid = u.grid
    psi = gauss_phase(p)
    lap = multiplier_operator(grid, lambda xi: np.sum(xi * xi, axis=-1), label="-laplacian")
    p2 = symbol_on_grid(p, grid) ** 2

    # one transform's tables alive at a time: T^-1 is dropped before T is built
    inverted = canonical_transform_operator(psi, grid, "inverse").apply(u)
    conjugated = canonical_transform_operator(psi, grid, "forward").apply(lap.apply(inverted))
    direct = multiplier_operator(grid, p2).apply(u)
    return norm(conjugated - direct) / norm(u)
