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
``u_r`` by level index.  ``propagate`` alone keeps the node recurrence,
since it returns the fields at the nodes.

The apply of ``S(T)`` splits its terms over ``_WORKERS = 2`` fixed workers:
worker 0 on the calling thread and worker 1 on one thread that is joined
before the call returns, so no thread outlives it and an error in either
worker reaches the caller.  Batches hold ``_BATCH = 4`` terms and go to the
workers alternately.  The worker count is fixed in code, not an option.
Each worker sums its own batches in order with elementwise numpy only
(``np.take`` gathers, which run without the GIL); the workers' partial sums
are added in worker order.  Nothing on the apply calls BLAS (whose idle
threads would spin on the second core), and the results are bitwise
deterministic, independent of thread timing.
"""

from __future__ import annotations

import threading
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

_BATCH = 4
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


def _phase_step(p: HomogeneousSymbol, grid: Grid, window: TimeWindow) -> np.ndarray:
    """``exp(i h p^2)`` in FFT order, ``h`` the node spacing: one step of the phase recurrence."""
    h = window.horizon / (window.steps - 1)
    return np.exp(1j * h * np.fft.ifftshift(symbol_on_grid(p, grid) ** 2))


def _evolve(step: np.ndarray, spec: np.ndarray, window: TimeWindow):
    """The spectral time loop: yield ``(w_batch, phases, fields)`` per batch of nodes.

    ``phases[k] = exp(i t_k p^2)`` by the recurrence ``P_k = P_{k-1} step`` with
    ``step = exp(i h p^2)`` from ``_phase_step`` and ``P_0 = 1`` (no ``exp`` per
    node, O(batch) memory at any horizon) and ``fields[k] = ifftn(phases[k] spec)``,
    all in FFT order.  Both buffers are reused by the next batch, so consumers
    may overwrite them.
    """
    axes = tuple(range(1, step.ndim + 1))
    weights = window.weights()
    phase_buf, field_buf = np.empty((2, min(_BATCH, window.steps)) + step.shape, complex)
    carry = np.ones(step.shape, dtype=complex)
    for start in range(0, window.steps, _BATCH):
        w_batch = weights[start : start + _BATCH]
        phases, fields = phase_buf[: w_batch.size], field_buf[: w_batch.size]
        phases[0] = carry
        for k in range(1, w_batch.size):
            np.multiply(phases[k - 1], step, out=phases[k])
        np.multiply(phases[-1], step, out=carry)
        np.multiply(phases, spec, out=fields)
        np.fft.ifftn(fields, axes=axes, out=fields)
        yield w_batch, phases, fields


def _split(work: Callable[[int], np.ndarray]) -> np.ndarray:
    """``work(0) + work(1) + ...`` over the ``_WORKERS`` workers, added in worker order.

    Worker 0 runs on the calling thread and each other worker on its own
    thread, joined before this returns; an exception raised by any worker
    is raised here.
    """
    parts: list = [None] * _WORKERS
    errors: list = []

    def run(worker: int) -> None:
        try:
            parts[worker] = work(worker)
        except BaseException as exc:  # raised again in the caller, below
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(worker,)) for worker in range(1, _WORKERS)]
    for thread in threads:
        thread.start()
    try:
        total = work(0)
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
    for part in parts[1:]:
        total += part
    return total


def propagate(p: HomogeneousSymbol, f: Field, window: TimeWindow) -> tuple[Field, ...]:
    """Exact spectral evolution ``uhat(t_j) = exp(i t_j p^2) fhat``, one field per node."""
    step = _phase_step(p, f.grid, window)
    spec = np.fft.fftn(np.fft.ifftshift(f.values))
    slices = []
    for _, _, fields in _evolve(step, spec, window):
        slices.extend(Field(f.grid, np.fft.fftshift(u)) for u in fields)
    return tuple(slices)


def _level_index(p: HomogeneousSymbol, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values ``lambda_l`` of ``p^2`` on the grid, ascending, and the
    FFT-order array of level indices: ``p^2 = levels[index]``."""
    levels, index = np.unique(np.fft.ifftshift(symbol_on_grid(p, grid) ** 2), return_inverse=True)
    return levels, index.reshape(grid.shape)


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
    ``sum_r u_r[index] fftn(W^2 ifftn(conj(u_r[index]) spec))`` over the terms of
    the batches ``b`` with ``b % _WORKERS == worker``, ``_BATCH`` terms each,
    added in order."""
    axes = tuple(range(1, spec.ndim + 1))
    acc = np.zeros(spec.shape, dtype=complex)
    starts = range(worker * _BATCH, len(factors), _WORKERS * _BATCH)
    if not starts:
        return acc
    field_buf = np.empty((min(_BATCH, len(factors)),) + spec.shape, complex)
    gather = np.empty(spec.shape, complex)
    for start in starts:
        batch = factors[start : start + _BATCH]
        fields = field_buf[: len(batch)]
        # np.take with out= runs without the GIL, where fancy indexing would hold
        # it; mode="clip" writes to out unbuffered, and index is always in range
        for u, field in zip(batch, fields):
            np.take(u, index, out=field, mode="clip")
            np.conjugate(field, out=field)
            field *= spec
        np.fft.ifftn(fields, axes=axes, out=fields)
        fields *= w2_space
        np.fft.fftn(fields, axes=axes, out=fields)
        for u, field in zip(batch, fields):
            field *= np.take(u, index, out=gather, mode="clip")
            acc += field
    return acc


def _smoothing_normal(
    p: HomogeneousSymbol, grid: Grid, window: TimeWindow, delta: float, kind: DerivativeKind
) -> Callable[[Field], Field]:
    """The apply of ``S(T)`` (module docstring): the level factor of the time
    kernel, built once, summed by batches of terms over the two workers."""
    mesh = grid.frequency_mesh()
    mag2 = np.sum(mesh * mesh, axis=-1)
    if kind == "inhomogeneous":
        half_d = (1.0 + mag2) ** 0.25
    elif kind == "homogeneous":
        half_d = mag2**0.25  # |0|^(1/2) = 0 at the zero frequency
    else:
        raise ValueError(f"unknown derivative kind {kind!r}")
    half_d = np.fft.ifftshift(half_d)
    w2_space = np.fft.ifftshift(bracket(grid.spatial_mesh()) ** (-2.0 * delta))
    levels, index = _level_index(p, grid)
    factors = _level_factor(levels, window)

    def normal_apply(v: Field) -> Field:
        # the ifft/fft normalizations of each round trip cancel exactly, and
        # so do those of the outer transform pair
        spec = half_d * np.fft.fftn(np.fft.ifftshift(v.values))
        acc = _split(lambda worker: _worker_sum(factors, index, spec, w2_space, worker))
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
    mesh = grid.frequency_mesh()
    mult = (1.0 + np.sum(mesh * mesh, axis=-1)) ** 0.25 * (1.0 + p2) ** -0.25
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
    t_fwd = canonical_transform_operator(psi, grid, "forward")
    t_inv = canonical_transform_operator(psi, grid, "inverse")
    lap = multiplier_operator(grid, lambda xi: np.sum(xi * xi, axis=-1), label="-laplacian")
    p2 = symbol_on_grid(p, grid) ** 2

    conjugated = t_fwd.apply(lap.apply(t_inv.apply(u)))
    direct = multiplier_operator(grid, p2).apply(u)
    return norm(conjugated - direct) / norm(u)
