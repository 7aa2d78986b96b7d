"""Generalized free-dispersion propagation and space-time smoothing.

The evolution is ``i d/dt u = -p(D)^2 u`` with a degree-1 homogeneous
symbol ``p``, so the spectral propagator is exact:
``uhat(t) = exp(i t p(xi)^2) fhat``.  The zero frequency uses the
continuity conventions ``p(0) = 0`` and ``|0|^{1/2} = 0``.

The smoothing functional measures

    ( sum_j w_j || <x>^{-delta} D^{1/2} u(t_j) ||_{L2}^2 )^{1/2}

with trapezoidal time weights ``w_j`` over ``[0, T]``; ``D^{1/2}`` is the
spectral multiplier ``<xi>^{1/2}`` (inhomogeneous kind) or ``|xi|^{1/2}``
(homogeneous kind), applied before the spatial weight.  The best constant
of the map ``f -> weighted space-time trace`` is measured by the Lanczos
solver ``normest.power_iteration`` (looked up here as a module global under
that name, which ``perfbench/`` wraps and swaps) on the composed normal
operator, streaming over time nodes in frequency space (the propagator is
diagonal there).

Both smoothing entries split the time loop over ``_WORKERS = 2`` fixed
workers: worker 0 on the calling thread and worker 1 on one thread that is
joined before the call returns, so no thread outlives it and an error in
either worker reaches the caller.  Batches hold ``_BATCH_NODES = 4`` nodes
and go to the workers alternately, so the two workers' buffers, with one
shared phase step, take the memory that one worker's 8-node batches did.
The worker count is fixed in code, not an option.  Each worker runs the
whole phase recurrence, so its phases are bitwise those of a serial loop,
and sums its own batches in order with elementwise numpy only; the
workers' partial sums are added in worker order.  Nothing on this path
calls BLAS (whose idle threads would spin on the second core), and the
results are bitwise deterministic, independent of thread timing.
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
    "SpaceTimeField",
    "propagate",
    "smoothing_functional",
    "smoothing_constant",
    "egorov_residual",
    "half_derivative_ratio_operator",
    "symbol_on_grid",
    "DerivativeKind",
]

DerivativeKind = Literal["inhomogeneous", "homogeneous"]

_BATCH_NODES = 4
_WORKERS = 2


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


@dataclass(frozen=True)
class SpaceTimeField:
    """One spatial field per time node of a window."""

    window: TimeWindow
    slices: tuple

    def __post_init__(self):
        if len(self.slices) != self.window.steps:
            raise ValueError("slice count must match the window node count")
        grids = {f.grid for f in self.slices}
        if len(grids) != 1:
            raise ValueError("all slices must share one grid")

    @property
    def grid(self) -> Grid:
        return self.slices[0].grid


def symbol_on_grid(p: HomogeneousSymbol, grid: Grid) -> np.ndarray:
    """Sample ``p`` on the frequency grid with ``p(0) = 0`` enforced."""
    return evaluate_multiplier(p.evaluate, grid, value_at_zero=0.0).real


def _phase_step(p: HomogeneousSymbol, grid: Grid, window: TimeWindow) -> np.ndarray:
    """``exp(i h p^2)`` in FFT order, ``h`` the node spacing: one step of the phase recurrence."""
    h = window.horizon / (window.steps - 1)
    return np.exp(1j * h * np.fft.ifftshift(symbol_on_grid(p, grid) ** 2))


def _fft_order_tables(grid: Grid, kind: DerivativeKind, space_power: float):
    """The half-derivative multiplier and ``<x>^space_power``, in FFT order."""
    mesh = grid.frequency_mesh()
    mag2 = np.sum(mesh * mesh, axis=-1)
    if kind == "inhomogeneous":
        half_d = (1.0 + mag2) ** 0.25
    elif kind == "homogeneous":
        half_d = mag2**0.25  # |0|^(1/2) = 0 at the zero frequency
    else:
        raise ValueError(f"unknown derivative kind {kind!r}")
    return np.fft.ifftshift(half_d), np.fft.ifftshift(bracket(grid.spatial_mesh()) ** space_power)


def _evolve(step: np.ndarray, spec: np.ndarray, window: TimeWindow, worker: int = 0,
            workers: int = 1):
    """The spectral time loop: yield ``(w_batch, phases, fields)`` per batch of nodes.

    ``phases[k] = exp(i t_k p^2)`` by the recurrence ``P_k = P_{k-1} step`` with
    ``step = exp(i h p^2)`` from ``_phase_step``, shared by all workers, and
    ``P_0 = 1`` (no ``exp`` per node, O(batch) memory at any horizon) and
    ``fields[k] = ifftn(phases[k] spec)``, all in FFT order.  Both buffers are
    reused by the next batch, so consumers may overwrite them.  Of batches
    ``b = 0, 1, ...`` only those with ``b % workers == worker`` are yielded;
    the recurrence runs over every node, so the phases do not depend on the
    split.
    """
    axes = tuple(range(1, step.ndim + 1))
    weights = window.weights()
    phase_buf, field_buf = np.empty((2, min(_BATCH_NODES, window.steps)) + step.shape, complex)
    carry = np.ones(step.shape, dtype=complex)
    for batch, start in enumerate(range(0, window.steps, _BATCH_NODES)):
        w_batch = weights[start : start + _BATCH_NODES]
        phases, fields = phase_buf[: w_batch.size], field_buf[: w_batch.size]
        phases[0] = carry
        for k in range(1, w_batch.size):
            np.multiply(phases[k - 1], step, out=phases[k])
        np.multiply(phases[-1], step, out=carry)
        if batch % workers != worker:
            continue
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


def propagate(p: HomogeneousSymbol, f: Field, window: TimeWindow) -> SpaceTimeField:
    """Exact spectral evolution ``uhat(t_j) = exp(i t_j p^2) fhat``."""
    step = _phase_step(p, f.grid, window)
    spec = np.fft.fftn(np.fft.ifftshift(f.values))
    slices = []
    for _, _, fields in _evolve(step, spec, window):
        slices.extend(Field(f.grid, np.fft.fftshift(u)) for u in fields)
    return SpaceTimeField(window, tuple(slices))


def smoothing_functional(
    p: HomogeneousSymbol,
    f: Field,
    window: TimeWindow,
    weight_exponent: float,
    kind: DerivativeKind = "inhomogeneous",
) -> float:
    """Weighted space-time trace norm of the evolution of ``f``.

    Streams over time nodes in batches, split over the two workers; the
    propagator and half-derivative act in frequency, the weight in space.
    """
    step = _phase_step(p, f.grid, window)
    half_d, w_space = _fft_order_tables(f.grid, kind, -weight_exponent)
    spec = half_d * np.fft.fftn(np.fft.ifftshift(f.values))

    def part(worker: int) -> np.ndarray:
        acc = np.zeros(f.grid.shape)
        for w_batch, _, fields in _evolve(step, spec, window, worker, _WORKERS):
            fields *= w_space
            power = np.abs(fields)
            power *= power
            for w_k, node_power in zip(w_batch, power):
                node_power *= w_k
                acc += node_power
        return acc

    return float(np.sqrt(_split(part).sum() * f.grid.cell_volume))


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
    """Best constant of ``f -> <x>^{-delta} D^{1/2} (evolution of f)``.

    Lanczos (``power_iteration``; ``tol`` bounds the relative residual of
    the returned Ritz pair) on the composed normal operator

        D^{1/2} sum_j w_j exp(-i t_j p^2) <x>^{-2 delta} exp(i t_j p^2) D^{1/2}

    streaming over time nodes with batched in-place transforms, split over
    the two workers.
    """
    step = _phase_step(p, grid, window)
    half_d, w2_space = _fft_order_tables(grid, kind, -2.0 * delta)
    axes = tuple(range(1, grid.dim + 1))

    def normal_apply(v: Field) -> Field:
        # the ifft/fft normalizations of each round trip cancel exactly, and
        # so do those of the outer transform pair
        spec = half_d * np.fft.fftn(np.fft.ifftshift(v.values))

        def part(worker: int) -> np.ndarray:
            acc = np.zeros(grid.shape, dtype=complex)
            for w_batch, phases, fields in _evolve(step, spec, window, worker, _WORKERS):
                fields *= w2_space
                np.fft.fftn(fields, axes=axes, out=fields)
                fields *= np.conjugate(phases, out=phases)
                for w_k, field in zip(w_batch, fields):
                    field *= w_k
                    acc += field
            return acc

        acc = _split(part)
        acc *= half_d
        return Field(grid, np.fft.fftshift(np.fft.ifftn(acc)))

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
