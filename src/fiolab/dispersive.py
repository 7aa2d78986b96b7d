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
of the map ``f -> weighted space-time trace`` is measured by power
iteration on the composed normal operator, streaming over time nodes in
frequency space (the propagator is diagonal there).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from fiolab.lattice import (
    Field,
    Grid,
    SpectralField,
    bracket,
    forward_transform,
    inverse_transform,
    norm,
)
from fiolab.normest import NormEstimate, power_iteration
from fiolab.operators import (
    canonical_transform_operator,
    multiplier_operator,
)
from fiolab.symbols import CanonicalMap, HomogeneousSymbol, gauss_phase

__all__ = [
    "TimeWindow",
    "SpaceTimeField",
    "propagate",
    "smoothing_functional",
    "smoothing_constant",
    "egorov_residual",
    "apply_half_derivative_ratio",
    "symbol_on_grid",
    "DerivativeKind",
]

DerivativeKind = Literal["inhomogeneous", "homogeneous"]

_BATCH_NODES = 64


@dataclass(frozen=True)
class TimeWindow:
    """Trapezoidal quadrature over ``[0, T]`` with ``steps`` nodes."""

    horizon: float
    steps: int

    def __post_init__(self):
        if self.horizon <= 0:
            raise ValueError("time horizon must be positive")
        if self.steps < 2:
            raise ValueError("time window needs at least 2 nodes")

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
    mesh = grid.frequency_mesh()
    with np.errstate(all="ignore"):
        vals = np.asarray(p.evaluate(mesh), dtype=float)
    vals[(grid.points_per_axis // 2,) * grid.dim] = 0.0
    if not np.all(np.isfinite(vals)):
        raise ValueError(f"symbol '{p.label}' is not finite on the frequency grid")
    return vals


def _half_derivative_values(grid: Grid, kind: DerivativeKind) -> np.ndarray:
    mesh = grid.frequency_mesh()
    mag2 = np.sum(mesh * mesh, axis=-1)
    if kind == "inhomogeneous":
        return (1.0 + mag2) ** 0.25
    if kind == "homogeneous":
        return mag2**0.25  # |0|^(1/2) = 0 at the zero frequency
    raise ValueError(f"unknown derivative kind {kind!r}")


def propagate(p: HomogeneousSymbol, f: Field, window: TimeWindow) -> SpaceTimeField:
    """Exact spectral evolution ``uhat(t_j) = exp(i t_j p^2) fhat``."""
    grid = f.grid
    p2 = symbol_on_grid(p, grid) ** 2
    fhat = forward_transform(f).values
    slices = []
    for t in window.nodes():
        spec = np.exp(1j * t * p2) * fhat
        slices.append(inverse_transform(SpectralField(grid, spec)))
    return SpaceTimeField(window, tuple(slices))


def smoothing_functional(
    p: HomogeneousSymbol,
    f: Field,
    window: TimeWindow,
    weight_exponent: float,
    kind: DerivativeKind = "inhomogeneous",
) -> float:
    """Weighted space-time trace norm of the evolution of ``f``.

    Streams over time nodes in batches; the propagator and half-derivative
    act in frequency, the weight in space.
    """
    grid = f.grid
    p2 = symbol_on_grid(p, grid) ** 2
    half_d = _half_derivative_values(grid, kind)
    w_space = bracket(grid.spatial_mesh()) ** (-weight_exponent)
    fhat = forward_transform(f).values
    nodes = window.nodes()
    weights = window.weights()
    total = 0.0
    fft_axes = tuple(range(1, grid.dim + 1))
    for start in range(0, nodes.size, _BATCH_NODES):
        t_batch = nodes[start : start + _BATCH_NODES]
        w_batch = weights[start : start + _BATCH_NODES]
        phases = np.exp(1j * t_batch.reshape((-1,) + (1,) * grid.dim) * p2)
        spec = phases * (half_d * fhat)
        fields = np.fft.fftshift(
            np.fft.ifftn(np.fft.ifftshift(spec, axes=fft_axes), axes=fft_axes), axes=fft_axes
        ) / grid.cell_volume
        weighted = w_space * fields
        slice_sq = np.sum(np.abs(weighted) ** 2, axis=fft_axes) * grid.cell_volume
        total += float(np.sum(w_batch * slice_sq))
    return float(np.sqrt(total))


def smoothing_constant(
    p: HomogeneousSymbol,
    grid: Grid,
    window: TimeWindow,
    delta: float,
    kind: DerivativeKind = "inhomogeneous",
    seed: int = 0,
    tol: float = 1e-4,
    max_iters: int = 200,
) -> NormEstimate:
    """Best constant of ``f -> <x>^{-delta} D^{1/2} (evolution of f)``.

    Power iteration on the composed normal operator

        sum_j w_j exp(-i t_j p^2) D^{1/2} <x>^{-2 delta} D^{1/2} exp(i t_j p^2)

    streaming over time nodes with batched transforms.
    """
    p2 = symbol_on_grid(p, grid) ** 2
    half_d = _half_derivative_values(grid, kind)
    w2_space = bracket(grid.spatial_mesh()) ** (-2.0 * delta)
    nodes = window.nodes()
    weights = window.weights()
    fft_axes = tuple(range(1, grid.dim + 1))

    def normal_apply(v: Field) -> Field:
        vhat = forward_transform(v).values
        acc = np.zeros(grid.shape, dtype=np.complex128)
        for start in range(0, nodes.size, _BATCH_NODES):
            t_batch = nodes[start : start + _BATCH_NODES]
            w_batch = weights[start : start + _BATCH_NODES]
            phases = np.exp(1j * t_batch.reshape((-1,) + (1,) * grid.dim) * p2)
            spec = phases * (half_d * vhat)
            # the ifft/fft normalizations of this round trip cancel exactly,
            # so the cell-volume factors of the outer transform pair carry
            fields = np.fft.fftshift(
                np.fft.ifftn(np.fft.ifftshift(spec, axes=fft_axes), axes=fft_axes), axes=fft_axes
            )
            weighted = w2_space * fields
            back = np.fft.fftshift(
                np.fft.fftn(np.fft.ifftshift(weighted, axes=fft_axes), axes=fft_axes),
                axes=fft_axes,
            )
            contrib = np.conj(phases) * (half_d * back)
            acc += np.tensordot(w_batch, contrib, axes=([0], [0]))
        return inverse_transform(SpectralField(grid, acc))

    rng = np.random.default_rng(seed)
    start_field = Field(grid, rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape))
    return power_iteration(normal_apply, start_field, tol, max_iters)


def apply_half_derivative_ratio(p: HomogeneousSymbol, u: Field) -> Field:
    """Multiplier ``<xi>^{1/2} (1 + p(xi)^2)^{-1/4}`` applied spectrally.

    Relates the inhomogeneous half derivative to its evolution-adapted
    counterpart; reduces to the identity for the Euclidean symbol.
    """
    grid = u.grid
    p2 = symbol_on_grid(p, grid) ** 2
    mesh = grid.frequency_mesh()
    mult = (1.0 + np.sum(mesh * mesh, axis=-1)) ** 0.25 * (1.0 + p2) ** -0.25
    return multiplier_operator(grid, mult).apply(u)


def egorov_residual(p: HomogeneousSymbol, u: Field, psi: CanonicalMap | None = None) -> float:
    """Relative residual of the conjugation identity for the dispersion symbol.

    Measures ``|| (T (-Lap) T^{-1} - p(D)^2) u || / || u ||`` where ``T`` is
    the canonical transform of the Gauss-map phase of ``p``.  Exact in the
    continuum, so the discrete value is pure interpolation error and must
    shrink under refinement for band-limited data.
    """
    grid = u.grid
    if psi is None:
        psi = gauss_phase(p)
    t_fwd = canonical_transform_operator(psi, grid, "forward")
    t_inv = canonical_transform_operator(psi, grid, "inverse")
    lap = multiplier_operator(grid, lambda xi: np.sum(xi * xi, axis=-1), label="-laplacian")
    p2 = symbol_on_grid(p, grid) ** 2

    conjugated = t_fwd.apply(lap.apply(t_inv.apply(u)))
    direct = multiplier_operator(grid, p2).apply(u)
    return norm(conjugated - direct) / norm(u)
