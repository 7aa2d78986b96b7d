"""Periodic-box discretization: grids, fields, transforms, weighted norms.

Conventions
-----------
The box is ``[-L, L)^n`` sampled at ``N`` points per axis (``N`` even), so the
spatial spacing is ``dx = 2L/N`` and the spatial nodes are
``x_j = -L + j*dx``.  The frequency grid has spacing ``dxi = pi/L`` and covers
the symmetric index range ``{-N/2, ..., N/2-1}`` per axis; spectral arrays are
stored in this monotone ("math") order, not in raw FFT order.

The transform pair follows the continuum convention::

    uhat(xi) = sum_j u(x_j) exp(-i xi . x_j) dx^n
    u(x)     = sum_k uhat(xi_k) exp(+i x . xi_k) (dxi / 2 pi)^n

With ``dx * dxi * N = 2 pi`` these are exact inverses of each other and the
discrete Plancherel identity

    sum_k |uhat_k|^2 (dxi/2pi)^n  ==  sum_j |u_j|^2 dx^n

holds to rounding error.  Weighted norms use the bracket weight
``<x> = sqrt(1 + |x|^2)``.

The index 0 entry of each spectral axis is the unpaired Nyquist mode
(frequency ``-N/2 * dxi``); nonsmooth frequency-domain operations zero it
via :func:`zero_nyquist`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Grid",
    "Field",
    "SpectralField",
    "make_grid",
    "forward_transform",
    "inverse_transform",
    "weighted_norm",
    "inner_product",
    "norm",
    "bracket",
    "zero_nyquist",
    "nyquist_mask",
    "spectral_tail_fraction",
]


@dataclass(frozen=True)
class Grid:
    """Uniform periodic discretization of the box ``[-L, L)^n``."""

    dim: int
    half_width: float
    points_per_axis: int

    @property
    def dx(self) -> float:
        return 2.0 * self.half_width / self.points_per_axis

    @property
    def dxi(self) -> float:
        return np.pi / self.half_width

    @property
    def shape(self) -> tuple:
        return (self.points_per_axis,) * self.dim

    @property
    def size(self) -> int:
        return self.points_per_axis**self.dim

    @property
    def cell_volume(self) -> float:
        """Spatial quadrature weight ``dx^n``."""
        return self.dx**self.dim

    @property
    def spectral_weight(self) -> float:
        """Frequency quadrature weight ``(dxi / 2 pi)^n``."""
        return (self.dxi / (2.0 * np.pi)) ** self.dim

    @functools.lru_cache(maxsize=128)
    def spatial_axis(self) -> np.ndarray:
        axis = -self.half_width + self.dx * np.arange(self.points_per_axis)
        axis.flags.writeable = False
        return axis

    @functools.lru_cache(maxsize=128)
    def frequency_axis(self) -> np.ndarray:
        n = self.points_per_axis
        axis = self.dxi * (np.arange(n) - n // 2)
        axis.flags.writeable = False
        return axis

    @functools.lru_cache(maxsize=64)
    def spatial_mesh(self) -> np.ndarray:
        """Node coordinates, shape ``grid.shape + (n,)``."""
        mesh = np.stack(np.meshgrid(*([self.spatial_axis()] * self.dim), indexing="ij"), axis=-1)
        mesh.flags.writeable = False
        return mesh

    @functools.lru_cache(maxsize=64)
    def frequency_mesh(self) -> np.ndarray:
        """Frequency coordinates in math order, shape ``grid.shape + (n,)``."""
        mesh = np.stack(np.meshgrid(*([self.frequency_axis()] * self.dim), indexing="ij"), axis=-1)
        mesh.flags.writeable = False
        return mesh

    def spatial_vectors(self) -> np.ndarray:
        """Flattened node coordinates, shape ``(N^n, n)`` in C order."""
        return self.spatial_mesh().reshape(-1, self.dim)

    def frequency_vectors(self) -> np.ndarray:
        return self.frequency_mesh().reshape(-1, self.dim)


def make_grid(dim: int, half_width: float, points_per_axis: int) -> Grid:
    """Validate and build a :class:`Grid`.

    ``points_per_axis`` must be even and at least 4 so the symmetric
    frequency range is well defined.  The spacings ``dx = 2L / N`` and ``dxi
    = pi / L`` and the quadrature weights ``dx^n`` and ``(dxi / 2 pi)^n``
    must be finite and positive.
    """
    n_dim = int(dim)
    if n_dim != dim or n_dim < 1:
        raise ValueError(f"grid dimension must be an integer >= 1, got {dim}")
    if not half_width > 0:
        raise ValueError(f"grid half-width must be positive, got {half_width}")
    n_points = int(points_per_axis)
    if n_points != points_per_axis or n_points < 4:
        raise ValueError(f"points per axis must be an integer >= 4, got {points_per_axis}")
    if n_points % 2 != 0:
        raise ValueError(f"points per axis must be even, got {n_points}")
    grid = Grid(dim=n_dim, half_width=float(half_width), points_per_axis=n_points)
    for name in ("dx", "dxi", "cell_volume", "spectral_weight"):
        try:
            value = getattr(grid, name)
        except OverflowError:  # a float power beyond range raises
            value = np.inf
        if not 0 < value < np.inf:
            raise ValueError(f"grid {name} must be finite and positive, got {value} for "
                             f"half-width {half_width}, {n_points} points and dimension {dim}")
    return grid


def _same_grid(a: Grid, b: Grid) -> Grid:
    """``a``, if ``b`` is the same grid; objects on two grids do not combine."""
    if a != b:
        raise ValueError(f"cannot combine objects on different grids: {a} and {b}")
    return a


def _frozen_finite(values, shape: tuple, what: str) -> np.ndarray:
    """``values`` as a new read-only complex array of ``shape``; a non-finite
    entry is an error naming ``what``."""
    arr = np.array(values, dtype=np.complex128, order="C").reshape(shape)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} values must be finite")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Field:
    """Complex samples over the spatial grid.

    ``meta`` carries optional diagnostics (e.g. spectral-tail reports from
    canonical transforms); it does not participate in any arithmetic.
    """

    grid: Grid
    values: np.ndarray
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen_finite(self.values, self.grid.shape, "field"))

    def __add__(self, other: "Field") -> "Field":
        return Field(_same_grid(self.grid, other.grid), self.values + other.values)

    def __sub__(self, other: "Field") -> "Field":
        return Field(_same_grid(self.grid, other.grid), self.values - other.values)

    def __mul__(self, scalar) -> "Field":
        return Field(self.grid, self.values * scalar)

    __rmul__ = __mul__


@dataclass(frozen=True)
class SpectralField:
    """Complex samples over the frequency grid, math (monotone) order."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen_finite(self.values, self.grid.shape, "spectral"))


def forward_transform(f: Field) -> SpectralField:
    """Discrete analogue of ``uhat(xi) = int u(x) exp(-i xi x) dx``."""
    shifted = np.fft.ifftshift(f.values)
    spec = np.fft.fftshift(np.fft.fftn(shifted)) * f.grid.cell_volume
    return SpectralField(f.grid, spec)


def inverse_transform(g: SpectralField) -> Field:
    """Inverse of :func:`forward_transform` (exact round trip)."""
    shifted = np.fft.ifftshift(g.values)
    vals = np.fft.fftshift(np.fft.ifftn(shifted)) / g.grid.cell_volume
    return Field(g.grid, vals)


def bracket(points: np.ndarray) -> np.ndarray:
    """Japanese bracket ``<x> = sqrt(1 + |x|^2)`` for stacked vectors (..., n)."""
    pts = np.asarray(points, dtype=float)
    return np.sqrt(1.0 + np.sum(pts * pts, axis=-1))


def weighted_norm(f: Field, m: float) -> float:
    """Discrete weighted L2 norm ``(sum |<x_j>^m f_j|^2 dx^n)^(1/2)``."""
    w = bracket(f.grid.spatial_mesh()) ** m
    return float(np.sqrt(np.sum(np.abs(w * f.values) ** 2) * f.grid.cell_volume))


def norm(f: Field) -> float:
    """Plain discrete L2 norm (weight exponent 0)."""
    return float(np.sqrt(np.sum(np.abs(f.values) ** 2) * f.grid.cell_volume))


def inner_product(f: Field, g: Field) -> complex:
    """Discrete L2 pairing ``sum f conj(g) dx^n``."""
    return complex(np.sum(f.values * np.conj(g.values)) * _same_grid(f.grid, g.grid).cell_volume)


@functools.lru_cache(maxsize=64)
def _edge_shell(grid: Grid, edge: int) -> np.ndarray:
    """Read-only mask of the spectral entries with ``max_a |k_a - N/2| >= edge``,
    for indices ``k`` in ``[0, N)`` (math order)."""
    offset = np.abs(np.arange(grid.points_per_axis) - grid.points_per_axis // 2)
    mask = functools.reduce(np.maximum, np.ix_(*[offset] * grid.dim)) >= edge
    mask.flags.writeable = False
    return mask


def nyquist_mask(grid: Grid) -> np.ndarray:
    """Boolean mask of spectral entries with any axis at the unpaired mode."""
    return _edge_shell(grid, grid.points_per_axis // 2)


def zero_nyquist(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Return a copy with the unpaired Nyquist modes set to zero."""
    out = np.array(values, dtype=np.complex128)
    out[nyquist_mask(grid)] = 0.0
    return out


TAIL_SHELL = 0.9


def spectral_tail_fraction(g: SpectralField) -> float:
    """Energy fraction carried by the outer frequency shell.

    The shell is defined by ``max_a |k_a| >= TAIL_SHELL * N/2`` in index
    units: the outermost 10 percent band per axis.
    """
    outer = _edge_shell(g.grid, int(np.ceil(TAIL_SHELL * (g.grid.points_per_axis // 2))))
    total = float(np.sum(np.abs(g.values) ** 2))
    if total == 0.0:
        return 0.0
    return float(np.sum(np.abs(g.values[outer]) ** 2) / total)
