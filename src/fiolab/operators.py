"""Operator families on discrete fields: multipliers, pseudo-differential
operators, phase-and-amplitude integral operators, and canonical transforms.

Every operator is an :class:`OperatorHandle`, a linear map with an ``apply``
and an ``apply_adjoint`` closure, built once per grid by its builder and
applied any number of times: ``multiplier_operator(u.grid, a).apply(u)``
applies a multiplier once.  Adjoints are the exact conjugate-transpose of
the discrete quadrature with respect to the ``dx^n``-weighted inner product,
never an analytic formula, so the pairing identity ``<T u, v> = <u, T* v>``
holds to rounding error by construction.  :func:`adjoint`, :func:`compose`,
:func:`scale` and :func:`add` build new handles from old ones.  A handle may
also carry ``normal``, a faster ``T* T``: the canonical transform sets it (a
Toeplitz convolution, O(N^n log N) per call instead of O(N^{2n})), and no
handle built by the algebra has one.

Canonical transforms evaluate the input spectrum at the mapped frequency
points by exact trigonometric sums (band-limited interpolation).  Two
frequency-domain conventions apply throughout:

* unpaired Nyquist modes are zeroed on both sides of any nonsmooth
  frequency operation;
* mapped points that leave the representable frequency box produce zero
  output (the discrete field is modelled as band-limited, so the spectrum
  vanishes beyond the box rather than wrapping around); a mapped point
  that is not finite is an error, not a point outside the box.

Accuracy of a canonical transform is therefore limited by the field's
spectral tail.  Each apply records it, and the number of output modes set
to zero by these two rules, in the result's ``Field.meta``; neither is
ever warned.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, replace
from typing import Callable, Literal

import numpy as np

from fiolab._dense import TrigTable, _dense_kernel
from fiolab.lattice import (
    Field,
    Grid,
    SpectralField,
    _same_grid,
    _samples,
    _spectrum,
    bracket,
    forward_transform,
    inverse_transform,
    nyquist_mask,
    spectral_tail_fraction,
)
from fiolab.symbols import CanonicalMap, invert_map_batch

__all__ = [
    "OperatorHandle",
    "identity_operator",
    "multiplier_operator",
    "multiplication_operator",
    "weight_operator",
    "canonical_transform_operator",
    "pseudo_operator",
    "fio_operator",
    "matrix_operator",
    "adjoint",
    "compose",
    "scale",
    "add",
    "evaluate_multiplier",
]


@dataclass(frozen=True)
class _OnGrid:
    """``fn``, refusing a field on any grid but ``grid`` (the error of ``_same_grid``)."""

    grid: Grid
    fn: Callable[[Field], Field]

    def __call__(self, u: Field) -> Field:
        _same_grid(self.grid, u.grid)
        return self.fn(u)


@dataclass(frozen=True)
class OperatorHandle:
    """Linear map on fields with an exact discrete adjoint.

    ``normal``, when set, is a faster route to ``v -> T* T v`` than applying
    ``apply`` and then ``apply_adjoint``; it agrees with that composition to
    rounding.  ``apply``, ``apply_adjoint`` and ``normal`` refuse a field on
    another grid than the handle's.  The closures are wrapped once; a handle
    rebuilt by ``dataclasses.replace`` keeps a closure that is already
    checked for its grid.
    """

    grid: Grid
    apply: Callable[[Field], Field]
    apply_adjoint: Callable[[Field], Field]
    label: str = "operator"
    normal: Callable[[Field], Field] | None = None

    def __post_init__(self):
        for name in ("apply", "apply_adjoint", "normal"):
            fn = getattr(self, name)
            if fn is not None and not (isinstance(fn, _OnGrid) and fn.grid == self.grid):
                object.__setattr__(self, name, _OnGrid(self.grid, fn))


# ---------------------------------------------------------------------------
# multipliers
# ---------------------------------------------------------------------------


def _sample(a, grid: Grid, mesh: np.ndarray, what: str) -> np.ndarray:
    """``a``, a callable on the stacked vectors of ``mesh`` or an array, as a
    fresh complex array of ``grid.shape``; non-finite values are left to the caller."""
    if not callable(a):
        return np.array(np.reshape(a, grid.shape), dtype=np.complex128)
    with np.errstate(all="ignore"):
        vals = np.array(a(mesh), dtype=np.complex128)
    if vals.shape != grid.shape:
        raise ValueError(f"{what} returned shape {vals.shape}, expected {grid.shape}")
    return vals


def _first_non_finite(vals: np.ndarray, mesh: np.ndarray):
    """The mesh point of the first non-finite value, as a list, or ``None``."""
    bad = ~np.isfinite(vals)
    return mesh[tuple(np.argwhere(bad)[0])].tolist() if np.any(bad) else None


def evaluate_multiplier(a, grid: Grid, value_at_zero=None) -> np.ndarray:
    """Sample a frequency multiplier on the grid (math order).

    ``a`` is a callable on stacked vectors or a precomputed array.  The zero
    frequency must either evaluate finitely or be supplied explicitly via
    ``value_at_zero`` (mandatory for homogeneous symbols with a singularity
    at the origin).  A non-finite value anywhere else is an error naming
    the offending frequency.
    """
    mesh = grid.frequency_mesh()
    vals = _sample(a, grid, mesh, "multiplier")
    if value_at_zero is not None:
        vals[(grid.points_per_axis // 2,) * grid.dim] = value_at_zero
    freq = _first_non_finite(vals, mesh)
    if freq is not None:
        raise ValueError(
            f"multiplier is not finite at frequency {freq} "
            "(supply value_at_zero for homogeneous symbols)"
        )
    return vals


def multiplier_operator(
    grid: Grid, a, value_at_zero=None, label: str = "multiplier"
) -> OperatorHandle:
    vals = evaluate_multiplier(a, grid, value_at_zero)

    def times(mult: np.ndarray) -> Callable[[Field], Field]:
        return lambda u: inverse_transform(SpectralField(grid, forward_transform(u).values * mult))

    return OperatorHandle(grid, times(vals), times(np.conj(vals)), label=label)


def multiplication_operator(grid: Grid, w, label: str = "multiplication") -> OperatorHandle:
    """Pointwise multiplication by a spatial weight (callable or array).

    A non-finite value is an error naming the offending point.
    """
    mesh = grid.spatial_mesh()
    vals = _sample(w, grid, mesh, label)
    point = _first_non_finite(vals, mesh)
    if point is not None:
        raise ValueError(f"{label} is not finite at x = {point}")

    def times(mult: np.ndarray) -> Callable[[Field], Field]:
        return lambda u: Field(grid, u.values * mult)

    return OperatorHandle(grid, times(vals), times(np.conj(vals)), label=label)


def weight_operator(grid: Grid, m: float) -> OperatorHandle:
    """Multiplication by the bracket weight ``<x>^m``; an ``m`` for which it
    overflows somewhere in the box is an error naming that point."""
    with np.errstate(over="ignore"):
        vals = bracket(grid.spatial_mesh()) ** m
    return multiplication_operator(grid, vals, label=f"<x>^{m}")


def identity_operator(grid: Grid) -> OperatorHandle:
    return OperatorHandle(grid, lambda u: u, lambda u: u, label="identity")


# ---------------------------------------------------------------------------
# canonical transforms
# ---------------------------------------------------------------------------


def _canonical_targets(m: CanonicalMap, grid: Grid, direction: str) -> np.ndarray:
    freqs = grid.frequency_vectors()
    if direction == "inverse":
        return invert_map_batch(m, freqs)  # maps the zero frequency to 0
    if direction != "forward":
        raise ValueError(f"direction must be 'forward' or 'inverse', got {direction!r}")
    # a map's forward is not defined at the zero frequency, whose target is 0
    nz = np.linalg.norm(freqs, axis=-1) > 0
    targets = np.zeros_like(freqs)
    targets[nz] = m.forward(freqs[nz])
    bad = ~np.all(np.isfinite(targets), axis=-1)
    if np.any(bad):
        raise ValueError(f"map '{m.label}' is not finite at frequency "
                         f"{freqs[np.argmax(bad)].tolist()}")
    return targets


def canonical_transform_operator(
    m: CanonicalMap,
    grid: Grid,
    direction: Literal["forward", "inverse"] = "forward",
) -> OperatorHandle:
    """Canonical transform ``u -> F^{-1}[(F u)(psi(xi))]`` (or with ``psi^{-1}``).

    The spectrum of ``u`` is evaluated at the mapped frequency points by
    exact trigonometric sums, at O(N^{2n}) cost per apply.  The mapped
    frequencies and their factored phase tables are computed once; the full
    tables are kept, or rebuilt per target chunk on each apply when they are
    large (see ``fiolab._dense``).  Each apply records the input's spectral
    tail (``spectral_tail``) and the number of output modes it sets to zero
    (``out_of_box_modes``) in the result's ``Field.meta``: those whose mapped
    point left the frequency box, and the ``N^n - (N-1)^n`` unpaired Nyquist
    modes, which even the identity map counts.  A mapped point that is not
    finite is an error naming its frequency.  Every call of the handle
    freezes two arrays: its input's spectrum and its result.

    The handle's ``normal`` is ``T* T = Z A* A Z``, with ``Z`` the Nyquist
    filter and ``A`` the analysis sum over the in-box targets ``eta_m``.
    ``A* A`` is the convolution with ``K(d) = N^{-n} sum_m exp(i eta_m . d dx)``
    over the offsets ``|d_a| < N``, so each call is one zero-padded FFT pair
    of size (2N)^n, O(N^n log N).  ``K`` is built on the first call, from
    this handle's own table: on the (2N)^n circular offsets, the block of a
    sign vector ``s`` (axis ``a`` in ``[0, N)`` if ``s_a = +1``, else in
    ``[N, 2N)``) has ``d dx = x_k + L s``, so it is
    ``dx^n table.synthesis(exp(i L eta_m . s))``: 2^n syntheses on the N grid
    and one (2N)^n complex array.  A handle whose ``normal`` is never called
    never builds it.
    """
    targets = _canonical_targets(m, grid, direction)
    xi_max = grid.dxi * grid.points_per_axis / 2.0
    in_box = np.all(np.abs(targets) < xi_max * (1.0 - 1e-13), axis=-1)
    nyquist = nyquist_mask(grid)
    in_box &= ~nyquist.reshape(-1)
    table = TrigTable(grid, targets[in_box])
    out_of_box_count = int(np.sum(~in_box))
    n = grid.points_per_axis
    crop = (slice(0, n),) * grid.dim

    def _apply(u: Field) -> Field:
        spec = forward_transform(u)
        out_spec = np.zeros(grid.size, dtype=np.complex128)
        out_spec[in_box] = table.analysis(_samples(np.where(nyquist, 0, spec.values), grid))
        meta = {"spectral_tail": spectral_tail_fraction(spec), "out_of_box_modes": out_of_box_count}
        return Field(grid, _samples(out_spec.reshape(grid.shape), grid), meta)

    def _adjoint(v: Field) -> Field:
        # in_box holds no Nyquist entry, so none of them is read
        spec = forward_transform(v).values.reshape(-1)
        out_spec = _spectrum(table.synthesis(spec[in_box]), grid)
        return Field(grid, _samples(np.where(nyquist, 0, out_spec), grid))

    @functools.cache
    def _kernel_spectrum() -> np.ndarray:
        kernel = np.empty((2 * n,) * grid.dim, dtype=np.complex128)
        for signs in itertools.product((1.0, -1.0), repeat=grid.dim):
            block = tuple(slice(0, n) if s > 0 else slice(n, 2 * n) for s in signs)
            weights = np.exp(1j * grid.half_width * (table.targets @ np.array(signs)))
            kernel[block] = table.synthesis(weights)
        return np.fft.fftn(kernel * grid.cell_volume)

    def _normal(u: Field) -> Field:
        padded = np.zeros((2 * n,) * grid.dim, dtype=np.complex128)
        padded[crop] = _samples(np.where(nyquist, 0, forward_transform(u).values), grid)
        conv = np.fft.ifftn(np.fft.fftn(padded) * _kernel_spectrum())[crop]
        return Field(grid, _samples(np.where(nyquist, 0, _spectrum(conv, grid)), grid))

    label = f"T[{m.label}]" if direction == "forward" else f"T^-1[{m.label}]"
    return OperatorHandle(grid, _apply, _adjoint, label=label, normal=_normal)


# ---------------------------------------------------------------------------
# dense kernels: pseudo-differential and phase-and-amplitude integral operators
# ---------------------------------------------------------------------------


def pseudo_operator(grid: Grid, a) -> OperatorHandle:
    """Quantization ``a(X, D)``, from frequency to space,

        (a(X, D) u)(x) = (2pi)^{-n} sum_k e^{i x . xi_k} a(x, xi_k) uhat_k dxi^n,

    built as ``(2pi)^{-n}`` times the adjoint of the FIO with phase ``-y . xi``
    and amplitude ``conj a(y, xi)``.  ``a(x, xi)`` takes stacked vectors of
    shape (..., n), broadcast against each other.
    """
    fio = fio_operator(grid, lambda y, xi: np.sum(y * -xi, axis=-1),
                       lambda y, xi: np.conj(a(y, xi)))
    return replace(scale((2.0 * np.pi) ** -grid.dim, adjoint(fio)), label="a(X,D)")


def fio_operator(grid: Grid, phase, a=None) -> OperatorHandle:
    """Integral operator ``int int e^{i(x.xi + phi(y,xi))} a(y,xi) u(y) dy dxi``
    with its exact discrete adjoint: ``(2pi)^n F^{-1} I``, where the dense kernel
    ``I[xi_k] = sum_l exp(i phi(y_l, xi_k)) a(y_l, xi_k) u_l dy^n`` maps to frequency.

    ``phase`` (real) and ``a`` take stacked vectors ``(y, xi)`` as in
    :func:`pseudo_operator`; ``a=None`` is a unit amplitude.  Other amplitudes
    compose: ``a(x,xi)`` is ``compose(pseudo_operator(grid, a), fio_operator(grid,
    phase))``, and a factor ``b(y)`` or ``b(x)`` adds
    ``multiplication_operator(grid, b)`` on the input or output side.  Every
    dense quadrature in the package, ``pseudo_operator``'s too, runs here.
    """
    to_freq, from_freq = _dense_kernel(phase, a, grid)
    return OperatorHandle(
        grid,
        lambda u: inverse_transform(SpectralField(grid, to_freq(u.values).reshape(grid.shape))),
        lambda v: Field(grid, from_freq(forward_transform(v).values).reshape(grid.shape)),
        label="fio",
    )


# ---------------------------------------------------------------------------
# handles for matrices (norm-estimation currency)
# ---------------------------------------------------------------------------


def matrix_operator(grid: Grid, matrix: np.ndarray, label: str = "matrix") -> OperatorHandle:
    """Plain coefficient-space matrix action (uniform grid weights cancel)."""
    m = np.asarray(matrix, dtype=np.complex128)
    if m.shape != (grid.size, grid.size):
        raise ValueError(f"matrix shape {m.shape} does not match grid size {grid.size}")
    mh = np.conj(m.T)
    return OperatorHandle(
        grid,
        lambda u: Field(grid, (m @ u.values.reshape(-1)).reshape(grid.shape)),
        lambda v: Field(grid, (mh @ v.values.reshape(-1)).reshape(grid.shape)),
        label=label,
    )


# ---------------------------------------------------------------------------
# algebra on handles
# ---------------------------------------------------------------------------


def adjoint(h: OperatorHandle) -> OperatorHandle:
    """The handle of ``h*``: apply and adjoint swapped, with no ``normal``
    (``h h*`` is not ``h* h``)."""
    return replace(h, apply=h.apply_adjoint, apply_adjoint=h.apply, label=f"({h.label})*",
                   normal=None)


def compose(*handles: OperatorHandle) -> OperatorHandle:
    """Composition ``handles[0] o handles[1] o ...`` (rightmost acts first),
    with no ``normal``."""
    if not handles:
        raise ValueError("compose needs at least one handle")
    grid = functools.reduce(_same_grid, (h.grid for h in handles))

    def _apply(u: Field) -> Field:
        for h in reversed(handles):
            u = h.apply(u)
        return u

    def _adjoint(v: Field) -> Field:
        for h in handles:
            v = h.apply_adjoint(v)
        return v

    return OperatorHandle(grid, _apply, _adjoint, label=" o ".join(h.label for h in handles))


def scale(c: complex, h: OperatorHandle) -> OperatorHandle:
    return OperatorHandle(
        h.grid,
        lambda u: h.apply(u) * c,
        lambda v: h.apply_adjoint(v) * np.conj(c),
        label=f"{c} * {h.label}",
    )


def add(*handles: OperatorHandle) -> OperatorHandle:
    if not handles:
        raise ValueError("add needs at least one handle")
    grid = functools.reduce(_same_grid, (h.grid for h in handles))

    def _apply(u: Field) -> Field:
        return sum((h.apply(u) for h in handles[1:]), handles[0].apply(u))

    def _adjoint(v: Field) -> Field:
        return sum((h.apply_adjoint(v) for h in handles[1:]), handles[0].apply_adjoint(v))

    return OperatorHandle(grid, _apply, _adjoint, label=" + ".join(h.label for h in handles))
