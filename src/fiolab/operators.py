"""Operator families on discrete fields: multipliers, pseudo-differential
operators, phase-and-amplitude integral operators, and canonical transforms.

Every operator is an :class:`OperatorHandle`, a linear map with an ``apply``
and an ``apply_adjoint`` closure, built once per grid by its builder and
applied any number of times: ``multiplier_operator(u.grid, a).apply(u)``
applies a multiplier once.  Adjoints are the exact conjugate-transpose of
the discrete quadrature with respect to the ``dx^n``-weighted inner product,
never an analytic formula, so the pairing identity ``<T u, v> = <u, T* v>``
holds to rounding error by construction.  :func:`adjoint`, :func:`compose`,
:func:`scale` and :func:`add` build new handles from old ones.

Canonical transforms evaluate the input spectrum at the mapped frequency
points by exact trigonometric sums (band-limited interpolation).  Two
frequency-domain conventions apply throughout:

* unpaired Nyquist modes are zeroed on both sides of any nonsmooth
  frequency operation;
* mapped points that leave the representable frequency box produce zero
  output (the discrete field is modelled as band-limited, so the spectrum
  vanishes beyond the box rather than wrapping around).

Accuracy of a canonical transform is therefore limited by the field's
spectral tail.  Each apply records it, and the number of mapped points
that left the box, in the result's ``Field.meta``; neither is ever warned.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Literal

import numpy as np

from fiolab._dense import _CHUNK_ENTRIES, TrigTable
from fiolab.lattice import (
    Field,
    Grid,
    SpectralField,
    bracket,
    forward_transform,
    inverse_transform,
    nyquist_mask,
    spectral_tail_fraction,
    zero_nyquist,
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
class OperatorHandle:
    """Linear map on fields with an exact discrete adjoint."""

    grid: Grid
    apply: Callable[[Field], Field]
    apply_adjoint: Callable[[Field], Field]
    label: str = "operator"


# ---------------------------------------------------------------------------
# multipliers
# ---------------------------------------------------------------------------


def evaluate_multiplier(a, grid: Grid, value_at_zero=None) -> np.ndarray:
    """Sample a frequency multiplier on the grid (math order).

    ``a`` is a callable on stacked vectors or a precomputed array.  The zero
    frequency must either evaluate finitely or be supplied explicitly via
    ``value_at_zero`` (mandatory for homogeneous symbols with a singularity
    at the origin).  A non-finite value anywhere else is an error naming
    the offending frequency.
    """
    if callable(a):
        with np.errstate(all="ignore"):
            vals = np.asarray(a(grid.frequency_mesh()), dtype=np.complex128)
        if vals.shape != grid.shape:
            raise ValueError(f"multiplier returned shape {vals.shape}, expected {grid.shape}")
    else:
        vals = np.asarray(a, dtype=np.complex128).reshape(grid.shape).copy()
    zero_index = (grid.points_per_axis // 2,) * grid.dim
    if value_at_zero is not None:
        vals = np.array(vals)
        vals[zero_index] = value_at_zero
    bad = ~np.isfinite(vals)
    if np.any(bad):
        where = np.argwhere(bad)[0]
        freq = grid.frequency_mesh()[tuple(where)]
        raise ValueError(
            f"multiplier is not finite at frequency {freq.tolist()} "
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
    if callable(w):
        vals = np.asarray(w(grid.spatial_mesh()), dtype=np.complex128)
    else:
        vals = np.asarray(w, dtype=np.complex128).reshape(grid.shape)
    bad = ~np.isfinite(vals)
    if np.any(bad):
        point = grid.spatial_mesh()[tuple(np.argwhere(bad)[0])]
        raise ValueError(f"{label} is not finite at x = {point.tolist()}")

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
    mags = np.linalg.norm(freqs, axis=-1)
    targets = np.zeros_like(freqs)
    nz = mags > 0
    if direction == "forward":
        targets[nz] = m.forward(freqs[nz])
    elif direction == "inverse":
        targets[nz] = invert_map_batch(m, freqs[nz])
    else:
        raise ValueError(f"direction must be 'forward' or 'inverse', got {direction!r}")
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
    tail (``spectral_tail``) and the number of mapped points that left the
    frequency box (``out_of_box_modes``) in the result's ``Field.meta``.
    """
    targets = _canonical_targets(m, grid, direction)
    xi_max = grid.dxi * grid.points_per_axis / 2.0
    in_box = np.all(np.abs(targets) < xi_max * (1.0 - 1e-13), axis=-1)
    in_box &= ~nyquist_mask(grid).reshape(-1)
    table = TrigTable(grid, targets[in_box])
    out_of_box_count = int(np.sum(~in_box))

    def _apply(u: Field) -> Field:
        spec = forward_transform(u)
        tail = spectral_tail_fraction(spec)
        filtered = inverse_transform(SpectralField(grid, zero_nyquist(spec.values, grid)))
        out_spec = np.zeros(grid.size, dtype=np.complex128)
        out_spec[in_box] = table.analysis(filtered.values)
        out = inverse_transform(SpectralField(grid, out_spec.reshape(grid.shape)))
        meta = {"spectral_tail": tail, "out_of_box_modes": out_of_box_count}
        return Field(grid, out.values, meta)

    def _adjoint(v: Field) -> Field:
        # in_box holds no Nyquist entry, so none of them is read
        spec = forward_transform(v).values.reshape(-1)
        scattered = table.synthesis(spec[in_box])
        out_spec = zero_nyquist(forward_transform(Field(grid, scattered)).values, grid)
        return inverse_transform(SpectralField(grid, out_spec))

    label = f"T[{m.label}]" if direction == "forward" else f"T^-1[{m.label}]"
    return OperatorHandle(grid, _apply, _adjoint, label=label)


# ---------------------------------------------------------------------------
# dense kernels: pseudo-differential and phase-and-amplitude integral operators
# ---------------------------------------------------------------------------


def _dense_kernel(phase, amp, out_pts, in_pts, in_measure: float, out_measure: float):
    """Dense quadrature ``out_m = sum_q exp(i phase(o_m, i_q)) amp(o_m, i_q) v_q in_measure``.

    ``phase`` and ``amp`` (None for a unit amplitude) take stacked output and
    input points, broadcast against each other.  Returns the apply and its
    exact adjoint with respect to the ``in_measure``- and
    ``out_measure``-weighted pairings; both act on flat arrays.
    """

    # output rows per kernel block, so that a block holds about _CHUNK_ENTRIES entries
    step = max(_CHUNK_ENTRIES // in_pts.shape[0], 64)
    blocks = [slice(start, start + step) for start in range(0, out_pts.shape[0], step)]

    def block(sl):
        o_blk = out_pts[sl][:, np.newaxis, :]
        i_blk = in_pts[np.newaxis, :, :]
        ker = np.exp(1j * np.asarray(phase(o_blk, i_blk), dtype=float))
        if amp is not None:
            ker = ker * np.asarray(amp(o_blk, i_blk), dtype=np.complex128)
        return ker

    def apply(values: np.ndarray) -> np.ndarray:
        v = np.asarray(values, dtype=np.complex128).reshape(-1)
        return np.concatenate([block(sl) @ v for sl in blocks]) * in_measure

    def adjoint(values: np.ndarray) -> np.ndarray:
        v = np.asarray(values, dtype=np.complex128).reshape(-1)
        out = np.zeros(in_pts.shape[0], dtype=np.complex128)
        for sl in blocks:
            out += np.conj(block(sl)).T @ v[sl]
        return out * out_measure

    return apply, adjoint


def pseudo_operator(grid: Grid, a) -> OperatorHandle:
    """Quantization ``a(X, D)``: the dense kernel with phase ``x . xi`` from frequency to space,

        (a(X, D) u)(x) = (2pi)^{-n} sum_k e^{i x . xi_k} a(x, xi_k) uhat_k dxi^n.

    ``a(x, xi)`` takes stacked vectors of shape (..., n), broadcast against
    each other.
    """
    apply, adjoint = _dense_kernel(
        lambda x, xi: np.sum(x * xi, axis=-1),
        a,
        grid.spatial_vectors(),
        grid.frequency_vectors(),
        grid.spectral_weight,
        grid.cell_volume,
    )
    return OperatorHandle(
        grid,
        lambda u: Field(grid, apply(forward_transform(u).values).reshape(grid.shape)),
        lambda v: inverse_transform(SpectralField(grid, adjoint(v.values).reshape(grid.shape))),
        label="a(X,D)",
    )


def fio_operator(grid: Grid, phase, a=None) -> OperatorHandle:
    """Integral operator ``int int e^{i(x.xi + phi(y,xi))} a(y,xi) u(y) dy dxi``
    with its exact discrete adjoint: ``(2pi)^n F^{-1} I``, where the dense kernel
    ``I[xi_k] = sum_l exp(i phi(y_l, xi_k)) a(y_l, xi_k) u_l dy^n`` maps to frequency.

    ``phase`` (real) and ``a`` take stacked vectors ``(y, xi)`` as in
    :func:`pseudo_operator`; ``a=None`` is a unit amplitude.  Other amplitudes
    compose: ``a(x,xi)`` is ``compose(pseudo_operator(grid, a), fio_operator(grid,
    phase))``, and a factor ``b(y)`` or ``b(x)`` adds
    ``multiplication_operator(grid, b)`` on the input or output side.
    """
    # (2pi)^n on both measures scales the apply and its adjoint alike
    two_pi_n = (2.0 * np.pi) ** grid.dim
    to_freq, from_freq = _dense_kernel(
        lambda xi, y: phase(y, xi),
        None if a is None else (lambda xi, y: a(y, xi)),
        grid.frequency_vectors(),
        grid.spatial_vectors(),
        grid.cell_volume * two_pi_n,
        grid.spectral_weight * two_pi_n,
    )
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
    """The handle of ``h*``: apply and adjoint swapped."""
    return replace(h, apply=h.apply_adjoint, apply_adjoint=h.apply, label=f"({h.label})*")


def compose(*handles: OperatorHandle) -> OperatorHandle:
    """Composition ``handles[0] o handles[1] o ...`` (rightmost acts first)."""
    if not handles:
        raise ValueError("compose needs at least one handle")
    grid = handles[0].grid

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
    grid = handles[0].grid

    def _apply(u: Field) -> Field:
        return sum((h.apply(u) for h in handles[1:]), handles[0].apply(u))

    def _adjoint(v: Field) -> Field:
        return sum((h.apply_adjoint(v) for h in handles[1:]), handles[0].apply_adjoint(v))

    return OperatorHandle(grid, _apply, _adjoint, label=" + ".join(h.label for h in handles))
