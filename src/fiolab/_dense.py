"""Chunked dense sums: off-grid trigonometric sums and dense quadrature kernels.

The analysis sum

    out_m = sum_j u(x_j) exp(-i eta_m . x_j) dx^n

is an exact trigonometric evaluation of the discrete spectrum at arbitrary
frequency points ``eta_m``.  Because the spatial nodes form a tensor grid,
the phase factorizes per axis,

    exp(-i eta . x) = prod_a exp(-i eta_a x_{j_a}),

so the whole contraction needs only per-axis (M, N) phase tables.  Because
the nodes are equispaced, x_j = x_0 + j dx, each table factorizes once
more: with s = ceil(sqrt(N)),

    exp(-i eta x_{s a + b}) = exp(-i eta x_{s a}) * exp(-i eta b dx),

so only O(M sqrt(N)) complex exponentials are taken, and a table is an outer
product of two small factor tables.  Both directions (analysis and its
adjoint with respect to the dx^n / (dxi/2pi)^n weighted inner products)
read the same tables.

Every intermediate is target-major: its rows are targets, and each row is
contiguous.  Analysis contracts the last axis first, by one BLAS-speed
matmul of the last axis's table against the field seen as (N^(n-1), N),
which gives (chunk, N^(n-1)); each remaining axis, right to left, is then a
per-target contraction of a contiguous (N^k, N) block with that target's
table row.  Synthesis builds the target-major outer products of the leading
axes and ends in one matmul over the targets.  It never conjugates a table:

    sum_m w_m conj(P(m, j)) = conj(sum_m conj(w_m) P(m, j)),

so it runs on conj(w) and the stored tables and conjugates the grid-sized
sum once.

Targets are processed in chunks of ``_CHUNK_ENTRIES // max(N^(n-1), N)``
targets (at least one), so that each axis table of a chunk and each
(chunk, N^(n-1)) intermediate holds at most ``_CHUNK_ENTRIES`` = 2^18
complex entries (4 MB), a size that keeps BLAS's own buffers small.
The full tables stay resident while all axes together hold fewer than
``_RESIDENT_ENTRIES`` entries, and the factor tables are then dropped;
larger tables keep only the factors and rebuild each chunk's tables from
them, so memory is O(chunk), not O(M N).  Either way each phase table is
held once.

The same module holds ``_dense_kernel``, the blocked dense quadrature
behind ``operators.pseudo_operator`` and ``operators.fio_operator``: a
block holds ``_CHUNK_ENTRIES // inputs`` output rows (at least one).
Both engines read ``_CHUNK_ENTRIES`` here, when a table or a kernel is
built.
"""

from __future__ import annotations

import math

import numpy as np

from fiolab.lattice import Grid

# budget of complex entries per chunked intermediate, per axis table of a chunk
# and per dense-kernel block (4 MB)
_CHUNK_ENTRIES = 1 << 18
# full phase tables are kept for the life of a table below this many complex entries (128 MB)
_RESIDENT_ENTRIES = 1 << 23


def _expand(hi: np.ndarray, lo: np.ndarray, n: int) -> np.ndarray:
    """(M, n) phase table ``t[m, s*a + b] = hi[m, a] * lo[m, b]``."""
    m, k = hi.shape
    return (hi[:, :, np.newaxis] * lo[:, np.newaxis, :]).reshape(m, k * lo.shape[1])[:, :n]


class TrigTable:
    """Per-axis phase tables for fixed evaluation points on a fixed grid.

    The full tables are kept when they hold fewer than ``_RESIDENT_ENTRIES``
    entries, and otherwise only their factor tables.  Nothing is written
    after construction.
    """

    def __init__(self, grid: Grid, targets: np.ndarray):
        targets = np.asarray(targets, dtype=float)
        if targets.ndim != 2 or targets.shape[1] != grid.dim:
            raise ValueError("targets must have shape (M, dim)")
        self.grid = grid
        self.targets = targets
        n = grid.points_per_axis
        s = math.isqrt(n - 1) + 1  # ceil(sqrt(n))
        axis = grid.spatial_axis()
        # factors[a] = (hi, lo) with hi[m, k] = exp(-i eta_a x_{s k}) and
        # lo[m, b] = exp(-i eta_a b dx), for eta_a = targets[m, a]
        factors = [
            (
                np.exp(-1j * targets[:, a : a + 1] * axis[np.newaxis, ::s]),
                np.exp(-1j * targets[:, a : a + 1] * (grid.dx * np.arange(s))[np.newaxis, :]),
            )
            for a in range(grid.dim)
        ]
        if grid.dim * targets.shape[0] * n < _RESIDENT_ENTRIES:
            self._resident, self._factors = [_expand(hi, lo, n) for hi, lo in factors], None
        else:
            self._resident, self._factors = None, factors

    def _chunk(self) -> int:
        # targets per chunk: bounds the (chunk, N^(n-1)) intermediate and
        # each (chunk, N) table of a chunk by _CHUNK_ENTRIES alike
        n = self.grid.points_per_axis
        return max(_CHUNK_ENTRIES // max(n ** (self.grid.dim - 1), n), 1)

    def _phases(self, sl: slice) -> list:
        """Per-axis tables ``phases[a][m, j] = exp(-i targets[m, a] x_j)`` for chunk ``sl``."""
        if self._resident is not None:
            return [table[sl] for table in self._resident]
        n = self.grid.points_per_axis
        return [_expand(hi[sl], lo[sl], n) for hi, lo in self._factors]

    def analysis(self, values: np.ndarray) -> np.ndarray:
        """Evaluate the spectrum of ``values`` at the stored targets."""
        grid = self.grid
        u = np.asarray(values, dtype=np.complex128).reshape(grid.shape)
        m_total = self.targets.shape[0]
        out = np.empty(m_total, dtype=np.complex128)
        step = self._chunk()
        for start in range(0, m_total, step):
            sl = slice(start, min(start + step, m_total))
            out[sl] = self._analysis_chunk(u, self._phases(sl))
        return out * grid.cell_volume

    def _analysis_chunk(self, u: np.ndarray, phases: list) -> np.ndarray:
        # A method of its own, so that a chunk's tables are freed on return,
        # before the caller builds the next chunk's.  One matmul on the last
        # axis gives the target-major (chunk, N^(n-1)); each remaining axis,
        # right to left, contracts a target's contiguous (N^k, N) block with
        # its table row.
        n = self.grid.points_per_axis
        b = phases[-1] @ u.reshape(-1, n).T
        for phase in reversed(phases[:-1]):
            b = np.einsum("mkj,mj->mk", b.reshape(b.shape[0], -1, n), phase)
        return b[:, 0]

    def synthesis(self, weights: np.ndarray) -> np.ndarray:
        """Adjoint of :meth:`analysis`: scatter weighted exponentials back.

        Returns the grid-shaped array
        ``(dxi/2pi)^n sum_m exp(+i eta_m . x_j) w_m``.
        """
        grid = self.grid
        w = np.asarray(weights, dtype=np.complex128)
        # the conjugate of the sum, accumulated from conj(w) and the stored tables
        out = np.zeros(grid.shape, dtype=np.complex128)
        m_total = self.targets.shape[0]
        step = self._chunk()
        for start in range(0, m_total, step):
            sl = slice(start, min(start + step, m_total))
            out += self._synthesis_chunk(w[sl], self._phases(sl))
        return np.conj(out) * grid.spectral_weight

    def _synthesis_chunk(self, w: np.ndarray, phases: list) -> np.ndarray:
        # A method of its own, so that a chunk's tables are freed on return,
        # before the caller builds the next chunk's.  Returns the conjugate
        # of the chunk's share, sum_m conj(w_m) prod_a phases[a][m, j_a]:
        # target-major outer products of the leading axes left to right,
        # then one matmul over the targets on the last axis.
        g = np.conj(w)
        for phase in phases[:-1]:
            g = phase[:, np.newaxis, :] * g.reshape(w.size, -1, 1)
        return (g.reshape(w.size, -1).T @ phases[-1]).reshape(self.grid.shape)


def _dense_kernel(phase, amp, out_pts, in_pts, in_measure: float, out_measure: float):
    """Dense quadrature ``out_m = sum_q exp(i phase(o_m, i_q)) amp(o_m, i_q) v_q in_measure``.

    ``phase`` and ``amp`` (None for a unit amplitude) take stacked output and
    input points, broadcast against each other.  Returns the apply and its
    exact adjoint with respect to the ``in_measure``- and
    ``out_measure``-weighted pairings; both act on flat arrays.
    """

    # output rows per kernel block, so that a block holds at most _CHUNK_ENTRIES entries
    step = max(_CHUNK_ENTRIES // in_pts.shape[0], 1)
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
