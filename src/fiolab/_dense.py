"""Chunked dense kernels for off-grid trigonometric sums.

The analysis sum

    out_m = sum_j u(x_j) exp(-i eta_m . x_j) dx^n

is an exact trigonometric evaluation of the discrete spectrum at arbitrary
frequency points ``eta_m``.  Because the spatial nodes form a tensor grid,
the phase factorizes per axis,

    exp(-i eta . x) = prod_a exp(-i eta_a x_{j_a}),

so the whole contraction needs only O(M N) complex exponentials (one
(M, N) phase table per axis) plus BLAS-speed tensor contractions for the
O(M N^n) multiply-adds.  Both directions (analysis and its adjoint with
respect to the dx^n / (dxi/2pi)^n weighted inner products) share the same
tables.

Intermediates are processed in target chunks to bound memory.
"""

from __future__ import annotations

import numpy as np

from fiolab.lattice import Grid

# cap on complex entries per chunked intermediate (~64 MB)
_CHUNK_ENTRIES = 1 << 22


class TrigTable:
    """Per-axis phase tables for fixed evaluation points on a fixed grid."""

    def __init__(self, grid: Grid, targets: np.ndarray):
        targets = np.asarray(targets, dtype=float)
        if targets.ndim != 2 or targets.shape[1] != grid.dim:
            raise ValueError("targets must have shape (M, dim)")
        self.grid = grid
        self.targets = targets
        axis = grid.spatial_axis()
        # phases[a][m, j] = exp(-i targets[m, a] * x_j)
        self.phases = [
            np.exp(-1j * targets[:, a : a + 1] * axis[np.newaxis, :]) for a in range(grid.dim)
        ]

    def _chunk(self) -> int:
        n = self.grid.points_per_axis
        per_target = max(n ** (self.grid.dim - 1), 1)
        return max(_CHUNK_ENTRIES // per_target, 256)

    def analysis(self, values: np.ndarray) -> np.ndarray:
        """Evaluate the spectrum of ``values`` at the stored targets."""
        grid = self.grid
        u = np.asarray(values, dtype=np.complex128).reshape(grid.shape)
        m_total = self.targets.shape[0]
        out = np.empty(m_total, dtype=np.complex128)
        step = self._chunk()
        for start in range(0, m_total, step):
            sl = slice(start, min(start + step, m_total))
            out[sl] = self._analysis_chunk(u, sl)
        return out * grid.cell_volume

    def _analysis_chunk(self, u: np.ndarray, sl: slice) -> np.ndarray:
        # one matmul on the last axis, then each remaining axis right to left
        b = u @ self.phases[-1][sl].T  # (N, ..., N, M)
        for phase in reversed(self.phases[:-1]):
            b = np.einsum("mj,...jm->...m", phase[sl], b)
        return b

    def synthesis(self, weights: np.ndarray) -> np.ndarray:
        """Adjoint of :meth:`analysis`: scatter weighted exponentials back.

        Returns the grid-shaped array
        ``(dxi/2pi)^n sum_m exp(+i eta_m . x_j) w_m``.
        """
        grid = self.grid
        w = np.asarray(weights, dtype=np.complex128)
        out = np.zeros(grid.shape, dtype=np.complex128)
        m_total = self.targets.shape[0]
        step = self._chunk()
        for start in range(0, m_total, step):
            sl = slice(start, min(start + step, m_total))
            out += self._synthesis_chunk(w[sl], sl)
        return out * grid.spectral_weight

    def _synthesis_chunk(self, w: np.ndarray, sl: slice) -> np.ndarray:
        # outer products of the leading axes left to right, then one matmul
        # on the last axis; the conjugates stay inline so no table-sized
        # temporary outlives its product
        g = w
        for phase in self.phases[:-1]:
            g = np.conj(phase[sl])[:, np.newaxis, :] * g.reshape(w.size, -1, 1)
        out = g.reshape(w.size, -1).T @ np.conj(self.phases[-1][sl])
        return out.reshape(self.grid.shape)


def kernel_apply(kernel, values, in_volume: float, out_count: int, adjoint: bool = False):
    """Apply a dense kernel quadrature ``out_m = sum_q K(m, q) v_q * vol``.

    ``kernel(sl)`` must return the kernel block ``K[sl, :]`` for a slice of
    output rows.  With ``adjoint=True`` the conjugate transpose is applied:
    ``out_q = sum_m conj(K(m, q)) v_m * vol`` (kernel blocks are still
    requested by first-index slices).
    """
    v = np.asarray(values, dtype=np.complex128).reshape(-1)
    if adjoint:
        q_count = out_count
        out = np.zeros(q_count, dtype=np.complex128)
        step = max(_CHUNK_ENTRIES // max(q_count, 1), 64)
        for start in range(0, v.size, step):
            sl = slice(start, min(start + step, v.size))
            block = kernel(sl)
            out += np.conj(block).T @ v[sl]
        return out * in_volume
    out = np.empty(out_count, dtype=np.complex128)
    step = max(_CHUNK_ENTRIES // max(v.size, 1), 64)
    for start in range(0, out_count, step):
        sl = slice(start, min(start + step, out_count))
        block = kernel(sl)
        out[sl] = block @ v
    return out * in_volume
