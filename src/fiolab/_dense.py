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

Targets come in exact pairs {eta, -eta} wherever the map behind them is
odd, and the table of -eta is the conjugate of the table of eta.  So the
tables are held for one representative of each pair.  One lexicographic
sort finds the pairs: negation reverses the order, so sorted position i
can pair only with position M-1-i, and only an exact negative is taken.  A
target without a partner (the zero target, targets of a map that is not
odd) is a representative whose partner has weight zero; it takes the same
path and costs a whole pair.  Each table row P = p + iq is held as its
real and imaginary rows p and q, (2, N) per axis, the memory of one
complex row.

Every intermediate is target-major: its rows are representatives, and
each row is contiguous.  Analysis contracts the last axis first, by one
real BLAS matmul of the stacked (p, q) rows against [Re u | Im u] (the
field seen as (N^(n-1), N), transposed), which gives X = p u and Y = q u.
The representative's sum is X + iY and its partner's X - iY; each
remaining axis, right to left, maps the pair (X, Y) to
(X p - Y q, X q + Y p) contracted over the axis, a rotation by the
target's phase, in one batched matmul of the target's contiguous
(4 N^k, N) block with its (N, 2) rows.  Synthesis is the mirror image: from
sigma = g + h and eps = -i (g - h), with g and h the weights of the
representative and its partner, each leading axis, left to right,
rotates (sigma, eps) into (sigma p + eps q, eps p - sigma q), and one real
matmul over the representatives with the last axis's (p, q) rows gives
the sum.  A pair takes the arithmetic, exponentials and memory of one
target with complex tables, so an odd map needs half of each.

Representatives are processed in chunks of half of
``_CHUNK_ENTRIES // max(N^(n-1), N)`` (at least one), so that the X and Y
rows of a chunk together, and each (p, q) axis table of a chunk, hold at
most ``_CHUNK_ENTRIES`` = 2^18 complex entries' worth (4 MB), a size that
keeps BLAS's own buffers small.  Synthesis writes every chunk's share into
one grid-sized buffer and adds it to another, both allocated once per call.  The full tables stay
resident while complex tables for all targets would hold fewer than
``_RESIDENT_ENTRIES`` entries; the rule counts every target, not only the
representatives, so pairing never makes a table resident that was
streamed.  The factor tables are then dropped; larger tables keep only
the factors and rebuild each chunk's tables from them, so memory is
O(chunk), not O(M N).  Either way each phase table is held once: a
resident table holds N complex entries' worth per axis and
representative, about N/2 per target on an odd map.

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


def _pairs(targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Representatives and partners, ``targets[partner[i]] == -targets[rep[i]]`` exactly.

    ``rep`` lists the paired representatives first, in the order of
    ``partner``, then every target without a partner.  Negation reverses
    lexicographic order, so after one sort the only candidate partner of
    sorted position i is position M-1-i (``+ 0.0`` maps -0.0 to 0.0); a
    lone zero target sorts to the middle and stays single.
    """
    t = targets + 0.0
    m = t.shape[0]
    order = np.lexsort(t.T[::-1])
    low, high = order[: m // 2], order[::-1][: m // 2]
    exact = np.all(t[low] == -t[high], axis=1)
    single = np.ones(m, dtype=bool)
    single[low[exact]] = single[high[exact]] = False
    return np.concatenate([low[exact], np.flatnonzero(single)]), high[exact]


class TrigTable:
    """Per-axis phase tables for fixed evaluation points on a fixed grid.

    Tables are held for one representative of each exact pair {eta, -eta}
    of targets, as the real and imaginary rows of ``exp(-i eta_a x_j)`` per
    axis.  The full tables are kept when complex tables for all targets
    would hold fewer than ``_RESIDENT_ENTRIES`` entries, and otherwise only
    their factor tables.  Nothing is written after construction.
    """

    def __init__(self, grid: Grid, targets: np.ndarray):
        targets = np.asarray(targets, dtype=float)
        if targets.ndim != 2 or targets.shape[1] != grid.dim:
            raise ValueError("targets must have shape (M, dim)")
        self.grid = grid
        self.targets = targets
        self._rep, self._partner = _pairs(targets)
        rep = targets[self._rep]
        # representatives per chunk, fixed here with the budget read at build time
        step = max(self._chunk() // 2, 1)
        self._slices = [slice(start, min(start + step, self._rep.size))
                        for start in range(0, self._rep.size, step)]
        n = grid.points_per_axis
        s = math.isqrt(n - 1) + 1  # ceil(sqrt(n))
        axis = grid.spatial_axis()
        # factors[a] = (hi, lo) with hi[r, k] = exp(-i eta_a x_{s k}) and
        # lo[r, b] = exp(-i eta_a b dx), for eta_a = rep[r, a]
        self._factors = [
            (
                np.exp(-1j * rep[:, a : a + 1] * axis[np.newaxis, ::s]),
                np.exp(-1j * rep[:, a : a + 1] * (grid.dx * np.arange(s))[np.newaxis, :]),
            )
            for a in range(grid.dim)
        ]
        self._resident = None
        if grid.dim * targets.shape[0] * n < _RESIDENT_ENTRIES:
            tables = [np.empty((rep.shape[0], 2, n)) for _ in range(grid.dim)]
            for sl in self._slices:
                for table, part in zip(tables, self._phases(sl)):
                    table[sl] = part
            self._resident, self._factors = tables, None

    def _chunk(self) -> int:
        # targets per chunk: bounds the (chunk, N^(n-1)) complex intermediate
        # and each (chunk, N) complex table of a chunk by _CHUNK_ENTRIES
        # alike.  A chunk holds half as many representatives; each has two
        # complex rows of the intermediate (X and Y) and one (2, N) real row
        # pair per axis.
        n = self.grid.points_per_axis
        return max(_CHUNK_ENTRIES // max(n ** (self.grid.dim - 1), n), 1)

    def _phases(self, sl: slice) -> list:
        """Per-axis (chunk, 2, N) real and imaginary rows of ``exp(-i eta_a x_j)``, for
        representatives ``sl``."""
        if self._resident is not None:
            return [table[sl] for table in self._resident]
        n = self.grid.points_per_axis
        c = sl.stop - sl.start
        return [
            np.ascontiguousarray(
                _expand(hi[sl], lo[sl], n).view(np.float64).reshape(c, n, 2).transpose(0, 2, 1))
            for hi, lo in self._factors
        ]

    def analysis(self, values: np.ndarray) -> np.ndarray:
        """Evaluate the spectrum of ``values`` at the stored targets."""
        grid = self.grid
        n = grid.points_per_axis
        u = np.asarray(values, dtype=np.complex128).reshape(-1, n)
        # (N, 2 N^(n-1)) real right factor of every chunk's matmul: [Re u^T | Im u^T]
        ut = np.concatenate((u.real.T, u.imag.T), axis=1)
        out = np.empty(self.targets.shape[0], dtype=np.complex128)
        for sl in self._slices:
            paired = self._partner[sl]
            plus, minus = self._analysis_chunk(ut, self._phases(sl))
            out[self._rep[sl]] = plus
            out[paired] = minus[: paired.size]
        out *= grid.cell_volume
        return out

    def _analysis_chunk(self, ut: np.ndarray, phases: list) -> tuple:
        # A method of its own, so that a chunk's tables are freed on return,
        # before the caller builds the next chunk's.  With P = p + iq a
        # representative's table row, one real matmul on the last axis gives
        # X = p u and Y = q u, as real and imaginary parts (Xr, Xi, Yr, Yi),
        # target-major.  The representative's sum is X + iY and its
        # partner's, with conj(P), X - iY.  Each remaining axis, right to
        # left, contracts a target's contiguous (4 N^k, N) block with its
        # rows p and q in one batched matmul, and maps the pair to U + iV
        # and U - iV with U = X p - Y q, V = X q + Y p.
        n = self.grid.points_per_axis
        *leading, last = phases
        c = last.shape[0]
        xy = (last.reshape(2 * c, n) @ ut).reshape(c, 2, 2, -1)
        for pq in reversed(leading):
            z = np.matmul(xy.reshape(c, -1, n), pq.transpose(0, 2, 1)).reshape(c, 2, 2, -1, 2)
            (xp, xq), (yp, yq) = np.moveaxis(z[:, 0], -1, 0), np.moveaxis(z[:, 1], -1, 0)
            xy = np.stack((xp - yq, xq + yp), axis=1)
        xr, xi, yr, yi = xy.reshape(c, 4).T
        return xr - yi + 1j * (xi + yr), xr + yi + 1j * (xi - yr)

    def synthesis(self, weights: np.ndarray) -> np.ndarray:
        """Adjoint of :meth:`analysis`: scatter weighted exponentials back.

        Returns the grid-shaped array
        ``(dxi/2pi)^n sum_m exp(+i eta_m . x_j) w_m``.
        """
        grid = self.grid
        n = grid.points_per_axis
        k = grid.size // n
        w = np.asarray(weights, dtype=np.complex128)
        # the sum, transposed, as [Re | Im] (N, 2 N^(n-1)); each chunk's
        # matmul writes its share to buf
        acc = np.zeros((n, 2 * k))
        buf = np.empty_like(acc)
        for sl in self._slices:
            paired = self._partner[sl]
            w_partner = np.zeros(sl.stop - sl.start, dtype=np.complex128)
            w_partner[: paired.size] = w[paired]
            self._synthesis_chunk(w[self._rep[sl]], w_partner, self._phases(sl), buf)
            acc += buf
        out = buf.view(np.complex128).reshape(k, n)
        np.multiply(acc[:, :k].T, grid.spectral_weight, out=out.real)
        np.multiply(acc[:, k:].T, grid.spectral_weight, out=out.imag)
        return out.reshape(grid.shape)

    def _synthesis_chunk(self, w_rep, w_partner, phases: list, buf: np.ndarray) -> None:
        # A method of its own, so that a chunk's tables are freed on return,
        # before the caller builds the next chunk's.  Writes to buf the
        # transposed chunk's share, which on the last axis is
        #     sum_m G_m conj(P(m, j)) + H_m P(m, j) = sum_m sigma_m p(m, j) + eps_m q(m, j)
        # with P = p + iq, where G and H are the target-major outer products
        # of the leading axes from w_rep (with conjugated rows) and
        # w_partner, sigma = G + H and eps = -i (G - H).  Each leading axis,
        # left to right, maps (sigma, eps) to (sigma p + eps q, eps p - sigma q)
        # in one batched matmul of the target's (4 N^k, 2) coefficients with
        # its rows p and q.
        n = self.grid.points_per_axis
        *leading, last = phases
        c = last.shape[0]
        sigma, eps = w_rep + w_partner, -1j * (w_rep - w_partner)
        se = np.stack((sigma.real, sigma.imag, eps.real, eps.imag), axis=1)[:, :, np.newaxis]
        for pq in leading:
            rotated = np.concatenate((se[:, 2:], -se[:, :2]), axis=1)
            se = np.matmul(np.stack((se, rotated), axis=-1).reshape(c, -1, 2), pq).reshape(c, 4, -1)
        np.matmul(last.reshape(2 * c, n).T, se.reshape(2 * c, -1), out=buf)


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
