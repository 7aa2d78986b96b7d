"""Chunked dense sums: off-grid trigonometric sums and dense quadrature kernels.

The analysis sum

    out_m = sum_j u(x_j) exp(-i eta_m . x_j) dx^n

is an exact trigonometric evaluation of the discrete spectrum at arbitrary
frequency points ``eta_m``.  Because the spatial nodes form a tensor grid,
the phase factorizes per axis,

    exp(-i eta . x) = prod_a exp(-i eta_a x_{j_a}),

so the whole contraction needs only per-axis phase tables.  The nodes
x_j = -L + j dx are symmetric, x_(N-j) = -x_j, so p + iq = exp(-i |eta_a| x)
has p even and q odd: p meets only the even part E_h = u_h + u_(N-h) of a
field's axis and q only the odd part O_h = u_h - u_(N-h), h = 0..N/2, with
E_0 = O_0 = u_0 (x = -L has no mirror node), E_(N/2) = u_(N/2), O_(N/2) = 0.
So rows hold N/2 + 1 samples, and the field is folded into 2^n parity
blocks.  Equispaced, a row factorizes: with s = ceil(sqrt(N/2 + 1)),

    exp(-i eta x_{s a + b}) = exp(-i eta x_{s a}) * exp(-i eta b dx),

so a table row takes only O(sqrt(N)) complex exponentials: it is an outer
product of two small factor rows.  Both directions (analysis and its adjoint
with respect to the dx^n / (dxi/2pi)^n weighted inner products) read the
same tables.

The row of eta_a = s_a |eta_a| is p + i s_a q, so the targets are held as a
suffix tree of their absolute coordinates, and each keeps only its sign
vector s.  One ``np.lexsort`` of |eta|, last axis as the primary key, makes
every level's nodes and every subtree contiguous: level n-1 holds the
distinct |eta_(n-1)|, level a the distinct pairs (|eta_a|, parent node),
and the leaves (level 0) the distinct |eta|.  Each node holds the rows
(p, q), (2, N/2 + 1), of its own coordinate.  Only exactly equal absolute
values share a row (0.0 and -0.0 do), so the pairs {eta, -eta} of an odd
map, and the orbits of all 2^n reflections that the Gauss map of a symbol
even in each coordinate gives, share rows exactly.

Analysis contracts the last axis first, by one real BLAS matmul of the last
level's rows against the folded [Re u | Im u] (the field seen as
(N^(n-1), N), transposed), batched over parity.  Each further axis, right
to left, contracts every parent's components with its children's rows in
one matmul batched over parents and parity, which doubles the components:
bit a of a component's mask set means "q on axis a", the odd block.  A
target's sum is then

    sum_mask comp[leaf, mask] prod_{a in mask} (i s_a).

Synthesis is the exact transpose, from the leaves' weighted conjugate
factors to the sum's parity blocks, which are unfolded once at the end.

Targets are processed in chunks: runs of consecutive leaves, each with the
nodes above them (a node two chunks share is contracted in both).  A chunk
takes at most ``_caps()[a]`` nodes at level a, read at build time, so that
each axis table of a chunk, and each intermediate counted with N entries per
contracted axis (it holds N + 2), hold at most ``_CHUNK_ENTRIES`` = 2^18
complex entries' worth (4 MB), a size that keeps BLAS's own buffers small.
Synthesis adds every chunk's share into one folded buffer through another,
both allocated once per call.  The full tables stay resident while complex
tables for all targets would hold fewer than ``_RESIDENT_ENTRIES`` entries
(counting targets, not nodes, so shared rows never make a table resident
that was streamed), and the factor tables are then dropped; larger tables
keep only the factors and rebuild each chunk's tables from them, so memory
is O(chunk), not O(M N).  Either way each phase table is held once.

The same module holds ``_dense_kernel``, the blocked dense quadrature from
space to frequency behind ``operators.fio_operator``, its one caller
(``operators.pseudo_operator`` is a scaled adjoint of an FIO): a block
holds ``_CHUNK_ENTRIES // N^n`` frequency rows (at least one).  Both
engines read ``_CHUNK_ENTRIES`` here, when a table or a kernel is built.
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


def _firsts(ids: np.ndarray) -> np.ndarray:
    """Start of every run of equal entries in the sorted ``ids``."""
    return np.flatnonzero(np.diff(ids, prepend=-1))


def _families(parent: np.ndarray) -> list:
    """``(who, kids, k)`` per child count k: the parents ``who`` with k children
    and those children in order, from each child's parent (sorted)."""
    firsts = _firsts(parent)
    counts = np.diff(firsts, append=parent.size)
    whos = [(np.flatnonzero(counts == k), int(k)) for k in np.unique(counts)]
    return [(who, (firsts[who, np.newaxis] + np.arange(k)).reshape(-1), k) for who, k in whos]


def _place(parts: list, size: int) -> np.ndarray:
    # the rows of (index, part) pairs, flattened per row, in index order
    out = None
    for index, part in parts:
        part = part.reshape(index.size, -1)
        if out is None:
            out = np.empty((size, part.shape[1]))
        out[index] = part
    return out


def _fold(x: np.ndarray, before: int, n: int) -> np.ndarray:
    """``x`` (before, N, rest) folded on its N axis into E and O: (before, 2, N/2 + 1, rest)."""
    x, m = x.reshape(before, n, -1), n // 2
    y = np.empty((before, 2, m + 1, x.shape[-1]), x.dtype)
    np.add(x[:, 1:m], x[:, :m:-1], out=y[:, 0, 1:m])
    np.subtract(x[:, 1:m], x[:, :m:-1], out=y[:, 1, 1:m])
    y[:, :, 0], y[:, 0, m], y[:, 1, m] = x[:, np.newaxis, 0], x[:, m], 0.0
    return y


def _unfold(y: np.ndarray, before: int, n: int) -> np.ndarray:
    """Transpose of :func:`_fold`: (before, 2, N/2 + 1, rest) to (before, N, rest)."""
    y, m = y.reshape(before, 2, n // 2 + 1, -1), n // 2
    x = np.empty((before, n, y.shape[-1]), y.dtype)
    np.add(y[:, 0, :m], y[:, 1, :m], out=x[:, :m])
    np.subtract(y[:, 0, 1:m], y[:, 1, 1:m], out=x[:, :m:-1])
    x[:, m] = y[:, 0, m]
    return x


class TrigTable:
    """Per-axis phase tables for fixed evaluation points on a fixed grid.

    The rows ``exp(-i |eta_a| x_h)`` for h = 0..N/2, as real and imaginary
    parts, are held on a suffix tree of the absolute target coordinates: in
    full, or as factor tables when complex tables for all targets would hold
    ``_RESIDENT_ENTRIES`` entries or more.  Nothing is written after build.
    """

    def __init__(self, grid: Grid, targets: np.ndarray):
        targets = np.asarray(targets, dtype=float)
        if targets.ndim != 2 or targets.shape[1] != grid.dim:
            raise ValueError("targets must have shape (M, dim)")
        self.grid = grid
        self.targets = targets
        m = targets.shape[0]
        mag = np.abs(targets)
        self._order = np.lexsort(mag.T)
        mag = mag[self._order]
        # node[a][t] is the level-a node of sorted target t: a new node starts
        # where |eta_a| or a later coordinate changes
        node = [None] * grid.dim
        new = np.arange(m) == 0
        for a in reversed(range(grid.dim)):
            new[1:] |= mag[1:, a] != mag[:-1, a]
            node[a] = np.cumsum(new) - 1
        first = [_firsts(ids) for ids in node]
        self._leaf = node[0]
        parent = [node[a + 1][first[a]] for a in range(grid.dim - 1)]
        # units[t, mask] = prod over the axes a in mask of i s_a, with axis 0
        # the mask's leading bit
        self._units = np.ones((m, 1), dtype=np.complex128)
        for unit in np.where(targets[self._order] < 0, -1j, 1j).T[::-1]:
            self._units = np.concatenate((self._units, self._units * unit[:, np.newaxis]), axis=1)
        # chunks: runs of consecutive leaves, fixed here with the budget read
        # at build time, each as its sorted targets, its nodes per level and,
        # below the last level, the families of its nodes by parent
        above = [ids[first[0]] for ids in node]  # each leaf's node per level
        leaf_bounds = np.append(first[0], m)
        self._chunks = []
        caps, start = self._caps(), 0
        while start < first[0].size:
            stop = max(min(int(np.searchsorted(up, up[start] + cap))
                           for up, cap in zip(above, caps)), start + 1)
            nodes = [slice(up[start], up[stop - 1] + 1) for up in above]
            families = [_families(parent[a][nodes[a]]) for a in range(grid.dim - 1)]
            self._chunks.append((slice(leaf_bounds[start], leaf_bounds[stop]), nodes, families))
            start = stop
        n, h = grid.points_per_axis, grid.points_per_axis // 2 + 1
        s = math.isqrt(h - 1) + 1  # ceil(sqrt(N/2 + 1))
        # factors[a] = (hi, lo) with hi[r, k] = exp(-i v x_{s k}) and
        # lo[r, b] = exp(-i v b dx), for v = |eta_a| of level-a node r
        self._factors = []
        for a in range(grid.dim):
            v = mag[first[a], a][:, np.newaxis]
            self._factors.append((np.exp(-1j * v * grid.spatial_axis()[np.newaxis, :h:s]),
                                  np.exp(-1j * v * (grid.dx * np.arange(s))[np.newaxis, :])))
        self._resident = None
        if grid.dim * m * n < _RESIDENT_ENTRIES:
            tables = [np.empty((ids.size, 2, h)) for ids in first]
            for _, nodes, _ in self._chunks:
                for table, sl, part in zip(tables, nodes, self._phases(nodes)):
                    table[sl] = part
            self._resident, self._factors = tables, None

    def _caps(self) -> list:
        # nodes per chunk at each level: a level-a node holds 2^(n-a) components
        # of (N + 2)^a complex entries once axes a..n-1 are contracted, counted
        # as N^a, and (2, N/2 + 1) real rows, built from one complex row (< 2N)
        dim, n = self.grid.dim, self.grid.points_per_axis
        return [max(_CHUNK_ENTRIES // max(2 ** (dim - a) * n**a, 2 * n), 1) for a in range(dim)]

    def _phases(self, nodes: list) -> list:
        """Per-axis (nodes, 2, N/2 + 1) rows ``p = cos(|eta_a| x_h)`` and
        ``q = -sin(|eta_a| x_h)``, h = 0..N/2, for the level-a nodes ``nodes[a]``."""
        if self._resident is not None:
            return [table[sl] for table, sl in zip(self._resident, nodes)]
        h = self.grid.points_per_axis // 2 + 1
        return [
            np.ascontiguousarray(
                _expand(hi[sl], lo[sl], h).view(np.float64).reshape(-1, h, 2).transpose(0, 2, 1))
            for (hi, lo), sl in zip(self._factors, nodes)
        ]

    def analysis(self, values: np.ndarray) -> np.ndarray:
        """Evaluate the spectrum of ``values`` at the stored targets."""
        grid = self.grid
        n, h = grid.points_per_axis, grid.points_per_axis // 2 + 1
        # the field folded on each axis: (parity, h) of axis n-1, Re/Im, then of axes 0..n-2
        u = np.asarray(values, dtype=np.complex128).reshape(-1, n)
        for a in range(grid.dim - 1):
            u = _fold(u, (2 * h) ** a, n).reshape(-1, n)
        f = _fold(np.concatenate((u.real.T, u.imag.T), axis=1), 1, n).reshape(2, h, -1)
        out = np.empty(self.targets.shape[0], dtype=np.complex128)
        for ts, nodes, families in self._chunks:
            comp = self._analysis_chunk(f, nodes, families)
            leaves = comp[self._leaf[ts] - nodes[0].start]
            out[self._order[ts]] = np.einsum("tk,tk->t", leaves, self._units[ts])
        out *= grid.cell_volume
        return out

    def _analysis_chunk(self, f: np.ndarray, nodes: list, families: list) -> np.ndarray:
        # A method of its own, so that a chunk's tables are freed on return,
        # before the caller builds the next chunk's.  Returns the leaves'
        # complex components (leaves, 2^n), from real intermediates laid out
        # (nodes, mask bits a..n-1, Re/Im, (parity, h) of axes 0..a-1).  On a
        # leading axis the parents with k children each contract their
        # components with the children's rows, batched over parents and
        # parity.  The last axis's matmul runs per family of the axis before
        # it, so that its components, the largest, are never gathered.
        h = self.grid.points_per_axis // 2 + 1
        phases = self._phases(nodes)

        def last(who):
            rows = phases[-1][who]
            comp = np.empty((len(rows), 2, f.shape[-1]))
            np.matmul(rows.transpose(1, 0, 2), f, out=comp.transpose(1, 0, 2))
            return comp

        comp = last(slice(None)) if self.grid.dim == 1 else None
        for a in reversed(range(self.grid.dim - 1)):
            parts = []
            for who, kids, k in families[a]:
                above = (last(who) if comp is None else comp[who]).reshape(who.size, -1, 2, h)
                part = np.empty((who.size, k, 2, above.shape[1]))
                np.matmul(phases[a][kids].reshape(who.size, k, 2, h).transpose(0, 2, 1, 3),
                          above.transpose(0, 2, 3, 1), out=part.transpose(0, 2, 1, 3))
                parts.append((kids, part))
            comp = _place(parts, len(phases[a]))
        return comp.reshape(len(phases[0]), -1).view(np.complex128)

    def synthesis(self, weights: np.ndarray) -> np.ndarray:
        """Adjoint of :meth:`analysis`: scatter weighted exponentials back.

        Returns the grid-shaped array
        ``(dxi/2pi)^n sum_m exp(+i eta_m . x_j) w_m``.
        """
        grid = self.grid
        n, h = grid.points_per_axis, grid.points_per_axis // 2 + 1
        k = (2 * h) ** (grid.dim - 1)
        w = np.asarray(weights, dtype=np.complex128)[self._order]
        # the folded sum; each last-axis matmul writes its share to buf
        acc = np.zeros((2, h, 2 * k))
        buf = np.empty_like(acc)
        for ts, nodes, families in self._chunks:
            coef = w[ts, np.newaxis] * self._units[ts].conj()
            coef = np.add.reduceat(coef, _firsts(self._leaf[ts]), axis=0)
            self._synthesis_chunk(coef, nodes, families, acc, buf)
        # unfolded: the last axis, then, weighted and transposed back, the others
        acc = _unfold(acc, 1, n).reshape(n, 2 * k)
        out = np.empty((k, n), dtype=np.complex128)
        np.multiply(acc[:, :k].T, grid.spectral_weight, out=out.real)
        np.multiply(acc[:, k:].T, grid.spectral_weight, out=out.imag)
        for a in reversed(range(grid.dim - 1)):
            out = _unfold(out, (2 * h) ** a, n)
        return out.reshape(grid.shape)

    def _synthesis_chunk(self, coef: np.ndarray, nodes: list, families: list, acc, buf) -> None:
        # A method of its own, so that a chunk's tables are freed on return,
        # before the caller builds the next chunk's.  Adds to acc the chunk's
        # folded share, from the leaves' complex coefficients (leaves, 2^n):
        # _analysis_chunk's matmuls transposed, except that on a leading axis a
        # parent's coefficients are set block-diagonally over parity, so that
        # one BLAS matmul sums its (child, parity) pairs: per parity, a single
        # child (most parents in 2-D) gives inner dimension 1, run without BLAS.
        h = self.grid.points_per_axis // 2 + 1
        phases = self._phases(nodes)
        parts = [(np.arange(len(phases[0])), coef.view(np.float64))]
        for a in range(self.grid.dim - 1):
            below = _place(parts, len(phases[a])).reshape(len(phases[a]), 2, -1)
            parts = []
            for who, kids, k in families[a]:
                coef = np.zeros((who.size, below.shape[-1], 2, k, 2))
                np.einsum("wcpkp->wkpc", coef)[...] = below[kids].reshape(who.size, k, 2, -1)
                rows = phases[a][kids].reshape(who.size, 2 * k, h)
                parts.append((who, coef.reshape(who.size, -1, 2 * k) @ rows))
        for who, part in parts:
            np.matmul(phases[-1][who].transpose(1, 2, 0),
                      part.reshape(who.size, 2, -1).transpose(1, 0, 2), out=buf)
            acc += buf


def _dense_kernel(phase, amp, grid: Grid):
    """Dense quadrature from space to frequency,
    ``I[xi_k] = sum_l exp(i phase(y_l, xi_k)) amp(y_l, xi_k) v_l (2pi)^n dy^n``.

    ``phase`` and ``amp`` (None for a unit amplitude) take stacked spatial and
    frequency points, broadcast against each other.  Returns the apply and its
    exact adjoint with respect to the ``(2pi dy)^n``- and ``dxi^n``-weighted
    pairings; both take and return flat arrays.
    """
    y, xi = grid.spatial_vectors()[np.newaxis], grid.frequency_vectors()[:, np.newaxis]
    # frequency rows per kernel block, so that a block holds at most _CHUNK_ENTRIES entries
    step = max(_CHUNK_ENTRIES // grid.size, 1)
    blocks = [slice(start, start + step) for start in range(0, grid.size, step)]

    def block(sl):
        ker = np.exp(1j * np.asarray(phase(y, xi[sl]), dtype=float))
        return ker if amp is None else ker * np.asarray(amp(y, xi[sl]), dtype=np.complex128)

    def apply(values: np.ndarray) -> np.ndarray:
        v = np.asarray(values, dtype=np.complex128).reshape(-1)
        return np.concatenate([block(sl) @ v for sl in blocks]) * (2 * np.pi * grid.dx) ** grid.dim

    def adjoint(values: np.ndarray) -> np.ndarray:
        # conj(sum_k conj(v_k) K[k]): the vector is conjugated, never a block
        v = np.conj(np.asarray(values, dtype=np.complex128).reshape(-1))
        out = np.zeros(grid.size, dtype=np.complex128)
        for sl in blocks:
            out += v[sl] @ block(sl)
        return np.conj(out) * grid.dxi**grid.dim

    return apply, adjoint
