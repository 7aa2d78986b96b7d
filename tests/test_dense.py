import tracemalloc

import numpy as np
import pytest

import fiolab._dense
from fiolab._dense import TrigTable
from fiolab.lattice import inner_product, make_grid
from fiolab.operators import fio_operator, pseudo_operator
from tests.conftest import random_field


def _table(grid, targets, streamed: bool, monkeypatch):
    # a zero budget keeps no full table, so every chunk rebuilds its own
    budget = 0 if streamed else fiolab._dense._RESIDENT_ENTRIES
    with monkeypatch.context() as patch:
        patch.setattr(fiolab._dense, "_RESIDENT_ENTRIES", budget)
        table = TrigTable(grid, targets)
    # each phase table is held once: full tables or their factors, never both
    assert (table._resident is None) == streamed
    assert (table._factors is None) == (not streamed)
    return table


@pytest.mark.parametrize("dim,n_pts", [(1, 8), (1, 10), (2, 6), (3, 4), (3, 6), (4, 4)])
def test_trig_table_matches_brute_force_sums(dim, n_pts, monkeypatch):
    # a budget of 256 targets per chunk, so 600 targets make two full
    # chunks and a partial last one
    monkeypatch.setattr(fiolab._dense, "_CHUNK_ENTRIES", 256 * max(n_pts ** (dim - 1), n_pts))
    grid = make_grid(dim, 3.0, n_pts)
    rng = np.random.default_rng(dim)
    xi_max = grid.dxi * n_pts / 2
    targets = rng.uniform(-xi_max, xi_max, (600, dim))
    u = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    w = rng.standard_normal(600) + 1j * rng.standard_normal(600)

    # oracle: the full phase matrix exp(-i eta_m . x_j), no per-axis factoring
    phase = np.exp(-1j * (targets @ grid.spatial_vectors().T))
    expected_analysis = phase @ u.reshape(-1) * grid.cell_volume
    expected_synthesis = (np.conj(phase).T @ w).reshape(grid.shape) * grid.spectral_weight

    results = []
    for streamed in (False, True):
        table = _table(grid, targets, streamed, monkeypatch)
        analysis = table.analysis(u)
        err = np.max(np.abs(analysis - expected_analysis))
        assert err < 1e-13 * np.max(np.abs(expected_analysis))
        synthesis = table.synthesis(w)
        err = np.max(np.abs(synthesis - expected_synthesis))
        assert err < 1e-13 * np.max(np.abs(expected_synthesis))

        # synthesis is the adjoint of analysis for the (dxi/2pi)^n and dx^n pairings
        lhs = np.vdot(w, analysis) * grid.spectral_weight
        rhs = np.vdot(synthesis, u) * grid.cell_volume
        assert abs(lhs - rhs) < 1e-13 * abs(lhs)
        results.append((analysis, synthesis))

    (res_a, res_s), (str_a, str_s) = results
    assert np.max(np.abs(str_a - res_a)) < 1e-13 * np.max(np.abs(res_a))
    assert np.max(np.abs(str_s - res_s)) < 1e-13 * np.max(np.abs(res_s))


@pytest.mark.parametrize("streamed", [False, True])
@pytest.mark.parametrize("dim,n_pts", [(1, 10), (2, 6), (3, 4)])
def test_trig_table_without_targets(dim, n_pts, streamed, monkeypatch):
    grid = make_grid(dim, 3.0, n_pts)
    table = _table(grid, np.zeros((0, dim)), streamed, monkeypatch)
    assert table.analysis(np.ones(grid.shape)).shape == (0,)
    synthesis = table.synthesis(np.zeros(0))
    assert synthesis.shape == grid.shape
    assert not np.any(synthesis)


def test_factorized_phases_accurate_at_large_arguments():
    # |eta . x| reaches ~800 rad over the whole frequency box of L = 10, N = 256
    grid = make_grid(2, 10.0, 256)
    rng = np.random.default_rng(7)
    xi_max = grid.dxi * grid.points_per_axis / 2
    targets = rng.uniform(-xi_max, xi_max, (2000, 2))
    table = TrigTable(grid, targets)
    nodes = grid.spatial_vectors()
    for flat in (0, grid.size - 1):  # the corners (-L, -L) and (L - dx, L - dx)
        delta = np.zeros(grid.size)
        delta[flat] = 1.0
        got = table.analysis(delta.reshape(grid.shape)) / grid.dx**2
        expected = np.exp(-1j * (targets @ nodes[flat]))
        assert np.max(np.abs(got - expected)) < 5e-13


def _traced_peak(grid, targets, u, w) -> int:
    tracemalloc.start()
    try:
        table = TrigTable(grid, targets)
        table.analysis(u)
        table.synthesis(w)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _sixteen_chunks(monkeypatch):
    # 4096 targets on a 2-D N = 64 grid, in 16 chunks of 256 targets
    monkeypatch.setattr(fiolab._dense, "_CHUNK_ENTRIES", 1 << 14)
    grid = make_grid(2, 5.0, 64)
    rng = np.random.default_rng(3)
    xi_max = grid.dxi * grid.points_per_axis / 2
    targets = rng.uniform(-xi_max, xi_max, (4096, 2))
    u = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    w = rng.standard_normal(4096) + 1j * rng.standard_normal(4096)
    assert TrigTable(grid, targets)._chunk() * 16 == 4096
    return grid, targets, u, w


def test_streamed_tables_bound_peak_memory(monkeypatch):
    # a streamed table holds one chunk's tables at a time, a resident one
    # all 2 x 4096 x 64 entries (8 MB)
    grid, targets, u, w = _sixteen_chunks(monkeypatch)
    resident = _traced_peak(grid, targets, u, w)
    monkeypatch.setattr(fiolab._dense, "_RESIDENT_ENTRIES", 0)
    assert TrigTable(grid, targets)._resident is None
    streamed = _traced_peak(grid, targets, u, w)
    assert streamed < resident / 2, (streamed, resident)


def test_streamed_chunk_tables_freed_before_next_chunk(monkeypatch):
    # each direction may hold one chunk's tables and one (chunk, N^(n-1))
    # intermediate at a time, plus a few grid- or target-sized arrays; a
    # chunk whose tables survive into the next adds another 512 KB, and a
    # conjugated copy of a table 256 KB
    grid, targets, u, w = _sixteen_chunks(monkeypatch)
    table = _table(grid, targets, True, monkeypatch)
    n = grid.points_per_axis
    chunk = table._chunk()
    entry = np.dtype(np.complex128).itemsize
    tables = grid.dim * chunk * n * entry
    intermediate = chunk * n ** (grid.dim - 1) * entry
    margin = 4 * max(len(targets), grid.size) * entry
    for direction, arg in ((table.analysis, u), (table.synthesis, w)):
        tracemalloc.start()
        try:
            direction(arg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < tables + intermediate + margin, (direction.__name__, peak)


def test_chunk_follows_the_budget_below_256_targets(monkeypatch):
    # 3-D N = 16 at a budget of 32 N^2 entries: chunks of 32 targets, so an
    # intermediate holds 32 N^2 entries (128 KiB).  Measured peak of analysis
    # plus synthesis: 459 KiB; with chunks of 256 targets it reached 1411 KiB.
    grid = make_grid(3, 4.0, 16)
    n = grid.points_per_axis
    budget = 32 * n**2
    monkeypatch.setattr(fiolab._dense, "_CHUNK_ENTRIES", budget)
    rng = np.random.default_rng(5)
    xi_max = grid.dxi * n / 2
    targets = rng.uniform(-xi_max, xi_max, (3000, 3))
    u = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    w = rng.standard_normal(3000) + 1j * rng.standard_normal(3000)
    table = TrigTable(grid, targets)
    assert table._chunk() == budget // n**2 < 256
    entry = np.dtype(np.complex128).itemsize
    intermediate = budget * entry
    margin = 4 * max(len(targets), grid.size) * entry
    tracemalloc.start()
    try:
        table.analysis(u)
        table.synthesis(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * intermediate + margin, peak


def _counted(fn, blocks: list):
    # records the rows of each block that fn is evaluated on
    def counted(*args):
        blocks.append(np.broadcast_shapes(*(a.shape for a in args))[0])
        return fn(*args)
    return counted


# each builds a dense-kernel handle, passing one of its callables through ``wrap``
DENSE_HANDLES = {
    "pseudo": lambda grid, wrap: pseudo_operator(
        grid, wrap(lambda x, xi: 1.0 / (1.0 + np.sum(x * x, axis=-1) + np.sum(xi * xi, axis=-1)))
    ),
    "fio": lambda grid, wrap: fio_operator(
        grid,
        wrap(lambda y, xi: -np.sum(y * xi, axis=-1) + 0.2 * np.sum(xi, axis=-1)
             * np.tanh(np.sum(y, axis=-1))),
        lambda y, xi: 1.0 / (1.0 + np.sum(y * y, axis=-1)),
    ),
}


@pytest.mark.parametrize("kind", sorted(DENSE_HANDLES))
def test_dense_kernel_over_several_blocks(kind, monkeypatch):
    # 1-D N = 16 at a budget of 5 rows of 16 inputs: blocks of 5, 5, 5 and 1
    # rows, each evaluated once per apply and once per adjoint
    grid = make_grid(1, 5.0, 16)
    build = DENSE_HANDLES[kind]
    whole = build(grid, lambda fn: fn)
    monkeypatch.setattr(fiolab._dense, "_CHUNK_ENTRIES", 5 * grid.size)
    blocks: list = []
    blocked = build(grid, lambda fn: _counted(fn, blocks))
    u, v = random_field(grid, seed=1), random_field(grid, seed=2)

    out = blocked.apply(u)
    assert blocks == [5, 5, 5, 1]
    back = blocked.apply_adjoint(v)
    assert blocks == [5, 5, 5, 1] * 2

    for got, want in ((out, whole.apply(u)), (back, whole.apply_adjoint(v))):
        assert np.max(np.abs(got.values - want.values)) < 1e-13 * np.max(np.abs(want.values))
    lhs, rhs = inner_product(out, v), inner_product(u, back)
    assert abs(lhs - rhs) < 1e-13 * abs(lhs)


@pytest.mark.parametrize("shape", [(5,), (5, 3), (2, 5, 2)])
def test_trig_table_rejects_targets_of_the_wrong_shape(shape):
    with pytest.raises(ValueError, match=r"targets must have shape \(M, dim\)"):
        TrigTable(make_grid(2, 3.0, 8), np.zeros(shape))
