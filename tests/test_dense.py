import tracemalloc

import numpy as np
import pytest

import fiolab._dense
from fiolab._dense import TrigTable
from fiolab.lattice import make_grid


def _table(grid, targets, streamed: bool, monkeypatch):
    # a zero budget keeps no full table, so every chunk rebuilds its own
    budget = 0 if streamed else fiolab._dense._RESIDENT_ENTRIES
    with monkeypatch.context() as patch:
        patch.setattr(fiolab._dense, "_RESIDENT_ENTRIES", budget)
        table = TrigTable(grid, targets)
    assert (table._resident is None) == streamed
    return table


@pytest.mark.parametrize("dim,n_pts", [(1, 8), (1, 10), (2, 6), (3, 4), (3, 6), (4, 4)])
def test_trig_table_matches_brute_force_sums(dim, n_pts, monkeypatch):
    # a one-entry cap forces the smallest target chunks (256), so 600
    # targets also exercise a partial last chunk
    monkeypatch.setattr(fiolab._dense, "_CHUNK_ENTRIES", 1)
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
