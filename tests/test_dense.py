import numpy as np
import pytest

import fiolab._dense
from fiolab._dense import TrigTable
from fiolab.lattice import make_grid


@pytest.mark.parametrize("dim,n_pts", [(1, 8), (2, 6), (3, 4), (4, 4)])
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
    table = TrigTable(grid, targets)

    # oracle: the full phase matrix exp(-i eta_m . x_j), no per-axis factoring
    phase = np.exp(-1j * (targets @ grid.spatial_vectors().T))
    analysis = table.analysis(u)
    expected = phase @ u.reshape(-1) * grid.cell_volume
    assert np.max(np.abs(analysis - expected)) < 1e-13 * np.max(np.abs(expected))
    synthesis = table.synthesis(w)
    expected = (np.conj(phase).T @ w).reshape(grid.shape) * grid.spectral_weight
    assert np.max(np.abs(synthesis - expected)) < 1e-13 * np.max(np.abs(expected))

    # synthesis is the adjoint of analysis for the (dxi/2pi)^n and dx^n pairings
    lhs = np.vdot(w, analysis) * grid.spectral_weight
    rhs = np.vdot(synthesis, u) * grid.cell_volume
    assert abs(lhs - rhs) < 1e-13 * abs(lhs)
