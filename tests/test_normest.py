import numpy as np
import pytest

import fiolab.dispersive
import fiolab.normest
from fiolab.dispersive import TimeWindow, smoothing_constant
from fiolab.lattice import Field, bracket, make_grid
from fiolab.normest import (
    NormEstimate,
    _inner,
    cotlar_bound,
    operator_norm,
    power_iteration,
    schur_bound,
)
from fiolab.operators import (
    canonical_transform_operator,
    evaluate_multiplier,
    identity_operator,
    matrix_operator,
    multiplication_operator,
    multiplier_operator,
    pseudo_operator,
    scale,
)
from fiolab.symbols import gauss_phase, quadratic_form_symbol


class TestOperatorNorm:
    def test_identity(self):
        g = make_grid(1, 5.0, 16)
        est = operator_norm(identity_operator(g), tol=1e-10)
        assert est.converged
        assert est.estimate == pytest.approx(1.0, abs=1e-10)

    def test_weights_cancel_for_reciprocal_bracket(self):
        g = make_grid(1, 5.0, 16)
        h = multiplication_operator(g, lambda x: 1.0 / bracket(x))
        est = operator_norm(h, m_in=0.0, m_out=1.0, tol=1e-10)
        assert est.estimate == pytest.approx(1.0, abs=1e-8)

    def test_diagonal_multiplier_attains_grid_maximum(self):
        # bump multiplier with an isolated peak: oracle is the direct maximum
        g = make_grid(1, 5.0, 16)
        sym = lambda xi: 1.0 / (1.0 + np.sum((xi - 1.0) ** 2, axis=-1))
        h = multiplier_operator(g, sym)
        est = operator_norm(h, max_iters=600, tol=1e-12)
        expected = float(np.max(np.abs(evaluate_multiplier(sym, g))))
        assert est.estimate == pytest.approx(expected, abs=1e-6)

    def test_unimodular_scaling_invariance(self):
        g = make_grid(1, 5.0, 16)
        h = multiplication_operator(g, lambda x: np.exp(-np.sum(x * x, axis=-1)))
        base = operator_norm(h, tol=1e-10, seed=3).estimate
        for phase in (1j, np.exp(0.7j), -1.0):
            scaled = operator_norm(scale(phase, h), tol=1e-10, seed=3).estimate
            assert abs(scaled - base) <= 1e-10

    def test_nonconvergence_reports_instead_of_raising(self):
        g = make_grid(1, 5.0, 16)
        h = multiplication_operator(g, lambda x: np.sum(x * x, axis=-1))
        est = operator_norm(h, max_iters=1, tol=1e-14)
        assert not est.converged
        assert est.iterations == 1
        assert np.isfinite(est.estimate)

    def test_determinism_for_fixed_seed(self):
        g = make_grid(1, 5.0, 16)
        h = multiplication_operator(g, lambda x: np.exp(-np.sum(np.abs(x), axis=-1)))
        a = operator_norm(h, tol=1e-9, seed=11)
        b = operator_norm(h, tol=1e-9, seed=11)
        assert a == b

    def test_task_validation(self):
        g = make_grid(1, 5.0, 16)
        with pytest.raises(ValueError, match="tol"):
            operator_norm(identity_operator(g), tol=-1.0)
        with pytest.raises(ValueError, match="max_iters"):
            operator_norm(identity_operator(g), max_iters=0)
        with pytest.raises(TypeError):  # max_iters and tol cannot be swapped by position
            operator_norm(identity_operator(g), 0.0, 0.0, 200, 1e-6)


def _diagonal_solve(diag, start, tol, max_iters):
    """Solve with the normal operator ``diag(diag)``; also return the apply count."""
    g = make_grid(1, 4.0, len(diag))
    applies = 0

    def normal_apply(v):
        nonlocal applies
        applies += 1
        return Field(g, diag * v.values)

    est = power_iteration(normal_apply, Field(g, start), tol, max_iters)
    return est, applies


# top pair 1 and 1 - 1e-4 above a block at 0.25, probed from a start vector
# that carries 1e-6 of the top eigenvector: a lower member's residual meets
# tol at step 2, before the top eigenvalue shows in the Krylov space, which
# holds all three eigenvalues exactly from step 3, inside the hold
CLUSTER = np.array([1.0, 1.0 - 1e-4] + [0.25] * 14)
CLUSTER_START = np.array([1e-6] + [1.0] * 15)


class TestSolver:
    @pytest.mark.parametrize("n", [8, 16])
    def test_dense_oracle(self, n):
        g = make_grid(1, 4.0, n)
        rng = np.random.default_rng(n)
        tol = 1e-6
        for trial in range(20):
            m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            est = operator_norm(matrix_operator(g, m), tol=tol, seed=trial)
            top = np.linalg.svd(m, compute_uv=False)[0]
            assert est.converged and est.residual <= tol
            assert abs(est.estimate - top) <= tol * top
            assert est.estimate <= top * (1.0 + 1e-12)  # a Ritz value is a lower bound

    def test_cluster_top_found_or_not_converged(self):
        tol = 1e-8
        est, _ = _diagonal_solve(CLUSTER, CLUSTER_START, tol, 100)
        assert not est.converged or abs(est.estimate - 1.0) <= tol

    def test_cluster_needs_the_hold(self, monkeypatch):
        # without the hold the residual test alone stops on the lower member
        monkeypatch.setattr(fiolab.normest, "_HOLD_STEPS", 0)
        est, _ = _diagonal_solve(CLUSTER, CLUSTER_START, 1e-8, 100)
        assert est.converged and est.estimate < 1.0 - 1e-5

    def test_identity_breaks_down_after_one_apply(self):
        est = operator_norm(identity_operator(make_grid(1, 5.0, 16)), tol=1e-10)
        assert (est.estimate, est.iterations, est.converged) == (1.0, 1, True)

    @pytest.mark.parametrize("max_iters", [3, 100])
    def test_iterations_count_applies(self, max_iters):
        est, applies = _diagonal_solve(np.linspace(0.1, 1.0, 16), np.ones(16), 1e-10, max_iters)
        assert est.iterations == applies
        assert est.converged == (max_iters == 100)

    def test_ellipse_transform_applies(self):
        # the criterion-4 transform at m = 0: power iteration took 62 applies
        psi = gauss_phase(quadratic_form_symbol(np.diag([1.0, 4.0])))
        h = canonical_transform_operator(psi, make_grid(2, 10.0, 32), "forward")
        est = operator_norm(h, tol=1e-5, max_iters=150)
        assert est.converged and est.iterations <= 45

    @pytest.mark.parametrize("m, applies", [(-0.9, 14), (0.0, 41), (0.9, 15)])
    def test_canonical_norm_apply_counts_pinned(self, m, applies):
        # the canonical-norm-2d benchmark configs on their N = 32 grid
        psi = gauss_phase(quadratic_form_symbol(np.diag([1.0, 4.0])))
        h = canonical_transform_operator(psi, make_grid(2, 10.0, 32), "forward")
        est = operator_norm(h, m, m, tol=1e-5, max_iters=150)
        assert est.converged and est.iterations == applies

    def test_smoothing_3d_apply_count_pinned(self):
        # the smoothing-3d benchmark config
        p = quadratic_form_symbol(np.diag([1.0, 1.0, 4.0]))
        est = smoothing_constant(p, make_grid(3, 12.0, 32), TimeWindow(1.0, 65), 1.0,
                                 tol=1e-3, max_iters=60)
        assert est.converged and est.iterations == 17
        assert est.estimate == pytest.approx(1.1345744237814965, rel=1e-14)

    @pytest.mark.parametrize("n", [7, 32768])  # below and above OpenBLAS's threading threshold
    def test_inner_product_matches_vdot(self, n):
        rng = np.random.default_rng(n)
        a, b = (rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(2))
        assert isinstance(_inner(a, b), complex)
        assert abs(_inner(a, b) - np.vdot(a, b)) <= 1e-14 * np.linalg.norm(a) * np.linalg.norm(b)
        assert _inner(a, a).real == pytest.approx(np.linalg.norm(a) ** 2, rel=1e-14)

    def test_estimate_without_residual_constructs_positionally(self):
        # reference solvers and test stubs build (estimate, iterations, converged)
        assert NormEstimate(0.0, 0, False).residual is None


class TestSchurBound:
    def test_zero_kernel(self):
        assert schur_bound(np.zeros((4, 4))) == 0.0

    def test_discrete_delta_kernel(self):
        g = make_grid(1, 2.0, 4)
        assert schur_bound(np.eye(4) / g.dx, g.dx, g.dx) == pytest.approx(1.0)

    @pytest.mark.parametrize("size", [4, 8, 16])
    def test_dominates_spectral_norm_random(self, size):
        rng = np.random.default_rng(size)
        for _ in range(100):
            kernel = rng.random((size, size))
            assert schur_bound(kernel) >= np.linalg.svd(kernel, compute_uv=False)[0] - 1e-12

    def test_dominates_weighted_operator_norm(self):
        g = make_grid(1, 4.0, 8)
        rng = np.random.default_rng(0)
        for trial in range(20):
            kernel = rng.random((8, 8)) + 1j * rng.random((8, 8))
            h = scale(g.cell_volume, matrix_operator(g, kernel))
            est = operator_norm(h, max_iters=500, tol=1e-11, seed=trial)
            assert schur_bound(kernel, g.dx, g.dx) >= est.estimate - 1e-9

    def test_rejects_bad_kernels(self):
        with pytest.raises(ValueError):
            schur_bound(np.ones(3))
        with pytest.raises(ValueError):
            schur_bound(np.array([[np.inf, 0.0], [0.0, 1.0]]))


class TestCotlarBound:
    def test_singleton_family_is_tight(self):
        g = make_grid(1, 8.0, 16)
        rng = np.random.default_rng(1)
        m = rng.random((16, 16)) + 1j * rng.random((16, 16))
        rep = cotlar_bound({(0,): matrix_operator(g, m)}, tol=1e-12, max_iters=2000)
        true_norm = np.linalg.svd(m, compute_uv=False)[0]
        assert rep.bound == pytest.approx(true_norm, rel=1e-6)
        assert rep.sum_norm == pytest.approx(true_norm, rel=1e-6)

    def test_disjoint_bumps_only_diagonal_survives(self):
        g = make_grid(1, 8.0, 16)
        vals1 = np.zeros(16)
        vals1[2:5] = 2.0
        vals2 = np.zeros(16)
        vals2[8:11] = 1.5
        handles = {
            (0,): multiplication_operator(g, vals1),
            (1,): multiplication_operator(g, vals2),
        }
        rep = cotlar_bound(handles, tol=1e-12, max_iters=2000)
        assert rep.bound == pytest.approx(2.0, rel=1e-6)
        assert rep.sum_norm == pytest.approx(2.0, rel=1e-6)
        assert rep.gamma[(1,)] == pytest.approx(0.0, abs=1e-8)
        assert rep.gamma[(-1,)] == pytest.approx(0.0, abs=1e-8)

    def test_gamma_is_the_lemma_pairwise_norm(self):
        # gamma(k) = max over i - j = k of sqrt(max(|A_i^H A_j|, |A_i A_j^H|)),
        # which is symmetric in k because |A_i^H A_j| = |A_j^H A_i|; the bound
        # solves each unordered pair once, so the symmetry check below holds
        # by construction and guards that both keys are written
        g = make_grid(1, 4.0, 8)
        rng = np.random.default_rng(5)
        mats = [rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)) for _ in range(3)]
        handles = {(i,): matrix_operator(g, m) for i, m in enumerate(mats)}
        rep = cotlar_bound(handles, tol=1e-12, max_iters=5000)
        expected = {}
        for i, a in enumerate(mats):
            for j, b in enumerate(mats):
                pair = max(np.linalg.norm(a.conj().T @ b, 2), np.linalg.norm(a @ b.conj().T, 2))
                expected[(i - j,)] = max(expected.get((i - j,), 0.0), np.sqrt(pair))
        assert set(rep.gamma) == set(expected)
        for k, value in expected.items():
            assert rep.gamma[k] == pytest.approx(value, rel=1e-9)
            assert rep.gamma[k] == pytest.approx(rep.gamma[(-k[0],)], rel=1e-9)

    def test_random_pseudo_families_never_undershoot(self):
        g = make_grid(1, 4.0, 8)
        rng = np.random.default_rng(7)
        for trial in range(25):
            handles = {}
            for i in range(3):
                c0, c1, c2 = rng.standard_normal(3)
                amp = lambda x, xi, c0=c0, c1=c1, c2=c2: (
                    c0
                    + c1 * np.exp(-np.sum(x * x, axis=-1))
                    + c2 / (1.0 + np.sum(xi * xi, axis=-1))
                )
                handles[(i,)] = pseudo_operator(g, amp)
            rep = cotlar_bound(handles, tol=1e-10, max_iters=1000, seed=trial)
            assert rep.bound >= rep.sum_norm * (1.0 - 1e-8)

    def test_empty_family_rejected(self):
        g = make_grid(1, 4.0, 8)
        with pytest.raises(ValueError, match="non-empty"):
            cotlar_bound({})
        with pytest.raises(ValueError, match="one rank"):
            cotlar_bound({0: identity_operator(g), (1, 2): identity_operator(g)})

    def test_int_indices_become_tuples(self):
        g = make_grid(1, 4.0, 8)
        family = {0: identity_operator(g), 1: scale(2.0, identity_operator(g))}
        rep = cotlar_bound(family, tol=1e-12)
        assert set(rep.gamma) == {(-1,), (0,), (1,)}
        assert rep.gamma[(0,)] == pytest.approx(2.0, rel=1e-12)
        assert rep.gamma[(1,)] == rep.gamma[(-1,)] == pytest.approx(2.0**0.5, rel=1e-12)


SOLVER_GRID = make_grid(1, 4.0, 8)

# each norm entry point on a small identity-like problem, with solver options
NORM_ENTRIES = {
    "operator_norm": lambda **kw: operator_norm(identity_operator(SOLVER_GRID), **kw),
    "smoothing_constant": lambda **kw: smoothing_constant(
        quadratic_form_symbol(np.eye(1)), SOLVER_GRID, TimeWindow(0.5, 5), 1.0, **kw
    ),
    "cotlar_bound": lambda **kw: cotlar_bound({0: identity_operator(SOLVER_GRID)}, **kw),
}


class TestSolverCalls:
    """Every norm goes through ``power_iteration`` as a module global, the way
    a reference solver is swapped in, and the solver checks its inputs."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        for module in (fiolab.normest, fiolab.dispersive):
            def stub(normal_apply, start, tol, max_iters, name=module.__name__):
                calls.append(name)
                return NormEstimate(1.0, 1, True)

            monkeypatch.setattr(module, "power_iteration", stub)
        return calls

    @pytest.mark.parametrize("size, solves", [(1, 2), (3, 10)])
    def test_cotlar_solves_each_pair_once(self, calls, size, solves):
        family = {i: scale(i + 1.0, identity_operator(SOLVER_GRID)) for i in range(size)}
        rep = cotlar_bound(family)
        assert calls == ["fiolab.normest"] * solves  # K^2 + 1
        assert set(rep.gamma) == {(k,) for k in range(1 - size, size)}

    def test_each_norm_is_one_call_through_its_module(self, calls):
        NORM_ENTRIES["operator_norm"]()
        assert calls == ["fiolab.normest"]
        NORM_ENTRIES["smoothing_constant"]()
        assert calls == ["fiolab.normest", "fiolab.dispersive"]

    @pytest.mark.parametrize("entry", sorted(NORM_ENTRIES))
    @pytest.mark.parametrize(
        "bad",
        [{"tol": 0.0}, {"tol": -1.0}, {"tol": float("nan")}, {"max_iters": 0}],
        ids=["tol=0", "tol=-1", "tol=nan", "max_iters=0"],
    )
    def test_solver_inputs_checked_at_every_entry(self, entry, bad):
        with pytest.raises(ValueError, match=next(iter(bad))):
            NORM_ENTRIES[entry](**bad)


class TestWeightedBoundednessRegression:
    @pytest.mark.slow
    def test_ellipse_transform_weighted_norm_trend(self):
        # surrogate of the weighted boundedness claim: measure the map on
        # L2_m for integer |m| < n/2 plus the unweighted case; the claim
        # covers m = 0 at n = 2 (integer weights below n/2), where the norm
        # must show no growth trend across refinement
        psi = gauss_phase(quadratic_form_symbol(np.diag([1.0, 4.0])))
        estimates = []
        for n_pts in (32, 64, 128):
            g = make_grid(2, 10.0, n_pts)
            h = canonical_transform_operator(psi, g, "forward")
            est = operator_norm(h, 0.0, 0.0, max_iters=200, tol=1e-6, seed=0)
            estimates.append(est.estimate)
        slope = np.polyfit(np.log([32, 64, 128]), np.log(estimates), 1)[0]
        assert slope < 0.05
