import numpy as np
import pytest

from fiolab.lattice import bracket, make_grid
from fiolab.normest import (
    OperatorFamily,
    WeightedNormTask,
    cotlar_bound,
    decompose_unity,
    operator_norm,
    schur_bound,
)
from fiolab.operators import (
    Amplitude,
    canonical_transform_operator,
    evaluate_multiplier,
    identity_operator,
    kernel_operator,
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
        est = operator_norm(WeightedNormTask(identity_operator(g), tol=1e-10))
        assert est.converged
        assert est.estimate == pytest.approx(1.0, abs=1e-10)

    def test_weights_cancel_for_reciprocal_bracket(self):
        g = make_grid(1, 5.0, 16)
        h = multiplication_operator(g, lambda x: 1.0 / bracket(x))
        est = operator_norm(WeightedNormTask(h, m_in=0.0, m_out=1.0, tol=1e-10))
        assert est.estimate == pytest.approx(1.0, abs=1e-8)

    def test_diagonal_multiplier_attains_grid_maximum(self):
        # bump multiplier with an isolated peak: oracle is the direct maximum
        g = make_grid(1, 5.0, 16)
        sym = lambda xi: 1.0 / (1.0 + np.sum((xi - 1.0) ** 2, axis=-1))
        h = multiplier_operator(g, sym)
        est = operator_norm(WeightedNormTask(h, max_iters=600, tol=1e-12))
        expected = float(np.max(np.abs(evaluate_multiplier(sym, g))))
        assert est.estimate == pytest.approx(expected, abs=1e-6)

    def test_unimodular_scaling_invariance(self):
        g = make_grid(1, 5.0, 16)
        h = multiplication_operator(g, lambda x: np.exp(-np.sum(x * x, axis=-1)))
        base = operator_norm(WeightedNormTask(h, tol=1e-10, seed=3)).estimate
        for phase in (1j, np.exp(0.7j), -1.0):
            scaled = operator_norm(
                WeightedNormTask(scale(phase, h), tol=1e-10, seed=3)
            ).estimate
            assert abs(scaled - base) <= 1e-10

    def test_nonconvergence_reports_instead_of_raising(self):
        g = make_grid(1, 5.0, 16)
        h = multiplication_operator(g, lambda x: np.sum(x * x, axis=-1))
        est = operator_norm(WeightedNormTask(h, max_iters=1, tol=1e-14))
        assert not est.converged
        assert est.iterations == 1
        assert np.isfinite(est.estimate)

    def test_determinism_for_fixed_seed(self):
        g = make_grid(1, 5.0, 16)
        h = multiplication_operator(g, lambda x: np.exp(-np.sum(np.abs(x), axis=-1)))
        a = operator_norm(WeightedNormTask(h, tol=1e-9, seed=11))
        b = operator_norm(WeightedNormTask(h, tol=1e-9, seed=11))
        assert a == b

    def test_task_validation(self):
        g = make_grid(1, 5.0, 16)
        with pytest.raises(ValueError):
            WeightedNormTask(identity_operator(g), tol=-1.0)
        with pytest.raises(ValueError):
            WeightedNormTask(identity_operator(g), max_iters=0)


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
            h = kernel_operator(g, kernel)
            est = operator_norm(WeightedNormTask(h, max_iters=500, tol=1e-11, seed=trial))
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
        fam = OperatorFamily(((0,),), lambda i: matrix_operator(g, m), g)
        rep = cotlar_bound(fam, tol=1e-12, max_iters=2000)
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
        fam = OperatorFamily(((0,), (1,)), lambda i: handles[i], g)
        rep = cotlar_bound(fam, tol=1e-12, max_iters=2000)
        assert rep.bound == pytest.approx(2.0, rel=1e-6)
        assert rep.sum_norm == pytest.approx(2.0, rel=1e-6)
        assert rep.gamma[(1,)] == pytest.approx(0.0, abs=1e-8)
        assert rep.gamma[(-1,)] == pytest.approx(0.0, abs=1e-8)

    def test_gamma_is_the_lemma_pairwise_norm(self):
        # gamma(k) = max over i - j = k of sqrt(max(|A_i^H A_j|, |A_i A_j^H|)),
        # which is symmetric in k because |A_i^H A_j| = |A_j^H A_i|
        g = make_grid(1, 4.0, 8)
        rng = np.random.default_rng(5)
        mats = [rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)) for _ in range(3)]
        handles = {(i,): matrix_operator(g, m) for i, m in enumerate(mats)}
        fam = OperatorFamily(tuple(handles), lambda i: handles[i], g)
        rep = cotlar_bound(fam, tol=1e-12, max_iters=5000)
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
                amp = Amplitude.of_x_xi(
                    lambda x, xi, c0=c0, c1=c1, c2=c2: c0
                    + c1 * np.exp(-np.sum(x * x, axis=-1))
                    + c2 / (1.0 + np.sum(xi * xi, axis=-1))
                )
                handles[(i,)] = pseudo_operator(g, amp)
            fam = OperatorFamily(tuple(handles), lambda i: handles[i], g)
            rep = cotlar_bound(fam, tol=1e-10, max_iters=1000, seed=trial)
            assert rep.bound >= rep.sum_norm * (1.0 - 1e-8)

    def test_empty_family_rejected(self):
        g = make_grid(1, 4.0, 8)
        with pytest.raises(ValueError):
            OperatorFamily((), lambda i: identity_operator(g), g)


class TestDecomposeUnity:
    def test_triangular_hat_is_exact(self):
        g = make_grid(1, 4.0, 32)
        parts = decompose_unity(lambda t: np.maximum(1.0 - np.abs(t), 0.0), g)
        total = sum(f.values.real for f in parts.values())
        assert np.max(np.abs(total - 1.0)) < 1e-14
        assert set(parts) == {(k,) for k in range(-4, 4)}

    def test_quadratic_bspline(self):
        def bspline2(t):
            t = np.abs(np.asarray(t, dtype=float)) + 1.5  # shift to [0, 3]
            out = np.zeros_like(t)
            m = (t >= 0) & (t < 1)
            out[m] = 0.5 * t[m] ** 2
            m = (t >= 1) & (t < 2)
            out[m] = 0.5 * (-2.0 * t[m] ** 2 + 6.0 * t[m] - 3.0)
            m = (t >= 2) & (t < 3)
            out[m] = 0.5 * (3.0 - t[m]) ** 2
            return out

        g = make_grid(2, 3.0, 12)
        parts = decompose_unity(bspline2, g)
        total = sum(f.values.real for f in parts.values())
        assert np.max(np.abs(total - 1.0)) < 1e-12

    def test_truncated_gaussian_rejected_with_worst_point(self):
        g = make_grid(1, 4.0, 32)
        with pytest.raises(ValueError, match="partition of unity"):
            decompose_unity(lambda t: np.exp(-t * t), g)

    def test_bump_family_feeds_cotlar(self):
        g = make_grid(1, 4.0, 32)
        parts = decompose_unity(lambda t: np.maximum(1.0 - np.abs(t), 0.0), g)
        handles = {k: multiplication_operator(g, f.values) for k, f in parts.items()}
        fam = OperatorFamily(tuple(handles), lambda i: handles[i], g)
        rep = cotlar_bound(fam, tol=1e-10, max_iters=500)
        # the translates sum to the identity, whose norm is exactly 1
        assert rep.sum_norm == pytest.approx(1.0, rel=1e-8)
        assert rep.bound >= 1.0 - 1e-9


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
            est = operator_norm(WeightedNormTask(h, 0.0, 0.0, max_iters=200, tol=1e-6, seed=0))
            estimates.append(est.estimate)
        slope = np.polyfit(np.log([32, 64, 128]), np.log(estimates), 1)[0]
        assert slope < 0.05
