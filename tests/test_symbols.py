import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fiolab.symbols import (
    MapInversionError,
    SymbolClassSpec,
    check_curvature,
    check_jacobian_bound,
    check_symbol_class,
    euclidean_symbol,
    gauss_phase,
    identity_map,
    invert_map,
    invert_map_batch,
    linear_map,
    perturbed_symbol,
    quadratic_form_symbol,
    scaling_map,
    sphere_points,
    symbol_from_callable,
    symbol_from_config,
)

ELLIPSE = quadratic_form_symbol(np.diag([1.0, 4.0]))


def fd_jacobian(m, xi, h=1e-6):
    xi = np.asarray(xi, dtype=float)
    out = np.empty((xi.size, xi.size))
    for a in range(xi.size):
        e = np.zeros(xi.size)
        e[a] = h
        out[:, a] = (m.forward(xi + e) - m.forward(xi - e)) / (2 * h)
    return out


class TestSymbolFamilies:
    @settings(max_examples=30, deadline=None)
    @given(lam=st.floats(0.1, 10.0), seed=st.integers(0, 1000))
    def test_homogeneity_degree_one(self, lam, seed):
        rng = np.random.default_rng(seed)
        xi = rng.standard_normal((8, 2))
        for p in (euclidean_symbol(2), ELLIPSE, perturbed_symbol(euclidean_symbol(2), 0.2, [1.0, 1.0])):
            np.testing.assert_allclose(
                p.evaluate(lam * xi), lam * p.evaluate(xi), rtol=1e-10
            )

    def test_euler_identity(self):
        rng = np.random.default_rng(5)
        xi = rng.standard_normal((50, 2))
        for p in (euclidean_symbol(2), ELLIPSE, perturbed_symbol(ELLIPSE, 0.1, [0.0, 1.0])):
            lhs = np.einsum("...i,...i->...", xi, p.gradient(xi))
            np.testing.assert_allclose(lhs, p.evaluate(xi), rtol=1e-8)

    def test_positivity_on_sphere(self):
        for p in (euclidean_symbol(3), quadratic_form_symbol(np.diag([1.0, 1.0, 4.0]))):
            assert np.min(p.evaluate(sphere_points(3, 200))) > 0

    def test_perturbed_derivatives_match_finite_differences(self):
        p = perturbed_symbol(euclidean_symbol(2), 0.3, [1.0, 0.5])
        xi0 = np.array([0.9, -0.4])
        h = 1e-6
        for a in range(2):
            e = np.zeros(2)
            e[a] = h
            fd = (p.evaluate(xi0 + e) - p.evaluate(xi0 - e)) / (2 * h)
            assert p.gradient(xi0)[a] == pytest.approx(fd, rel=1e-8)
        hess_fd = np.empty((2, 2))
        for a in range(2):
            e = np.zeros(2)
            e[a] = h
            hess_fd[:, a] = (p.gradient(xi0 + e) - p.gradient(xi0 - e)) / (2 * h)
        np.testing.assert_allclose(p.hessian(xi0), hess_fd, atol=1e-6)

    def test_excessive_perturbation_rejected(self):
        with pytest.raises(ValueError, match="positivity"):
            perturbed_symbol(euclidean_symbol(2), -2.0, [1.0, 0.0])

    @pytest.mark.parametrize(
        "amplitude, direction",
        [(0.1, [0.0, 0.0]), (0.1, [np.nan, 1.0]), (0.1, [np.inf, 0.0]), (np.nan, [1.0, 0.0])],
    )
    def test_undefined_perturbation_rejected(self, amplitude, direction):
        # a NaN symbol passes a plain "min <= 0" positivity test
        with pytest.raises(ValueError, match="bump direction|positivity"):
            perturbed_symbol(euclidean_symbol(2), amplitude, direction)

    def test_infinite_amplitude_rejected(self):
        # +inf keeps every sampled value positive
        with pytest.raises(ValueError, match="amplitude must be finite"):
            perturbed_symbol(euclidean_symbol(2), np.inf, [1.0, 0.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_quadratic_form_rejected(self, bad):
        # a NaN diagonal used to be reported as "must be symmetric"
        for matrix in (np.diag([bad, 1.0]), [[1.0, bad], [bad, 1.0]]):
            with pytest.raises(ValueError, match="must be finite"):
                quadratic_form_symbol(matrix)

    def test_config_round_trip(self):
        p = symbol_from_config({"name": "quadratic_form", "diag": [1, 4]}, 2)
        assert p.evaluate(np.array([0.0, 1.0])) == pytest.approx(2.0)
        q = symbol_from_config(
            {"name": "perturbed", "base": {"name": "euclidean"},
             "bump_amplitude": 0.1, "bump_direction": [1, 0]},
            2,
        )
        assert q.evaluate(np.array([1.0, 0.0])) == pytest.approx(1.1)
        with pytest.raises(ValueError, match="unknown symbol"):
            symbol_from_config({"name": "nope"}, 2)


class TestGaussPhase:
    def test_euclidean_gives_identity(self):
        psi = gauss_phase(euclidean_symbol(2))
        pts = sphere_points(2, 64) * 3.7
        assert np.max(np.abs(psi.forward(pts) - pts)) <= 1e-12

    def test_scaled_euclidean_gives_dilation(self):
        # oracle: grad p = c xi/|xi|, |grad p| = c, so psi = c |xi| xi/|xi| = c xi
        c = 3.0
        psi = gauss_phase(quadratic_form_symbol(c**2 * np.eye(2)))
        pts = np.array([[1.0, 2.0], [-0.3, 0.4]])
        np.testing.assert_allclose(psi.forward(pts), c * pts, rtol=1e-12)

    def test_ellipse_point_value(self):
        # oracle: psi(xi) = sqrt(xi.A xi) A xi / |A xi|; at (0,1): p=2, Axi=(0,4)
        psi = gauss_phase(ELLIPSE)
        np.testing.assert_allclose(psi.forward(np.array([0.0, 1.0])), [0.0, 2.0], atol=1e-14)

    def test_map_magnitude_equals_symbol(self):
        psi = gauss_phase(ELLIPSE)
        pts = sphere_points(2, 128) * 2.3
        np.testing.assert_allclose(
            np.linalg.norm(psi.forward(pts), axis=-1), ELLIPSE.evaluate(pts), rtol=1e-10
        )

    def test_jacobian_matches_finite_differences(self):
        psi = gauss_phase(ELLIPSE)
        for xi0 in ([0.7, -1.3], [2.0, 0.1], [-0.5, 0.5]):
            np.testing.assert_allclose(
                psi.jacobian(np.asarray(xi0)), fd_jacobian(psi, xi0), atol=1e-8
            )

    def test_degenerate_gradient_rejected(self):
        flat = symbol_from_callable(
            lambda xi: np.full(np.asarray(xi).shape[:-1], 1.0)
            * np.abs(np.asarray(xi)[..., 0] + np.asarray(xi)[..., 1]),
            2,
        )
        with pytest.raises(ValueError, match="degenerates"):
            gauss_phase(flat)


class TestInvertMap:
    def test_identity(self):
        out = invert_map(identity_map(2), np.array([3.0, -1.0]))
        np.testing.assert_allclose(out, [3.0, -1.0], atol=1e-12)

    def test_linear_scaling(self):
        out = invert_map(scaling_map(2.0, 2), np.array([4.0, 0.0]))
        np.testing.assert_allclose(out, [2.0, 0.0], atol=1e-12)

    def test_ellipse_round_trip_random(self):
        psi = gauss_phase(ELLIPSE)
        rng = np.random.default_rng(3)
        xs = rng.standard_normal((100, 2))
        back = invert_map_batch(psi, psi.forward(xs), tol=1e-10)
        rel = np.linalg.norm(back - xs, axis=-1) / np.linalg.norm(xs, axis=-1)
        assert np.max(rel) < 1e-8

    def test_forward_of_inverse_round_trip(self):
        psi = gauss_phase(ELLIPSE)
        rng = np.random.default_rng(9)
        etas = rng.standard_normal((50, 2))
        xi = invert_map_batch(psi, etas, tol=1e-12)
        rel = np.linalg.norm(psi.forward(xi) - etas, axis=-1) / np.linalg.norm(etas, axis=-1)
        assert np.max(rel) < 1e-10

    def test_zero_maps_to_zero(self):
        out = invert_map_batch(gauss_phase(ELLIPSE), np.zeros((1, 2)))
        np.testing.assert_array_equal(out, np.zeros((1, 2)))

    def test_nonconvergence_names_direction(self):
        psi = gauss_phase(ELLIPSE)
        with pytest.raises(MapInversionError, match="direction"):
            invert_map_batch(psi, np.array([[1.0, 1.0]]), tol=1e-16, max_iter=1)


class TestJacobianBound:
    def test_identity_is_one(self):
        assert check_jacobian_bound(identity_map(2), 32).min_abs_det == pytest.approx(1.0)

    def test_dilation_is_power(self):
        for n, c in ((1, 2.0), (2, 3.0), (3, 0.5)):
            rep = check_jacobian_bound(scaling_map(c, n), 16)
            assert rep.min_abs_det == pytest.approx(c**n, rel=1e-12)

    def test_ellipse_matches_finite_differences(self):
        psi = gauss_phase(ELLIPSE)
        rep = check_jacobian_bound(psi, 360)
        assert rep.min_abs_det > 0
        fd_dets = [
            abs(np.linalg.det(fd_jacobian(psi, xi))) for xi in sphere_points(2, 360)
        ]
        assert rep.min_abs_det == pytest.approx(min(fd_dets), rel=1e-6)

    def test_determinant_is_degree_zero(self):
        psi = gauss_phase(ELLIPSE)
        pts = sphere_points(2, 32)
        base = np.linalg.det(psi.jacobian(pts))
        for lam in (0.5, 2.0, 10.0):
            scaled = np.linalg.det(psi.jacobian(lam * pts))
            assert np.max(np.abs(scaled - base)) <= 1e-8

    def test_flags_finite_difference_derivatives(self):
        exact = check_jacobian_bound(gauss_phase(ELLIPSE), 32)
        assert not exact.fd_derivatives
        wrapped = symbol_from_callable(ELLIPSE.evaluate, 2, label="ellipse-fd")
        rep = check_jacobian_bound(gauss_phase(wrapped), 32)
        assert rep.fd_derivatives
        assert rep.min_abs_det == pytest.approx(exact.min_abs_det, rel=1e-4)


class TestCurvature:
    def test_sphere_has_unit_curvature(self):
        for n, count in ((1, 2), (2, 64), (3, 300)):
            rep = check_curvature(euclidean_symbol(n), count)
            assert rep.min_abs_curvature == pytest.approx(1.0, rel=1e-9)
            assert not rep.flat_flag

    def test_ellipse_vertex_curvature(self):
        # oracle: parametrize the level set (cos t, sin t / 2); the planar
        # curvature |x'y'' - y'x''| / (x'^2 + y'^2)^(3/2) at t=0 equals 4
        from fiolab.symbols import _level_set_curvature

        val = _level_set_curvature(ELLIPSE, np.array([[1.0, 0.0]]))[0]
        assert val == pytest.approx(4.0, rel=1e-12)

    def test_ellipse_minimum_is_positive(self):
        rep = check_curvature(ELLIPSE, 720)
        assert 0 < rep.min_abs_curvature < 1.0
        assert not rep.flat_flag

    def test_flat_facet_is_flagged(self):
        # symbol built to agree with xi_1 (a straight level segment) near the
        # first axis and blend smoothly into |xi| elsewhere
        theta0, theta1 = 0.25, 0.8

        def smoothstep(t):
            t = np.clip(t, 0.0, 1.0)
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                a = np.where(t > 0, np.exp(-1.0 / np.maximum(t, 1e-300)), 0.0)
                b = np.where(t < 1, np.exp(-1.0 / np.maximum(1.0 - t, 1e-300)), 0.0)
            return a / (a + b)

        def facet(xi):
            xi = np.asarray(xi, dtype=float)
            r = np.sqrt(np.sum(xi * xi, axis=-1))
            th = np.arctan2(xi[..., 1], xi[..., 0])
            w = smoothstep((theta1 - np.abs(th)) / (theta1 - theta0))
            return r * (1.0 + (np.cos(th) - 1.0) * w)

        p = symbol_from_callable(facet, 2, label="faceted")
        rep = check_curvature(p, 720)
        assert rep.min_abs_curvature < 1e-3
        assert rep.flat_flag
        assert rep.fd_derivatives


class TestSymbolClass:
    GOOD = staticmethod(
        lambda x, xi: 1.0 / (1.0 + np.sum(x * x, axis=-1) + np.sum(xi * xi, axis=-1))
    )
    BAD = staticmethod(lambda x, xi: np.sin(np.sum(x * x, axis=-1)))

    def test_decaying_amplitude_passes_order_two(self):
        spec = SymbolClassSpec("S00", 2, 5.0)
        rep = check_symbol_class(
            self.GOOD, spec, dim=1, x_half_width=10, xi_half_width=10,
            x_points=201, xi_points=201,
        )
        assert rep.passes
        assert np.isfinite(rep.worst_constant)
        # oracle: symbolic differentiation of the amplitude at the reported
        # worst sampled point, same derivative orders
        import sympy as sp

        xs, xis = sp.symbols("x xi", real=True)
        expr = 1 / (1 + xs**2 + xis**2)
        alpha, beta = rep.worst_orders
        deriv = sp.diff(expr, xs, alpha[0], xis, beta[0])
        exact = abs(
            float(deriv.subs({xs: rep.worst_point[0][0], xis: rep.worst_point[1][0]}))
        )
        assert rep.worst_constant == pytest.approx(exact, rel=0.1)

    def test_oscillating_amplitude_fails_with_linear_growth(self):
        spec = SymbolClassSpec("S00", 1, 5.0)
        worst = {}
        for box in (5.0, 10.0, 20.0):
            rep = check_symbol_class(
                self.BAD, spec, dim=1, x_half_width=box, xi_half_width=5.0,
                x_points=int(400 * box) + 1, xi_points=9,
            )
            assert not rep.passes
            worst[box] = rep.worst_constant
        # oracle: d/dx sin(x^2) = 2x cos(x^2), sup over [-L, L] is ~2L
        assert worst[10.0] / worst[5.0] == pytest.approx(2.0, rel=0.15)
        assert worst[20.0] / worst[10.0] == pytest.approx(2.0, rel=0.15)

    def test_constant_amplitude_passes_sg(self):
        spec = SymbolClassSpec("SG", 1, 1.5, weight_orders=(0.0, 0.0))
        rep = check_symbol_class(
            lambda x, xi: np.ones(np.broadcast_shapes(x.shape[:-1], xi.shape[:-1])),
            spec, dim=1, x_half_width=5, xi_half_width=5, x_points=21, xi_points=21,
        )
        assert rep.passes
        assert rep.worst_constant == pytest.approx(1.0, abs=1e-12)

    def test_monotone_in_order(self):
        worsts = []
        for order in (1, 2, 3):
            spec = SymbolClassSpec("S00", order, 5.0)
            rep = check_symbol_class(
                self.GOOD, spec, dim=1, x_half_width=6, xi_half_width=6,
                x_points=121, xi_points=121,
            )
            worsts.append(rep.worst_constant)
        assert worsts[0] <= worsts[1] <= worsts[2]

    def test_too_coarse_grid_rejected(self):
        spec = SymbolClassSpec("S00", 3, 1.0)
        with pytest.raises(ValueError, match="too coarse"):
            check_symbol_class(
                self.GOOD, spec, dim=1, x_half_width=5, xi_half_width=5,
                x_points=7, xi_points=7,
            )

    @pytest.mark.filterwarnings("ignore:overflow|invalid value:RuntimeWarning")
    def test_non_finite_amplitude_rejected(self):
        # sin(x^2) is NaN where x^2 overflows; a NaN fails every bound
        # comparison, so unchecked it would pass the class test
        spec = SymbolClassSpec("S00", 1, 1.0)
        with pytest.raises(ValueError, match="not finite"):
            check_symbol_class(
                lambda x, xi: np.sin(np.sum(x * x, axis=-1)), spec, dim=1,
                x_half_width=1e200, xi_half_width=5, x_points=9, xi_points=9,
            )

    def test_overflowing_sampling_width_rejected(self):
        spec = SymbolClassSpec("S00", 1, 1.0)
        with pytest.raises(ValueError, match="sampling width"):
            check_symbol_class(
                self.GOOD, spec, dim=1, x_half_width=1e308, xi_half_width=5,
                x_points=9, xi_points=9,
            )

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SymbolClassSpec("S00", 0, 1.0)
        with pytest.raises(ValueError):
            SymbolClassSpec("SG", 1, 1.0)  # missing weight orders
        with pytest.raises(ValueError):
            SymbolClassSpec("weird", 1, 1.0)


class TestSpherePoints:
    @settings(max_examples=20, deadline=None)
    @given(dim=st.integers(1, 4), count=st.integers(1, 300))
    def test_unit_norm_and_determinism(self, dim, count):
        pts = sphere_points(dim, count)
        np.testing.assert_allclose(np.linalg.norm(pts, axis=-1), 1.0, rtol=1e-12)
        np.testing.assert_array_equal(pts, sphere_points(dim, count))

    def test_linear_map_round_trip(self):
        rot = linear_map(np.array([[0.0, -1.0], [1.0, 0.0]]), label="rot90")
        pts = sphere_points(2, 16)
        np.testing.assert_allclose(rot.inverse(rot.forward(pts)), pts, atol=1e-14)
