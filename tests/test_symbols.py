import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fiolab.symbols import (
    HomogeneousSymbol,
    MapInversionError,
    SymbolClassSpec,
    check_jacobian_bound,
    check_symbol_class,
    euclidean_symbol,
    gauss_phase,
    identity_map,
    invert_map_batch,
    linear_map,
    perturbed_symbol,
    quadratic_form_symbol,
    scaling_map,
    sphere_points,
)

ELLIPSE = quadratic_form_symbol(np.diag([1.0, 4.0]))
# no dual-norm gradient, so its Gauss map is inverted by Newton steps
PERTURBED_ELLIPSE = perturbed_symbol(ELLIPSE, 0.1, [1.0, 1.0])


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

    def test_near_symmetric_form_is_symmetrized(self):
        # passes np.allclose(a, a.T); grad and hess assume an exact A^T = A
        p = quadratic_form_symbol(np.array([[1.0, 0.5], [0.5 + 4e-6, 2.0]]))
        psi = gauss_phase(p)
        h = 1e-6
        for xi0 in ([0.7, -1.3], [2.0, 0.1], [-0.5, 0.5]):
            xi0 = np.asarray(xi0)
            fd = [(p.evaluate(xi0 + h * e) - p.evaluate(xi0 - h * e)) / (2 * h) for e in np.eye(2)]
            np.testing.assert_allclose(p.gradient(xi0), fd, rtol=0, atol=1e-8)
            np.testing.assert_allclose(psi.jacobian(xi0), fd_jacobian(psi, xi0), rtol=0, atol=1e-8)


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
        # p(xi) = xi_1^2 / |xi| is degree-1 homogeneous and its gradient
        # vanishes on the xi_2 axis, a sampled direction; the guard raises
        # before the Hessian is read
        def grad(xi):
            r = np.linalg.norm(xi, axis=-1)[..., np.newaxis]
            s = xi[..., :1]
            return 2.0 * s * np.array([1.0, 0.0]) / r - s * s * xi / r**3

        flat = HomogeneousSymbol(
            2,
            lambda xi: xi[..., 0] ** 2 / np.linalg.norm(xi, axis=-1),
            grad,
            lambda xi: np.zeros(xi.shape + (2,)),
            label="flat",
        )
        with pytest.raises(ValueError, match="degenerates"):
            gauss_phase(flat)


def spd_matrix(kind, dim, seed):
    rng = np.random.default_rng(seed)
    if kind == "diagonal":
        return np.diag(rng.uniform(0.2, 5.0, dim))
    b = rng.standard_normal((dim, dim))
    return b @ b.T + 0.5 * np.eye(dim)


class TestDualGradient:
    @pytest.mark.parametrize("kind", ["diagonal", "full"])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_inverts_the_gauss_map(self, kind, dim):
        p = quadratic_form_symbol(spd_matrix(kind, dim, seed=dim))
        eta = np.random.default_rng(10 + dim).standard_normal((200, dim))
        mags = np.linalg.norm(eta, axis=-1)
        xi = p.dual_gradient(eta)
        # grad p^* is degree 0 and lands on the unit p-sphere
        np.testing.assert_allclose(p.evaluate(xi), 1.0, rtol=1e-14)
        back = gauss_phase(p).forward(mags[:, np.newaxis] * xi)
        assert np.max(np.linalg.norm(back - eta, axis=-1) / mags) <= 1e-14

    def test_carried_by_euclidean_not_by_perturbed(self):
        eta = sphere_points(3, 32) * 2.0
        np.testing.assert_allclose(euclidean_symbol(3).dual_gradient(eta), eta / 2.0, rtol=1e-15)
        assert PERTURBED_ELLIPSE.dual_gradient is None


INVERSION_SYMBOLS = pytest.mark.parametrize(
    "p", [ELLIPSE, PERTURBED_ELLIPSE], ids=["closed-form", "newton"]
)


class TestInvertMap:
    def test_identity(self):
        out = invert_map_batch(identity_map(2), np.array([[3.0, -1.0]]))
        np.testing.assert_allclose(out, [[3.0, -1.0]], atol=1e-12)

    def test_linear_scaling(self):
        out = invert_map_batch(scaling_map(2.0, 2), np.array([[4.0, 0.0]]))
        np.testing.assert_allclose(out, [[2.0, 0.0]], atol=1e-12)

    @INVERSION_SYMBOLS
    def test_round_trip_random(self, p):
        psi = gauss_phase(p)
        rng = np.random.default_rng(3)
        xs = rng.standard_normal((100, 2))
        back = invert_map_batch(psi, psi.forward(xs), tol=1e-10)
        rel = np.linalg.norm(back - xs, axis=-1) / np.linalg.norm(xs, axis=-1)
        assert np.max(rel) < 1e-8

    @INVERSION_SYMBOLS
    def test_forward_of_inverse_round_trip(self, p):
        psi = gauss_phase(p)
        rng = np.random.default_rng(9)
        etas = rng.standard_normal((50, 2))
        xi = invert_map_batch(psi, etas, tol=1e-12)
        rel = np.linalg.norm(psi.forward(xi) - etas, axis=-1) / np.linalg.norm(etas, axis=-1)
        assert np.max(rel) < 1e-10

    def test_zero_maps_to_zero(self):
        out = invert_map_batch(gauss_phase(ELLIPSE), np.zeros((1, 2)))
        np.testing.assert_array_equal(out, np.zeros((1, 2)))

    def test_nonconvergence_names_direction(self):
        psi = gauss_phase(PERTURBED_ELLIPSE)
        with pytest.raises(MapInversionError, match="direction"):
            invert_map_batch(psi, np.array([[1.0, 1.0]]), tol=1e-16, max_iter=1)

    def test_exact_seed_takes_no_step(self):
        # the residual check still gates the closed-form seed
        etas = sphere_points(2, 64) * 3.0
        xi = invert_map_batch(gauss_phase(ELLIPSE), etas, tol=1e-10, max_iter=0)
        assert np.max(np.linalg.norm(gauss_phase(ELLIPSE).forward(xi) - etas, axis=-1)) <= 3e-10
        with pytest.raises(MapInversionError, match="after 0 iterations"):
            invert_map_batch(gauss_phase(PERTURBED_ELLIPSE), etas, tol=1e-10, max_iter=0)


class TestJacobianBound:
    def test_identity_is_one(self):
        assert check_jacobian_bound(identity_map(2), 32).min_abs_det == pytest.approx(1.0)

    def test_dilation_is_power(self):
        for n, c in ((1, 2.0), (2, 3.0), (3, 0.5)):
            rep = check_jacobian_bound(scaling_map(c, n), 16)
            assert rep.min_abs_det == pytest.approx(c**n, rel=1e-12)

    def test_linear_map_is_abs_det(self):
        shear = np.array([[1.0, 2.0], [-0.5, 3.0]])
        rep = check_jacobian_bound(linear_map(shear), 24)
        assert rep.min_abs_det == pytest.approx(abs(np.linalg.det(shear)), rel=1e-12)
        assert rep.max_abs_det == pytest.approx(abs(np.linalg.det(shear)), rel=1e-12)
        assert rep.samples == 24

    def test_ellipse_matches_finite_differences(self):
        psi = gauss_phase(ELLIPSE)
        rep = check_jacobian_bound(psi, 360)
        assert rep.min_abs_det > 0
        fd_dets = [
            abs(np.linalg.det(fd_jacobian(psi, xi))) for xi in sphere_points(2, 360)
        ]
        assert rep.min_abs_det == pytest.approx(min(fd_dets), rel=1e-6)
        assert rep.max_abs_det == pytest.approx(max(fd_dets), rel=1e-6)

    def test_ellipse_spans_one_to_four(self):
        # |det D psi| of diag(1, 4) runs from 4 on the xi_1 axis to 1 on the
        # xi_2 axis; a sample count divisible by 4 holds both axes
        rep = check_jacobian_bound(gauss_phase(ELLIPSE), 8)
        assert (rep.min_abs_det, rep.max_abs_det) == (1.0, 4.0)
        assert rep.argmin_direction[0] == pytest.approx(0.0, abs=1e-15)

    def test_determinant_is_degree_zero(self):
        psi = gauss_phase(ELLIPSE)
        pts = sphere_points(2, 32)
        base = np.linalg.det(psi.jacobian(pts))
        for lam in (0.5, 2.0, 10.0):
            scaled = np.linalg.det(psi.jacobian(lam * pts))
            assert np.max(np.abs(scaled - base)) <= 1e-8


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

    def test_dim_two_matches_its_restriction(self):
        # an amplitude of x_1 alone has zero derivatives along x_2 and xi, so
        # the 2-D check reports the constant of its 1-D restriction
        spec = SymbolClassSpec("S00", 2, 5.0)
        amp = lambda x, xi: np.cos(x[..., 0]) / (1.0 + x[..., 0] ** 2)  # noqa: E731
        one, two = (check_symbol_class(amp, spec, dim=d, x_half_width=4, xi_half_width=4,
                                       x_points=9, xi_points=9) for d in (1, 2))
        assert two.worst_constant == one.worst_constant
        assert two.worst_orders == ((one.worst_orders[0][0], 0), (0, 0))
        assert two.worst_point[0][0] == one.worst_point[0][0]

    def test_exact_tie_keeps_the_first_order_visited(self):
        # the (2, 0) and (0, 2) x-derivatives tie exactly; orders are visited
        # by total order, then |alpha|, then lexically, so (0, 2) comes first
        def amp(x, xi):
            return (np.sin(3 * x[..., 0]) + np.sin(3 * x[..., 1])
                    + np.cos(2 * xi[..., 0]) + np.cos(2 * xi[..., 1]))

        rep = check_symbol_class(amp, SymbolClassSpec("S00", 2, 1.0), dim=2, x_half_width=3,
                                 xi_half_width=3, x_points=15, xi_points=15)
        assert rep.worst_constant == pytest.approx(4.811457709581117, rel=1e-12)
        assert rep.worst_orders == ((0, 2), (0, 0))
        assert rep.worst_point == ((-2.142857142857143, -0.4285714285714288),
                                   (-2.142857142857143, -1.2857142857142858))

    def test_sg_weights_in_two_dimensions_match_a_reference(self):
        m1, m2, r, pts = -1.0, 0.5, 3, 11
        spec = SymbolClassSpec("SG", r, 1.0, weight_orders=(m1, m2))
        rep = check_symbol_class(self.GOOD, spec, dim=2, x_half_width=4, xi_half_width=3,
                                 x_points=pts, xi_points=pts)
        # reference: the samples on a full 4-D mesh (x_1, x_2, xi_1, xi_2),
        # differentiated one axis at a time, in the same visit order
        x_axis, xi_axis = np.linspace(-4, 4, pts), np.linspace(-3, 3, pts)
        x1, x2, xi1, xi2 = np.meshgrid(x_axis, x_axis, xi_axis, xi_axis, indexing="ij")
        samples = 1.0 / (1.0 + x1**2 + x2**2 + xi1**2 + xi2**2)
        steps = (x_axis[1] - x_axis[0],) * 2 + (xi_axis[1] - xi_axis[0],) * 2
        inner = (slice(r, -r),) * 4
        worst, worst_orders = -1.0, None
        for total in range(r + 1):
            for a_total in range(total + 1):
                b_total = total - a_total
                for a1 in range(a_total + 1):
                    for b1 in range(b_total + 1):
                        orders = (a1, a_total - a1, b1, b_total - b1)
                        deriv = samples
                        for axis in range(4):
                            for _ in range(orders[axis]):
                                deriv = np.gradient(deriv, steps[axis], axis=axis, edge_order=2)
                        weight = (np.sqrt(1.0 + x1**2 + x2**2) ** (m1 - a_total)
                                  * np.sqrt(1.0 + xi1**2 + xi2**2) ** (m2 - b_total))
                        val = np.max((np.abs(deriv) / weight)[inner])
                        if val > worst:
                            worst, worst_orders = val, (orders[:2], orders[2:])
        assert rep.worst_constant == pytest.approx(worst, rel=1e-12, abs=1e-12)
        assert rep.worst_orders == worst_orders

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
        with pytest.raises(ValueError, match="bound_tolerance must be positive"):
            SymbolClassSpec("S00", 1, 0.0)

    @pytest.mark.parametrize("weight_orders", [(2000, -2000), (2000, 0)])
    def test_non_finite_sg_weight_raises(self, weight_orders):
        # <x>^2000 overflows: times <xi>^-2000, which underflows, it is NaN, and
        # alone it makes the ratio 0; either way the check would pass silently
        spec = SymbolClassSpec("SG", 1, 1.0, weight_orders)
        constant = lambda x, xi: np.ones(np.broadcast_shapes(x.shape[:-1], xi.shape[:-1]))
        with pytest.raises(ValueError, match=r"at orders \(alpha, beta\) = \(\(0,\), \(0,\)\)"):
            check_symbol_class(constant, spec, dim=1, x_half_width=10.0, xi_half_width=10.0,
                               x_points=21, xi_points=21)


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
        np.testing.assert_allclose(invert_map_batch(rot, rot.forward(pts)), pts, atol=1e-14)


# (builder, its arguments, the message it rejects them with)
REJECTED_INPUTS = {
    "non-square-form": (quadratic_form_symbol, ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],),
                        "must be square"),
    "non-symmetric-form": (quadratic_form_symbol, ([[1.0, 1.0], [0.0, 1.0]],), "must be symmetric"),
    "indefinite-form": (quadratic_form_symbol, ([[1.0, 0.0], [0.0, -1.0]],),
                        "must be positive definite"),
    "bump-direction-shape": (perturbed_symbol, (ELLIPSE, 0.1, [1.0, 0.0, 0.0]),
                             r"bump direction must have shape \(2,\)"),
    "zero-scaling": (scaling_map, (0.0, 2), "scaling factor must be positive"),
    "negative-scaling": (scaling_map, (-1.5, 2), "scaling factor must be positive"),
    "no-sphere-points": (sphere_points, (2, 0), "sample count must be >= 1"),
}


@pytest.mark.parametrize("case", sorted(REJECTED_INPUTS))
def test_symbol_builders_reject_bad_inputs(case):
    build, args, message = REJECTED_INPUTS[case]
    with pytest.raises(ValueError, match=message):
        build(*args)
