import dataclasses
import tracemalloc

import numpy as np
import pytest

import fiolab.lattice as lattice
from fiolab._dense import TrigTable
from fiolab.lattice import (
    Field,
    bracket,
    inner_product,
    make_grid,
    norm,
)
import fiolab.normest as normest
from fiolab.normest import operator_norm, power_iteration
from fiolab.operators import (
    add,
    canonical_transform_operator,
    compose,
    fio_operator,
    adjoint,
    identity_operator,
    matrix_operator,
    multiplication_operator,
    multiplier_operator,
    pseudo_operator,
    scale,
    weight_operator,
)
from fiolab.symbols import (
    gauss_phase,
    identity_map,
    linear_map,
    perturbed_symbol,
    quadratic_form_symbol,
    scaling_map,
)
from tests.conftest import gaussian_field, random_field

ELLIPSE = quadratic_form_symbol(np.diag([1.0, 4.0]))
ELLIPSOID = quadratic_form_symbol(np.diag([1.0, 1.0, 4.0]))


class TestMultiplier:
    def test_unit_multiplier_is_identity(self):
        g = make_grid(1, 8.0, 64)
        u = random_field(g, seed=0)
        out = multiplier_operator(g, lambda xi: np.ones(xi.shape[:-1])).apply(u)
        assert np.max(np.abs(out.values - u.values)) < 1e-13 * np.max(np.abs(u.values))

    def test_laplacian_eigenmode(self):
        g = make_grid(1, 8.0, 64)
        k = 3 * g.dxi
        mode = Field(g, np.exp(1j * k * g.spatial_mesh()[..., 0]))
        out = multiplier_operator(g, lambda xi: np.sum(xi * xi, axis=-1)).apply(mode)
        np.testing.assert_allclose(out.values, k**2 * mode.values, atol=1e-12 * k**2)

    def test_half_bracket_on_gaussian_matches_quadrature(self):
        # oracle: adaptive quadrature of the continuum inverse transform at 0,
        # (2 pi)^-1 int <xi>^(1/2) sqrt(2 pi) exp(-xi^2/2) dxi, frozen:
        expected = 1.1527419707379634
        g = make_grid(1, 12.0, 512)
        u = gaussian_field(g, sigma=1.0)
        out = multiplier_operator(g, lambda xi: (1 + np.sum(xi * xi, axis=-1)) ** 0.25).apply(u)
        center = g.points_per_axis // 2
        assert out.values[center].real == pytest.approx(expected, rel=1e-6)
        assert abs(out.values[center].imag) < 1e-10

    def test_non_finite_multiplier_names_frequency(self):
        g = make_grid(1, 4.0, 8)
        with pytest.raises(ValueError, match="not finite at frequency"):
            multiplier_operator(g, lambda xi: 1.0 / np.sum(xi * xi, axis=-1)).apply(random_field(g))

    def test_multiplication_callable_shape_checked(self):
        # a row of the mesh would broadcast across the grid
        g = make_grid(2, 4.0, 8)
        with pytest.raises(ValueError, match=r"returned shape \(8,\), expected \(8, 8\)"):
            multiplication_operator(g, lambda x: x[0, :, 0])

    def test_explicit_zero_frequency_value(self):
        g = make_grid(1, 4.0, 8)
        u = random_field(g, seed=2)
        out = multiplier_operator(
            g, lambda xi: np.sqrt(np.sum(xi * xi, axis=-1)), value_at_zero=0.0
        ).apply(u)
        assert np.all(np.isfinite(out.values))


class TestCanonicalTransform:
    def test_identity_map_is_identity(self):
        g = make_grid(2, 6.0, 32)
        u = random_field(g, seed=4, nyquist_free=True)
        out = canonical_transform_operator(identity_map(2), g).apply(u)
        assert norm(out - u) / norm(u) < 1e-12

    def test_dilation_identity_on_bump(self):
        # oracle: F^{-1}[uhat(c xi)] = c^{-n} u(x/c); x/2 lands on grid points
        g = make_grid(1, 12.0, 128)
        x = g.spatial_mesh()[..., 0]
        u = Field(g, np.exp(-(x**2) / (2 * 0.8**2)))
        out = canonical_transform_operator(scaling_map(2.0, 1), g).apply(u)
        expected = 0.5 * np.exp(-((x / 2.0) ** 2) / (2 * 0.8**2))
        assert np.max(np.abs(out.values - expected)) < 1e-8

    def test_grid_preserving_rotation(self):
        # oracle: substitution eta = R xi gives T u = u o R, exact for the
        # quarter-turn that permutes grid frequencies
        g = make_grid(2, 6.0, 32)
        u = random_field(g, seed=5, nyquist_free=True)
        rot = linear_map(np.array([[0.0, -1.0], [1.0, 0.0]]), label="rot90")
        out = canonical_transform_operator(rot, g).apply(u)
        n_pts = g.points_per_axis
        idx = np.arange(n_pts)
        neg = (n_pts - idx) % n_pts  # index of -x on the periodic grid
        composed = u.values[neg[np.newaxis, :], idx[:, np.newaxis]]
        assert np.max(np.abs(out.values - composed)) < 1e-10 * np.max(np.abs(u.values))

    def test_rough_field_tail_recorded(self):
        g = make_grid(1, 6.0, 16)
        u = random_field(g, seed=6)  # rough field, strong tail
        out = canonical_transform_operator(scaling_map(1.5, 1), g).apply(u)
        assert out.meta["spectral_tail"] == pytest.approx(0.0688192, rel=1e-5)

    def test_smooth_field_tail_recorded(self):
        # a unit Gaussian's outer shell holds rounding noise only (4.2e-33)
        g = make_grid(1, 10.0, 64)
        u = gaussian_field(g, sigma=1.0)
        out = canonical_transform_operator(scaling_map(1.5, 1), g).apply(u)
        assert out.meta["spectral_tail"] < 1e-30

    def test_unknown_direction_rejected(self):
        g = make_grid(1, 4.0, 8)
        with pytest.raises(ValueError, match="direction must be 'forward' or 'inverse'"):
            canonical_transform_operator(identity_map(1), g, "backward")

    def test_non_finite_target_rejected(self):
        # the identity, undefined where xi_1 > 1.5: its first such frequency
        # in C order is (pi/2, -pi), not an out-of-box mode
        ident = identity_map(2)
        partial = dataclasses.replace(
            ident, label="partial",
            forward=lambda xi: np.where(xi[..., :1] > 1.5, np.nan, ident.forward(xi)))
        with pytest.raises(ValueError, match=r"'partial' is not finite at frequency "
                                             r"\[1.5707963267948966, -3.141592653589793\]"):
            canonical_transform_operator(partial, make_grid(2, 4.0, 8))

    @pytest.mark.parametrize("c, dim, n, expected", [
        (2.0, 1, 16, 9), (2.0, 2, 16, 16**2 - 7**2),
        (1.0, 1, 8, 8 - 7), (1.0, 2, 8, 8**2 - 7**2), (1.0, 3, 8, 8**3 - 7**3),
    ])
    def test_dilation_out_of_box_modes(self, c, dim, n, expected):
        # psi(xi) = 2 xi keeps index k in the box only for |2k| < N/2: 7 of
        # the 16 indices per axis; the rest are counted, however smooth u is.
        # The identity (c = 1) moves no point out of the box, and counts the
        # N^n - (N-1)^n output modes with an axis at the unpaired Nyquist index
        g = make_grid(dim, 6.0, n)
        out = canonical_transform_operator(scaling_map(c, dim), g).apply(gaussian_field(g, 1.0))
        assert out.meta["out_of_box_modes"] == expected

    def test_inverse_then_forward_refines_to_identity(self):
        psi = gauss_phase(ELLIPSE)
        residuals = {}
        for n_pts in (64, 128):
            g = make_grid(2, 10.0, n_pts)
            u = gaussian_field(g, sigma=0.5)
            t_fwd = canonical_transform_operator(psi, g, "forward")
            t_inv = canonical_transform_operator(psi, g, "inverse")
            residuals[n_pts] = norm(t_inv.apply(t_fwd.apply(u)) - u) / norm(u)
        assert residuals[128] < residuals[64] / 1.5
        assert residuals[128] < 1e-8

    def test_forward_then_inverse_refines_to_identity(self):
        psi = gauss_phase(ELLIPSE)
        residuals = {}
        for n_pts in (64, 128):
            g = make_grid(2, 10.0, n_pts)
            u = gaussian_field(g, sigma=0.5)
            t_fwd = canonical_transform_operator(psi, g, "forward")
            t_inv = canonical_transform_operator(psi, g, "inverse")
            residuals[n_pts] = norm(t_fwd.apply(t_inv.apply(u)) - u) / norm(u)
        assert residuals[128] < residuals[64] / 1.5

    def test_dilation_rayleigh_ratio_matches_continuum(self):
        # the continuum dilation T maps every function with norm ratio
        # c^{-n/2}; localized band-limited probes reproduce that exactly
        g = make_grid(1, 10.0, 128)
        u = gaussian_field(g, sigma=0.8)
        out = canonical_transform_operator(scaling_map(2.0, 1), g).apply(u)
        assert norm(out) / norm(u) == pytest.approx(2.0**-0.5, rel=1e-6)

    def test_dilation_power_iteration_finds_comb_sector(self):
        # documented discretization artifact: fields with period L (even-mode
        # combs) are mapped isometrically by the dyadic dilation on the torus,
        # so the sup over all discrete fields is exactly 1, not c^{-n/2};
        # see the dilation law acceptance test for the localized measurement
        g = make_grid(1, 10.0, 128)
        h = canonical_transform_operator(scaling_map(2.0, 1), g)
        est = operator_norm(h, max_iters=200, tol=1e-10, seed=0)
        assert est.estimate == pytest.approx(1.0, abs=1e-9)


# (handle, grid) cases for the normal operator: targets leaving the box
# (1-D dilation by 2), the ellipse both ways, a contraction's inverse on a
# grid whose N is not a power of 2, and the 3-D ellipsoid
NORMAL_CASES = {
    "1d-dilation": (lambda: scaling_map(2.0, 1), (1, 10.0, 32), "forward"),
    "2d-ellipse-forward": (lambda: gauss_phase(ELLIPSE), (2, 10.0, 32), "forward"),
    "2d-ellipse-inverse": (lambda: gauss_phase(ELLIPSE), (2, 10.0, 32), "inverse"),
    "2d-contraction-inverse": (lambda: scaling_map(0.7, 2), (2, 10.0, 24), "inverse"),
    "3d-ellipsoid-8": (lambda: gauss_phase(ELLIPSOID), (3, 12.0, 8), "forward"),
    "3d-ellipsoid-16": (lambda: gauss_phase(ELLIPSOID), (3, 12.0, 16), "inverse"),
}


def normal_case(case):
    cmap, grid_args, direction = NORMAL_CASES[case]
    return canonical_transform_operator(cmap(), make_grid(*grid_args), direction)


def count_syntheses(monkeypatch) -> list:
    """Record every TrigTable.synthesis call from now on; returns the record."""
    calls = []
    original = TrigTable.synthesis

    def counted(self, weights):
        calls.append(len(weights))
        return original(self, weights)

    monkeypatch.setattr(TrigTable, "synthesis", counted)
    return calls


def count_freezes(monkeypatch) -> list:
    """Record every array lattice freezes from now on (by kind); returns the record."""
    calls = []
    original = lattice._frozen_finite

    def counted(values, shape, what):
        calls.append(what)
        return original(values, shape, what)

    monkeypatch.setattr(lattice, "_frozen_finite", counted)
    return calls


class TestCanonicalNormal:
    # oracle: the handle's own apply followed by its adjoint, T* T
    @pytest.mark.parametrize("case", sorted(NORMAL_CASES))
    def test_normal_matches_adjoint_after_apply(self, case):
        h = normal_case(case)
        u = random_field(h.grid, seed=30)
        expected = compose(adjoint(h), h).apply(u)
        assert norm(h.normal(u) - expected) / norm(expected) <= 1e-13

    @pytest.mark.parametrize("case", ["2d-ellipse-forward", "3d-ellipsoid-8"])
    def test_normal_is_self_adjoint(self, case):
        h = normal_case(case)
        u, v = random_field(h.grid, seed=31), random_field(h.grid, seed=32)
        lhs, rhs = inner_product(h.normal(u), v), inner_product(u, h.normal(v))
        assert abs(lhs - rhs) <= 1e-14 * norm(h.normal(u)) * norm(v)

    def test_algebra_drops_the_normal(self):
        h = normal_case("2d-ellipse-forward")
        w = weight_operator(h.grid, -0.9)
        assert h.normal is not None
        for derived in (adjoint(h), scale(2.0, h), add(h, h), compose(h), compose(h, w),
                        compose(adjoint(h), h)):
            assert derived.normal is None, derived.label

    def test_normal_refuses_field_on_another_grid(self):
        h = normal_case("2d-ellipse-forward")
        other = make_grid(2, 11.0, 32)  # same N, another half width
        with pytest.raises(ValueError, match="different grids") as info:
            h.normal(random_field(other, seed=34))
        assert str(h.grid) in str(info.value) and str(other) in str(info.value)

    def test_norm_through_normal_matches_explicit_solve(self, monkeypatch):
        # with no weight the solve reads the handle's own normal, T* T
        h = normal_case("2d-ellipse-forward")
        solved = []
        original = normest._normal_apply
        monkeypatch.setattr(normest, "_normal_apply", lambda b: solved.append(b) or original(b))
        est = operator_norm(h, tol=1e-8)
        assert [b is h for b in solved] == [True] and original(h) is h.normal
        ref = power_iteration(compose(adjoint(h), h).apply, random_field(h.grid, seed=0),
                              1e-8, 200)
        assert est.converged and est.iterations == ref.iterations
        assert est.estimate == pytest.approx(ref.estimate, rel=1e-12)

    @pytest.mark.parametrize("case", sorted(NORMAL_CASES))
    def test_each_call_freezes_two_arrays(self, case, monkeypatch):
        # the input's spectrum and the result; the Nyquist filter and the
        # transforms between them work on raw arrays
        h = normal_case(case)
        u = random_field(h.grid, seed=37)
        freezes = count_freezes(monkeypatch)
        made = []
        for call in (h.apply, h.apply_adjoint, h.normal):
            freezes.clear()
            call(u)
            made.append(freezes.copy())
        assert made == [["spectral", "field"]] * 3

    def test_kernel_built_once_on_first_normal(self, monkeypatch):
        # egorov-style use (build, apply, adjoint) synthesizes once; the
        # kernel takes 2^n syntheses on the first normal call and none after
        calls = count_syntheses(monkeypatch)
        h = normal_case("2d-ellipse-forward")
        u = random_field(h.grid, seed=35)
        h.apply_adjoint(h.apply(u))
        assert len(calls) == 1
        h.normal(u)
        assert len(calls) == 1 + 2**h.grid.dim
        h.normal(u)
        assert len(calls) == 1 + 2**h.grid.dim

    def test_kernel_build_bounds_peak_memory(self):
        # the first normal call holds one synthesis chunk's (M, N) outer
        # product and a few (2N)^n arrays: 2.7 MiB measured at 2-D N = 64,
        # against a 3.7 MiB bound here; a kernel synthesized on a TrigTable of
        # the doubled grid keeps its dim x M x 2N tables, and peaks at 13.0 MiB
        g = make_grid(2, 10.0, 64)
        h = canonical_transform_operator(gauss_phase(ELLIPSE), g)
        u = random_field(g, seed=36)
        targets = g.size - h.apply(u).meta["out_of_box_modes"]
        n = g.points_per_axis
        bound = (targets * n + 8 * (2 * n) ** g.dim) * np.dtype(np.complex128).itemsize
        tracemalloc.start()
        try:
            h.normal(u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, (peak, bound)


class TestPseudo:
    def test_frequency_only_symbol_equals_multiplier(self):
        g = make_grid(1, 8.0, 64)
        u = random_field(g, seed=0)
        sym = lambda xi: 1.0 / (1.0 + np.sum(xi * xi, axis=-1))
        out = pseudo_operator(g, lambda x, xi: sym(xi)).apply(u)
        ref = multiplier_operator(g, sym).apply(u)
        assert norm(out - ref) / norm(ref) < 1e-12

    def test_space_only_symbol_equals_pointwise_product(self):
        g = make_grid(1, 8.0, 64)
        u = random_field(g, seed=1)
        b = lambda x: np.sin(np.sum(x, axis=-1))
        out = pseudo_operator(g, lambda x, xi: b(x) * np.ones(xi.shape[:-1])).apply(u)
        expected = b(g.spatial_mesh()) * u.values
        assert np.max(np.abs(out.values - expected)) < 1e-12 * np.max(np.abs(u.values))

    def test_separable_symbol_factors(self):
        g = make_grid(1, 8.0, 64)
        u = random_field(g, seed=2)
        b = lambda x: np.cos(np.sum(x, axis=-1))
        c = lambda xi: np.exp(-np.sum(xi * xi, axis=-1))
        out = pseudo_operator(g, lambda x, xi: b(x) * c(xi)).apply(u)
        ref = b(g.spatial_mesh()) * multiplier_operator(g, c).apply(u).values
        assert np.max(np.abs(out.values - ref)) < 1e-12 * np.max(np.abs(u.values))

    def test_complex_non_separable_symbol_matches_explicit_kernel(self):
        # oracle: the (x_j, y_l) matrix of a(X, D) F, summed over xi_k by hand,
        # sum_k e^{i x_j . xi_k} a(x_j, xi_k) e^{-i xi_k . y_l} dy^n (dxi/2pi)^n;
        # the adjoint is its conjugate transpose (both sides weigh dx^n)
        g = make_grid(2, 5.0, 8)
        amp = lambda x, xi: np.exp(
            0.25j * np.sum(x * xi, axis=-1) + 0.1j * np.sum(x, axis=-1)
        ) / (1.0 + np.sum(x * x, axis=-1) + np.sum(xi * xi, axis=-1))
        x = g.spatial_vectors()[:, np.newaxis, :]
        xi = g.frequency_vectors()[np.newaxis, :, :]
        kernel = np.exp(1j * np.sum(x * xi, axis=-1)) * amp(x, xi) * g.spectral_weight
        matrix = kernel @ np.exp(-1j * (xi[0] @ x[:, 0].T)) * g.cell_volume
        h = pseudo_operator(g, amp)
        assert h.label == "a(X,D)"
        u, v = random_field(g, seed=3), random_field(g, seed=4)
        for got, want in ((h.apply(u), matrix @ u.values.reshape(-1)),
                          (h.apply_adjoint(v), matrix.conj().T @ v.values.reshape(-1))):
            err = np.max(np.abs(got.values.reshape(-1) - want))
            assert err < 1e-12 * np.max(np.abs(want))

    def test_norm_uniform_across_refinement(self):
        # bounded-derivative symbol: operator norms must show no growth trend
        sym = lambda x, xi: 1.0 / (1.0 + np.sum(x * x, axis=-1) + np.sum(xi * xi, axis=-1))
        estimates = []
        for n_pts in (32, 64, 128):
            g = make_grid(1, 8.0, n_pts)
            est = operator_norm(pseudo_operator(g, sym), max_iters=300, tol=1e-8, seed=0)
            assert est.converged
            estimates.append(est.estimate)
        slope = np.polyfit(np.log([32, 64, 128]), np.log(estimates), 1)[0]
        assert slope < 0.05


FORM_PHASE = lambda y, xi: (
    -np.sum(y * xi, axis=-1) + 0.3 * np.sum(xi, axis=-1) * np.tanh(np.sum(y, axis=-1))
)
FORM_A = lambda z, xi: 1.0 / (1.0 + np.sum(z * z, axis=-1) + np.sum(xi * xi, axis=-1))
FORM_B = lambda z: 1.0 + 0.5 * np.cos(np.sum(z, axis=-1))

# the README's amplitude forms: (handle builder, full amplitude A(x, y, xi))
FIO_FORMS = {
    "a(x,xi)": (
        lambda g: compose(pseudo_operator(g, FORM_A), fio_operator(g, FORM_PHASE)),
        lambda x, y, xi: FORM_A(x, xi),
    ),
    "a(y,xi)": (
        lambda g: fio_operator(g, FORM_PHASE, FORM_A),
        lambda x, y, xi: FORM_A(y, xi),
    ),
    "a1(x,xi)a2(y)": (
        lambda g: compose(
            pseudo_operator(g, FORM_A),
            fio_operator(g, FORM_PHASE),
            multiplication_operator(g, FORM_B),
        ),
        lambda x, y, xi: FORM_A(x, xi) * FORM_B(y),
    ),
    "a2(x)a1(y,xi)": (
        lambda g: compose(multiplication_operator(g, FORM_B), fio_operator(g, FORM_PHASE, FORM_A)),
        lambda x, y, xi: FORM_B(x) * FORM_A(y, xi),
    ),
}


class TestFio:
    def test_dual_fourier_phase_reduces_to_pseudo(self):
        # oracle: phi(y, xi) = -y.xi collapses the inner analysis operator to
        # the forward transform, leaving (2 pi)^n times the quantization
        g = make_grid(1, 8.0, 64)
        u = random_field(g, seed=0)
        phase = lambda y, xi: -np.sum(y * xi, axis=-1)
        amp = lambda x, xi: (
            np.exp(-0.1 * np.sum(x * x, axis=-1)) / (1.0 + np.sum(xi * xi, axis=-1))
        )
        out = compose(pseudo_operator(g, amp), fio_operator(g, phase)).apply(u)
        ref = pseudo_operator(g, amp).apply(u) * (2 * np.pi)
        assert norm(out - ref) / norm(ref) < 1e-10

    def test_canonical_phase_reduces_to_transform(self):
        # oracle: the double-integral form of the canonical transform; the
        # contracted map keeps every target inside the frequency box
        half_ellipse = quadratic_form_symbol(np.diag([0.25, 1.0]))
        psi = gauss_phase(half_ellipse)
        g = make_grid(2, 8.0, 64)
        u = gaussian_field(g, sigma=1.0)

        def phase_eval(y, xi):
            xi = np.asarray(xi, dtype=float)
            flat = xi.reshape(-1, 2)
            out = np.zeros_like(flat)
            nz = np.linalg.norm(flat, axis=-1) > 0
            out[nz] = psi.forward(flat[nz])
            mapped = out.reshape(xi.shape)
            return -np.sum(y * mapped, axis=-1)

        out = fio_operator(g, phase_eval).apply(u)
        ref = canonical_transform_operator(psi, g).apply(u) * (2 * np.pi) ** 2
        assert norm(out - ref) / norm(ref) < 1e-8

    @pytest.mark.parametrize("form", FIO_FORMS)
    def test_amplitude_forms_match_triple_sum(self, form):
        # oracle: the defining double integral as one dense sum over the
        # full amplitude A(x, y, xi) of each form,
        # sum_l sum_k e^{i(x_j xi_k + phi(y_l, xi_k))} A(x_j, y_l, xi_k) u_l dy dxi
        g = make_grid(1, 5.0, 32)
        u = random_field(g, seed=2)
        build, full_amplitude = FIO_FORMS[form]
        out = build(g).apply(u)
        pts = g.spatial_vectors()
        x, y = pts[:, np.newaxis, np.newaxis, :], pts[np.newaxis, :, np.newaxis, :]
        xi = g.frequency_vectors()[np.newaxis, np.newaxis, :, :]
        phases = np.exp(1j * (np.sum(x * xi, axis=-1) + FORM_PHASE(y, xi)))
        kernel = phases * full_amplitude(x, y, xi)
        oracle = np.einsum("jlk,l->j", kernel, u.values) * (g.dx * g.dxi)
        assert norm(Field(g, oracle) - out) / norm(out) < 1e-12


def random_matrix(size, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))


class TestHandleAlgebra:
    # oracle: the dense matrices the handles stand for, on an 8-point grid
    GRID = make_grid(1, 4.0, 8)

    def act(self, h, u, adjoint_side=False):
        return (h.apply_adjoint if adjoint_side else h.apply)(u).values

    def test_matrix_operator_is_matvec(self):
        a = random_matrix(8, 0)
        u = random_field(self.GRID, seed=1)
        h = matrix_operator(self.GRID, a)
        np.testing.assert_allclose(self.act(h, u), a @ u.values, rtol=1e-14)
        np.testing.assert_allclose(self.act(h, u, True), a.conj().T @ u.values, rtol=1e-14)

    def test_matrix_operator_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="does not match grid size 8"):
            matrix_operator(self.GRID, np.eye(7))

    def test_compose_applies_rightmost_first(self):
        a, b = random_matrix(8, 2), random_matrix(8, 3)
        u = random_field(self.GRID, seed=4)
        h = compose(matrix_operator(self.GRID, a), matrix_operator(self.GRID, b))
        np.testing.assert_allclose(self.act(h, u), a @ b @ u.values, rtol=1e-12)
        np.testing.assert_allclose(
            self.act(h, u, True), (a @ b).conj().T @ u.values, rtol=1e-12
        )

    def test_adjoint_swaps_apply_and_adjoint(self):
        a = random_matrix(8, 5)
        u = random_field(self.GRID, seed=6)
        h = adjoint(matrix_operator(self.GRID, a, label="A"))
        assert h.label == "(A)*"
        np.testing.assert_allclose(self.act(h, u), a.conj().T @ u.values, rtol=1e-14)
        np.testing.assert_allclose(self.act(h, u, True), a @ u.values, rtol=1e-14)

    def test_scale_conjugates_on_adjoint(self):
        a, c = random_matrix(8, 7), 0.3 - 2.0j
        u = random_field(self.GRID, seed=8)
        h = scale(c, matrix_operator(self.GRID, a))
        np.testing.assert_allclose(self.act(h, u), c * (a @ u.values), rtol=1e-14)
        np.testing.assert_allclose(
            self.act(h, u, True), np.conj(c) * (a.conj().T @ u.values), rtol=1e-14
        )

    def test_add_sums_every_handle(self):
        mats = [random_matrix(8, seed) for seed in (9, 10, 11)]
        u = random_field(self.GRID, seed=12)
        h = add(*(matrix_operator(self.GRID, m) for m in mats))
        total = sum(mats)
        np.testing.assert_allclose(self.act(h, u), total @ u.values, rtol=1e-12)
        np.testing.assert_allclose(self.act(h, u, True), total.conj().T @ u.values, rtol=1e-12)

    @pytest.mark.parametrize("combine", [compose, add], ids=["compose", "add"])
    def test_empty_combination_rejected(self, combine):
        with pytest.raises(ValueError, match="at least one handle"):
            combine()

    @pytest.mark.parametrize("combine", [compose, add], ids=["compose", "add"])
    def test_handles_on_different_grids_rejected(self, combine):
        other = make_grid(1, 5.0, 8)  # same N as GRID, another half width
        handles = (multiplier_operator(self.GRID, lambda xi: np.ones(xi.shape[:-1])),
                   multiplication_operator(other, np.ones(8)))
        with pytest.raises(ValueError, match="different grids") as info:
            combine(*handles)
        assert str(self.GRID) in str(info.value) and str(other) in str(info.value)

    @pytest.mark.parametrize("entry", ["apply", "apply_adjoint"])
    @pytest.mark.parametrize("build", [multiplication_operator, multiplier_operator],
                             ids=["multiplication", "multiplier"])
    def test_field_on_another_grid_rejected(self, build, entry):
        other = make_grid(1, 5.0, 8)  # same N as GRID, another half width
        handle = build(self.GRID, np.arange(8.0))
        with pytest.raises(ValueError, match="different grids") as info:
            getattr(handle, entry)(random_field(other, seed=13))
        assert str(self.GRID) in str(info.value) and str(other) in str(info.value)

    def test_grid_check_survives_replace(self):
        # the benchmark's tracer rebuilds handles with dataclasses.replace
        handle = multiplication_operator(self.GRID, np.arange(8.0))
        unchecked = dataclasses.replace(handle, apply=lambda u: u, apply_adjoint=lambda u: u)
        u = random_field(make_grid(1, 5.0, 8), seed=13)
        for entry in (unchecked.apply, unchecked.apply_adjoint, adjoint(handle).apply):
            with pytest.raises(ValueError, match="different grids"):
                entry(u)
        assert adjoint(handle).apply is handle.apply_adjoint  # not wrapped twice

    def test_weight_operator_multiplies_by_bracket(self):
        g = make_grid(2, 6.0, 16)
        u = random_field(g, seed=13)
        w = bracket(g.spatial_mesh())
        out = weight_operator(g, 1.5).apply(u)
        np.testing.assert_allclose(out.values, w**1.5 * u.values, rtol=1e-14)
        back = weight_operator(g, -1.5).apply(out)
        assert norm(back - u) / norm(u) < 1e-14

    def test_weight_overflow_names_point(self):
        # <x>^400 overflows at the box edge x = -1e4 (first grid point)
        g = make_grid(1, 1.0e4, 8)
        with pytest.raises(ValueError, match=r"<x>\^400 is not finite at x = \[-10000\.0\]"):
            weight_operator(g, 400)


def probe_handles(grid):
    cmap = gauss_phase(ELLIPSE) if grid.dim == 2 else scaling_map(1.5, grid.dim)
    handles = [
        identity_operator(grid),
        multiplier_operator(grid, lambda xi: 1.0 / (1.0 + np.sum(xi * xi, axis=-1))),
        multiplication_operator(grid, lambda x: np.exp(-np.sum(x * x, axis=-1))),
        weight_operator(grid, -1.0),
        canonical_transform_operator(cmap, grid),
    ]
    if grid.dim == 2:
        # inverse direction: a closed-form seed, and Newton steps without one
        handles += [
            canonical_transform_operator(gauss_phase(p), grid, "inverse")
            for p in (ELLIPSE, perturbed_symbol(ELLIPSE, 0.1, [1.0, 1.0]))
        ]
    if grid.dim == 1:
        handles.append(
            pseudo_operator(
                grid,
                lambda x, xi: 1.0 / (1.0 + np.sum(x * x, axis=-1) + np.sum(xi * xi, axis=-1)),
            )
        )
        phase = lambda y, xi: (
            -np.sum(y * xi, axis=-1)
            + 0.2 * np.sum(xi, axis=-1) * np.tanh(np.sum(y, axis=-1))
        )
        a_main = lambda z, xi: 1.0 / (1.0 + np.sum(z * z, axis=-1) + np.sum(xi * xi, axis=-1))
        a_scalar = lambda z: 1.0 + 0.5 * np.cos(np.sum(z, axis=-1))
        unit = fio_operator(grid, phase)
        scalar = multiplication_operator(grid, a_scalar)
        handles += [
            fio_operator(grid, phase, lambda y, xi: 1.0 / (1.0 + np.sum(y * y, axis=-1))),
            compose(pseudo_operator(grid, a_main), unit),
            # products with a function of x or y alone
            compose(pseudo_operator(grid, a_main), unit, scalar),
            compose(scalar, fio_operator(grid, phase, a_main)),
        ]
    handles.append(compose(handles[1], handles[2]))
    handles.append(add(handles[0], scale(0.5j, handles[1])))
    return handles


class TestHandleContracts:
    @pytest.mark.parametrize("dim,n_pts", [(1, 32), (2, 16)])
    def test_linearity_probes(self, dim, n_pts):
        grid = make_grid(dim, 6.0, n_pts)
        for h in probe_handles(grid):
            for seed in range(3):
                rng = np.random.default_rng(seed)
                u = random_field(grid, seed=10 + seed)
                v = random_field(grid, seed=20 + seed)
                alpha, beta = rng.standard_normal(2) + 1j * rng.standard_normal(2)
                lhs = h.apply(u * alpha + v * beta)
                rhs = h.apply(u) * alpha + h.apply(v) * beta
                scale_ref = max(norm(rhs), 1e-30)
                assert norm(lhs - rhs) / scale_ref < 1e-10, h.label

    @pytest.mark.parametrize("dim,n_pts", [(1, 32), (2, 16)])
    def test_adjoint_probes(self, dim, n_pts):
        grid = make_grid(dim, 6.0, n_pts)
        for h in probe_handles(grid):
            for seed in range(10):
                u = random_field(grid, seed=100 + seed)
                v = random_field(grid, seed=200 + seed)
                lhs = inner_product(h.apply(u), v)
                rhs = inner_product(u, h.apply_adjoint(v))
                assert abs(lhs - rhs) / max(abs(lhs), 1e-30) < 1e-8, h.label


class TestConjugationIdentity:
    def test_multiplier_conjugation_refines(self):
        # conjugating a multiplier by the canonical transform reproduces the
        # pulled-back multiplier, with error decreasing under refinement
        psi = gauss_phase(ELLIPSE)
        sym = lambda xi: (1.0 + np.sum(xi * xi, axis=-1)) ** 0.25
        errors = {}
        for n_pts in (64, 128):
            g = make_grid(2, 10.0, n_pts)
            u = gaussian_field(g, sigma=1.2, carrier=[5.0, 0.0])
            t_fwd = canonical_transform_operator(psi, g, "forward")
            t_inv = canonical_transform_operator(psi, g, "inverse")
            conjugated = t_fwd.apply(multiplier_operator(g, sym).apply(t_inv.apply(u)))
            pulled_back = multiplier_operator(
                g,
                lambda xi: (1.0 + ELLIPSE.evaluate(xi) ** 2) ** 0.25,
                value_at_zero=1.0,
            ).apply(u)
            errors[n_pts] = norm(conjugated - pulled_back) / norm(u)
        assert errors[64] < 1e-3
        assert errors[128] < errors[64]
