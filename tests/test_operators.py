import numpy as np
import pytest

from fiolab.lattice import (
    Field,
    forward_transform,
    inner_product,
    make_grid,
    norm,
)
from fiolab.normest import operator_norm
from fiolab.operators import (
    Amplitude,
    SpectralTailWarning,
    add,
    apply_canonical_transform,
    apply_fio,
    apply_multiplier,
    apply_oscillatory,
    apply_pseudo,
    canonical_transform_operator,
    compose,
    fio_operator,
    identity_operator,
    multiplication_operator,
    multiplier_operator,
    oscillatory_operator,
    pseudo_operator,
    scale,
    weight_operator,
)
from fiolab.symbols import gauss_phase, identity_map, linear_map, quadratic_form_symbol, scaling_map
from tests.conftest import gaussian_field, random_field

ELLIPSE = quadratic_form_symbol(np.diag([1.0, 4.0]))


def ones_amp(x, y):
    return np.ones(np.broadcast_shapes(x.shape[:-1], y.shape[:-1]))


class TestMultiplier:
    def test_unit_multiplier_is_identity(self):
        g = make_grid(1, 8.0, 64)
        u = random_field(g, seed=0)
        out = apply_multiplier(lambda xi: np.ones(xi.shape[:-1]), u)
        assert np.max(np.abs(out.values - u.values)) < 1e-13 * np.max(np.abs(u.values))

    def test_laplacian_eigenmode(self):
        g = make_grid(1, 8.0, 64)
        k = 3 * g.dxi
        mode = Field(g, np.exp(1j * k * g.spatial_mesh()[..., 0]))
        out = apply_multiplier(lambda xi: np.sum(xi * xi, axis=-1), mode)
        np.testing.assert_allclose(out.values, k**2 * mode.values, atol=1e-12 * k**2)

    def test_half_bracket_on_gaussian_matches_quadrature(self):
        # oracle: adaptive quadrature of the continuum inverse transform at 0,
        # (2 pi)^-1 int <xi>^(1/2) sqrt(2 pi) exp(-xi^2/2) dxi, frozen:
        expected = 1.1527419707379634
        g = make_grid(1, 12.0, 512)
        u = gaussian_field(g, sigma=1.0)
        out = apply_multiplier(lambda xi: (1 + np.sum(xi * xi, axis=-1)) ** 0.25, u)
        center = g.points_per_axis // 2
        assert out.values[center].real == pytest.approx(expected, rel=1e-6)
        assert abs(out.values[center].imag) < 1e-10

    def test_non_finite_multiplier_names_frequency(self):
        g = make_grid(1, 4.0, 8)
        with pytest.raises(ValueError, match="not finite at frequency"):
            apply_multiplier(lambda xi: 1.0 / np.sum(xi * xi, axis=-1), random_field(g))

    def test_explicit_zero_frequency_value(self):
        g = make_grid(1, 4.0, 8)
        u = random_field(g, seed=2)
        out = apply_multiplier(
            lambda xi: np.sqrt(np.sum(xi * xi, axis=-1)), u, value_at_zero=0.0
        )
        assert np.all(np.isfinite(out.values))


class TestCanonicalTransform:
    @pytest.mark.filterwarnings("ignore::fiolab.operators.SpectralTailWarning")
    def test_identity_map_is_identity(self):
        g = make_grid(2, 6.0, 32)
        u = random_field(g, seed=4, nyquist_free=True)
        out = apply_canonical_transform(identity_map(2), u)
        assert norm(out - u) / norm(u) < 1e-12

    def test_dilation_identity_on_bump(self):
        # oracle: F^{-1}[uhat(c xi)] = c^{-n} u(x/c); x/2 lands on grid points
        g = make_grid(1, 12.0, 128)
        x = g.spatial_mesh()[..., 0]
        u = Field(g, np.exp(-(x**2) / (2 * 0.8**2)))
        out = apply_canonical_transform(scaling_map(2.0, 1), u)
        expected = 0.5 * np.exp(-((x / 2.0) ** 2) / (2 * 0.8**2))
        assert np.max(np.abs(out.values - expected)) < 1e-8

    @pytest.mark.filterwarnings("ignore::fiolab.operators.SpectralTailWarning")
    def test_grid_preserving_rotation(self):
        # oracle: substitution eta = R xi gives T u = u o R, exact for the
        # quarter-turn that permutes grid frequencies
        g = make_grid(2, 6.0, 32)
        u = random_field(g, seed=5, nyquist_free=True)
        rot = linear_map(np.array([[0.0, -1.0], [1.0, 0.0]]), label="rot90")
        out = apply_canonical_transform(rot, u)
        n_pts = g.points_per_axis
        idx = np.arange(n_pts)
        neg = (n_pts - idx) % n_pts  # index of -x on the periodic grid
        composed = u.values[neg[np.newaxis, :], idx[:, np.newaxis]]
        assert np.max(np.abs(out.values - composed)) < 1e-10 * np.max(np.abs(u.values))

    def test_tail_warning_recorded(self):
        g = make_grid(1, 6.0, 16)
        u = random_field(g, seed=6)  # rough field, strong tail
        with pytest.warns(SpectralTailWarning):
            out = apply_canonical_transform(scaling_map(1.5, 1), u)
        assert out.meta["tail_warning"]
        assert out.meta["spectral_tail"] > 1e-6

    def test_smooth_field_no_warning(self):
        g = make_grid(1, 10.0, 64)
        u = gaussian_field(g, sigma=1.0)
        out = apply_canonical_transform(scaling_map(1.5, 1), u)
        assert not out.meta["tail_warning"]

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
        out = apply_canonical_transform(scaling_map(2.0, 1), u)
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


class TestPseudo:
    def test_frequency_only_symbol_equals_multiplier(self):
        g = make_grid(1, 8.0, 64)
        u = random_field(g, seed=0)
        sym = lambda xi: 1.0 / (1.0 + np.sum(xi * xi, axis=-1))
        out = apply_pseudo(Amplitude.of_x_xi(lambda x, xi: sym(xi)), u)
        ref = apply_multiplier(sym, u)
        assert norm(out - ref) / norm(ref) < 1e-12

    def test_space_only_symbol_equals_pointwise_product(self):
        g = make_grid(1, 8.0, 64)
        u = random_field(g, seed=1)
        b = lambda x: np.sin(np.sum(x, axis=-1))
        out = apply_pseudo(
            Amplitude.of_x_xi(lambda x, xi: b(x) * np.ones(xi.shape[:-1])), u
        )
        expected = b(g.spatial_mesh()) * u.values
        assert np.max(np.abs(out.values - expected)) < 1e-12 * np.max(np.abs(u.values))

    def test_separable_symbol_factors(self):
        g = make_grid(1, 8.0, 64)
        u = random_field(g, seed=2)
        b = lambda x: np.cos(np.sum(x, axis=-1))
        c = lambda xi: np.exp(-np.sum(xi * xi, axis=-1))
        out = apply_pseudo(Amplitude.of_x_xi(lambda x, xi: b(x) * c(xi)), u)
        ref = b(g.spatial_mesh()) * apply_multiplier(c, u).values
        assert np.max(np.abs(out.values - ref)) < 1e-12 * np.max(np.abs(u.values))

    def test_norm_uniform_across_refinement(self):
        # bounded-derivative symbol: operator norms must show no growth trend
        sym = Amplitude.of_x_xi(
            lambda x, xi: 1.0
            / (1.0 + np.sum(x * x, axis=-1) + np.sum(xi * xi, axis=-1))
        )
        estimates = []
        for n_pts in (32, 64, 128):
            g = make_grid(1, 8.0, n_pts)
            est = operator_norm(pseudo_operator(g, sym), max_iters=300, tol=1e-8, seed=0)
            assert est.converged
            estimates.append(est.estimate)
        slope = np.polyfit(np.log([32, 64, 128]), np.log(estimates), 1)[0]
        assert slope < 0.05

    def test_wrong_arity_rejected(self):
        g = make_grid(1, 4.0, 8)
        with pytest.raises(ValueError, match="arity"):
            apply_pseudo(Amplitude.of_y_xi(lambda y, xi: ones_amp(y, xi)), random_field(g))


class TestOscillatory:
    def test_zero_amplitude_gives_zero(self):
        g = make_grid(1, 4.0, 16)
        out = apply_oscillatory(
            lambda x, y: np.sum(x * y, axis=-1),
            lambda x, y: np.zeros(np.broadcast_shapes(x.shape[:-1], y.shape[:-1])),
            random_field(g),
        )
        assert np.max(np.abs(out.values)) == 0.0

    def test_fourier_phase_matches_transform_on_aligned_grid(self):
        # with L^2 = pi N / 2 every spatial node coincides with a frequency
        # node, so the quadrature must reproduce the analysis transform
        n_pts = 16
        g = make_grid(1, np.sqrt(np.pi * n_pts / 2), n_pts)
        assert g.dx == pytest.approx(g.dxi)
        u = Field(g, np.exp(-g.spatial_mesh()[..., 0] ** 2))
        out = apply_oscillatory(lambda x, y: -np.sum(x * y, axis=-1), ones_amp, u)
        spec = forward_transform(u).values
        assert np.max(np.abs(out.values - spec)) < 1e-10

    def test_adjoint_pairing(self, rng):
        g = make_grid(1, 4.0, 16)
        h = oscillatory_operator(
            g,
            lambda x, y: 3.0 * np.tanh(np.sum(x * y, axis=-1)),
            lambda x, y: ones_amp(x, y) + 0.5j,
        )
        u = random_field(g, seed=21)
        v = random_field(g, seed=22)
        lhs = inner_product(h.apply(u), v)
        rhs = inner_product(u, h.apply_adjoint(v))
        assert abs(lhs - rhs) / abs(lhs) < 1e-10


class TestFio:
    def test_dual_fourier_phase_reduces_to_pseudo(self):
        # oracle: phi(y, xi) = -y.xi collapses the inner analysis operator to
        # the forward transform, leaving (2 pi)^n times the quantization
        g = make_grid(1, 8.0, 64)
        u = random_field(g, seed=0)
        phase = lambda y, xi: -np.sum(y * xi, axis=-1)
        amp = Amplitude.of_x_xi(
            lambda x, xi: np.exp(-0.1 * np.sum(x * x, axis=-1))
            / (1.0 + np.sum(xi * xi, axis=-1))
        )
        out = apply_fio(phase, amp, u)
        ref = apply_pseudo(amp, u) * (2 * np.pi)
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

        out = apply_fio(phase_eval, Amplitude.of_y_xi(ones_amp), u)
        ref = apply_canonical_transform(psi, u) * (2 * np.pi) ** 2
        assert norm(out - ref) / norm(ref) < 1e-8

    def test_factorization_identity(self):
        # T = (2 pi)^n a(X,D) F^{-1} I_phi reproduced by composing the parts
        g = make_grid(1, 6.0, 32)
        u = random_field(g, seed=3)
        phase = lambda y, xi: (
            -np.sum(y * xi, axis=-1)
            + 0.2 * np.sum(xi, axis=-1) * np.tanh(np.sum(y, axis=-1))
        )
        a_func = lambda x, xi: 1.0 / (1.0 + np.sum(x * x, axis=-1) + np.sum(xi * xi, axis=-1))
        out = apply_fio(phase, Amplitude.of_x_xi(a_func), u)

        from fiolab.operators import _fio_analysis

        w = _fio_analysis(g, phase, None).apply(u)
        ref = apply_pseudo(Amplitude.of_x_xi(a_func), w) * (2 * np.pi)
        assert norm(out - ref) / norm(ref) < 1e-8

    def test_full_arity_matches_factorized_path(self):
        g = make_grid(1, 5.0, 32)
        u = random_field(g, seed=2)
        phase = lambda y, xi: (
            -np.sum(y * xi, axis=-1)
            + 0.3 * np.sum(xi, axis=-1) * np.tanh(np.sum(y, axis=-1))
        )
        a_func = lambda x, xi: 1.0 / (1.0 + np.sum(x * x, axis=-1) + np.sum(xi * xi, axis=-1))
        out_fact = apply_fio(phase, Amplitude.of_x_xi(a_func), u)
        full = Amplitude.full(
            lambda x, y, xi: a_func(x, xi)
            * np.ones(np.broadcast_shapes(x.shape[:-1], y.shape[:-1], xi.shape[:-1]))
        )
        out_full = apply_fio(phase, full, u)
        assert norm(out_full - out_fact) / norm(out_fact) < 1e-12

    def test_size_guard_refuses_large_full_arity(self):
        g = make_grid(1, 5.0, 256)
        amp = Amplitude.full(lambda x, y, xi: ones_amp(x, y) * np.ones(xi.shape[:-1]))
        phase = lambda y, xi: -np.sum(y * xi, axis=-1)
        with pytest.raises(ValueError, match="refusing"):
            apply_fio(phase, amp, random_field(g))

    def test_full_arity_needs_dim_one(self):
        g = make_grid(2, 3.0, 8)
        amp = Amplitude.full(
            lambda x, y, xi: np.ones(
                np.broadcast_shapes(x.shape[:-1], y.shape[:-1], xi.shape[:-1])
            )
        )
        phase = lambda y, xi: -np.sum(y * xi, axis=-1)
        with pytest.raises(ValueError, match="dim 1"):
            apply_fio(phase, amp, random_field(g))


def probe_handles(grid):
    cmap = gauss_phase(ELLIPSE) if grid.dim == 2 else scaling_map(1.5, grid.dim)
    handles = [
        identity_operator(grid),
        multiplier_operator(grid, lambda xi: 1.0 / (1.0 + np.sum(xi * xi, axis=-1))),
        multiplication_operator(grid, lambda x: np.exp(-np.sum(x * x, axis=-1))),
        weight_operator(grid, -1.0),
        canonical_transform_operator(cmap, grid),
    ]
    if grid.dim == 1:
        handles.append(
            pseudo_operator(
                grid,
                Amplitude.of_x_xi(
                    lambda x, xi: 1.0 / (1.0 + np.sum(x * x, axis=-1) + np.sum(xi * xi, axis=-1))
                ),
            )
        )
        handles.append(
            oscillatory_operator(
                grid, lambda x, y: np.sum(x * y, axis=-1) * 0.7, lambda x, y: ones_amp(x, y)
            )
        )
        phase = lambda y, xi: (
            -np.sum(y * xi, axis=-1)
            + 0.2 * np.sum(xi, axis=-1) * np.tanh(np.sum(y, axis=-1))
        )
        a_main = lambda z, xi: 1.0 / (1.0 + np.sum(z * z, axis=-1) + np.sum(xi * xi, axis=-1))
        a_scalar = lambda z: 1.0 + 0.5 * np.cos(np.sum(z, axis=-1))
        amplitudes = [
            Amplitude.of_y_xi(lambda y, xi: 1.0 / (1.0 + np.sum(y * y, axis=-1))),
            Amplitude.of_x_xi(a_main),
            Amplitude.full(lambda x, y, xi: a_main(x, xi) * a_scalar(y) * (1.0 + 0.3j)),
        ]
        handles.extend(fio_operator(grid, phase, amp) for amp in amplitudes)
        # products with a function of x or y alone, by composition
        scalar = multiplication_operator(grid, a_scalar)
        handles.append(compose(fio_operator(grid, phase, Amplitude.of_x_xi(a_main)), scalar))
        handles.append(compose(scalar, fio_operator(grid, phase, Amplitude.of_y_xi(a_main))))
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
            conjugated = t_fwd.apply(apply_multiplier(sym, t_inv.apply(u)))
            pulled_back = apply_multiplier(
                lambda xi: (1.0 + ELLIPSE.evaluate(xi) ** 2) ** 0.25,
                u,
                value_at_zero=1.0,
            )
            errors[n_pts] = norm(conjugated - pulled_back) / norm(u)
        assert errors[64] < 1e-3
        assert errors[128] < errors[64]
