import threading

import numpy as np
import pytest

import fiolab.dispersive
from fiolab.dispersive import (
    _WORKERS,
    TimeWindow,
    _level_factor,
    _level_index,
    _time_kernel,
    egorov_residual,
    half_derivative_ratio_operator,
    propagate,
    smoothing_constant,
    smoothing_functional,
    symbol_on_grid,
)
from fiolab.lattice import (
    Field,
    SpectralField,
    bracket,
    forward_transform,
    inverse_transform,
    make_grid,
    norm,
)
from fiolab.normest import NormEstimate
from fiolab.symbols import euclidean_symbol, perturbed_symbol, quadratic_form_symbol
from tests.conftest import gaussian_field, random_field

EUCLID_1D = euclidean_symbol(1)
ELLIPSE = quadratic_form_symbol(np.diag([1.0, 4.0]))


class TestTimeWindow:
    def test_weights_sum_to_horizon(self):
        for horizon, steps in ((1.0, 2), (4.0, 129), (0.3, 7)):
            w = TimeWindow(horizon, steps)
            assert w.weights().sum() == pytest.approx(horizon, rel=1e-12)
            assert w.nodes()[0] == 0.0
            assert w.nodes()[-1] == pytest.approx(horizon)

    def test_validation(self):
        with pytest.raises(ValueError):
            TimeWindow(-1.0, 4)
        with pytest.raises(ValueError):
            TimeWindow(1.0, 1)

    @pytest.mark.parametrize("horizon", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_rejects_non_finite_horizon(self, horizon):
        with pytest.raises(ValueError, match="time horizon must be"):
            TimeWindow(horizon, 5)

    def test_rejects_fractional_steps(self):
        with pytest.raises(ValueError, match="integer number of nodes"):
            TimeWindow(1.0, 2.5)


class TestPropagate:
    def test_initial_slice_is_data(self):
        g = make_grid(1, 8.0, 64)
        f = gaussian_field(g)
        st = propagate(EUCLID_1D, f, TimeWindow(1.0, 5))
        assert np.max(np.abs(st[0].values - f.values)) < 1e-14

    def test_grid_mode_picks_up_phase(self):
        g = make_grid(1, 8.0, 64)
        k = 5 * g.dxi
        mode = Field(g, np.exp(1j * k * g.spatial_mesh()[..., 0]))
        t_end = 0.3
        st = propagate(EUCLID_1D, mode, TimeWindow(t_end, 4))
        expected = np.exp(1j * t_end * k**2) * mode.values
        assert np.max(np.abs(st[-1].values - expected)) < 1e-12

    def test_gaussian_closed_form(self):
        # oracle: complex-Gaussian formula for the free evolution of
        # exp(-x^2/2): u(t, x) = (1 - 2 i t)^{-1/2} exp(-x^2 / (2 (1 - 2 i t)))
        g = make_grid(1, 16.0, 512)
        x = g.spatial_mesh()[..., 0]
        f = Field(g, np.exp(-x * x / 2.0))
        t_end = 0.5
        st = propagate(EUCLID_1D, f, TimeWindow(t_end, 2))
        exact = np.exp(-x * x / (2.0 * (1.0 - 2j * t_end))) / np.sqrt(1.0 - 2j * t_end)
        interior = np.abs(x) < 8.0
        err = np.max(np.abs(st[-1].values[interior] - exact[interior]))
        assert err < 1e-6 * np.max(np.abs(exact))

    def test_unitarity_all_slices(self):
        g = make_grid(2, 6.0, 16)
        f = random_field(g, seed=3)
        st = propagate(quadratic_form_symbol(np.diag([1.0, 4.0])), f, TimeWindow(2.0, 9))
        base = norm(f)
        for s in st:
            assert abs(norm(s) - base) / base < 1e-12

    def test_group_property(self):
        g = make_grid(1, 8.0, 64)
        f = gaussian_field(g, sigma=0.8)
        first = propagate(EUCLID_1D, f, TimeWindow(0.4, 5))
        second = propagate(EUCLID_1D, first[-1], TimeWindow(0.4, 5))
        joint = propagate(EUCLID_1D, f, TimeWindow(0.8, 9))
        for got, want in zip(second, joint[4:]):
            assert np.max(np.abs(got.values - want.values)) < 1e-10

    def test_time_reversal(self):
        g = make_grid(1, 8.0, 64)
        f = random_field(g, seed=9)
        t_end = 0.7
        fwd = propagate(EUCLID_1D, f, TimeWindow(t_end, 3))[-1]
        back = propagate(EUCLID_1D, Field(g, np.conj(fwd.values)), TimeWindow(t_end, 3))[-1]
        recovered = np.conj(back.values)
        assert np.max(np.abs(recovered - f.values)) < 1e-10 * np.max(np.abs(f.values))

    def test_homogeneous_symbol_zero_frequency_convention(self):
        g = make_grid(1, 8.0, 16)
        vals = symbol_on_grid(perturbed_symbol(EUCLID_1D, 0.2, [1.0]), g)
        assert vals[g.points_per_axis // 2] == 0.0
        assert np.all(np.isfinite(vals))


class TestSmoothingFunctional:
    def test_zero_data(self):
        g = make_grid(1, 8.0, 32)
        val = smoothing_functional(EUCLID_1D, Field(g, np.zeros(g.shape)), TimeWindow(1.0, 5), 1.0)
        assert val == 0.0

    def test_grid_mode_closed_form(self):
        # oracle: |u(t,x)| = 1 for a single mode, so the functional factors
        # into sqrt(T) <k>^(1/2) ||<x>^{-1}||
        g = make_grid(1, 8.0, 64)
        k = 3 * g.dxi
        mode = Field(g, np.exp(1j * k * g.spatial_mesh()[..., 0]))
        horizon = 2.0
        val = smoothing_functional(EUCLID_1D, mode, TimeWindow(horizon, 41), 1.0, "inhomogeneous")
        x = g.spatial_mesh()[..., 0]
        weight_norm = np.sqrt(np.sum((1.0 + x * x) ** -1) * g.dx)
        expected = np.sqrt(horizon) * (1.0 + k * k) ** 0.25 * weight_norm
        assert val == pytest.approx(expected, rel=1e-12)

    def test_refinement_convergence(self):
        g1 = make_grid(1, 16.0, 256)
        g2 = make_grid(1, 16.0, 512)
        vals = []
        for g, steps in ((g1, 33), (g2, 65)):
            f = gaussian_field(g, sigma=1.0)
            vals.append(
                smoothing_functional(EUCLID_1D, f, TimeWindow(1.0, steps), 1.0) / norm(f)
            )
        assert abs(vals[1] - vals[0]) / vals[0] < 0.01

    def test_homogeneous_kind_zeroes_constant_mode(self):
        g = make_grid(1, 8.0, 32)
        const = Field(g, np.ones(g.shape))
        val = smoothing_functional(EUCLID_1D, const, TimeWindow(1.0, 5), 1.0, "homogeneous")
        assert val == pytest.approx(0.0, abs=1e-12)


class TestSmoothingConstant:
    def test_tiny_window_bound(self):
        g = make_grid(1, 8.0, 32)
        horizon = 1e-4
        est = smoothing_constant(EUCLID_1D, g, TimeWindow(horizon, 2), 1.0, tol=1e-8, max_iters=200)
        xi = g.frequency_mesh()
        cap = np.sqrt(horizon) * np.max((1.0 + np.sum(xi * xi, axis=-1)) ** 0.25)
        assert est.estimate <= cap * (1 + 1e-6)
        assert est.estimate < 0.1

    def test_dominates_rayleigh_quotients(self):
        g = make_grid(1, 8.0, 32)
        window = TimeWindow(1.0, 17)
        est = smoothing_constant(EUCLID_1D, g, window, 1.0, tol=1e-8, max_iters=400)
        for seed in range(5):
            f = random_field(g, seed=seed)
            quotient = smoothing_functional(EUCLID_1D, f, window, 1.0) / norm(f)
            assert est.estimate >= quotient * (1.0 - 1e-6)

    def test_monotone_in_horizon_with_nested_nodes(self):
        g = make_grid(1, 8.0, 32)
        prev = 0.0
        for horizon, steps in ((1.0, 9), (2.0, 17), (4.0, 33)):
            est = smoothing_constant(
                EUCLID_1D, g, TimeWindow(horizon, steps), 1.0, tol=1e-9, max_iters=500
            )
            assert est.converged
            assert est.estimate >= prev - 1e-10
            prev = est.estimate


class TestHalfDerivativeRatio:
    def test_identity_for_euclidean(self):
        g = make_grid(1, 8.0, 64)
        u = random_field(g, seed=4)
        out = half_derivative_ratio_operator(g, EUCLID_1D).apply(u)
        assert np.max(np.abs(out.values - u.values)) < 1e-13 * np.max(np.abs(u.values))

    def test_grid_mode_scaling(self):
        g = make_grid(2, 6.0, 16)
        p = ELLIPSE
        k_idx = (2, -3)
        k = np.array(k_idx) * g.dxi
        mode = Field(g, np.exp(1j * np.einsum("...i,i->...", g.spatial_mesh(), k)))
        out = half_derivative_ratio_operator(g, p).apply(mode)
        factor = (1.0 + k @ k) ** 0.25 * (1.0 + p.evaluate(k) ** 2) ** -0.25
        np.testing.assert_allclose(out.values, factor * mode.values, rtol=1e-12)

    def test_multiplier_range_matches_direct_scan(self):
        # oracle: direct extremes of the multiplier over grid frequencies
        g = make_grid(2, 6.0, 32)
        p2 = symbol_on_grid(ELLIPSE, g) ** 2
        mesh = g.frequency_mesh()
        mult = (1.0 + np.sum(mesh * mesh, axis=-1)) ** 0.25 * (1.0 + p2) ** -0.25
        # eigenvalue range of A = diag(1,4) bounds p^2 between |xi|^2 and 4|xi|^2
        mag2 = np.sum(mesh * mesh, axis=-1)
        lower = (1.0 + mag2) ** 0.25 * (1.0 + 4.0 * mag2) ** -0.25
        assert np.max(mult) <= 1.0 + 1e-12
        assert np.min(mult - lower) >= -1e-12


class TestEgorovResidual:
    def test_euclidean_symbol_is_exact(self):
        # N = 64 keeps the Gaussian's Nyquist content at rounding level so
        # the identity-map transform is exact
        g = make_grid(2, 10.0, 64)
        u = gaussian_field(g, sigma=1.0)
        assert egorov_residual(euclidean_symbol(2), u) < 1e-12

    def test_scaled_euclidean_small_residual(self):
        # psi = 2 xi and |psi(xi)|^2 = 4 |xi|^2 = p(xi)^2 exactly; the
        # discrete residual is pure interpolation error
        g = make_grid(1, 12.0, 256)
        u = gaussian_field(g, sigma=0.8)
        res = egorov_residual(quadratic_form_symbol(np.array([[4.0]])), u)
        assert res < 1e-8

    def test_ellipse_residual_shrinks_under_refinement(self):
        residuals = {}
        for n_pts in (64, 128):
            g = make_grid(2, 10.0, n_pts)
            u = gaussian_field(g, sigma=1.2, carrier=[5.0, 0.0])
            residuals[n_pts] = egorov_residual(ELLIPSE, u)
        assert residuals[128] < residuals[64] / 1.5


# Frozen reference: the per-node spectral time loop that preceded the batched
# kernel, with exp per node, shifts around every transform and 64-node batches.
def _reference_tables(p, grid, kind, space_power):
    mesh = grid.frequency_mesh()
    mag2 = np.sum(mesh * mesh, axis=-1)
    half_d = (1.0 + mag2) ** 0.25 if kind == "inhomogeneous" else mag2**0.25
    return symbol_on_grid(p, grid) ** 2, half_d, bracket(grid.spatial_mesh()) ** space_power


def _reference_batches(p2, spec, window, batch=64):
    """Yield ``(w_batch, phases, fields)`` with math-order fields ``ifft(phases spec)``."""
    axes = tuple(range(1, p2.ndim + 1))
    nodes, weights = window.nodes(), window.weights()
    for start in range(0, nodes.size, batch):
        t_batch = nodes[start : start + batch].reshape((-1,) + (1,) * p2.ndim)
        phases = np.exp(1j * t_batch * p2)
        fields = np.fft.fftshift(
            np.fft.ifftn(np.fft.ifftshift(phases * spec, axes=axes), axes=axes), axes=axes
        )
        yield weights[start : start + batch], phases, fields


def _reference_functional(p, f, window, weight_exponent, kind):
    grid = f.grid
    p2, half_d, w_space = _reference_tables(p, grid, kind, -weight_exponent)
    spec = half_d * forward_transform(f).values
    total = 0.0
    for w_batch, _, fields in _reference_batches(p2, spec, window):
        weighted = w_space * fields / grid.cell_volume
        slice_sq = np.sum(np.abs(weighted) ** 2, axis=tuple(range(1, grid.dim + 1)))
        total += float(np.sum(w_batch * slice_sq * grid.cell_volume))
    return float(np.sqrt(total))


def _reference_normal_apply(p, grid, window, delta, kind, v):
    p2, half_d, w2_space = _reference_tables(p, grid, kind, -2.0 * delta)
    axes = tuple(range(1, grid.dim + 1))
    acc = np.zeros(grid.shape, dtype=np.complex128)
    for w_batch, phases, fields in _reference_batches(p2, half_d * forward_transform(v).values, window):
        back = np.fft.fftshift(
            np.fft.fftn(np.fft.ifftshift(w2_space * fields, axes=axes), axes=axes), axes=axes
        )
        acc += np.tensordot(w_batch, np.conj(phases) * (half_d * back), axes=([0], [0]))
    return inverse_transform(SpectralField(grid, acc))


def _rel_err(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


def _capture_normal_apply(monkeypatch, p, grid, window, delta, kind):
    """The ``normal_apply`` that ``smoothing_constant`` hands to its solver."""
    captured = {}

    def capture(normal_apply, start, tol, max_iters):
        captured["apply"] = normal_apply
        return NormEstimate(0.0, 0, False)

    monkeypatch.setattr("fiolab.dispersive.power_iteration", capture)
    smoothing_constant(p, grid, window, delta, kind)
    return captured["apply"]


def _term_count(p, grid, window):
    return len(_level_factor(_level_index(p, grid)[0], window))


class TestEvolutionKernel:
    GRID = make_grid(3, 6.0, 8)
    SYMBOL = quadratic_form_symbol(np.diag([1.0, 2.0, 4.0]))
    # p^2 takes 325 and 281 values on the 512 frequencies, against SYMBOL's 89
    MANY_LEVELS = {
        "perturbed": perturbed_symbol(SYMBOL, 0.3, [1.0, 0.5, 0.25]),
        "matrix": quadratic_form_symbol(
            np.array([[2.0, 0.5, 0.2], [0.5, 1.5, 0.3], [0.2, 0.3, 1.0]])
        ),
    }
    # 17 terms from 19 nodes: an odd count, so worker 0 owns nine and worker 1 eight
    WINDOW = TimeWindow(1.5, 19)
    # the window above; then short windows, where every node is a term: one
    # term, which worker 1 does not own; an odd count; an even count
    WINDOWS = [WINDOW, TimeWindow(1e-8, 2), TimeWindow(1.0, 5), TimeWindow(1.0, 8)]
    WINDOW_IDS = ["long", "one-term", "odd", "even"]

    def test_window_truncates_to_an_odd_term_count(self):
        terms = _term_count(self.SYMBOL, self.GRID, self.WINDOW)
        assert 2 * _WORKERS < terms < self.WINDOW.steps
        assert terms % _WORKERS == 1

    def test_windows_cover_the_split_edge_cases(self):
        terms = [_term_count(self.SYMBOL, self.GRID, w) for w in self.WINDOWS[1:]]
        assert terms[0] == 1 < _WORKERS  # worker 1 owns no term
        assert terms[1] > _WORKERS and terms[1] % _WORKERS == 1
        assert terms[2] > _WORKERS and terms[2] % _WORKERS == 0

    def test_many_level_symbols_have_many_levels(self):
        for symbol in self.MANY_LEVELS.values():
            levels, index = _level_index(symbol, self.GRID)
            assert levels.size > 3 * _level_index(self.SYMBOL, self.GRID)[0].size
            np.testing.assert_array_equal(
                levels[index], np.fft.ifftshift(symbol_on_grid(symbol, self.GRID) ** 2)
            )

    def test_level_factor_reproduces_the_time_kernel(self):
        # criterion-5 grid at T = 1: the factor's terms rebuild
        # G(l, m) = sum_k w_k exp(-i t_k (lambda_l - lambda_m)) with fewer
        # terms than the 65 trapezoid nodes
        symbol = quadratic_form_symbol(np.diag([1.0, 1.0, 4.0]))
        levels, _ = _level_index(symbol, make_grid(3, 12.0, 32))
        window = TimeWindow(1.0, 65)
        factors = np.array(_level_factor(levels, window))
        phases = np.exp(1j * np.multiply.outer(window.nodes(), levels))
        kernel = np.conj(phases).T @ (window.weights()[:, np.newaxis] * phases)
        rebuilt = factors.T @ np.conj(factors)
        assert len(factors) < window.steps // 2
        assert np.linalg.norm(rebuilt - kernel) < 1e-13 * np.linalg.norm(kernel)

    @pytest.mark.parametrize("window", [TimeWindow(1.0, 5), TimeWindow(3.0, 8)],
                             ids=["odd-nodes", "even-nodes"])
    def test_time_kernel_matches_the_node_sum(self, window):
        # level differences at and next to the removable singularities
        # s = 2 pi n / h of the closed form, which a coarse window reaches
        period = 2.0 * np.pi / (window.horizon / (window.steps - 1))
        levels = np.array([0.0, 1e-14, 0.3, period, period + 1e-12, 2.0 * period - 0.5,
                           3.0 * period, -period, 40.0])
        direct = np.exp(-1j * np.multiply.outer(levels, window.nodes())) @ window.weights()
        got = _time_kernel(levels, 0.0, window)
        assert np.max(np.abs(got - direct)) < 1e-13 * window.horizon

    def _check_normal_apply(self, kind, window, monkeypatch, symbol=SYMBOL):
        apply = _capture_normal_apply(monkeypatch, symbol, self.GRID, window, 0.75, kind)
        v = random_field(self.GRID, seed=11)
        want = _reference_normal_apply(symbol, self.GRID, window, 0.75, kind, v)
        assert _rel_err(apply(v).values, want.values) < 1e-13

    @pytest.mark.parametrize("kind", ["inhomogeneous", "homogeneous"])
    def test_normal_apply_matches_frozen_reference(self, kind, monkeypatch):
        self._check_normal_apply(kind, self.WINDOW, monkeypatch)

    @pytest.mark.parametrize("window", WINDOWS[1:], ids=WINDOW_IDS[1:])
    @pytest.mark.parametrize("kind", ["inhomogeneous", "homogeneous"])
    def test_normal_apply_matches_frozen_reference_on_split_edges(self, kind, window, monkeypatch):
        self._check_normal_apply(kind, window, monkeypatch)

    @pytest.mark.parametrize("symbol", sorted(MANY_LEVELS))
    @pytest.mark.parametrize("kind", ["inhomogeneous", "homogeneous"])
    def test_normal_apply_matches_frozen_reference_with_many_levels(self, kind, symbol,
                                                                    monkeypatch):
        self._check_normal_apply(kind, self.WINDOW, monkeypatch, self.MANY_LEVELS[symbol])

    def test_normal_apply_is_bitwise_deterministic(self, monkeypatch):
        applies = [
            _capture_normal_apply(
                monkeypatch, self.SYMBOL, self.GRID, self.WINDOW, 0.75, "inhomogeneous"
            )
            for _ in range(2)
        ]
        v = random_field(self.GRID, seed=14)
        first = applies[0](v).values
        assert np.array_equal(first, applies[0](v).values)
        assert np.array_equal(first, applies[1](v).values)  # the factor is rebuilt bitwise

    @pytest.mark.parametrize("failing", range(_WORKERS), ids=lambda w: f"worker{w}")
    @pytest.mark.parametrize("entry", ["normal_apply", "functional"])
    def test_worker_error_reaches_the_caller(self, entry, failing, monkeypatch):
        real_worker_sum = fiolab.dispersive._worker_sum

        def failing_worker_sum(factors, index, spec, w2_space, worker):
            if worker == failing:
                raise FloatingPointError(f"injected in worker {worker}")
            return real_worker_sum(factors, index, spec, w2_space, worker)

        f = random_field(self.GRID, seed=15)
        if entry == "normal_apply":
            apply = _capture_normal_apply(
                monkeypatch, self.SYMBOL, self.GRID, self.WINDOW, 0.75, "inhomogeneous"
            )
        monkeypatch.setattr(fiolab.dispersive, "_worker_sum", failing_worker_sum)
        threads_before = threading.active_count()
        with pytest.raises(FloatingPointError, match=f"worker {failing}"):
            if entry == "normal_apply":
                apply(f)
            else:
                smoothing_functional(self.SYMBOL, f, self.WINDOW, 0.75)
        assert threading.active_count() == threads_before  # worker 1 was joined

    def _check_functional(self, kind, window, symbol=SYMBOL):
        f = random_field(self.GRID, seed=12)
        got = smoothing_functional(symbol, f, window, 0.75, kind)
        want = _reference_functional(symbol, f, window, 0.75, kind)
        assert abs(got - want) < 1e-13 * want

    @pytest.mark.parametrize("kind", ["inhomogeneous", "homogeneous"])
    def test_functional_matches_frozen_reference(self, kind):
        self._check_functional(kind, self.WINDOW)

    @pytest.mark.parametrize("window", WINDOWS[1:], ids=WINDOW_IDS[1:])
    @pytest.mark.parametrize("kind", ["inhomogeneous", "homogeneous"])
    def test_functional_matches_frozen_reference_on_split_edges(self, kind, window):
        self._check_functional(kind, window)

    @pytest.mark.parametrize("symbol", sorted(MANY_LEVELS))
    @pytest.mark.parametrize("kind", ["inhomogeneous", "homogeneous"])
    def test_functional_matches_frozen_reference_with_many_levels(self, kind, symbol):
        self._check_functional(kind, self.WINDOW, self.MANY_LEVELS[symbol])

    @pytest.mark.parametrize(
        "symbol, window",
        [(SYMBOL, WINDOW), (MANY_LEVELS["perturbed"], WINDOW), (MANY_LEVELS["matrix"], WINDOW),
         (SYMBOL, TimeWindow(16.0, 1025))],
        ids=["window", "perturbed", "matrix", "long-window"],
    )
    def test_propagate_matches_frozen_reference(self, symbol, window):
        # the long window reaches t p^2 of about 490 rad, where a phase
        # recurrence would drift to 3.7e-14, while exp per node stays at rounding
        f = random_field(self.GRID, seed=13)
        got = propagate(symbol, f, window)
        p2 = symbol_on_grid(symbol, self.GRID) ** 2
        fhat = forward_transform(f).values
        assert len(got) == window.steps
        for u, (_, _, fields) in zip(got, _reference_batches(p2, fhat, window, batch=1)):
            assert _rel_err(u.values, fields[0] / self.GRID.cell_volume) < 1e-14
