import threading

import numpy as np
import pytest

import fiolab.dispersive
from fiolab.dispersive import (
    _BATCH_NODES,
    _WORKERS,
    SpaceTimeField,
    TimeWindow,
    _evolve,
    _phase_step,
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

    def test_space_time_field_checks_slices(self):
        g = make_grid(1, 4.0, 8)
        w = TimeWindow(1.0, 3)
        with pytest.raises(ValueError):
            SpaceTimeField(w, (random_field(g),))


class TestPropagate:
    def test_initial_slice_is_data(self):
        g = make_grid(1, 8.0, 64)
        f = gaussian_field(g)
        st = propagate(EUCLID_1D, f, TimeWindow(1.0, 5))
        assert np.max(np.abs(st.slices[0].values - f.values)) < 1e-14

    def test_grid_mode_picks_up_phase(self):
        g = make_grid(1, 8.0, 64)
        k = 5 * g.dxi
        mode = Field(g, np.exp(1j * k * g.spatial_mesh()[..., 0]))
        t_end = 0.3
        st = propagate(EUCLID_1D, mode, TimeWindow(t_end, 4))
        expected = np.exp(1j * t_end * k**2) * mode.values
        assert np.max(np.abs(st.slices[-1].values - expected)) < 1e-12

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
        err = np.max(np.abs(st.slices[-1].values[interior] - exact[interior]))
        assert err < 1e-6 * np.max(np.abs(exact))

    def test_unitarity_all_slices(self):
        g = make_grid(2, 6.0, 16)
        f = random_field(g, seed=3)
        st = propagate(quadratic_form_symbol(np.diag([1.0, 4.0])), f, TimeWindow(2.0, 9))
        base = norm(f)
        for s in st.slices:
            assert abs(norm(s) - base) / base < 1e-12

    def test_group_property(self):
        g = make_grid(1, 8.0, 64)
        f = gaussian_field(g, sigma=0.8)
        first = propagate(EUCLID_1D, f, TimeWindow(0.4, 5))
        second = propagate(EUCLID_1D, first.slices[-1], TimeWindow(0.4, 5))
        joint = propagate(EUCLID_1D, f, TimeWindow(0.8, 9))
        for got, want in zip(second.slices, joint.slices[4:]):
            assert np.max(np.abs(got.values - want.values)) < 1e-10

    def test_time_reversal(self):
        g = make_grid(1, 8.0, 64)
        f = random_field(g, seed=9)
        t_end = 0.7
        fwd = propagate(EUCLID_1D, f, TimeWindow(t_end, 3)).slices[-1]
        back = propagate(EUCLID_1D, Field(g, np.conj(fwd.values)), TimeWindow(t_end, 3)).slices[-1]
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


def _batch_count(window):
    return -(-window.steps // _BATCH_NODES)


class TestEvolutionKernel:
    # 19 nodes: four full batches of 4 and a partial one, five in all, so
    # worker 0 owns three batches and worker 1 two
    GRID = make_grid(3, 6.0, 8)
    WINDOW = TimeWindow(1.5, 19)
    SYMBOL = quadratic_form_symbol(np.diag([1.0, 2.0, 4.0]))
    # the window above; one batch, which worker 1 does not own; three full
    # batches (odd, no partial one); two full batches (even)
    WINDOWS = [WINDOW, TimeWindow(0.5, _BATCH_NODES), TimeWindow(1.0, 3 * _BATCH_NODES),
               TimeWindow(1.0, 2 * _BATCH_NODES)]
    WINDOW_IDS = ["partial", "one-batch", "odd", "even"]

    def test_window_spans_full_and_partial_batches(self):
        assert self.WINDOW.steps > 2 * _BATCH_NODES
        assert self.WINDOW.steps % _BATCH_NODES != 0
        assert _batch_count(self.WINDOW) % _WORKERS != 0
        step = _phase_step(self.SYMBOL, self.GRID, self.WINDOW)
        spec = np.ones(self.GRID.shape, dtype=complex)
        for worker in range(_WORKERS):
            assert any(True for _ in _evolve(step, spec, self.WINDOW, worker, _WORKERS))

    def test_windows_cover_the_split_edge_cases(self):
        batches = [_batch_count(w) for w in self.WINDOWS]
        assert batches[1] == 1 < _WORKERS  # worker 1 owns no batch
        assert batches[2] % 2 == 1 and self.WINDOWS[2].steps % _BATCH_NODES == 0
        assert batches[3] % 2 == 0

    @pytest.mark.parametrize("window", WINDOWS, ids=WINDOW_IDS)
    def test_split_phases_are_bitwise_serial(self, window):
        step = _phase_step(self.SYMBOL, self.GRID, window)
        spec = random_field(self.GRID, seed=10).values
        serial = [(p.copy(), f.copy()) for _, p, f in _evolve(step, spec, window)]
        for worker in range(_WORKERS):
            batches = _evolve(step, spec, window, worker, _WORKERS)
            owned = [(p.copy(), f.copy()) for _, p, f in batches]
            want = serial[worker::_WORKERS]
            assert len(owned) == len(want)
            for (phases, fields), (want_phases, want_fields) in zip(owned, want):
                assert np.array_equal(phases, want_phases)
                assert np.array_equal(fields, want_fields)

    def _check_normal_apply(self, kind, window, monkeypatch):
        apply = _capture_normal_apply(monkeypatch, self.SYMBOL, self.GRID, window, 0.75, kind)
        v = random_field(self.GRID, seed=11)
        want = _reference_normal_apply(self.SYMBOL, self.GRID, window, 0.75, kind, v)
        assert _rel_err(apply(v).values, want.values) < 1e-13

    @pytest.mark.parametrize("kind", ["inhomogeneous", "homogeneous"])
    def test_normal_apply_matches_frozen_reference(self, kind, monkeypatch):
        self._check_normal_apply(kind, self.WINDOW, monkeypatch)

    @pytest.mark.parametrize("window", WINDOWS[1:], ids=WINDOW_IDS[1:])
    @pytest.mark.parametrize("kind", ["inhomogeneous", "homogeneous"])
    def test_normal_apply_matches_frozen_reference_on_split_edges(self, kind, window, monkeypatch):
        self._check_normal_apply(kind, window, monkeypatch)

    def test_normal_apply_is_bitwise_deterministic(self, monkeypatch):
        apply = _capture_normal_apply(
            monkeypatch, self.SYMBOL, self.GRID, self.WINDOW, 0.75, "inhomogeneous"
        )
        v = random_field(self.GRID, seed=14)
        assert np.array_equal(apply(v).values, apply(v).values)

    @pytest.mark.parametrize("entry", ["normal_apply", "functional"])
    def test_worker_error_reaches_the_caller(self, entry, monkeypatch):
        real_evolve = fiolab.dispersive._evolve

        def failing_evolve(step, spec, window, worker=0, workers=1):
            for batch in real_evolve(step, spec, window, worker, workers):
                if worker == 1:
                    raise FloatingPointError("injected in worker 1")
                yield batch

        f = random_field(self.GRID, seed=15)
        if entry == "normal_apply":
            apply = _capture_normal_apply(
                monkeypatch, self.SYMBOL, self.GRID, self.WINDOW, 0.75, "inhomogeneous"
            )
        monkeypatch.setattr(fiolab.dispersive, "_evolve", failing_evolve)
        threads_before = threading.active_count()
        with pytest.raises(FloatingPointError, match="worker 1"):
            if entry == "normal_apply":
                apply(f)
            else:
                smoothing_functional(self.SYMBOL, f, self.WINDOW, 0.75)
        assert threading.active_count() == threads_before  # the worker was joined

    def _check_functional(self, kind, window):
        f = random_field(self.GRID, seed=12)
        got = smoothing_functional(self.SYMBOL, f, window, 0.75, kind)
        want = _reference_functional(self.SYMBOL, f, window, 0.75, kind)
        assert abs(got - want) < 1e-13 * want

    @pytest.mark.parametrize("kind", ["inhomogeneous", "homogeneous"])
    def test_functional_matches_frozen_reference(self, kind):
        self._check_functional(kind, self.WINDOW)

    @pytest.mark.parametrize("window", WINDOWS[1:], ids=WINDOW_IDS[1:])
    @pytest.mark.parametrize("kind", ["inhomogeneous", "homogeneous"])
    def test_functional_matches_frozen_reference_on_split_edges(self, kind, window):
        self._check_functional(kind, window)

    def test_propagate_matches_frozen_reference(self):
        f = random_field(self.GRID, seed=13)
        got = propagate(self.SYMBOL, f, self.WINDOW).slices
        p2 = symbol_on_grid(self.SYMBOL, self.GRID) ** 2
        fhat = forward_transform(f).values
        assert len(got) == self.WINDOW.steps
        for u, (_, _, fields) in zip(got, _reference_batches(p2, fhat, self.WINDOW, batch=1)):
            assert _rel_err(u.values, fields[0] / self.GRID.cell_volume) < 1e-13

    def test_phase_recurrence_tracks_exp_over_longest_window(self):
        # criterion-5 grid and longest window: t p^2 reaches about 1684 rad,
        # where exp's own argument rounding is about 2e-13; each worker's
        # owned batches are checked against exp at their own nodes
        grid = make_grid(3, 12.0, 32)
        window = TimeWindow(16.0, 1025)
        symbol = quadratic_form_symbol(np.diag([1.0, 1.0, 4.0]))
        p2 = np.fft.ifftshift(symbol_on_grid(symbol, grid) ** 2)
        step = _phase_step(symbol, grid, window)
        owner = np.arange(window.steps) // _BATCH_NODES % _WORKERS
        spec = np.zeros(grid.shape, dtype=complex)
        for worker in range(_WORKERS):
            nodes = iter(window.nodes()[owner == worker])
            worst = 0.0
            for _, phases, _ in _evolve(step, spec, window, worker, _WORKERS):
                for phase in phases:
                    worst = max(worst, np.max(np.abs(phase - np.exp(1j * next(nodes) * p2))))
            assert next(nodes, None) is None
            assert worst < 1e-12
