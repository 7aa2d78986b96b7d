"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines as
they are produced.  Criteria 4 and 5 probe weighted-norm and horizon
stability claims whose hypotheses are analyzed in detail next to the
assertions; every tolerance is pinned here, nothing is deferred.
"""

import json

import numpy as np
import pytest

from fiolab.cli import main
from fiolab.dispersive import (
    TimeWindow,
    egorov_residual,
    half_derivative_ratio_operator,
    propagate,
    smoothing_constant,
    smoothing_functional,
)
from fiolab.lattice import Field, make_grid, norm
from fiolab.normest import cotlar_bound, operator_norm, schur_bound
from fiolab.operators import (
    canonical_transform_operator,
    matrix_operator,
    multiplication_operator,
    multiplier_operator,
    weight_operator,
)
from fiolab.symbols import (
    SymbolClassSpec,
    check_symbol_class,
    euclidean_symbol,
    gauss_phase,
    quadratic_form_symbol,
    scaling_map,
)
from tests.conftest import gaussian_field, random_field

ELLIPSE_2D = quadratic_form_symbol(np.diag([1.0, 4.0]))

# Gaussian wave packet used for the conjugation identities: the carrier
# keeps the packet spectrum away from the conical point of the homogeneous
# phase at xi = 0 (where trigonometric interpolation of the pulled-back
# spectrum is only finitely smooth and its error cannot shrink with N at
# fixed box size), so the measured residual is governed by the part that
# refinement actually improves.
PACKET_SIGMA = 1.2
PACKET_CARRIER = [5.0, 0.0]


def verdict(index, ok, detail):
    line = f"[criterion {index:2d}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line, flush=True)
    return ok


def test_criterion_01_egorov_identity():
    residuals = {}
    for n_pts in (64, 128):
        grid = make_grid(2, 10.0, n_pts)
        u = gaussian_field(grid, sigma=PACKET_SIGMA, carrier=PACKET_CARRIER)
        residuals[n_pts] = egorov_residual(ELLIPSE_2D, u)
    ratio = residuals[64] / residuals[128]
    ok = residuals[64] < 1e-3 and ratio >= 1.5
    assert verdict(
        1, ok, f"residual(64)={residuals[64]:.3e} (<1e-3), refinement ratio={ratio:.1f} (>=1.5)"
    )


def test_criterion_02_conjugation_identity():
    psi = gauss_phase(ELLIPSE_2D)
    sym = lambda xi: (1.0 + np.sum(xi * xi, axis=-1)) ** 0.25
    pulled = lambda xi: (1.0 + ELLIPSE_2D.evaluate(xi) ** 2) ** 0.25
    errors = {}
    for n_pts in (64, 128):
        grid = make_grid(2, 10.0, n_pts)
        u = gaussian_field(grid, sigma=PACKET_SIGMA, carrier=PACKET_CARRIER)
        t_fwd = canonical_transform_operator(psi, grid, "forward")
        t_inv = canonical_transform_operator(psi, grid, "inverse")
        conjugated = t_fwd.apply(multiplier_operator(grid, sym).apply(t_inv.apply(u)))
        reference = multiplier_operator(grid, pulled, value_at_zero=1.0).apply(u)
        errors[n_pts] = norm(conjugated - reference) / norm(u)
    ok = errors[64] < 1e-3 and errors[128] < errors[64]
    assert verdict(
        2, ok, f"residual(64)={errors[64]:.3e} (<1e-3), residual(128)={errors[128]:.3e} (decreasing)"
    )


def test_criterion_03_dilation_norm_law():
    # The closed-form oracle is the continuum dilation law |T u| / |u| =
    # c^{-n/2}, which holds for every localized function at once, so a
    # localized band-limited probe measures the operator norm directly.
    # Power iteration is measured alongside: on the periodic box it locks
    # onto period-halved comb fields (u(x) = u(x + L)), which the dyadic
    # dilation maps isometrically, an artifact sector with no continuum
    # counterpart (see the operators test suite for the regression pinning
    # that value to exactly 1).
    grid = make_grid(1, 10.0, 128)
    probe = gaussian_field(grid, sigma=0.8)
    image = canonical_transform_operator(scaling_map(2.0, 1), grid).apply(probe)
    measured = norm(image) / norm(probe)
    expected = 2.0**-0.5
    ok = abs(measured - expected) <= 0.01 * expected
    assert verdict(3, ok, f"|T u|/|u| = {measured:.6f} vs 2^-1/2 = {expected:.6f} (1%)")


@pytest.mark.slow
def test_criterion_04_weighted_uniform_boundedness():
    # As stated: ellipse map, n = 2, m in {-0.9, 0, 0.9}, log-log slope of
    # the weighted norms across N in {32, 64, 128} below 0.05.
    #
    # Outcome analysis (kept with the assertion on purpose): the source
    # theorem for weighted boundedness of canonical transforms requires
    # INTEGER weight exponents |m| < n/2, extended by interpolation only up
    # to the greatest integer strictly below n/2; at n = 2 that covers
    # m = 0 alone.  The fractional weights m = +-0.9 lie outside every
    # hypothesis, and the measured discrete norms do grow (box-edge weight
    # effects compounding with the conical frequency point), so this
    # criterion is expected to fail at m = +-0.9 while m = 0 passes.
    psi = gauss_phase(ELLIPSE_2D)
    slopes = {}
    for m in (-0.9, 0.0, 0.9):
        estimates = []
        for n_pts in (32, 64, 128):
            grid = make_grid(2, 10.0, n_pts)
            handle = canonical_transform_operator(psi, grid, "forward")
            est = operator_norm(handle, m, m, max_iters=150, tol=1e-5, seed=0)
            estimates.append(est.estimate)
        slopes[m] = float(np.polyfit(np.log([32, 64, 128]), np.log(estimates), 1)[0])
    ok = all(slope < 0.05 for slope in slopes.values())
    detail = ", ".join(f"slope(m={m})={s:+.4f}" for m, s in slopes.items()) + " (<0.05 each)"
    assert verdict(4, ok, detail)


@pytest.mark.slow
def test_criterion_05_smoothing_horizon_stability():
    # As stated: ellipse diag(1,1,4), n = 3, L = 12, N = 32, constants at
    # T in {4, 8, 16} pairwise within 20%.
    #
    # Outcome analysis: on the periodic box nothing escapes to infinity;
    # every orbit re-enters the weight region, so the sup-over-data
    # space-time constant grows ~ sqrt(T) once horizons exceed the box
    # crossing time.  The stated horizons are deep in that recurrent
    # regime, so stability within 20% is not expected to hold for the
    # largest pair; the criterion is asserted as written regardless.
    # Measured with the Lanczos solver (relative residual <= 1e-3):
    # C(4) = 1.3058, C(8) = 1.5464, C(16) = 1.8707, worst pairwise deviation
    # 43.3%, in 24, 23 and 19 applies.  The T = 16 value stops 1.3e-4 below
    # the top eigenvalue 1.870955 of a cluster, inside the tolerance.  Power
    # iteration printed 1.2909, 1.5420 and 1.8609 (44.2%), ending up to 1.1%
    # low.
    symbol = quadratic_form_symbol(np.diag([1.0, 1.0, 4.0]))
    grid = make_grid(3, 12.0, 32)
    constants = {}
    for horizon in (4.0, 8.0, 16.0):
        window = TimeWindow(horizon, int(64 * horizon) + 1)
        est = smoothing_constant(
            symbol, grid, window, 1.0, "inhomogeneous", seed=0, tol=1e-3, max_iters=60
        )
        constants[horizon] = est.estimate
    values = list(constants.values())
    worst = max(
        abs(a - b) / min(a, b) for i, a in enumerate(values) for b in values[i + 1 :]
    )
    ok = worst < 0.20
    detail = (
        ", ".join(f"C(T={t:g})={c:.4f}" for t, c in constants.items())
        + f", worst pairwise deviation {worst:.1%} (<20%)"
    )
    assert verdict(5, ok, detail)


def test_criterion_06_propagator_exactness():
    p1 = euclidean_symbol(1)
    # unitarity on a rough field
    grid = make_grid(2, 6.0, 16)
    f = random_field(grid, seed=3)
    evolution = propagate(quadratic_form_symbol(np.diag([1.0, 4.0])), f, TimeWindow(2.0, 9))
    unitarity = max(abs(norm(s) - norm(f)) / norm(f) for s in evolution)

    # group property
    g1 = make_grid(1, 8.0, 64)
    f1 = gaussian_field(g1, sigma=0.8)
    two_step = propagate(p1, propagate(p1, f1, TimeWindow(0.4, 5))[-1], TimeWindow(0.4, 5))[-1]
    joint = propagate(p1, f1, TimeWindow(0.8, 9))[-1]
    group_err = norm(two_step - joint) / norm(joint)

    # closed-form Gaussian match at interior points
    g2 = make_grid(1, 16.0, 512)
    x = g2.spatial_mesh()[..., 0]
    f2 = Field(g2, np.exp(-x * x / 2.0))
    t_end = 0.5
    got = propagate(p1, f2, TimeWindow(t_end, 2))[-1].values
    exact = np.exp(-x * x / (2.0 * (1.0 - 2j * t_end))) / np.sqrt(1.0 - 2j * t_end)
    interior = np.abs(x) < 8.0
    gauss_err = np.max(np.abs(got[interior] - exact[interior])) / np.max(np.abs(exact))

    ok = unitarity < 1e-12 and group_err < 1e-10 and gauss_err < 1e-6
    assert verdict(
        6,
        ok,
        f"unitarity={unitarity:.1e} (<1e-12), group={group_err:.1e} (<1e-10), "
        f"gaussian={gauss_err:.1e} (<1e-6)",
    )


def test_criterion_07_bound_engine_soundness():
    rng = np.random.default_rng(2026)
    schur_ok = 0
    schur_total = 0
    for size in (4, 8, 16):
        for _ in range(100):
            kernel = rng.random((size, size)) + 1j * rng.random((size, size))
            true_norm = np.linalg.svd(kernel, compute_uv=False)[0]
            schur_total += 1
            if schur_bound(kernel) >= true_norm - 1e-10:
                schur_ok += 1

    cotlar_ok = 0
    cotlar_total = 0
    for size in (4, 8, 16):
        grid = make_grid(1, float(size) / 2.0, size)
        for trial in range(100):
            members = {
                (i,): matrix_operator(
                    grid,
                    rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size)),
                )
                for i in range(3)
            }
            report = cotlar_bound(members, tol=1e-9, max_iters=2000, seed=trial)
            cotlar_total += 1
            if report.bound >= report.sum_norm * (1.0 - 1e-8):
                cotlar_ok += 1

    # tightness for singleton and disjoint-support families
    grid = make_grid(1, 8.0, 16)
    single = rng.random((16, 16)) + 1j * rng.random((16, 16))
    rep_single = cotlar_bound({(0,): matrix_operator(grid, single)}, tol=1e-12, max_iters=4000)
    tight_single = abs(rep_single.bound / rep_single.sum_norm - 1.0) <= 1e-6

    vals1 = np.zeros(16)
    vals1[1:5] = 1.7
    vals2 = np.zeros(16)
    vals2[9:13] = 1.1
    bumps = {
        (0,): multiplication_operator(grid, vals1),
        (1,): multiplication_operator(grid, vals2),
    }
    rep_disjoint = cotlar_bound(bumps, tol=1e-12, max_iters=4000)
    tight_disjoint = abs(rep_disjoint.bound / rep_disjoint.sum_norm - 1.0) <= 1e-6

    ok = (
        schur_ok == schur_total
        and cotlar_ok == cotlar_total
        and tight_single
        and tight_disjoint
    )
    assert verdict(
        7,
        ok,
        f"schur {schur_ok}/{schur_total}, cotlar {cotlar_ok}/{cotlar_total}, "
        f"tight singleton={tight_single}, tight disjoint={tight_disjoint}",
    )


def test_criterion_08_symbol_checker_discrimination():
    good = lambda x, xi: 1.0 / (1.0 + np.sum(x * x, axis=-1) + np.sum(xi * xi, axis=-1))
    bad = lambda x, xi: np.sin(np.sum(x * x, axis=-1))

    rep_good = check_symbol_class(
        good, SymbolClassSpec("S00", 2, 5.0), dim=1,
        x_half_width=10.0, xi_half_width=10.0, x_points=201, xi_points=201,
    )

    worst = {}
    fails = True
    for box in (5.0, 10.0, 20.0):
        rep = check_symbol_class(
            bad, SymbolClassSpec("S00", 1, 5.0), dim=1,
            x_half_width=box, xi_half_width=5.0, x_points=int(400 * box) + 1, xi_points=9,
        )
        fails = fails and not rep.passes
        worst[box] = rep.worst_constant
    ratio_1 = worst[10.0] / worst[5.0]
    ratio_2 = worst[20.0] / worst[10.0]
    linear = abs(ratio_1 - 2.0) < 0.3 and abs(ratio_2 - 2.0) < 0.3

    ok = rep_good.passes and fails and linear
    assert verdict(
        8,
        ok,
        f"decaying amplitude passes R=2 ({rep_good.passes}), oscillating fails R=1 with "
        f"growth ratios {ratio_1:.2f}, {ratio_2:.2f} (~2)",
    )


def test_criterion_09_transform_path_equivalence():
    # n = 2 sits outside the smoothing theorem hypotheses (n >= 3); this is
    # purely a consistency check of the operator plumbing, as labeled.
    p = ELLIPSE_2D
    psi = gauss_phase(p)
    grid = make_grid(2, 10.0, 64)
    f = gaussian_field(grid, sigma=1.2, carrier=[2.0, 0.0])
    window = TimeWindow(1.0, 17)

    direct = smoothing_functional(p, f, window, 1.0, "inhomogeneous")

    t_fwd = canonical_transform_operator(psi, grid, "forward")
    t_inv = canonical_transform_operator(psi, grid, "inverse")
    transformed_data = t_inv.apply(f)
    classical = propagate(euclidean_symbol(2), transformed_data, window)
    half_bracket = lambda xi: (1.0 + np.sum(xi * xi, axis=-1)) ** 0.25
    weight_back = weight_operator(grid, -1.0)
    ratio = half_derivative_ratio_operator(grid, p)
    total = 0.0
    for w_j, v_j in zip(window.weights(), classical):
        traced = weight_back.apply(
            ratio.apply(t_fwd.apply(multiplier_operator(grid, half_bracket).apply(v_j)))
        )
        total += w_j * norm(traced) ** 2
    via_transform = float(np.sqrt(total))

    deviation = abs(direct - via_transform) / direct
    ok = deviation < 0.05
    assert verdict(
        9,
        ok,
        f"direct={direct:.6f}, via transform={via_transform:.6f}, deviation={deviation:.2%} (<5%)",
    )


def test_criterion_10_deterministic_reports(tmp_path):
    config = {
        "kind": "egorov",
        "symbol": {"name": "quadratic_form", "diag": [1.0, 4.0]},
        "grid": {"dim": 2, "half_width": 10.0, "points": [32]},
        "data": {"sigma": 1.2, "carrier": [5.0, 0.0]},
        "seed": 0,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    outs = []
    for name in ("run_a", "run_b"):
        out = tmp_path / name
        code = main(["egorov", "--config", str(path), "--out", str(out)])
        assert code == 0
        outs.append(out)
    same_report = (outs[0] / "report.json").read_bytes() == (outs[1] / "report.json").read_bytes()
    same_sweep = (outs[0] / "sweep.csv").read_bytes() == (outs[1] / "sweep.csv").read_bytes()

    # a second experiment kind, same requirement
    norm_cfg = {
        "kind": "norm",
        "operator": {"kind": "identity"},
        "grid": {"dim": 1, "half_width": 5.0, "points": 16},
        "weights": {"m_in": 0.0, "m_out": 0.0},
        "seed": 3,
    }
    norm_path = tmp_path / "norm.json"
    norm_path.write_text(json.dumps(norm_cfg))
    reports = []
    for name in ("norm_a", "norm_b"):
        out = tmp_path / name
        assert main(["norm", "--config", str(norm_path), "--out", str(out)]) == 0
        reports.append((out / "report.json").read_bytes())
    ok = same_report and same_sweep and reports[0] == reports[1]
    assert verdict(10, ok, "byte-identical report.json and sweep.csv across repeated runs")
