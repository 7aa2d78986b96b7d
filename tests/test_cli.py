import functools
import inspect
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

import fiolab.cli
import fiolab.dispersive
import fiolab.normest
import fiolab.symbols
from fiolab.cli import (
    ExperimentConfig,
    main,
    run_experiment,
    validate_config,
)
from fiolab.normest import NormEstimate
from fiolab.symbols import perturbed_symbol, quadratic_form_symbol, sphere_points


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def read_strict_json(path):
    """Parse a report, failing on the non-standard constants NaN and Infinity."""
    def reject(name):
        raise ValueError(f"{path.name} holds the non-standard constant {name}")

    return json.loads(path.read_text(), parse_constant=reject)


EGOROV_CFG = {
    "kind": "egorov",
    "symbol": {"name": "euclidean"},
    "grid": {"dim": 1, "half_width": 10.0, "points": 64},
    "data": {"sigma": 1.0},
    "seed": 0,
}

SMOOTHING_CFG = {
    "kind": "smoothing",
    "symbol": {"name": "euclidean"},
    "grid": {"dim": 3, "half_width": 6.0, "points": 8},
    "window": {"horizon": 0.5, "steps_per_unit": 8},
    "weights": {"delta": 1.0, "kind": "inhomogeneous"},
}

SYMBOL_CHECK_CFG = {
    "kind": "symbol-check",
    "amplitude": {"name": "reciprocal_quadratic"},
    "symbol_class": {"kind": "S00", "max_order": 2},
}

NORM_CFG = {
    "kind": "norm",
    "operator": {"kind": "identity"},
    "grid": {"dim": 1, "half_width": 5.0, "points": 16},
}
COTLAR_CFG = {"kind": "cotlar", "family": {"kind": "disjoint_bumps", "size": 3}}


class TestValidateConfig:
    def test_odd_points_rejected(self):
        cfg = ExperimentConfig.from_dict(
            {**EGOROV_CFG, "grid": {"dim": 1, "half_width": 10.0, "points": 63}}
        )
        violations = validate_config(cfg)
        assert any(v.field == "grid.points" and v.severity == "error" for v in violations)

    def test_smoothing_low_dimension_warns_not_errors(self):
        cfg = ExperimentConfig.from_dict(
            {
                "kind": "smoothing",
                "symbol": {"name": "euclidean"},
                "grid": {"dim": 2, "half_width": 6.0, "points": 16},
                "window": {"horizon": 0.5, "steps_per_unit": 8},
                "weights": {"delta": 1.0, "kind": "inhomogeneous"},
            }
        )
        violations = validate_config(cfg)
        assert all(v.severity == "warning" for v in violations)
        assert any("hypotheses" in v.constraint for v in violations)

    def test_missing_window_is_error(self):
        cfg = ExperimentConfig.from_dict(
            {
                "kind": "smoothing",
                "symbol": {"name": "euclidean"},
                "grid": {"dim": 3, "half_width": 6.0, "points": 8},
            }
        )
        violations = validate_config(cfg)
        assert any(v.field == "window" and v.severity == "error" for v in violations)

    def test_unknown_kind(self):
        cfg = ExperimentConfig.from_dict({"kind": "frobnicate"})
        assert validate_config(cfg)[0].field == "kind"

    def test_valid_config_is_clean(self):
        assert validate_config(ExperimentConfig.from_dict(EGOROV_CFG)) == []
        assert validate_config(ExperimentConfig.from_dict(SMOOTHING_CFG)) == []
        assert validate_config(ExperimentConfig.from_dict(SYMBOL_CHECK_CFG)) == []

    @pytest.mark.parametrize(
        "path",
        [
            "grid.dim",
            "grid.points",
            "grid.half_width",
            "window.horizon",
            "window.steps_per_unit",
            "weights.delta",
            "symbol_class.max_order",
        ],
    )
    def test_bool_rejected_for_numeric_fields(self, path):
        # isinstance(True, int) holds, so a bare isinstance check lets it through
        section, key = path.split(".")
        base = SYMBOL_CHECK_CFG if section == "symbol_class" else SMOOTHING_CFG
        cfg = ExperimentConfig.from_dict({**base, section: {**base[section], key: True}})
        assert any(v.field == path and v.severity == "error" for v in validate_config(cfg))

    def test_unknown_derivative_kind_is_config_error(self, tmp_path):
        path = write_config(
            tmp_path, {**SMOOTHING_CFG, "weights": {"delta": 1.0, "kind": "inhomogenous"}}
        )
        assert main(["validate", "--config", str(path)]) == 1
        assert main(["smoothing", "--config", str(path)]) == 1

    @pytest.mark.parametrize("kind", ["smoothing", "norm"])
    def test_non_mapping_weights_rejected(self, tmp_path, kind):
        base = SMOOTHING_CFG if kind == "smoothing" else NORM_CFG
        path = write_config(tmp_path, {**base, "weights": [1.0, 0.0]})
        assert main(["validate", "--config", str(path)]) == 1
        assert main([kind, "--config", str(path)]) == 1

    @pytest.mark.parametrize("dim, expected", [(2, 1), (4, 0)])
    def test_hypothesis_warning_once_below_three_dimensions(self, dim, expected):
        cfg = {
            **SMOOTHING_CFG,
            "grid": {"dim": dim, "half_width": 6.0, "points": 4},
            "window": {"horizon": 0.25, "steps_per_unit": 8},
            "max_iters": 3,
        }
        report = run_experiment(ExperimentConfig.from_dict(cfg))
        assert sum("hypotheses" in w for w in report.warnings) == expected


NAN, INF = float("nan"), float("inf")
PERTURBED_NO_BASE = {"name": "perturbed", "bump_amplitude": 0.1, "bump_direction": [1.0]}
EGOROV_2D = {
    **EGOROV_CFG,
    "symbol": {"name": "quadratic_form", "diag": [1.0, 4.0]},
    "grid": {"dim": 2, "half_width": 6.0, "points": 16},
}
SHEAR = [[2.0, 0.5], [0.5, 1.0]]
EGOROV_PERTURBED = {
    **EGOROV_2D,
    "symbol": {"name": "perturbed", "base": {"name": "quadratic_form", "matrix": SHEAR},
               "bump_amplitude": 0.1, "bump_direction": [1, 0]},
}


def _with(config, section, **fields):
    return {**config, section: {**config[section], **fields}}


# positive on the unit circle, but |grad p| = 1e-10 along (1, 0): a degenerate Gauss map
DEGENERATE_SYMBOL = {"name": "perturbed", "base": {"name": "euclidean"},
                     "bump_amplitude": -0.9999999999, "bump_direction": [1.0, 0.0]}
NORM_DEGENERATE = {**_with(NORM_CFG, "operator", kind="canonical"), "symbol": DEGENERATE_SYMBOL,
                   "grid": {"dim": 2, "half_width": 5.0, "points": 16}}


# configs that must be rejected before any computation, with the field named
REJECTED_CONFIGS = {
    "egorov-carrier-length": (_with(EGOROV_CFG, "data", carrier=[1.0, 2.0]), "data.carrier"),
    "egorov-sigma-zero": (_with(EGOROV_CFG, "data", sigma=0), "data.sigma"),
    # sigma^2 underflows to 0, so the packet centre would be 0/0
    "egorov-underflowing-sigma": (_with(EGOROV_CFG, "data", sigma=1e-200), "data.sigma"),
    # sigma^2 is subnormal, so |x|^2 / (2 sigma^2) overflows off the centre
    "egorov-overflowing-sigma": (_with(EGOROV_CFG, "data", sigma=1e-160), "data.sigma"),
    # sigma^2 overflows the float range
    "egorov-overflowing-sigma-square": (_with(EGOROV_CFG, "data", sigma=1e300), "data.sigma"),
    "egorov-no-points": (_with(EGOROV_CFG, "grid", points=[]), "grid.points"),
    "egorov-perturbed-no-base": ({**EGOROV_CFG, "symbol": PERTURBED_NO_BASE}, "symbol.base"),
    "smoothing-perturbed-no-base": (
        {**SMOOTHING_CFG, "symbol": {**PERTURBED_NO_BASE, "bump_direction": [1.0, 0.0, 0.0]}},
        "symbol.base",
    ),
    "smoothing-no-points": (_with(SMOOTHING_CFG, "grid", points=[]), "grid.points"),
    "smoothing-two-sizes": (_with(SMOOTHING_CFG, "grid", points=[8, 16]), "grid.points"),
    "smoothing-no-horizon": (_with(SMOOTHING_CFG, "window", horizon=[]), "window.horizon"),
    "smoothing-string-tol": ({**SMOOTHING_CFG, "tol": "x"}, "tol"),
    "smoothing-diag-length": (
        {**SMOOTHING_CFG, "symbol": {"name": "quadratic_form", "diag": [1.0, 4.0]}},
        "symbol.diag",
    ),
    "smoothing-unknown-symbol": ({**SMOOTHING_CFG, "symbol": {"name": "ellipse"}}, "symbol.name"),
    "norm-unknown-operator": (_with(NORM_CFG, "operator", kind="fourier"), "operator.kind"),
    "norm-canonical-unknown-symbol": (
        {**_with(NORM_CFG, "operator", kind="canonical"), "symbol": {"name": "ellipse"}},
        "symbol.name",
    ),
    "norm-zero-tol": ({**NORM_CFG, "tol": 0}, "tol"),
    "norm-degenerate-gauss-map": (NORM_DEGENERATE, "symbol"),
    "egorov-degenerate-gauss-map": ({**EGOROV_2D, "symbol": DEGENERATE_SYMBOL}, "symbol"),
    "symbol-check-unknown-amplitude": (
        _with(SYMBOL_CHECK_CFG, "amplitude", name="gaussian"),
        "amplitude.name",
    ),
    "symbol-check-sg-without-weight-orders": (
        _with(SYMBOL_CHECK_CFG, "symbol_class", kind="SG"),
        "symbol_class",
    ),
    # the 3-D mesh of 1e5 points per axis cannot be allocated
    "egorov-unallocatable-grid": (_with(EGOROV_CFG, "grid", dim=3, points=[100000]),
                                  "grid.points"),
    "smoothing-unallocatable-grid": (_with(SMOOTHING_CFG, "grid", points=[100000]),
                                     "grid.points"),
    "norm-unallocatable-grid": (_with(NORM_CFG, "grid", dim=3, points=[100000]), "grid.points"),
    "cotlar-empty-family": (_with(COTLAR_CFG, "family", size=0), "family.size"),
    "cotlar-bumps-above-points": (_with(COTLAR_CFG, "family", size=20), "family.size"),
    # the symbol section is read by the cli, with no coercion of booleans or strings
    "egorov-bool-diag": (_with(EGOROV_2D, "symbol", diag=[True, 4.0]), "symbol.diag"),
    "egorov-string-diag": (_with(EGOROV_2D, "symbol", diag=[1.0, "4"]), "symbol.diag"),
    "egorov-bool-bump-amplitude": (_with(EGOROV_PERTURBED, "symbol", bump_amplitude=True),
                                   "symbol.bump_amplitude"),
    "egorov-string-bump-amplitude": (_with(EGOROV_PERTURBED, "symbol", bump_amplitude="0.1"),
                                     "symbol.bump_amplitude"),
    "egorov-diag-and-matrix": (_with(EGOROV_2D, "symbol", matrix=[[1.0, 0.0], [0.0, 4.0]]),
                               "symbol"),
    "egorov-unknown-base": (_with(EGOROV_PERTURBED, "symbol", base={"name": "ellipse"}),
                            "symbol.base.name"),
    "egorov-symbol-not-a-mapping": ({**EGOROV_CFG, "symbol": ["euclidean"]}, "symbol"),
    "egorov-quadratic-form-without-matrix": (
        {**EGOROV_CFG, "symbol": {"name": "quadratic_form"}}, "symbol"
    ),
    "egorov-perturbed-without-bump": (
        {**EGOROV_CFG, "symbol": {"name": "perturbed", "base": {"name": "euclidean"}}},
        "symbol.bump_amplitude",
    ),
    "egorov-zero-bump-direction": (
        {**EGOROV_CFG, "symbol": {**PERTURBED_NO_BASE, "base": {"name": "euclidean"},
                                  "bump_direction": [0.0]}},
        "symbol",
    ),
    "symbol-check-coarse-x": (
        _with(SYMBOL_CHECK_CFG, "symbol_class", x_points=5), "symbol_class.x_points"
    ),
    "symbol-check-coarse-xi": (
        _with(SYMBOL_CHECK_CFG, "symbol_class", xi_points=6), "symbol_class.xi_points"
    ),
    # the default 201 x 33 points per axis give a 3-D sampling table of 2.12 TiB
    "symbol-check-unallocatable-table": (
        {**SYMBOL_CHECK_CFG, "amplitude": {"name": "constant"},
         "symbol_class": {"kind": "S00", "max_order": 1, "dim": 3}},
        "symbol_class",
    ),
    "json-array": ([EGOROV_CFG], "config"),
    "string-seed": ({**EGOROV_CFG, "seed": "abc"}, "seed"),
    "negative-seed": ({**EGOROV_CFG, "seed": -1}, "seed"),
    # JSON's NaN / Infinity literals, which write_config emits as such
    "egorov-infinite-half-width": (_with(EGOROV_CFG, "grid", half_width=INF), "grid.half_width"),
    "egorov-infinite-sigma": (_with(EGOROV_CFG, "data", sigma=INF), "data.sigma"),
    "egorov-nan-carrier": (_with(EGOROV_CFG, "data", carrier=[NAN]), "data.carrier"),
    "egorov-infinite-diag": (
        {**EGOROV_CFG, "symbol": {"name": "quadratic_form", "diag": [INF]}}, "symbol.diag"
    ),
    "egorov-infinite-matrix": (
        {**EGOROV_CFG, "symbol": {"name": "quadratic_form", "matrix": [[INF]]}}, "symbol.matrix"
    ),
    "egorov-infinite-bump-amplitude": (
        {**EGOROV_CFG, "symbol": {**PERTURBED_NO_BASE, "base": {"name": "euclidean"},
                                  "bump_amplitude": INF}},
        "symbol.bump_amplitude",
    ),
    "smoothing-infinite-delta": (_with(SMOOTHING_CFG, "weights", delta=INF), "weights.delta"),
    "smoothing-infinite-horizon": (_with(SMOOTHING_CFG, "window", horizon=INF), "window.horizon"),
    "smoothing-overflowing-horizon": (
        _with(SMOOTHING_CFG, "window", horizon=1e308), "window.horizon"
    ),
    "norm-nan-m-in": ({**NORM_CFG, "weights": {"m_in": NAN}}, "weights.m_in"),
    # finite exponents whose weight <x>^m_out or <x>^-m_in overflows at the box corner
    "norm-overflowing-m-out": (
        {**_with(NORM_CFG, "grid", half_width=10.0), "weights": {"m_out": 800}}, "weights.m_out"
    ),
    "norm-overflowing-m-in": (
        {**_with(NORM_CFG, "grid", half_width=10.0), "weights": {"m_in": -800}}, "weights.m_in"
    ),
    "norm-infinite-tol": ({**NORM_CFG, "tol": INF}, "tol"),
    "cotlar-infinite-half-width": (
        _with(COTLAR_CFG, "family", half_width=INF), "family.half_width"
    ),
    # finite half widths whose spacing 2L / N or cell volume (2L / N)^n overflows
    "egorov-overflowing-half-width": (
        _with(EGOROV_CFG, "grid", half_width=1e308), "grid.half_width"
    ),
    "smoothing-overflowing-cell-volume": (
        _with(SMOOTHING_CFG, "grid", half_width=1e200), "grid.half_width"
    ),
    "cotlar-overflowing-half-width": (
        _with(COTLAR_CFG, "family", half_width=1e308), "family.half_width"
    ),
    "symbol-check-overflowing-x-half-width": (
        _with(SYMBOL_CHECK_CFG, "symbol_class", x_half_width=1e308), "symbol_class.x_half_width"
    ),
    # non-finite numbers in fields the kind never reads still reach the report
    "egorov-nan-unread-tol": ({**EGOROV_CFG, "tol": NAN}, "tol"),
    "norm-infinite-unread-entry": ({**NORM_CFG, "notes": {"scale": [1.0, -INF]}}, "notes.scale[1]"),
}


# sweeps whose one entry fails: (config, the cli name that raises, the input
# columns the failed row keeps, the warning)
FAILED_ROWS = {
    "egorov": (EGOROV_CFG, "egorov_residual", {"N": 64, "L": 10.0}, "egorov N=64: forced failure"),
    "smoothing": (
        SMOOTHING_CFG,
        "smoothing_constant",
        {"T": 0.5, "N_t": 5, "delta": 1.0, "kind": "inhomogeneous"},
        "smoothing T=0.5: forced failure",
    ),
    "norm": (
        NORM_CFG,
        "operator_norm",
        {"label": "identity", "m_in": 0.0, "m_out": 0.0, "N": 16, "L": 5.0},
        "norm N=16: forced failure",
    ),
    # the operator is never built, so the row has no label
    "norm-no-operator": (
        {**_with(NORM_CFG, "operator", kind="canonical"), "symbol": {"name": "euclidean"}},
        "canonical_transform_operator",
        {"m_in": 0.0, "m_out": 0.0, "N": 16, "L": 5.0},
        "norm N=16: forced failure",
    ),
}


@pytest.mark.parametrize("case", sorted(REJECTED_CONFIGS))
def test_config_errors_caught_before_computation(tmp_path, capsys, case):
    data, field = REJECTED_CONFIGS[case]
    path = write_config(tmp_path, data)
    kind = data["kind"] if isinstance(data, dict) else "egorov"
    assert main(["validate", "--config", str(path)]) == 1
    out, err = capsys.readouterr()
    assert f"[error] {field}:" in out
    assert "Traceback" not in err
    assert main([kind, "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    out, err = capsys.readouterr()
    assert f"[error] {field}:" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("cfg", [
    NORM_DEGENERATE,
    _with(NORM_DEGENERATE, "operator", kind="canonical_inverse"),
    {**NORM_DEGENERATE, "weights": {"m_in": 0.5}},
    {**EGOROV_2D, "symbol": DEGENERATE_SYMBOL},
], ids=["norm", "norm-inverse", "norm-weighted", "egorov"])
def test_degenerate_gauss_map_names_the_symbol_section(cfg):
    (violation,) = validate_config(ExperimentConfig.from_dict(cfg))
    assert (violation.field, violation.actual) == ("symbol", DEGENERATE_SYMBOL)
    assert "gradient of symbol 'perturbed(euclidean)' degenerates" in violation.constraint


@pytest.mark.parametrize("cfg, jacobian_checks", [
    ({**_with(NORM_CFG, "operator", kind="canonical"), "symbol": {"name": "euclidean"},
      "grid": {"dim": 2, "half_width": 5.0, "points": [8, 12]}}, 1),
    ({**EGOROV_2D, "grid": {**EGOROV_2D["grid"], "points": [8, 12]}}, 0),
], ids=["norm", "egorov"])
def test_gauss_map_is_built_once_per_config(monkeypatch, cfg, jacobian_checks):
    calls = []

    def counted(name):
        real = getattr(fiolab.cli, name)
        return lambda *args: calls.append(name) or real(*args)

    for name in ("gauss_phase", "check_jacobian_bound"):
        monkeypatch.setattr(f"fiolab.cli.{name}", counted(name))
    assert not run_experiment(ExperimentConfig.from_dict(cfg)).failed
    assert calls == ["gauss_phase"] + ["check_jacobian_bound"] * jacobian_checks


def test_zero_jacobian_determinant_names_the_symbol(tmp_path, capsys, monkeypatch):
    # (min |det D psi|)^{-1/2} of an exact 0 raises ZeroDivisionError
    report = fiolab.symbols.JacobianReport(0.0, (1.0, 0.0), 360, 4.0)
    monkeypatch.setattr("fiolab.cli.check_jacobian_bound", lambda psi, directions: report)
    cfg = {**NORM_DEGENERATE, "symbol": {"name": "euclidean"}}
    path = write_config(tmp_path, cfg)
    assert main(["validate", "--config", str(path)]) == 1
    out, err = capsys.readouterr()
    assert "[error] symbol: 0.0 cannot be raised to a negative power" in out
    assert "Traceback" not in err


def test_unallocatable_grid_names_the_points_value():
    cfg = _with(NORM_CFG, "grid", dim=3, points=[100000])
    (violation,) = validate_config(ExperimentConfig.from_dict(cfg))
    assert (violation.field, violation.actual) == ("grid.points", [100000])
    assert "Unable to allocate" in violation.constraint


# a symbol section and the symbol the library builds for it
SYMBOL_SECTIONS = {
    "diag": ({"name": "quadratic_form", "diag": [1, 4]}, quadratic_form_symbol(np.diag([1, 4]))),
    "diagonal-matrix": ({"name": "quadratic_form", "matrix": [[1, 0], [0, 4]]},
                        quadratic_form_symbol(np.diag([1, 4]))),
    "matrix": ({"name": "quadratic_form", "matrix": SHEAR}, quadratic_form_symbol(SHEAR)),
    "perturbed": (EGOROV_PERTURBED["symbol"],
                  perturbed_symbol(quadratic_form_symbol(SHEAR), 0.1, [1.0, 0.0])),
}


@pytest.mark.parametrize("case", sorted(SYMBOL_SECTIONS))
def test_symbol_section_builds_the_library_symbol(monkeypatch, case):
    section, expected = SYMBOL_SECTIONS[case]
    built = []
    monkeypatch.setattr("fiolab.cli.egorov_residual", lambda p, u: built.append(p) or 0.0)
    assert not run_experiment(ExperimentConfig.from_dict({**EGOROV_2D, "symbol": section})).failed
    pts = sphere_points(2, 16) * 2.5
    for attr in ("evaluate", "gradient", "hessian"):
        np.testing.assert_array_equal(getattr(built[0], attr)(pts), getattr(expected, attr)(pts))
    if case == "diag":
        assert built[0].evaluate(np.array([0.0, 1.0])) == 2.0
    if case == "perturbed":
        assert built[0].evaluate(np.array([1.0, 0.0])) == pytest.approx(math.sqrt(2.0) + 0.1)


def test_diag_and_equal_matrix_give_identical_reports(tmp_path):
    outs = []
    for fields in ({"diag": [1, 4]}, {"matrix": [[1, 0], [0, 4]]}):
        cfg = {**EGOROV_2D, "symbol": {"name": "quadratic_form", **fields}}
        out = tmp_path / str(len(outs))
        assert main(["egorov", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 0
        report = read_strict_json(out / "report.json")
        outs.append((json.dumps({k: v for k, v in report.items() if k != "config"}),
                     (out / "sweep.csv").read_bytes()))
    assert outs[0] == outs[1]


def test_perturbed_symbol_over_a_full_matrix_runs():
    report = run_experiment(ExperimentConfig.from_dict(EGOROV_PERTURBED))
    assert not report.failed
    assert report.sweep_rows[0][-1] is True


@pytest.mark.parametrize("kind", ["norm", "smoothing"])
def test_cli_solver_defaults_are_the_library_defaults(monkeypatch, kind):
    # a config without tol / max_iters passes the solver its own defaults
    name = "operator_norm" if kind == "norm" else "smoothing_constant"
    module = fiolab.normest if kind == "norm" else fiolab.dispersive
    params = inspect.signature(getattr(module, name)).parameters
    calls = []

    def capture(*args, tol, max_iters, **kwargs):
        calls.append((tol, max_iters))
        return NormEstimate(1.0, 1, True, 0.0)

    monkeypatch.setattr(f"fiolab.cli.{name}", capture)
    cfg = NORM_CFG if kind == "norm" else SMOOTHING_CFG
    assert not run_experiment(ExperimentConfig.from_dict(cfg)).failed
    assert calls == [(params["tol"].default, params["max_iters"].default)]


def test_non_finite_result_is_reported_as_null(tmp_path, monkeypatch):
    monkeypatch.setattr("fiolab.cli.egorov_residual", lambda p, u: float("nan"))
    out = tmp_path / "out"
    assert main(["egorov", "--config", str(write_config(tmp_path, EGOROV_CFG)),
                 "--out", str(out)]) == 2
    report = read_strict_json(out / "report.json")
    assert report["failed"] is True
    assert report["sweep"]["rows"] == [[64, 10.0, None, True]]
    assert report["results"]["residuals"] == {"64": None}
    assert report["warnings"] == ["egorov: non-finite numbers reported as null"]


class TestRunExperiment:
    def test_egorov_identity_symbol(self, tmp_path):
        report = run_experiment(ExperimentConfig.from_dict(EGOROV_CFG), out_dir=tmp_path)
        assert not report.failed
        assert report.results["residuals"]["64"] <= 1e-12
        assert (tmp_path / "report.json").exists()
        assert (tmp_path / "sweep.csv").exists()

    def test_norm_identity_operator(self):
        cfg = ExperimentConfig.from_dict(
            {
                "kind": "norm",
                "operator": {"kind": "identity"},
                "grid": {"dim": 1, "half_width": 5.0, "points": 16},
                "weights": {"m_in": 0.0, "m_out": 0.0},
            }
        )
        report = run_experiment(cfg)
        assert report.results["estimates"][0] == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("kind, continuum", [("canonical", 1.0), ("canonical_inverse", 2.0)])
    def test_unweighted_canonical_rows_carry_continuum_norm(self, kind, continuum):
        # |det D psi| of diag(1, 4) spans [1, 4], with both ends on the axes,
        # which a sample count divisible by 4 holds
        assert fiolab.cli._JACOBIAN_SAMPLES % 4 == 0
        cfg = {**_with(NORM_CFG, "operator", kind=kind),
               "symbol": {"name": "quadratic_form", "diag": [1.0, 4.0]},
               "grid": {"dim": 2, "half_width": 5.0, "points": [8, 12]}}
        report = run_experiment(ExperimentConfig.from_dict(cfg))
        assert not report.failed
        header = report.sweep_header
        assert header[header.index("estimate") + 1] == "continuum_norm"
        for row in report.sweep_rows:
            assert dict(zip(header, row))["continuum_norm"] == continuum

    @pytest.mark.parametrize("operator, weights", [
        ("canonical", {"m_in": 0.5, "m_out": 0.0}),
        ("canonical_inverse", {"m_in": 0.0, "m_out": -0.5}),
        ("identity", {"m_in": 0.0, "m_out": 0.0}),
    ])
    def test_other_norm_rows_have_null_continuum_norm(self, operator, weights):
        cfg = {**_with(NORM_CFG, "operator", kind=operator), "symbol": {"name": "euclidean"},
               "weights": weights}
        report = run_experiment(ExperimentConfig.from_dict(cfg))
        (row,) = report.sweep_rows
        assert not report.failed
        assert dict(zip(report.sweep_header, row))["continuum_norm"] is None

    @pytest.mark.parametrize("kind", ["norm", "smoothing"])
    def test_rows_carry_rel_residual(self, kind):
        # a converged row's residual is within the config's tol
        if kind == "norm":
            cfg = {**_with(NORM_CFG, "operator", kind="bracket_multiplier"), "tol": 1e-7,
                   "weights": {"m_in": 0.5, "m_out": -0.5}}
        else:
            cfg = {**SMOOTHING_CFG, "tol": 1e-5}
        report = run_experiment(ExperimentConfig.from_dict(cfg))
        assert report.sweep_header[-2:] == ["rel_residual", "converged"]
        for row in report.sweep_rows:
            assert row[-1] and 0 <= row[-2] <= cfg["tol"]

    def test_invalid_config_raises(self):
        cfg = ExperimentConfig.from_dict(
            {**EGOROV_CFG, "grid": {"dim": 1, "half_width": -1.0, "points": 64}}
        )
        with pytest.raises(ValueError, match="half_width"):
            run_experiment(cfg)

    def test_sweep_rows_cover_failures(self, monkeypatch):
        # every sweep entry fails numerically; bad configs never reach the
        # sweep, so the failure is forced in the residual itself
        def failing_residual(p, u, *args, **kwargs):
            raise FloatingPointError(f"forced failure at N={u.grid.points_per_axis}")

        monkeypatch.setattr("fiolab.cli.egorov_residual", failing_residual)
        cfg = ExperimentConfig.from_dict(
            {**EGOROV_CFG, "grid": {"dim": 1, "half_width": 10.0, "points": [32, 64]}}
        )
        report = run_experiment(cfg)
        assert report.failed
        assert len(report.sweep_rows) == 2  # no silent drops
        assert all(row[-1] is False for row in report.sweep_rows)
        assert all(row[2] is None for row in report.sweep_rows)  # null residual, not NaN
        assert report.warnings

    @pytest.mark.parametrize("case", sorted(FAILED_ROWS))
    def test_failed_row_keeps_inputs(self, monkeypatch, case):
        # the failure is forced in the cli name each row calls; a failed row
        # keeps the columns filled before the failure and nulls the rest
        def fail(*args, **kwargs):
            raise FloatingPointError("forced failure")

        cfg, name, inputs, warning = FAILED_ROWS[case]
        monkeypatch.setattr(f"fiolab.cli.{name}", fail)
        report = run_experiment(ExperimentConfig.from_dict(cfg))
        assert report.failed
        (row,) = report.sweep_rows
        header = report.sweep_header
        assert len(row) == len(header)
        by_name = dict(zip(header, row))
        assert {name: by_name[name] for name in inputs} == inputs
        assert all(by_name[name] is None for name in header[:-1] if name not in inputs)
        assert by_name[header[-1]] is False
        assert report.warnings == [warning]

    def test_smoothing_worker_error_is_a_failed_row(self, monkeypatch):
        # raised on the smoothing apply's second thread
        real_worker_sum = fiolab.dispersive._worker_sum

        def worker_sum(factors, index, spec, w2_space, worker):
            if worker == 1:
                raise FloatingPointError("forced failure")
            return real_worker_sum(factors, index, spec, w2_space, worker)

        monkeypatch.setattr(fiolab.dispersive, "_worker_sum", worker_sum)
        report = run_experiment(ExperimentConfig.from_dict(SMOOTHING_CFG))
        assert report.failed
        assert report.warnings == ["smoothing T=0.5: forced failure"]

    def test_symbol_check_experiment(self):
        cfg = ExperimentConfig.from_dict(
            {
                "kind": "symbol-check",
                "amplitude": {"name": "reciprocal_quadratic"},
                "symbol_class": {
                    "kind": "S00",
                    "max_order": 2,
                    "bound_tolerance": 5.0,
                    "x_half_width": 10.0,
                    "xi_half_width": 10.0,
                    "x_points": 101,
                    "xi_points": 101,
                },
            }
        )
        report = run_experiment(cfg)
        assert report.results["passes"] is True and not report.failed

    def test_cotlar_experiment(self):
        cfg = ExperimentConfig.from_dict(
            {"kind": "cotlar", "family": {"kind": "disjoint_bumps", "size": 3}}
        )
        report = run_experiment(cfg)
        assert report.results["sound"]

    def test_cotlar_random_matrices(self):
        cfg = _with(COTLAR_CFG, "family", kind="random_matrices", size=2, points=4)
        report = run_experiment(ExperimentConfig.from_dict(cfg))
        assert not report.failed and report.results["sound"] is True
        gamma = dict(report.sweep_rows)
        assert sorted(gamma) == ["(-1,)", "(0,)", "(1,)"]
        assert gamma["(-1,)"] == gamma["(1,)"] > 0

    def test_smoothing_experiment_small(self):
        cfg = ExperimentConfig.from_dict(
            {
                "kind": "smoothing",
                "symbol": {"name": "euclidean"},
                "grid": {"dim": 1, "half_width": 6.0, "points": 16},
                "window": {"horizon": [0.5, 1.0], "steps_per_unit": 8},
                "weights": {"delta": 1.0, "kind": "inhomogeneous"},
                "max_iters": 200,
                "tol": 1e-6,
            }
        )
        report = run_experiment(cfg)
        assert len(report.results["constants"]) == 2
        assert report.results["constants"][1] >= report.results["constants"][0]
        assert any("hypotheses" in w for w in report.warnings)


class TestDeterminism:
    def test_byte_identical_reports(self, tmp_path):
        path = write_config(tmp_path, EGOROV_CFG)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["egorov", "--config", str(path), "--out", str(out1)]) == 0
        assert main(["egorov", "--config", str(path), "--out", str(out2)]) == 0
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
        assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()

    @pytest.mark.filterwarnings("ignore:overflow|invalid value:RuntimeWarning")
    @pytest.mark.parametrize("x_half_width, code", [(10.0, 0), (1e200, 2)],
                             ids=["whole-run", "whole-run-failure"])
    def test_run_without_rows_removes_stale_sweep(self, tmp_path, x_half_width, code):
        # symbol-check has no rows, whether it succeeds or fails as a whole run
        out = str(tmp_path / "out")
        assert main(["egorov", "--config", str(write_config(tmp_path, EGOROV_CFG)),
                     "--out", out]) == 0
        data = {**_with(SYMBOL_CHECK_CFG, "symbol_class", x_half_width=x_half_width),
                "amplitude": {"name": "oscillating_square"}}
        path = write_config(tmp_path, data)
        assert main(["symbol-check", "--config", str(path), "--out", out]) == code
        assert read_strict_json(tmp_path / "out" / "report.json")["kind"] == "symbol-check"
        assert not (tmp_path / "out" / "sweep.csv").exists()


ROOT = Path(__file__).resolve().parents[1]
# config path -> the command the README runs it with
README_RUNS = {path: kind for kind, path in re.findall(
    r"fiolab ([\w-]+) +--config (configs/[\w.-]+\.json)", (ROOT / "README.md").read_text())}
CHECKED_IN = {str(p.relative_to(ROOT)) for p in (ROOT / "configs").glob("*.json")}


@pytest.mark.parametrize("path", sorted(CHECKED_IN | set(README_RUNS)))
def test_checked_in_config_validates(path):
    # each checked-in config is run by the README under its own kind and validates
    data = json.loads((ROOT / path).read_text())
    assert data["kind"] in fiolab.cli.EXPERIMENT_KINDS
    assert README_RUNS.get(path) == data["kind"]
    violations = validate_config(ExperimentConfig.from_dict(data))
    assert [x.describe() for x in violations if x.severity == "error"] == []


class TestMainExitCodes:
    def test_validation_failure_is_exit_one(self, tmp_path):
        path = write_config(
            tmp_path, {**EGOROV_CFG, "grid": {"dim": 1, "half_width": 10.0, "points": 63}}
        )
        assert main(["egorov", "--config", str(path)]) == 1
        assert main(["validate", "--config", str(path)]) == 1

    def test_validate_accepts_clean_config(self, tmp_path):
        path = write_config(tmp_path, EGOROV_CFG)
        assert main(["validate", "--config", str(path)]) == 0

    def test_numerical_failure_is_exit_two(self, tmp_path, monkeypatch):
        real_residual = fiolab.cli.egorov_residual

        def residual(p, u, *args, **kwargs):
            if u.grid.points_per_axis == 64:
                raise FloatingPointError("forced failure")
            return real_residual(p, u, *args, **kwargs)

        monkeypatch.setattr("fiolab.cli.egorov_residual", residual)
        path = write_config(
            tmp_path, {**EGOROV_CFG, "grid": {"dim": 1, "half_width": 10.0, "points": [32, 64]}}
        )
        assert main(["egorov", "--config", str(path)]) == 2

    def test_failed_rows_give_strict_json(self, tmp_path, monkeypatch):
        def fake_constant(p, grid, window, *args, **kwargs):
            if window.horizon > 1.0:
                raise FloatingPointError("forced failure")
            return NormEstimate(0.0, 1, True)

        monkeypatch.setattr("fiolab.cli.smoothing_constant", fake_constant)
        window = {"horizon": [0.5, 1.0, 2.0], "steps_per_unit": 8}
        path = write_config(tmp_path, {**SMOOTHING_CFG, "window": window})
        out = tmp_path / "out"
        assert main(["smoothing", "--config", str(path), "--out", str(out)]) == 2
        data = read_strict_json(out / "report.json")
        assert data["failed"]
        assert data["sweep"]["rows"][2][4] is None  # the failed horizon's constant
        assert data["results"]["max_pairwise_deviation"] is None  # zero lowest constant

    def test_config_kind_must_match_command(self, tmp_path, capsys):
        # a valid norm config that also holds every field egorov reads
        path = write_config(tmp_path, {**NORM_CFG, "symbol": {"name": "euclidean"}})
        assert main(["validate", "--config", str(path)]) == 0
        out = tmp_path / "out"
        assert main(["egorov", "--config", str(path), "--out", str(out)]) == 1
        assert "[error] kind:" in capsys.readouterr().err
        assert not out.exists()
        # a config without a kind runs under its subcommand
        path = write_config(tmp_path, {k: v for k, v in NORM_CFG.items() if k != "kind"})
        assert main(["norm", "--config", str(path), "--out", str(out)]) == 0
        assert json.loads((out / "report.json").read_text())["kind"] == "norm"

    def test_negative_seed_flag_names_seed(self, tmp_path, capsys):
        path = write_config(tmp_path, NORM_CFG)
        assert main(["norm", "--config", str(path), "--seed", "-1"]) == 1
        assert "[error] seed:" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:overflow|invalid value:RuntimeWarning")
    @pytest.mark.parametrize(
        "data, missing, warning",
        [
            # x^2 overflows at every x sample, so sin(x^2) is NaN there
            ({**_with(SYMBOL_CHECK_CFG, "symbol_class", x_half_width=1e200),
              "amplitude": {"name": "oscillating_square"}}, "worst_constant",
             "amplitude is not finite at every sample point"),
            # <x>^2000 overflows and <xi>^-2000 underflows, so their product is NaN
            ({"kind": "symbol-check", "amplitude": {"name": "constant"},
              "symbol_class": {"kind": "SG", "max_order": 1, "weight_orders": [2000, -2000],
                               "dim": 1, "x_points": 21, "xi_points": 21}}, "passes",
             "weight or derivative ratio is not finite at orders (alpha, beta) = ((0,), (0,))"),
        ],
        ids=["symbol-check", "symbol-check-nan-weight"],
    )
    def test_whole_run_failure_is_exit_two(self, tmp_path, capsys, data, missing, warning):
        path = write_config(tmp_path, data)
        assert main(["validate", "--config", str(path)]) == 0
        out = tmp_path / "out"
        assert main([data["kind"], "--config", str(path), "--out", str(out)]) == 2
        assert "config invalid" not in capsys.readouterr().err
        report = read_strict_json(out / "report.json")
        assert report["failed"] and report["warnings"] == [f"{data['kind']}: {warning}"]
        assert report["results"][missing] is None

    def test_non_finite_entry_of_a_report_tuple_is_null(self, tmp_path, monkeypatch):
        nan_point = fiolab.symbols.SymbolClassReport(True, 0.5, ((0,), (1,)), ((NAN,), (0.0,)),
                                                     2, 0.1, 0.625)
        monkeypatch.setattr("fiolab.cli.check_symbol_class", lambda *args, **kwargs: nan_point)
        out = tmp_path / "out"
        path = write_config(tmp_path, SYMBOL_CHECK_CFG)
        assert main(["symbol-check", "--config", str(path), "--out", str(out)]) == 2
        report = read_strict_json(out / "report.json")
        assert report["results"]["worst_point"] == [[None], [0.0]]
        assert report["results"]["worst_orders"] == [[0], [1]]
        assert report["warnings"] == ["symbol-check: non-finite numbers reported as null"]

    def test_cotlar_non_convergence_is_exit_two(self, tmp_path, monkeypatch):
        # one Lanczos step leaves a random 8 x 8 family unconverged
        monkeypatch.setattr("fiolab.cli.cotlar_bound",
                            functools.partial(fiolab.normest.cotlar_bound, max_iters=1))
        cfg = _with(COTLAR_CFG, "family", kind="random_matrices", size=2, points=8)
        out = tmp_path / "out"
        assert main(["cotlar", "--config", str(write_config(tmp_path, cfg)),
                     "--out", str(out)]) == 2
        report = read_strict_json(out / "report.json")
        assert report["failed"] is True and report["warnings"] == []
        assert report["results"]["all_converged"] is False

    def test_cotlar_bound_failure_is_reported(self, tmp_path, monkeypatch):
        def failing_bound(family, **kwargs):
            raise FloatingPointError("forced failure")

        monkeypatch.setattr("fiolab.cli.cotlar_bound", failing_bound)
        out = tmp_path / "out"
        assert main(["cotlar", "--config", str(write_config(tmp_path, COTLAR_CFG)),
                     "--out", str(out)]) == 2
        report = read_strict_json(out / "report.json")
        assert report["failed"]
        assert report["warnings"] == ["cotlar: forced failure"]
        assert report["results"] == dict.fromkeys(["bound", "sum_norm", "sound", "all_converged"])

    @pytest.mark.parametrize(
        "contents", [None, b"\xff\xfe{}", b"[" * 100_000], ids=["absent", "not-utf8", "too-deep"]
    )
    def test_missing_config_file(self, tmp_path, capsys, contents):
        path = tmp_path / "config.json"
        if contents is not None:
            path.write_bytes(contents)
        assert main(["egorov", "--config", str(path)]) == 1
        _, err = capsys.readouterr()
        assert err.startswith("cannot read config:")

    def test_out_naming_a_file_fails_before_computation(self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr("fiolab.cli.egorov_residual", lambda *args: calls.append(args))
        path = write_config(tmp_path, EGOROV_CFG)
        out = tmp_path / "taken"
        out.write_text("not a directory\n")
        assert main(["egorov", "--config", str(path), "--out", str(out)]) == 1
        _, err = capsys.readouterr()
        assert f"--out {out}" in err
        assert "Traceback" not in err
        assert calls == []
        assert out.read_text() == "not a directory\n"

    def test_seed_override_lands_in_report(self, tmp_path):
        path = write_config(tmp_path, EGOROV_CFG)
        out = tmp_path / "seeded"
        assert main(["egorov", "--config", str(path), "--seed", "7", "--out", str(out)]) == 0
        data = json.loads((out / "report.json").read_text())
        assert data["seed"] == 7
