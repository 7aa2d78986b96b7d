import json

import pytest

from fiolab.cli import (
    ExperimentConfig,
    main,
    run_experiment,
    validate_config,
)
from fiolab.normest import NormEstimate


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


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

    def test_invalid_config_raises(self):
        cfg = ExperimentConfig.from_dict(
            {**EGOROV_CFG, "grid": {"dim": 1, "half_width": -1.0, "points": 64}}
        )
        with pytest.raises(ValueError, match="half_width"):
            run_experiment(cfg)

    def test_sweep_rows_cover_failures(self):
        # second sweep entry is numerically impossible (odd evaluation is
        # prevented by validation, so use a symbol failure instead): the
        # perturbed symbol with destructive amplitude fails inside the sweep
        cfg = ExperimentConfig.from_dict(
            {
                "kind": "egorov",
                "symbol": {
                    "name": "perturbed",
                    "base": {"name": "euclidean"},
                    "bump_amplitude": -5.0,
                    "bump_direction": [1.0],
                },
                "grid": {"dim": 1, "half_width": 10.0, "points": [32, 64]},
            }
        )
        report = run_experiment(cfg)
        assert report.failed
        assert len(report.sweep_rows) == 2  # no silent drops
        assert all(row[-1] is False for row in report.sweep_rows)
        assert all(row[2] is None for row in report.sweep_rows)  # null residual, not NaN
        assert report.warnings

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
        assert report.results["passes"] is True

    def test_cotlar_experiment(self):
        cfg = ExperimentConfig.from_dict(
            {"kind": "cotlar", "family": {"kind": "disjoint_bumps", "size": 3}}
        )
        report = run_experiment(cfg)
        assert report.results["sound"]

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

    def test_parallel_sweep_matches_serial(self, tmp_path):
        cfg = {**EGOROV_CFG, "grid": {"dim": 1, "half_width": 10.0, "points": [16, 32, 64]}}
        path = write_config(tmp_path, cfg)
        serial, parallel = tmp_path / "serial", tmp_path / "parallel"
        assert main(["egorov", "--config", str(path), "--out", str(serial)]) == 0
        assert main(
            ["egorov", "--config", str(path), "--threads", "3", "--out", str(parallel)]
        ) == 0
        assert (serial / "report.json").read_bytes() == (parallel / "report.json").read_bytes()
        assert (serial / "sweep.csv").read_bytes() == (parallel / "sweep.csv").read_bytes()


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

    def test_numerical_failure_is_exit_two(self, tmp_path):
        path = write_config(
            tmp_path,
            {
                "kind": "egorov",
                "symbol": {
                    "name": "perturbed",
                    "base": {"name": "euclidean"},
                    "bump_amplitude": -5.0,
                    "bump_direction": [1.0],
                },
                "grid": {"dim": 1, "half_width": 10.0, "points": 32},
            },
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

        def reject(name):
            raise ValueError(f"report.json holds the non-standard constant {name}")

        data = json.loads((out / "report.json").read_text(), parse_constant=reject)
        assert data["failed"]
        assert data["sweep"]["rows"][2][4] is None  # the failed horizon's constant
        assert data["results"]["max_pairwise_deviation"] is None  # zero lowest constant

    def test_missing_config_file(self):
        assert main(["egorov", "--config", "/nonexistent/config.json"]) == 1

    def test_seed_override_lands_in_report(self, tmp_path):
        path = write_config(tmp_path, EGOROV_CFG)
        out = tmp_path / "seeded"
        assert main(["egorov", "--config", str(path), "--seed", "7", "--out", str(out)]) == 0
        data = json.loads((out / "report.json").read_text())
        assert data["seed"] == 7
