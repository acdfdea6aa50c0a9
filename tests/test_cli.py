import csv
import hashlib
import json
import math
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import cavityclock
import cavityclock.cli as cli
import cavityclock.clock as clock
import cavityclock.modes as modes
from cavityclock import (BogoliubovMap, C, HorizonError, ScenarioConfig,
                         run_twin)
from cavityclock.cli import (CSV_COLUMNS, EXIT_NUMERICAL, EXIT_OK, EXIT_PARSE,
                             EXIT_VALIDATION, config_digest, load_config, main)
import map_oracle
from peak import peak_bytes


def base_config(**scenario_overrides):
    scenario = {
        "t_a_s": 1e-9,
        "t_i_s": 0.0,
        "L_m": 0.011,
        "a_mps2": 1.7e15,
        "repetitions": 3,
        "clock_mode": 1,
        "state": {"kind": "coherent", "mean_n": 1.0, "theta0_rad": 0.0},
    }
    scenario.update(scenario_overrides)
    return {
        "schema": 1,
        "units": "SI",
        "scenario": scenario,
        "numerics": {"n_max": 12, "residual_gate": 1e-4,
                     "quadrature_tol": 1e-12},
        "output": {"prefix": "test"},
    }


def write_config(tmp_path, document, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(document))
    return path


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestConfigLoading:
    def test_minimal_config_round_trip(self, tmp_path):
        loaded = load_config(write_config(tmp_path, base_config()))
        assert loaded.scenario.t_a == 1e-9
        assert loaded.scenario.n_max == 12
        assert loaded.prefix == "test"

    def test_digest_stable_under_key_reordering(self, tmp_path):
        doc = base_config()
        reordered = json.loads(json.dumps(doc, sort_keys=True))
        reordered["scenario"] = dict(reversed(list(doc["scenario"].items())))
        assert config_digest(doc) == config_digest(reordered)

    def test_digest_changes_with_content(self):
        assert config_digest(base_config()) != config_digest(
            base_config(repetitions=4))

    def test_theta_a_fixes_the_segment_duration(self, tmp_path):
        doc = base_config()
        del doc["scenario"]["t_a_s"]
        doc["scenario"]["theta_a_rad"] = math.pi
        loaded = load_config(write_config(tmp_path, doc))
        cfg = loaded.scenario
        # phase accrued during each acceleration segment: Omega_1 eta = pi
        u_max = 2 * math.atanh(cfg.h / 2)
        eta = abs(cfg.a) * cfg.t_a / 299792458.0
        assert (math.pi / u_max) * eta == pytest.approx(math.pi, rel=1e-12)
        # the same double as the formula on the document's own numbers
        sc = doc["scenario"]
        h = abs(sc["a_mps2"]) * sc["L_m"] / C**2
        assert cfg.t_a == (math.pi * (2.0 * math.atanh(h / 2.0)) * C
                           / (sc["clock_mode"] * math.pi * abs(sc["a_mps2"])))

    @pytest.mark.parametrize("theta_a", [-1.0, 0.0])
    def test_non_positive_theta_a_exit_code(self, tmp_path, capsys, theta_a):
        # the fault is the theta_a_rad the user wrote, not the t_a it gives
        doc = base_config(theta_a_rad=theta_a)
        del doc["scenario"]["t_a_s"]
        config = write_config(tmp_path, doc)
        assert main(["twin", "--config", str(config),
                     "--out", str(tmp_path)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "theta_a_rad must be > 0 and finite" in err
        assert "t_a " not in err

    @pytest.mark.parametrize("theta_a", [1e-320, 1e308])
    def test_theta_a_without_a_finite_duration_exit_code(self, tmp_path,
                                                         capsys, theta_a):
        # the t_a it gives underflows to 0 or overflows to inf: the fault is
        # the theta_a_rad the user wrote
        doc = base_config(theta_a_rad=theta_a)
        del doc["scenario"]["t_a_s"]
        config = write_config(tmp_path, doc)
        assert main(["twin", "--config", str(config),
                     "--out", str(tmp_path)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"theta_a_rad {theta_a!r}" in err
        assert "t_a " not in err

    def test_horizon_message_does_not_depend_on_the_duration_key(
            self, tmp_path, capsys):
        # L 200 m at a 1.7e15: h = 3.78
        errors = []
        for key, value in (("t_a_s", 1e-9), ("theta_a_rad", 1.0)):
            doc = base_config(L_m=200.0)
            del doc["scenario"]["t_a_s"]
            doc["scenario"][key] = value
            config = write_config(tmp_path, doc)
            assert main(["twin", "--config", str(config),
                         "--out", str(tmp_path)]) == EXIT_VALIDATION
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert "cavity intersects the Rindler horizon: h = 3.78301" in errors[0]

    def test_library_callers_see_the_library_error(self, tmp_path):
        # `load_config` relabels none of `ScenarioConfig`'s errors
        with pytest.raises(HorizonError, match="h = 3.78301"):
            load_config(write_config(tmp_path, base_config(L_m=200.0)))

    @pytest.mark.parametrize("section, key, value", [
        ("state", "mean_n", "lots"),
        ("state", "theta0_rad", "north"),
        ("numerics", "quadrature_tol", "fine"),
        ("numerics", "residual_gate", "tight"),
        ("numerics", "residual_gate", True),
    ])
    def test_malformed_optional_number_exit_code(self, tmp_path, section,
                                                 key, value):
        doc = base_config()
        sections = {"state": doc["scenario"]["state"],
                    "numerics": doc["numerics"]}
        sections[section][key] = value
        config = write_config(tmp_path, doc)
        assert main(["twin", "--config", str(config),
                     "--out", str(tmp_path)]) == EXIT_VALIDATION

    @pytest.mark.parametrize("prefix", ["absolute", "../x", "..", ".", None,
                                        "a\0b"])
    def test_prefix_outside_out_rejected(self, tmp_path, prefix):
        if prefix == "absolute":
            prefix = str(tmp_path / "elsewhere" / "x")
        doc = base_config()
        doc["output"]["prefix"] = prefix
        config = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["twin", "--config", str(config),
                     "--out", str(out)]) == EXIT_VALIDATION
        assert not list(tmp_path.rglob("*_results.csv"))

    @pytest.mark.parametrize("path, value", [
        ("scenario.t_i_s", math.nan),
        ("scenario.L_m", math.nan),
        ("scenario.a_mps2", math.nan),
        ("scenario.t_a_s", math.nan),
        ("scenario.theta_a_rad", math.nan),
        ("state.mean_n", math.nan),
        ("state.theta0_rad", math.inf),
        ("state.theta0_rad", -math.inf),
        ("numerics.quadrature_tol", math.nan),
        ("numerics.residual_gate", math.nan),
        ("sweep.grid", [0.011, math.nan]),
    ])
    def test_non_finite_number_exit_code(self, tmp_path, capsys, path, value):
        # json writes and parses NaN and Infinity; none may reach the run
        doc = base_config()
        doc["sweep"] = {"vary": "L", "grid": [0.011]}
        sections = {"scenario": doc["scenario"],
                    "state": doc["scenario"]["state"],
                    "numerics": doc["numerics"], "sweep": doc["sweep"]}
        section, key = path.split(".")
        if key == "theta_a_rad":
            del doc["scenario"]["t_a_s"]
        sections[section][key] = value
        config = write_config(tmp_path, doc)
        command = "sweep" if section == "sweep" else "twin"
        assert main([command, "--config", str(config),
                     "--out", str(tmp_path)]) == EXIT_VALIDATION
        assert "finite" in capsys.readouterr().err
        assert not list(tmp_path.rglob("*_results.csv"))

    @pytest.mark.parametrize("path", ["scenario.a_mps2", "state.mean_n",
                                      "numerics.quadrature_tol", "sweep.grid"])
    def test_integer_too_large_for_a_double_exit_code(self, tmp_path, path):
        # json parses any integer literal; float() overflows on this one
        huge = 10 ** 400
        doc = base_config()
        doc["sweep"] = {"vary": "L", "grid": [0.011]}
        sections = {"scenario": doc["scenario"],
                    "state": doc["scenario"]["state"],
                    "numerics": doc["numerics"], "sweep": doc["sweep"]}
        section, key = path.split(".")
        sections[section][key] = [0.011, huge] if key == "grid" else huge
        config = write_config(tmp_path, doc)
        command = "sweep" if section == "sweep" else "twin"
        assert main([command, "--config", str(config),
                     "--out", str(tmp_path)]) == EXIT_VALIDATION
        assert not list(tmp_path.rglob("*_results.csv"))

    @pytest.mark.parametrize("key, value", [
        ("quadrature_tol", 0.0),
        ("quadrature_tol", -1e-12),
        ("residual_gate", 0.0),
        ("residual_gate", -1e-4),
    ])
    def test_non_positive_tolerance_exit_code(self, tmp_path, capsys, key,
                                              value):
        doc = base_config()
        doc["numerics"][key] = value
        config = write_config(tmp_path, doc)
        assert main(["twin", "--config", str(config),
                     "--out", str(tmp_path)]) == EXIT_VALIDATION
        assert f"{key} must be > 0" in capsys.readouterr().err

    @pytest.mark.parametrize("section, key", [("scenario", "clock_mode"),
                                              ("numerics", "n_max")])
    def test_boolean_integer_field_exit_code(self, tmp_path, capsys, section,
                                             key):
        doc = base_config()
        doc[section][key] = True
        config = write_config(tmp_path, doc)
        assert main(["twin", "--config", str(config),
                     "--out", str(tmp_path)]) == EXIT_VALIDATION
        assert f"{key} must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("section, key", [("scenario", "clock_mode"),
                                              ("numerics", "n_max"),
                                              ("scenario", "repetitions")])
    @pytest.mark.parametrize("value", [2.0, "2"])
    def test_non_integer_count_exit_code(self, tmp_path, capsys, section,
                                         key, value):
        doc = base_config()
        doc[section][key] = value
        config = write_config(tmp_path, doc)
        assert main(["twin", "--config", str(config),
                     "--out", str(tmp_path)]) == EXIT_VALIDATION
        assert (f"{key} must be an integer, got {value!r}"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("clock_mode", [0, -2])
    def test_theta_a_with_non_positive_clock_mode_exit_code(
            self, tmp_path, capsys, clock_mode):
        # t_a is derived by dividing by clock_mode
        doc = base_config(clock_mode=clock_mode, theta_a_rad=1.0)
        del doc["scenario"]["t_a_s"]
        config = write_config(tmp_path, doc)
        assert main(["twin", "--config", str(config),
                     "--out", str(tmp_path)]) == EXIT_VALIDATION
        assert "clock_mode must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("length", [0.0, -0.01])
    def test_theta_a_with_non_positive_length_exit_code(
            self, tmp_path, capsys, length):
        # t_a is derived from L, so the fault is L's, not t_a's
        doc = base_config(L_m=length, theta_a_rad=1.0)
        del doc["scenario"]["t_a_s"]
        config = write_config(tmp_path, doc)
        assert main(["twin", "--config", str(config),
                     "--out", str(tmp_path)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"L must be > 0, got {length}" in err
        assert "t_a" not in err

    @pytest.mark.parametrize("kind, mean_n", [("coherent", 1e308),
                                              ("squeezed_vacuum", 1e200),
                                              ("squeezed_vacuum", 1e308)])
    def test_state_without_finite_qfi_exit_code(self, tmp_path, capsys, kind,
                                                mean_n):
        # finite mean_n, but an inf or NaN QFI, or an OverflowError while
        # the squeezed state is built
        doc = base_config()
        doc["scenario"]["state"] = {"kind": kind, "mean_n": mean_n,
                                    "theta0_rad": 0.0}
        config = write_config(tmp_path, doc)
        assert main(["twin", "--config", str(config),
                     "--out", str(tmp_path)]) == EXIT_VALIDATION
        assert "QFI is not finite" in capsys.readouterr().err
        assert not list(tmp_path.rglob("*_results.csv"))

    @pytest.mark.parametrize("output", ["results", ["prefix"], 3])
    def test_non_object_output_exit_code(self, tmp_path, output):
        doc = base_config()
        doc["output"] = output
        config = write_config(tmp_path, doc)
        assert main(["twin", "--config", str(config),
                     "--out", str(tmp_path)]) == EXIT_VALIDATION
        assert not list(tmp_path.rglob("*_results.csv"))

    def test_residual_gate_may_be_null(self, tmp_path):
        doc = base_config()
        doc["numerics"]["residual_gate"] = None
        loaded = load_config(write_config(tmp_path, doc))
        assert loaded.scenario.residual_gate is None

    def test_both_durations_rejected(self, tmp_path):
        doc = base_config()
        doc["scenario"]["theta_a_rad"] = math.pi
        with pytest.raises(Exception):
            load_config(write_config(tmp_path, doc))


class TestTwinCommand:
    def test_minimal_run_writes_one_row(self, tmp_path):
        config = write_config(tmp_path, base_config())
        assert main(["twin", "--config", str(config),
                     "--out", str(tmp_path)]) == EXIT_OK
        rows = read_rows(tmp_path / "test_results.csv")
        assert len(rows) == 1
        assert list(rows[0].keys()) == CSV_COLUMNS
        assert float(rows[0]["tau_alice_s"]) > float(rows[0]["tau_rob_point_s"])
        manifest = json.loads((tmp_path / "test_manifest.json").read_text())
        assert manifest["config_digest"] == rows[0]["config_digest"]
        assert manifest["rows"] == 1

    def test_parse_error_exit_code(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["twin", "--config", str(path)]) == EXIT_PARSE

    def test_non_utf8_config_exit_code(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"schema": 1, "x": "\xff"}')
        assert main(["twin", "--config", str(path),
                     "--out", str(tmp_path)]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("config parse error: ") and err.count("\n") == 1

    def test_missing_file_exit_code(self, tmp_path):
        assert main(["twin", "--config",
                     str(tmp_path / "absent.json")]) == EXIT_PARSE

    def test_validation_error_exit_code(self, tmp_path):
        # h = aL/c^2 = 2.5: horizon crossing
        doc = base_config(a_mps2=2.5 * 299792458.0**2 / 0.011)
        config = write_config(tmp_path, doc)
        assert main(["twin", "--config", str(config)]) == EXIT_VALIDATION

    def test_schema_validation_exit_code(self, tmp_path):
        doc = base_config()
        doc["schema"] = 2
        config = write_config(tmp_path, doc)
        assert main(["twin", "--config", str(config)]) == EXIT_VALIDATION

    def test_numerical_gate_exit_code(self, tmp_path):
        doc = base_config(a_mps2=1.8 * 299792458.0**2 / 0.011)
        doc["numerics"] = {"n_max": 6, "residual_gate": 1e-10}
        config = write_config(tmp_path, doc)
        assert main(["twin", "--config", str(config),
                     "--out", str(tmp_path)]) == EXIT_NUMERICAL

    def test_unresolved_squeezing_exit_code(self, tmp_path, capsys):
        # the covariance cannot resolve a squeezed vacuum this faint, so its
        # phase QFI reads 0: a numerical limit, not an invalid config
        doc = base_config()
        doc["scenario"]["state"] = {"kind": "squeezed_vacuum",
                                    "mean_n": 1e-30}
        config = write_config(tmp_path, doc)
        assert main(["twin", "--config", str(config),
                     "--out", str(tmp_path)]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "numerical gate failure" in err and "mean_n 1e-30" in err
        assert not list(tmp_path.rglob("*_results.csv"))

    @pytest.mark.parametrize("command", ["twin", "qfi"])
    def test_unreadable_initial_state_exit_code(self, tmp_path, capsys,
                                                command):
        # a valid squeezed vacuum too faint for its covariance, at a nonzero
        # angle: a numerical limit, not an invalid config
        doc = base_config()
        doc["scenario"]["state"] = {"kind": "squeezed_vacuum",
                                    "mean_n": 1e-30, "theta0_rad": 0.3}
        config = write_config(tmp_path, doc)
        assert main([command, "--config", str(config),
                     "--out", str(tmp_path)]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "numerical gate failure" in err and "mean_n 1e-30" in err
        assert not list(tmp_path.rglob("*_results.csv"))

    @pytest.mark.parametrize("command", ["twin", "qfi"])
    def test_large_squeezed_vacuum_at_an_angle_reads(self, tmp_path, capsys,
                                                     command):
        # the det of its covariance entries cancels; the readout takes it
        # from the rows, and identity rows read the initial state's det as
        # exactly 1/16
        doc = base_config()
        doc["scenario"]["state"] = {"kind": "squeezed_vacuum", "mean_n": 1e6,
                                    "theta0_rad": 0.3}
        config = write_config(tmp_path, doc)
        assert main([command, "--config", str(config),
                     "--out", str(tmp_path)]) == EXIT_OK
        if command == "qfi":
            qfi = float(capsys.readouterr().out.removeprefix("qfi="))
        else:
            (row,) = read_rows(tmp_path / "test_results.csv")
            qfi = float(row["qfi_before"])
        assert qfi == pytest.approx(8e6 * (1e6 + 1), rel=1e-13)

    @pytest.mark.parametrize("command", ["twin", "sweep", "bogo"])
    def test_unwritable_output_exit_code(self, tmp_path, capsys, monkeypatch,
                                         command):
        # `--out` is made before any computation runs
        def never(*args, **kwargs):
            raise AssertionError("computed before --out was made")

        for name in ("run_twin", "sweep", "trajectory_map"):
            monkeypatch.setattr(cli, name, never)
        doc = base_config()
        doc["sweep"] = {"vary": "L", "grid": [0.011]}
        config = write_config(tmp_path, doc)
        out = tmp_path / "taken"
        out.write_text("a file, not a directory")
        assert main([command, "--config", str(config),
                     "--out", str(out)]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("output error: ") and err.count("\n") == 1
        assert out.read_text() == "a file, not a directory"

    def test_quadrature_failure_exit_code(self, tmp_path, capsys):
        doc = base_config()
        doc["numerics"] = {"n_max": 8, "quadrature_tol": 1e-300}
        config = write_config(tmp_path, doc)
        assert main(["twin", "--config", str(config),
                     "--out", str(tmp_path)]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "numerical gate failure" in err
        assert "did not converge" in err

    @pytest.mark.parametrize("command", ["twin", "check"])
    def test_underflowing_acceleration_exit_code(self, tmp_path, capsys,
                                                 command):
        # h = aL/c^2 ~ 1.2e-219: the junction quadrature cannot resolve it,
        # which once escaped as a ZeroDivisionError traceback
        config = write_config(tmp_path, base_config(a_mps2=1e-200))
        assert main([command, "--config", str(config),
                     "--out", str(tmp_path)]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "numerical gate failure" in err
        assert "h * u_max underflows" in err

    @pytest.mark.parametrize("command", ["twin", "bogo", "check"])
    @pytest.mark.parametrize("key", ["t_i_s", "t_a_s"])
    def test_overflowing_segment_phase_exit_code(self, tmp_path, capsys,
                                                 command, key):
        # a coast's or a Rindler segment's phase overflows before the
        # trajectory's rapidity guard runs; np.cos read it as NaN (with a
        # RuntimeWarning), and the residual gate exited 4 with "increase
        # n_max"
        config = write_config(tmp_path, base_config(**{key: 1e300}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([command, "--config", str(config),
                         "--out", str(tmp_path)])
        assert code == EXIT_VALIDATION
        assert caught == []
        assert capsys.readouterr().err == (
            "validation error: phase of mode 12 over a segment of 1e+300 s "
            "exceeds the representable range\n")

    def test_truncation_artifact_exit_code(self, tmp_path, capsys):
        # the residual gate passes, but the transported state breaks the
        # uncertainty relation: numerical, not a validation error
        doc = base_config(t_i_s=1e-9, L_m=0.05, a_mps2=1.7e16,
                          repetitions=500)
        doc["numerics"]["n_max"] = 24
        config = write_config(tmp_path, doc)
        assert main(["twin", "--config", str(config),
                     "--out", str(tmp_path)]) == EXIT_NUMERICAL
        assert "increase n_max" in capsys.readouterr().err

    def test_run_helper_loads_config_once(self, tmp_path, monkeypatch):
        calls = []
        real = cli.load_config

        def counting(path):
            calls.append(path)
            return real(path)

        monkeypatch.setattr(cli, "load_config", counting)
        doc = base_config()
        doc["sweep"] = {"vary": "L", "grid": [0.011]}
        config = write_config(tmp_path, doc)
        assert main(["sweep", "--config", str(config),
                     "--out", str(tmp_path)]) == EXIT_OK
        assert len(calls) == 1
        assert len(read_rows(tmp_path / "test_results.csv")) == 1


class TestResultsCsv:
    DIGEST = hashlib.sha256(b"cavityclock").hexdigest()

    @pytest.fixture(scope="class")
    def result(self):
        return run_twin(ScenarioConfig(t_a=1e-9, t_i=0.0, L=0.011, a=1.7e15,
                                       repetitions=3, n_max=12))

    def test_bytes_match_csv_writer(self, result, tmp_path):
        # repr floats at the edges of the double range, with the digest
        edges = replace(result, tau_alice=math.nan, theta_full=math.inf,
                        theta_mm_only=-math.inf, pc_fraction=-0.0,
                        qfi_after=5e-324, qfi_before=1.7976931348623157e308)
        results = [result, edges]
        cli.write_results_csv(tmp_path / "lines.csv", results, self.DIGEST)
        with open(tmp_path / "writer.csv", "w", newline="",
                  encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(CSV_COLUMNS)
            for res in results:
                writer.writerow(cli._result_row(res, self.DIGEST))
        written = (tmp_path / "lines.csv").read_bytes()
        assert written == (tmp_path / "writer.csv").read_bytes()
        fields = written.decode().splitlines()[-1].split(",")
        assert {"nan", "inf", "-inf", "-0.0", "5e-324",
                "1.7976931348623157e+308", self.DIGEST} <= set(fields)

    @pytest.mark.parametrize("char", [",", '"', "\r", "\n"])
    def test_field_that_needs_quoting_raises(self, char):
        with pytest.raises(ValueError, match="needs quoting"):
            cli._csv_line(["h", f"L{char}m"])

    def test_peak_allocation(self, result, tmp_path):
        # csv.writer allocates a record buffer of about 128 KB on its first
        # row
        assert peak_bytes(lambda: cli.write_results_csv(
            tmp_path / "r.csv", [result], self.DIGEST)) < 16_384


class TestSweepCommand:
    def test_ten_point_grid_in_order(self, tmp_path):
        doc = base_config()
        grid = [0.009 + 0.0005 * i for i in range(10)]
        doc["sweep"] = {"vary": "L", "grid": grid}
        config = write_config(tmp_path, doc)
        assert main(["sweep", "--config", str(config), "--out",
                     str(tmp_path), "--threads", "4"]) == EXIT_OK
        rows = read_rows(tmp_path / "test_results.csv")
        assert len(rows) == 10
        assert [float(r["L_m"]) for r in rows] == grid

    def test_thread_count_invariance_byte_identical(self, tmp_path):
        doc = base_config()
        doc["sweep"] = {"vary": "L", "grid": [0.009, 0.011, 0.013]}
        config = write_config(tmp_path, doc)
        outputs = []
        for threads, sub in (("1", "a"), ("3", "b")):
            out = tmp_path / sub
            assert main(["sweep", "--config", str(config), "--out", str(out),
                         "--threads", threads]) == EXIT_OK
            outputs.append((out / "test_results.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_failed_points_reported_not_fatal(self, tmp_path, capsys):
        doc = base_config()
        doc["sweep"] = {"vary": "h", "grid": [1e-4, 2.5, 2e-4]}
        config = write_config(tmp_path, doc)
        assert main(["sweep", "--config", str(config),
                     "--out", str(tmp_path)]) == EXIT_OK
        rows = read_rows(tmp_path / "test_results.csv")
        assert len(rows) == 2
        manifest = json.loads((tmp_path / "test_manifest.json").read_text())
        assert len(manifest["errors"]) == 1
        assert "Horizon" in manifest["errors"][0]

    def test_negative_h_point_reported_not_mirrored(self, tmp_path):
        doc = base_config()
        doc["sweep"] = {"vary": "h", "grid": [-2.1e-4, 2.1e-4]}
        config = write_config(tmp_path, doc)
        assert main(["sweep", "--config", str(config),
                     "--out", str(tmp_path)]) == EXIT_OK
        rows = read_rows(tmp_path / "test_results.csv")
        assert len(rows) == 1
        assert float(rows[0]["a_mps2"]) > 0
        manifest = json.loads((tmp_path / "test_manifest.json").read_text())
        assert manifest["errors"] == [
            "h=-0.00021: ValidationError: h must be >= 0, got -0.00021"]

    def test_all_points_failed_exits_numerical(self, tmp_path, capsys):
        doc = base_config(t_i_s=1e-9, a_mps2=1.7e16, repetitions=500)
        doc["numerics"]["n_max"] = 24
        doc["sweep"] = {"vary": "L", "grid": [0.05]}
        config = write_config(tmp_path, doc)
        assert main(["sweep", "--config", str(config),
                     "--out", str(tmp_path)]) == EXIT_NUMERICAL
        assert "numerical gate failure" in capsys.readouterr().err
        manifest = json.loads((tmp_path / "test_manifest.json").read_text())
        assert manifest["rows"] == 0
        assert len(manifest["errors"]) == 1
        assert "TruncationError" in manifest["errors"][0]

    def test_all_points_failed_maps_first_error(self, tmp_path):
        doc = base_config()
        doc["sweep"] = {"vary": "h", "grid": [2.5, 3.0]}
        config = write_config(tmp_path, doc)
        assert main(["sweep", "--config", str(config),
                     "--out", str(tmp_path)]) == EXIT_VALIDATION
        manifest = json.loads((tmp_path / "test_manifest.json").read_text())
        assert len(manifest["errors"]) == 2

    @pytest.mark.parametrize("command, vary", [("twin", None),
                                               ("sweep", "L"),
                                               ("sweep", "h")])
    def test_manifest_keys(self, tmp_path, command, vary):
        # schema 2 is these keys; any change to them bumps the schema
        doc = base_config()
        if vary is not None:
            doc["sweep"] = {"vary": vary, "grid": [0.011, 2.5]}
        config = write_config(tmp_path, doc)
        assert main([command, "--config", str(config),
                     "--out", str(tmp_path)]) == EXIT_OK
        manifest = json.loads((tmp_path / "test_manifest.json").read_text())
        assert set(manifest) == {
            "schema", "command", "config_digest", "tool_version",
            "generated_at", "n_max", "residual_eps1", "residual_eps2",
            "rows", "errors"}
        assert manifest["schema"] == 2
        assert manifest["command"] == command

    def test_sweep_without_section_is_validation_error(self, tmp_path):
        config = write_config(tmp_path, base_config())
        assert main(["sweep", "--config", str(config)]) == EXIT_VALIDATION


class TestQfiCommand:
    def test_squeezed_vacuum_anchor(self, tmp_path, capsys):
        doc = base_config()
        doc["scenario"]["state"] = {"kind": "squeezed_vacuum", "mean_n": 1.0,
                                    "theta0_rad": 0.0}
        config = write_config(tmp_path, doc)
        assert main(["qfi", "--config", str(config)]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("qfi=")
        assert float(out.split("=", 1)[1]) == pytest.approx(16.0, rel=1e-12)

    def test_unresolved_squeezing_exit_code(self, tmp_path, capsys):
        # a phase QFI that reads 0 is a numerical limit here too, as in twin
        doc = base_config()
        doc["scenario"]["state"] = {"kind": "squeezed_vacuum",
                                    "mean_n": 1e-30}
        config = write_config(tmp_path, doc)
        assert main(["qfi", "--config", str(config)]) == EXIT_NUMERICAL
        assert "mean_n 1e-30" in capsys.readouterr().err

    def test_bound_with_measurements(self, tmp_path, capsys):
        config = write_config(tmp_path, base_config())
        assert main(["qfi", "--config", str(config),
                     "--measurements", "500"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        qfi = float(lines[0].split("=", 1)[1])
        bound = float(lines[1].split("=", 1)[1])
        assert bound == pytest.approx(1.0 / math.sqrt(500 * qfi), rel=1e-12)

    def test_bound_where_the_product_overflows(self, tmp_path, capsys):
        # M H = 4e308 overflows a double; the bound is 1 / (sqrt(M) sqrt(H))
        config = write_config(tmp_path, base_config())
        assert main(["qfi", "--config", str(config),
                     "--measurements", str(10**308)]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert float(lines[0].split("=", 1)[1]) == pytest.approx(4.0,
                                                                rel=1e-12)
        assert float(lines[1].split("=", 1)[1]) == pytest.approx(
            5e-155, rel=1e-12, abs=0)

    def test_count_beyond_a_double_exit_code(self, tmp_path, capsys):
        config = write_config(tmp_path, base_config())
        assert main(["qfi", "--config", str(config),
                     "--measurements", str(10**400)]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.err.startswith("validation error: measurements "
                                       "must fit in a double")
        assert captured.err.count("\n") == 1
        assert "bound=" not in captured.out


class TestBogoCommand:
    def test_dump_is_byte_identical_across_runs(self, tmp_path):
        config = write_config(tmp_path, base_config())
        dumps = []
        for sub in ("x", "y"):
            out = tmp_path / sub
            assert main(["bogo", "--config", str(config),
                         "--out", str(out)]) == EXIT_OK
            dumps.append((out / "test_bogomap.txt").read_bytes())
        assert dumps[0] == dumps[1]
        header = dumps[0].decode().splitlines()
        assert header[1] == "# n_max=12"
        assert any("convention=" in line for line in header[:6])

    def test_gate_failure_exit_code(self, tmp_path, capsys):
        doc = base_config(a_mps2=1.8 * 299792458.0**2 / 0.011)
        doc["numerics"] = {"n_max": 6, "residual_gate": 1e-10}
        config = write_config(tmp_path, doc)
        assert main(["bogo", "--config", str(config),
                     "--out", str(tmp_path)]) == EXIT_NUMERICAL
        assert "increase n_max" in capsys.readouterr().err


    def test_non_finite_map_fails_gate(self, tmp_path, capsys, monkeypatch):
        # a NaN residual compares False against any gate: it must fail
        def nan_map(*args, **kwargs):
            return BogoliubovMap(np.full((12, 12), np.nan, complex),
                                 np.zeros((12, 12), complex))

        monkeypatch.setattr(cli, "trajectory_map", nan_map)
        config = write_config(tmp_path, base_config())
        assert main(["bogo", "--config", str(config),
                     "--out", str(tmp_path)]) == EXIT_NUMERICAL
        assert "exceeds gate" in capsys.readouterr().err
        assert not (tmp_path / "test_bogomap.txt").exists()


class TestCheckCommand:
    def test_self_tests_pass(self, capsys):
        assert main(["check"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "PASS identity map: eps1=0.000e+00 eps2=0.000e+00" in out
        assert "FAIL" not in out

    def test_with_config(self, tmp_path, capsys):
        config = write_config(tmp_path, base_config())
        assert main(["check", "--config", str(config)]) == EXIT_OK
        assert "junction map" in capsys.readouterr().out

    def test_checks_the_block_the_pipeline_gates(self, tmp_path, capsys):
        # clock_mode 3: twin gates the leading 7x7 block, so check must too
        config = write_config(tmp_path, base_config(clock_mode=3))
        assert main(["check", "--config", str(config)]) == EXIT_OK
        assert "(7x7 interior)" in capsys.readouterr().out

    def test_junction_built_at_the_config_tolerance(self, tmp_path,
                                                    monkeypatch):
        tols = []
        blocks = modes._junction_blocks

        def recording(h, n_max, tol):
            tols.append(tol)
            return blocks(h, n_max, tol)

        monkeypatch.setattr(modes, "_junction_blocks", recording)
        monkeypatch.setattr(cli, "_junction_blocks", recording)
        doc = base_config()
        doc["numerics"]["quadrature_tol"] = 1e-8
        config = write_config(tmp_path, doc)
        assert main(["check", "--config", str(config)]) == EXIT_OK
        assert tols and set(tols) == {1e-8}

    def test_wrong_inverse_sign_fails(self, tmp_path, capsys, monkeypatch):
        # S_J^-1 with +betaᵀ, whose blocks are (Xᵀ, Yᵀ): the S_B residual
        # does not see it
        blocks = modes._junction_blocks

        def wrong_sign(h, n_max, tol):
            (x, y), _ = blocks(h, n_max, tol)
            return (x, y), (x.T, y.T)

        monkeypatch.setattr(modes, "_junction_blocks", wrong_sign)
        monkeypatch.setattr(cli, "_junction_blocks", wrong_sign)
        config = write_config(tmp_path, base_config())
        for argv in (["check", "--config", str(config)], ["check"]):
            assert main(argv) == EXIT_NUMERICAL
            assert "FAIL junction inverse roundtrip" in capsys.readouterr().out

    @pytest.mark.parametrize("h", [2.1e-4, 0.05])
    def test_inverse_roundtrip_reads_the_pair(self, tmp_path, capsys, h):
        # max |S_J^-1 S_J - I| on the trusted block, for the interleaved
        # pair of the junction's blocks (X, Y) and (Yᵀ, Xᵀ)
        doc = base_config(a_mps2=h * C**2 / 0.011)
        doc["numerics"]["n_max"] = 24
        config = write_config(tmp_path, doc)
        s_j, s_j_inv = map_oracle.junction_pair(load_config(config).scenario.h,
                                                24)
        pair = np.max(np.abs((s_j_inv @ s_j)[:10, :10] - np.eye(10)))
        assert main(["check", "--config", str(config)]) == EXIT_OK
        assert (f"PASS junction inverse roundtrip (5x5 interior): "
                f"deviation={pair:.3e} ") in capsys.readouterr().out

    def test_reports_the_residual_twin_gates(self, tmp_path, capsys):
        config = write_config(tmp_path, base_config())
        assert main(["twin", "--config", str(config),
                     "--out", str(tmp_path)]) == EXIT_OK
        manifest = json.loads((tmp_path / "test_manifest.json").read_text())
        capsys.readouterr()
        assert main(["check", "--config", str(config)]) == EXIT_OK
        out = capsys.readouterr().out
        printed = re.search(r"PASS composed map S_B\^3: eps1=(\S+)", out)
        assert printed.group(1) == f"{manifest['residual_eps1']:.3e}"



class TestZeroAcceleration:
    """a = 0: no junction enters the trajectory, and Rob's clock is
    Alice's."""

    @pytest.fixture
    def config(self, tmp_path):
        return write_config(tmp_path, base_config(a_mps2=0.0))

    def test_twin(self, config, tmp_path):
        assert main(["twin", "--config", str(config),
                     "--out", str(tmp_path)]) == EXIT_OK
        (row,) = read_rows(tmp_path / "test_results.csv")
        assert row["h"] == "0.0"
        assert row["pc_fraction_pct"] == "0.0"
        assert abs(float(row["phase_diff_rad"])) <= 1e-9

    def test_check_falls_back_to_h_001(self, config, capsys):
        assert main(["check", "--config", str(config)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "PASS junction map (h=0.01)" in out
        assert "FAIL" not in out

    def test_bogo_beta_is_exactly_zero(self, config, tmp_path):
        # free evolution is a rotation product, which keeps beta exactly 0
        assert main(["bogo", "--config", str(config),
                     "--out", str(tmp_path)]) == EXIT_OK
        lines = (tmp_path / "test_bogomap.txt").read_text().splitlines()
        rows = [line.split() for line in lines if not line.startswith("#")]
        assert len(rows) == 12 * 12
        assert all(row[4:] == ["0.0", "0.0"] for row in rows)


class TestSharedMapStage:
    """`twin` and `check --config` read the residuals of one map stage."""

    @staticmethod
    def patch_block(monkeypatch, transform):
        block_symplectic = clock._block_symplectic

        def patched(*args):
            s, product = block_symplectic(*args)
            return transform(s), product

        monkeypatch.setattr(clock, "_block_symplectic", patched)

    def test_check_runs_the_map_stage_once(self, tmp_path, monkeypatch):
        calls = []
        map_stage = clock._map_stage

        def counting(config, *args):
            calls.append(config)
            return map_stage(config, *args)

        monkeypatch.setattr(clock, "_map_stage", counting)
        monkeypatch.setattr(cli, "_map_stage", counting)
        config = write_config(tmp_path, base_config())
        assert main(["check", "--config", str(config)]) == EXIT_OK
        assert len(calls) == 1 and calls[0].residual_gate is None

    @pytest.mark.parametrize("kind", ["coherent", "squeezed_vacuum"])
    def test_check_prints_the_drift_and_horizon(self, tmp_path, capsys,
                                                kind):
        # the last line, from the map stage `twin` runs
        doc = base_config(state={"kind": kind, "mean_n": 1.0,
                                 "theta0_rad": 0.0})
        config = write_config(tmp_path, doc)
        assert main(["check", "--config", str(config)]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        delta = clock._map_stage(load_config(config).scenario).delta
        assert lines[-1] == (f"PASS drift horizon: delta={delta:.3e} "
                             f"horizon={clock._horizon(delta):.4g} round "
                             f"trips (3 requested)")

    def test_check_fails_where_twin_exits_on_drift(self, tmp_path, capsys):
        # the truncation-artifact config at n_max 24: a horizon of 184
        # round trips, so 184 pass and 185 fail, in `check` as in `twin`
        for reps, code in ((184, EXIT_OK), (185, EXIT_NUMERICAL)):
            doc = base_config(t_i_s=1e-9, L_m=0.05, a_mps2=1.7e16,
                              repetitions=reps)
            doc["numerics"]["n_max"] = 24
            config = write_config(tmp_path, doc)
            assert main(["check", "--config", str(config)]) == code
            verdict = capsys.readouterr().out.splitlines()[-1].split()[0]
            assert verdict == ("PASS" if code == EXIT_OK else "FAIL")
            assert main(["twin", "--config", str(config),
                         "--out", str(tmp_path)]) == code
            err = capsys.readouterr().err
            assert ("exceed the drift horizon" in err) == (code != EXIT_OK)

    def test_check_runs_the_junction_quadrature_once(self, tmp_path,
                                                     monkeypatch):
        # its junction lines and the map stage read one quadrature
        calls = []
        blocks = modes._junction_blocks

        def counting(*args):
            calls.append(args)
            return blocks(*args)

        monkeypatch.setattr(modes, "_junction_blocks", counting)
        monkeypatch.setattr(cli, "_junction_blocks", counting)
        config = write_config(tmp_path, base_config())
        assert main(["check", "--config", str(config)]) == EXIT_OK
        assert len(calls) == 1

    def test_a_wrong_block_map_fails_twin_and_check(self, tmp_path, capsys,
                                                    monkeypatch):
        # S_B scaled by 1.001 breaks alpha alpha† - beta beta† = I by 2e-3
        self.patch_block(monkeypatch, lambda s: 1.001 * s)
        config = write_config(tmp_path, base_config())
        assert main(["twin", "--config", str(config),
                     "--out", str(tmp_path)]) == EXIT_NUMERICAL
        assert "block-map" in capsys.readouterr().err
        assert main(["check", "--config", str(config)]) == EXIT_NUMERICAL
        out = capsys.readouterr().out
        assert "FAIL block map S_B:" in out
        assert "FAIL composed map S_B^3:" in out

    def test_a_non_finite_map_exits_4_without_a_gate(self, tmp_path, capsys,
                                                     monkeypatch):
        # no gate reads the NaN residuals, so S_B^reps reaches the check
        # before its SVD, which would raise numpy's LinAlgError
        self.patch_block(monkeypatch, lambda s: np.full_like(s, np.nan))
        doc = base_config()
        doc["numerics"]["residual_gate"] = None
        config = write_config(tmp_path, doc)
        for argv in (["twin", "--config", str(config), "--out", str(tmp_path)],
                     ["check", "--config", str(config)]):
            assert main(argv) == EXIT_NUMERICAL
            assert "composed-map is not finite" in capsys.readouterr().err


class TestParser:
    def test_one_parser_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_not_built_at_import(self):
        # a fresh interpreter, so that no earlier call has built it
        code = ("import argparse, sys\n"
                "sys.path.insert(0, sys.argv[1])\n"
                "built = []\n"
                "init = argparse.ArgumentParser.__init__\n"
                "def counting(self, *args, **kwargs):\n"
                "    built.append(None)\n"
                "    init(self, *args, **kwargs)\n"
                "argparse.ArgumentParser.__init__ = counting\n"
                "import cavityclock.cli as cli\n"
                "print(len(built))\n"
                "cli.build_parser()\n"
                "print(len(built))\n")
        src = Path(cavityclock.__file__).resolve().parents[1]
        proc = subprocess.run([sys.executable, "-c", code, str(src)],
                              capture_output=True, text=True, timeout=60,
                              check=True)
        before, after = map(int, proc.stdout.split())
        assert before == 0 and after > 0

    def test_options_do_not_carry_over(self, tmp_path, capsys):
        config = write_config(tmp_path, base_config())
        assert main(["qfi", "--config", str(config),
                     "--measurements", "5"]) == EXIT_OK
        first = capsys.readouterr().out.splitlines()
        assert [line.split("=")[0] for line in first] == ["qfi", "bound"]
        assert main(["qfi", "--config", str(config)]) == EXIT_OK
        assert capsys.readouterr().out.splitlines() == first[:1]

    def test_twin_then_sweep_on_other_configs(self, tmp_path, monkeypatch):
        seen = []
        execute = cli._execute
        monkeypatch.setattr(cli, "_execute",
                            lambda args: seen.append(vars(args).copy())
                            or execute(args))
        monkeypatch.chdir(tmp_path)
        twin = write_config(tmp_path, base_config(), "twin.json")
        doc = base_config(repetitions=2)
        doc["sweep"] = {"vary": "L", "grid": [0.010, 0.012]}
        doc["output"]["prefix"] = "swept"
        swept = write_config(tmp_path, doc, "sweep.json")
        assert main(["twin", "--config", str(twin), "--out", "a",
                     "--threads", "3"]) == EXIT_OK
        assert main(["sweep", "--config", str(swept)]) == EXIT_OK
        assert seen[1] == {"command": "sweep", "config": str(swept),
                           "out": ".", "threads": 0}
        assert len(read_rows(tmp_path / "a" / "test_results.csv")) == 1
        rows = read_rows(tmp_path / "swept_results.csv")
        assert [(float(r["L_m"]), r["reps"]) for r in rows] == [
            (0.010, "2"), (0.012, "2")]
        assert {r["config_digest"] for r in rows} == {config_digest(doc)}
