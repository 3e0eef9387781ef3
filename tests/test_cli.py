import json
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from test_acceptance import _run_cli

import floquet_lab
from floquet_lab import NumericError, cli
from floquet_lab.cli import main, shipped_config_path


def _write_config(path, *, omega=1.0, period=None, amplitude=0.05, harmonic=1,
                  n_keep=32, n_pad=32, steps=64):
    period = 2 * math.pi * math.sqrt(2) if period is None else period
    w = 2 * math.pi / period
    half = 0.5 * amplitude
    data = {
        "system": {"omega": omega, "period": period},
        "drive": {
            "period": period,
            "fourier": [
                {"k": harmonic, "re": 0.0, "im": -half},
                {"k": -harmonic, "re": 0.0, "im": half},
            ],
        },
        "truncation": {"n_keep": n_keep, "n_pad": n_pad},
        "tolerances": {"steps_per_period": steps, "scheme": "cf4"},
    }
    del w
    path.write_text(json.dumps(data, indent=2))
    return str(path)


@pytest.fixture
def small_config(tmp_path):
    return _write_config(tmp_path / "cfg.json")


class TestPropagate:
    def test_all_forms_agree(self, small_config, tmp_path):
        out = tmp_path / "u.json"
        rc = main(["propagate", small_config, "--t", "2.5", "--form", "all", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        meta = doc["metadata"]
        assert meta["form"] == "all"
        diffs = meta["tolerances"]["halfblock_cross_form_differences"]
        assert set(diffs) == {
            "factored_vs_single-exp",
            "factored_vs_oracle",
            "single-exp_vs_oracle",
        }
        assert all(d <= 1e-6 for d in diffs.values())
        # diagnostic, not a guarantee: the half block of a truncated
        # unitary loses column weight near its edge
        defect = meta["tolerances"]["halfblock_unitarity_defect"]
        assert 0.0 <= defect < 1.0
        kernels = meta["scalar_kernels"]
        for key in ("phi1", "phi2", "psi", "mu", "nu", "sigma", "whole_periods", "delta"):
            assert key in kernels
        mat = doc["propagator"]
        assert mat["dim"] == 32
        assert len(mat["re"]) == 32 and len(mat["im"][0]) == 32

    def test_zero_drive_gives_free_phases(self, tmp_path):
        period = 2 * math.pi * math.sqrt(2)
        cfg = tmp_path / "zero.json"
        cfg.write_text(
            json.dumps(
                {
                    "system": {"omega": 1.0, "period": period},
                    "drive": {"period": period, "fourier": []},
                    "truncation": {"n_keep": 16, "n_pad": 16},
                }
            )
        )
        out = tmp_path / "u.json"
        rc = main(["propagate", str(cfg), "--t", "1.7", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        u = np.array(doc["propagator"]["re"]) + 1j * np.array(doc["propagator"]["im"])
        off = u - np.diag(np.diag(u))
        assert np.abs(off).max() <= 1e-12
        assert np.allclose(np.abs(np.diag(u)), 1.0, atol=1e-12)
        expect = np.exp(-1j * 1.7 * (np.arange(16) + 0.5))
        assert np.allclose(np.diag(u), expect, atol=1e-12)

    def test_resonant_elapsed_single_exp(self, small_config, tmp_path, capsys):
        out = tmp_path / "u.json"
        t = 2 * math.pi  # one full oscillator period at omega = 1
        rc = main(
            ["propagate", small_config, "--t", repr(t), "--form", "single-exp", "--out", str(out)]
        )
        assert rc == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "ResonantTimeError"
        assert err["error"]["elapsed"] == pytest.approx(t)
        # the factored form covers the same time
        rc = main(
            ["propagate", small_config, "--t", repr(t), "--form", "factored", "--out", str(out)]
        )
        assert rc == 0

    def test_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        rc = main(["propagate", str(bad), "--t", "1.0", "--out", str(tmp_path / "u.json")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert "malformed JSON" in err["error"]["message"]

    def test_missing_file(self, tmp_path, capsys):
        rc = main(
            ["propagate", str(tmp_path / "no.json"), "--t", "1.0", "--out", str(tmp_path / "u.json")]
        )
        assert rc == 2
        assert "not found" in json.loads(capsys.readouterr().err)["error"]["message"]

    def test_period_mismatch_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "mismatch.json"
        cfg.write_text(
            json.dumps(
                {
                    "system": {"omega": 1.0, "period": 6.0},
                    "drive": {"period": 5.0, "fourier": []},
                    "truncation": {"n_keep": 16, "n_pad": 16},
                }
            )
        )
        rc = main(["propagate", str(cfg), "--t", "1.0", "--out", str(tmp_path / "u.json")])
        assert rc == 2
        assert "period" in json.loads(capsys.readouterr().err)["error"]["message"]

    @pytest.mark.parametrize("form", ["factored", "single-exp", "oracle", "all"])
    @pytest.mark.parametrize("flag,value", [("--t", "inf"), ("--t", "nan"), ("--s", "-inf")])
    def test_non_finite_time_is_a_config_error(self, small_config, tmp_path, capsys, form, flag, value):
        argv = ["propagate", small_config, "--t", "2.5", "--form", form, "--out", str(tmp_path / "u.json")]
        argv += [f"{flag}={value}"]
        assert main(argv) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "ValueError"
        assert err["message"] == f"{flag} must be a finite number, got {float(value)!r}"
        assert not (tmp_path / "u.json").exists()

    def test_deterministic_output(self, small_config, tmp_path):
        out1, out2 = tmp_path / "u1.json", tmp_path / "u2.json"
        main(["propagate", small_config, "--t", "3.1", "--form", "all", "--out", str(out1)])
        main(["propagate", small_config, "--t", "3.1", "--form", "all", "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()


class TestStability:
    def test_bounded_run(self, small_config, tmp_path):
        csv_path = tmp_path / "scan.csv"
        rc = main(
            ["stability", small_config, "--periods", "4", "--samples", "4",
             "--out-csv", str(csv_path)]
        )
        assert rc == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0].startswith("t,")
        assert len(lines) == 4 * 4 + 2
        verdict = json.loads((tmp_path / "scan.verdict.json").read_text())
        assert verdict["verdict"] == "bounded"
        assert verdict["classification"] == "NonResonant"

    def test_fock_and_coherent_states(self, small_config, tmp_path):
        for state in ("fock:3", "coherent:0.5+0.2j"):
            rc = main(
                ["stability", small_config, "--periods", "1", "--samples", "2",
                 "--state", state, "--out-csv", str(tmp_path / "s.csv")]
            )
            assert rc == 0

    def test_bad_arguments(self, small_config, tmp_path, capsys):
        rc = main(
            ["stability", small_config, "--periods", "0", "--out-csv", str(tmp_path / "s.csv")]
        )
        assert rc == 2
        capsys.readouterr()
        rc = main(
            ["stability", small_config, "--periods", "2", "--state", "fock:99",
             "--out-csv", str(tmp_path / "s.csv")]
        )
        assert rc == 2


    @pytest.mark.parametrize("state", ["coherent:nan", "coherent:1e200"])
    def test_non_finite_state_is_a_config_error(self, small_config, tmp_path, capsys, state):
        """A state whose norm is NaN is refused, not evolved into NaN energies."""
        csv_path = tmp_path / "s.csv"
        rc = main(["stability", small_config, "--periods", "2", "--state", state, "--out-csv", str(csv_path)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "ValueError"
        assert "normalized" in err["message"]
        assert not csv_path.exists()


class TestConfigIntegers:
    """Integer fields of an oscillator config: an integral float is read as
    that integer; a fraction, a bool or a non-number is refused, naming the
    field (exit 2)."""

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("truncation", "n_keep", 24.7),
            ("truncation", "n_keep", "abc"),
            ("truncation", "n_pad", True),
            ("tolerances", "steps_per_period", 64.9),
            ("tolerances", "steps_per_period", None),
        ],
        ids=["n_keep_fraction", "n_keep_text", "n_pad_bool", "steps_fraction", "steps_null"],
    )
    def test_bad_integer_is_a_config_error(self, small_config, tmp_path, capsys, section, key, value):
        data = json.loads(open(small_config).read())
        data[section][key] = value
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(data))
        out = tmp_path / "u.json"
        rc = main(["propagate", str(cfg), "--t", "1.0", "--form", "oracle", "--out", str(out)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "ValueError"
        assert err["message"].startswith(key + " must be an integer")
        assert not out.exists()

    def test_integral_floats_are_read_as_integers(self, small_config, tmp_path):
        data = json.loads(open(small_config).read())
        data["truncation"] = {"n_keep": 32.0, "n_pad": 32.0}
        data["tolerances"]["steps_per_period"] = 64.0
        cfg = tmp_path / "floats.json"
        cfg.write_text(json.dumps(data))
        outs = []
        for name, path in (("ints", small_config), ("floats", str(cfg))):
            out = tmp_path / f"{name}.json"
            assert main(["propagate", path, "--t", "1.0", "--form", "all", "--out", str(out)]) == 0
            outs.append(out.read_text())
        assert outs[0] == outs[1]


class TestConfigReals:
    """omega and period of an oscillator config must be finite numbers: a
    bool, a string, null or a non-finite value is refused with one JSON
    error naming the field (exit 2), never coerced."""

    @pytest.mark.parametrize("key", ["omega", "period"])
    @pytest.mark.parametrize(
        "value", [True, "1.5", None, math.inf, math.nan, 10**400], ids=["bool", "text", "null", "inf", "nan", "huge_int"]
    )
    def test_bad_real_is_a_config_error(self, small_config, tmp_path, capsys, key, value):
        data = json.loads(open(small_config).read())
        data["system"][key] = value
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(data))
        out = tmp_path / "u.json"
        rc = main(["propagate", str(cfg), "--t", "1.0", "--form", "factored", "--out", str(out)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "ValueError"
        assert err["message"].startswith(key + " must be a finite number")
        assert not out.exists()

    def test_integer_omega_is_read_as_a_float(self, small_config, tmp_path):
        data = json.loads(open(small_config).read())
        data["system"]["omega"] = 1
        cfg = tmp_path / "int.json"
        cfg.write_text(json.dumps(data))
        outs = []
        for name, path in (("float", small_config), ("int", str(cfg))):
            out = tmp_path / f"{name}.json"
            assert main(["propagate", path, "--t", "1.0", "--form", "factored", "--out", str(out)]) == 0
            outs.append(out.read_text())
        assert outs[0] == outs[1]


class TestNonFiniteDrive:
    """Fourier coefficients of +-5e307 overflow f(t) x: a numeric failure, exit 4."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["propagate", "--t", "5.0", "--form", "oracle", "--out", "u.json"],
            ["stability", "--periods", "2", "--samples", "2", "--out-csv", "s.csv"],
        ],
        ids=["propagate_oracle", "stability"],
    )
    def test_exits_numeric(self, tmp_path, capsys, argv):
        cfg = _write_config(tmp_path / "huge.json", amplitude=1e308)
        command, *rest = argv
        rest = [str(tmp_path / a) if a.endswith((".json", ".csv")) else a for a in rest]
        rc = main([command, cfg, *rest])
        assert rc == 4
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "NumericError"


def test_stability_huge_drive_exits_numeric(tmp_path, capsys):
    """An amplitude of 1e200 overflows the H_F shift: exit 4, not a traceback."""
    cfg = _write_config(tmp_path / "huge.json", amplitude=1e200)
    rc = main(["stability", cfg, "--periods", "2", "--samples", "2",
               "--out-csv", str(tmp_path / "s.csv")])
    assert rc == 4
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "NumericError"


def test_oracle_step_phase_limit_exits_numeric(tmp_path, capsys):
    """A finite drive whose oracle step phase passes 2^52 rad: exit 4."""
    cfg = _write_config(tmp_path / "huge.json", amplitude=1e306)
    rc = main(["propagate", cfg, "--t", "5.0", "--form", "oracle",
               "--out", str(tmp_path / "u.json")])
    assert rc == 4
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "NumericError"
    assert "step phase" in err["error"]["message"]


class TestErrorStream:
    """A failing run leaves exactly one JSON document on stderr; warnings
    raised on the way are listed inside it. Other runs print warnings as usual."""

    def test_numpy_warnings_fold_into_the_error(self, tmp_path):
        # numpy overflows in the closed-form kernels before the typed failure
        cfg = _write_config(tmp_path / "huge.json", amplitude=1e200)
        r = _run_cli(["propagate", cfg, "--t", "2.5", "--form", "factored",
                              "--out", str(tmp_path / "u.json")], tmp_path)
        assert r.returncode == 4
        assert r.stderr.count(b"\n") == 1
        err = json.loads(r.stderr)["error"]
        assert err["type"] == "NumericError"
        assert any(w.startswith("RuntimeWarning: overflow") for w in err["warnings"])

    def test_success_keeps_its_stderr(self, small_config, tmp_path):
        r = _run_cli(["propagate", small_config, "--t", "1.0",
                              "--out", str(tmp_path / "u.json")], tmp_path)
        assert r.returncode == 0
        assert r.stderr == b""

    def _warn_then(self, monkeypatch, outcome):
        def command(args):
            warnings.warn("held back", RuntimeWarning)
            return outcome()
        monkeypatch.setattr(cli, "cmd_verify", command)

    def test_warning_of_a_successful_run_is_printed(self, monkeypatch, capsys):
        self._warn_then(monkeypatch, lambda: 0)
        with pytest.warns(RuntimeWarning, match="held back"):
            assert main(["verify"]) == 0
        assert capsys.readouterr().err == ""

    def test_warning_of_a_failed_run_is_in_the_error(self, monkeypatch, capsys):
        def fail():
            raise NumericError("boom")
        self._warn_then(monkeypatch, fail)
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            assert main(["verify"]) == 4
        assert seen == []
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["warnings"] == ["RuntimeWarning: held back"]


class TestResonanceScan:
    def test_straddles_resonance(self, tmp_path):
        cfg = _write_config(tmp_path / "res.json", period=2 * math.pi, n_keep=24, n_pad=24)
        out = tmp_path / "scan.csv"
        rc = main(
            ["resonance-scan", cfg, "--omega-range", "0.5:1.5", "--steps", "3",
             "--out-csv", str(out)]
        )
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "omega,classification,growth_exponent,sup_energy"
        rows = [line.split(",") for line in lines[1:]]
        assert [r[0] for r in rows] == ["0.5", "1.0", "1.5"]
        assert rows[0][1] == "NonResonant"
        assert rows[1][1] == "ResonantAbsolutelyContinuous"
        assert rows[2][1] == "NonResonant"
        assert float(rows[1][2]) > 1.0  # resonant row grows

    def test_deterministic(self, tmp_path):
        cfg = _write_config(tmp_path / "res.json", period=2 * math.pi, n_keep=16, n_pad=16)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["resonance-scan", cfg, "--omega-range", "0.8:1.2", "--steps", "3"]
        main(args + ["--out-csv", str(out1)])
        main(args + ["--out-csv", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_bad_ranges(self, small_config, tmp_path, capsys):
        out = str(tmp_path / "s.csv")
        assert main(["resonance-scan", small_config, "--omega-range", "1.5:0.5",
                     "--steps", "3", "--out-csv", out]) == 2
        capsys.readouterr()
        assert main(["resonance-scan", small_config, "--omega-range", "nope",
                     "--steps", "3", "--out-csv", out]) == 2
        capsys.readouterr()
        assert main(["resonance-scan", small_config, "--omega-range", "0.5:1.5",
                     "--steps", "1", "--out-csv", out]) == 2

    @pytest.mark.parametrize("window", ["0.5:inf", "inf:inf", "nan:1.5", "0.5:nan"])
    def test_non_finite_range_is_a_config_error(self, small_config, tmp_path, capsys, window):
        assert main(["resonance-scan", small_config, f"--omega-range={window}", "--steps", "3",
                     "--out-csv", str(tmp_path / "s.csv")]) == 2
        message = json.loads(capsys.readouterr().err)["error"]["message"]
        assert message.startswith("omega range must be finite and satisfy 0 < lo < hi")


class TestKam:
    def test_golden_problem(self, tmp_path):
        hist = tmp_path / "hist.jsonl"
        result = tmp_path / "result.json"
        rc = main(
            ["kam", shipped_config_path("kam_golden.json"),
             "--out-history", str(hist), "--out-result", str(result)]
        )
        assert rc == 0
        doc = json.loads(result.read_text())
        assert doc["status"] == "converged"
        assert doc["final_residual"] < 1e-10
        assert "g_level" in doc and "w_blocks" in doc
        rows = [json.loads(line) for line in hist.read_text().strip().splitlines()]
        resids = [r["offdiag_residual"] for r in rows]
        for early, late in zip(resids, resids[1:]):
            assert late < early

    def test_resonant_problem_aborts(self, tmp_path, capsys):
        result = tmp_path / "result.json"
        rc = main(
            ["kam", shipped_config_path("kam_resonant.json"),
             "--out-history", str(tmp_path / "h.jsonl"), "--out-result", str(result)]
        )
        assert rc == 5
        doc = json.loads(result.read_text())
        assert doc["status"] == "small_denominator_abort"
        assert doc["abort_pair"][0] in (1, -1)
        assert abs(doc["abort_gap"]) <= 1e-8

    @pytest.mark.parametrize("guard", ["abc", 0, -1, math.nan], ids=["text", "zero", "negative", "nan"])
    def test_bad_guard_is_a_config_error(self, tmp_path, capsys, guard):
        """A guard of 0 or less would divide by the exact zero it guards against."""
        problem = json.loads(open(shipped_config_path("kam_resonant.json")).read())
        problem["min_denom_guard"] = guard
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(problem))
        result = tmp_path / "result.json"
        rc = main(["kam", str(path), "--out-history", str(tmp_path / "h.jsonl"), "--out-result", str(result)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "ValueError"
        assert "min_denom_guard" in err["message"]
        assert "warnings" not in err
        assert not result.exists()

    @pytest.mark.parametrize(
        "key, value, field",
        [
            ("tol", math.inf, "tol"),
            ("tol", math.nan, "tol"),
            ("tol", 0, "tol"),
            ("tol", "abc", "tol"),
            ("max_iters", "abc", "max_iters"),
            ("max_iters", 2.7, "max_iters"),
            ("max_iters", 0, "max_iters"),
            ("max_iters", True, "max_iters"),
            ("k_max", 2.5, "k_max"),
            ("r", math.nan, "r_weight"),
            ("r", -1.0, "r_weight"),
            ("r", "abc", "r_weight"),
            ("nu", math.inf, "nu_weight"),
            ("nu", None, "nu_weight"),
            ("omega", True, "omega"),
            ("omega", "1.6", "omega"),
            ("omega", None, "omega"),
            ("omega", math.inf, "omega"),
            ("tol", True, "tol"),
            ("r", "2", "r_weight"),
            ("max_iters", 10**400, "max_iters"),
            ("r", 10**400, "r_weight"),
            ("schedule", "fourier_cutoff", "schedule"),
        ],
        ids=["tol_inf", "tol_nan", "tol_zero", "tol_text", "max_iters_text", "max_iters_fraction",
             "max_iters_zero", "max_iters_bool", "k_max_fraction", "r_nan", "r_negative", "r_text", "nu_inf", "nu_null",
             "omega_bool", "omega_text", "omega_null", "omega_inf", "tol_bool", "r_numeric_text",
             "max_iters_huge_int", "r_huge_int", "schedule_not_constant"],
    )
    def test_bad_numeric_field_is_a_config_error(self, tmp_path, capsys, key, value, field):
        problem = json.loads(open(shipped_config_path("kam_golden.json")).read())
        problem[key] = value
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(problem))
        result = tmp_path / "result.json"
        rc = main(["kam", str(path), "--out-history", str(tmp_path / "h.jsonl"), "--out-result", str(result)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "ValueError"
        assert err["message"].startswith(field + " must be")
        assert not result.exists()

    @pytest.mark.parametrize("value", [True, "1.5", None, math.nan], ids=["bool", "text", "null", "nan"])
    def test_bad_level_energy_is_a_config_error(self, tmp_path, capsys, value):
        problem = json.loads(open(shipped_config_path("kam_golden.json")).read())
        problem["levels"][1]["h"] = value
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(problem))
        result = tmp_path / "result.json"
        rc = main(["kam", str(path), "--out-history", str(tmp_path / "h.jsonl"), "--out-result", str(result)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "ValueError"
        assert err["message"].startswith("h must be a finite number")
        assert not result.exists()

    def test_fractional_multiplicity_is_a_config_error(self, tmp_path, capsys):
        problem = json.loads(open(shipped_config_path("kam_golden.json")).read())
        problem["levels"][0]["mult"] = 1.5
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(problem))
        rc = main(["kam", str(path), "--out-history", str(tmp_path / "h.jsonl"),
                   "--out-result", str(tmp_path / "result.json")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["message"].startswith("mult must be an integer")

    def test_integral_max_iters_is_accepted(self, tmp_path):
        problem = json.loads(open(shipped_config_path("kam_golden.json")).read())
        problem["max_iters"] = float(problem.get("max_iters", 20))
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(problem))
        rc = main(["kam", str(path), "--out-history", str(tmp_path / "h.jsonl"),
                   "--out-result", str(tmp_path / "result.json")])
        assert rc == 0


class TestVerify:
    def test_commutator_suite_passes(self, capsys):
        rc = main(["verify", "--suite", "commutators"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "verify: OK" in out
        assert "FAIL" not in out

    def test_unknown_suite_rejected(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["verify", "--suite", "bogus"])
        assert err.value.code == 2

    def test_corrupted_kernel_fails_appendix(self, tmp_path, capsys):
        cfg_path = tmp_path / "flip.json"
        data = json.loads(open(shipped_config_path("nonresonant.json")).read())
        data["debug"] = {"flip_psi_sign": True}
        cfg_path.write_text(json.dumps(data))
        rc = main(["verify", "--suite", "appendix", "--config", str(cfg_path)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "FAIL appendix.factored_vs_integrator_halfblock" in out
        assert "verify: FAILED" in out


def test_import_loads_no_quadrature_or_interpolation():
    """Every drive is a Fourier series, so the package needs neither."""
    env = dict(os.environ)
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(floquet_lab.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    code = (
        "import sys, floquet_lab.cli; "
        "print([m for m in ('scipy.integrate', 'scipy.interpolate') if m in sys.modules])"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert done.stdout.strip() == "[]"


_NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")


def _assert_same_to(a: str, b: str, tol: float):
    """The same text between the numbers, and numbers that agree to tol."""
    assert _NUMBER.split(a) == _NUMBER.split(b)
    x = np.array([float(v) for v in _NUMBER.findall(a)])
    y = np.array([float(v) for v in _NUMBER.findall(b)])
    assert np.abs(x - y).max() <= tol


_SAMPLES = json.loads(open(shipped_config_path("sampled_nonresonant.json")).read())["drive"]["samples"]


class TestSampledConfig:
    """The shipped nonresonant drive given as 32 samples runs every command
    the Fourier config runs, with the same results."""

    @pytest.mark.parametrize(
        "argv, outputs",
        [
            (["propagate", "{cfg}", "--t", "20.3", "--s", "0.7", "--form", "all", "--out", "{out}.json"],
             [".json"]),
            (["stability", "{cfg}", "--periods", "20", "--samples", "4", "--out-csv", "{out}.csv"],
             [".csv", ".verdict.json"]),
        ],
        ids=["propagate", "stability"],
    )
    def test_outputs_match_the_fourier_config(self, tmp_path, argv, outputs):
        texts = {}
        for name in ("nonresonant", "sampled_nonresonant"):
            out = str(tmp_path / name)
            args = [a.format(cfg=shipped_config_path(name + ".json"), out=out) for a in argv]
            assert main(args) == 0
            texts[name] = [open(out + suffix).read() for suffix in outputs]
        for a, b in zip(texts["nonresonant"], texts["sampled_nonresonant"]):
            _assert_same_to(a, b, 1e-12)

    def test_floquet_suite_passes(self, capsys):
        """The deviations verify prints include a finite-difference quotient
        with a 1e-6 step, whose own round-off is ~1e-9, so only the checks'
        names and verdicts are compared."""
        lines = {}
        for name in ("nonresonant", "sampled_nonresonant"):
            assert main(["verify", "--suite", "floquet", "--config", shipped_config_path(name + ".json")]) == 0
            lines[name] = [line.split(" (")[0] for line in capsys.readouterr().out.splitlines()]
        assert lines["sampled_nonresonant"] == lines["nonresonant"]
        assert lines["nonresonant"][-1] == "verify: OK"

    @pytest.mark.parametrize(
        "samples_update, drive_update, cause",
        [
            ({"t": [t + 1e-6 * (i == 3) for i, t in enumerate(_SAMPLES["t"])]}, {}, "equally spaced"),
            ({"t": _SAMPLES["t"][:3], "f": _SAMPLES["f"][:3]}, {}, "at least 4"),
            ({"f": [None] + _SAMPLES["f"][1:]}, {}, "finite"),
            ({"order": 3}, {}, "samples.order"),
            ({}, {"fourier": []}, "not both"),
        ],
        ids=["uneven", "three", "null_value", "order", "fourier_too"],
    )
    def test_bad_samples_are_a_config_error(self, tmp_path, capsys, samples_update, drive_update, cause):
        data = json.loads(open(shipped_config_path("sampled_nonresonant.json")).read())
        data["drive"]["samples"].update(samples_update)
        data["drive"].update(drive_update)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        assert main(["propagate", str(path), "--t", "1.0", "--out", str(tmp_path / "u.json")]) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "ValueError"
        assert cause in err["message"]
