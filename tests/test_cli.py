import json
import math
import warnings

import numpy as np
import pytest
from test_acceptance import _run_cli

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
            ("r", math.nan, "r_weight"),
            ("r", -1.0, "r_weight"),
            ("r", "abc", "r_weight"),
            ("nu", math.inf, "nu_weight"),
            ("nu", None, "nu_weight"),
        ],
        ids=["tol_inf", "tol_nan", "tol_zero", "tol_text", "max_iters_text", "max_iters_fraction",
             "max_iters_zero", "max_iters_bool", "r_nan", "r_negative", "r_text", "nu_inf", "nu_null"],
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
