import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
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

    def test_elapsed_time_past_2_to_the_52_rad_is_a_config_error(self, tmp_path, capsys):
        """At t = 1e300 the phase 2 (omega + max |Omega_k|) (t - s) of psi
        keeps no digit: refused, naming t - s, before any cast that numpy
        warns of."""
        out = tmp_path / "u.json"
        rc = main(["propagate", shipped_config_path("nonresonant.json"), "--t", "1e300", "--out", str(out)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "ValueError"
        assert err["message"].startswith("t - s = 1e+300 is too long: ")
        assert "warnings" not in err
        assert not out.exists()

    def test_propagate_at_a_billion_time_units(self, tmp_path):
        """psi is a finite sum, so t = 1e9 costs what t = 1 costs; its value
        is that of a 50-digit evaluation of the same sum."""
        out = tmp_path / "u.json"
        assert main(["propagate", shipped_config_path("nonresonant.json"), "--t", "1e9", "--out", str(out)]) == 0
        kernels = json.loads(out.read_text())["metadata"]["scalar_kernels"]
        assert kernels["psi"] == pytest.approx(-1249999.997479648010399605, rel=1e-13, abs=0.0)

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

    def _shipped_fock_verdict(self, tmp_path, level: int) -> dict:
        rc = main(["stability", shipped_config_path("nonresonant.json"), "--periods", "20", "--samples", "4",
                   "--state", f"fock:{level}", "--out-csv", str(tmp_path / "s.csv")])
        assert rc == 0
        return json.loads((tmp_path / "s.verdict.json").read_text())

    def test_fock_state_at_half_the_kept_block_gets_the_bound(self, tmp_path):
        """n_keep is 48: the bound on level 24 holds at least ||H_F psi0||
        and bounds the energies."""
        verdict = self._shipped_fock_verdict(tmp_path, 24)
        spec, params, trunc, _, _ = cli._load_config(shipped_config_path("nonresonant.json"))
        hf_psi0 = float(np.linalg.norm(floquet_lab.build_HF(spec, params, trunc).entries[:, 24]))
        assert verdict["leak_warning"] is False
        assert verdict["paper_bound"] >= hf_psi0 > 24.0
        assert verdict["paper_bound"] >= verdict["sup_bound"]
        assert verdict["verdict"] == "bounded"

    def test_fock_state_past_half_the_kept_block_gets_the_bound(self, tmp_path):
        """Level 30 lies past level n_keep/2 = 24 and gets the bound too:
        C_psi needs only psi0's levels and the one above them."""
        verdict = self._shipped_fock_verdict(tmp_path, 30)
        assert verdict["leak_warning"] is False
        assert verdict["paper_bound"] == pytest.approx(32.2517, rel=1e-5)
        assert verdict["paper_bound"] >= verdict["sup_bound"] > 30.0
        assert verdict["verdict"] == "bounded"

    @pytest.mark.parametrize("level, leak", [(30, False), (47, True)])
    def test_leak_warning_is_the_exact_population_above_the_kept_block(self, tmp_path, level, leak):
        """Within 20 periods fock:30 puts 1e-36 of its weight above level
        47, fock:47 0.42; the warning is set past 1e-6."""
        verdict = self._shipped_fock_verdict(tmp_path, level)
        assert (max(verdict["high_mode_population"]) > 1e-6) is leak
        assert verdict["leak_warning"] is leak

    def test_resonant_growth_over_200_periods_is_growing(self, tmp_path):
        """The truncated state fills the working space within these 200
        periods; the full-space energies keep growing like t^2."""
        out = tmp_path / "long.csv"
        rc = main(["stability", shipped_config_path("resonant_growth.json"), "--periods", "200",
                   "--samples", "4", "--out-csv", str(out)])
        assert rc == 0
        verdict = json.loads((tmp_path / "long.verdict.json").read_text())
        assert verdict["verdict"] == "growing"
        assert abs(verdict["fit_exponent"] - 2.0) <= 0.05
        assert verdict["sup_bound"] == pytest.approx(494.48, rel=1e-3)
        assert verdict["leak_warning"]

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


class TestStateFlag:
    """Every --state that cannot be read fails with one JSON error naming
    the flag (exit 2), and an overflowing amplitude raises no warning."""

    @pytest.mark.parametrize(
        "state", ["fock:abc", "fock:99", "coherent:zz", "coherent:1e200", "squeezed:1"],
        ids=["fock_text", "fock_outside", "coherent_text", "coherent_overflow", "unknown"],
    )
    def test_bad_state_names_the_flag(self, small_config, tmp_path, capsys, state):
        csv_path = tmp_path / "s.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["stability", small_config, "--periods", "2", "--state", state, "--out-csv", str(csv_path)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "ValueError"
        assert err["message"].startswith("--state")
        assert "warnings" not in err
        assert not csv_path.exists()

    def test_coherent_state_past_half_the_kept_block_is_refused(self, tmp_path, capsys):
        """n_keep is 48: coherent:5 puts 0.53 of its weight above level 24,
        where it would be cut off and the rest renormalized."""
        csv_path = tmp_path / "s.csv"
        rc = main(["stability", shipped_config_path("nonresonant.json"), "--periods", "2",
                   "--state", "coherent:5", "--out-csv", str(csv_path)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "ValueError"
        assert err["message"].startswith("--state 'coherent:5': 0.527 of the coherent state's weight")
        assert not csv_path.exists()

    def test_coherent_state_inside_half_the_kept_block_runs(self, tmp_path):
        """The drive is 0 at t = 0, so <H(0)> is the coherent state's
        omega (|a|^2 + 1/2) = 0.79."""
        csv_path = tmp_path / "s.csv"
        rc = main(["stability", shipped_config_path("nonresonant.json"), "--periods", "2", "--samples", "2",
                   "--state", "coherent:0.5+0.2j", "--out-csv", str(csv_path)])
        assert rc == 0
        first = csv_path.read_text().splitlines()[1].split(",")
        assert float(first[2]) == pytest.approx(0.79, rel=1e-14)
        assert json.loads((tmp_path / "s.verdict.json").read_text())["leak_warning"] is False


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
            ("truncation", "n_pad", 10**400),
            ("truncation", "n_keep", 1e300),
        ],
        ids=["n_keep_fraction", "n_keep_text", "n_pad_bool", "steps_fraction", "steps_null", "n_pad_huge_int",
             "n_keep_huge_float"],
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

    def test_working_dimension_beyond_numpy_is_a_config_error(self, small_config, tmp_path, capsys):
        """n_pad = 2**40 fits in int64, but a dense complex matrix of the
        working dimension does not fit numpy's index range: one JSON error
        naming the dimension (exit 2), before any array is made."""
        data = json.loads(open(small_config).read())
        data["truncation"]["n_pad"] = 2**40
        cfg = tmp_path / "big.json"
        cfg.write_text(json.dumps(data))
        out = tmp_path / "u.json"
        assert main(["propagate", str(cfg), "--t", "1.0", "--form", "factored", "--out", str(out)]) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "ValueError"
        assert f"working dimension n_keep + n_pad = {2**40 + 32}" in err["message"]
        assert not out.exists()

    def test_out_of_memory_is_a_config_error(self, small_config, tmp_path, capsys, monkeypatch):
        """A size that numpy cannot allocate is the config's: one JSON error
        (exit 2), not a traceback."""
        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.28 TiB for an array with shape (1000048, 1000048)")

        monkeypatch.setattr(cli, "propagator_factored", no_memory)
        out = tmp_path / "u.json"
        assert main(["propagate", small_config, "--t", "1.0", "--form", "factored", "--out", str(out)]) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "MemoryError"
        assert "shape (1000048, 1000048)" in err["message"]
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


class TestConfigBlocks:
    """The drive block goes through the typed readers, and drive, tolerances
    and debug must be objects: a bad value fails with one JSON error naming
    its field (exit 2)."""

    @pytest.mark.parametrize(
        "update, field",
        [
            ({"drive": []}, "drive"),
            ({"tolerances": []}, "tolerances"),
            ({"debug": []}, "debug"),
            ({"drive": {"period": "abc", "fourier": []}}, "drive.period"),
            ({"drive": {"fourier": [{"k": 1.5, "re": 0.0, "im": -0.1}, {"k": -1.5, "re": 0.0, "im": 0.1}]}},
             "drive.fourier[0].k"),
            ({"drive": {"fourier": [{"k": True, "re": 0.0, "im": -0.1}]}}, "drive.fourier[0].k"),
            ({"drive": {"fourier": [{"k": 1, "re": math.nan, "im": -0.1}, {"k": -1, "re": math.nan, "im": 0.1}]}},
             "drive.fourier[0].re"),
            ({"drive": {"fourier": [{"k": 1, "re": 0.0, "im": "x"}]}}, "drive.fourier[0].im"),
            ({"drive": {"fourier": {}}}, "drive.fourier"),
            # two entries given three times: no entry may overwrite another
            ({"drive": {"fourier": [{"k": 1, "re": 0.0, "im": -0.025}, {"k": -1, "re": 0.0, "im": 0.025}] * 3}},
             "drive.fourier[2].k"),
        ],
        ids=["drive_list", "tolerances_list", "debug_list", "period_text", "k_fraction", "k_bool", "re_nan",
             "im_text", "fourier_object", "k_repeated"],
    )
    def test_bad_block_is_a_config_error(self, small_config, tmp_path, capsys, update, field):
        data = json.loads(open(small_config).read())
        for key, value in update.items():
            if isinstance(value, dict) and isinstance(data[key], dict):
                data[key].update(value)
            else:
                data[key] = value
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(data))
        out = tmp_path / "u.json"
        rc = main(["propagate", str(cfg), "--t", "1.0", "--form", "factored", "--out", str(out)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "ValueError"
        assert err["message"].startswith(field + " must be")
        assert not out.exists()


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


def _scaled_shipped_config(tmp_path, name: str, amplitude: float) -> str:
    """A shipped first-harmonic config with its drive amplitude set."""
    data = json.loads(open(shipped_config_path(name + ".json")).read())
    for entry in data["drive"]["fourier"]:
        entry["im"] = math.copysign(0.5 * amplitude, entry["im"])
    path = tmp_path / f"{name}_{amplitude:g}.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize("amplitude", [1e150, 1e300])
def test_stability_phase_without_digits_exits_numeric_at_resonance(tmp_path, capsys, amplitude):
    """On a resonant drive no H_F is built, so the closed-form phase check
    alone stops a drive whose x and p exponents keep no digit: exit 4."""
    cfg = _scaled_shipped_config(tmp_path, "resonant_growth", amplitude)
    rc = main(["stability", cfg, "--periods", "2", "--samples", "2", "--out-csv", str(tmp_path / "s.csv")])
    assert rc == 4
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "NumericError"
    assert "2^52" in err["message"]


def test_factored_phase_without_digits_exits_numeric(tmp_path, capsys):
    """phi1 of about 1e17 puts the x exponent's phase past 2^52 rad."""
    cfg = _scaled_shipped_config(tmp_path, "nonresonant", 1e17)
    rc = main(["propagate", cfg, "--t", "2.5", "--form", "factored", "--out", str(tmp_path / "u.json")])
    assert rc == 4
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "NumericError"
    assert "2^52" in err["message"]
    assert not (tmp_path / "u.json").exists()


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

    def test_an_error_filter_is_held_too(self, monkeypatch, capsys):
        """A caller's "error" filter (python -W error) turns no held warning
        into an exception and a traceback."""
        def fail():
            raise NumericError("boom")
        self._warn_then(monkeypatch, fail)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["verify"]) == 4
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["warnings"] == ["RuntimeWarning: held back"]

    @pytest.mark.parametrize("code", [0, 4])
    def test_an_ignore_filter_is_kept(self, monkeypatch, capsys, code):
        """A caller's "ignore" filter (python -W ignore) still silences the
        warnings of a run that returns and of one that fails."""
        def outcome():
            if code:
                raise NumericError("boom")
            return 0
        self._warn_then(monkeypatch, outcome)
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("ignore", RuntimeWarning)
            assert main(["verify"]) == code
        assert seen == []
        err = capsys.readouterr().err
        if code:
            assert "warnings" not in json.loads(err)["error"]
        else:
            assert err == ""


class TestParserReuse:
    """The parser is built once per process and dispatches by name, so a
    command rebound on the module after import is the one that runs."""

    def test_usage_error_then_a_valid_run(self, small_config, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["resonance-scan", small_config, "--steps", "3"])
        assert exc.value.code == 2
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "ArgumentError"
        out = tmp_path / "scan.csv"
        assert main(["resonance-scan", small_config, "--omega-range", "0.8:1.2", "--steps", "3",
                     "--out-csv", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 4
        assert cli._build_parser() is cli._build_parser()

    def test_a_rebound_command_runs(self, monkeypatch):
        cli._build_parser()
        seen = []
        monkeypatch.setattr(cli, "cmd_verify", lambda args: seen.append(args.suite) or 0)
        assert main(["verify", "--suite", "kam"]) == 0
        assert seen == ["kam"]


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

    @pytest.mark.parametrize("amplitude", [1e150, 1e200])
    def test_huge_drive_exits_numeric(self, tmp_path, capsys, amplitude):
        """The energies overflow: one JSON error and exit 4, never a row of inf or nan."""
        cfg = _write_config(tmp_path / "huge.json", amplitude=amplitude)
        out = tmp_path / "s.csv"
        assert main(["resonance-scan", cfg, "--omega-range", "0.8:1.2", "--steps", "3",
                     "--out-csv", str(out)]) == 4
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        error = json.loads(err)["error"]
        assert error["type"] == "NumericError"
        assert error["message"].endswith("the drive is too large at omega = 0.8")
        assert not out.exists()

    def test_rows_are_the_one_omega_rows(self, tmp_path):
        """The rows of one batch per chunk equal, bit for bit, those of
        _exact_energies and _fit_exponent at each omega alone: a two-harmonic
        drive, a grid longer than one chunk, and both ends exactly on a
        resonance of T = 2 pi sqrt(2) (omega = 1/sqrt(2) and sqrt(2))."""
        from floquet_lab.core_fock import OscillatorParams
        from floquet_lab.floquet import _exact_energies, _fit_exponent, _time_grid, classify_monodromy

        cfg = _write_config(tmp_path / "two.json")
        data = json.loads(open(cfg).read())
        data["drive"]["fourier"] += [{"k": 2, "re": 0.02, "im": 0.01}, {"k": -2, "re": 0.02, "im": -0.01}]
        (tmp_path / "two.json").write_text(json.dumps(data))
        spec, params, _, _, _ = cli._load_config(cfg)
        lo, hi, steps = 1.0 / math.sqrt(2), math.sqrt(2), cli._SCAN_CHUNK + 3
        out = tmp_path / "scan.csv"
        assert main(["resonance-scan", cfg, "--omega-range", f"{lo!r}:{hi!r}", "--steps", str(steps),
                     "--out-csv", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        grid = np.linspace(lo, hi, steps)
        t_grid = _time_grid(params, 24, 4)
        ground = np.ones(1, dtype=complex)
        batch = _exact_energies(spec, grid, ground, t_grid)
        for i, (omega, row) in enumerate(zip(grid, rows)):
            p = OscillatorParams(omega=float(omega), period_T=params.period_T)
            norms, means = _exact_energies(spec, float(omega), ground, t_grid)
            assert np.array_equal(batch[0][i], norms) and np.array_equal(batch[1][i], means)
            assert row == ",".join([str(float(omega)), classify_monodromy(spec, p).value,
                                    str(_fit_exponent(t_grid, means)), str(float(norms.max()))])
        assert [rows[0].split(",")[1], rows[-1].split(",")[1]] == ["ResonantAbsolutelyContinuous"] * 2

    def test_memory_is_bounded_per_chunk(self, tmp_path):
        """A 1,500-row grid holds one chunk's arrays at a time: the whole
        grid's would take about 27 MB."""
        out = tmp_path / "scan.csv"
        argv = ["resonance-scan", shipped_config_path("nonresonant.json"), "--omega-range", "0.8:1.2",
                "--steps", "1500", "--out-csv", str(out)]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(out.read_text().splitlines()) == 1501
        assert peak <= 8e6, f"peak {peak} bytes"

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
            ("levels", [1.0, 2.0], "levels"),
            ("V_blocks", {"a": 1}, "V_blocks"),
            ("V_blocks", [1, 2], "V_blocks"),
            ("V_blocks", {}, "V_blocks"),
        ],
        ids=["tol_inf", "tol_nan", "tol_zero", "tol_text", "max_iters_text", "max_iters_fraction",
             "max_iters_zero", "max_iters_bool", "k_max_fraction", "r_nan", "r_negative", "r_text", "nu_inf", "nu_null",
             "omega_bool", "omega_text", "omega_null", "omega_inf", "tol_bool", "r_numeric_text",
             "max_iters_huge_int", "r_huge_int", "schedule_not_constant", "levels_numbers", "blocks_object",
             "blocks_numbers", "blocks_empty_object"],
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

    @pytest.mark.parametrize(
        "key, value",
        [("n", "0"), ("k", 1.5), ("re", [[math.nan]]), ("im", [[math.inf]]), ("re", "abc"), ("im", [[0.0, 0.0]])],
        ids=["n_text", "k_fraction", "re_nan", "im_inf", "re_text", "im_shape"],
    )
    def test_bad_block_field_is_a_config_error(self, tmp_path, capsys, key, value):
        problem = json.loads(open(shipped_config_path("kam_golden.json")).read())
        problem["V_blocks"][0][key] = value
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(problem))
        result = tmp_path / "result.json"
        rc = main(["kam", str(path), "--out-history", str(tmp_path / "h.jsonl"), "--out-result", str(result)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["type"] == "ValueError"
        assert err["message"].startswith(f"V_blocks[0].{key}")
        assert not result.exists()

    @pytest.mark.parametrize(
        "edit, message",
        [
            ({"n": 9}, "block (1, 9, 1) references a level outside the space"),
            ({"re": [[0.01, 0.0]], "im": [[0.0, 0.0]]}, "block (1, 0, 1) has shape (1, 2), expected (1, 1)"),
        ],
        ids=["level_outside", "wrong_shape"],
    )
    def test_block_that_fits_no_level_is_a_config_error(self, tmp_path, capsys, edit, message):
        """A block and its Hermitian partner that fit no level of the space:
        one JSON error naming the first of them, and neither file written."""
        problem = json.loads(open(shipped_config_path("kam_golden.json")).read())
        block = {"k": 1, "n": 0, "m": 1, "re": [[0.01]], "im": [[0.0]]}
        block.update(edit)
        partner = {"k": -1, "n": block["m"], "m": block["n"],
                   "re": np.transpose(block["re"]).tolist(), "im": (-np.transpose(block["im"])).tolist()}
        problem["V_blocks"] = [blk for blk in problem["V_blocks"] if (blk["k"], blk["n"], blk["m"]) not in
                               {(1, block["n"], block["m"]), (-1, block["m"], block["n"])}] + [block, partner]
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(problem))
        history, result = tmp_path / "h.jsonl", tmp_path / "result.json"
        rc = main(["kam", str(path), "--out-history", str(history), "--out-result", str(result)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert err == {"type": "ValueError", "message": message}
        assert not history.exists() and not result.exists()

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
        for extra in ([], ["--config", shipped_config_path("sampled_nonresonant.json")]):
            rc = main(["verify", "--suite", "commutators", *extra])
            out = capsys.readouterr().out
            assert rc == 0
            assert "verify: OK" in out
            assert "FAIL" not in out
            assert out.count("PASS commutators.xn_dual_routes_n") == 5

    def test_perturbed_dual_route_fails_commutators(self, monkeypatch, capsys):
        """1e-6 on one kept half-block entry of the Floquet route is seen."""
        from floquet_lab import commutators

        original = commutators.xn_operator_via_floquet

        def perturbed(*args):
            out = original(*args)
            out.entries[1, 2] += 1e-6
            return out

        monkeypatch.setattr(commutators, "xn_operator_via_floquet", perturbed)
        rc = main(["verify", "--suite", "commutators"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "FAIL commutators.xn_dual_routes_n" in out
        assert "verify: FAILED" in out

    def test_unknown_suite_rejected(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["verify", "--suite", "bogus"])
        assert err.value.code == 2

    @pytest.mark.parametrize("config", ["sampled_nonresonant.json", "resonant_growth.json"])
    def test_appendix_passes(self, capsys, config):
        rc = main(["verify", "--suite", "appendix", "--config", shipped_config_path(config)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS appendix.stability_closed_form_vs_oracle" in out
        assert "PASS appendix.stability_exact_vs_truncated" in out
        assert "verify: OK" in out

    def test_perturbed_trajectory_fails_appendix(self, monkeypatch, capsys):
        """1e-5 on one entry of one closed-form state is seen."""
        original = cli._factored_states

        def perturbed(*args):
            out = original(*args)
            out[3, 1] += 1e-5
            return out

        monkeypatch.setattr(cli, "_factored_states", perturbed)
        rc = main(["verify", "--suite", "appendix"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "FAIL appendix.stability_closed_form_vs_oracle" in out
        assert "verify: FAILED" in out

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


def test_import_loads_no_quadrature_or_interpolation(tmp_path):
    """Every drive is a Fourier series, so the package needs neither, and
    scipy serves the oracle alone: a fresh process that imports the CLI and
    runs stability, kam, the factored propagate, whose psi is a closed
    form, and the single-exponential one, whose matrix_exp is numpy's eigh,
    loads no scipy module at all (numpy's FFT is the package's only one)."""
    env = dict(os.environ)
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(floquet_lab.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    stability = ["stability", shipped_config_path("nonresonant.json"), "--periods", "4", "--samples", "2",
                 "--out-csv", str(tmp_path / "s.csv")]
    kam = ["kam", shipped_config_path("kam_golden.json"),
           "--out-history", str(tmp_path / "h.csv"), "--out-result", str(tmp_path / "r.json")]
    propagate = ["propagate", shipped_config_path("resonant_growth.json"), "--t", "30.7", "--s", "0.2",
                 "--form", "factored", "--out", str(tmp_path / "u.json")]
    single = ["propagate", shipped_config_path("nonresonant.json"), "--t", "20.3", "--s", "0.7",
              "--form", "single-exp", "--out", str(tmp_path / "v.json")]
    code = (
        "import contextlib, io, sys, floquet_lab.cli as cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [cli.main({stability!r}), cli.main({kam!r}), cli.main({propagate!r}), cli.main({single!r})]\n"
        "print(codes, sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert done.stdout.strip() == "[0, 0, 0, 0] []"


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
            ({"t": "abc"}, {}, "drive.samples.t must be a list of finite numbers"),
            ({"f": ["x"] * len(_SAMPLES["f"])}, {}, "drive.samples.f[0] must be a finite number"),
        ],
        ids=["uneven", "three", "null_value", "order", "fourier_too", "times_text", "values_text"],
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
