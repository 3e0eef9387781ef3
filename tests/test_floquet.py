import math

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from floquet_lab import (
    Classification,
    DriveSpec,
    InvalidIntervalError,
    NumericError,
    OscillatorParams,
    ResonanceError,
    Truncation,
    build_HF,
    build_SF,
    build_UF,
    classify_monodromy,
    energy_bound_constant,
    eval_drive,
    floquet_scalar_derivs,
    floquet_scalars,
    hamiltonian_at,
    higher_order_bound_check,
    matrix_exp,
    propagator_factored,
    propagator_single_exp,
    stability_scan,
    transition_bound_check,
)
import floquet_lab.drive_model as drive_model_module
import floquet_lab.floquet as floquet_module
from floquet_lab import cli
from floquet_lab.cli import shipped_config_path
from floquet_lab.core_fock import number_basis_energies, xp_operators
from floquet_lab.floquet import _sup_sf_norm
from floquet_lab.oracle import PeriodStepper, evolve_state
from floquet_lab.drive_model import _chi
from floquet_lab.propagator import _factored_states

P12 = 13  # projector onto the lowest 13 number states


class TestClassification:
    def test_non_resonant(self, drive_nonres, params_nonres):
        assert classify_monodromy(drive_nonres, params_nonres) is Classification.NON_RESONANT

    def test_resonant_coupled(self, drive_res, params_res):
        assert (
            classify_monodromy(drive_res, params_res)
            is Classification.RESONANT_ABSOLUTELY_CONTINUOUS
        )

    def test_resonant_decoupled(self, drive_identity, params_res):
        assert (
            classify_monodromy(drive_identity, params_res)
            is Classification.RESONANT_IDENTITY_MULTIPLE
        )

    def test_strong_decoupled_drive_is_an_identity_multiple(self, params_res):
        """f_{+-1} is exactly 0 however strong the second harmonic; a
        quadrature of f_{+-1} would leave noise above the 1e-12 tolerance."""
        spec = DriveSpec.from_fourier(params_res.period_T, {2: -5e4j, -2: 5e4j})
        assert classify_monodromy(spec, params_res) is Classification.RESONANT_IDENTITY_MULTIPLE

    def test_period_mismatch_rejected(self, drive_nonres):
        bad = OscillatorParams(omega=1.0, period_T=3.0)
        with pytest.raises(ValueError):
            classify_monodromy(drive_nonres, bad)


class TestQuasiEnergy:
    def test_hf_hermitian(self, drive_nonres, params_nonres, trunc48):
        hf = build_HF(drive_nonres, params_nonres, trunc48)
        m = hf.entries
        assert np.linalg.norm(m - m.conj().T, 2) <= 1e-12

    def test_resonant_period_rejected(self, drive_res, params_res, trunc48):
        with pytest.raises(ResonanceError):
            build_HF(drive_res, params_res, trunc48)

    def test_huge_drive_is_a_numeric_error(self, params_nonres, trunc48):
        """mu**2 overflows a float once the amplitude passes about 1e154;
        numpy warns of the overflow on the way."""
        huge = DriveSpec.sine(params_nonres.period_T, amplitude=1e200)
        with pytest.warns(RuntimeWarning, match="overflow"), pytest.raises(NumericError):
            build_HF(huge, params_nonres, trunc48)

    def test_huge_frequency_is_no_overflow_error(self):
        """omega = 1e103 puts omega^3 past the float range; the U_F phase
        takes 4 omega (omega Delta)^2 as products, so build_UF returns or
        fails typed, never with OverflowError."""
        params = OscillatorParams(omega=1e103, period_T=1.37e-100)
        spec = DriveSpec.sine(params.period_T, amplitude=0.05)
        assert classify_monodromy(spec, params) is Classification.NON_RESONANT
        try:
            build_UF(spec, params, Truncation(n_keep=8, n_pad=8), 0.3e-100)
        except NumericError:
            pass

    def test_monodromy_eigenphases(self, drive_nonres, params_nonres, trunc48):
        """U(T, 0) and exp(-i T H_F) share their kept-block spectrum.

        Both matrices are trimmed from padded unitaries, so they are not
        normal and their eigenvalues are matched by assignment rather
        than by sort order.
        """
        big_t = params_nonres.period_T
        u = propagator_factored(drive_nonres, params_nonres, trunc48, big_t, 0.0).entries
        hf_pad = build_HF(
            drive_nonres, params_nonres, Truncation(trunc48.dim, 0)
        ).entries
        v = matrix_exp(-1j * big_t * hf_pad)[: trunc48.n_keep, : trunc48.n_keep]
        lam = np.linalg.eigvals(u)
        mu = np.linalg.eigvals(v)
        cost = np.abs(lam[:, None] - mu[None, :])
        rows, cols = linear_sum_assignment(cost)
        assert cost[rows, cols].max() <= 1e-6


class TestDecomposition:
    def test_uf_at_zero_is_identity(self, drive_nonres, params_nonres, trunc48):
        u0 = build_UF(drive_nonres, params_nonres, trunc48, 0.0).entries
        assert np.array_equal(u0, np.eye(trunc48.n_keep))

    def test_uf_makes_no_dense_eigensolve(self, forbid_dense_eigh, drive_nonres, params_nonres, trunc48):
        """U_F(t) takes its x and p factors from the exact entries of the
        displacement, with no eigensolve at all, and matches the product of
        two dense exponentials on the kept block."""
        omega, n = params_nonres.omega, trunc48.n_keep
        x, p = xp_operators(omega, trunc48.dim)
        ts = (0.37 * params_nonres.period_T, 2.2, 7.9)
        refs = []
        for t in ts:
            fs = floquet_scalars(drive_nonres, params_nonres, t)
            u = matrix_exp(1j * fs.f2 * x) @ matrix_exp(1j * (fs.f1 / omega) * p)
            refs.append(np.exp(1j * fs.big_phi) * u[:n, :n])
        forbid_dense_eigh()
        for t, ref in zip(ts, refs):
            assert np.abs(build_UF(drive_nonres, params_nonres, trunc48, t).entries - ref).max() <= 1e-13
        with pytest.raises(AssertionError, match="eigh"):  # the guard sees matrix_exp
            matrix_exp(1j * np.eye(3))

    def test_uf_periodicity(self, drive_nonres, params_nonres, trunc48):
        big_t = params_nonres.period_T
        for t in (0.0, 0.37 * big_t, 0.81 * big_t):
            a = build_UF(drive_nonres, params_nonres, trunc48, t).entries
            b = build_UF(drive_nonres, params_nonres, trunc48, t + big_t).entries
            assert np.linalg.norm(a - b, 2) <= 1e-7

    def test_propagator_splits(self, drive_nonres, params_nonres, trunc48):
        """U(t, 0) = U_F(t) exp(-i t H_F) on the low-lying block."""
        big_t = params_nonres.period_T
        hf_pad = build_HF(
            drive_nonres, params_nonres, Truncation(trunc48.dim, 0)
        ).entries
        for t in (0.31 * big_t, 1.62 * big_t, 3.9 * big_t):
            u = propagator_factored(drive_nonres, params_nonres, trunc48, t, 0.0).entries
            uf = build_UF(drive_nonres, params_nonres, trunc48, t).entries
            rot = matrix_exp(-1j * t * hf_pad)[: trunc48.n_keep, : trunc48.n_keep]
            dev = np.linalg.norm((u - uf @ rot)[:P12, :P12], 2)
            assert dev <= 1e-6

    def test_generator_matches_at_zero(self, drive_nonres, params_nonres, trunc48):
        """H(0) = H_F + S_F(0)."""
        n = trunc48.n_keep
        h0 = hamiltonian_at(drive_nonres, params_nonres, 0.0, n)
        hf = build_HF(drive_nonres, params_nonres, trunc48).entries
        sf = build_SF(drive_nonres, params_nonres, trunc48, 0.0).entries
        assert np.linalg.norm(h0 - hf - sf, 2) <= 1e-8

    def test_sf_is_hermitian(self, drive_nonres, params_nonres, trunc48):
        sf = build_SF(drive_nonres, params_nonres, trunc48, 1.234).entries
        assert np.linalg.norm(sf - sf.conj().T, 2) <= 1e-9

    def test_sf_finite_difference(self, drive_nonres, params_nonres, trunc48):
        """S_F = i U_F^{-1} dU_F/dt, checked by the fourth-order central
        difference, whose truncation eps^4 and round-off 1/eps balance near
        eps = 1e-3."""
        t0 = 0.42 * params_nonres.period_T
        eps = 1e-3
        half = trunc48.n_keep // 2
        dim = trunc48.dim
        big = Truncation(dim, 0)

        def u_f(t):
            return build_UF(drive_nonres, params_nonres, big, t).entries

        dudt = (8.0 * (u_f(t0 + eps) - u_f(t0 - eps)) - (u_f(t0 + 2 * eps) - u_f(t0 - 2 * eps))) / (12 * eps)
        approx = 1j * np.linalg.inv(u_f(t0)) @ dudt
        sf = build_SF(drive_nonres, params_nonres, Truncation(dim, 0), t0).entries
        assert np.linalg.norm((approx - sf)[:half, :half], 2) <= 1e-9

    def test_sampled_drive_matches_fourier(self, drive_nonres, params_nonres, trunc48):
        big_t = params_nonres.period_T
        ts = np.linspace(0.0, big_t, 64, endpoint=False)
        fs = 0.05 * np.sin(2 * math.pi * ts / big_t)
        sampled = DriveSpec.from_samples(big_t, ts, fs)
        for build in (build_HF, lambda *a: build_SF(*a, 0.1), lambda *a: build_UF(*a, 0.7 * big_t)):
            want = build(drive_nonres, params_nonres, trunc48).entries
            got = build(sampled, params_nonres, trunc48).entries
            assert np.linalg.norm(got - want, 2) <= 1e-12

    def test_bundle(self, drive_nonres, params_nonres):
        """The scalars behind H_F, U_F and S_F: F1 = F2 = Phi = 0 at t = 0,
        and the exact derivatives agree with central differences."""
        sc = floquet_scalars(drive_nonres, params_nonres, 0.0)
        assert sc.f1 == pytest.approx(0.0, abs=1e-12)
        assert sc.f2 == pytest.approx(0.0, abs=1e-12)
        assert sc.big_phi == pytest.approx(0.0, abs=1e-12)
        eps = 1e-6
        sp = floquet_scalars(drive_nonres, params_nonres, 1.0 + eps)
        sm = floquet_scalars(drive_nonres, params_nonres, 1.0 - eps)
        derivs = floquet_scalar_derivs(drive_nonres, params_nonres, 1.0)
        for name, d in zip(("f1", "f2", "big_phi"), derivs):
            num = (getattr(sp, name) - getattr(sm, name)) / (2 * eps)
            assert d == pytest.approx(num, abs=1e-6)


class TestResonantMonodromy:
    def test_decoupled_drive_gives_scalar_monodromy(self, drive_identity, params_res):
        """With the resonant Fourier mode absent, U(T, 0) is a phase times
        the identity."""
        trunc = Truncation(n_keep=32, n_pad=32)
        u = propagator_factored(drive_identity, params_res, trunc, params_res.period_T, 0.0).entries
        phase = u[0, 0] / abs(u[0, 0])
        assert np.linalg.norm(u - phase * np.eye(trunc.n_keep), 2) <= 1e-7

    def test_coupled_drive_does_not(self, drive_res, params_res):
        trunc = Truncation(n_keep=32, n_pad=32)
        u = propagator_factored(drive_res, params_res, trunc, params_res.period_T, 0.0).entries
        phase = u[0, 0] / abs(u[0, 0])
        assert np.linalg.norm(u - phase * np.eye(trunc.n_keep), 2) > 1e-3


class TestStabilityScan:
    def test_non_resonant_bounded(self, drive_nonres, params_nonres, trunc48, ground_state):
        report = stability_scan(
            drive_nonres, params_nonres, trunc48, ground_state, n_periods=30, samples_per_period=4
        )
        assert report.classification is Classification.NON_RESONANT
        assert report.verdict == "bounded"
        assert report.paper_bound is not None
        assert report.sup_bound <= report.paper_bound * (1.0 + 1e-6)
        assert abs(report.fit_exponent) < 0.2
        assert not report.leak_warning

    def test_resonant_grows_quadratically(self, drive_res, params_res, ground_state):
        trunc = Truncation(n_keep=96, n_pad=48)
        report = stability_scan(
            drive_res, params_res, trunc, ground_state, n_periods=40, samples_per_period=4
        )
        assert report.classification is Classification.RESONANT_ABSOLUTELY_CONTINUOUS
        assert report.verdict == "growing"
        assert report.paper_bound is None
        assert 1.5 < report.fit_exponent < 2.5

    def test_fit_exponent_rows_are_polyfit_bit_for_bit(self, params_nonres):
        """The design matrix is built once per time grid and each row is one
        lstsq against it: a 2-d batch gives, row by row, the 1-d call and
        np.polyfit's slope exactly, an all-zero row included; a grid with
        fewer than two positive times in its last half gives 0.0."""
        from floquet_lab.floquet import _fit_exponent, _time_grid

        rng = np.random.default_rng(9)
        for periods, samples in ((1, 2), (3, 2), (24, 4), (30, 5)):
            t = _time_grid(params_nonres, periods, samples)
            rows = np.abs(rng.standard_normal((6, t.size))) * np.exp(rng.uniform(-40.0, 10.0, (6, 1)))
            rows *= (1.0 + t) ** rng.uniform(0.0, 3.0, (6, 1))
            rows[0] = 0.0
            keep = t[t.size // 2 :] > 0
            for row, slope in zip(rows, _fit_exponent(t, rows)):
                tail = row[t.size // 2 :][keep]
                ref = np.polyfit(np.log(t[t.size // 2 :][keep]), np.log(np.maximum(tail, 1e-14)), 1)[0]
                assert slope == _fit_exponent(t, row) == float(ref)
        t = _time_grid(params_nonres, 1, 1)
        assert (t[t.size // 2 :] > 0).sum() < 2
        assert _fit_exponent(t, np.ones((2, t.size))) == [0.0, 0.0] and _fit_exponent(t, np.ones(t.size)) == 0.0

    def test_bad_arguments(self, drive_nonres, params_nonres, trunc48, ground_state):
        with pytest.raises(ValueError):
            stability_scan(drive_nonres, params_nonres, trunc48, ground_state, n_periods=0)
        with pytest.raises(ValueError):
            stability_scan(
                drive_nonres, params_nonres, trunc48, ground_state, 5, samples_per_period=0
            )

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            ({"n_periods": 2.5}, "n_periods"),
            ({"n_periods": True}, "n_periods"),
            ({"n_periods": 4, "samples_per_period": 3.5}, "samples_per_period"),
            ({"n_periods": 4, "samples_per_period": "8"}, "samples_per_period"),
        ],
    )
    def test_non_integer_counts_are_refused_first(self, drive_nonres, trunc48, ground_state, kwargs, name):
        """A count that is not an integer is named before the periods are
        checked: these params disagree with the drive's period."""
        other_period = OscillatorParams(omega=1.0, period_T=3.0)
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            stability_scan(drive_nonres, other_period, trunc48, ground_state, **kwargs)

    def test_report_serialization(self, drive_nonres, params_nonres, trunc48, ground_state):
        report = stability_scan(
            drive_nonres, params_nonres, trunc48, ground_state, n_periods=2, samples_per_period=2
        )
        d = report.to_json_dict()
        assert d["verdict"] == "bounded"
        assert d["classification"] == "NonResonant"
        csv_text = report.to_csv_text()
        lines = csv_text.strip().splitlines()
        assert lines[0].startswith("t,")
        first = lines[1].split(",")
        assert len(first) == 4
        float(first[0])

    def test_energy_bound_constant_finite(self, drive_nonres, params_nonres, trunc48, ground_state):
        c = energy_bound_constant(drive_nonres, params_nonres, trunc48, ground_state)
        assert math.isfinite(c) and c > 0.0

    @pytest.mark.parametrize("count", [9.5, True, None])
    def test_energy_bound_constant_refuses_a_non_integer_count(self, drive_nonres, params_nonres, trunc48, count):
        with pytest.raises(ValueError, match="^sup_samples must be an integer"):
            energy_bound_constant(drive_nonres, params_nonres, trunc48, np.ones(30), sup_samples=count)

    def test_energy_bound_constant_norms_are_exact_on_the_support_plus_one(self):
        """fock:24 at n_keep 48: C_psi = ||H_F psi|| + a ||(H_F + i) psi||
        with both norms from a 200-level H_F (a cut at level 24 reads 5e-5
        relative low) and a on levels 0..24 over 9 samples."""
        spec, params, trunc, _, _ = cli._load_config(shipped_config_path("nonresonant.json"))
        m = Truncation(n_keep=trunc.n_keep // 2 + 1)
        inv_shifted = np.linalg.inv(build_HF(spec, params, m).entries + 1j * np.eye(m.n_keep))
        a = max(
            np.linalg.norm(build_SF(spec, params, m, j * params.period_T / 8).entries @ inv_shifted, 2)
            for j in range(9)
        )
        assert a == pytest.approx(0.057271006579, rel=1e-10)
        psi = np.zeros(200, dtype=complex)
        psi[24] = 1.0
        hf_psi = build_HF(spec, params, Truncation(n_keep=200)).entries @ psi
        expected = np.linalg.norm(hf_psi) + a * np.linalg.norm(hf_psi + 1j * psi)
        assert energy_bound_constant(spec, params, trunc, psi[:25]) == pytest.approx(expected, rel=1e-12, abs=0)

    def test_energy_bound_constant_takes_any_state_of_the_working_dimension(
        self, drive_nonres, params_nonres, trunc48
    ):
        """The top level of the working dimension gets a bound at least its
        energy; one level more does not fit."""
        top = np.eye(trunc48.dim)[-1]
        assert energy_bound_constant(drive_nonres, params_nonres, trunc48, top) > trunc48.dim - 0.5
        with pytest.raises(ValueError, match="^psi0 has 97 components"):
            energy_bound_constant(drive_nonres, params_nonres, trunc48, np.eye(trunc48.dim + 1)[-1])

    @pytest.mark.parametrize("level", [0, 30])
    def test_trailing_zeros_give_the_same_report(self, monkeypatch, drive_nonres, params_nonres, trunc48, level):
        """psi0 is cut after its last nonzero level, so padding it to the
        working dimension changes no number and the leak meter evolves only
        the levels up to it."""
        sizes = []
        real = floquet_module._factored_states

        def spy(params, chi, psi0, t_grid, rows):
            sizes.append(psi0.size)
            return real(params, chi, psi0, t_grid, rows)

        monkeypatch.setattr(floquet_module, "_factored_states", spy)
        padded = stability_scan(drive_nonres, params_nonres, trunc48, np.eye(trunc48.dim)[level], 20)
        minimal = stability_scan(drive_nonres, params_nonres, trunc48, np.eye(level + 1)[level], 20)
        assert padded.to_json_dict() == minimal.to_json_dict()
        assert padded.paper_bound is not None
        assert sizes == [level + 1, level + 1]


def _count_segment_builds(monkeypatch) -> list:
    """Record the start of every segment PeriodStepper actually steps."""
    starts = []
    real = PeriodStepper._stepped

    def spy(self, s, t, n_steps, *keep):
        starts.append(s)
        return real(self, s, t, n_steps, *keep)

    monkeypatch.setattr(PeriodStepper, "_stepped", spy)
    return starts


class TestStabilityScanWork:
    """stability and resonance-scan step nothing: their energies are the
    full-space closed forms, stability's leak meter takes its states from the
    factored form, and a resonance-scan row evolves no state at all.  The
    oracle's segment reuse is counted through evolve_state on the grids they
    use.  On T = 2 pi sqrt(2) (the shipped nonresonant period), fmod(9 T, T)
    returns T less an ulp; that start must reuse the segment from 0."""

    def _nonresonant(self):
        spec, params, trunc, opts, _ = cli._load_config(shipped_config_path("nonresonant.json"))
        big_t = params.period_T
        assert round(math.fmod(9 * big_t, big_t) / big_t, 12) == 1.0
        return spec, params, trunc, opts

    def test_resonance_scan_row_builds_each_segment_once(self, monkeypatch, ground_state):
        """The omega = 0.9 row grid: 24 periods, 4 samples each, 96 steps."""
        spec, params, trunc, _ = self._nonresonant()
        row_params = OscillatorParams(omega=0.9, period_T=params.period_T)
        starts = _count_segment_builds(monkeypatch)
        evolve_state(spec, row_params, trunc, ground_state, np.linspace(0.0, 24 * params.period_T, 97), 96)
        assert len(starts) == 4
        assert starts[0] == 0.0

    def test_stability_builds_each_segment_once(self, monkeypatch, ground_state):
        """The grid of stability --periods 10 --samples 8."""
        spec, params, trunc, opts = self._nonresonant()
        starts = _count_segment_builds(monkeypatch)
        evolve_state(spec, params, trunc, ground_state, np.linspace(0.0, 10 * params.period_T, 81),
                     opts["steps_per_period"])
        assert len(starts) == 8

    def test_repeated_stability_steps_nothing(self, monkeypatch, tmp_path):
        """Neither stability nor resonance-scan steps a segment, and a second
        stability run writes the same bytes."""
        starts = _count_segment_builds(monkeypatch)
        outs = []
        for run in ("a", "b"):
            csv = tmp_path / f"{run}.csv"
            rc = cli.main(["stability", shipped_config_path("nonresonant.json"), "--periods", "10",
                           "--samples", "8", "--out-csv", str(csv)])
            assert rc == 0
            outs.append((csv.read_bytes(), (tmp_path / f"{run}.verdict.json").read_bytes()))
        assert cli.main(["resonance-scan", shipped_config_path("nonresonant.json"), "--omega-range", "0.9:1.0",
                         "--steps", "2", "--out-csv", str(tmp_path / "scan.csv")]) == 0
        assert starts == []
        assert outs[0] == outs[1]

    def test_resonance_scan_row_evolves_no_state(self, monkeypatch, tmp_path):
        """A row needs no state, no psi and no C_psi; the rows include
        omega = 1/sqrt(2), a resonance of the shipped period."""

        def forbidden(name):
            def call(*args, **kwargs):
                raise AssertionError(f"{name} was called")
            return call

        for module, name in [(floquet_module, "_factored_states"), (cli, "_factored_states"),
                             (cli, "_psi"), (drive_model_module, "_psi"),
                             (floquet_module, "energy_bound_constant")]:
            monkeypatch.setattr(module, name, forbidden(name))
        out = tmp_path / "scan.csv"
        for window in (f"{1.0 / math.sqrt(2)!r}:0.9", "0.9:1.0"):
            assert cli.main(["resonance-scan", shipped_config_path("nonresonant.json"), "--omega-range", window,
                             "--steps", "2", "--out-csv", str(out)]) == 0
            for line in out.read_text().splitlines()[1:]:
                row = line.split(",")
                assert len(row) == 4 and all(math.isfinite(float(v)) for v in (row[0], row[2], row[3]))

    def test_stability_evaluates_only_the_monodromy_psi(self, monkeypatch, ground_state):
        """The leak meter reads only |psi_t|^2, from which the global phase
        e^{-i psi(t, 0)} drops out: the one psi that stability_scan takes is
        the monodromy's, at (T, 0), and none on the trajectory grid.  The
        memo is cleared first, so no earlier test can have taken that psi."""
        spec, params, trunc, _ = self._nonresonant()
        calls = []

        def recorded(original):
            return lambda spec, omega, t, s: calls.append((t, s)) or original(spec, omega, t, s)

        for module in (drive_model_module, cli):
            monkeypatch.setattr(module, "_psi", recorded(module._psi), raising=True)
        drive_model_module._monodromy_scalars.cache_clear()
        report = stability_scan(spec, params, trunc, ground_state, n_periods=6, samples_per_period=4)
        assert np.all(np.isfinite(report.high_mode_population))
        assert calls == [(params.period_T, 0.0)]

    def test_output_does_not_depend_on_earlier_runs(self, tmp_path):
        """A 20-period run writes the same bytes after a 13-period one as
        on its own."""
        cfg = shipped_config_path("resonant_growth.json")

        def run(periods, name):
            csv = tmp_path / f"{name}.csv"
            assert cli.main(["stability", cfg, "--periods", str(periods), "--samples", "4",
                             "--out-csv", str(csv)]) == 0
            return csv.read_bytes()

        fresh = run(20, "fresh")
        run(13, "earlier")
        assert run(20, "after") == fresh

    def test_energies_match_dense_per_sample_reference(self, monkeypatch, ground_state):
        spec, params, trunc, _ = self._nonresonant()
        grids = []
        real = floquet_module.eval_drive
        monkeypatch.setattr(floquet_module, "eval_drive", lambda sp, t: grids.append(t) or real(sp, t))
        report = stability_scan(spec, params, trunc, ground_state, n_periods=6, samples_per_period=4)
        assert len(grids) == 1 and np.shape(grids[0]) == report.t_grid.shape
        chi = _chi(spec, params.omega, report.t_grid, 0.0)
        states = _factored_states(params, chi, ground_state, report.t_grid, trunc.dim)
        x, _ = xp_operators(params.omega, trunc.dim)
        h0 = np.diag(number_basis_energies(params.omega, trunc.dim)).astype(complex)
        for i, ti in enumerate(report.t_grid):
            v = (h0 + float(real(spec, ti)) * x) @ states[i]
            assert report.energy_norms[i] == pytest.approx(np.linalg.norm(v), rel=1e-12)
            assert report.mean_energy[i] == pytest.approx(np.real(np.vdot(states[i], v)), rel=1e-12)


def test_leak_meter_is_the_poisson_tail():
    """stability resonant_growth.json --periods 200 --samples 4 from the
    ground state: psi_t is the coherent state of mean number
    |beta_t|^2 = |chi(t, 0)|^2/(2 omega), so high_mode_population is the
    Poisson tail P(N >= n_keep), here summed term by term in logarithms.
    Each row matches it to 1e-10 wherever it exceeds 1e-280, none is
    negative, and the late rows read 1: the state has left the kept block,
    as the "growing" verdict says."""
    spec, params, trunc, _, _ = cli._load_config(shipped_config_path("resonant_growth.json"))
    report = stability_scan(spec, params, trunc, np.ones(1, dtype=complex), n_periods=200, samples_per_period=4)
    assert report.verdict == "growing"
    mean = np.abs(_chi(spec, params.omega, report.t_grid, 0.0)) ** 2 / (2.0 * params.omega)
    n = trunc.n_keep

    def tail(lam: float) -> float:
        if lam == 0.0:
            return 0.0
        ks = np.arange(n, n + int(lam + 40.0 * math.sqrt(lam) + 200.0))
        log_terms = ks * math.log(lam) - lam - np.array([math.lgamma(k + 1.0) for k in ks])
        return math.fsum(np.exp(log_terms))

    expected = np.array([tail(lam) for lam in mean])
    got = report.high_mode_population
    assert np.all(got >= 0.0)
    seen = expected > 1e-280
    assert seen.sum() > 700
    np.testing.assert_allclose(got[seen], expected[seen], rtol=1e-10, atol=0.0)
    assert np.all(got[~seen] <= 1e-279)
    assert np.all(got[-40:] > 1.0 - 1e-12)


@pytest.mark.parametrize("state, periods", [("fock:20", 60), ("fock:100", 60), ("coherent:2-1j", 60), ("fock:127", 30)])
def test_leak_meter_holds_the_whole_tail_of_a_state_on_many_levels(state, periods):
    """For psi0 on K levels the leak meter sums |psi_t|^2 over
    (max(sqrt(n_keep), |beta| + sqrt(K)) + 8)^2 levels, or takes 1 minus
    the kept weight; either matches the weight above n_keep of the same
    states on 1500 levels to 1e-12 relative (resonant_growth, where |beta|
    reaches 6.7 by 60 periods and fock:127 keeps about half its weight
    above level 127)."""
    spec, params, trunc, _, _ = cli._load_config(shipped_config_path("resonant_growth.json"))
    psi0 = cli._parse_state(state, trunc)
    report = stability_scan(spec, params, trunc, psi0, n_periods=periods, samples_per_period=4)
    chi = _chi(spec, params.omega, report.t_grid, 0.0)
    states = _factored_states(params, chi, psi0, report.t_grid, 1500)
    expected = np.sum(np.abs(states[:, trunc.n_keep :]) ** 2, axis=1)
    np.testing.assert_allclose(report.high_mode_population, expected, rtol=1e-12, atol=1e-300)


class TestExactEnergies:
    """The full-space energies ||K(t) psi0|| and <psi0, K(t) psi0> against
    H(t) psi_t of the truncated factored states, which agree while the
    states stay inside the working space."""

    @pytest.mark.parametrize("state", ["ground", "fock:5", "coherent:1.2+0.7j"])
    @pytest.mark.parametrize("name", ["nonresonant", "resonant_identity", "resonant_growth"])
    def test_match_the_truncated_states(self, name, state):
        spec, params, trunc, _, _ = cli._load_config(shipped_config_path(name + ".json"))
        psi0 = cli._parse_state(state, trunc)
        report = stability_scan(spec, params, trunc, psi0, n_periods=20, samples_per_period=4)
        energy_norms, mean_energy = floquet_module._exact_energies(spec, params.omega, psi0, report.t_grid)
        np.testing.assert_array_equal(report.energy_norms, energy_norms)
        np.testing.assert_array_equal(report.mean_energy, mean_energy)
        chi = _chi(spec, params.omega, report.t_grid, 0.0)
        states = _factored_states(params, chi, psi0, report.t_grid, trunc.dim)
        pad_population = np.sum(np.abs(states[:, trunc.n_keep :]) ** 2, axis=1).max()
        assert pad_population <= 1e-20, (
            f"{name} {state}: the truncated state leaks {pad_population:.3g} into the pad, "
            "so it is no longer a reference for the full-space energies"
        )
        h_states = np.array(
            [hamiltonian_at(spec, params, t, trunc.dim) @ v for t, v in zip(report.t_grid, states)]
        )
        np.testing.assert_allclose(energy_norms, np.linalg.norm(h_states, axis=1), rtol=1e-13, atol=0)
        mean = np.real(np.sum(states.conj() * h_states, axis=1))
        np.testing.assert_allclose(mean_energy, mean, rtol=0, atol=1e-12)


class TestStabilityScanAgainstOracle:
    """The closed-form report against one computed from evolve_state's
    states at 768 steps per period, where the oracle's CF4 error is about
    1e-12 of the energies."""

    @pytest.mark.parametrize("name", ["nonresonant", "resonant_identity", "resonant_growth"])
    def test_energies_match_the_oracle(self, name, ground_state):
        spec, params, trunc, _, _ = cli._load_config(shipped_config_path(name + ".json"))
        report = stability_scan(spec, params, trunc, ground_state, n_periods=6, samples_per_period=4)
        states = evolve_state(spec, params, trunc, ground_state, report.t_grid, 768)
        x, _ = xp_operators(params.omega, trunc.dim)
        f = eval_drive(spec, report.t_grid)
        h_states = number_basis_energies(params.omega, trunc.dim) * states + f[:, None] * (states @ x.T)
        np.testing.assert_allclose(report.energy_norms, np.linalg.norm(h_states, axis=1), rtol=1e-11, atol=0)
        mean = np.real(np.sum(states.conj() * h_states, axis=1))
        np.testing.assert_allclose(report.mean_energy, mean, rtol=1e-11, atol=0)


class TestTransitionBound:
    PAIRS = [
        ((0.0, 1.2), (2.3, 3.6)),
        ((0.2, 2.2), (4.0, 6.2)),
        ((1.3, 2.8), (7.0, 9.5)),
    ]

    @pytest.mark.parametrize("iv1,iv2", PAIRS)
    def test_bound_holds(self, drive_nonres, params_nonres, trunc48, iv1, iv2):
        report = transition_bound_check(
            drive_nonres, params_nonres, trunc48, 0.7 * params_nonres.period_T, 0.0, iv1, iv2
        )
        assert report.ok
        assert report.lhs > 0.0
        assert report.rhs == pytest.approx(2.0 * _sup_sf_norm(drive_nonres, params_nonres, trunc48) / report.dist)

    def test_both_checks_make_no_dense_eigensolve(self, forbid_dense_eigh, drive_nonres, params_nonres, trunc48):
        """The levels of H(t) and H(s) are closed forms and lhs one block of
        one displacement, so neither check diagonalizes anything."""
        forbid_dense_eigh()
        t = 0.7 * params_nonres.period_T
        for iv1, iv2 in self.PAIRS:
            assert transition_bound_check(drive_nonres, params_nonres, trunc48, t, 0.0, iv1, iv2).ok
            report = higher_order_bound_check(drive_nonres, params_nonres, trunc48, 2, t, 0.0, iv1, iv2, grid_points=4)
            assert report.ok and report.lhs > 0.0

    @pytest.mark.parametrize(
        "iv1,iv2", [((0.0, 3.0), (5.0, 9.0)), ((1.3, 2.8), (7.0, 9.5)), ((20.0, 23.9), (0.0, 3.0))]
    )
    def test_lhs_does_not_depend_on_the_block(self, drive_nonres, params_nonres, iv1, iv2):
        """Windows on levels below 24 read the same lhs at n_keep 24, 48 and
        96, down to the 2.8e-39 of levels 20..23 from levels 0..2, which a
        kept-block eigensolve reads up to 5e-3 apart at the three sizes."""
        lhs = [
            transition_bound_check(drive_nonres, params_nonres, Truncation(n), 2.5, 0.7, iv1, iv2).lhs
            for n in (24, 48, 96)
        ]
        assert lhs[0] > 1e-40
        assert lhs[1:] == pytest.approx([lhs[0]] * 2, rel=1e-13, abs=0)

    def test_short_elapsed_time(self, drive_nonres, params_nonres, trunc48):
        """t - s = 1e-3: lhs is about 1e-14 and matches the single
        exponential's eigh projection to 1e-15."""
        t, s, iv1, iv2 = 0.7 + 1e-3, 0.7, (0.0, 3.0), (5.0, 9.0)
        lhs = transition_bound_check(drive_nonres, params_nonres, trunc48, t, s, iv1, iv2).lhs
        want, _ = _reference_lhs(drive_nonres, params_nonres, t, s, iv1, iv2)
        assert 1e-15 < want < 1e-13
        assert abs(lhs - want) <= 1e-15

    def test_point_intervals_on_eigenvalues_pick_their_level(self, drive_nonres, params_nonres, trunc48):
        """The eigenvalue-resolved form on kept-block eigenvalues, which lie a
        few ulps off the closed-form levels: each point interval picks its
        level, and lhs is |<n(t)| U(t,s) |m(s)>| of the single exponential's
        eigh projection.  A point 1e-9 off the level picks none."""
        t, s = 0.7 * params_nonres.period_T, 0.0
        vals_t = np.linalg.eigh(hamiltonian_at(drive_nonres, params_nonres, t, 48).real)[0]
        vals_s = np.linalg.eigh(hamiltonian_at(drive_nonres, params_nonres, s, 48).real)[0]
        for n, m in ((0, 1), (2, 4), (5, 3)):
            e_n, e_m = vals_t[n], vals_s[m]
            lhs = transition_bound_check(drive_nonres, params_nonres, trunc48, t, s, (e_n, e_n), (e_m, e_m)).lhs
            windows = (e_n - 0.1, e_n + 0.1), (e_m - 0.1, e_m + 0.1)
            want, sizes = _reference_lhs(drive_nonres, params_nonres, t, s, *windows)
            assert sizes == (1, 1) and want >= 1e-8
            assert lhs == pytest.approx(want, rel=1e-12, abs=0)
            off = transition_bound_check(drive_nonres, params_nonres, trunc48, t, s, (e_n + 1e-9,) * 2, (e_m, e_m))
            assert off.lhs == 0.0

    def test_huge_drive_is_a_numeric_error(self, params_nonres, trunc48):
        """f(2.5)^2 overflows at amplitude 1e200: the levels of H(t) are
        refused before anything else runs, so numpy has nothing to warn of."""
        huge = DriveSpec.sine(params_nonres.period_T, amplitude=1e200)
        with pytest.raises(NumericError, match="levels .* not finite"):
            transition_bound_check(huge, params_nonres, trunc48, 2.5, 0.5 * params_nonres.period_T, *self.PAIRS[0])

    def test_overflowing_constant_is_a_numeric_error(self, params_nonres, trunc48):
        """At amplitude 1e160 the levels at t = 0 and s = T/2 are finite
        (f(T/2) is about 1e144) and lie outside the windows, and C_1
        overflows, of which numpy warns on the way (an overflow, then the
        invalid values it leads to)."""
        huge = DriveSpec.sine(params_nonres.period_T, amplitude=1e160)
        with pytest.warns(RuntimeWarning, match="overflow|invalid"):
            with pytest.raises(NumericError, match="C_1 .* not finite"):
                transition_bound_check(huge, params_nonres, trunc48, 0.0, 0.5 * params_nonres.period_T, *self.PAIRS[0])

    def test_overlapping_intervals_rejected(self, drive_nonres, params_nonres, trunc48):
        with pytest.raises(InvalidIntervalError):
            transition_bound_check(
                drive_nonres, params_nonres, trunc48, 1.0, 0.0, (0.0, 2.0), (1.0, 3.0)
            )
        with pytest.raises(InvalidIntervalError):
            transition_bound_check(
                drive_nonres, params_nonres, trunc48, 1.0, 0.0, (0.0, 1.0), (1.0, 2.0)
            )
        with pytest.raises(InvalidIntervalError):
            transition_bound_check(
                drive_nonres, params_nonres, trunc48, 1.0, 0.0, (2.0, 1.0), (3.0, 4.0)
            )


def _reference_sf(spec, params, t, dim):
    """S_F(t) assembled per time from the public scalars: F1 from
    floquet_scalars, F1', F2', Phi' from floquet_scalar_derivs."""
    omega = params.omega
    f1 = floquet_scalars(spec, params, t).f1
    d1, d2, dphi = floquet_scalar_derivs(spec, params, t)
    x, p = xp_operators(omega, dim)
    out = -(d1 / omega) * p - d2 * x
    out += (f1 * d2 / omega - dphi) * np.eye(dim)
    return out


def _reference_sup_sf(spec, params, dim, samples=64):
    """max ||S_F(tau)|| with one spectral norm per sampled matrix."""
    sup = 0.0
    for j in range(samples):
        tau = j * params.period_T / samples
        sup = max(sup, float(np.linalg.norm(_reference_sf(spec, params, tau, dim), 2)))
    return sup


def _reference_lhs(spec, params, t, s, iv1, iv2, n_keep=96):
    """||P(t, D1) U(t, s) P(s, D2)|| from a real eigh of H(t) and H(s) on
    a kept block of n_keep and propagator_single_exp there, with the window
    sizes."""
    u = propagator_single_exp(spec, params, Truncation(n_keep=n_keep), t, s).entries
    vals_t, vecs_t = np.linalg.eigh(hamiltonian_at(spec, params, t, n_keep).real)
    vals_s, vecs_s = np.linalg.eigh(hamiltonian_at(spec, params, s, n_keep).real)
    in_t = (vals_t >= iv1[0]) & (vals_t <= iv1[1])
    in_s = (vals_s >= iv2[0]) & (vals_s <= iv2[1])
    return float(np.linalg.norm(vecs_t[:, in_t].T @ u @ vecs_s[:, in_s], 2)), (in_t.sum(), in_s.sum())


def _sf_case(harmonics, ratio, omega=1.0, amp=1.0, signs=(1, -1)):
    """A Fourier drive with the given number of harmonics and
    T = ratio * 2 pi / omega; harmonic k has coefficient
    amp (signs[0] 0.02 + signs[1] 0.03 i) / k."""
    period = 2 * math.pi * ratio / omega
    coeffs = {}
    for k in range(1, harmonics + 1):
        c = amp * complex(signs[0] * 0.02 / k, signs[1] * 0.03 / k)
        coeffs[k], coeffs[-k] = c, c.conjugate()
    return DriveSpec.from_fourier(period, coeffs), OscillatorParams(omega=omega, period_T=period)


# 1-3 harmonics; the fractional part of T/T_osc on both sides of 0.5
SF_CASES = [(1, 1.37), (2, 2.64), (3, 1.21), (3, 2.83)]


class TestSFAgainstReference:
    """S_F and every bound built on it against the per-time assembly from
    the public scalar functions.  S_F and the bounds that take matrix norms
    of it are equal bit for bit.  The sup of ||S_F|| is computed by the exact
    identity ||S_F|| = |c| + sqrt(F1'^2 + F2'^2) ||x||, so it and the
    right-hand sides built on it equal one dense SVD per sample to ULP level
    (rel=1e-14)."""

    @pytest.fixture(params=SF_CASES, ids=lambda c: f"h{c[0]}-r{c[1]}")
    def case(self, request):
        return _sf_case(*request.param)

    @pytest.mark.parametrize("n_keep", [32, 48])
    def test_sf_and_sup(self, case, n_keep):
        spec, params = case
        trunc = Truncation(n_keep=n_keep)
        for frac in (0.0, 0.29, 0.71):
            t = frac * params.period_T
            got = build_SF(spec, params, trunc, t).entries
            want = _reference_sf(spec, params, t, n_keep)
            assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()
        assert _sup_sf_norm(spec, params, trunc) == pytest.approx(_reference_sup_sf(spec, params, n_keep), rel=1e-14)
        for samples in (1, 5, 70):
            assert _sup_sf_norm(spec, params, trunc, samples) == pytest.approx(
                _reference_sup_sf(spec, params, n_keep, samples), rel=1e-14
            )

    @pytest.mark.parametrize(
        "harmonics, ratio, amp", [(*c, 1.0) for c in SF_CASES] + [(2, 1.37, 10.0)], ids=lambda v: f"{v:g}"
    )
    def test_sf_is_h_conjugated_through_uf_less_hf(self, harmonics, ratio, amp):
        """S_F(t) = U_F(t)^dag H(t) U_F(t) - H_F on the leading 16 x 16 block,
        the right side from dense U_F, H(t) and H_F on 200 levels: matrix
        products that share no S_F coefficient formula with build_SF."""
        spec, params = _sf_case(harmonics, ratio, amp=amp)
        dim, n = 200, 16
        h_f = floquet_module._hf_matrix(spec, params, dim)
        for frac in (0.0, 0.29, 0.71):
            t = frac * params.period_T
            u_f = floquet_module._uf_matrix(spec, params, t, dim)
            want = (u_f.conj().T @ hamiltonian_at(spec, params, t, dim) @ u_f - h_f)[:n, :n]
            got = build_SF(spec, params, Truncation(n_keep=n), t).entries
            assert np.linalg.norm(got - want, 2) <= 1e-12 * np.linalg.norm(want, 2)

    @pytest.mark.parametrize("n_keep", [7, 33])
    @pytest.mark.parametrize("amp", [1.0, 10.0])
    @pytest.mark.parametrize("signs", [(1, -1), (-1, 1), (1, 1), (-1, -1)])
    def test_sup_identity(self, n_keep, amp, signs):
        """Odd blocks, a 10x drive and every sign pattern of the
        coefficients; F1' and F2' each take both signs over the samples."""
        spec, params = _sf_case(2, 1.37, amp=amp, signs=signs)
        derivs = np.array([floquet_scalar_derivs(spec, params, j * params.period_T / 64)[:2] for j in range(64)])
        assert np.all(derivs.min(axis=0) < 0.0) and np.all(derivs.max(axis=0) > 0.0)
        got = _sup_sf_norm(spec, params, Truncation(n_keep=n_keep))
        assert got == pytest.approx(_reference_sup_sf(spec, params, n_keep), rel=1e-14)

    def test_sampled_drive_matches_fourier(self):
        """Each drive given as 16 samples (a shifted grid, 3 harmonics at
        most, so the interpolant is the drive) has the same sup ||S_F||."""
        trunc = Truncation(n_keep=32)
        for spec, params in (_sf_case(*c) for c in SF_CASES):
            ts = (np.arange(16) + 0.3) * params.period_T / 16
            sampled = DriveSpec.from_samples(params.period_T, ts, eval_drive(spec, ts))
            assert _sup_sf_norm(sampled, params, trunc) == pytest.approx(_sup_sf_norm(spec, params, trunc), rel=1e-12)

    @pytest.mark.parametrize("n_keep", [32, 48])
    def test_energy_bound_constant(self, case, n_keep, ground_state):
        spec, params = case
        trunc = Truncation(n_keep=n_keep)
        m = n_keep // 2 + 1  # a on levels 0..n_keep/2
        samples = 8
        inv_shifted = np.linalg.inv(build_HF(spec, params, Truncation(n_keep=m)).entries + 1j * np.eye(m))
        sup = 0.0
        for j in range(samples):
            s_blk = _reference_sf(spec, params, j * params.period_T / samples, m)
            sup = max(sup, float(np.linalg.norm(s_blk @ inv_shifted, 2)))
        # the norms on psi's level and the one above it
        hf_psi = build_HF(spec, params, Truncation(n_keep=2)).entries[:, 0]
        expected = float(np.linalg.norm(hf_psi) + sup * np.linalg.norm(hf_psi + [1j, 0.0]))
        assert energy_bound_constant(spec, params, trunc, ground_state, samples) == expected

    @pytest.mark.parametrize("n_keep", [32, 48])
    def test_transition_bound_fields(self, case, n_keep):
        spec, params = case
        trunc = Truncation(n_keep=n_keep)
        t, s = 0.63 * params.period_T, 0.12 * params.period_T
        iv1, iv2 = (0.0, 1.2), (2.3, 3.6)
        report = transition_bound_check(spec, params, trunc, t, s, iv1, iv2)

        # lhs against a route that shares no step with it, on every window pair
        lhs, sizes = _reference_lhs(spec, params, t, s, iv1, iv2)
        for pair in TestTransitionBound.PAIRS[1:]:
            want, _ = _reference_lhs(spec, params, t, s, *pair)
            assert want >= 1e-8
            assert transition_bound_check(spec, params, trunc, t, s, *pair).lhs == pytest.approx(want, rel=1e-12, abs=0)
        dist = iv2[0] - iv1[1]
        rhs = 2.0 * _reference_sup_sf(spec, params, n_keep) / dist

        assert all(sizes) and lhs >= 1e-8
        assert (report.t, report.s, report.dist) == (t, s, dist)
        assert (report.interval_1, report.interval_2) == (iv1, iv2)
        assert report.lhs == pytest.approx(lhs, rel=1e-12, abs=0)
        assert (report.p, report.c_p) == (1, 2.0 * _sup_sf_norm(spec, params, trunc))
        assert report.rhs == report.c_p / dist
        assert report.rhs == pytest.approx(rhs, rel=1e-14)
        assert report.ok is (report.lhs <= rhs * (1.0 + 1e-6))


class TestSampleCounts:
    """A sup over no sample points is not a bound; each count is checked."""

    @pytest.mark.parametrize("count", [0, -5])
    def test_energy_bound_constant(self, drive_nonres, params_nonres, trunc48, ground_state, count):
        with pytest.raises(ValueError, match="sup_samples"):
            energy_bound_constant(drive_nonres, params_nonres, trunc48, ground_state, count)

    def test_one_sample_is_accepted(self, drive_nonres, params_nonres, trunc48, ground_state):
        assert math.isfinite(energy_bound_constant(drive_nonres, params_nonres, trunc48, ground_state, 1))

