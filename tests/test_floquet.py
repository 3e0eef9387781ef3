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
    stability_scan,
    transition_bound_check,
)
import floquet_lab.floquet as floquet_module
import floquet_lab.oracle as oracle_module
from floquet_lab import cli
from floquet_lab.cli import shipped_config_path
from floquet_lab.core_fock import number_basis_energies, xp_operators
from floquet_lab.floquet import _sup_sf_norm
from floquet_lab.oracle import PeriodStepper, evolve_state

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
        spec = DriveSpec.sine(params_res.period_T, amplitude=1e5, harmonic=2)
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
        """mu**2 overflows a float once the amplitude passes about 1e154."""
        huge = DriveSpec.sine(params_nonres.period_T, amplitude=1e200)
        with pytest.raises(NumericError):
            build_HF(huge, params_nonres, trunc48)

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
        """U_F(t) takes its x and p exponentials from the cached eigenbasis of
        x, and matches the product of two dense exponentials."""
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
        from floquet_lab.oracle import hamiltonian_at

        n = trunc48.n_keep
        h0 = hamiltonian_at(drive_nonres, params_nonres, 0.0, n)
        hf = build_HF(drive_nonres, params_nonres, trunc48).entries
        sf = build_SF(drive_nonres, params_nonres, trunc48, 0.0).entries
        assert np.linalg.norm(h0 - hf - sf, 2) <= 1e-8

    def test_sf_is_hermitian(self, drive_nonres, params_nonres, trunc48):
        sf = build_SF(drive_nonres, params_nonres, trunc48, 1.234).entries
        assert np.linalg.norm(sf - sf.conj().T, 2) <= 1e-9

    def test_sf_finite_difference(self, drive_nonres, params_nonres, trunc48):
        """S_F = i U_F^{-1} dU_F/dt, checked by central differences."""
        t0 = 0.42 * params_nonres.period_T
        eps = 1e-6
        half = trunc48.n_keep // 2
        dim = trunc48.dim
        big = Truncation(dim, 0)
        up = build_UF(drive_nonres, params_nonres, big, t0 + eps).entries
        dn = build_UF(drive_nonres, params_nonres, big, t0 - eps).entries
        mid = build_UF(drive_nonres, params_nonres, big, t0).entries
        approx = 1j * np.linalg.inv(mid) @ ((up - dn) / (2 * eps))
        sf = build_SF(drive_nonres, params_nonres, Truncation(dim, 0), t0).entries
        assert np.linalg.norm((approx - sf)[:half, :half], 2) <= 1e-5

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

    def test_bad_arguments(self, drive_nonres, params_nonres, trunc48, ground_state):
        with pytest.raises(ValueError):
            stability_scan(drive_nonres, params_nonres, trunc48, ground_state, n_periods=0)
        with pytest.raises(ValueError):
            stability_scan(
                drive_nonres, params_nonres, trunc48, ground_state, 5, samples_per_period=0
            )

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


def _count_segment_builds(monkeypatch) -> list:
    """Record the start of every segment PeriodStepper actually steps."""
    starts = []
    real = PeriodStepper._stepped

    def spy(self, s, t, n_steps):
        starts.append(s)
        return real(self, s, t, n_steps)

    monkeypatch.setattr(PeriodStepper, "_stepped", spy)
    return starts


class TestStabilityScanWork:
    """On T = 2 pi sqrt(2) (the shipped nonresonant period), fmod(9 T, T)
    returns T less an ulp; that start must reuse the segment from 0."""

    def _nonresonant(self):
        spec, params, trunc, opts, _ = cli._load_config(shipped_config_path("nonresonant.json"))
        big_t = params.period_T
        assert round(math.fmod(9 * big_t, big_t) / big_t, 12) == 1.0
        return spec, params, trunc, opts

    def test_resonance_scan_row_builds_each_segment_once(self, monkeypatch):
        spec, params, trunc, opts = self._nonresonant()
        starts = _count_segment_builds(monkeypatch)
        cli._scan_row(spec, params, trunc, opts, 0.9)  # 24 periods, 4 samples each
        assert len(starts) == 4
        assert starts[0] == 0.0

    def test_stability_builds_each_segment_once(self, monkeypatch, tmp_path):
        starts = _count_segment_builds(monkeypatch)
        rc = cli.main(["stability", shipped_config_path("nonresonant.json"), "--periods", "10",
                       "--samples", "8", "--out-csv", str(tmp_path / "s.csv")])
        assert rc == 0
        assert len(starts) == 8

    def test_repeated_stability_steps_nothing(self, monkeypatch, tmp_path):
        """The second run on one setup takes every segment from the shared
        stepper and writes the same bytes."""
        starts = _count_segment_builds(monkeypatch)
        outs = []
        for run in ("a", "b"):
            csv = tmp_path / f"{run}.csv"
            rc = cli.main(["stability", shipped_config_path("nonresonant.json"), "--periods", "10",
                           "--samples", "8", "--out-csv", str(csv)])
            assert rc == 0
            outs.append((csv.read_bytes(), (tmp_path / f"{run}.verdict.json").read_bytes()))
            if run == "a":
                assert len(starts) == 8
                starts.clear()
        assert starts == []
        assert outs[0] == outs[1]

    def test_output_does_not_depend_on_earlier_runs(self, tmp_path):
        """Grid starts of a 13-period and a 20-period run agree to 12 digits
        but not bit for bit; a kept segment is reused only for the exact
        start and span it was stepped for, so the 20-period run writes the
        same bytes after the 13-period one as in a fresh process."""
        cfg = shipped_config_path("resonant_growth.json")

        def run(periods, name):
            csv = tmp_path / f"{name}.csv"
            assert cli.main(["stability", cfg, "--periods", str(periods), "--samples", "4",
                             "--out-csv", str(csv)]) == 0
            return csv.read_bytes()

        fresh = run(20, "fresh")
        oracle_module._STEPPERS.clear()
        run(13, "earlier")
        assert run(20, "after") == fresh

    def test_energies_match_dense_per_sample_reference(self, monkeypatch, ground_state):
        spec, params, trunc, opts = self._nonresonant()
        grids = []
        real = floquet_module.eval_drive
        monkeypatch.setattr(floquet_module, "eval_drive", lambda sp, t: grids.append(t) or real(sp, t))
        report = stability_scan(spec, params, trunc, ground_state, n_periods=6, samples_per_period=4,
                                steps_per_period=opts["steps_per_period"])
        assert len(grids) == 1 and np.shape(grids[0]) == report.t_grid.shape
        states = evolve_state(spec, params, trunc, ground_state, report.t_grid,
                              opts["steps_per_period"]).states
        x, _ = xp_operators(params.omega, trunc.dim)
        h0 = np.diag(number_basis_energies(params.omega, trunc.dim)).astype(complex)
        for i, ti in enumerate(report.t_grid):
            v = (h0 + float(real(spec, ti)) * x) @ states[i]
            assert report.energy_norms[i] == pytest.approx(np.linalg.norm(v), rel=1e-12)
            assert report.mean_energy[i] == pytest.approx(np.real(np.vdot(states[i], v)), rel=1e-12)


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
        assert report.pair_ok
        assert report.lhs > 0.0
        assert report.rhs == pytest.approx(2.0 * report.sup_sf_norm / report.dist)

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

    def test_json_payload(self, drive_nonres, params_nonres, trunc48):
        report = transition_bound_check(
            drive_nonres, params_nonres, trunc48, 1.0, 0.0, (0.0, 1.2), (2.3, 3.6)
        )
        d = report.to_json_dict()
        assert d["ok"] and d["pair_ok"]
        assert len(d["pairs"]) == report.pair_lhs.size


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
            assert np.array_equal(got, _reference_sf(spec, params, t, n_keep))
        assert _sup_sf_norm(spec, params, trunc) == pytest.approx(_reference_sup_sf(spec, params, n_keep), rel=1e-14)
        for samples in (1, 5, 70):
            assert _sup_sf_norm(spec, params, trunc, samples) == pytest.approx(
                _reference_sup_sf(spec, params, n_keep, samples), rel=1e-14
            )

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
        m = n_keep // 2
        samples = 9
        psi = np.zeros(m, dtype=complex)
        psi[0] = 1.0
        hf = build_HF(spec, params, Truncation(n_keep=m)).entries
        shifted = hf + 1j * np.eye(m)
        inv_shifted = np.linalg.inv(shifted)
        sup = 0.0
        for j in range(samples):
            s_blk = _reference_sf(spec, params, j * params.period_T / (samples - 1), m)
            sup = max(sup, float(np.linalg.norm(s_blk @ inv_shifted, 2)))
        expected = float(np.linalg.norm(hf @ psi) + sup * np.linalg.norm(shifted @ psi))
        assert energy_bound_constant(spec, params, trunc, ground_state, samples) == expected

    @pytest.mark.parametrize("n_keep", [32, 48])
    def test_transition_bound_fields(self, case, n_keep):
        spec, params = case
        trunc = Truncation(n_keep=n_keep)
        t, s = 0.63 * params.period_T, 0.12 * params.period_T
        iv1, iv2 = (0.0, 1.2), (2.3, 3.6)
        report = transition_bound_check(spec, params, trunc, t, s, iv1, iv2)

        vals_t, vecs_t = np.linalg.eigh(hamiltonian_at(spec, params, t, n_keep))
        vals_s, vecs_s = np.linalg.eigh(hamiltonian_at(spec, params, s, n_keep))
        idx_t = np.nonzero((vals_t >= iv1[0]) & (vals_t <= iv1[1]))[0]
        idx_s = np.nonzero((vals_s >= iv2[0]) & (vals_s <= iv2[1]))[0]
        core = vecs_t.conj().T @ propagator_factored(spec, params, trunc, t, s).entries @ vecs_s
        dist = iv2[0] - iv1[1]
        lhs = float(np.linalg.norm(core[np.ix_(idx_t, idx_s)], 2))
        sup = _reference_sup_sf(spec, params, n_keep)
        rhs = 2.0 * sup / dist
        pairs = [(a, b) for a in idx_t for b in idx_s]
        pair_lhs = np.array([abs(core[a, b]) for a, b in pairs])
        pair_rhs = np.array([2.0 * sup / abs(vals_t[a] - vals_s[b]) for a, b in pairs])

        assert pairs
        assert (report.t, report.s, report.dist) == (t, s, dist)
        assert (report.interval_1, report.interval_2) == (iv1, iv2)
        assert report.lhs == lhs
        assert report.sup_sf_norm == pytest.approx(sup, rel=1e-14)
        assert report.rhs == pytest.approx(rhs, rel=1e-14)
        assert report.ok is (lhs <= rhs * (1.0 + 1e-6))
        assert np.array_equal(report.pair_energies_t, np.array([vals_t[a] for a, _ in pairs]))
        assert np.array_equal(report.pair_energies_s, np.array([vals_s[b] for _, b in pairs]))
        assert np.array_equal(report.pair_lhs, pair_lhs)
        assert np.allclose(report.pair_rhs, pair_rhs, rtol=1e-14, atol=0.0)
        assert report.pair_ok is bool(np.all(pair_lhs <= pair_rhs * (1.0 + 1e-6)))

    def test_first_order_rhs(self, case):
        spec, params = case
        trunc = Truncation(n_keep=32)
        dist = 2.3 - 1.2
        report = higher_order_bound_check(
            spec, params, trunc, 1, 0.4 * params.period_T, 0.0, (0.0, 1.2), (2.3, 3.6), c_p=1.0
        )
        assert report.first_order_rhs == pytest.approx(2.0 * _reference_sup_sf(spec, params, 32) / dist, rel=1e-14)


class TestSampleCounts:
    """A sup over no sample points is not a bound; each count is checked."""

    @pytest.mark.parametrize("count", [0, -5])
    def test_transition_bound(self, drive_nonres, params_nonres, trunc48, count):
        with pytest.raises(ValueError, match="sf_samples"):
            transition_bound_check(
                drive_nonres, params_nonres, trunc48, 1.0, 0.0, (0.0, 1.2), (2.3, 3.6), sf_samples=count
            )

    @pytest.mark.parametrize("count", [0, -5])
    def test_energy_bound_constant(self, drive_nonres, params_nonres, trunc48, ground_state, count):
        with pytest.raises(ValueError, match="sup_samples"):
            energy_bound_constant(drive_nonres, params_nonres, trunc48, ground_state, count)

    def test_one_sample_is_accepted(self, drive_nonres, params_nonres, trunc48, ground_state):
        report = transition_bound_check(
            drive_nonres, params_nonres, trunc48, 1.0, 0.0, (0.0, 1.2), (2.3, 3.6), sf_samples=1
        )
        assert report.sup_sf_norm == pytest.approx(
            float(np.linalg.norm(_reference_sf(drive_nonres, params_nonres, 0.0, 48), 2)), rel=1e-14
        )
        assert math.isfinite(energy_bound_constant(drive_nonres, params_nonres, trunc48, ground_state, 1))

