import cmath
import json
import math
import re

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

import floquet_lab
from floquet_lab import (
    DriveSpec,
    OscillatorParams,
    ResonanceError,
    ResonantTimeError,
    Truncation,
    eval_drive,
    floquet_scalar_derivs,
    floquet_scalars,
    is_resonant_period,
    mu_nu_sigma,
    phi12,
    psi,
    split_elapsed,
    transition_bound_check,
)
from floquet_lab import drive_model
from floquet_lab.cli import _load_config, shipped_config_path

T0 = 2 * math.pi * math.sqrt(2)


def two_harmonic_drive() -> DriveSpec:
    return DriveSpec.from_fourier(
        T0, {1: 0.3 - 0.1j, -1: 0.3 + 0.1j, 3: 0.05j, -3: -0.05j, 0: 0.02}
    )


class TestDriveSpec:
    def test_sine_matches_pointwise(self):
        spec = DriveSpec.sine(T0, amplitude=0.7)
        ts = np.linspace(-3.0, 8.0, 41)
        assert np.allclose(eval_drive(spec, ts), 0.7 * np.sin(2 * np.pi * ts / T0), atol=1e-14)

    def test_real_valuedness_enforced(self):
        # f_{-k} must equal conj(f_k); a lone complex coefficient is rejected
        with pytest.raises(ValueError):
            DriveSpec.from_fourier(T0, {1: 0.3 + 0.2j})

    def test_repeated_k_is_refused(self):
        """The constructor refuses a k given twice, as the JSON reader does,
        rather than keeping the last pair."""
        with pytest.raises(ValueError, match="k=1 again"):
            DriveSpec(period=2.0, fourier=((1, 0.1j), (-1, -0.1j), (1, 0.1j), (-1, -0.1j)))

    def test_json_round_trip_exact(self):
        spec = two_harmonic_drive()
        back = DriveSpec.from_json_dict(json.loads(spec.to_json()))
        assert back.period == spec.period
        assert dict(back.fourier) == dict(spec.fourier)

    def test_sampled_drive_round_trip(self):
        ts = np.linspace(0.0, 2.0, 32, endpoint=False)
        fs = np.sin(2 * np.pi * ts / 2.0) + 0.2 * np.cos(4 * np.pi * ts / 2.0)
        spec = DriveSpec.from_samples(2.0, ts, fs)
        back = DriveSpec.from_json_dict(json.loads(spec.to_json()))
        probe = np.linspace(0.0, 4.0, 17)
        assert np.allclose(eval_drive(back, probe), eval_drive(spec, probe), atol=1e-12)

    def test_fourier_coefficient_recovers_inputs(self):
        """N > 6 samples of a drive with harmonics up to 3, on a grid shifted
        by offset T/N, give back its coefficients and no others."""
        spec = two_harmonic_drive()
        for n in (7, 8, 16, 33):
            for offset in (0.0, 0.6):
                ts = (np.arange(n) + offset) * T0 / n
                back = DriveSpec.from_samples(T0, ts, eval_drive(spec, ts))
                assert [k for k, _ in back.fourier] == [k for k, _ in spec.fourier]
                for k, c in spec.fourier:
                    assert back.coefficient(k) == pytest.approx(c, abs=1e-15)


class TestSamples:
    """The rules of DriveSpec.from_samples and of the JSON samples block."""

    @pytest.mark.parametrize("n", [4, 5, 32])
    def test_interpolant_is_real_and_passes_through_every_sample(self, n):
        rng = np.random.default_rng(n)
        ts = (np.arange(n) + 0.25) * T0 / n
        fs = rng.standard_normal(n)
        spec = DriveSpec.from_samples(T0, ts, fs)
        assert max(abs(k) for k, _ in spec.fourier) == n // 2
        # eval_drive raises on a non-real series
        assert np.abs(eval_drive(spec, ts) - fs).max() <= 1e-13 * np.abs(fs).max()

    def test_even_count_splits_the_nyquist_term(self):
        ts = np.arange(8) * T0 / 8
        spec = DriveSpec.from_samples(T0, ts, (-1.0) ** np.arange(8))
        assert dict(spec.fourier) == {-4: 0.5, 4: 0.5}

    def test_round_off_coefficients_are_dropped(self):
        ts = np.arange(32) * T0 / 32
        spec = DriveSpec.from_samples(T0, ts, eval_drive(DriveSpec.sine(T0, 0.05), ts))
        assert [k for k, _ in spec.fourier] == [-1, 1]
        assert DriveSpec.from_samples(T0, ts, np.zeros(32)).fourier == ()

    @pytest.mark.parametrize(
        "ts, fs, cause",
        [
            (np.arange(3) * T0 / 3, np.ones(3), "at least 4 nodes"),
            (np.arange(8) * T0 / 8, np.ones(7), "at least 4 nodes"),
            (np.arange(8) * T0 / 8, np.r_[np.ones(7), np.nan], "finite"),
            (np.r_[np.arange(7) * T0 / 8, np.inf], np.ones(8), "finite"),
            ((np.arange(8) - 0.5) * T0 / 8, np.ones(8), "first sample time"),
            ((np.arange(8) + 1.0) * T0 / 8, np.ones(8), "first sample time"),
            (np.arange(8) * T0 / 8 + np.r_[np.zeros(7), 1e-9], np.ones(8), "equally spaced"),
            (np.linspace(0.0, T0, 8), np.ones(8), "equally spaced"),
            # library callers meet the JSON route's rule: real numbers only
            ([str(t) for t in np.arange(4) * T0 / 4], np.ones(4), "real numbers"),
            (np.arange(4) * T0 / 4, ["0.0", "1.0", "0.0", "-1.0"], "real numbers"),
            (np.arange(4) * T0 / 4, [False, True, False, True], "real numbers"),
            (np.arange(4) * T0 / 4, [0.0, True, 0.0, -1.0], "real numbers"),
            (np.arange(4) * T0 / 4, [0.0, 1.0j, 0.0, -1.0j], "real numbers"),
        ],
        ids=["three", "mismatched", "nan_value", "inf_time", "negative_start", "start_past_step",
             "uneven", "closed_period", "string_times", "string_values", "bool_values", "bool_among_floats",
             "complex_values"],
    )
    def test_bad_samples_are_rejected(self, ts, fs, cause):
        with pytest.raises(ValueError, match=cause):
            DriveSpec.from_samples(T0, ts, fs)

    def test_spacing_tolerance_is_relative_to_the_period(self):
        ts = np.arange(8) * T0 / 8 + np.r_[np.zeros(7), 0.5e-12 * T0]
        DriveSpec.from_samples(T0, ts, np.ones(8))

    @staticmethod
    def _samples_doc() -> dict:
        ts = np.arange(8) * T0 / 8
        return {"period": T0, "samples": {"t": ts.tolist(), "f": np.sin(ts).tolist()}}

    def test_json_samples_block(self):
        doc = self._samples_doc()
        spec = DriveSpec.from_json_dict(doc)
        assert spec == DriveSpec.from_samples(T0, doc["samples"]["t"], doc["samples"]["f"])

    def test_json_drive_gives_fourier_or_samples_not_both(self):
        doc = dict(self._samples_doc(), fourier=[])
        with pytest.raises(ValueError, match="not both"):
            DriveSpec.from_json_dict(doc)

    def test_json_samples_order_is_rejected(self):
        doc = self._samples_doc()
        doc["samples"]["order"] = 3
        with pytest.raises(ValueError, match="samples.order"):
            DriveSpec.from_json_dict(doc)


class TestKernelQuadratureOracle:
    """phi1, phi2, psi against direct adaptive quadrature.

    phi1(t,s) = int_s^t cos(w(t-u)) f(u) du, phi2 with sin, and psi is the
    iterated integral of (phi1^2 - phi2^2)/2 in the running upper limit.
    """

    params = OscillatorParams(omega=1.3, period_T=T0)

    def _phi_quad(self, spec, t, s):
        w = self.params.omega

        def c(u):
            return math.cos(w * (t - u)) * float(eval_drive(spec, u))

        def d(u):
            return math.sin(w * (t - u)) * float(eval_drive(spec, u))

        q1 = scipy.integrate.quad(c, s, t, limit=400, epsabs=1e-13, epsrel=1e-13)[0]
        q2 = scipy.integrate.quad(d, s, t, limit=400, epsabs=1e-13, epsrel=1e-13)[0]
        return q1, q2

    @pytest.mark.parametrize("t,s", [(1.7, 0.0), (9.4, 2.2), (0.05, 0.0), (-1.0, 3.0)])
    def test_phi12(self, t, s):
        spec = two_harmonic_drive()
        got = phi12(spec, self.params, t, s)
        want = self._phi_quad(spec, t, s)
        assert got[0] == pytest.approx(want[0], abs=1e-10)
        assert got[1] == pytest.approx(want[1], abs=1e-10)

    @pytest.mark.parametrize("t,s", [(2.9, 0.0), (6.0, 1.5)])
    def test_psi(self, t, s):
        spec = two_harmonic_drive()

        def inner(v):
            p1, p2 = self._phi_quad(spec, v, s)
            return 0.5 * (p1 * p1 - p2 * p2)

        want = scipy.integrate.quad(inner, s, t, limit=200, epsabs=1e-11)[0]
        assert psi(spec, self.params, t, s) == pytest.approx(want, abs=1e-9)

    def test_psi_on_a_grid_matches_psi_per_time(self):
        """_psi on an array of times is _psi at each time bit for bit, on a
        forward grid and on a backward one that repeats a time."""
        spec = two_harmonic_drive()
        for grid in (np.linspace(0.0, 5 * T0, 21), np.array([2.0, 1.0, -0.5, -0.5, 3.0]), np.linspace(0.3, -40.0, 97)):
            got = drive_model._psi(spec, self.params.omega, grid, grid[0])
            assert got.tolist() == [psi(spec, self.params, t, grid[0]) for t in grid]
            assert got[0] == 0.0

    # 50-digit evaluations of the same sum (mpmath, the 4 x 4 exponential of each pair at 50 and 70 digits)
    @pytest.mark.parametrize(
        "config,t,want,rel",
        [
            ("nonresonant.json", 2e5, -249.99874907949818063035, 1e-14),
            ("resonant_growth.json", 2e4 + 0.1, -61989.552801452825281979, 1e-11),
            ("resonant_growth.json", 1000.3, -87.467141115579055962377, 5e-13),
        ],
        ids=["nonresonant-2e5", "resonant_growth-2e4", "resonant_growth-1000"],
    )
    def test_psi_at_long_spans(self, config, t, want, rel):
        """psi at long spans, where panels of a quadrature lost digits: the
        resonant mode of resonant_growth.json makes chi grow like t - s."""
        spec, params, *_ = _load_config(shipped_config_path(config))
        assert psi(spec, params, t, 0.0) == pytest.approx(want, rel=rel, abs=0.0)

    @pytest.mark.parametrize("t", [1e300, 1e308])
    def test_psi_refuses_a_phase_past_2_to_52(self, t):
        """The largest phase 2 (omega + max |Omega_k|) |t - s| keeps no digit
        past 2^52 rad: ValueError naming t - s, with no numpy warning."""
        spec, params, *_ = _load_config(shipped_config_path("nonresonant.json"))
        message = rf"^t - s = {re.escape(repr(t))} is too long: .* reaches 2\^52 rad$"
        with pytest.raises(ValueError, match=message):
            psi(spec, params, t, 0.0)

    def test_phi12_additivity(self):
        # phi_i(t,s) = phi_i(t,r) + rotation of phi_i(r,s): check through the
        # complex kernel chi = phi1 + i phi2, chi(t,s) = chi(t,r) + e^{iw(t-r)} chi(r,s)
        spec = two_harmonic_drive()
        w = self.params.omega
        t, r, s = 7.3, 4.1, 1.2
        chi_ts = complex(*phi12(spec, self.params, t, s))
        chi_tr = complex(*phi12(spec, self.params, t, r))
        chi_rs = complex(*phi12(spec, self.params, r, s))
        assert chi_ts == pytest.approx(chi_tr + cmath.exp(1j * w * (t - r)) * chi_rs, abs=1e-11)


@pytest.mark.parametrize("a", [1.3, -0.7, 1e-3])
def test_m0_whole_array_path_matches_the_masked_path(a):
    """Without a node in the series branch, _m0 takes the exponential form on
    the whole array; one series node sends it down the path that forms both
    and picks per node, which must give the same bits on the other nodes."""
    tau = np.linspace(0.5, 9.0, 24)
    small = drive_model._SERIES_CUT / (4 * abs(a))
    whole = drive_model._m0(a, tau)
    masked = drive_model._m0(a, np.append(tau, small))
    assert np.array_equal(whole, masked[:-1])
    for one in (tau[:1], tau[0]):  # a 1-element array and a 0-d one
        got = drive_model._m0(a, one)
        assert isinstance(got, np.ndarray) and got.shape == np.shape(one)
        assert np.array_equal(got.ravel(), whole[:1])


def test_m0_rows_over_an_array_of_a_are_the_one_a_values():
    """A column of a broadcasts against tau: each row is _m0 at that a alone,
    bit for bit, a = 0 (every node in the series branch) included, with no warning."""
    tau = np.linspace(0.0, 9.0, 25)
    a = np.array([1.3, 0.0, -0.7, 1e-5])
    rows = drive_model._m0(a[:, None], tau)
    assert rows.shape == (a.size, tau.size)
    for row, one in zip(rows, a):
        assert np.array_equal(row, drive_model._m0(float(one), tau))


class TestSplitElapsed:
    params = OscillatorParams(omega=2.0, period_T=5.0)

    def test_decomposition(self):
        """n is the nearest whole number of periods, so |Delta| <= T_osc/2."""
        period = 2 * math.pi / self.params.omega
        cases = [(0.4, 0), (3.7, 1), (11.0, 4), (2.5 * period + 0.3, 3), (-0.4, 0), (-3.7, -1)]
        for elapsed, nearest in cases:
            n, delta = split_elapsed(self.params, elapsed)
            assert n == nearest
            assert -0.5 * period < delta <= 0.5 * period
            assert n * period + delta == pytest.approx(elapsed, abs=1e-12)
        # a half-period tie rounds down, so Delta = +T_osc/2
        n, delta = split_elapsed(self.params, 2.5 * period)
        assert n == 2 and delta == pytest.approx(0.5 * period, abs=1e-12)

    def test_resonant_rejected(self):
        period = 2 * math.pi / self.params.omega
        for k in (0, 1, 3):
            with pytest.raises(ResonantTimeError):
                split_elapsed(self.params, k * period)

    def test_near_resonant_band(self):
        period = 2 * math.pi / self.params.omega
        with pytest.raises(ResonantTimeError):
            split_elapsed(self.params, period * (1 + 1e-10))
        n, delta = split_elapsed(self.params, period * (1 + 1e-7))
        assert n == 1 and delta > 0
        n, delta = split_elapsed(self.params, period * (1 - 1e-7))
        assert n == 1 and delta < 0


class TestResonanceDetection:
    def test_boundary(self):
        base = 2 * math.pi
        assert is_resonant_period(OscillatorParams(omega=1.0, period_T=3 * base))
        assert is_resonant_period(OscillatorParams(omega=1.0, period_T=base * (1 + 2e-10)))
        assert not is_resonant_period(OscillatorParams(omega=1.0, period_T=base * (1 + 1e-8)))
        assert not is_resonant_period(OscillatorParams(omega=1.0, period_T=base * math.sqrt(2)))

    def test_sub_period_not_resonant(self):
        # T must be a positive integer multiple of the oscillator period
        assert not is_resonant_period(OscillatorParams(omega=1.0, period_T=math.pi))


class TestFloquetScalars:
    params = OscillatorParams(omega=1.0, period_T=T0)

    def test_zero_at_zero(self):
        """U_F(0) = I needs all three periodic scalars to vanish at t = 0."""
        spec = two_harmonic_drive()
        sc = floquet_scalars(spec, self.params, 0.0)
        assert abs(sc.f1) <= 1e-12
        assert abs(sc.f2) <= 1e-12
        assert abs(sc.big_phi) <= 1e-12

    def test_periodicity(self):
        spec = two_harmonic_drive()
        a = floquet_scalars(spec, self.params, 1.1)
        b = floquet_scalars(spec, self.params, 1.1 + self.params.period_T)
        assert a.f1 == pytest.approx(b.f1, abs=1e-9)
        assert a.f2 == pytest.approx(b.f2, abs=1e-9)
        assert a.big_phi == pytest.approx(b.big_phi, abs=1e-9)

    def test_derivatives_match_finite_differences(self):
        spec = two_harmonic_drive()
        t, eps = 2.7, 1e-6
        d1, d2, dphi = floquet_scalar_derivs(spec, self.params, t)
        sp = floquet_scalars(spec, self.params, t + eps)
        sm = floquet_scalars(spec, self.params, t - eps)
        assert d1 == pytest.approx((sp.f1 - sm.f1) / (2 * eps), abs=1e-6)
        assert d2 == pytest.approx((sp.f2 - sm.f2) / (2 * eps), abs=1e-6)
        assert dphi == pytest.approx((sp.big_phi - sm.big_phi) / (2 * eps), abs=1e-6)

    def test_resonant_period_rejected(self):
        spec = DriveSpec.sine(2 * math.pi, amplitude=0.1)
        with pytest.raises(ResonanceError):
            floquet_scalars(spec, OscillatorParams(omega=1.0, period_T=2 * math.pi), 0.5)

    @pytest.mark.parametrize("omega", [0.7, 1.0, 1.9])
    def test_sf_scalars_over_an_array_match_each_time(self, omega):
        """One call over every time gives each time's S_F coefficients
        (x, p, 1) and F1 to 1e-15 of that quantity's size over the times,
        and floquet_scalar_derivs reads (F1', F2', Phi') off them."""
        spec = two_harmonic_drive()
        params = OscillatorParams(omega=omega, period_T=T0)
        ts = np.arange(64) * T0 / 64 - 0.3
        together = drive_model._sf_scalars(spec, params, ts)
        apart = np.array([drive_model._sf_scalars(spec, params, t) for t in ts]).T
        assert all(q.shape == ts.shape for q in together)
        for got, want in zip(together, apart):
            assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()
        x, p, one, f1 = apart[:, 5]
        assert floquet_scalar_derivs(spec, params, ts[5]) == (-omega * p, -x, f1 * -x / omega - one)


class TestMonodromyMemo:
    """The monodromy scalars are computed once per (spec, params); failures
    are raised again on every call."""

    params = OscillatorParams(omega=1.0, period_T=2 * math.pi * 1.37)

    def _count_mu_nu_sigma(self, monkeypatch) -> list:
        calls = []

        def counted(*args):
            calls.append(args[2:])
            return mu_nu_sigma(*args)

        for mod in vars(floquet_lab).values():
            if getattr(mod, "mu_nu_sigma", None) is mu_nu_sigma:
                monkeypatch.setattr(mod, "mu_nu_sigma", counted)
        return calls

    def test_one_monodromy_per_transition_bound(self, monkeypatch):
        spec = DriveSpec.sine(self.params.period_T, 0.05)
        calls = self._count_mu_nu_sigma(monkeypatch)
        drive_model._monodromy_scalars.cache_clear()
        transition_bound_check(spec, self.params, Truncation(n_keep=32), 2.0, 0.5, (0.0, 1.2), (2.3, 3.6))
        assert (self.params.period_T, 0.0) in calls
        assert len(calls) <= 2
        again = len(calls)
        floquet_scalars(spec, self.params, 1.0)
        floquet_scalar_derivs(spec, self.params, 1.0)
        assert len(calls) == again

    def test_resonance_error_is_not_cached(self):
        spec = DriveSpec.sine(2 * math.pi, amplitude=0.1)
        resonant = OscillatorParams(omega=1.0, period_T=2 * math.pi)
        drive_model._monodromy_scalars.cache_clear()
        for _ in range(2):
            with pytest.raises(ResonanceError):
                floquet_scalars(spec, resonant, 0.5)
        assert drive_model._monodromy_scalars.cache_info().currsize == 0


class TestMuNuSigma:
    params = OscillatorParams(omega=1.0, period_T=T0)

    def test_monodromy_kernel_at_resonance_is_fourier_coefficient(self):
        """Over N whole oscillator periods the memory kernel collapses to
        T times the resonant Fourier coefficient."""
        params = OscillatorParams(omega=1.0, period_T=2 * math.pi)
        spec = DriveSpec.sine(2 * math.pi, amplitude=0.8)
        t = params.period_T
        p1, p2 = phi12(spec, params, t, 0.0)
        chi = complex(p1, p2)
        assert chi == pytest.approx(t * spec.coefficient(1), abs=1e-10)

    def test_whole_period_split_consistency(self):
        spec = two_harmonic_drive()
        res = mu_nu_sigma(spec, self.params, 9.0, 1.0)
        period = 2 * math.pi / self.params.omega
        assert res.whole_periods == math.floor(8.0 / period)
        assert 0 < res.delta < period

    def test_resonant_elapsed_rejected(self):
        spec = two_harmonic_drive()
        with pytest.raises(ResonantTimeError):
            mu_nu_sigma(spec, self.params, 2 * math.pi, 0.0)


@settings(max_examples=40, deadline=None)
@given(
    t=st.floats(min_value=-5.0, max_value=12.0),
    s=st.floats(min_value=-5.0, max_value=12.0),
)
def test_phi12_antisymmetric_under_swap_when_rotated(t, s):
    """chi(s,t) = -e^{iw(s-t)} chi(t,s), from flipping the integration."""
    spec = DriveSpec.sine(T0, amplitude=0.3)
    params = OscillatorParams(omega=1.0, period_T=T0)
    chi_ts = complex(*phi12(spec, params, t, s))
    chi_st = complex(*phi12(spec, params, s, t))
    assert abs(chi_st + cmath.exp(1j * params.omega * (s - t)) * chi_ts) <= 1e-10


_NF_PARAMS = OscillatorParams(omega=1.0, period_T=T0)
_NF_SPEC = DriveSpec.sine(T0, amplitude=0.3)
_NF_TRUNC = Truncation(n_keep=8, n_pad=8)
_NF_WINDOWS = ((0.0, 1.2), (4.0, 6.2))

# every public closed form that takes a time, called at (t, s); the t-only
# ones ignore s
_TWO_TIMES = {
    "phi12": lambda t, s: phi12(_NF_SPEC, _NF_PARAMS, t, s),
    "psi": lambda t, s: psi(_NF_SPEC, _NF_PARAMS, t, s),
    "mu_nu_sigma": lambda t, s: mu_nu_sigma(_NF_SPEC, _NF_PARAMS, t, s),
    "propagator_factored": lambda t, s: floquet_lab.propagator_factored(_NF_SPEC, _NF_PARAMS, _NF_TRUNC, t, s),
    "propagator_single_exp": lambda t, s: floquet_lab.propagator_single_exp(_NF_SPEC, _NF_PARAMS, _NF_TRUNC, t, s),
    "transition_bound_check": lambda t, s: transition_bound_check(
        _NF_SPEC, _NF_PARAMS, _NF_TRUNC, t, s, *_NF_WINDOWS
    ),
    "higher_order_bound_check": lambda t, s: floquet_lab.higher_order_bound_check(
        _NF_SPEC, _NF_PARAMS, _NF_TRUNC, 2, t, s, *_NF_WINDOWS
    ),
    "xn_operator": lambda t, s: floquet_lab.xn_operator(_NF_SPEC, _NF_PARAMS, _NF_TRUNC, 1, t, s),
    "xn_operator_via_floquet": lambda t, s: floquet_lab.xn_operator_via_floquet(
        _NF_SPEC, _NF_PARAMS, _NF_TRUNC, 1, t, s
    ),
}
_ONE_TIME = {
    "floquet_scalars": lambda t, s: floquet_scalars(_NF_SPEC, _NF_PARAMS, t),
    "floquet_scalar_derivs": lambda t, s: floquet_scalar_derivs(_NF_SPEC, _NF_PARAMS, t),
    "build_UF": lambda t, s: floquet_lab.build_UF(_NF_SPEC, _NF_PARAMS, _NF_TRUNC, t),
    "build_SF": lambda t, s: floquet_lab.build_SF(_NF_SPEC, _NF_PARAMS, _NF_TRUNC, t),
}


@pytest.mark.parametrize("bad", [math.inf, math.nan], ids=["inf", "nan"])
@pytest.mark.parametrize(
    "name, arg",
    [(name, arg) for name in _TWO_TIMES for arg in ("t", "s")] + [(name, "t") for name in _ONE_TIME],
)
def test_non_finite_time_is_a_value_error_naming_it(name, arg, bad):
    call = {**_TWO_TIMES, **_ONE_TIME}[name]
    t, s = (bad, 0.3) if arg == "t" else (1.1, bad)
    with pytest.raises(ValueError, match=f"^{arg} must be finite"):
        call(t, s)
