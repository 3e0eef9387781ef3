import cmath
import math

import numpy as np
import pytest

from floquet_lab import (
    DomainError,
    DriveSpec,
    OscillatorParams,
    ResonantTimeError,
    Truncation,
    factored_factors,
    heisenberg_check,
    integrate,
    matrix_exp,
    propagator_factored,
    propagator_single_exp,
    single_exp_factors,
    split_forward,
    split_inverse,
)
from floquet_lab.core_fock import number_basis_energies, xp_operators

OMEGA = 1.0
T_DRIVE = 2 * math.pi * math.sqrt(2)
PARAMS = OscillatorParams(omega=OMEGA, period_T=T_DRIVE)
SPEC = DriveSpec.sine(T_DRIVE, amplitude=0.4)
TRUNC = Truncation(n_keep=48, n_pad=48)


def _free_h(dim: int) -> np.ndarray:
    return np.diag(number_basis_energies(OMEGA, dim)).astype(complex)


class TestSplitRoundTrip:
    def test_thousand_draws(self):
        """Forward and inverse reordering agree to 1e-10 over 1000 draws
        with the elapsed time inside one oscillator period."""
        rng = np.random.default_rng(404)
        worst = 0.0
        for _ in range(1000):
            mu = float(rng.uniform(-3, 3))
            nu = float(rng.uniform(-3, 3))
            t = float(rng.uniform(1e-6, 2 * math.pi / OMEGA * 0.999))
            xi, eta, phase = split_forward(mu, nu, t, OMEGA)
            back = split_inverse(xi, eta, t, OMEGA)
            worst = max(worst, abs(back[0] - mu), abs(back[1] - nu), abs(back[2] - phase))
        assert worst <= 1e-10

    def test_weyl_limit(self):
        # t -> 0 keeps mu, nu and leaves only the Weyl reordering phase
        xi, eta, phase = split_forward(0.7, -0.3, 1e-12, OMEGA)
        assert xi == pytest.approx(0.7, abs=1e-10)
        assert eta == pytest.approx(-0.3, abs=1e-10)
        assert phase == pytest.approx(0.7 * (-0.3) / (2 * OMEGA), abs=1e-10)

    def test_inverse_domain(self):
        with pytest.raises(DomainError):
            split_inverse(0.1, 0.1, 2 * math.pi / OMEGA, OMEGA)

    def test_split_identity_as_operators(self):
        """The reordering identity itself, materialized on a padded basis."""
        dim = 96
        x, p = xp_operators(OMEGA, dim)
        h = _free_h(dim)
        rng = np.random.default_rng(7)
        for _ in range(10):
            mu = float(rng.uniform(-1.5, 1.5))
            nu = float(rng.uniform(-1.5, 1.5))
            t = float(rng.uniform(0.05, 0.95) * 2 * math.pi / OMEGA)
            xi, eta, phase = split_forward(mu, nu, t, OMEGA)
            lhs = matrix_exp(-1j * t * h + 1j * (mu / OMEGA) * p + 1j * nu * x)
            rhs = (
                cmath.exp(-1j * phase)
                * matrix_exp(1j * (xi / OMEGA) * p)
                @ matrix_exp(1j * eta * x)
                @ matrix_exp(-1j * t * h)
            )
            assert np.linalg.norm((lhs - rhs)[:48, :48], 2) <= 1e-7


class TestClosedForms:
    def test_factored_vs_single_exp(self):
        for t, s in [(1.3, 0.0), (8.9, 2.1), (25.0, 3.0), (-2.0, 1.0)]:
            u1 = propagator_factored(SPEC, PARAMS, TRUNC, t, s).entries
            u2 = propagator_single_exp(SPEC, PARAMS, TRUNC, t, s).entries
            half = TRUNC.n_keep // 2
            assert np.linalg.norm((u1 - u2)[:half, :half], 2) <= 1e-10

    def test_zero_drive_is_free_evolution(self):
        spec0 = DriveSpec.zero(T_DRIVE)
        t = 1.9
        u = propagator_factored(spec0, PARAMS, TRUNC, t, 0.0).entries
        expect = np.diag(np.exp(-1j * t * number_basis_energies(OMEGA, TRUNC.n_keep)))
        assert np.linalg.norm(u - expect, 2) <= 1e-12

    def test_composition_cocycle(self):
        """U(t,s) U(s,r) = U(t,r) on the half block."""
        t, s, r = 7.7, 3.2, 0.5
        half = TRUNC.n_keep // 2
        u_ts = propagator_factored(SPEC, PARAMS, TRUNC, t, s).entries
        u_sr = propagator_factored(SPEC, PARAMS, TRUNC, s, r).entries
        u_tr = propagator_factored(SPEC, PARAMS, TRUNC, t, r).entries
        dev = np.linalg.norm((u_ts @ u_sr - u_tr)[:half, :half], 2)
        assert dev <= 1e-8

    def test_time_coincidence_is_identity(self):
        u = propagator_factored(SPEC, PARAMS, TRUNC, 2.4, 2.4).entries
        assert np.linalg.norm(u - np.eye(TRUNC.n_keep), 2) <= 1e-12

    def test_unitary_on_half_block_column_sums(self):
        u = propagator_factored(SPEC, PARAMS, TRUNC, 5.0, 0.0).entries
        half = TRUNC.n_keep // 2
        cols = np.linalg.norm(u[:, :half], axis=0)
        assert np.allclose(cols, 1.0, atol=1e-9)

    def test_single_exp_resonant_elapsed_rejected(self):
        period = 2 * math.pi / OMEGA
        with pytest.raises(ResonantTimeError):
            propagator_single_exp(SPEC, PARAMS, TRUNC, 3 * period, 0.0)
        with pytest.raises(ResonantTimeError):
            propagator_single_exp(SPEC, PARAMS, TRUNC, 1.0, 1.0)
        # the factored form covers those differences
        propagator_factored(SPEC, PARAMS, TRUNC, 3 * period, 0.0)

    def test_factor_records(self):
        f = factored_factors(SPEC, PARAMS, 2.0, 0.5)
        assert f.form == "factored" and f.t == 2.0 and f.s == 0.5
        g = single_exp_factors(SPEC, PARAMS, 2.0, 0.5)
        assert g.form == "single_exp"
        assert g.whole_periods == 0
        assert 0 < g.delta < 2 * math.pi / OMEGA

    def test_parity_factor_counts_whole_periods(self):
        """Across N whole oscillator periods the single-exponential form
        carries the (-1)^N front factor; check N = 1 against factored."""
        period = 2 * math.pi / OMEGA
        t = 1.3 * period
        u1 = propagator_factored(SPEC, PARAMS, TRUNC, t, 0.0).entries
        u2 = propagator_single_exp(SPEC, PARAMS, TRUNC, t, 0.0).entries
        half = TRUNC.n_keep // 2
        assert single_exp_factors(SPEC, PARAMS, t, 0.0).whole_periods == 1
        assert np.linalg.norm((u1 - u2)[:half, :half], 2) <= 1e-10


class TestNearWholePeriods:
    """t - s = (k - eps) T_osc on both sides of one and two whole oscillator
    periods: Delta is taken from the nearest whole period, so the single
    exponential's displacement stays bounded as eps -> 0."""

    SPEC = DriveSpec.sine(T_DRIVE, amplitude=0.05)
    S = 0.3
    CASES = [(k, sign * eps) for k in (1, 2) for eps in (0.3, 0.05, 0.01, 0.004, 0.002) for sign in (1, -1)]

    @pytest.mark.parametrize("k, eps", CASES)
    def test_single_exp_matches_factored_and_oracle(self, k, eps):
        t = self.S + (k - eps) * 2 * math.pi / OMEGA
        half = TRUNC.n_keep // 2
        single = propagator_single_exp(self.SPEC, PARAMS, TRUNC, t, self.S).entries[:half, :half]
        factored = propagator_factored(self.SPEC, PARAMS, TRUNC, t, self.S).entries[:half, :half]
        oracle = integrate(self.SPEC, PARAMS, TRUNC, t, self.S).entries[:half, :half]
        assert np.abs(single - factored).max() <= 1e-10
        assert np.abs(single - oracle).max() <= 1e-6


class TestHeisenberg:
    @pytest.mark.parametrize("t", [0.3, 1.7, 4.0])
    def test_free_rotation(self, t):
        report = heisenberg_check(PARAMS, TRUNC, t)
        assert max(report.values()) <= 1e-9
