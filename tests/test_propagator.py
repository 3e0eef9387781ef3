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
    integrate,
    matrix_exp,
    mu_nu_sigma,
    phi12,
    propagator_factored,
    propagator_single_exp,
    psi,
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


def test_factored_form_makes_no_dense_eigensolve(forbid_dense_eigh):
    """The factored form takes its x and p factors from the exact entries
    of the displacement, with no eigensolve at all, and matches the product
    of dense exponentials on the kept block; the single exponential still
    goes through matrix_exp's dense eigh, so comparing the two forms
    compares two independent computations."""
    x, p = xp_operators(OMEGA, TRUNC.dim)
    n = TRUNC.n_keep
    cases = ((3.1, 0.4), (0.4, 3.1), (17.5, -2.0))
    refs = []
    for t, s in cases:
        p1, p2 = phi12(SPEC, PARAMS, t, s)
        diag = np.exp(-1j * (t - s) * number_basis_energies(OMEGA, TRUNC.dim) - 1j * psi(SPEC, PARAMS, t, s))
        u = matrix_exp(-1j * p1 * x) @ matrix_exp(1j * (p2 / OMEGA) * p) @ np.diag(diag)
        refs.append(u[:n, :n])

    forbid_dense_eigh()
    for (t, s), ref in zip(cases, refs):
        assert np.abs(propagator_factored(SPEC, PARAMS, TRUNC, t, s).entries - ref).max() <= 1e-13
    with pytest.raises(AssertionError, match="eigh"):
        propagator_single_exp(SPEC, PARAMS, TRUNC, 3.1, 0.4)


def test_factored_column_0_is_the_coherent_state_past_the_working_space():
    """On resonant_growth at t = 200 T + 0.3 the state has |beta| = 22.2
    and lies far above the 128 kept levels: column 0 of the factored U is
    still the coherent state e^{-i(psi + t omega/2 + a b/(2 omega))}
    D(beta)|0>, all of whose kept amplitudes are below 1e-40.  A block cut
    from a padded product read 0.21 off here."""
    from floquet_lab import cli
    from floquet_lab.cli import shipped_config_path

    spec, params, trunc, _, _ = cli._load_config(shipped_config_path("resonant_growth.json"))
    t = 200 * params.period_T + 0.3
    column = propagator_factored(spec, params, trunc, t, 0.0).entries[:, 0]
    p1, p2 = phi12(spec, params, t, 0.0)
    omega = params.omega
    a, b = -p1, p2
    beta = complex(-b, a) / math.sqrt(2.0 * omega)
    m = np.arange(trunc.n_keep)
    log_fact = np.array([math.lgamma(k + 1.0) for k in m])
    coherent = np.exp(m * math.log(abs(beta)) - 0.5 * abs(beta) ** 2 - 0.5 * log_fact + 1j * m * cmath.phase(beta))
    phase = psi(spec, params, t, 0.0) + 0.5 * t * omega + a * b / (2.0 * omega)
    assert abs(beta) > 22.0 and np.abs(coherent).max() < 1e-40
    assert np.abs(column - cmath.exp(-1j * phase) * coherent).max() <= 1e-14


def test_factored_states_are_the_factored_columns_per_time():
    """_factored_states forms psi0's nonzero columns for many times at
    once, in parts that bound the memory; every row is U(t, 0) psi0 less
    its phase e^{-i psi(t, 0)}, here from the whole factored block of each
    time."""
    from floquet_lab.drive_model import _chi
    from floquet_lab.propagator import _factored_states

    psi0 = np.zeros(6, dtype=complex)
    psi0[[0, 3, 5]] = 0.6, 0.64j, 0.48
    t_grid = np.linspace(0.0, 3 * T_DRIVE, 37)
    rows = 300  # 37 x 300 x (6 + 2 x 3) numbers make several parts
    states = _factored_states(PARAMS, _chi(SPEC, PARAMS.omega, t_grid, 0.0), psi0, t_grid, rows)
    assert states.shape == (t_grid.size, rows)
    for t, state in zip(t_grid, states):
        u = propagator_factored(SPEC, PARAMS, Truncation(n_keep=rows, n_pad=0), t, 0.0).entries
        expect = u[:, : psi0.size] @ psi0 * cmath.exp(1j * psi(SPEC, PARAMS, t, 0.0))
        assert np.abs(state - expect).max() <= 1e-13


@pytest.mark.parametrize(
    "config,t,r,s,tol",
    [
        ("nonresonant.json", 2.5, 1.25, 0.5, 1e-12),
        ("resonant_growth.json", -3.0, 7.5, 0.25, 1e-12),
        ("resonant_identity.json", 40.5, 17.25, 0.125, 1e-12),
        ("nonresonant.json", 2.0**30 + 0.5, 2.0**29 + 0.25, 0.125, 1e-5),
    ],
    ids=["nonresonant", "resonant_growth-backward", "resonant_identity", "nonresonant-2^30"],
)
def test_factored_form_keeps_the_group_law(config, t, r, s, tol):
    """U(t, r) U(r, s) = U(t, s) on the kept half block, the global phases
    e^{-i psi} included, a law that shares no formula with psi's.  The
    times are dyadic, so their differences are exact; at 2^30 the phases of
    order 1e9 keep about 1e-7 each, against a psi of about -1.3e6."""
    from floquet_lab.cli import _load_config, shipped_config_path

    spec, params, trunc, *_ = _load_config(shipped_config_path(config))
    half = trunc.n_keep // 2

    def u(a, b):
        return propagator_factored(spec, params, trunc, a, b).entries

    assert np.linalg.norm((u(t, r) @ u(r, s) - u(t, s))[:half, :half], 2) <= tol


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
        spec0 = DriveSpec(period=T_DRIVE)
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
        g = mu_nu_sigma(SPEC, PARAMS, 2.0, 0.5)
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
        assert mu_nu_sigma(SPEC, PARAMS, t, 0.0).whole_periods == 1
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

