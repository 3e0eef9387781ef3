import math
import tracemalloc

import numpy as np
import pytest

from floquet_lab import (
    DriveSpec,
    NumericError,
    OscillatorParams,
    PeriodStepper,
    Truncation,
    eval_drive,
    evolve_state,
    integrate,
    propagator_factored,
)
from floquet_lab.core_fock import number_basis_energies, xp_operators
from floquet_lab import oracle
from floquet_lab.oracle import hamiltonian_at, propagate_generic

OMEGA = 1.0
T_DRIVE = 2 * math.pi * math.sqrt(2)
PARAMS = OscillatorParams(omega=OMEGA, period_T=T_DRIVE)
SPEC = DriveSpec.sine(T_DRIVE, amplitude=0.3)
TRUNC = Truncation(n_keep=24, n_pad=24)


def _reference(t: float, s: float) -> np.ndarray:
    """Small closed-form reference via the factored propagator, full dim."""
    big = Truncation(n_keep=TRUNC.dim, n_pad=TRUNC.dim)
    return propagator_factored(SPEC, PARAMS, big, t, s).entries[: TRUNC.dim, : TRUNC.dim]


class TestConvergenceOrder:
    """Step-halving error ratios pin the order of each scheme.

    Measured against the exact closed form on the kept block so the
    truncation floor does not mask the scaling.
    """

    def _errors(self, scheme: str, step_counts) -> list[float]:
        t = 0.45 * T_DRIVE
        half = TRUNC.n_keep // 2
        ref = _reference(t, 0.0)[:half, :half]
        errs = []
        for n in step_counts:
            u = propagate_generic(
                lambda tt: hamiltonian_at(SPEC, PARAMS, tt, TRUNC.dim),
                TRUNC.dim,
                0.0,
                t,
                n,
                scheme=scheme,
            )
            errs.append(np.linalg.norm(u[:half, :half] - ref, 2))
        return errs

    def test_fourth_order(self):
        errs = self._errors("cf4", (16, 32, 64))
        assert errs[-2] / errs[-1] > 10.0

    def test_second_order_midpoint(self):
        errs = self._errors("midpoint", (64, 128, 256))
        ratio = errs[-2] / errs[-1]
        assert 3.0 < ratio < 6.0

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            propagate_generic(
                lambda tt: hamiltonian_at(SPEC, PARAMS, tt, 8), 8, 0.0, 1.0, 4, scheme="rk4"
            )
        with pytest.raises(ValueError):
            integrate(SPEC, PARAMS, TRUNC, 1.0, 0.0, scheme="euler")

    def test_too_few_steps_rejected(self):
        with pytest.raises(ValueError):
            PeriodStepper(SPEC, PARAMS, TRUNC, steps_per_period=8)


class TestStepper:
    @pytest.mark.parametrize("t,s,name", [(math.inf, 0.0, "t"), (math.nan, 0.0, "t"), (1.0, -math.inf, "s")])
    def test_non_finite_time_rejected(self, t, s, name):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            integrate(SPEC, PARAMS, TRUNC, t, s)

    def test_unitarity(self):
        stepper = PeriodStepper(SPEC, PARAMS, TRUNC, steps_per_period=64)
        u = stepper.u(3.7, 0.9)
        assert np.linalg.norm(u @ u.conj().T - np.eye(TRUNC.dim), 2) <= 1e-12

    def test_monodromy_powering(self):
        """Whole periods from zero are literal powers of the monodromy."""
        stepper = PeriodStepper(SPEC, PARAMS, TRUNC, steps_per_period=64)
        m = stepper.u(T_DRIVE, 0.0)
        u3 = stepper.u(3 * T_DRIVE, 0.0)
        assert np.linalg.norm(u3 - m @ m @ m, 2) <= 1e-12

    def test_reverse_is_adjoint(self):
        stepper = PeriodStepper(SPEC, PARAMS, TRUNC, steps_per_period=64)
        fwd = stepper.u(2.6, 0.4)
        bwd = stepper.u(0.4, 2.6)
        assert np.linalg.norm(bwd - fwd.conj().T, 2) <= 1e-10

    def test_matches_closed_form(self):
        u_num = integrate(SPEC, PARAMS, TRUNC, 1.8, 0.2, steps_per_period=256).entries
        u_ref = propagator_factored(SPEC, PARAMS, TRUNC, 1.8, 0.2).entries
        half = TRUNC.n_keep // 2
        assert np.linalg.norm((u_num - u_ref)[:half, :half], 2) <= 1e-8


def _sampled_drive() -> DriveSpec:
    ts = np.linspace(0.0, T_DRIVE, 32, endpoint=False)
    fs = 0.2 * np.sin(2 * np.pi * ts / T_DRIVE) + 0.1 * np.cos(4 * np.pi * ts / T_DRIVE)
    return DriveSpec.from_samples(T_DRIVE, ts, fs)


@pytest.mark.parametrize("dim", [2, 17, 96])
def test_hamiltonian_at_matches_the_dense_x_construction(dim):
    """H(t) written onto the bands of x equals H_omega + f(t) x built from
    the dense x of xp_operators."""
    for spec in (SPEC, _sampled_drive(), DriveSpec.sine(T_DRIVE, amplitude=-0.7)):
        for t in (0.0, 0.37, 2.9, -4.1):
            x, _ = xp_operators(OMEGA, dim)
            dense = np.diag(number_basis_energies(OMEGA, dim)).astype(complex) + float(eval_drive(spec, t)) * x
            assert np.array_equal(hamiltonian_at(spec, PARAMS, t, dim), dense)


class TestStructuredSegment:
    """PeriodStepper.segment steps on the (diag, off) form of H(t); it must
    reproduce the dense generic stepper on the same nodes."""

    @pytest.mark.parametrize("scheme", ["cf4", "midpoint"])
    @pytest.mark.parametrize("drive", ["fourier", "sampled"])
    @pytest.mark.parametrize("trunc", [TRUNC, Truncation(n_keep=16, n_pad=0)], ids=["padded", "no_pad"])
    @pytest.mark.parametrize(
        "start, span",
        [(0.0, 0.4), (0.3, 0.45), (0.6, 1.7), (0.5, -0.8), (2.25, -0.3)],
        ids=["short", "mid_period", "over_a_period", "backward", "backward_later_period"],
    )
    def test_matches_generic_stepper(self, scheme, drive, trunc, start, span):
        spec = SPEC if drive == "fourier" else _sampled_drive()
        self._check(spec, trunc, scheme, start, span)

    @pytest.mark.parametrize(
        "scheme, trunc, start, span",
        [
            # one midpoint step: a single exponential, no eigenbasis overlap
            ("midpoint", TRUNC, 0.3, 0.02),
            ("cf4", Truncation(n_keep=2, n_pad=0), 0.3, 0.45),
            ("cf4", Truncation(n_keep=96, n_pad=96), 0.3, 0.45),
        ],
        ids=["one_exponential", "dim_2", "dim_192"],
    )
    @pytest.mark.filterwarnings("error")
    def test_matches_generic_stepper_at_the_edges(self, scheme, trunc, start, span):
        self._check(SPEC, trunc, scheme, start, span)

    @staticmethod
    def _check(spec, trunc, scheme, start, span):
        stepper = PeriodStepper(spec, PARAMS, trunc, steps_per_period=32, scheme=scheme)
        start, span = start * T_DRIVE, span * T_DRIVE
        u = stepper.segment(start, span)
        t_mod = math.fmod(start, T_DRIVE)
        n_steps = max(1, math.ceil(32 * abs(span) / T_DRIVE - 1e-12))
        ref = propagate_generic(
            lambda tt: hamiltonian_at(spec, PARAMS, tt, trunc.dim),
            trunc.dim,
            t_mod,
            t_mod + span,
            n_steps,
            scheme=scheme,
        )
        assert np.abs(u - ref).max() <= 1e-12


class TestWorkingSet:
    """segment streams its product through the current eigenbasis: it keeps
    one state and one eigenvector matrix, not every step's eigenvectors."""

    def test_period_peak_stays_a_few_matrices(self):
        trunc = Truncation(n_keep=96, n_pad=96)
        stepper = PeriodStepper(SPEC, PARAMS, trunc, steps_per_period=128)
        budget = 8 * trunc.dim**2 * 16
        tracemalloc.start()
        try:
            stepper.segment(0.0, T_DRIVE)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= budget, f"peak {peak} bytes against a budget of {budget}"


class TestSegmentKey:
    """The cache keys a segment by its start phase folded into [0, T)."""

    def test_start_at_a_whole_period_reuses_the_segment_from_zero(self, monkeypatch):
        start = 9 * T_DRIVE  # fmod(start, T) is T less an ulp here
        assert round(math.fmod(start, T_DRIVE) / T_DRIVE, 12) == 1.0
        starts = []
        real = PeriodStepper._stepped
        monkeypatch.setattr(
            PeriodStepper, "_stepped", lambda self, s, t, n: starts.append(s) or real(self, s, t, n)
        )
        stepper = PeriodStepper(SPEC, PARAMS, TRUNC, steps_per_period=32)
        first = stepper.segment(start, 0.25 * T_DRIVE)
        assert starts == [0.0]
        assert stepper.segment(0.0, 0.25 * T_DRIVE) is first
        assert stepper.segment(-T_DRIVE, 0.25 * T_DRIVE) is first
        assert starts == [0.0]

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_diagonal_is_a_numeric_error(self):
        """The batch check still sees every band: here omega (n + 1/2) overflows."""
        params = OscillatorParams(omega=1e307, period_T=T_DRIVE)
        with pytest.raises(NumericError, match="tridiagonal input contains NaN or Inf"):
            PeriodStepper(SPEC, params, TRUNC, steps_per_period=32).segment(0.0, 1.0)


def _spy_stepped(monkeypatch) -> list:
    """Record (start, end) of every segment PeriodStepper actually steps."""
    spans = []
    real = PeriodStepper._stepped
    monkeypatch.setattr(
        PeriodStepper, "_stepped", lambda self, s, t, n: spans.append((s, t)) or real(self, s, t, n)
    )
    return spans


class TestSharedStepper:
    """integrate and evolve_state share one bounded LRU of steppers, keyed on
    (spec, params, trunc, steps_per_period, scheme)."""

    def test_repeated_integrate_steps_the_monodromy_once(self, monkeypatch):
        spans = _spy_stepped(monkeypatch)
        first = integrate(SPEC, PARAMS, TRUNC, 1.5 * T_DRIVE, 0.0, steps_per_period=32)
        second = integrate(SPEC, PARAMS, TRUNC, 1.5 * T_DRIVE, 0.0, steps_per_period=32)
        assert np.array_equal(first.entries, second.entries)
        # the sub-period remainder is stepped on every call, never cached
        assert spans.count((0.0, T_DRIVE)) == 1 and len(spans) == 3

    def test_hit_matches_a_fresh_stepper(self):
        psi0 = np.array([1.0 + 0j])
        grid = np.linspace(0.0, 3 * T_DRIVE, 13)
        first = evolve_state(SPEC, PARAMS, TRUNC, psi0, grid, steps_per_period=32).states
        again = evolve_state(SPEC, PARAMS, TRUNC, psi0, grid, steps_per_period=32).states
        oracle._STEPPERS.clear()
        fresh = evolve_state(SPEC, PARAMS, TRUNC, psi0, grid, steps_per_period=32).states
        assert np.array_equal(first, again) and np.array_equal(first, fresh)

    def test_steps_or_scheme_change_is_a_miss(self, monkeypatch):
        spans = _spy_stepped(monkeypatch)
        for steps, scheme in ((32, "cf4"), (33, "cf4"), (32, "midpoint"), (32, "cf4")):
            integrate(SPEC, PARAMS, TRUNC, 1.5 * T_DRIVE, 0.0, steps_per_period=steps, scheme=scheme)
        assert spans.count((0.0, T_DRIVE)) == 3
        assert len(oracle._STEPPERS) == 3

    def test_at_most_eight_steppers_least_recent_evicted(self):
        keys = [(SPEC, PARAMS, TRUNC, steps, "cf4") for steps in range(16, 25)]
        for key in keys:
            integrate(*key[:3], 1.5 * T_DRIVE, 0.0, steps_per_period=key[3])
        assert list(oracle._STEPPERS) == keys[1:]

    def test_byte_cap_evicts_least_recent_and_refuses_an_oversized_stepper(self, monkeypatch):
        segment_bytes = TRUNC.dim**2 * 16
        monkeypatch.setattr(oracle, "_SEGMENT_CACHE_BYTES", 3 * segment_bytes // 2)
        for steps in (16, 17):
            integrate(SPEC, PARAMS, TRUNC, 1.5 * T_DRIVE, 0.0, steps_per_period=steps)
        assert [key[3] for key in oracle._STEPPERS] == [17]
        # three segments in one stepper: over the cap on its own, so not kept,
        # and the stepper already kept stays
        grid = np.linspace(0.0, 0.75 * T_DRIVE, 4)
        evolve_state(SPEC, PARAMS, TRUNC, np.array([1.0 + 0j]), grid, steps_per_period=18)
        assert [key[3] for key in oracle._STEPPERS] == [17]

    def test_segments_are_read_only(self):
        stepper = PeriodStepper(SPEC, PARAMS, TRUNC, steps_per_period=32)
        for u in (stepper.segment(0.1, 0.3 * T_DRIVE), stepper.monodromy()):
            with pytest.raises(ValueError, match="read-only"):
                u[0, 0] = 0.0

    def test_unhashable_arguments_are_stepped_unshared(self):
        u = integrate(SPEC, PARAMS, TRUNC, 1.5 * T_DRIVE, 0.0, steps_per_period=np.array(32))
        assert np.array_equal(u.entries, integrate(SPEC, PARAMS, TRUNC, 1.5 * T_DRIVE, 0.0,
                                                   steps_per_period=32).entries)
        with pytest.raises(ValueError, match="unknown scheme"):
            integrate(SPEC, PARAMS, TRUNC, 1.0, 0.0, scheme=["cf4"])
        assert list(oracle._STEPPERS) == [(SPEC, PARAMS, TRUNC, 32, "cf4")]

    def test_failed_build_caches_nothing(self):
        huge = DriveSpec.sine(T_DRIVE, amplitude=1e306)
        for _ in range(2):
            with pytest.raises(NumericError, match="step phase"):
                integrate(huge, PARAMS, TRUNC, 5.0, 0.0, steps_per_period=32)
            assert len(oracle._STEPPERS) == 0


class TestNonFiniteDrive:
    """A drive whose f(t) x overflows fails with the typed NumericError."""

    HUGE = DriveSpec.sine(T_DRIVE, amplitude=1e308)

    @pytest.mark.parametrize("scheme", ["cf4", "midpoint"])
    def test_integrate(self, scheme):
        with pytest.raises(NumericError):
            integrate(self.HUGE, PARAMS, TRUNC, 5.0, 0.0, steps_per_period=32, scheme=scheme)

    def test_evolve_state(self):
        psi0 = np.array([1.0 + 0j])
        with pytest.raises(NumericError):
            evolve_state(self.HUGE, PARAMS, TRUNC, psi0, [0.0, 5.0], steps_per_period=32)

    def test_nan_drive_value(self, monkeypatch):
        import floquet_lab.oracle as oracle

        monkeypatch.setattr(oracle, "eval_drive", lambda spec, t: np.full(np.shape(t), np.nan))
        with pytest.raises(NumericError):
            integrate(SPEC, PARAMS, TRUNC, 1.0, 0.0, steps_per_period=32)


class TestStepPhaseLimit:
    """A step phase h max|f(t_j)| ||x|| of 2^52 or more keeps no digit of
    the step exponential: NumericError, however finite the drive is."""

    LIMIT = 2.0**52

    def _amplitude(self, phase: float, steps: int) -> float:
        """Sine amplitude whose full-period segment has about this phase."""
        x, _ = xp_operators(OMEGA, TRUNC.dim)
        x_norm = float(np.abs(np.linalg.eigvalsh(x)).max())
        return phase / ((T_DRIVE / steps) * x_norm)

    def test_segment_at_and_below_the_limit(self):
        # max |f| over the step nodes is within 1% of the amplitude, so the
        # two segments have phases of about 2^53 and 2^50
        raised = PeriodStepper(
            DriveSpec.sine(T_DRIVE, amplitude=self._amplitude(2 * self.LIMIT, 32)),
            PARAMS, TRUNC, steps_per_period=32,
        )
        with pytest.raises(NumericError, match="2\\^52"):
            raised.segment(0.0, T_DRIVE)
        kept = PeriodStepper(
            DriveSpec.sine(T_DRIVE, amplitude=self._amplitude(0.25 * self.LIMIT, 32)),
            PARAMS, TRUNC, steps_per_period=32,
        )
        assert np.all(np.isfinite(kept.segment(0.0, T_DRIVE)))

    @pytest.mark.parametrize("scheme", ["cf4", "midpoint"])
    def test_integrate(self, scheme):
        spec = DriveSpec.sine(T_DRIVE, amplitude=1e306)
        with pytest.raises(NumericError, match="step phase"):
            integrate(spec, PARAMS, TRUNC, 5.0, 0.0, steps_per_period=32, scheme=scheme)

    def test_evolve_state(self):
        spec = DriveSpec.sine(T_DRIVE, amplitude=1e306)
        with pytest.raises(NumericError, match="step phase"):
            evolve_state(spec, PARAMS, TRUNC, np.array([1.0 + 0j]), [0.0, 5.0], steps_per_period=32)


class TestEvolveState:
    def test_ground_state_norms(self):
        psi0 = np.zeros(4, dtype=complex)
        psi0[0] = 1.0
        grid = np.linspace(0.0, 2 * T_DRIVE, 9)
        res = evolve_state(SPEC, PARAMS, TRUNC, psi0, grid)
        assert res.times.shape == (9,)
        assert res.states.shape == (9, TRUNC.dim)
        assert np.allclose(res.norms, 1.0, atol=1e-10)
        assert res.pad_population.max() < 1e-12
        assert not res.edge_warning

    def test_edge_state_warns(self):
        psi0 = np.zeros(TRUNC.dim, dtype=complex)
        psi0[TRUNC.n_keep - 2] = 1.0
        res = evolve_state(SPEC, PARAMS, TRUNC, psi0, [0.0, 0.5])
        assert res.edge_warning

    def test_unnormalized_rejected(self):
        psi0 = np.zeros(4, dtype=complex)
        psi0[0] = 0.7
        with pytest.raises(ValueError):
            evolve_state(SPEC, PARAMS, TRUNC, psi0, [0.0, 1.0])

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_state_rejected(self, value):
        with pytest.raises(ValueError, match="normalized"):
            evolve_state(SPEC, PARAMS, TRUNC, np.array([value], dtype=complex), [0.0, 1.0])

    def test_grid_must_not_decrease(self):
        psi0 = np.zeros(4, dtype=complex)
        psi0[0] = 1.0
        with pytest.raises(ValueError):
            evolve_state(SPEC, PARAMS, TRUNC, psi0, [0.0, 2.0, 1.0])
        with pytest.raises(ValueError):
            evolve_state(SPEC, PARAMS, TRUNC, psi0, [])

    @pytest.mark.parametrize("grid", [[0.0, math.inf], [0.0, math.nan], [math.nan]],
                             ids=["inf", "nan", "nan_only"])
    def test_non_finite_time_rejected(self, grid):
        with pytest.raises(ValueError, match="t_grid must hold finite times"):
            evolve_state(SPEC, PARAMS, TRUNC, np.array([1.0 + 0j]), grid)

    def test_matches_propagator_column(self):
        psi0 = np.zeros(1, dtype=complex)
        psi0[0] = 1.0
        t = 0.9 * T_DRIVE
        res = evolve_state(SPEC, PARAMS, TRUNC, psi0, [0.0, t], steps_per_period=256)
        u = propagator_factored(SPEC, PARAMS, TRUNC, t, 0.0).entries
        half = TRUNC.n_keep // 2
        dev = np.linalg.norm(res.states[1][:half] - u[:half, 0])
        assert dev <= 1e-8
