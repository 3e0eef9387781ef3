import math

import numpy as np
import pytest

from floquet_lab import (
    DriveSpec,
    InvalidIntervalError,
    OscillatorParams,
    Truncation,
    higher_order_bound_check,
    sup_xn_norm,
    xn_operator,
    xn_operator_via_floquet,
)
from floquet_lab import commutators

OMEGA = 1.0
T_DRIVE = 2 * math.pi * math.sqrt(2)
PARAMS = OscillatorParams(omega=OMEGA, period_T=T_DRIVE)
SPEC = DriveSpec.sine(T_DRIVE, amplitude=0.3)
TRUNC = Truncation(n_keep=32, n_pad=32)


class TestXnOperators:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_dual_routes_agree(self, n):
        """The kept-block recursion against the co-rotating one."""
        t, s = 0.9, 0.2
        half = TRUNC.n_keep // 2
        direct = xn_operator(SPEC, PARAMS, TRUNC, n, t, s).entries
        dual = xn_operator_via_floquet(SPEC, PARAMS, TRUNC, n, t, s).entries
        dev = np.linalg.norm((direct - dual)[:half, :half], 2)
        scale = max(np.linalg.norm(direct[:half, :half], 2), 1.0)
        assert dev <= 1e-8 * scale

    def test_x0_is_propagator(self):
        from floquet_lab import propagator_factored

        x0 = xn_operator(SPEC, PARAMS, TRUNC, 0, 1.1, 0.3).entries
        u = propagator_factored(SPEC, PARAMS, TRUNC, 1.1, 0.3).entries
        assert np.allclose(x0, u, atol=1e-12)

    def test_order_cap(self):
        with pytest.raises(ValueError):
            xn_operator(SPEC, PARAMS, TRUNC, 5, 1.0, 0.0)
        with pytest.raises(ValueError):
            xn_operator_via_floquet(SPEC, PARAMS, TRUNC, -1, 1.0, 0.0)

    def test_sup_norm_finite(self):
        sup = sup_xn_norm(SPEC, PARAMS, TRUNC, 1, grid_points=5)
        assert math.isfinite(sup) and sup > 0.0


class TestHigherOrderBound:
    IV1 = (0.0, 1.2)
    IV2 = (4.0, 6.2)

    def test_second_order(self):
        report = higher_order_bound_check(
            SPEC, PARAMS, TRUNC, 2, 0.8 * T_DRIVE, 0.0, self.IV1, self.IV2, grid_points=8
        )
        assert report.ok
        assert report.rhs == pytest.approx(report.c_p / report.dist**2)

    def test_first_order(self):
        report = higher_order_bound_check(
            SPEC, PARAMS, TRUNC, 1, 0.8 * T_DRIVE, 0.0, self.IV1, self.IV2, grid_points=8
        )
        assert report.ok
        assert report.rhs == pytest.approx(report.c_p / report.dist)

    def test_interval_validation(self):
        with pytest.raises(InvalidIntervalError):
            higher_order_bound_check(SPEC, PARAMS, TRUNC, 2, 1.0, 0.0, (0.0, 2.0), (1.5, 3.0))
        with pytest.raises(ValueError):
            higher_order_bound_check(SPEC, PARAMS, TRUNC, 0, 1.0, 0.0, self.IV1, self.IV2)

    def test_bad_input_is_refused_before_the_grid_sup(self, monkeypatch):
        """The periods, the times and the intervals are checked, in that
        order, before C_p is computed."""

        def no_sup(*args):
            raise AssertionError("sup_xn_norm was called")

        monkeypatch.setattr(commutators, "sup_xn_norm", no_sup)
        other_period = OscillatorParams(omega=OMEGA, period_T=1.5 * T_DRIVE)
        with pytest.raises(ValueError, match="disagree"):
            higher_order_bound_check(SPEC, other_period, TRUNC, 2, math.nan, 0.0, (0.0, 2.0), (1.5, 3.0))
        with pytest.raises(ValueError, match="^t must be finite"):
            higher_order_bound_check(SPEC, PARAMS, TRUNC, 2, math.nan, 0.0, (0.0, 2.0), (1.5, 3.0))
        with pytest.raises(InvalidIntervalError):
            higher_order_bound_check(SPEC, PARAMS, TRUNC, 2, 1.0, 0.0, (0.0, 2.0), (1.5, 3.0))

    @pytest.mark.parametrize("count", [0, -5])
    def test_grid_points_must_be_positive(self, count):
        with pytest.raises(ValueError, match="grid_points"):
            higher_order_bound_check(
                SPEC, PARAMS, TRUNC, 2, 1.0, 0.0, self.IV1, self.IV2, grid_points=count
            )
        with pytest.raises(ValueError, match="grid_points"):
            sup_xn_norm(SPEC, PARAMS, TRUNC, 1, grid_points=count)
