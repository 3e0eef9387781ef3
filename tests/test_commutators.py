import math
import os
import subprocess
import sys

import numpy as np
import pytest

import floquet_lab
from floquet_lab import (
    DriveSpec,
    InvalidIntervalError,
    NumericError,
    OscillatorParams,
    Truncation,
    higher_order_bound_check,
    sup_xn_norm,
    xn_operator,
    xn_operator_via_floquet,
)
from floquet_lab import commutators
from floquet_lab.cli import _load_config, shipped_config_path

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

    def test_dual_route_inverts_u_f_by_its_adjoint(self, monkeypatch):
        """U_F(s)^{-1} is the adjoint of U_F(s)'s exact entries,
        D(beta)^dag = D(-beta): no matrix is inverted, and at n = 0 the dual
        route is U_F(t) e^{-i(t-s)H_F} U_F(s)^dag, trimmed."""
        from floquet_lab.floquet import _hf_matrix, _uf_matrix
        from floquet_lab.core_fock import matrix_exp

        t, s, dim = 0.9, 0.2, TRUNC.dim
        expect = (
            _uf_matrix(SPEC, PARAMS, t, dim)
            @ matrix_exp(-1j * (t - s) * _hf_matrix(SPEC, PARAMS, dim))
            @ _uf_matrix(SPEC, PARAMS, s, dim).conj().T
        )[: TRUNC.n_keep, : TRUNC.n_keep]

        def no_inverse(*args, **kwargs):
            raise AssertionError("numpy.linalg.inv was called")

        monkeypatch.setattr(np.linalg, "inv", no_inverse)
        dual = xn_operator_via_floquet(SPEC, PARAMS, TRUNC, 0, t, s).entries
        assert np.array_equal(dual, expect)

    def test_x0_is_propagator(self):
        from floquet_lab import propagator_factored

        x0 = xn_operator(SPEC, PARAMS, TRUNC, 0, 1.1, 0.3).entries
        u = propagator_factored(SPEC, PARAMS, TRUNC, 1.1, 0.3).entries
        assert np.array_equal(x0, u)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_swapping_the_times_is_the_signed_adjoint(self, n):
        """X_n(s,t) = (-1)^n X_n(t,s)^dag on the kept block, the identity
        behind sup_xn_norm's half grid."""
        t, s = 0.9, 2.3
        forward = xn_operator(SPEC, PARAMS, TRUNC, n, t, s).entries
        backward = xn_operator(SPEC, PARAMS, TRUNC, n, s, t).entries
        dev = np.linalg.norm(backward - (-1) ** n * forward.conj().T, 2)
        assert dev <= 1e-10 * np.linalg.norm(forward, 2)

    def test_order_cap(self):
        with pytest.raises(ValueError):
            xn_operator(SPEC, PARAMS, TRUNC, 5, 1.0, 0.0)
        with pytest.raises(ValueError):
            xn_operator_via_floquet(SPEC, PARAMS, TRUNC, -1, 1.0, 0.0)

    def test_sup_norm_finite(self):
        sup = sup_xn_norm(SPEC, PARAMS, TRUNC, 1, grid_points=5)
        assert math.isfinite(sup) and sup > 0.0

    @pytest.mark.parametrize("grid_points", [1, 2, 5])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_sup_norm_is_the_full_grid_max(self, n, grid_points):
        """The half grid without psi gives the max of ||xn_operator|| over
        every pair of grid times.  One point is refused: its only pair is
        X_n(0, 0) = 0."""
        if grid_points == 1:
            assert np.linalg.norm(xn_operator(SPEC, PARAMS, TRUNC, n, 0.0, 0.0).entries, 2) == 0.0
            with pytest.raises(ValueError, match="^grid_points must be >= 2, got 1$"):
                sup_xn_norm(SPEC, PARAMS, TRUNC, n, grid_points=1)
            return
        taus = np.linspace(0.0, T_DRIVE, grid_points, endpoint=False)
        brute = max(
            np.linalg.norm(xn_operator(SPEC, PARAMS, TRUNC, n, t, s).entries, 2) for t in taus for s in taus
        )
        sup = sup_xn_norm(SPEC, PARAMS, TRUNC, n, grid_points=grid_points)
        assert abs(sup - brute) <= 1e-10 * brute

    def test_an_overflowing_drive_fails_typed(self):
        """A drive of amplitude 1e300 raises NumericError on the batched
        path; it never returns nan or inf."""
        huge = DriveSpec.sine(T_DRIVE, amplitude=1e300)
        with pytest.raises(NumericError):
            sup_xn_norm(huge, PARAMS, TRUNC, 2, grid_points=3)

    @pytest.mark.parametrize("n", [1.5, True, "2", None])
    def test_non_integer_order_is_refused(self, n):
        for fn in (xn_operator, xn_operator_via_floquet):
            with pytest.raises(ValueError, match="^n must be an integer"):
                fn(SPEC, PARAMS, TRUNC, n, 1.0, 0.0)
        with pytest.raises(ValueError, match="^n must be an integer"):
            sup_xn_norm(SPEC, PARAMS, TRUNC, n, grid_points=2)

    def test_integral_float_order_reads_as_int(self):
        assert np.array_equal(
            xn_operator(SPEC, PARAMS, TRUNC, 2.0, 1.0, 0.0).entries,
            xn_operator(SPEC, PARAMS, TRUNC, 2, 1.0, 0.0).entries,
        )


def test_sup_norm_builds_no_propagator_per_point():
    """A fresh process, so no cache is warm, counts what sup_xn_norm calls
    through the names commutators looks up: no psi, no factored
    propagator, and one H(t) per grid time."""
    env = dict(os.environ)
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(floquet_lab.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    code = (
        "import math, collections\n"
        "import floquet_lab as fl, floquet_lab.commutators as c\n"
        "import floquet_lab.drive_model as d, floquet_lab.propagator as p\n"
        "calls = collections.Counter()\n"
        "def count(module, name, original):\n"
        "    def wrapper(*args, **kwargs):\n"
        "        calls[name] += 1\n"
        "        return original(*args, **kwargs)\n"
        "    setattr(module, name, wrapper)\n"
        "for module, name, original in [(d, '_psi', d._psi), (c, 'psi', d.psi),\n"
        "        (p, 'propagator_factored', p.propagator_factored),\n"
        "        (c, 'propagator_factored', p.propagator_factored), (c, 'hamiltonian_at', d.hamiltonian_at)]:\n"
        "    count(module, name, original)\n"
        "T = 2 * math.pi * math.sqrt(2)\n"
        "params = fl.OscillatorParams(omega=1.0, period_T=T)\n"
        "sup = c.sup_xn_norm(fl.DriveSpec.sine(T, amplitude=0.3), params, fl.Truncation(n_keep=16), 2, grid_points=5)\n"
        "print(sup > 0.0, sorted(calls.items()))"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert done.stdout.strip() == "True [('hamiltonian_at', 5)]"


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

    @pytest.mark.parametrize("kwargs, name", [({"p": 2.5}, "p"), ({"grid_points": 4.5}, "grid_points"),
                                              ({"grid_points": True}, "grid_points")])
    def test_non_integer_counts_are_refused_first(self, monkeypatch, kwargs, name):
        """Named before the periods are checked, and before any grid work."""

        def no_sup(*args):
            raise AssertionError("sup_xn_norm was called")

        monkeypatch.setattr(commutators, "sup_xn_norm", no_sup)
        other_period = OscillatorParams(omega=OMEGA, period_T=1.5 * T_DRIVE)
        args = {"p": 2, "grid_points": 4} | kwargs
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            higher_order_bound_check(
                SPEC, other_period, TRUNC, args["p"], 1.0, 0.0, self.IV1, self.IV2, grid_points=args["grid_points"]
            )

    def test_one_grid_point_is_refused(self, monkeypatch):
        """One point sees only X_p(0, 0) = 0, so it would give C_p = 0 and a
        false violation; two give the bound.  The count is refused before
        lhs is computed."""
        spec, params, trunc, _, _ = _load_config(shipped_config_path("nonresonant.json"))
        args = (spec, params, trunc, 2, 2.5, 0.7, (0.0, 3.0), (5.0, 9.0))
        assert higher_order_bound_check(*args, grid_points=2).ok
        with pytest.raises(ValueError, match="^grid_points must be >= 2, got 1$"):
            sup_xn_norm(spec, params, trunc, 2, grid_points=1)

        def no_lhs(*args):
            raise AssertionError("_transition_bound was called")

        monkeypatch.setattr(commutators, "_transition_bound", no_lhs)
        with pytest.raises(ValueError, match="^grid_points must be >= 2, got 1$"):
            higher_order_bound_check(*args, grid_points=1)

    @pytest.mark.parametrize("count", [0, -5])
    def test_grid_points_must_be_positive(self, count):
        with pytest.raises(ValueError, match="grid_points"):
            higher_order_bound_check(
                SPEC, PARAMS, TRUNC, 2, 1.0, 0.0, self.IV1, self.IV2, grid_points=count
            )
        with pytest.raises(ValueError, match="grid_points"):
            sup_xn_norm(SPEC, PARAMS, TRUNC, 1, grid_points=count)
