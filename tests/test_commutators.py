import math

import numpy as np
import pytest

from floquet_lab import (
    DriveSpec,
    InvalidIntervalError,
    OscillatorParams,
    Truncation,
    TruncatedOperator,
    ap_commute,
    f_polynomial,
    higher_order_bound_check,
    sup_xn_norm,
    xn_operator,
    xn_operator_via_floquet,
)

OMEGA = 1.0
T_DRIVE = 2 * math.pi * math.sqrt(2)
PARAMS = OscillatorParams(omega=OMEGA, period_T=T_DRIVE)
SPEC = DriveSpec.sine(T_DRIVE, amplitude=0.3)
TRUNC = Truncation(n_keep=32, n_pad=32)


def _random_hermitian(rng, n):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (m + m.conj().T) / 2


def expand_normal_ordered(p: int) -> dict:
    """Oracle: push every A in (A + B)^p to the right, one factor at a time.

    A term is word * A^m with word a product of symbols x_j = ad_A^j B.
    Multiplying by A increments m; multiplying by B commutes it through
    A^m via A^m B = sum_k C(m, k) x_{m-k} A^k. Returns
    {k: {word: coefficient}} so that (A+B)^p = sum_k F_{p,k} A^k.
    """
    terms = {((), 0): 1}
    for _ in range(p):
        nxt: dict = {}
        for (word, m), coeff in terms.items():
            key = (word, m + 1)
            nxt[key] = nxt.get(key, 0) + coeff
            for k in range(m + 1):
                key = (word + (m - k,), k)
                nxt[key] = nxt.get(key, 0) + coeff * math.comb(m, k)
        terms = nxt
    by_k: dict = {}
    for (word, m), coeff in terms.items():
        by_k.setdefault(m, {})[word] = coeff
    return by_k


class TestApCommute:
    @pytest.mark.parametrize("p", [0, 1, 2, 3, 4, 5])
    def test_rewriting_equals_direct_product(self, p):
        rng = np.random.default_rng(100 + p)
        for _ in range(20):
            a = _random_hermitian(rng, 16)
            b = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
            out = ap_commute(TruncatedOperator.hermitian_op(a), TruncatedOperator(b), p).entries
            direct = np.linalg.matrix_power(a, p) @ b
            scale = np.linalg.norm(direct)
            assert np.linalg.norm(out - direct) <= 1e-10 * max(scale, 1.0)

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            ap_commute(np.eye(3), np.eye(3), -1)


class TestFPolynomials:
    def test_base_cases(self):
        assert f_polynomial(1, 0).coefficients() == {(0,): 1}
        assert f_polynomial(1, 1).coefficients() == {(): 1}
        assert f_polynomial(2, 0).coefficients() == {(1,): 1, (0, 0): 1}
        assert f_polynomial(2, 1).coefficients() == {(0,): 2}
        assert f_polynomial(2, 2).coefficients() == {(): 1}

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_against_normal_ordering_oracle(self, p):
        """Exact integer agreement with the word-by-word expansion."""
        oracle = expand_normal_ordered(p)
        for k in range(p + 1):
            assert f_polynomial(p, k).coefficients() == oracle.get(k, {})

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_operator_identity(self, p):
        """(A+B)^p = sum_k F_{p,k}(x_0, x_1, ...) A^k with matrices."""
        rng = np.random.default_rng(30 + p)
        a = _random_hermitian(rng, 8)
        b = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        symbols = [b]
        for _ in range(p):
            symbols.append(a @ symbols[-1] - symbols[-1] @ a)
        total = np.zeros((8, 8), dtype=complex)
        a_pow = np.eye(8, dtype=complex)
        for k in range(p + 1):
            total += f_polynomial(p, k).evaluate(symbols) @ a_pow
            a_pow = a_pow @ a
        direct = np.linalg.matrix_power(a + b, p)
        assert np.linalg.norm(total - direct) <= 1e-10 * np.linalg.norm(direct)

    def test_bad_indices(self):
        with pytest.raises(IndexError):
            f_polynomial(2, 3)
        with pytest.raises(IndexError):
            f_polynomial(0, 0)
        with pytest.raises(IndexError):
            f_polynomial(3, -1)

    def test_json_shape(self):
        d = f_polynomial(2, 0).to_json_dict()
        assert d["p"] == 2 and d["k"] == 0
        words = {tuple(t["word"]): t["coefficient"] for t in d["terms"]}
        assert words == {(1,): 1, (0, 0): 1}


class TestXnOperators:
    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_dual_routes_agree(self, n):
        """Binomial assembly against the co-rotating recursion."""
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
        assert report.first_order_rhs is None

    def test_first_order_reports_comparison(self):
        report = higher_order_bound_check(
            SPEC, PARAMS, TRUNC, 1, 0.8 * T_DRIVE, 0.0, self.IV1, self.IV2, grid_points=8
        )
        assert report.ok
        assert report.first_order_rhs is not None and report.first_order_rhs > 0.0

    def test_precomputed_constant_is_used(self):
        report = higher_order_bound_check(
            SPEC, PARAMS, TRUNC, 2, 1.0, 0.0, self.IV1, self.IV2, c_p=7.5
        )
        assert report.c_p == 7.5
        assert report.rhs == pytest.approx(7.5 / report.dist**2)

    def test_interval_validation(self):
        with pytest.raises(InvalidIntervalError):
            higher_order_bound_check(
                SPEC, PARAMS, TRUNC, 2, 1.0, 0.0, (0.0, 2.0), (1.5, 3.0), c_p=1.0
            )
        with pytest.raises(ValueError):
            higher_order_bound_check(
                SPEC, PARAMS, TRUNC, 0, 1.0, 0.0, self.IV1, self.IV2, c_p=1.0
            )

    @pytest.mark.parametrize("count", [0, -5])
    def test_grid_points_must_be_positive(self, count):
        with pytest.raises(ValueError, match="grid_points"):
            higher_order_bound_check(
                SPEC, PARAMS, TRUNC, 2, 1.0, 0.0, self.IV1, self.IV2, grid_points=count
            )
        with pytest.raises(ValueError, match="grid_points"):
            sup_xn_norm(SPEC, PARAMS, TRUNC, 1, grid_points=count)

    def test_json_payload(self):
        report = higher_order_bound_check(
            SPEC, PARAMS, TRUNC, 2, 1.0, 0.0, self.IV1, self.IV2, c_p=3.0
        )
        d = report.to_json_dict()
        assert d["p"] == 2 and d["ok"] == report.ok
        assert d["first_order_rhs"] is None
