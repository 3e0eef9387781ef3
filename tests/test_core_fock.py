import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from floquet_lab import (
    InvalidTruncationError,
    NumericError,
    OscillatorParams,
    TruncatedOperator,
    Truncation,
    build_ladder,
    build_xpH,
    exp_padded,
    matrix_exp,
)
from floquet_lab.core_fock import (
    exp_tridiagonal,
    ladder,
    number_basis_energies,
    x_off_diagonal,
    xp_operators,
)


class TestLadder:
    def test_shapes_and_entries(self):
        a, adag = ladder(6)
        assert a.shape == (6, 6)
        # a|n> = sqrt(n)|n-1>
        for n in range(1, 6):
            assert a[n - 1, n] == pytest.approx(math.sqrt(n))
        assert np.array_equal(adag, a.conj().T)

    def test_number_operator(self):
        a, adag = ladder(8)
        n_op = adag @ a
        assert np.allclose(n_op, np.diag(np.arange(8.0)))

    def test_commutator_holds_except_last_state(self):
        # truncation necessarily breaks [a, a+] = 1 in the last basis state
        a, adag = ladder(10)
        comm = a @ adag - adag @ a
        assert np.allclose(comm[:9, :9], np.eye(9))
        assert comm[9, 9] == pytest.approx(-9.0)

    def test_build_ladder_wraps(self):
        tr = Truncation(n_keep=4, n_pad=2)
        a, adag = build_ladder(tr)
        assert isinstance(a, TruncatedOperator)
        assert a.dim == 6
        assert np.array_equal(a.dagger().entries, adag.entries)


class TestXPH:
    def test_hermitian_exact(self):
        x, p = xp_operators(1.3, 12)
        assert np.array_equal(x, x.conj().T)
        assert np.array_equal(p, p.conj().T)

    def test_canonical_commutator_leading_block(self):
        omega = 0.7
        x, p = xp_operators(omega, 24)
        comm = x @ p - p @ x
        assert np.allclose(comm[:23, :23], 1j * np.eye(23), atol=1e-12)

    def test_h_is_diagonal_spectrum_not_quadratic_form(self):
        """H comes from its known eigenvalues; the quadratic form in
        truncated x, p would corrupt the last rows."""
        params = OscillatorParams(omega=2.0, period_T=1.0)
        tr = Truncation(n_keep=8, n_pad=4)
        x, p, h = build_xpH(params, tr)
        expect = np.diag([2.0 * (n + 0.5) for n in range(12)])
        assert np.array_equal(h.entries, expect.astype(complex))
        quad = 0.5 * (p.entries @ p.entries + 4.0 * x.entries @ x.entries)
        assert abs(quad[11, 11] - expect[11, 11]) > 1.0

    def test_x_band_helper(self):
        x, _ = xp_operators(0.7, 9)
        assert np.allclose(x_off_diagonal(0.7, 9), np.diagonal(x, 1), rtol=1e-15, atol=0.0)

    def test_energies_helper(self):
        assert np.allclose(number_basis_energies(3.0, 3), [1.5, 4.5, 7.5])


class TestMatrixExp:
    def test_matches_scipy_on_general_input(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            m = rng.standard_normal((20, 20)) + 1j * rng.standard_normal((20, 20))
            assert np.allclose(matrix_exp(m), scipy.linalg.expm(m), atol=1e-12)

    @pytest.mark.parametrize("dim", [16, 64, 256])
    def test_unitarity_antihermitian(self, dim):
        rng = np.random.default_rng(dim)
        h = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        h = 0.5 * (h + h.conj().T)
        u = matrix_exp(-1j * h)
        defect = np.linalg.norm(u.conj().T @ u - np.eye(dim), 2)
        assert defect <= 1e-10

    def test_hermitian_path(self):
        rng = np.random.default_rng(1)
        h = rng.standard_normal((12, 12))
        h = 0.5 * (h + h.T) + 0j
        assert np.allclose(matrix_exp(h), scipy.linalg.expm(h), atol=1e-11)

    def test_rejects_nan(self):
        bad = np.full((3, 3), np.nan, dtype=complex)
        with pytest.raises(NumericError):
            matrix_exp(bad)


class TestTridiagonalExp:
    OMEGA = 0.8
    DIM = 40

    def test_x_generator_matches_matrix_exp(self):
        x, _ = xp_operators(self.OMEGA, self.DIM)
        u = exp_tridiagonal(np.zeros(self.DIM), 1.3 * x_off_diagonal(self.OMEGA, self.DIM))
        assert np.abs(u - matrix_exp(-1j * 1.3 * x)).max() <= 1e-12

    def test_step_generator_matches_matrix_exp(self):
        x, _ = xp_operators(self.OMEGA, self.DIM)
        energies = number_basis_energies(self.OMEGA, self.DIM)
        h_omega = np.diag(energies).astype(complex)
        u = exp_tridiagonal(0.07 * energies, 0.07 * 0.35 * x_off_diagonal(self.OMEGA, self.DIM))
        assert np.abs(u - matrix_exp(-1j * 0.07 * (h_omega + 0.35 * x))).max() <= 1e-12

    def test_helper_matches_dense_exponential(self):
        rng = np.random.default_rng(11)
        d, e = rng.standard_normal(30), rng.standard_normal(29)
        t = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
        u = exp_tridiagonal(d, e)
        assert np.abs(u - scipy.linalg.expm(-1j * t)).max() <= 1e-12
        assert np.linalg.norm(u.conj().T @ u - np.eye(30), 2) <= 1e-12

    def test_rejects_non_finite(self):
        with pytest.raises(NumericError):
            exp_tridiagonal(np.ones(4), np.array([1.0, np.inf, 0.0]))
        with pytest.raises(NumericError):
            exp_tridiagonal(np.array([0.0, np.nan, 1.0]), np.ones(2))
        # finite input whose eigenvalues overflow
        with pytest.raises(NumericError, match="overflowed"):
            exp_tridiagonal(np.array([1e308, 1e308]), np.array([1e308]))

    def test_eigensolver_failure_is_numeric_error(self, monkeypatch):
        def failing(*_args, **_kwargs):
            raise np.linalg.LinAlgError("stevd did not converge")

        monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", failing)
        with pytest.raises(NumericError, match="did not converge"):
            exp_tridiagonal(np.ones(4), np.ones(3))


class TestExpPadded:
    def test_pad_then_trim_beats_trim_then_exponentiate(self):
        """Exponentiating at the padded dimension and trimming keeps the
        kept block accurate; exponentiating the trimmed generator does not."""
        params = OscillatorParams(omega=1.0, period_T=2 * math.pi)
        tr = Truncation(n_keep=16, n_pad=16)
        x_full, _ = xp_operators(params.omega, tr.dim)

        def gen(dim):
            x, _ = xp_operators(params.omega, dim)
            return -1j * 1.5 * x

        padded = exp_padded(gen, tr)
        assert padded.dim == tr.n_keep
        reference = scipy.linalg.expm(gen(80))[:16, :16]
        assert np.linalg.norm(padded.entries - reference, 2) <= 1e-10
        trimmed_first = scipy.linalg.expm(gen(16))
        assert np.linalg.norm(trimmed_first - reference, 2) > 1e-4


class TestValidation:
    def test_truncation_bounds(self):
        with pytest.raises(InvalidTruncationError):
            Truncation(n_keep=1, n_pad=4)
        with pytest.raises(InvalidTruncationError):
            Truncation(n_keep=8, n_pad=-2)
        assert Truncation(n_keep=8, n_pad=0).dim == 8
        assert Truncation(n_keep=8).n_pad == 8

    def test_params_positive(self):
        with pytest.raises(ValueError):
            OscillatorParams(omega=-1.0, period_T=1.0)
        with pytest.raises(ValueError):
            OscillatorParams(omega=1.0, period_T=0.0)

    def test_hermitian_tag_enforced(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(ValueError):
            TruncatedOperator.hermitian_op(m)

    def test_basis_mismatch_rejected(self):
        a = TruncatedOperator(np.eye(2, dtype=complex), basis_tag="fock")
        b = TruncatedOperator(np.eye(2, dtype=complex), basis_tag="levels")
        with pytest.raises(ValueError):
            a @ b

    def test_trim_grows_rejected(self):
        a = TruncatedOperator(np.eye(4, dtype=complex))
        with pytest.raises(InvalidTruncationError):
            a.trimmed(8)
        assert a.trimmed(2).dim == 2


@settings(max_examples=30, deadline=None)
@given(
    scale=st.floats(min_value=0.01, max_value=3.0),
    dim=st.integers(min_value=2, max_value=24),
)
def test_exp_of_diag_phase_is_elementwise(scale, dim):
    phases = scale * np.arange(dim)
    u = matrix_exp(-1j * np.diag(phases).astype(complex))
    assert np.allclose(u, np.diag(np.exp(-1j * phases)), atol=1e-12)
