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
    matrix_exp,
)
from floquet_lab.core_fock import (
    _exp_x_exp_p,
    _exp_x_exp_p_columns,
    _oscillator_op,
    _padded_state,
    _x_eigenbasis,
    number_basis_energies,
    x_norm,
    x_off_diagonal,
    xp_operators,
)
from floquet_lab.oracle import _dstevd


def _ladder(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Annihilation and creation matrices, a[n-1, n] = sqrt(n)."""
    a = np.zeros((dim, dim), dtype=complex)
    ns = np.arange(1, dim)
    a[ns - 1, ns] = np.sqrt(ns)
    return a, a.conj().T


def _span_reference(omega, dim, h, x, p, one) -> np.ndarray:
    """h H_omega + x x + p p + one 1 summed densely, with x and p from a and
    a^dag and H_omega from its spectrum."""
    a, adag = _ladder(dim)
    x_op = (a + adag) / np.sqrt(2.0 * omega)
    p_op = 1j * np.sqrt(omega / 2.0) * (adag - a)
    h_op = np.diag(omega * (np.arange(dim) + 0.5))
    return h * h_op + x * x_op + p * p_op + one * np.eye(dim)


class TestOscillatorOp:
    """The one builder of span{H_omega, x, p, 1} against the dense sum."""

    REAL = ((1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0), (0.0, 0.0, 1.0, 0.0), (1.0, -0.37, 0.81, 2.5))
    COMPLEX = ((-1.3j, 0.6j, -0.45j, 0.2j), (0.7 - 0.2j, 1.1 + 0.3j, -0.5 + 0.9j, -0.25 + 0.1j))

    @pytest.mark.parametrize("omega", [0.8, 1.0, 1.25])
    @pytest.mark.parametrize("dim", [2, 3, 17, 96])
    def test_matches_the_ladder_sum(self, dim, omega):
        for h, x, p, one in self.REAL + self.COMPLEX:
            got = _oscillator_op(omega, dim, h=h, x=x, p=p, one=one)
            ref = _span_reference(omega, dim, h, x, p, one)
            assert got.dtype == complex
            assert np.abs(got - ref).max() <= 2 * np.finfo(float).eps * np.abs(ref).max()

    @pytest.mark.parametrize("dim", [2, 17])
    def test_hermitian_and_anti_hermitian_exactly(self, dim):
        """Real coefficients give an exactly Hermitian matrix, imaginary
        ones an exactly anti-Hermitian one, as the bound checks and
        matrix_exp require."""
        for h, x, p, one in self.REAL:
            herm = _oscillator_op(1.3, dim, h=h, x=x, p=p, one=one)
            assert np.array_equal(herm, herm.conj().T)
        h, x, p, one = self.COMPLEX[0]
        skew = _oscillator_op(1.3, dim, h=h, x=x, p=p, one=one)
        assert np.array_equal(skew, -skew.conj().T)


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
        x, p = xp_operators(2.0, 12)
        expect = np.array([2.0 * (n + 0.5) for n in range(12)])
        assert np.array_equal(number_basis_energies(2.0, 12), expect)
        quad = 0.5 * (p @ p + 4.0 * x @ x)
        assert abs(quad[11, 11] - expect[11]) > 1.0

    def test_x_norm_is_largest_singular_value(self):
        for omega, dim in ((0.7, 9), (1.0, 48), (2.5, 33)):
            x, _ = xp_operators(omega, dim)
            assert x_norm(omega, dim) == pytest.approx(np.linalg.norm(x, 2), rel=1e-14)

    def test_x_band_helper(self):
        x, _ = xp_operators(0.7, 9)
        assert np.allclose(x_off_diagonal(0.7, 9), np.diagonal(x, 1), rtol=1e-15, atol=0.0)

    def test_energies_helper(self):
        assert np.allclose(number_basis_energies(3.0, 3), [1.5, 4.5, 7.5])


def _random_hermitian(rng, n) -> np.ndarray:
    h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (h + h.conj().T)


class TestMatrixExp:
    def test_matches_scipy_on_general_input(self):
        """General input no longer falls back to scipy's expm: it is refused,
        and its anti-Hermitian part matches scipy.linalg.expm."""
        rng = np.random.default_rng(5)
        for _ in range(5):
            m = rng.standard_normal((20, 20)) + 1j * rng.standard_normal((20, 20))
            with pytest.raises(ValueError, match="not anti-Hermitian"):
                matrix_exp(m)
            skew = 0.5 * (m - m.conj().T)
            assert np.abs(matrix_exp(skew) - scipy.linalg.expm(skew)).max() <= 1e-12

    @pytest.mark.parametrize("dim", [16, 64, 256])
    def test_unitarity_antihermitian(self, dim):
        rng = np.random.default_rng(dim)
        h = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        h = 0.5 * (h + h.conj().T)
        u = matrix_exp(-1j * h)
        defect = np.linalg.norm(u.conj().T @ u - np.eye(dim), 2)
        assert defect <= 1e-10

    def test_hermitian_path(self):
        """A Hermitian generator has no exactly unitary exponential; it is
        refused with the deviation from anti-Hermitian named."""
        rng = np.random.default_rng(1)
        h = rng.standard_normal((12, 12))
        h = 0.5 * (h + h.T) + 0j
        with pytest.raises(ValueError, match="deviates by"):
            matrix_exp(h)
        with pytest.raises(ValueError, match="not anti-Hermitian"):
            matrix_exp(TruncatedOperator.hermitian_op(h))

    def test_tolerates_round_off_in_the_generator(self):
        rng = np.random.default_rng(2)
        gen = -1j * _random_hermitian(rng, 10)
        gen[0, 1] += 1e-14
        assert np.linalg.norm(matrix_exp(gen) - scipy.linalg.expm(gen), 2) <= 1e-12

    def test_zero_generator_gives_identity(self):
        assert np.array_equal(matrix_exp(np.zeros((4, 4))), np.eye(4, dtype=complex))

    def test_rejects_nan(self):
        bad = np.full((3, 3), np.nan, dtype=complex)
        with pytest.raises(NumericError):
            matrix_exp(bad)


def _exp_from_eigh(diag, off) -> np.ndarray:
    """exp(-i T) as V diag(e^{-i w}) V^T from the oracle's eigensolver."""
    w, v = _dstevd(diag, off)
    return (v * np.exp(-1j * w)) @ v.T


class TestTridiagonalExp:
    OMEGA = 0.8
    DIM = 40

    def test_x_generator_matches_matrix_exp(self):
        x, _ = xp_operators(self.OMEGA, self.DIM)
        u = _exp_from_eigh(np.zeros(self.DIM), 1.3 * x_off_diagonal(self.OMEGA, self.DIM))
        assert np.abs(u - matrix_exp(-1j * 1.3 * x)).max() <= 1e-12

    def test_step_generator_matches_matrix_exp(self):
        x, _ = xp_operators(self.OMEGA, self.DIM)
        energies = number_basis_energies(self.OMEGA, self.DIM)
        h_omega = np.diag(energies).astype(complex)
        u = _exp_from_eigh(0.07 * energies, 0.07 * 0.35 * x_off_diagonal(self.OMEGA, self.DIM))
        assert np.abs(u - matrix_exp(-1j * 0.07 * (h_omega + 0.35 * x))).max() <= 1e-12

    def test_helper_matches_dense_exponential(self):
        rng = np.random.default_rng(11)
        d, e = rng.standard_normal(30), rng.standard_normal(29)
        t = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
        w, v = _dstevd(d, e)
        assert v.dtype == np.float64
        assert np.linalg.norm(v.T @ v - np.eye(30), 2) <= 1e-12
        assert np.abs((v * w) @ v.T - t).max() <= 1e-12
        u = _exp_from_eigh(d, e)
        assert np.abs(u - scipy.linalg.expm(-1j * t)).max() <= 1e-12
        assert np.linalg.norm(u.conj().T @ u - np.eye(30), 2) <= 1e-12

    def test_same_eigenpairs_as_scipy(self):
        """dstevd is the driver eigh_tridiagonal picks for all eigenpairs."""
        rng = np.random.default_rng(12)
        d, e = rng.standard_normal(25), rng.standard_normal(24)
        w, v = _dstevd(d, e)
        w_ref, v_ref = scipy.linalg.eigh_tridiagonal(d, e)
        assert np.array_equal(w, w_ref)
        assert np.array_equal(v, v_ref)

    def test_rejects_non_finite(self):
        """Finite input whose eigenvalues overflow; the oracle refuses a
        non-finite band before it reaches the solver."""
        with pytest.raises(NumericError, match="overflowed"):
            _dstevd(np.array([1e308, 1e308]), np.array([1e308]))

    def test_eigensolver_failure_is_numeric_error(self, monkeypatch):
        def failing(d, e, **_kwargs):
            # LAPACK reports non-convergence through info > 0, not an exception
            return np.zeros_like(d), np.eye(d.size), 3

        monkeypatch.setattr(scipy.linalg.lapack, "dstevd", failing)
        with pytest.raises(NumericError, match="info = 3"):
            _dstevd(np.ones(4), np.ones(3))

    @pytest.mark.parametrize("dim", [2, 3, 17, 96, 192])
    def test_x_eigenbasis_is_dstevds(self, dim):
        """The closed forms' numpy eigh of the x band gives the eigenpairs
        of dstevd bit for bit, and x_norm is its largest eigenvalue."""
        lam_hat, v, _, _ = _x_eigenbasis(dim)
        w_ref, v_ref = _dstevd(np.zeros(dim), np.sqrt(np.arange(1.0, dim)))
        assert np.array_equal(lam_hat, w_ref)
        assert np.array_equal(v, v_ref)
        assert x_norm(2.0, dim) == lam_hat[-1] / 2.0


class TestExpXExpP:
    """e^{i a x} e^{i (b/omega) p} from the cached eigenbasis of x."""

    PAIRS = ((3.5, -3.5), (-3.5, 3.5), (2.1, 0.4), (0.0, -2.7), (-1.3, 0.0))

    @pytest.mark.parametrize("omega", [0.8, 1.0, 1.25])
    @pytest.mark.parametrize("dim", [64, 96, 192])
    def test_matches_the_matrix_exp_pair(self, dim, omega):
        """The cache is keyed on the dimension alone, so each dimension is
        met at three omega."""
        x, p = xp_operators(omega, dim)
        for a, b in self.PAIRS:
            ref = matrix_exp(1j * a * x) @ matrix_exp(1j * (b / omega) * p)
            assert np.abs(_exp_x_exp_p(omega, dim, a, b, dim) - ref).max() <= 1e-13

    @pytest.mark.parametrize("dim", [64, 96, 192])
    def test_kept_block_is_the_trimmed_full_product(self, dim):
        """The kept rows of V are all both GEMMs need; a stack of pairs gives
        each pair's block, a zero pair the exact identity."""
        keep = dim // 2
        a, b = np.array(self.PAIRS + ((0.0, 0.0),)).T
        stack = _exp_x_exp_p(1.1, dim, a, b, keep)
        assert stack.shape == (a.size, keep, keep)
        for k in range(a.size):
            trimmed = _exp_x_exp_p(1.1, dim, a[k], b[k], dim)[:keep, :keep]
            assert np.array_equal(_exp_x_exp_p(1.1, dim, a[k], b[k], keep), trimmed)
            assert np.array_equal(stack[k], trimmed)
        assert np.array_equal(stack[-1], np.eye(keep))

    def test_zero_exponents_give_the_exact_identity(self):
        for a, b in ((0.0, 0.0), (-0.0, 0.0), (0.0, -0.0)):
            u = _exp_x_exp_p(1.3, 12, a, b, 12)
            assert u.dtype == complex
            assert np.array_equal(u, np.eye(12))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(NumericError):
            _exp_x_exp_p(1.0, 16, bad, 0.5, 16)
        with pytest.raises(NumericError):
            _exp_x_exp_p(1.0, 16, 0.5, bad, 16)

    def test_rejects_an_overflowing_phase(self):
        """A finite exponent whose product with the eigenvalues of x overflows."""
        with np.errstate(over="ignore"), pytest.raises(NumericError):
            _exp_x_exp_p(1.0, 16, 1e308, 0.0, 16)

    @pytest.mark.parametrize("factor, raises", [(0.99, False), (1.01, True)])
    def test_rejects_a_phase_of_2_to_the_52(self, factor, raises):
        """A finite phase of 2^52 rad or more keeps no digit of its exponential."""
        a = factor * 2.0**52 / x_norm(1.0, 16)
        for pair in ((a, 0.5), (0.5, a)):
            if raises:
                with pytest.raises(NumericError, match="2\\^52"):
                    _exp_x_exp_p(1.0, 16, *pair, 16)
            else:
                assert np.all(np.isfinite(_exp_x_exp_p(1.0, 16, *pair, 16)))

    @pytest.mark.parametrize("omega", [0.8, 1.25])
    def test_columns_match_the_matrix_pair(self, omega):
        dim = 64
        a, b = np.array(self.PAIRS).T
        rng = np.random.default_rng(7)
        cols = rng.normal(size=(dim, a.size)) + 1j * rng.normal(size=(dim, a.size))
        out = _exp_x_exp_p_columns(omega, a, b, cols)
        for k in range(a.size):
            ref = _exp_x_exp_p(omega, dim, a[k], b[k], dim) @ cols[:, k]
            assert np.abs(out[:, k] - ref).max() <= 1e-13 * np.abs(cols).max()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 2.0**60])
    def test_columns_reject_one_bad_exponent(self, bad):
        a = np.array([0.5, bad, 0.5])
        cols = np.ones((16, 3), dtype=complex)
        for pair in ((a, np.zeros(3)), (np.zeros(3), a)):
            with pytest.raises(NumericError):
                _exp_x_exp_p_columns(1.0, *pair, cols)

    def test_p_is_x_conjugated_by_i_to_the_n(self):
        """P^dag (a + a^dag) P = -i (a^dag - a) exactly for P = diag(i^n), so
        p = -omega P^dag x P, exactly too: the builder writes p's band as
        -i omega times x's."""
        dim = 130
        p_diag = np.array([1.0, 1j, -1.0, -1j])[np.arange(dim) % 4]
        a, adag = _ladder(dim)
        assert np.array_equal(p_diag.conj()[:, None] * (a + adag) * p_diag, -1j * (adag - a))
        for omega in (0.8, 1.0, 1.25):
            x, p = xp_operators(omega, dim)
            assert np.array_equal(-omega * (p_diag.conj()[:, None] * x * p_diag), p)


class TestExpPadded:
    def test_pad_then_trim_beats_trim_then_exponentiate(self):
        """Exponentiating at the padded dimension and trimming keeps the
        kept block accurate; exponentiating the trimmed generator does not."""
        omega, n_keep, dim = 1.0, 16, 32

        def gen(n):
            x, _ = xp_operators(omega, n)
            return -1j * 1.5 * x

        padded = matrix_exp(gen(dim))[:n_keep, :n_keep]
        reference = scipy.linalg.expm(gen(80))[:n_keep, :n_keep]
        assert np.linalg.norm(padded - reference, 2) <= 1e-10
        trimmed_first = matrix_exp(gen(n_keep))
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


class TestPaddedState:
    def test_edge_state_warns(self):
        """Support past n_keep/2 is near the truncation edge."""
        trunc = Truncation(n_keep=24, n_pad=24)
        for level, edge in ((0, False), (12, False), (13, True), (22, True)):
            psi0 = np.zeros(trunc.dim, dtype=complex)
            psi0[level] = 1.0
            psi, warns = _padded_state(psi0, trunc)
            assert warns is edge
            assert np.array_equal(psi, psi0)


@settings(max_examples=30, deadline=None)
@given(
    scale=st.floats(min_value=0.01, max_value=3.0),
    dim=st.integers(min_value=2, max_value=24),
)
def test_exp_of_diag_phase_is_elementwise(scale, dim):
    phases = scale * np.arange(dim)
    u = matrix_exp(-1j * np.diag(phases).astype(complex))
    assert np.allclose(u, np.diag(np.exp(-1j * phases)), atol=1e-12)
