import cmath
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
    _displaced_states,
    _displacement,
    _oscillator_op,
    _padded_state,
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

    def test_x_norm_is_the_uncached_formula(self):
        """The unit-omega eigenvalue is solved once per dimension; x_norm
        still divides it by sqrt(2 omega), so it equals one eigvalsh of the
        band per call bit for bit, on a first call and on a repeated one."""
        for dim in range(2, 193):
            top = np.linalg.eigvalsh(np.diag(np.sqrt(np.arange(1.0, dim)), 1), UPLO="U")[-1]
            for omega in (0.3, 1.0, 2.0, 7.5):
                ref = float(top / np.sqrt(2.0 * omega))
                assert x_norm(omega, dim) == ref and x_norm(omega, dim) == ref

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

    def test_real_h_goes_through_the_real_eigh(self, monkeypatch):
        """A purely imaginary generator -iH, H real symmetric, is eigensolved
        by the real eigh and still matches scipy.linalg.expm."""
        rng = np.random.default_rng(6)
        h = rng.standard_normal((24, 24))
        gen = -1j * (h + h.T)
        ref = scipy.linalg.expm(gen)
        seen, eigh = [], np.linalg.eigh

        def spy(a, *args, **kwargs):
            seen.append(a.dtype)
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", spy)
        assert np.abs(matrix_exp(gen) - ref).max() <= 1e-12
        assert seen == [np.float64]

    def test_complex_h_keeps_the_complex_eigh(self):
        """An H with an imaginary part goes through the complex eigh, bit for
        bit V diag(e^{iw}) V^dag of its eigenpairs."""
        gen = -1j * _random_hermitian(np.random.default_rng(7), 24)
        w, v = np.linalg.eigh(-1j * gen)
        assert np.array_equal(matrix_exp(gen), (v * np.exp(1j * w)) @ v.conj().T)

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
        """x_norm, one eigvalsh of the x band, is the largest eigenvalue in
        the oracle's dstevd eigenbasis of that band, to the last digits in
        which eigvalsh's LAPACK route (dsterf) and dstevd's (dstedc) differ."""
        w_ref, _ = _dstevd(np.zeros(dim), np.sqrt(np.arange(1.0, dim)))
        assert x_norm(2.0, dim) == pytest.approx(w_ref[-1] / 2.0, rel=1e-14, abs=0.0)


def _coherent(beta: complex, rows: int) -> np.ndarray:
    """The coherent amplitudes e^{-|beta|^2/2} beta^m / sqrt(m!), m < rows,
    as one running product of |beta| / sqrt(m) (no underflow for
    |beta| < 26)."""
    factors = np.ones(rows)
    factors[1:] = abs(beta) / np.sqrt(np.arange(1.0, rows))
    mag = math.exp(-0.5 * abs(beta) ** 2) * np.cumprod(factors)
    return mag * np.exp(1j * np.arange(rows) * cmath.phase(beta))


def _d_of_beta(beta: complex, rows: int, cols: int) -> np.ndarray:
    """D(beta) from _displacement at omega = 1/2, where beta = i a - b and
    e^{i a x} e^{i (b/omega) p} = e^{-i a b} D(beta)."""
    a, b = beta.imag, -beta.real
    return _displacement(0.5, a, b, rows, cols) * cmath.exp(1j * a * b)


class TestExpXExpP:
    """e^{i a x} e^{i (b/omega) p} = e^{-i a b/(2 omega)} D(beta) from the
    exact Fock entries of the displacement."""

    PAIRS = ((3.5, -3.5), (-3.5, 3.5), (2.1, 0.4), (0.0, -2.7), (-1.3, 0.0))

    @pytest.mark.parametrize("omega", [0.8, 1.0, 1.25])
    @pytest.mark.parametrize("dim", [64, 96, 192])
    def test_matches_the_matrix_exp_pair(self, dim, omega):
        """The quarter block against the two dense exponentials at dimension
        dim + 128, where the truncated product has converged on it."""
        x, p = xp_operators(omega, dim + 128)
        keep = dim // 4
        for a, b in self.PAIRS:
            ref = matrix_exp(1j * a * x) @ matrix_exp(1j * (b / omega) * p)
            assert np.abs(_displacement(omega, a, b, keep, keep) - ref[:keep, :keep]).max() <= 1e-13

    @pytest.mark.parametrize("dim", [64, 96, 192])
    def test_kept_block_is_the_trimmed_full_product(self, dim):
        """The entries do not depend on the block they are formed in; a
        stack of pairs gives each pair's block, a zero pair the exact
        identity."""
        keep = dim // 2
        a, b = np.array(self.PAIRS + ((0.0, 0.0),)).T
        stack = _displacement(1.1, a, b, keep, keep)
        assert stack.shape == (a.size, keep, keep)
        for k in range(a.size):
            trimmed = _displacement(1.1, a[k], b[k], dim, dim)[:keep, :keep]
            assert np.abs(_displacement(1.1, a[k], b[k], keep, keep) - trimmed).max() <= 1e-15
            assert np.abs(stack[k] - trimmed).max() <= 1e-15
        assert np.array_equal(stack[-1], np.eye(keep))

    def test_zero_exponents_give_the_exact_identity(self):
        for a, b in ((0.0, 0.0), (-0.0, 0.0), (0.0, -0.0)):
            u = _displacement(1.3, a, b, 12, 12)
            assert u.dtype == complex
            assert np.array_equal(u, np.eye(12))
        assert np.array_equal(_displacement(1.3, 0.0, 0.0, 12, 5), np.eye(12, 5))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(NumericError):
            _displacement(1.0, bad, 0.5, 16, 16)
        with pytest.raises(NumericError):
            _displacement(1.0, 0.5, bad, 16, 16)

    def test_rejects_an_overflowing_phase(self):
        """A finite exponent whose |beta|^2 overflows."""
        with np.errstate(over="ignore"), pytest.raises(NumericError):
            _displacement(1.0, 1e308, 0.0, 16, 16)

    @pytest.mark.parametrize("factor, raises", [(0.99, False), (1.01, True)])
    def test_rejects_a_phase_of_2_to_the_52(self, factor, raises):
        """A finite phase a b/(2 omega) of 2^52 rad or more keeps no digit of
        its exponential."""
        a = factor * 2.0**52 * 2.0 / 0.5
        for pair in ((a, 0.5), (0.5, a)):
            if raises:
                with pytest.raises(NumericError, match="2\\^52"):
                    _displacement(1.0, *pair, 16, 16)
            else:
                assert np.all(np.isfinite(_displacement(1.0, *pair, 16, 16)))

    @pytest.mark.parametrize("omega", [0.8, 1.25])
    def test_columns_match_the_matrix_pair(self, omega):
        """A few columns on many rows are those columns of the square block."""
        a, b = np.array(self.PAIRS).T
        cols = _displacement(omega, a, b, 64, 3)
        assert cols.shape == (a.size, 64, 3)
        assert np.abs(cols - _displacement(omega, a, b, 64, 64)[:, :, :3]).max() <= 1e-15

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 2.0**60])
    def test_columns_reject_one_bad_exponent(self, bad):
        a = np.array([0.5, bad, 0.5])
        for pair in ((a, np.ones(3)), (np.ones(3), a)):
            with pytest.raises(NumericError):
                _displacement(1.0, *pair, 16, 2)

    @pytest.mark.parametrize("beta_abs", [0.3, 1.0, 4.1, 8.0, 15.8, 22.2])
    def test_column_0_is_the_coherent_state(self, beta_abs):
        """D(beta)|0> is the coherent state: on 128 rows, where at
        |beta| = 22.2 every amplitude is below 1e-40 and each is matched
        to 1e-12 of itself, and on rows past the state's bulk, where both
        sides carry the round-off of a phase m arg(beta) near 1000 rad."""
        beta = beta_abs * cmath.exp(0.7j)
        col, ref = _d_of_beta(beta, 128, 1)[:, 0], _coherent(beta, 128)
        assert np.abs(col - ref).max() <= 4e-15
        if beta_abs > 20.0:
            assert np.abs(ref).max() < 1e-40
            assert np.all(np.abs(col - ref) <= 1e-12 * np.abs(ref))
        rows = int((beta_abs + 10.0) ** 2)
        col, ref = _d_of_beta(beta, rows, 1)[:, 0], _coherent(beta, rows)
        assert np.abs(col - ref).max() <= 2e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("alpha, beta", [(0.9 - 0.4j, -0.3 + 1.2j), (2.5 + 1.0j, 1.5 - 3.0j), (4.0j, 3.5)])
    def test_group_law(self, alpha, beta):
        """D(alpha) D(beta) = e^{i Im(alpha beta^*)} D(alpha + beta) on the
        leading 40 x 40 block, with D(beta)'s rows taken far enough past it
        that the product has no truncation."""
        n, inner = 40, 40 + int((abs(alpha) + abs(beta) + 12.0) ** 2)
        lhs = _d_of_beta(alpha, n, inner) @ _d_of_beta(beta, inner, n)
        rhs = cmath.exp(1j * (alpha * beta.conjugate()).imag) * _d_of_beta(alpha + beta, n, n)
        assert np.abs(lhs - rhs).max() <= 1e-14

    def test_adjoint_is_the_opposite_displacement(self):
        """D(beta)^dag = D(-beta), entry for entry, on a rectangular block."""
        beta = 2.2 - 1.7j
        assert np.abs(_d_of_beta(beta, 30, 50).conj().T - _d_of_beta(-beta, 50, 30)).max() <= 1e-14

    def test_large_beta_rescales_without_overflow(self):
        """At |beta| = 40 the Poisson amplitudes start near e^{-800} and the
        Laguerre values pass e^{600} after about 80 steps, so the scales
        move on the way; the block is still unitary on the columns whose
        support it holds, to the round-off of logarithms of size
        |beta|^2/2 = 800, and its first 60 columns, formed in fewer steps
        than a rescale takes, agree."""
        beta = 40.0 * cmath.exp(-1.1j)
        rows = int((40.0 + 11.0 + 8.0) ** 2)
        block = _d_of_beta(beta, rows, 120)
        assert np.all(np.isfinite(block))
        assert np.abs(block.conj().T @ block - np.eye(120)).max() <= 5e-12
        assert np.abs(block[:, :60] - _d_of_beta(beta, rows, 60)).max() <= 1e-13

    @pytest.mark.parametrize("beta_abs, tol", [(0.05, 1e-13), (0.1, 5e-13), (0.01, 5e-13), (1e-4, 5e-13), (1e-8, 5e-13)])
    def test_small_beta_on_128_levels(self, beta_abs, tol):
        """At small |beta| the recurrence has a near-double root, so its
        round-off grows with the level: at |beta| = 0.05 the diagonal of a
        128-level block is off by about 8e-14 (2.9e-14 at level 47).  The
        block is unitary on its 128 columns, whose support ends below
        row 200, and D(beta) D(-beta) = 1 through 200 levels, both to
        within about twice the error seen (6.7e-14 at 0.05, 2.7e-13 at
        most below it)."""
        beta = beta_abs * cmath.exp(0.3j)
        block = _d_of_beta(beta, 200, 128)
        assert np.abs(block.conj().T @ block - np.eye(128)).max() <= tol
        product = _d_of_beta(beta, 128, 200) @ _d_of_beta(-beta, 200, 128)
        assert np.abs(product - np.eye(128)).max() <= tol

    @pytest.mark.parametrize("support", [[0], [5], [0, 3, 7], list(range(12))])
    def test_displaced_states_are_the_block_times_the_vectors(self, support):
        """_displaced_states reads D(beta_i) v_i off the table column by
        column, only where v is nonzero; it matches the block times the
        vector, on more rows than columns and on fewer."""
        rng = np.random.default_rng(len(support))
        a, b = rng.normal(size=5) * 2.0, rng.normal(size=5) * 2.0
        vecs = np.zeros((5, 12), dtype=complex)
        vecs[:, support] = rng.normal(size=(5, len(support))) + 1j * rng.normal(size=(5, len(support)))
        for rows in (60, 9):
            states = _displaced_states(1.2, a, b, vecs, rows)
            expect = np.einsum("imk,ik->im", _displacement(1.2, a, b, rows, 12), vecs)
            assert np.abs(states - expect).max() <= 1e-14

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
        # an integral float is read as its integer; anything else not an integer names its field
        trunc = Truncation(n_keep=48.0, n_pad=np.float64(12.0))
        assert (trunc.n_keep, trunc.n_pad) == (48, 12) and type(trunc.n_keep) is type(trunc.n_pad) is int
        assert Truncation(n_keep=48.0).n_pad == 48
        for bad in (math.inf, -math.inf, math.nan, 1.5, "48", True):
            for field in ("n_keep", "n_pad"):
                with pytest.raises(InvalidTruncationError, match=f"^{field} must be an integer"):
                    Truncation(**{"n_keep": 8, "n_pad": 4, field: bad})

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
    def test_pads_any_normalized_state_that_fits(self):
        """Every level of the working dimension is accepted and padded with
        zeros; a state that does not fit or is not normalized is refused."""
        trunc = Truncation(n_keep=24, n_pad=24)
        for level in (0, 12, 13, 47):
            psi0 = np.zeros(level + 1, dtype=complex)
            psi0[level] = 1.0
            assert np.array_equal(_padded_state(psi0, trunc), np.eye(trunc.dim)[level])
        with pytest.raises(ValueError, match="working dimension is 48"):
            _padded_state(np.eye(49)[0], trunc)
        with pytest.raises(ValueError, match="normalized"):
            _padded_state(np.full(2, 0.5), trunc)


@settings(max_examples=30, deadline=None)
@given(
    scale=st.floats(min_value=0.01, max_value=3.0),
    dim=st.integers(min_value=2, max_value=24),
)
def test_exp_of_diag_phase_is_elementwise(scale, dim):
    phases = scale * np.arange(dim)
    u = matrix_exp(-1j * np.diag(phases).astype(complex))
    assert np.allclose(u, np.diag(np.exp(-1j * phases)), atol=1e-12)
