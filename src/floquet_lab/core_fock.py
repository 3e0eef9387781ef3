"""Truncated Fock-space primitives for a single harmonic oscillator.

Everything downstream works in the eigenbasis of H_omega = (p^2 + omega^2 x^2)/2
with hbar = mass = 1.  The ladder operator has matrix elements
a[n-1, n] = sqrt(n), and

    x = (a + a^dag) / sqrt(2 omega),
    p = i sqrt(omega/2) (a^dag - a),
    H_omega = diag(omega (n + 1/2)).

H_omega is built spectrally rather than from x and p so its diagonal is exact
at every truncation.  Truncation policy: operators are assembled and
exponentiated at dimension n_keep + n_pad and results are trimmed back to
n_keep, which keeps the basis-cutoff corruption inside the padding band.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.linalg import lapack

from .errors import InvalidTruncationError, NumericError

__all__ = [
    "OscillatorParams",
    "Truncation",
    "TruncatedOperator",
    "ladder",
    "build_ladder",
    "xp_operators",
    "number_basis_energies",
    "x_off_diagonal",
    "build_xpH",
    "matrix_exp",
    "tridiagonal_eigh",
    "exp_padded",
]

# Relative tolerance used to classify generators as (anti-)Hermitian.
_HERM_RTOL = 1e-12


@dataclass(frozen=True)
class OscillatorParams:
    """Oscillator frequency and drive period, natural units."""

    omega: float
    period_T: float

    def __post_init__(self):
        if not (self.omega > 0.0 and np.isfinite(self.omega)):
            raise ValueError(f"omega must be positive and finite, got {self.omega}")
        if not (self.period_T > 0.0 and np.isfinite(self.period_T)):
            raise ValueError(f"period_T must be positive and finite, got {self.period_T}")

    @property
    def oscillator_period(self) -> float:
        """2 pi / omega, the free-oscillator period."""
        return 2.0 * np.pi / self.omega


@dataclass(frozen=True)
class Truncation:
    """Kept block size plus padding used during assembly.

    n_pad defaults to n_keep, which in practice keeps truncation artifacts
    out of the kept block for the moderately displaced states this package
    deals with.
    """

    n_keep: int
    n_pad: int = -1  # sentinel: replaced by n_keep in __post_init__

    def __post_init__(self):
        if self.n_pad == -1:
            object.__setattr__(self, "n_pad", self.n_keep)
        if int(self.n_keep) != self.n_keep or self.n_keep < 2:
            raise InvalidTruncationError(f"n_keep must be an integer >= 2, got {self.n_keep}")
        if int(self.n_pad) != self.n_pad or self.n_pad < 0:
            raise InvalidTruncationError(f"n_pad must be a non-negative integer, got {self.n_pad}")

    @property
    def dim(self) -> int:
        """Full working dimension n_keep + n_pad."""
        return self.n_keep + self.n_pad


@dataclass
class TruncatedOperator:
    """A dense operator block in the truncated Fock basis.

    entries: complex (dim, dim) array
    basis_tag: label of the basis the entries refer to ("fock" everywhere
        in this package; carried so mixed-basis bugs fail loudly)
    """

    entries: np.ndarray
    basis_tag: str = "fock"
    hermitian: bool = field(default=False, compare=False)

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"entries must be a square matrix, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise NumericError("operator entries contain NaN or Inf")
        if self.hermitian:
            scale = max(np.abs(m).max(), 1e-300)
            dev = np.abs(m - m.conj().T).max()
            if dev > _HERM_RTOL * scale:
                raise ValueError(f"operator tagged hermitian deviates by {dev:.3e} (scale {scale:.3e})")
        self.entries = m

    @classmethod
    def hermitian_op(cls, entries: np.ndarray, basis_tag: str = "fock") -> "TruncatedOperator":
        """Construct with the Hermiticity check enabled."""
        return cls(entries, basis_tag=basis_tag, hermitian=True)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def trimmed(self, n: int) -> "TruncatedOperator":
        """Top-left n x n block as a new operator."""
        if n > self.dim:
            raise InvalidTruncationError(f"cannot trim dim {self.dim} to {n}")
        return TruncatedOperator(self.entries[:n, :n].copy(), basis_tag=self.basis_tag)

    def dagger(self) -> "TruncatedOperator":
        return TruncatedOperator(self.entries.conj().T.copy(), basis_tag=self.basis_tag)

    def __matmul__(self, other):
        if isinstance(other, TruncatedOperator):
            if other.basis_tag != self.basis_tag:
                raise ValueError(f"basis mismatch: {self.basis_tag} vs {other.basis_tag}")
            return TruncatedOperator(self.entries @ other.entries, basis_tag=self.basis_tag)
        return self.entries @ other


def ladder(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Annihilation and creation matrices at the given dimension."""
    a = np.zeros((dim, dim), dtype=complex)
    ns = np.arange(1, dim)
    a[ns - 1, ns] = np.sqrt(ns)
    return a, a.conj().T


def build_ladder(trunc: Truncation) -> tuple[TruncatedOperator, TruncatedOperator]:
    """Ladder pair at the full working dimension n_keep + n_pad."""
    a, ad = ladder(trunc.dim)
    return TruncatedOperator(a), TruncatedOperator(ad)


def xp_operators(omega: float, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Position and momentum matrices at the given dimension."""
    a, ad = ladder(dim)
    x = (a + ad) / np.sqrt(2.0 * omega)
    p = 1j * np.sqrt(omega / 2.0) * (ad - a)
    return x, p


def number_basis_energies(omega: float, dim: int) -> np.ndarray:
    """Spectral diagonal omega (n + 1/2) of H_omega."""
    return omega * (np.arange(dim) + 0.5)


def x_off_diagonal(omega: float, dim: int) -> np.ndarray:
    """x[n-1, n] = sqrt(n / (2 omega)) for n = 1 .. dim-1, the only nonzero band of x."""
    return np.sqrt(np.arange(1, dim)) / np.sqrt(2.0 * omega)


def build_xpH(
    params: OscillatorParams, trunc: Truncation
) -> tuple[TruncatedOperator, TruncatedOperator, TruncatedOperator]:
    """x, p and H_omega at the full working dimension.

    H_omega comes from its known spectrum, not from x and p, so it is exact
    even though the truncated x and p violate the commutation relation in
    the last basis state.
    """
    x, p = xp_operators(params.omega, trunc.dim)
    h = np.diag(number_basis_energies(params.omega, trunc.dim)).astype(complex)
    return (
        TruncatedOperator.hermitian_op(x),
        TruncatedOperator.hermitian_op(p),
        TruncatedOperator.hermitian_op(h),
    )


def _as_matrix(m) -> np.ndarray:
    if isinstance(m, TruncatedOperator):
        return m.entries
    return np.asarray(m, dtype=complex)


def tridiagonal_eigh(diag, off) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs (w, V) of the real symmetric tridiagonal T with the given
    diagonal (length n >= 2) and off-diagonal (length n - 1), so that
    T = V diag(w) V^T with real orthogonal V and exp(-i T) = V diag(e^{-i w}) V^T.

    Calls LAPACK dstevd, the driver scipy.linalg.eigh_tridiagonal picks for
    all eigenpairs, directly: the same eigenpairs without the wrapper's
    validation cost.  Non-finite input, overflowing eigenvalues and a
    solver failure (info != 0) raise NumericError.
    """
    d = np.asarray(diag, dtype=float)
    e = np.asarray(off, dtype=float)
    if d.size < 2 or e.shape != (d.size - 1,):
        raise ValueError(f"need n >= 2 diagonal and n - 1 off-diagonal entries, got {d.size} and {e.size}")
    if not (np.all(np.isfinite(d)) and np.all(np.isfinite(e))):
        raise NumericError("tridiagonal input contains NaN or Inf")
    return _dstevd(d, e)


def _dstevd(d: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The dstevd core of tridiagonal_eigh for bands the caller has already
    checked: float arrays of n >= 2 and n - 1 finite entries.  Still raises
    NumericError on a solver failure (info != 0) or an overflowing
    eigenvalue, which no check of the input can rule out.
    """
    w, v, info = lapack.dstevd(d, e)
    if info != 0:
        raise NumericError(f"tridiagonal eigensolver dstevd failed with info = {info}")
    if not np.all(np.isfinite(w)):
        raise NumericError("tridiagonal eigenvalues overflowed")
    return w, v


def matrix_exp(m) -> np.ndarray:
    """Matrix exponential tuned for the generators seen in this package.

    Hermitian and anti-Hermitian inputs go through an eigendecomposition,
    which for anti-Hermitian generators returns an exactly unitary result
    (columns of a unitary times unit-modulus phases).  Everything else falls
    back to scipy's scaling-and-squaring Pade approximant.

    Accepts a TruncatedOperator or a bare ndarray; returns an ndarray.
    """
    a = _as_matrix(m)
    if not np.all(np.isfinite(a.view(float))):
        raise NumericError("matrix_exp input contains NaN or Inf")
    scale = np.abs(a).max()
    if scale == 0.0:
        return np.eye(a.shape[0], dtype=complex)
    if np.abs(a - a.conj().T).max() <= _HERM_RTOL * scale:
        w, v = np.linalg.eigh(a)
        return (v * np.exp(w)) @ v.conj().T
    if np.abs(a + a.conj().T).max() <= _HERM_RTOL * scale:
        # a = iH with H Hermitian; exp(a) = V exp(i w) V^dag is unitary.
        w, v = np.linalg.eigh(-1j * a)
        return (v * np.exp(1j * w)) @ v.conj().T
    out = scipy.linalg.expm(a)
    if not np.all(np.isfinite(out.view(float))):
        raise NumericError("matrix_exp overflowed")
    return out


def exp_padded(generator_builder, trunc: Truncation) -> TruncatedOperator:
    """Exponentiate at n_keep + n_pad, then trim to n_keep.

    generator_builder(dim) must return the generator at any requested
    dimension (ndarray or TruncatedOperator).
    """
    g = _as_matrix(generator_builder(trunc.dim))
    if g.shape != (trunc.dim, trunc.dim):
        raise ValueError(f"generator_builder returned shape {g.shape}, expected {(trunc.dim, trunc.dim)}")
    full = matrix_exp(g)
    return TruncatedOperator(full[: trunc.n_keep, : trunc.n_keep].copy())
