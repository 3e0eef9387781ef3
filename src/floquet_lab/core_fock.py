"""Truncated Fock-space primitives for a single harmonic oscillator.

Everything downstream works in the eigenbasis of H_omega = (p^2 + omega^2 x^2)/2
with hbar = mass = 1.  The ladder operator has matrix elements
a[n-1, n] = sqrt(n), and

    x = (a + a^dag) / sqrt(2 omega),
    p = i sqrt(omega/2) (a^dag - a),
    H_omega = diag(omega (n + 1/2)).

H_omega is built spectrally rather than from x and p so its diagonal is exact
at every truncation.  Every operator the closed forms assemble (H(t), H_F,
S_F(t), the single-exponential generator) lies in span{H_omega, x, p, 1},
and _oscillator_op writes any member of it onto its diagonal and two bands,
using p[n-1, n] = -i omega x[n-1, n].  Truncation policy: operators are
assembled and exponentiated at dimension n_keep + n_pad and only the
n_keep block of a result is kept, which keeps the basis-cutoff corruption
inside the padding band.
Every exponential the package forms has an anti-Hermitian generator, so
matrix_exp accepts that kind only.

The closed forms need only exponentials of x and of p, and both are
functions of one real tridiagonal matrix, x_hat = a + a^dag = sqrt(2 omega) x.
With P = diag(i^n), p/omega = -P^dag x P, so

    e^{i a x} e^{i (b/omega) p} = V diag(e^{i a lam}) W diag(e^{-i b lam}) V^T P,

where x_hat = V diag(lam_hat) V^T, lam = lam_hat / sqrt(2 omega) are the
eigenvalues of x, and W = V^T P^dag V is a fixed overlap.  V, lam_hat and
W depend on the dimension alone: _x_eigenbasis computes them once per
dimension with numpy's eigh of the band, and _exp_x_exp_p then costs two
real GEMMs on the stacked real and imaginary parts, with no eigensolve.
It forms only the leading keep x keep block, for which both GEMMs need
only the kept rows of V, so a closed form at n_keep + n_pad never forms
the padded product it would trim; for 1-d arrays of a and b the same two
GEMMs give a stack of such blocks, one per pair.
x_norm reads the largest lam from the same cached basis, so the module
needs numpy alone.
_exp_x_exp_p_columns applies a different pair to each of many states
without forming one.  In the eigenbasis of x, x is diagonal and p is
reached through W: the discrete-variable picture.  A phase a lam or b lam
of 2^52 rad or more keeps no digit and raises NumericError, as the
oracle's step phase does.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidTruncationError, NumericError

__all__ = [
    "OscillatorParams",
    "Truncation",
    "TruncatedOperator",
    "xp_operators",
    "number_basis_energies",
    "x_off_diagonal",
    "x_norm",
    "matrix_exp",
]

# Relative tolerance used to classify generators as (anti-)Hermitian.
_HERM_RTOL = 1e-12

# Distinct working dimensions whose x eigenbasis stays cached.
_X_BASIS_CACHE_SIZE = 8


def _integer_field(value, name: str) -> int:
    """A config field read as an int64.  An integral float such as 20.0 is
    read as 20; a fraction, a bool, a non-number or an integer outside the
    int64 range raises ValueError naming the field."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        if -(2**63) <= value < 2**63:
            return int(value)
        raise ValueError(f"{name} must be an integer in the int64 range [-2**63, 2**63)")
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _real_field(value, name: str) -> float:
    """A config field read as a finite float.  An int is read as a float; a
    bool, a string, null or a value that is not finite as a float raises
    ValueError naming the field."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            out = float(value)
        except OverflowError:  # an int beyond the float range
            out = np.inf
        if np.isfinite(out):
            return out
    raise ValueError(f"{name} must be a finite number, got {value!r}")


def _reals_field(value, name: str) -> list:
    """A config field read as a list of finite floats; anything else raises
    ValueError naming the field, or the entry of it."""
    if not isinstance(value, list):
        raise ValueError(f"{name} must be a list of finite numbers, got {value!r}")
    return [_real_field(v, f"{name}[{i}]") for i, v in enumerate(value)]


def _objects_field(value, name: str) -> list:
    """A config field read as a list of JSON objects; anything else raises
    ValueError naming the field."""
    if isinstance(value, list) and all(isinstance(v, dict) for v in value):
        return value
    raise ValueError(f"{name} must be a list of objects")


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
    """A dense operator block, a complex (dim, dim) array of entries."""

    entries: np.ndarray
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
    def hermitian_op(cls, entries: np.ndarray) -> "TruncatedOperator":
        """Construct with the Hermiticity check enabled."""
        return cls(entries, hermitian=True)


def _oscillator_op(omega: float, dim: int, h=0.0, x=0.0, p=0.0, one=0.0) -> np.ndarray:
    """h H_omega + x x + p p + one 1 at the given dimension, dense, for real
    or complex coefficients: the diagonal h omega (n + 1/2) + one and the
    bands (x -+ i omega p) x[n-1, n] above and below it."""
    out = np.zeros((dim, dim), dtype=complex)
    flat = out.reshape(-1)
    off = x_off_diagonal(omega, dim)
    iwp = 1j * omega * p
    flat[:: dim + 1] = h * number_basis_energies(omega, dim) + one
    flat[1 :: dim + 1] = (x - iwp) * off
    flat[dim :: dim + 1] = (x + iwp) * off
    return out


def xp_operators(omega: float, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Position and momentum matrices at the given dimension.  x is laid out
    from x_off_diagonal, so the dense x and the band agree bit for bit."""
    return _oscillator_op(omega, dim, x=1.0), _oscillator_op(omega, dim, p=1.0)


def number_basis_energies(omega: float, dim: int) -> np.ndarray:
    """Spectral diagonal omega (n + 1/2) of H_omega."""
    return omega * (np.arange(dim) + 0.5)


def x_off_diagonal(omega: float, dim: int) -> np.ndarray:
    """x[n-1, n] = sqrt(n / (2 omega)) for n = 1 .. dim-1, the only nonzero band of x."""
    return np.sqrt(np.arange(1, dim)) / np.sqrt(2.0 * omega)


def x_norm(omega: float, dim: int) -> float:
    """Spectral norm of the truncated x at the given dimension: its largest
    eigenvalue, since its spectrum is symmetric about 0, read from the
    cached eigenbasis of x."""
    return float(_x_eigenbasis(dim)[0][-1] / np.sqrt(2.0 * omega))


def _as_matrix(m) -> np.ndarray:
    if isinstance(m, TruncatedOperator):
        return m.entries
    return np.asarray(m, dtype=complex)


def matrix_exp(m) -> np.ndarray:
    """exp(A) for an anti-Hermitian generator A = iH, the only kind this
    package exponentiates.

    exp(A) = V diag(e^{iw}) V^dag from the eigenpairs (w, V) of H, which is
    exactly unitary up to rounding.  A generator that deviates from
    anti-Hermitian by more than 1e-12 of its largest entry raises
    ValueError naming the deviation.

    Accepts a TruncatedOperator or a bare ndarray; returns an ndarray.
    """
    a = _as_matrix(m)
    if not np.all(np.isfinite(a.view(float))):
        raise NumericError("matrix_exp input contains NaN or Inf")
    scale = np.abs(a).max()
    if scale == 0.0:
        return np.eye(a.shape[0], dtype=complex)
    dev = np.abs(a + a.conj().T).max()
    if dev > _HERM_RTOL * scale:
        raise ValueError(f"matrix_exp generator is not anti-Hermitian: deviates by {dev:.3e} (scale {scale:.3e})")
    w, v = np.linalg.eigh(-1j * a)
    return (v * np.exp(1j * w)) @ v.conj().T


@functools.lru_cache(maxsize=_X_BASIS_CACHE_SIZE)
def _x_eigenbasis(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(lam_hat, V, W^T, i^n) at the given dimension: the eigenpairs of the
    omega-free band x_hat = a + a^dag = V diag(lam_hat) V^T, the transpose of
    the overlap W = V^T diag((-i)^n) V, and the diagonal of P = diag(i^n).
    The arrays are shared between callers, so they are read-only.  numpy's
    eigh of the upper band gives the same eigenpairs as LAPACK dstevd."""
    lam_hat, v = np.linalg.eigh(np.diag(np.sqrt(np.arange(1.0, dim)), 1), UPLO="U")
    # i^n from a table: numpy rounds 1j ** n from n = 100 on
    p_diag = np.array([1.0, 1j, -1.0, -1j])[np.arange(dim) % 4]
    w_t = np.ascontiguousarray(((v.T * p_diag.conj()) @ v).T)
    out = (lam_hat, v, w_t, p_diag)
    for arr in out:
        arr.setflags(write=False)
    return out


def _x_phases(omega: float, lam_hat: np.ndarray, a, b) -> tuple[np.ndarray, np.ndarray]:
    """The phases a lam and b lam, for scalars a and b or, as (dim, n)
    arrays, for 1-d arrays of them; NumericError if one is not finite or
    reaches 1/eps = 2^52 rad (module docstring)."""
    lam = lam_hat / np.sqrt(2.0 * omega)
    phase_a = np.multiply.outer(lam, a)
    phase_b = np.multiply.outer(lam, b)
    limit = 1.0 / np.finfo(float).eps
    # the negated comparison also refuses NaN
    if not (np.abs(phase_a).max() < limit and np.abs(phase_b).max() < limit):
        raise NumericError(
            f"exponent of x or p is not finite or reaches 2^52 rad (max |a| = {np.abs(a).max():.3e}, "
            f"max |b| = {np.abs(b).max():.3e}): no digit of the exponential survives"
        )
    return phase_a, phase_b


def _exp_x_exp_p(omega: float, dim: int, a, b, keep: int) -> np.ndarray:
    """The leading keep x keep block of e^{i a x} e^{i (b/omega) p} at the
    given dimension, from the cached eigenbasis of x (module docstring):
    V_k X V_k^T P_k with V_k the first keep rows of V, P_k the first keep
    entries of P and X = diag(e^{i a lam}) W diag(e^{-i b lam}).  X^T is
    formed directly, so both products are real-by-complex GEMMs of V_k on a
    C-contiguous complex matrix's float view, whose rows interleave re and
    im.  For 1-d arrays a and b the result is a (len(a), keep, keep) stack,
    one block per pair.

    A pair a = b = 0 gives the exact identity.  _x_phases checks the phases.
    """
    lam_hat, v, w_t, p_diag = _x_eigenbasis(dim)
    phase_a, phase_b = _x_phases(omega, lam_hat, a, b)
    x_t = (np.exp(-1j * phase_b).T[..., :, None] * w_t) * np.exp(1j * phase_a).T[..., None, :]
    v_keep = v[:keep]
    y = (v_keep @ np.ascontiguousarray(x_t).view(float)).view(complex)  # kept rows of V X^T
    y_t = np.ascontiguousarray(np.swapaxes(y, -1, -2))  # X V^T in the kept columns
    out = (v_keep @ y_t.view(float)).view(complex) * p_diag[:keep]
    out[(np.asarray(a) == 0.0) & (np.asarray(b) == 0.0)] = np.eye(keep)
    return out


def _exp_x_exp_p_columns(omega: float, a: np.ndarray, b: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """e^{i a_k x} e^{i (b_k/omega) p} applied to column k of the (dim, n)
    complex cols for every k, with no matrix formed: P, V^T, diag(e^{-i b_k
    lam}), W, diag(e^{i a_k lam}) and V in turn, as two real GEMMs on float
    views and one complex GEMM with W."""
    lam_hat, v, w_t, p_diag = _x_eigenbasis(cols.shape[0])
    phase_a, phase_b = _x_phases(omega, lam_hat, a, b)
    y = np.ascontiguousarray(cols * p_diag[:, None])
    y = (v.T @ y.view(float)).view(complex)
    y *= np.exp(-1j * phase_b)
    y = w_t.T @ y
    y *= np.exp(1j * phase_a)
    return (v @ y.view(float)).view(complex)


def _padded_state(psi0, trunc: Truncation) -> tuple[np.ndarray, bool]:
    """psi0 zero-padded to the working dimension, and whether its support
    (entries above 1e-10) reaches past n_keep/2, near the truncation edge.
    psi0 must be normalized and fit the working dimension (ValueError)."""
    psi0 = np.asarray(psi0, dtype=complex).ravel()
    if psi0.size > trunc.dim:
        raise ValueError(f"psi0 has {psi0.size} components, working dimension is {trunc.dim}")
    nrm = float(np.linalg.norm(psi0))
    # the negated comparison also refuses a NaN norm
    if not abs(nrm - 1.0) <= 1e-12:
        raise ValueError(f"psi0 must be normalized, got norm {nrm}")
    psi = np.zeros(trunc.dim, dtype=complex)
    psi[: psi0.size] = psi0
    return psi, bool(np.any(np.abs(psi[trunc.n_keep // 2 + 1 :]) > 1e-10))
