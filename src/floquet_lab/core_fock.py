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
using p[n-1, n] = -i omega x[n-1, n].  A generator exponentiated as a
matrix (matrix_exp, anti-Hermitian only) is truncated: its exponential is
formed at n_keep + n_pad and only the n_keep block is kept.

The factored closed forms need x and p only as e^{i a x} e^{i (b/omega) p}
= e^{-i a b/(2 omega)} D(beta), beta = (i a - b)/sqrt(2 omega), with D the
displacement, whose Fock entries are closed forms (Cahill and Glauber,
Phys. Rev. 177, 1857, 1969): D(r e^{i theta}) = e^{i theta N} D(r) e^{-i theta N}
and, for m >= k, <m|D(r)|k> = g_k^(m-k) and <k|D(r)|m> = (-1)^(m-k) g_k^(m-k),

    g_k^(d) = sqrt(k!/(k+d)!) r^d e^{-r^2/2} L_k^(d)(r^2),
    g_(k+1) = [(2k + 1 + d - r^2) g_k - sqrt(k (k+d)) g_(k-1)] / sqrt((k+1)(k+d+1)).

_displacement_table runs that forward recurrence (stable, unlike the one of
the columns D|k+1> = (a^dag - beta^*) D|k>/sqrt(k+1)) along every diagonal d
at once, from the Poisson amplitudes g_0^(d) kept as logarithms, so nothing
underflows or overflows at large r: exact entries on any rows and columns,
with no padding and no eigensolve; _displacement reads blocks off it and
_displaced_states displaced vectors.  A phase a b/(2 omega) of 2^52 rad or
more keeps no digit and raises NumericError, as the oracle's step phase does.
"""

from __future__ import annotations

import math
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

# A running log-bound on the Laguerre values past which _displacement rescales.
_RESCALE_LOG = 600.0


def _integer_field(value, name: str, error: type = ValueError) -> int:
    """A config field read as an int64.  An integral float such as 20.0 is
    read as 20; a fraction, a bool, a non-number or an integer outside the
    int64 range raises error (a ValueError) naming the field."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        if -(2**63) <= value < 2**63:
            return int(value)
        raise error(f"{name} must be an integer in the int64 range [-2**63, 2**63)")
    raise error(f"{name} must be an integer, got {value!r}")


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
    """Kept block size plus the padding of the exponentials the oracle,
    the single exponential and the X_n cross-check take at n_keep + n_pad
    (the factored forms need none).  n_pad defaults to n_keep, which in
    practice keeps their truncation artifacts out of the kept block."""

    n_keep: int
    n_pad: int = -1  # sentinel: replaced by n_keep in __post_init__

    def __post_init__(self):
        if self.n_pad == -1:
            object.__setattr__(self, "n_pad", self.n_keep)
        for name in ("n_keep", "n_pad"):  # read as a config field is, so 48.0 is 48
            object.__setattr__(self, name, _integer_field(getattr(self, name), name, InvalidTruncationError))
        if self.n_keep < 2:
            raise InvalidTruncationError(f"n_keep must be an integer >= 2, got {self.n_keep}")
        if self.n_pad < 0:
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


def _oscillator_op(omega, dim: int, h=0.0, x=0.0, p=0.0, one=0.0) -> np.ndarray:
    """h H_omega + x x + p p + one 1 at the given dimension, dense, for real
    or complex coefficients: the diagonal h omega (n + 1/2) + one and the
    bands (x -+ i omega p) x[n-1, n] above and below it.  omega is a float,
    or a 1-d array of them for a (len(omega), dim, dim) stack."""
    lead = omega.shape if isinstance(omega, np.ndarray) else ()
    w = omega[..., None] if lead else omega  # (m, 1) for m of them
    out = np.zeros(lead + (dim, dim), dtype=complex)
    flat = out.reshape(lead + (-1,))
    off = x_off_diagonal(w, dim)
    iwp = 1j * w * p
    flat[..., :: dim + 1] = h * number_basis_energies(w, dim) + one
    flat[..., 1 :: dim + 1] = (x - iwp) * off
    flat[..., dim :: dim + 1] = (x + iwp) * off
    return out


def xp_operators(omega, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Position and momentum matrices at the given dimension, stacked over an
    array of omega as _oscillator_op stacks.  x is laid out from
    x_off_diagonal, so the dense x and the band agree bit for bit."""
    return _oscillator_op(omega, dim, x=1.0), _oscillator_op(omega, dim, p=1.0)


def number_basis_energies(omega: float, dim: int) -> np.ndarray:
    """Spectral diagonal omega (n + 1/2) of H_omega."""
    return omega * (np.arange(dim) + 0.5)


def x_off_diagonal(omega: float, dim: int) -> np.ndarray:
    """x[n-1, n] = sqrt(n / (2 omega)) for n = 1 .. dim-1, the only nonzero band of x."""
    return np.sqrt(np.arange(1, dim)) / np.sqrt(2.0 * omega)


def x_norm(omega: float, dim: int) -> float:
    """Spectral norm of the truncated x at the given dimension: its largest
    eigenvalue, since its spectrum is symmetric about 0."""
    return float(np.linalg.eigvalsh(np.diag(np.sqrt(np.arange(1.0, dim)), 1), UPLO="U")[-1] / np.sqrt(2.0 * omega))


def matrix_exp(m) -> np.ndarray:
    """exp(A) for an anti-Hermitian generator A = iH, the only kind this
    package exponentiates.

    exp(A) = V diag(e^{iw}) V^dag from the eigenpairs (w, V) of H, which is
    exactly unitary up to rounding.  A generator that deviates from
    anti-Hermitian by more than 1e-12 of its largest entry raises
    ValueError naming the deviation.

    Accepts a TruncatedOperator or a bare ndarray; returns an ndarray.
    """
    a = m.entries if isinstance(m, TruncatedOperator) else np.asarray(m, dtype=complex)
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


def _displacement_table(omega: float, a, b, rows: int, cols: int, first: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """<m| e^{i a x} e^{i (b/omega) p} |k>, m < rows, first <= k < cols, for
    1-d arrays a and b (module docstring): entry (m, k) of pair i is
    g[min(m, k), i, |m - k|] weights[i, m < k, |m - k|], with |m - k| below
    max(rows - first, cols).  A pair a = b = 0 gives the exact identity.
    NumericError if a or b is not finite, |beta|^2 overflows, or the phase
    a b/(2 omega) reaches 2^52 rad."""
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, not warned about
        x = (a * a + b * b) / (2.0 * omega)  # r^2 = |beta|^2
        phase = a * b / (2.0 * omega)
        # the negated comparison also refuses NaN
        if not (np.isfinite(x) & (np.abs(phase) < 2.0**52)).all():
            raise NumericError(
                f"exponent of x or p is not finite or its phase reaches 2^52 rad (max |a| = {np.abs(a).max():.3e}, "
                f"max |b| = {np.abs(b).max():.3e}): no digit of the exponential survives"
            )
    nb = a.size
    n_diag, n_steps = max(rows - first, cols), min(rows, cols)
    d = np.arange(n_diag, dtype=float)
    k = np.arange(n_steps - 1, dtype=float)[:, None]
    kd = k + d
    # g_(k+1) = A_k g_k - B_k g_(k-1) is f_(k+1) = A_k (c_k / c_(k+1)) f_k - f_(k-1) for g_k = c_k f_k,
    # c_0 = c_1 = 1 and c_(k+1) = B_k c_(k-1): one product less per step; f_(-1) = 0, f_0 = 1 start it
    den = 1.0 / np.sqrt((k + 1.0) * (kd + 1.0))
    b_k = np.sqrt(k * kd) * den
    c = np.ones((n_steps, 1, n_diag))
    c[2::2, 0] = np.cumprod(b_k[1::2], axis=0)
    c[3::2, 0] = np.cumprod(b_k[2::2], axis=0)
    den *= c[:-1, 0] / c[1:, 0]
    p_k = (k + kd + 1.0) * den
    coef = den[:, None, :] * -x[:, None]
    coef += p_k[:, None, :]
    # |f_(k+1)| <= (|coef_k| + 1) max(|f_k|, |f_(k-1)|): rescaling every `every` steps keeps f below e^600
    every = max(1, int(_RESCALE_LOG / math.log1p(p_k.max(initial=1.0) + x.max() * den.max(initial=0.0))))
    terms = np.empty((nb, n_diag))
    terms[:, 0] = -0.5 * x
    terms[:, 1:] = 0.5 * (np.log(np.where(x > 0.0, x, 1.0))[:, None] - np.log(d[1:]))
    scale = np.cumsum(terms, axis=1)  # log g_0^(d)
    f = np.empty((n_steps + 1, nb, n_diag))
    f[0], f[1] = 0.0, 1.0
    f_rows, coef, mul, sub = list(f), list(coef), np.multiply, np.subtract
    for j in range(n_steps - 1):
        if j % every == every - 1:
            top = np.maximum(np.abs(f_rows[j + 1]), np.abs(f_rows[j]))
            top[top == 0.0] = 1.0
            f[: j + 2] /= top
            scale += np.log(top)
        mul(coef[j], f_rows[j + 1], out=f_rows[j + 2])
        sub(f_rows[j + 2], f_rows[j], out=f_rows[j + 2])
    g = f[1:]
    g *= c
    if n_steps > 1 and scale.min() < -700.0:  # e^scale underflows under g > 1: fold g's peaks into it
        top = np.maximum(g.max(axis=0), -g.min(axis=0))
        top[top == 0.0] = 1.0
        g /= top
        scale += np.log(top)
    # diagonal d of e^{i theta N} D(r) e^{-i theta N} carries u^d below the main one, (-u^*)^d above it;
    # e^{-i phase} and e^scale go in too, the latter as 0 below e^-708, where it is subnormal
    weights = np.empty((nb, 2, n_diag), dtype=complex)
    weights[:, :, 0] = np.exp(-1j * phase)[:, None]
    u = (1j * a - b) / np.where(x > 0.0, np.hypot(a, b), 1.0)
    weights[:, 0, 1:], weights[:, 1, 1:] = u[:, None], -u.conj()[:, None]
    np.cumprod(weights, axis=2, out=weights)
    weights *= np.exp(scale, out=np.zeros_like(scale), where=scale > -708.0)[:, None, :]
    zero = x == 0.0  # r = 0: the identity, exactly
    g[:, zero], weights[zero] = 1.0, d == 0.0
    return g, weights


def _displacement(omega: float, a, b, rows: int, cols: int) -> np.ndarray:
    """The exact entries <m| e^{i a x} e^{i (b/omega) p} |k>, m < rows and
    k < cols (_displacement_table), as a (rows, cols) block, or for 1-d
    arrays a and b as a (len(a), rows, cols) stack, one block per pair."""
    shape = np.shape(a)
    a, b = np.asarray(a, dtype=float).reshape(-1), np.asarray(b, dtype=float).reshape(-1)
    g, weights = _displacement_table(omega, a, b, rows, cols)
    n_diag = weights.shape[2]
    m_i, k_i = np.arange(rows)[:, None], np.arange(cols)
    diag, stack = np.abs(m_i - k_i), n_diag * np.arange(a.size)[:, None, None]
    out = g.reshape(-1)[np.minimum(m_i, k_i) * (a.size * n_diag) + diag + stack]
    return (out * weights.reshape(-1)[np.where(m_i < k_i, n_diag, 0) + diag + 2 * stack]).reshape(shape + (rows, cols))


def _displaced_states(omega: float, a, b, vecs: np.ndarray, rows: int) -> np.ndarray:
    """e^{i a_i x} e^{i (b_i/omega) p} vecs[i] on the levels 0..rows - 1, one
    row per pair of the 1-d arrays a and b, from the columns of
    _displacement_table where vecs is nonzero; no block is formed."""
    nonzero = np.flatnonzero(vecs.any(axis=0))
    g, weights = _displacement_table(omega, a, b, rows, vecs.shape[1], nonzero[0])
    out = np.zeros((a.size, rows), dtype=complex)
    for k in nonzero:
        if k < rows:  # rows m >= k: diagonals m - k
            out[:, k:] += g[k, :, : rows - k] * (weights[:, 0, : rows - k] * vecs[:, k, None])
        m = np.arange(min(k, rows))  # rows m < k: diagonals k - m
        out[:, m] += g[m, :, k - m].T * (weights[:, 1, k - m] * vecs[:, k, None])
    return out


def _padded_state(psi0, trunc: Truncation) -> np.ndarray:
    """psi0 zero-padded to the working dimension.  psi0 must be normalized
    and fit the working dimension (ValueError)."""
    psi0 = np.asarray(psi0, dtype=complex).ravel()
    if psi0.size > trunc.dim:
        raise ValueError(f"psi0 has {psi0.size} components, working dimension is {trunc.dim}")
    nrm = float(np.linalg.norm(psi0))
    # the negated comparison also refuses a NaN norm
    if not abs(nrm - 1.0) <= 1e-12:
        raise ValueError(f"psi0 must be normalized, got norm {nrm}")
    return np.pad(psi0, (0, trunc.dim - psi0.size))
