"""Drive profiles and the scalar kernels of the driven oscillator.

The Hamiltonian is H(t) = H_omega + f(t) x with f real and T-periodic.  All
closed-form propagators in this package are driven by a handful of scalar
time integrals of f:

    phi1(t,s) = int_s^t cos(omega (t-u)) f(u) du
    phi2(t,s) = int_s^t sin(omega (t-u)) f(u) du
    psi(t,s)  = 1/2 int_s^t (phi1(v,s)^2 - phi2(v,s)^2) dv

and, for elapsed times split as t - s = (2 pi/omega) N + Delta with
Delta in (0, 2 pi/omega),

    mu(t,s) = (omega Delta / (2 sin(omega(t-s)/2))) int_s^t sin(omega((t+s)/2 - u)) f(u) du
    nu(t,s) = -(omega Delta / (2 sin(omega(t-s)/2))) int_s^t cos(omega((t+s)/2 - u)) f(u) du
    sigma(t,s) = -psi(t,s) + phi1 phi2/(2 omega)
                 - (omega Delta - sin(omega(t-s))) / (8 omega sin^2(omega(t-s)/2)) (phi1^2 + phi2^2)

Drives are canonically finite Fourier series, for which every one of these
integrals reduces to sums of the elementary moment

    M0(a, tau) = int_0^tau exp(i a u) du,

evaluated with a series branch for small |a tau| so near-resonant modes lose
no precision.  The sum over the drive's modes is formed in one place, for
chi = phi1 + i phi2 (_chi); the integrals of mu and nu are chi rotated back
to the midpoint by e^{-i omega (t-s)/2}.  The one nested integral (psi) is
a finite sum over pairs of modes of exponential integrals over a simplex,
each a third divided difference of exp (_psi; Van Loan, IEEE TAC 23, 395
(1978)), so its cost does not grow with t - s.
A drive given as equally spaced samples of one period is turned into its
trigonometric interpolant once, by one real FFT (DriveSpec.from_samples),
so every drive is a Fourier series and every kernel here is exact for it.

The Floquet-mode scalars F1(t), F2(t), Phi(t) of the non-resonant
decomposition, U_F(t) = U(t, 0) e^{i t H_F} composed by core_fock's group
laws (_uf_factor), are assembled here as well, together with the (x, p, 1)
coefficients of the Floquet generator S_F(t), which conjugating H(t)
through U_F gives with no time derivative (_conjugated_h).
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core_fock import (
    OscillatorParams,
    _integer_field,
    _objects_field,
    _oscillator_op,
    _real_field,
    _reals_field,
    _weyl_inverse,
    _weyl_product,
    _weyl_rotate,
)
from .errors import ResonanceError, ResonantTimeError

__all__ = [
    "DriveSpec",
    "MuNuSigma",
    "FloquetScalars",
    "eval_drive",
    "hamiltonian_at",
    "phi12",
    "psi",
    "mu_nu_sigma",
    "floquet_scalars",
    "floquet_scalar_derivs",
    "is_resonant_period",
    "split_elapsed",
]

# Resonance guard, relative to the oscillator period 2 pi / omega.
RESONANCE_REL_TOL = 1e-9

# Below this |omega t| the removable-singularity factors switch to series.
_SERIES_CUT = 1e-4

_DD_SPAN = 1.0  # a divided difference of exp over nodes that span less than this is a series (_exp_dd)
_DD_TERMS = 18  # terms of that series: the first one left out is below 2e-17 of the sum
_DD_COEFS = np.array([[1j**n / math.factorial(n + k) for n in range(_DD_TERMS)] for k in range(4)])
_DD_LAGS = np.subtract.outer(np.arange(_DD_TERMS), np.arange(_DD_TERMS))


def _check_period(period) -> None:
    if not (period > 0.0 and np.isfinite(period)):
        raise ValueError(f"period must be positive and finite, got {period}")


def _check_finite(**times) -> None:
    """Raise ValueError naming the first of the times, each a float or an
    array of floats, that is not finite throughout."""
    for name, value in times.items():
        if not (math.isfinite(value) if isinstance(value, float) else np.isfinite(value).all()):
            raise ValueError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class DriveSpec:
    """A real T-periodic drive, a finite Fourier series.

    fourier holds (k, f_k) pairs sorted by k with f_{-k} = conj(f_k), so
    f(t) = sum_k f_k exp(2 pi i k t / T) is real.  A drive given as samples
    is stored as the series of its trigonometric interpolant (from_samples).
    """

    period: float
    fourier: tuple = ()

    def __post_init__(self):
        _check_period(self.period)
        coeffs = {}
        for k, c in self.fourier:
            if int(k) in coeffs:
                raise ValueError(f"fourier k must be unique, got k={int(k)} again")
            coeffs[int(k)] = complex(c)
        scale = max((abs(c) for c in coeffs.values()), default=0.0)
        for k, c in coeffs.items():
            mirror = coeffs.get(-k, 0.0 + 0.0j)
            if abs(mirror - np.conj(c)) > 1e-12 * max(scale, 1e-300):
                raise ValueError(f"fourier coefficients violate f_-k = conj(f_k) at k={k}")
        object.__setattr__(
            self, "fourier", tuple(sorted((k, coeffs[k]) for k in coeffs))
        )

    # -- constructors

    @classmethod
    def from_fourier(cls, period: float, coeffs: dict) -> "DriveSpec":
        return cls(period=period, fourier=tuple(coeffs.items()))

    @classmethod
    def sine(cls, period: float, amplitude: float = 1.0) -> "DriveSpec":
        """amplitude * sin(2 pi t / period)."""
        c = -0.5j * amplitude
        return cls.from_fourier(period, {1: c, -1: np.conj(c)})

    @classmethod
    def from_samples(cls, period: float, ts, fs) -> "DriveSpec":
        """The trigonometric interpolant of N equally spaced samples of one period.

        Needs N >= 4 finite samples at t_j = t_0 + j T/N, to 1e-12 T, with
        t_0 in [0, T/N), given as integers or floats: strings, bools (one
        among floats too) and complex numbers raise ValueError, as in the JSON
        samples block.  One real FFT gives the coefficients.  For even N the
        Nyquist term is split evenly over k = +-N/2, so the series is real and
        passes through every sample.  Coefficients with |f_k| <= 4 N eps
        max|f_j|, the transform's own round-off, are dropped.
        """
        _check_period(period)
        # numpy promotes a bool among floats to a float, so look at each entry
        for name, values in (("times", ts), ("values", fs)):
            if any(isinstance(v, (bool, np.bool_)) for v in np.asarray(values, dtype=object).flat):
                raise ValueError(f"sample {name} must be real numbers, got a bool")
        ts, fs = np.asarray(ts), np.asarray(fs)
        if ts.dtype.kind not in "iuf" or fs.dtype.kind not in "iuf":
            raise ValueError(f"sample times and values must be real numbers, got dtypes {ts.dtype} and {fs.dtype}")
        ts, fs = ts.astype(float), fs.astype(float)
        n = ts.size
        if ts.ndim != 1 or ts.shape != fs.shape or n < 4:
            raise ValueError("samples need matching 1-d arrays with at least 4 nodes")
        if not (np.all(np.isfinite(ts)) and np.all(np.isfinite(fs))):
            raise ValueError("sample times and values must be finite")
        step = period / n
        if not 0.0 <= ts[0] < step:
            raise ValueError(f"the first sample time must lie in [0, T/N) = [0, {step!r}), got {ts[0]!r}")
        if np.abs(ts - (ts[0] + step * np.arange(n))).max() > 1e-12 * period:
            raise ValueError(f"sample times must be equally spaced by T/N = {step!r} to 1e-12 T")
        ks = np.arange(n // 2 + 1)
        # the FFT is relative to t_0; the phase moves the series to t = 0
        c = np.fft.rfft(fs) / n * np.exp(-2j * np.pi * ks * ts[0] / period)
        if n % 2 == 0:
            c[-1] *= 0.5
        floor = 4 * n * np.finfo(float).eps * np.abs(fs).max()
        coeffs = {}
        for k in ks[np.abs(c) > floor]:
            coeffs[-int(k)] = np.conj(c[k])
            coeffs[int(k)] = c[k]
        return cls.from_fourier(period, coeffs)

    # -- properties

    @property
    def base_frequency(self) -> float:
        return 2.0 * np.pi / self.period

    @property
    def max_frequency(self) -> float:
        """Largest |2 pi k / T| occurring in the series (0 for empty)."""
        if not self.fourier:
            return 0.0
        return self.base_frequency * max(abs(k) for k, _ in self.fourier)

    def coefficient(self, k: int) -> complex:
        for kk, c in self.fourier:
            if kk == k:
                return c
        return 0.0 + 0.0j

    # -- serialization (schema shared with the CLI)

    def to_json_dict(self) -> dict:
        return {
            "period": float(self.period),
            "fourier": [
                {"k": int(k), "re": float(c.real), "im": float(c.imag)}
                for k, c in self.fourier
            ],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "DriveSpec":
        """The drive of "period" and either a "fourier" list of {k, re, im}
        or a "samples" block {t, f} of lists of numbers, read as from_samples
        reads them.  A bad period, k, re, im, t or f, or a k given twice,
        raises ValueError naming its field."""
        period = _real_field(d["period"], "drive.period")
        if "samples" in d:
            block = d["samples"]
            if "fourier" in d:
                raise ValueError("a drive gives either fourier or samples, not both")
            if "order" in block:
                raise ValueError(
                    "samples.order is not accepted: samples are read as their "
                    "trigonometric interpolant, not a spline"
                )
            return cls.from_samples(
                period, *(_reals_field(block[f], f"drive.samples.{f}") for f in ("t", "f"))
            )
        coeffs = {}
        for i, e in enumerate(_objects_field(d.get("fourier", []), "drive.fourier")):
            k = _integer_field(e["k"], f"drive.fourier[{i}].k")
            if k in coeffs:
                raise ValueError(f"drive.fourier[{i}].k must be unique, got {k} again")
            coeffs[k] = complex(*(_real_field(e[f], f"drive.fourier[{i}].{f}") for f in ("re", "im")))
        return cls(period=period, fourier=tuple(coeffs.items()))

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


class MuNuSigma(NamedTuple):
    mu: float
    nu: float
    sigma: float
    whole_periods: int
    delta: float


class FloquetScalars(NamedTuple):
    f1: float
    f2: float
    big_phi: float


# ---------------------------------------------------------------------------
# elementary moments and drive evaluation


def _m0(a, tau) -> np.ndarray:
    """int_0^tau exp(i a u) du for a and tau floats or arrays that broadcast
    together, stable for small |a tau| (series branch)."""
    tau = np.asarray(tau, dtype=float)
    z = a * tau
    # atleast_1d keeps a 0-d z on the array loops, so a scalar tau rounds as an array's nodes do
    iz = 1j * np.atleast_1d(z)
    small = np.abs(z) < _SERIES_CUT  # NaN is not small: it takes the exponential form
    if not small.any():
        return ((np.exp(iz) - 1.0) / (1j * a)).reshape(z.shape)
    # both forms on every node, each kept where it is accurate: the series
    # may overflow where it is not, and a = 0 puts every node in the series
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        exact = (np.exp(iz) - 1.0) / (1j * a)
        # tau * sum_j (i a tau)^j / (j+1)!
        acc = 1.0 + iz * (1.0 / 2.0 + iz * (1.0 / 6.0 + iz * (1.0 / 24.0 + iz * (1.0 / 120.0 + iz / 720.0))))
        series = tau * acc
    return np.where(small, series, exact).reshape(z.shape)


def eval_drive(spec: DriveSpec, t):
    """f(t); accepts scalars or arrays, returns real values."""
    tarr = np.asarray(t, dtype=float)
    acc = np.zeros(tarr.shape, dtype=complex)
    w0 = spec.base_frequency
    for k, c in spec.fourier:
        acc += c * np.exp(1j * (w0 * k) * tarr)
    resid = np.abs(acc.imag).max() if acc.size else 0.0
    scale = max(np.abs(acc).max() if acc.size else 0.0, 1.0)
    if resid > 1e-12 * scale:
        raise ValueError(f"drive evaluated to non-real values (residue {resid:.2e})")
    out = acc.real
    return out if out.ndim else float(out)


def hamiltonian_at(spec: DriveSpec, params: OscillatorParams, t: float, dim: int) -> np.ndarray:
    """H(t) = H_omega + f(t) x at the given dimension, dense, with f(t) x
    written onto the two bands."""
    return _oscillator_op(params.omega, dim, h=1.0, x=float(eval_drive(spec, t)))


def _chi(spec: DriveSpec, omega, t, s: float) -> np.ndarray:
    """chi(t,s) = phi1 + i phi2 for a scalar t or an array of them, and for
    omega a float or an array that broadcasts against t, the package's one
    sum over the drive's modes:

        chi(s + tau, s) = e^{i omega tau} sum_k f_k e^{i Omega_k s} M0(Omega_k - omega, tau),

    Omega_k = 2 pi k / T."""
    tau = np.asarray(t, dtype=float) - s
    w0 = spec.base_frequency
    acc = np.zeros(np.broadcast(omega, tau).shape, dtype=complex)
    for k, c in spec.fourier:
        acc += c * np.exp(1j * w0 * k * s) * _m0(w0 * k - omega, tau)
    return np.exp(1j * omega * tau) * acc


def phi12(spec: DriveSpec, params: OscillatorParams, t: float, s: float) -> tuple[float, float]:
    """(phi1, phi2) at (t, s)."""
    t, s = float(t), float(s)
    _check_finite(t=t, s=s)
    c = _chi(spec, params.omega, t, s)
    return float(np.real(c)), float(np.imag(c))


def _exp_dd(x: np.ndarray) -> np.ndarray:
    """exp[i x_0, i x_1, i x_2, i x_3] for real nodes x of shape (..., 4), sorted first since it is symmetric
    in them.  Level 1 is e^{i mid} sin(h)/h at a gap 2h.  Level k divides by its nodes' span where that is at
    least _DD_SPAN, and elsewhere is the series e^{i x_0} sum_n i^n h_n(d) / (n + k)!, h_n the complete
    homogeneous polynomial of degree n in d_j = x_j - x_0, j = 1..k, so no level cancels digits away
    (McCurdy, Ng and Parlett, Math. Comp. 43, 501 (1984))."""
    x = np.sort(x, axis=-1)
    half = 0.5 * (x[..., 1:] - x[..., :-1])
    dd = np.exp(1j * (x[..., :-1] + half)) * np.divide(np.sin(half), half, out=np.ones_like(half), where=half != 0.0)
    whole = x[..., 3:] - x[..., :1] < _DD_SPAN  # the top level's series needs no lower level's
    for k in (2, 3):
        span = x[..., k:] - x[..., :-k]
        dd = (dd[..., 1:] - dd[..., :-1]) / (1j * np.maximum(span, _DD_SPAN))
        if (small := whole if k == 3 else (span < _DD_SPAN) & ~whole).any():
            nodes = np.stack([x[..., j : j + 4 - k] for j in range(k + 1)], axis=-1)[small]
            powers = (nodes[:, 1:] - nodes[:, :1])[..., None] ** np.arange(float(_DD_TERMS))
            h = powers[:, 0]
            for j in range(1, k):  # h_n(d_1..d_j) = sum_m d_j^(n - m) h_m(d_1..d_(j-1)), row by row
                h = (np.where(_DD_LAGS >= 0, powers[:, j, _DD_LAGS], 0.0) @ h[..., None])[..., 0]
            dd[small] = np.exp(1j * nodes[:, 0]) * (h * _DD_COEFS[k]).sum(-1)
    return dd[..., 0]


def _psi(spec: DriveSpec, omega: float, t, s: float):
    """psi(t, s) for a float t or an array of them.  chi^2 is a double sum over the modes, so with
    g_k = f_k e^{i Omega_k s} and a_k = Omega_k - omega, psi(s + tau, s) = Re sum_{k,l} g_k g_l E_kl over
    ordered pairs, E_kl = int_{0 <= x_1 <= x_2 <= x_3 <= tau} e^{i a_k x_1 + i a_l x_2 + 2 i omega x_3} dx,
    the (0, 3) entry of exp(tau B), B upper bidiagonal with diagonal i (Omega_k + Omega_l, Omega_l + omega,
    2 omega, 0) and ones above (Van Loan, IEEE TAC 23, 395 (1978)): tau^3 _exp_dd of tau times it.  ValueError
    naming t - s if 2 (omega + max |Omega_k|) |t - s| reaches 2^52 rad (core_fock._displacement_table's rule)."""
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, not warned about
        tau = np.asarray(t, dtype=float) - s
        ok = np.ravel(2.0 * (omega + spec.max_frequency) * np.abs(tau) < 2.0**52)  # NaN fails too
    if not ok.all():
        tau = float(np.ravel(tau)[np.argmin(ok)])
        raise ValueError(f"t - s = {tau!r} is too long: 2 (omega + max |Omega_k|) |t - s| reaches 2^52 rad")
    freq = spec.base_frequency * np.array([k for k, _ in spec.fourier], dtype=float)  # Omega_k
    g = np.array([c for _, c in spec.fourier], dtype=complex) * np.exp(1j * s * freq)
    amp = np.abs(g).max(initial=0.0) or 1.0  # a psi past the float range overflows in the last product only
    nodes = np.zeros((freq.size, freq.size, 4))  # (k, l, node over tau)
    nodes[..., 0], nodes[..., 1], nodes[..., 2] = freq[:, None] + freq, freq + omega, 2.0 * omega
    e = _exp_dd(tau[..., None, None, None] * nodes) * (tau * tau * tau)[..., None, None]
    return amp * np.real(((e * g).sum(-1) * (g / amp)).sum(-1))  # a grid's sums in the order of a time's


def psi(spec: DriveSpec, params: OscillatorParams, t: float, s: float) -> float:
    """psi(t,s) = 1/2 int_s^t (phi1(v,s)^2 - phi2(v,s)^2) dv, in closed form (_psi)."""
    t, s = float(t), float(s)
    _check_finite(t=t, s=s)
    return float(_psi(spec, params.omega, t, s))


# ---------------------------------------------------------------------------
# elapsed-time splitting and the single-exponential scalars


def split_elapsed(params: OscillatorParams, elapsed: float) -> tuple[int, float]:
    """Split elapsed time as T_osc N + Delta, T_osc = 2 pi/omega, with N the
    nearest whole number of oscillator periods, so Delta in (-T_osc/2, T_osc/2].

    Rounding to the nearest period keeps omega Delta / (2 sin(omega elapsed / 2))
    within [1, pi/2] in size, so the single exponential stays bounded on both
    sides of a whole period.  Raises ResonantTimeError when elapsed is within
    RESONANCE_REL_TOL oscillator periods of an exact multiple, where the
    split degenerates.
    """
    t_osc = params.oscillator_period
    r = elapsed / t_osc
    dist = abs(r - round(r))
    if dist < RESONANCE_REL_TOL:
        raise ResonantTimeError(
            f"elapsed time {elapsed} is within {RESONANCE_REL_TOL} oscillator periods of resonance",
            elapsed=elapsed,
        )
    n = math.ceil(r - 0.5)
    delta = (r - n) * t_osc
    return n, delta


def _lambda_factor(u: float) -> float:
    """(u - sin u) / (8 sin^2(u/2)) with a series branch near u = 0."""
    if abs(u) < _SERIES_CUT:
        return u / 12.0 + u**3 / 360.0 + u**5 / 10080.0
    return (u - math.sin(u)) / (8.0 * math.sin(0.5 * u) ** 2)


def mu_nu_sigma(spec: DriveSpec, params: OscillatorParams, t: float, s: float) -> MuNuSigma:
    """Scalars of the single-exponential propagator over [s, t].

    Delta is the elapsed time less the nearest whole number of oscillator
    periods (split_elapsed), so the prefactor omega Delta / (2 sin(omega
    (t - s) / 2)) of mu and nu stays between 1 and pi/2 in size.  Refuses
    elapsed times at (near) integer multiples of the oscillator period,
    where Delta -> 0 and the form degenerates.
    """
    t, s = float(t), float(s)
    _check_finite(t=t, s=s)
    w = params.omega
    n, delta = split_elapsed(params, t - s)
    half = 0.5 * w * (t - s)
    sin_half = math.sin(half)

    chi = complex(_chi(spec, w, t, s))
    p1, p2 = chi.real, chi.imag
    # the integrals of mu and nu are chi rotated back to the midpoint (t + s) / 2
    mid = np.exp(-1j * half) * chi
    pref = w * delta / (2.0 * sin_half)
    mu = pref * float(np.imag(mid))
    nu = -pref * float(np.real(mid))

    sigma = -float(_psi(spec, w, t, s)) + p1 * p2 / (2.0 * w) - _lambda_factor(w * delta) / w * (p1 * p1 + p2 * p2)
    return MuNuSigma(mu=float(mu), nu=float(nu), sigma=float(sigma), whole_periods=n, delta=delta)


# ---------------------------------------------------------------------------
# Floquet-mode scalars of the non-resonant decomposition


def is_resonant_period(params: OscillatorParams) -> bool:
    """True when the drive period is within RESONANCE_REL_TOL oscillator
    periods of an integer multiple of 2 pi / omega."""
    r = params.period_T / params.oscillator_period
    return abs(r - round(r)) < RESONANCE_REL_TOL


# Distinct (spec, params) pairs whose monodromy scalars stay memoized.
_MONODROMY_CACHE_SIZE = 64


@functools.lru_cache(maxsize=_MONODROMY_CACHE_SIZE)
def _monodromy_scalars(spec: DriveSpec, params: OscillatorParams) -> MuNuSigma:
    """mu_nu_sigma(T, 0), memoized on the frozen (spec, params).

    Errors are not cached: a resonant period, or a period too long for psi,
    raises again on every call.
    """
    if is_resonant_period(params):
        raise ResonanceError(
            f"period_T = {params.period_T} is an integer multiple of 2 pi/omega; "
            "the non-resonant Floquet construction does not apply"
        )
    return mu_nu_sigma(spec, params, params.period_T, 0.0)


def _quasi_energy_shift(mns: MuNuSigma, params: OscillatorParams) -> float:
    """pi N (mu^2 + nu^2) / (omega^3 Delta^2 T) of the monodromy scalars: the
    part of H_F's constant beyond -sigma/T.  The denominator is formed as
    (omega Delta)^2 (omega T), both bounded off resonance, and the squares
    as products, so a drive too large gives inf, not OverflowError."""
    mu, nu, w = mns.mu, mns.nu, params.omega
    w_delta = w * mns.delta
    return math.pi * mns.whole_periods * (mu * mu + nu * nu) / (w_delta * w_delta * (w * params.period_T))


def _hf_coeffs(mns: MuNuSigma, params: OscillatorParams) -> tuple[float, float, float]:
    """The (x, p, 1) coefficients of H_F = H_omega + x x + p p + one (floquet module docstring)."""
    shift = -mns.sigma / params.period_T + _quasi_energy_shift(mns, params)
    return -mns.nu / mns.delta, -mns.mu / (params.omega * mns.delta), shift


def _conjugated_h(omega: float, f, a, b):
    """The (x, p, 1) coefficients of A^dag (H_omega + f x) A, A = e^{i a x} e^{i (b/omega) p},
    for scalars or arrays f, a, b.  A moves x to x - b/omega and p to p + a (Husimi 1953), so
    A^dag (H_omega + f x) A = H_omega + (f - omega b) x + a p + (a^2 + b^2)/2 - f b/omega."""
    return f - omega * b, a, 0.5 * (a * a + b * b) - f * b / omega


def _hf_frame(spec: DriveSpec, params: OscillatorParams):
    """(A, E0) with H_F = A^dag H_omega A + E0: _conjugated_h at f = 0 gives
    H_F's (x, p) coefficients (h_x, h_p) (_hf_coeffs) for the triple
    A = (h_p, -h_x/omega, 0) (core_fock._weyl_product), and E0 is H_F's
    constant c_F less that conjugation's, c_F - h_p^2/2 - h_x^2/(2 omega^2)."""
    h_x, h_p, c_f = _hf_coeffs(_monodromy_scalars(spec, params), params)
    a, b = h_p, -h_x / params.omega
    return (a, b, 0.0), c_f - _conjugated_h(params.omega, 0.0, a, b)[2]


def _uf_factor(spec: DriveSpec, params: OscillatorParams, t):
    """U_F(t) e^{i psi(t, 0)} as a triple (a, b, phase) (core_fock), for a scalar t or
    an array of them: U_F = U(t, 0) e^{i t H_F}, U(t, 0) e^{i psi} = (-phi1, phi2, 0) e^{-i t H_omega}
    and e^{i t H_F} = e^{i t E0} A^-1 e^{i t H_omega} A (_hf_frame), so it is
    (-phi1, phi2, t E0) rot_t(A^-1) A, rot_t the free rotation (core_fock._weyl_rotate)."""
    w = params.omega
    frame, e0 = _hf_frame(spec, params)
    chi = _chi(spec, w, t, 0.0)
    return _weyl_product(w, (-chi.real, chi.imag, t * e0), _weyl_rotate(w, t, _weyl_inverse(w, frame)), frame)


def floquet_scalars(spec: DriveSpec, params: OscillatorParams, t: float) -> FloquetScalars:
    """F1, F2, Phi at time t for the non-resonant case, the periodic factor
    U_F(t) = e^{i Phi} e^{i F2 x} e^{i (F1/omega) p} (_uf_factor, with -psi(t, 0)
    added to its phase)."""
    t = float(t)
    _check_finite(t=t)
    f2, f1, phase = _uf_factor(spec, params, t)
    return FloquetScalars(f1=float(f1), f2=float(f2), big_phi=float(phase) - float(_psi(spec, params.omega, t, 0.0)))


def _sf_scalars(spec: DriveSpec, params: OscillatorParams, t) -> tuple[np.ndarray, ...]:
    """(x, p, one, F1) at each time of t, a scalar or an array, S_F(t) = x x + p p + one:
    S_F = U_F^{-1} H(t) U_F - H_F, U_F a phase times e^{i F2 x} e^{i (F1/omega) p}
    (_conjugated_h at (F2, F1), _uf_factor), from one chi(t, 0) and one drive
    evaluation over all the times; no psi and no time derivative."""
    t = np.asarray(t, dtype=float)
    _check_finite(t=t)
    w = params.omega
    f2, f1, _ = _uf_factor(spec, params, t)
    hf_x, hf_p, hf_one = _hf_coeffs(_monodromy_scalars(spec, params), params)
    x, p, one = _conjugated_h(w, eval_drive(spec, t), f2, f1)
    return x - hf_x, p - hf_p, one - hf_one, f1


def floquet_scalar_derivs(spec: DriveSpec, params: OscillatorParams, t: float) -> tuple[float, float, float]:
    """(F1', F2', Phi') at time t, read off S_F = -(F1'/omega) p - F2' x + (F1 F2'/omega - Phi')."""
    x, p, one, f1 = (float(v) for v in _sf_scalars(spec, params, float(t)))
    return -params.omega * p, -x, f1 * -x / params.omega - one
