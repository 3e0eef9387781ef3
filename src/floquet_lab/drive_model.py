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
no precision.  The one nested integral (psi) is evaluated by composite
Gauss-Legendre panels applied to the exact single-integral integrand, which
is machine-accurate for trigonometric integrands of known bandwidth.
A drive given as equally spaced samples of one period is turned into its
trigonometric interpolant once, by one real FFT (DriveSpec.from_samples),
so every drive is a Fourier series and every kernel here is exact for it.

The Floquet-mode scalars xi(t), eta(t), phi(t), F1(t), F2(t), Phi(t) of the
non-resonant decomposition are assembled here as well, together with the
exact time derivatives F1', F2', Phi' needed by the Floquet generator.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core_fock import OscillatorParams
from .errors import ResonanceError, ResonantTimeError

__all__ = [
    "DriveSpec",
    "MuNuSigma",
    "FloquetScalars",
    "eval_drive",
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

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)


def _check_period(period) -> None:
    if not (period > 0.0 and np.isfinite(period)):
        raise ValueError(f"period must be positive and finite, got {period}")


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
    def zero(cls, period: float) -> "DriveSpec":
        return cls(period=period)

    @classmethod
    def sine(cls, period: float, amplitude: float = 1.0, harmonic: int = 1) -> "DriveSpec":
        """amplitude * sin(2 pi harmonic t / period)."""
        c = -0.5j * amplitude
        return cls.from_fourier(period, {harmonic: c, -harmonic: np.conj(c)})

    @classmethod
    def cosine(cls, period: float, amplitude: float = 1.0, harmonic: int = 1) -> "DriveSpec":
        c = 0.5 * amplitude + 0.0j
        return cls.from_fourier(period, {harmonic: c, -harmonic: np.conj(c)})

    @classmethod
    def from_samples(cls, period: float, ts, fs) -> "DriveSpec":
        """The trigonometric interpolant of N equally spaced samples of one period.

        Needs N >= 4 finite samples at t_j = t_0 + j T/N, to 1e-12 T, with
        t_0 in [0, T/N).  One real FFT gives the coefficients.  For even N the
        Nyquist term is split evenly over k = +-N/2, so the series is real and
        passes through every sample.  Coefficients with |f_k| <= 4 N eps
        max|f_j|, the transform's own round-off, are dropped.
        """
        _check_period(period)
        ts = np.asarray(ts, dtype=float)
        fs = np.asarray(fs, dtype=float)
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
        or a "samples" block {t, f}, read as from_samples reads them."""
        if "samples" in d:
            block = d["samples"]
            if "fourier" in d:
                raise ValueError("a drive gives either fourier or samples, not both")
            if "order" in block:
                raise ValueError(
                    "samples.order is not accepted: samples are read as their "
                    "trigonometric interpolant, not a spline"
                )
            return cls.from_samples(float(d["period"]), block["t"], block["f"])
        coeffs = {int(e["k"]): complex(e["re"], e["im"]) for e in d.get("fourier", [])}
        return cls(period=float(d["period"]), fourier=tuple(coeffs.items()))

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, s: str) -> "DriveSpec":
        return cls.from_json_dict(json.loads(s))


class MuNuSigma(NamedTuple):
    mu: float
    nu: float
    sigma: float
    whole_periods: int
    delta: float


class FloquetScalars(NamedTuple):
    xi: float
    eta: float
    phi: float
    f1: float
    f2: float
    big_phi: float


# ---------------------------------------------------------------------------
# elementary moments and drive evaluation


def _m0(a: float, tau) -> np.ndarray:
    """int_0^tau exp(i a u) du, stable for small |a tau| (series branch)."""
    tau = np.asarray(tau, dtype=float)
    z = a * tau
    # One pass when no node is in the series branch; NaN fails the test and
    # takes the masked path.  ravel keeps a 0-d tau on the array loops, which
    # round as the masked path's do.
    if np.abs(z).min(initial=np.inf) >= _SERIES_CUT:
        return ((np.exp(1j * np.ravel(z)) - 1.0) / (1j * a)).reshape(tau.shape)
    small = np.abs(z) < _SERIES_CUT
    out = np.empty(tau.shape, dtype=complex)
    if np.any(~small):
        zt = z[~small]
        out[~small] = (np.exp(1j * zt) - 1.0) / (1j * a)
    if np.any(small):
        iz = 1j * z[small]
        # tau * sum_j (i a tau)^j / (j+1)!
        acc = 1.0 + iz * (1.0 / 2.0 + iz * (1.0 / 6.0 + iz * (1.0 / 24.0 + iz * (1.0 / 120.0 + iz / 720.0))))
        out[small] = tau[small] * acc
    return out


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


def _mode_terms(spec: DriveSpec, omega: float, tau, s: float):
    """The factors f_k e^{i Omega_k s} and M0(Omega_k - omega, tau), Omega_k =
    2 pi k / T, of each term of the mode sum e^{-i omega tau} chi(s + tau, s).

    Callers multiply and add them themselves: numpy rounds a complex product
    of scalars and one of arrays differently in the last bit, so _chi (array
    arithmetic) and mu_nu_sigma (scalar arithmetic) each keep their own.
    """
    w0 = spec.base_frequency
    for k, c in spec.fourier:
        yield c * np.exp(1j * w0 * k * s), _m0(w0 * k - omega, tau)


def _chi(spec: DriveSpec, omega: float, t, s: float) -> np.ndarray:
    """chi(t,s) = phi1 + i phi2."""
    tau = np.asarray(t, dtype=float) - s
    acc = np.zeros(tau.shape, dtype=complex)
    for coef, m0 in _mode_terms(spec, omega, tau, s):
        acc += coef * m0
    return np.exp(1j * omega * tau) * acc


def phi12(spec: DriveSpec, params: OscillatorParams, t: float, s: float) -> tuple[float, float]:
    """(phi1, phi2) at (t, s)."""
    c = _chi(spec, params.omega, float(t), float(s))
    return float(np.real(c)), float(np.imag(c))


def _gauss_panels(fn, a: float, b: float, max_freq: float) -> float:
    """Composite 24-node Gauss-Legendre; exact to machine precision for
    band-limited integrands when panels keep max_freq * length <= ~6."""
    if a == b:
        return 0.0
    length = abs(b - a)
    n_panels = max(1, int(math.ceil(length * max(max_freq, 1e-12) / 6.0)))
    edges = np.linspace(a, b, n_panels + 1)
    total = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        pts = mid + half * _GL_NODES
        total += half * float(np.dot(_GL_WEIGHTS, fn(pts)))
    return total


def psi(spec: DriveSpec, params: OscillatorParams, t: float, s: float) -> float:
    """psi(t,s) = 1/2 int_s^t (phi1(v,s)^2 - phi2(v,s)^2) dv."""
    t = float(t)
    s = float(s)
    if t == s:
        return 0.0
    max_freq = 2.0 * (spec.max_frequency + params.omega)

    def integrand(v):
        c = _chi(spec, params.omega, v, s)
        return 0.5 * np.real(c * c)

    return _gauss_panels(integrand, s, t, max_freq)


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
            period=t_osc,
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
    t = float(t)
    s = float(s)
    w = params.omega
    n, delta = split_elapsed(params, t - s)
    tau = t - s
    half = 0.5 * w * tau
    sin_half = math.sin(half)

    # the mode sum of chi, rotated to the midpoint (t + s) / 2
    acc = 0.0 + 0.0j
    for coef, m0 in _mode_terms(spec, w, tau, s):
        acc += coef * complex(m0)
    full = np.exp(1j * half) * acc
    i_sin = float(np.imag(full))
    i_cos = float(np.real(full))

    pref = w * delta / (2.0 * sin_half)
    mu = pref * i_sin
    nu = -pref * i_cos

    # chi(t, s) = phi1 + i phi2 is the same mode sum, rotated by omega tau
    chi = np.exp(1j * half) * full
    p1 = float(np.real(chi))
    p2 = float(np.imag(chi))
    sigma = (
        -psi(spec, params, t, s)
        + p1 * p2 / (2.0 * w)
        - _lambda_factor(w * delta) / w * (p1 * p1 + p2 * p2)
    )
    return MuNuSigma(mu=float(mu), nu=float(nu), sigma=float(sigma), whole_periods=n, delta=delta)


# ---------------------------------------------------------------------------
# Floquet-mode scalars of the non-resonant decomposition


def is_resonant_period(params: OscillatorParams, rel_tol: float = RESONANCE_REL_TOL) -> bool:
    """True when the drive period is an integer multiple of 2 pi / omega."""
    r = params.period_T / params.oscillator_period
    return abs(r - round(r)) < rel_tol


def _p123(u: float) -> tuple[float, float, float]:
    """The three trigonometric polynomials in the quadratic phase phi(t)."""
    return (
        2.0 * u - 4.0 * math.sin(u) + math.sin(2.0 * u),
        2.0 - 4.0 * math.cos(u) + 2.0 * math.cos(2.0 * u),
        2.0 * u - math.sin(2.0 * u),
    )


# Distinct (spec, params) pairs whose monodromy scalars stay memoized.
_MONODROMY_CACHE_SIZE = 64


@functools.lru_cache(maxsize=_MONODROMY_CACHE_SIZE)
def _monodromy_scalars(spec: DriveSpec, params: OscillatorParams) -> MuNuSigma:
    """mu_nu_sigma(T, 0), memoized on the frozen (spec, params).

    Errors are not cached: a resonant period or a failed quadrature raises
    again on every call.
    """
    if is_resonant_period(params):
        raise ResonanceError(
            f"period_T = {params.period_T} is an integer multiple of 2 pi/omega; "
            "the non-resonant Floquet construction does not apply"
        )
    return mu_nu_sigma(spec, params, params.period_T, 0.0)


def _xi_eta(mns: MuNuSigma, w: float, sin_u, cos_u):
    """xi and eta at phase u = omega t, given sin u and cos u (scalars or
    arrays): the monodromy data rotated at omega."""
    xi = (sin_u * mns.mu - (1.0 - cos_u) * mns.nu) / (w * mns.delta)
    eta = ((1.0 - cos_u) * mns.mu + sin_u * mns.nu) / (w * mns.delta)
    return xi, eta


def floquet_scalars(spec: DriveSpec, params: OscillatorParams, t: float) -> FloquetScalars:
    """xi, eta, phi, F1, F2, Phi at time t for the non-resonant case.

    xi and eta rotate the monodromy data (mu, nu) at frequency omega; phi is
    the accompanying quadratic phase; F1 = phi2(t,0) - xi and
    F2 = -phi1(t,0) - eta generate the periodic factor
    U_F(t) = e^{i Phi} e^{i F2 x} e^{i (F1/omega) p}.
    """
    t = float(t)
    w = params.omega
    big_t = params.period_T
    mns = _monodromy_scalars(spec, params)
    mu_t, nu_t, sigma_t, n_t, delta = mns.mu, mns.nu, mns.sigma, mns.whole_periods, mns.delta

    u = w * t
    xi, eta = _xi_eta(mns, w, math.sin(u), math.cos(u))
    q1, q2, q3 = _p123(u)
    phi = -(q1 * mu_t * mu_t + q2 * mu_t * nu_t + q3 * nu_t * nu_t) / (4.0 * w**3 * delta**2)

    p1, p2 = phi12(spec, params, t, 0.0)
    f1 = p2 - xi
    f2 = -p1 - eta
    rot = math.pi * n_t * (mu_t * mu_t + nu_t * nu_t) / (w**3 * delta**2 * big_t)
    big_phi = -psi(spec, params, t, 0.0) + phi - sigma_t * t / big_t + rot * t - p2 * eta / w
    return FloquetScalars(xi=xi, eta=eta, phi=phi, f1=f1, f2=f2, big_phi=big_phi)


def _sf_scalars(spec: DriveSpec, params: OscillatorParams, t) -> tuple[np.ndarray, ...]:
    """(F1, F1', F2', Phi') at each time of t, a scalar or an array: all that
    S_F needs, from one chi(t, 0) over all the times and no psi quadrature."""
    t = np.asarray(t, dtype=float)
    w = params.omega
    big_t = params.period_T
    mns = _monodromy_scalars(spec, params)
    mu_t, nu_t, sigma_t, n_t, delta = mns.mu, mns.nu, mns.sigma, mns.whole_periods, mns.delta

    u = w * t
    sin_u = np.sin(u)
    cos_u = np.cos(u)
    xi, eta = _xi_eta(mns, w, sin_u, cos_u)
    xi_dot = (cos_u * mu_t - sin_u * nu_t) / delta
    eta_dot = (sin_u * mu_t + cos_u * nu_t) / delta
    # d/du of the three polynomials in phi
    q1d = 2.0 - 4.0 * cos_u + 2.0 * np.cos(2.0 * u)
    q2d = 4.0 * sin_u - 4.0 * np.sin(2.0 * u)
    q3d = 2.0 - 2.0 * np.cos(2.0 * u)
    phi_dot = -(q1d * mu_t * mu_t + q2d * mu_t * nu_t + q3d * nu_t * nu_t) / (4.0 * w**2 * delta**2)

    chi = _chi(spec, w, t, 0.0)
    p1, p2 = chi.real, chi.imag
    ft = eval_drive(spec, t)
    f1_dot = w * p1 - xi_dot
    f2_dot = w * p2 - ft - eta_dot
    psi_dot = 0.5 * (p1 * p1 - p2 * p2)
    rot = math.pi * n_t * (mu_t * mu_t + nu_t * nu_t) / (w**3 * delta**2 * big_t)
    big_phi_dot = (
        -psi_dot + phi_dot - sigma_t / big_t + rot - (w * p1 * eta + p2 * eta_dot) / w
    )
    return p2 - xi, f1_dot, f2_dot, big_phi_dot


def floquet_scalar_derivs(spec: DriveSpec, params: OscillatorParams, t: float) -> tuple[float, float, float]:
    """(F1', F2', Phi') at time t, exact."""
    return tuple(float(v) for v in _sf_scalars(spec, params, float(t))[1:])

