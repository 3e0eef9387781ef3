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
Sampled drives are supported as a fallback via periodic spline interpolation
and adaptive quadrature; they cannot provide the smooth Floquet scalars and
are rejected where derivatives are required.

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
from scipy.integrate import quad

from .core_fock import OscillatorParams
from .errors import (
    DomainError,
    IntegrationError,
    ResonanceError,
    ResonantTimeError,
    UnsupportedDriveError,
)

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
    "fourier_coefficient",
    "is_resonant_period",
    "split_elapsed",
]

# Resonance guard, relative to the oscillator period 2 pi / omega.
RESONANCE_REL_TOL = 1e-9

# Below this |omega t| the removable-singularity factors switch to series.
_SERIES_CUT = 1e-4

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)


@dataclass(frozen=True)
class DriveSpec:
    """A real T-periodic drive, canonically a finite Fourier series.

    fourier holds (k, f_k) pairs sorted by k with f_{-k} = conj(f_k), so
    f(t) = sum_k f_k exp(2 pi i k t / T) is real.  samples, when present,
    define the drive instead: (t_i, f_i) nodes on [0, T] interpolated by a
    periodic spline of the stated order.
    """

    period: float
    fourier: tuple = ()
    samples: tuple | None = None
    sample_order: int = 3

    def __post_init__(self):
        if not (self.period > 0.0 and np.isfinite(self.period)):
            raise ValueError(f"period must be positive and finite, got {self.period}")
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
        if self.samples is not None:
            ts = np.asarray(self.samples[0], dtype=float)
            fs = np.asarray(self.samples[1], dtype=float)
            if ts.ndim != 1 or ts.shape != fs.shape or ts.size < 4:
                raise ValueError("samples need matching 1-d arrays with at least 4 nodes")
            if not np.all(np.diff(ts) > 0):
                raise ValueError("sample times must be strictly increasing")
            if ts[0] < 0 or ts[-1] > self.period:
                raise ValueError("sample times must lie in [0, period]")
            object.__setattr__(self, "samples", (tuple(ts.tolist()), tuple(fs.tolist())))

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
    def from_samples(cls, period: float, ts, fs, order: int = 3) -> "DriveSpec":
        return cls(period=period, samples=(tuple(ts), tuple(fs)), sample_order=order)

    # -- properties

    @property
    def is_fourier(self) -> bool:
        return self.samples is None

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

    def _interpolator(self):
        from scipy.interpolate import CubicSpline, make_interp_spline

        ts = np.asarray(self.samples[0])
        fs = np.asarray(self.samples[1])
        # close the period so the spline wraps smoothly
        if ts[0] > 0.0 or ts[-1] < self.period:
            tgrid = np.concatenate(([ts[-1] - self.period], ts, [ts[0] + self.period]))
            fgrid = np.concatenate(([fs[-1]], fs, [fs[0]]))
        else:
            tgrid, fgrid = ts, fs
        if self.sample_order == 3 and abs(fgrid[0] - fgrid[-1]) < 1e-14:
            return CubicSpline(tgrid, fgrid, bc_type="periodic")
        return make_interp_spline(tgrid, fgrid, k=self.sample_order)

    # -- serialization (schema shared with the CLI)

    def to_json_dict(self) -> dict:
        out = {
            "period": float(self.period),
            "fourier": [
                {"k": int(k), "re": float(c.real), "im": float(c.imag)}
                for k, c in self.fourier
            ],
        }
        if self.samples is not None:
            out["samples"] = {
                "t": [float(t) for t in self.samples[0]],
                "f": [float(f) for f in self.samples[1]],
                "order": int(self.sample_order),
            }
        return out

    @classmethod
    def from_json_dict(cls, d: dict) -> "DriveSpec":
        coeffs = {int(e["k"]): complex(e["re"], e["im"]) for e in d.get("fourier", [])}
        samples = None
        order = 3
        if d.get("samples"):
            samples = (tuple(d["samples"]["t"]), tuple(d["samples"]["f"]))
            order = int(d["samples"].get("order", 3))
        return cls(
            period=float(d["period"]),
            fourier=tuple(coeffs.items()),
            samples=samples,
            sample_order=order,
        )

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
    if spec.is_fourier:
        acc = np.zeros(tarr.shape, dtype=complex)
        w0 = spec.base_frequency
        for k, c in spec.fourier:
            acc += c * np.exp(1j * (w0 * k) * tarr)
        resid = np.abs(acc.imag).max() if acc.size else 0.0
        scale = max(np.abs(acc).max() if acc.size else 0.0, 1.0)
        if resid > 1e-12 * scale:
            raise ValueError(f"drive evaluated to non-real values (residue {resid:.2e})")
        out = acc.real
    else:
        interp = spec._interpolator()
        out = np.asarray(interp(np.mod(tarr, spec.period)), dtype=float)
    return out if out.ndim else float(out)


def _chi_fourier(spec: DriveSpec, omega: float, t, s: float) -> np.ndarray:
    """chi(t,s) = phi1 + i phi2 = e^{i omega (t-s)} sum_k f_k e^{i Omega_k s} M0(Omega_k - omega, t-s)."""
    tarr = np.asarray(t, dtype=float)
    tau = tarr - s
    w0 = spec.base_frequency
    acc = np.zeros(tarr.shape, dtype=complex)
    for k, c in spec.fourier:
        a = w0 * k - omega
        acc += (c * np.exp(1j * w0 * k * s)) * _m0(a, tau)
    return np.exp(1j * omega * tau) * acc


def _chi(spec: DriveSpec, params: OscillatorParams, t, s: float) -> np.ndarray:
    if spec.is_fourier:
        return _chi_fourier(spec, params.omega, t, s)
    # sampled fallback: straight adaptive quadrature per point
    w = params.omega
    interp = spec._interpolator()

    def f_per(u):
        return interp(np.mod(u, spec.period))

    tarr = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.empty(tarr.shape, dtype=complex)
    for i, ti in enumerate(tarr):
        re, ere = quad(lambda u: np.cos(w * (ti - u)) * f_per(u), s, ti, limit=400)
        im, eim = quad(lambda u: np.sin(w * (ti - u)) * f_per(u), s, ti, limit=400)
        if max(ere, eim) > 1e-9:
            raise IntegrationError(f"phi12 quadrature error {max(ere, eim):.2e} too large")
        out[i] = re + 1j * im
    return out if np.ndim(t) else out[0]


def phi12(spec: DriveSpec, params: OscillatorParams, t: float, s: float) -> tuple[float, float]:
    """(phi1, phi2) at (t, s)."""
    c = _chi(spec, params, float(t), float(s))
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
    if spec.is_fourier:
        max_freq = 2.0 * (spec.max_frequency + params.omega)

        def integrand(v):
            c = _chi_fourier(spec, params.omega, v, s)
            return 0.5 * np.real(c * c)

        return _gauss_panels(integrand, s, t, max_freq)
    # sampled drives: nested adaptive quadrature
    def inner(v):
        c = _chi(spec, params, v, s)
        return 0.5 * float(np.real(c * c))

    val, err = quad(inner, s, t, limit=400)
    if err > 1e-10 * max(1.0, abs(val)):
        raise IntegrationError(f"psi quadrature error {err:.2e} too large")
    return float(val)


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

    # common mode sum: int_s^t e^{-i omega u} f(u) du shifted to the midpoint
    if spec.is_fourier:
        w0 = spec.base_frequency
        acc = 0.0 + 0.0j
        for k, c in spec.fourier:
            a = w0 * k - w
            acc += c * np.exp(1j * w0 * k * s) * complex(_m0(a, tau))
        full = np.exp(1j * half) * acc
        i_sin = float(np.imag(full))
        i_cos = float(np.real(full))
    else:
        interp = spec._interpolator()

        def f_per(u):
            return interp(np.mod(u, spec.period))

        mid = 0.5 * (t + s)
        i_sin, e1 = quad(lambda u: np.sin(w * (mid - u)) * f_per(u), s, t, limit=400)
        i_cos, e2 = quad(lambda u: np.cos(w * (mid - u)) * f_per(u), s, t, limit=400)
        if max(e1, e2) > 1e-9:
            raise IntegrationError("mu/nu quadrature error too large")

    pref = w * delta / (2.0 * sin_half)
    mu = pref * i_sin
    nu = -pref * i_cos

    p1, p2 = phi12(spec, params, t, s)
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


def _require_fourier(spec: DriveSpec, what: str):
    if not spec.is_fourier:
        raise UnsupportedDriveError(f"{what} requires a Fourier drive, got samples")


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


def _xi_eta(mns: MuNuSigma, w: float, u: float) -> tuple[float, float]:
    """xi and eta at phase u = omega t: the monodromy data rotated at omega."""
    sin_u = math.sin(u)
    cos_u = math.cos(u)
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
    xi, eta = _xi_eta(mns, w, u)
    q1, q2, q3 = _p123(u)
    phi = -(q1 * mu_t * mu_t + q2 * mu_t * nu_t + q3 * nu_t * nu_t) / (4.0 * w**3 * delta**2)

    p1, p2 = phi12(spec, params, t, 0.0)
    f1 = p2 - xi
    f2 = -p1 - eta
    rot = math.pi * n_t * (mu_t * mu_t + nu_t * nu_t) / (w**3 * delta**2 * big_t)
    big_phi = -psi(spec, params, t, 0.0) + phi - sigma_t * t / big_t + rot * t - p2 * eta / w
    return FloquetScalars(xi=xi, eta=eta, phi=phi, f1=f1, f2=f2, big_phi=big_phi)


def _sf_scalars(spec: DriveSpec, params: OscillatorParams, t: float) -> tuple[float, float, float, float]:
    """(F1, F1', F2', Phi') at time t: all that S_F(t) needs, from one
    phi12(t, 0) and no psi quadrature."""
    _require_fourier(spec, "floquet_scalar_derivs")
    t = float(t)
    w = params.omega
    big_t = params.period_T
    mns = _monodromy_scalars(spec, params)
    mu_t, nu_t, sigma_t, n_t, delta = mns.mu, mns.nu, mns.sigma, mns.whole_periods, mns.delta

    u = w * t
    sin_u = math.sin(u)
    cos_u = math.cos(u)
    xi, eta = _xi_eta(mns, w, u)
    xi_dot = (cos_u * mu_t - sin_u * nu_t) / delta
    eta_dot = (sin_u * mu_t + cos_u * nu_t) / delta
    # d/du of the three polynomials in phi
    q1d = 2.0 - 4.0 * cos_u + 2.0 * math.cos(2.0 * u)
    q2d = 4.0 * sin_u - 4.0 * math.sin(2.0 * u)
    q3d = 2.0 - 2.0 * math.cos(2.0 * u)
    phi_dot = -(q1d * mu_t * mu_t + q2d * mu_t * nu_t + q3d * nu_t * nu_t) / (4.0 * w**2 * delta**2)

    p1, p2 = phi12(spec, params, t, 0.0)
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
    """(F1', F2', Phi') at time t, exact for Fourier drives."""
    return _sf_scalars(spec, params, t)[1:]


def fourier_coefficient(spec: DriveSpec, k: int) -> complex:
    """f_k = (1/T) int_0^T exp(-2 pi i k t / T) f(t) dt, by quadrature."""
    w0 = spec.base_frequency
    maxf = (spec.max_frequency if spec.is_fourier else 8.0 * w0) + abs(k) * w0

    def integrand(ts):
        vals = eval_drive(spec, ts)
        return np.asarray(vals) * np.exp(-1j * w0 * k * np.asarray(ts))

    re = _gauss_panels(lambda ts: np.real(integrand(ts)), 0.0, spec.period, maxf)
    im = _gauss_panels(lambda ts: np.imag(integrand(ts)), 0.0, spec.period, maxf)
    return complex(re, im) / spec.period
