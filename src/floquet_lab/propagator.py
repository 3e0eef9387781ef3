"""Closed-form propagators for the linearly driven oscillator.

Two equivalent exact forms are provided.  The factored form

    U(t,s) = exp(-i phi1 x) exp(i (phi2/omega) p) exp(-i (t-s) H_omega - i psi)

holds for every (t, s).  For elapsed times split as
t - s = (2 pi/omega) N + Delta with Delta in (0, 2 pi/omega) the same
propagator collapses to a single displaced-oscillator exponential

    U(t,s) = (-1)^N exp(-i Delta H_omega + i (mu/omega) p + i nu x + i sigma),

using exp(-i (2 pi/omega) N H_omega) = (-1)^N, valid off resonance only.

The factored form is a displacement times free evolution, built on the
kept block from exact Fock entries (core_fock._displacement); the single
exponential goes through matrix_exp's dense eigensolve on purpose, so
comparing the two forms compares two independent computations.

The scalar conversions between the two forms are the Weyl-algebra splitting
identities: split_forward maps the exponent data (mu, nu, t) of a combined
exponential to the data (xi, eta, phase) of its ordered product form, and
split_inverse undoes it for |t| < 2 pi/omega.  Both are implemented with
series branches where naive evaluation would cancel.
"""

from __future__ import annotations

import math

import numpy as np

from .core_fock import (
    OscillatorParams,
    TruncatedOperator,
    Truncation,
    _displaced_states,
    _displacement,
    _oscillator_op,
    matrix_exp,
    number_basis_energies,
)
from .drive_model import (
    _SERIES_CUT,
    DriveSpec,
    MuNuSigma,
    _chi,
    _lambda_factor,
    _p123,
    mu_nu_sigma,
    psi,
)
from .errors import DomainError

__all__ = [
    "split_forward",
    "split_inverse",
    "propagator_factored",
    "propagator_single_exp",
]


def _sinc_half(u: float) -> float:
    """2 sin(u/2) / u, exact at u = 0."""
    return float(np.sinc(u / (2.0 * np.pi)))


def split_forward(mu: float, nu: float, t: float, omega: float) -> tuple[float, float, float]:
    """Order the combined exponential into p- and x-factors.

    exp(-i t H + i (mu/w) p + i nu x)
        = e^{-i phase} exp(i (xi/w) p) exp(i eta x) exp(-i t H)

    Returns (xi, eta, phase).  As t -> 0 the limits are xi -> mu,
    eta -> nu, phase -> mu nu / (2 omega), the last being the plain Weyl
    reordering phase of exp(i (mu/w) p + i nu x).
    """
    u = omega * t
    g = _sinc_half(u)
    ch = math.cos(0.5 * u)
    sh = math.sin(0.5 * u)
    xi = g * (ch * mu - sh * nu)
    eta = g * (sh * mu + ch * nu)
    if abs(u) < _SERIES_CUT:
        # phase = -(c1 mu^2 + c2 mu nu + c3 nu^2)/(4 w) with the u^2 removed
        c1 = -(2.0 / 3.0) * u + (7.0 / 30.0) * u**3 - (31.0 / 1260.0) * u**5
        c2 = -2.0 + (7.0 / 6.0) * u**2 - (31.0 / 180.0) * u**4
        c3 = (4.0 / 3.0) * u - (4.0 / 15.0) * u**3 + (8.0 / 315.0) * u**5
        phase = -(c1 * mu * mu + c2 * mu * nu + c3 * nu * nu) / (4.0 * omega)
    else:
        p1, p2, p3 = _p123(u)
        phase = -(p1 * mu * mu + p2 * mu * nu + p3 * nu * nu) / (4.0 * omega * u * u)
    return xi, eta, phase


def _half_cot_half(u: float) -> float:
    """(u/2) cot(u/2), series near 0, defined on |u| < 2 pi."""
    if abs(u) < _SERIES_CUT:
        return 1.0 - u * u / 12.0 - u**4 / 720.0
    return 0.5 * u * math.cos(0.5 * u) / math.sin(0.5 * u)


def split_inverse(xi: float, eta: float, t: float, omega: float) -> tuple[float, float, float]:
    """Merge ordered factors back into one exponential, |t| < 2 pi/omega.

    exp(i (xi/w) p) exp(i eta x) exp(-i t H)
        = e^{i phase} exp(-i t H + i (mu/w) p + i nu x)

    Returns (mu, nu, phase); round-trips split_forward exactly, including
    the phase.  Outside |t| < 2 pi/omega the merge is not defined (the
    half-angle cotangent crosses its pole) and a DomainError is raised.
    """
    u = omega * t
    if abs(u) >= 2.0 * math.pi:
        raise DomainError(f"split_inverse needs |omega t| < 2 pi, got {u}")
    hc = _half_cot_half(u)
    mu = hc * xi + 0.5 * u * eta
    nu = -0.5 * u * xi + hc * eta
    phase = xi * eta / (2.0 * omega) - _lambda_factor(u) / omega * (xi * xi + eta * eta)
    return mu, nu, phase


def _factored_matrix(spec: DriveSpec, params: OscillatorParams, ts, s: float, n: int, psi_ts) -> np.ndarray:
    """The n x n block of the factored U(t, s) from exact entries, for a
    time t or a 1-d array of them (a stack, one block per t), from one chi.
    Its global phase e^{-i psi(t, s)} is taken as e^{-i psi_ts}, a number
    or one per t; a caller that only takes norms may pass 0."""
    chi = _chi(spec, params.omega, ts, s)
    tau, psi_ts = np.asarray(ts)[..., None] - s, np.asarray(psi_ts)[..., None]
    diag = np.exp(-1j * tau * number_basis_energies(params.omega, n) - 1j * psi_ts)
    return _displacement(params.omega, -chi.real, chi.imag, n, n) * diag[..., None, :]


def _factored_states(params: OscillatorParams, chi: np.ndarray, psi0: np.ndarray, t_grid, rows: int) -> np.ndarray:
    """U(t, 0) psi0 less its global phase e^{-i psi(t, 0)} on levels
    0..rows - 1, one row per time of t_grid, chi = chi(t, 0) there, from the
    columns of the displacement where psi0 is nonzero (for the ground state,
    the coherent amplitudes), many times at once in parts of bounded memory."""
    cols = psi0 * np.exp(-1j * np.multiply.outer(t_grid, number_basis_energies(params.omega, psi0.size)))
    # a part's table holds about max(rows, K) (3 min(rows, K) + 6) numbers per time, psi0 on K levels
    per_time = max(rows, psi0.size) * (3 * min(rows, psi0.size) + 6)
    parts = np.array_split(np.arange(chi.size), min(chi.size, -(-chi.size * per_time // 2**18)))
    return np.concatenate([_displaced_states(params.omega, -chi.real[p], chi.imag[p], cols[p], rows) for p in parts])


def _single_exp_matrix(params: OscillatorParams, mns: MuNuSigma, dim: int) -> np.ndarray:
    gen = _oscillator_op(
        params.omega, dim, h=-1j * mns.delta, x=1j * mns.nu, p=1j * (mns.mu / params.omega), one=1j * mns.sigma
    )
    sign = -1.0 if mns.whole_periods % 2 else 1.0
    return sign * matrix_exp(gen)


def propagator_factored(
    spec: DriveSpec, params: OscillatorParams, trunc: Truncation, t: float, s: float
) -> TruncatedOperator:
    """U(t,s) in the factored form on the kept block, from exact entries."""
    psi_ts = psi(spec, params, t, s)
    return TruncatedOperator(_factored_matrix(spec, params, float(t), float(s), trunc.n_keep, psi_ts))


def propagator_single_exp(
    spec: DriveSpec, params: OscillatorParams, trunc: Truncation, t: float, s: float
) -> TruncatedOperator:
    """U(t,s) as a single displaced exponential; resonant elapsed times are
    rejected upstream with ResonantTimeError."""
    full = _single_exp_matrix(params, mu_nu_sigma(spec, params, t, s), trunc.dim)
    return TruncatedOperator(full[: trunc.n_keep, : trunc.n_keep].copy())

