"""Closed-form propagators for the linearly driven oscillator.

Two equivalent exact forms are provided.  The factored form

    U(t,s) = exp(-i phi1 x) exp(i (phi2/omega) p) exp(-i (t-s) H_omega - i psi)

holds for every (t, s).  For elapsed times split as
t - s = (2 pi/omega) N + Delta with Delta in (0, 2 pi/omega) the same
propagator collapses to a single displaced-oscillator exponential

    U(t,s) = (-1)^N exp(-i Delta H_omega + i (mu/omega) p + i nu x + i sigma),

using exp(-i (2 pi/omega) N H_omega) = (-1)^N, valid off resonance only.

The factored form is a displacement times free evolution, built on the
kept block from exact Fock entries (core_fock._displacement); its
displacement composes with others by the Weyl group laws of core_fock.  The single
exponential diagonalizes its own generator numerically, through
matrix_exp: the generator's two bands carry one phase arg z, which a
diagonal unitary moves off it, so the eigensolve is matrix_exp's real
symmetric one and the phases go back on the kept block.  It shares no
formula with the displacement and no eigensolver with the oracle, so
comparing the two forms compares two independent computations.
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
    DriveSpec,
    MuNuSigma,
    _chi,
    mu_nu_sigma,
    psi,
)
from .errors import NumericError

__all__ = [
    "propagator_factored",
    "propagator_single_exp",
]


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


def _single_exp_matrix(params: OscillatorParams, mns: MuNuSigma, trunc: Truncation) -> np.ndarray:
    """The kept block of (-1)^N exp(-i H), H = Delta H_omega - nu x - (mu/omega) p
    - sigma, exponentiated at the working dimension.  H's upper band is
    z x[n, n+1] with z = -nu + i mu, so H = D R D^dag with D = diag(e^{-i n arg z})
    and R = Delta H_omega + |z| x - sigma real symmetric: matrix_exp takes R
    through the real eigh, and the kept block gets D's phases back."""
    r = math.hypot(mns.nu, mns.mu)
    if not math.isfinite(r):
        raise NumericError(f"single-exponential exponent is not finite (mu = {mns.mu!r}, nu = {mns.nu!r})")
    gen = _oscillator_op(params.omega, trunc.dim, h=-1j * mns.delta, x=-1j * r, one=1j * mns.sigma)
    n = trunc.n_keep
    rot = np.exp(1j * math.atan2(mns.mu, -mns.nu) * np.arange(n)) if r > 0.0 else np.ones(n)
    sign = -1.0 if mns.whole_periods % 2 else 1.0
    return (sign * rot.conj())[:, None] * matrix_exp(gen)[:n, :n] * rot


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
    return TruncatedOperator(_single_exp_matrix(params, mu_nu_sigma(spec, params, t, s), trunc))

