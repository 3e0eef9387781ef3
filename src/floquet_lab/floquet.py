"""Floquet decomposition of the driven oscillator and its spectral
diagnostics.

For a non-resonant period (T not an integer multiple of 2 pi/omega) the
propagator factors as

    U(t, 0) = U_F(t) exp(-i t H_F),   U_F(0) = 1,   U_F(t + T) = U_F(t),

with the quasi-energy operator assembled from the monodromy scalars
(mu, nu, sigma evaluated over one period, T = 2 pi N/omega + Delta):

    H_F = H_omega - (mu/(omega Delta)) p - (nu/Delta) x
          - sigma/T + pi N (mu^2 + nu^2)/(omega^3 Delta^2 T),

and the periodic factor in product form

    U_F(t) = e^{i Phi(t)} e^{i F2(t) x} e^{i (F1(t)/omega) p}.

The co-rotating generator S_F(t) = i U_F(t)^{-1} dU_F/dt is linear in x
and p,

    S_F = -(F1'/omega) p - F2' x + (F1 F2'/omega - Phi'),

so H(t) = U_F(t) (H_F + S_F(t)) U_F(t)^{-1} and in particular
H(0) = H_F + S_F(0).

Resonant periods split further by the drive's Fourier coefficient at the
oscillator frequency: with T = 2 pi N/omega, the monodromy is a multiple
of the identity when f_N = f_{-N} = 0 and has purely absolutely
continuous spectrum otherwise.

All norm-based bound checks quote the kept-block operator norm of S_F,
which is unbounded on the full space; reports carry that caveat.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .core_fock import (
    OscillatorParams,
    TruncatedOperator,
    Truncation,
    matrix_exp,
    number_basis_energies,
    xp_operators,
)
from .drive_model import (
    DriveSpec,
    _monodromy_scalars,
    _sf_scalars,
    eval_drive,
    floquet_scalars,
    fourier_coefficient,
    is_resonant_period,
)
from .errors import DomainError, InvalidIntervalError, NumericError, UnsupportedDriveError
from .oracle import evolve_state, hamiltonian_at
from .propagator import propagator_factored

__all__ = [
    "Classification",
    "classify_monodromy",
    "build_HF",
    "build_UF",
    "build_SF",
    "FloquetData",
    "floquet_data",
    "StabilityReport",
    "stability_scan",
    "energy_bound_constant",
    "spectral_projector",
    "TransitionBoundReport",
    "transition_bound_check",
    "solve_sylvester_separated",
]

_BLOCK_NOTE = (
    "S_F is linear in x and p, hence unbounded; norms quoted here are "
    "kept-block truncations and the bound checks are finite-dimensional "
    "surrogates."
)

_IDENTITY_COEFF_TOL = 1e-12

# S_F matrices per batched norm call in _sup_sf_norm; bounds the stack's memory
# (2.4 MB at n_keep 48).
_SF_NORM_BATCH = 64


class Classification(str, Enum):
    """Spectral type of the monodromy operator U(T, 0)."""

    NON_RESONANT = "NonResonant"
    RESONANT_IDENTITY_MULTIPLE = "ResonantIdentityMultiple"
    RESONANT_ABSOLUTELY_CONTINUOUS = "ResonantAbsolutelyContinuous"


def _check_periods(spec: DriveSpec, params: OscillatorParams):
    if abs(spec.period - params.period_T) > 1e-12 * params.period_T:
        raise ValueError(
            f"drive period {spec.period} and oscillator params period "
            f"{params.period_T} disagree"
        )


def classify_monodromy(spec: DriveSpec, params: OscillatorParams) -> Classification:
    """Trichotomy for U(T, 0): pure point with gaps, identity multiple,
    or purely absolutely continuous."""
    _check_periods(spec, params)
    if not is_resonant_period(params):
        return Classification.NON_RESONANT
    n = round(params.period_T / params.oscillator_period)
    if n < 1:
        return Classification.NON_RESONANT
    weight = abs(fourier_coefficient(spec, n)) + abs(fourier_coefficient(spec, -n))
    if weight <= _IDENTITY_COEFF_TOL:
        return Classification.RESONANT_IDENTITY_MULTIPLE
    return Classification.RESONANT_ABSOLUTELY_CONTINUOUS


def _hf_matrix(spec: DriveSpec, params: OscillatorParams, dim: int) -> np.ndarray:
    mns = _monodromy_scalars(spec, params)
    omega, big_t = params.omega, params.period_T
    n_whole, delta = mns.whole_periods, mns.delta
    try:
        shift = -mns.sigma / big_t + (
            math.pi * n_whole * (mns.mu**2 + mns.nu**2) / (omega**3 * delta**2 * big_t)
        )
    except OverflowError:  # float ** raises where float * would give inf
        shift = math.inf
    if not all(math.isfinite(c) for c in (mns.mu, mns.nu, shift)):
        raise NumericError(
            f"H_F is not finite: mu = {mns.mu}, nu = {mns.nu}, shift = {shift}"
        )
    x, p = xp_operators(omega, dim)
    out = np.diag(number_basis_energies(omega, dim)).astype(complex)
    out -= (mns.mu / (omega * delta)) * p
    out -= (mns.nu / delta) * x
    out += shift * np.eye(dim)
    return out


def build_HF(spec: DriveSpec, params: OscillatorParams, trunc: Truncation) -> TruncatedOperator:
    """Quasi-energy operator on the kept block.

    The matrix elements do not depend on the working dimension, so no
    padding is involved; only exponentials of H_F need padded arithmetic.
    """
    _check_periods(spec, params)
    return TruncatedOperator.hermitian_op(_hf_matrix(spec, params, trunc.n_keep))


def _uf_matrix(spec: DriveSpec, params: OscillatorParams, t: float, dim: int) -> np.ndarray:
    fs = floquet_scalars(spec, params, t)
    x, p = xp_operators(params.omega, dim)
    u = matrix_exp(1j * fs.f2 * x) @ matrix_exp(1j * (fs.f1 / params.omega) * p)
    return np.exp(1j * fs.big_phi) * u


def build_UF(spec: DriveSpec, params: OscillatorParams, trunc: Truncation, t: float) -> TruncatedOperator:
    """Periodic factor U_F(t), built at the padded dimension and trimmed."""
    _check_periods(spec, params)
    full = _uf_matrix(spec, params, float(t), trunc.dim)
    return TruncatedOperator(full[: trunc.n_keep, : trunc.n_keep].copy())


def _sf_matrices(spec: DriveSpec, params: OscillatorParams, ts, dim: int) -> Iterator[np.ndarray]:
    """S_F at each time in ts, in order, sharing one x and p."""
    if not spec.is_fourier:
        raise UnsupportedDriveError(
            "S_F needs exact scalar derivatives, available only for Fourier drives"
        )
    omega = params.omega
    x, p = xp_operators(omega, dim)
    eye = np.eye(dim)
    for t in ts:
        f1, d1, d2, dphi = _sf_scalars(spec, params, t)
        out = -(d1 / omega) * p - d2 * x
        out += (f1 * d2 / omega - dphi) * eye
        yield out


def _sf_matrix(spec: DriveSpec, params: OscillatorParams, t: float, dim: int) -> np.ndarray:
    return next(_sf_matrices(spec, params, (t,), dim))


def build_SF(spec: DriveSpec, params: OscillatorParams, trunc: Truncation, t: float) -> TruncatedOperator:
    """Co-rotating generator S_F(t) = i U_F^{-1} dU_F/dt on the kept block."""
    _check_periods(spec, params)
    return TruncatedOperator.hermitian_op(_sf_matrix(spec, params, float(t), trunc.n_keep))


@dataclass(frozen=True)
class FloquetData:
    """Assembled Floquet decomposition for one drive configuration.

    The callables return kept-block TruncatedOperators; the scalars behind
    them are floquet_scalars and floquet_scalar_derivs. Construct via
    floquet_data().
    """

    h_f: TruncatedOperator
    u_f_at: Callable[[float], TruncatedOperator]
    s_f_at: Callable[[float], TruncatedOperator]
    classification: Classification


def floquet_data(spec: DriveSpec, params: OscillatorParams, trunc: Truncation) -> FloquetData:
    """Bundle H_F, U_F and S_F for one drive.

    Raises a resonance error for resonant periods; use classify_monodromy
    alone in that regime.
    """
    classification = classify_monodromy(spec, params)
    return FloquetData(
        h_f=build_HF(spec, params, trunc),
        u_f_at=lambda t: build_UF(spec, params, trunc, t),
        s_f_at=lambda t: build_SF(spec, params, trunc, t),
        classification=classification,
    )


# ---------------------------------------------------------------------------
# energy bound and stability scan


def energy_bound_constant(
    spec: DriveSpec,
    params: OscillatorParams,
    trunc: Truncation,
    psi0: np.ndarray,
    sup_samples: int = 9,
) -> float:
    """C_psi = ||H_F psi|| + sup_t ||S_F(t)(H_F + i)^{-1}|| ||(H_F + i) psi||.

    Evaluated on the kept/2 block; the sup runs over sup_samples points of
    one period. Finite for every normalized psi supported there.
    """
    if sup_samples < 1:
        raise ValueError(f"sup_samples must be >= 1, got {sup_samples}")
    m = trunc.n_keep // 2
    psi = np.zeros(m, dtype=complex)
    src = np.asarray(psi0, dtype=complex).ravel()
    take = min(m, src.size)
    psi[:take] = src[:take]
    hf = _hf_matrix(spec, params, m)
    shifted = hf + 1j * np.eye(m)
    inv_shifted = np.linalg.inv(shifted)
    taus = [j * params.period_T / max(1, sup_samples - 1) for j in range(sup_samples)]
    sup = 0.0
    for s_blk in _sf_matrices(spec, params, taus, m):
        sup = max(sup, float(np.linalg.norm(s_blk @ inv_shifted, 2)))
    return float(np.linalg.norm(hf @ psi) + sup * np.linalg.norm(shifted @ psi))


@dataclass
class StabilityReport:
    """Energy diagnostics along an evolved trajectory.

    verdict is "bounded" or "growing"; fit_exponent is the least-squares
    slope of log mean energy against log t over the last half of the
    grid. paper_bound is None for resonant drives, where the uniform
    bound does not apply.
    """

    t_grid: np.ndarray
    energy_norms: np.ndarray
    mean_energy: np.ndarray
    high_mode_population: np.ndarray
    sup_bound: float
    paper_bound: float | None
    fit_exponent: float
    verdict: str
    classification: Classification
    leak_warning: bool
    block_note: str = field(default=_BLOCK_NOTE)

    def to_json_dict(self) -> dict:
        return {
            "classification": self.classification.value,
            "verdict": self.verdict,
            "fit_exponent": float(self.fit_exponent),
            "sup_bound": float(self.sup_bound),
            "paper_bound": None if self.paper_bound is None else float(self.paper_bound),
            "leak_warning": self.leak_warning,
            "block_note": self.block_note,
            "t_grid": self.t_grid.tolist(),
            "energy_norms": self.energy_norms.tolist(),
            "mean_energy": self.mean_energy.tolist(),
            "high_mode_population": self.high_mode_population.tolist(),
        }

    def to_csv_text(self) -> str:
        lines = ["t,energy_norm,mean_energy,high_mode_population"]
        for i in range(self.t_grid.size):
            lines.append(
                f"{float(self.t_grid[i])!r},{float(self.energy_norms[i])!r},"
                f"{float(self.mean_energy[i])!r},{float(self.high_mode_population[i])!r}"
            )
        return "\n".join(lines) + "\n"


def _fit_exponent(t: np.ndarray, values: np.ndarray) -> float:
    """Least-squares slope of log(max(value, 1e-14)) vs log t, last half."""
    half = t.size // 2
    tt = t[half:]
    vv = values[half:]
    keep = tt > 0
    if keep.sum() < 2:
        return 0.0
    slope = np.polyfit(np.log(tt[keep]), np.log(np.maximum(vv[keep], 1e-14)), 1)[0]
    return float(slope)


def stability_scan(
    spec: DriveSpec,
    params: OscillatorParams,
    trunc: Truncation,
    psi0: np.ndarray,
    n_periods: int,
    samples_per_period: int = 8,
    steps_per_period: int = 128,
    scheme: str = "cf4",
) -> StabilityReport:
    """Evolve psi0 and track ||H(t) psi_t|| and <H(t)> over n_periods.

    The energies come from one drive evaluation on the whole time grid and
    one product with the evolved states, H(t) psi = E psi + f(t) x psi;
    no H(t) is formed.  Non-resonant drives additionally get the uniform
    bound C_psi and the verdict compares sup ||H psi|| against it; resonant
    drives are judged by the fitted growth exponent alone.
    """
    _check_periods(spec, params)
    if n_periods < 1 or samples_per_period < 1:
        raise ValueError("n_periods and samples_per_period must be >= 1")
    classification = classify_monodromy(spec, params)
    big_t = params.period_T
    count = n_periods * samples_per_period + 1
    t_grid = np.linspace(0.0, n_periods * big_t, count)

    evolved = evolve_state(spec, params, trunc, psi0, t_grid, steps_per_period, scheme)

    states = evolved.states
    x, _ = xp_operators(params.omega, trunc.dim)
    f = eval_drive(spec, t_grid)
    h_states = number_basis_energies(params.omega, trunc.dim) * states + f[:, None] * (states @ x.T)
    energy_norms = np.linalg.norm(h_states, axis=1)
    mean_energy = np.real(np.sum(states.conj() * h_states, axis=1))

    sup_bound = float(energy_norms.max())
    exponent = _fit_exponent(t_grid, mean_energy)

    if classification is Classification.NON_RESONANT:
        paper_bound = energy_bound_constant(spec, params, trunc, psi0, samples_per_period + 1)
        bounded = sup_bound <= paper_bound * (1.0 + 1e-6)
        verdict = "bounded" if bounded else ("growing" if exponent > 0.5 else "bounded")
    else:
        paper_bound = None
        verdict = "growing" if exponent > 0.5 else "bounded"

    leak = bool(evolved.edge_warning or evolved.pad_population.max() > 1e-6)
    return StabilityReport(
        t_grid=t_grid,
        energy_norms=energy_norms,
        mean_energy=mean_energy,
        high_mode_population=evolved.pad_population,
        sup_bound=sup_bound,
        paper_bound=paper_bound,
        fit_exponent=exponent,
        verdict=verdict,
        classification=classification,
        leak_warning=leak,
    )


# ---------------------------------------------------------------------------
# spectral projectors and the transition-probability bound


def spectral_projector(op, interval: tuple[float, float]) -> np.ndarray:
    """Projector onto eigenvalues of a Hermitian matrix in a closed interval.

    Endpoint ties are included, which keeps the construction deterministic
    under eigenvalue reordering.
    """
    mat = op.entries if isinstance(op, TruncatedOperator) else np.asarray(op)
    lo, hi = float(interval[0]), float(interval[1])
    if not lo <= hi:
        raise InvalidIntervalError(f"empty interval [{lo}, {hi}]")
    vals, vecs = np.linalg.eigh(mat)
    mask = (vals >= lo) & (vals <= hi)
    v = vecs[:, mask]
    return v @ v.conj().T


def _interval_dist(i1: tuple[float, float], i2: tuple[float, float]) -> float:
    (a0, a1), (b0, b1) = i1, i2
    if a1 < b0:
        return b0 - a1
    if b1 < a0:
        return a0 - b1
    return 0.0


@dataclass
class TransitionBoundReport:
    """Check of ||P(t, D1) U(t,s) P(s, D2)|| <= 2 ||S_F|| / dist(D1, D2).

    pair_* arrays carry the eigenvalue-resolved form of the bound for
    every (E_n(t) in D1, E_m(s) in D2) pair; norms are kept-block."""

    t: float
    s: float
    interval_1: tuple[float, float]
    interval_2: tuple[float, float]
    dist: float
    lhs: float
    sup_sf_norm: float
    rhs: float
    ok: bool
    pair_energies_t: np.ndarray
    pair_energies_s: np.ndarray
    pair_lhs: np.ndarray
    pair_rhs: np.ndarray
    pair_ok: bool
    block_note: str = field(default=_BLOCK_NOTE)

    def to_json_dict(self) -> dict:
        return {
            "t": float(self.t),
            "s": float(self.s),
            "interval_1": [float(v) for v in self.interval_1],
            "interval_2": [float(v) for v in self.interval_2],
            "dist": float(self.dist),
            "lhs": float(self.lhs),
            "sup_sf_norm": float(self.sup_sf_norm),
            "rhs": float(self.rhs),
            "ok": self.ok,
            "pair_ok": self.pair_ok,
            "pairs": [
                {
                    "energy_t": float(self.pair_energies_t[i]),
                    "energy_s": float(self.pair_energies_s[i]),
                    "lhs": float(self.pair_lhs[i]),
                    "rhs": float(self.pair_rhs[i]),
                }
                for i in range(self.pair_lhs.size)
            ],
            "block_note": self.block_note,
        }


def _sup_sf_norm(spec: DriveSpec, params: OscillatorParams, trunc: Truncation, samples: int = 64) -> float:
    """max ||S_F(tau)|| over samples uniform points of one period, kept block."""
    taus = [j * params.period_T / samples for j in range(samples)]
    n = trunc.n_keep
    stack = np.empty((min(samples, _SF_NORM_BATCH), n, n), dtype=complex)
    sup = 0.0
    for lo in range(0, samples, _SF_NORM_BATCH):
        batch = taus[lo : lo + _SF_NORM_BATCH]
        for i, s_f in enumerate(_sf_matrices(spec, params, batch, n)):
            stack[i] = s_f
        sup = max(sup, *np.linalg.norm(stack[: len(batch)], 2, axis=(-2, -1)).tolist())
    return sup


class _Window(NamedTuple):
    interval_1: tuple[float, float]
    interval_2: tuple[float, float]
    dist: float
    vals_t: np.ndarray
    vals_s: np.ndarray
    idx_t: np.ndarray  # indices of the eigenvalues of H(t) in D1
    idx_s: np.ndarray  # indices of the eigenvalues of H(s) in D2
    core: np.ndarray  # <n(t)| U(t, s) |m(s)>
    lhs: float  # ||P(t, D1) U(t, s) P(s, D2)||


def _transition_window(
    spec: DriveSpec,
    params: OscillatorParams,
    trunc: Truncation,
    t: float,
    s: float,
    interval_1: tuple[float, float],
    interval_2: tuple[float, float],
) -> _Window:
    """The left-hand side shared by the transition-bound checks.

    Checks that the intervals are ordered and apart, diagonalizes H(t)
    and H(s) on the kept block, picks the eigenvalues in each closed
    interval (endpoint ties included) and takes the projected norm of U.
    """
    lo1, hi1 = float(interval_1[0]), float(interval_1[1])
    lo2, hi2 = float(interval_2[0]), float(interval_2[1])
    if not (lo1 <= hi1 and lo2 <= hi2):
        raise InvalidIntervalError("intervals must satisfy lo <= hi")
    dist = _interval_dist((lo1, hi1), (lo2, hi2))
    if dist <= 0.0:
        raise InvalidIntervalError(
            f"intervals [{lo1}, {hi1}] and [{lo2}, {hi2}] overlap or touch"
        )

    n = trunc.n_keep
    vals_t, vecs_t = np.linalg.eigh(hamiltonian_at(spec, params, float(t), n))
    vals_s, vecs_s = np.linalg.eigh(hamiltonian_at(spec, params, float(s), n))
    idx_t = np.nonzero((vals_t >= lo1) & (vals_t <= hi1))[0]
    idx_s = np.nonzero((vals_s >= lo2) & (vals_s <= hi2))[0]

    u = propagator_factored(spec, params, trunc, float(t), float(s)).entries
    core = vecs_t.conj().T @ u @ vecs_s
    block = core[np.ix_(idx_t, idx_s)]
    lhs = float(np.linalg.norm(block, 2)) if block.size else 0.0
    return _Window((lo1, hi1), (lo2, hi2), dist, vals_t, vals_s, idx_t, idx_s, core, lhs)


def transition_bound_check(
    spec: DriveSpec,
    params: OscillatorParams,
    trunc: Truncation,
    t: float,
    s: float,
    interval_1: tuple[float, float],
    interval_2: tuple[float, float],
    sf_samples: int = 64,
) -> TransitionBoundReport:
    """Evaluate the spectral-projector transition bound between two times.

    Diagonalizes H(t) and H(s) on the kept block, builds the interval
    projectors (closed intervals, endpoint ties included) and compares
    ||P1 U P2|| against 2 sup_tau ||S_F(tau)|| / dist.
    """
    _check_periods(spec, params)
    if sf_samples < 1:
        raise ValueError(f"sf_samples must be >= 1, got {sf_samples}")
    win = _transition_window(spec, params, trunc, t, s, interval_1, interval_2)
    vals_t, vals_s, core = win.vals_t, win.vals_s, win.core

    sup_sf = _sup_sf_norm(spec, params, trunc, sf_samples)
    rhs = 2.0 * sup_sf / win.dist
    ok = win.lhs <= rhs * (1.0 + 1e-6)

    # eigenvalue-resolved form; the spectrum here is simple, so each
    # projector is rank one and the pair norm is a single amplitude
    pe_t, pe_s, p_lhs, p_rhs = [], [], [], []
    pair_ok = True
    for a in win.idx_t:
        for b in win.idx_s:
            gap = abs(vals_t[a] - vals_s[b])
            if gap == 0.0:
                continue
            lhs_ab = abs(core[a, b])
            rhs_ab = 2.0 * sup_sf / gap
            pe_t.append(vals_t[a])
            pe_s.append(vals_s[b])
            p_lhs.append(lhs_ab)
            p_rhs.append(rhs_ab)
            if lhs_ab > rhs_ab * (1.0 + 1e-6):
                pair_ok = False

    return TransitionBoundReport(
        t=float(t),
        s=float(s),
        interval_1=win.interval_1,
        interval_2=win.interval_2,
        dist=win.dist,
        lhs=win.lhs,
        sup_sf_norm=sup_sf,
        rhs=rhs,
        ok=ok,
        pair_energies_t=np.array(pe_t),
        pair_energies_s=np.array(pe_s),
        pair_lhs=np.array(p_lhs),
        pair_rhs=np.array(p_rhs),
        pair_ok=pair_ok,
    )


def solve_sylvester_separated(a: np.ndarray, b: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Solve AX - XB = Y for Hermitian A, B with separated spectra.

    Evaluates the resolvent contour representation

        X = (1/(2 pi i)) \\oint (A - z)^{-1} Y (B - z)^{-1} dz

    by residues in the eigenbases of A and B, where it reduces to
    X_ab = Y_ab / (alpha_a - beta_b). The solution obeys
    ||X|| <= ||Y|| / dist(Spec A, Spec B).
    """
    a = np.asarray(a)
    b = np.asarray(b)
    y = np.asarray(y)
    vals_a, vecs_a = np.linalg.eigh(a)
    vals_b, vecs_b = np.linalg.eigh(b)
    gaps = vals_a[:, None] - vals_b[None, :]
    min_gap = float(np.abs(gaps).min())
    if min_gap == 0.0:
        raise DomainError("spectra of A and B intersect; no bounded solution")
    core = (vecs_a.conj().T @ y @ vecs_b) / gaps
    return vecs_a @ core @ vecs_b.conj().T
