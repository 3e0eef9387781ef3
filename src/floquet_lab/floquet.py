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

The co-rotating generator S_F(t) = i U_F(t)^{-1} dU_F/dt satisfies
H(t) = U_F(t) (H_F + S_F(t)) U_F(t)^{-1}, H(0) = H_F + S_F(0), so it is H(t)
conjugated through the displacement U_F (drive_model._conjugated_h):

    S_F = U_F^{-1} H(t) U_F - H_F
        = (f - omega F1 + nu/Delta) x + (F2 + mu/(omega Delta)) p
          + (F1^2 + F2^2)/2 - f F1/omega - c_F,   c_F the constant of H_F.

Resonant periods split further by the drive's Fourier coefficient at the
oscillator frequency: with T = 2 pi N/omega, the monodromy is a multiple
of the identity when f_N = f_{-N} = 0 and has purely absolutely
continuous spectrum otherwise.

The stability energies need no propagator.  With chi(t, 0) = phi1 + i phi2
and f = f(t), conjugating H(t) = H_omega + f x through the factored form of
U(t, 0) (propagator module: drive_model._conjugated_h at (-phi1, phi2), then
the free rotation) gives, on the full space,

    U(t, 0)^dag H(t) U(t, 0) = K(t) = H_omega + A(t) x + B(t) p + C(t),
    g = f - omega phi2,
    A = g cos(omega t) + omega phi1 sin(omega t),
    B = (g/omega) sin(omega t) - phi1 cos(omega t),
    C = (phi1^2 + phi2^2)/2 - f phi2/omega.

The phase psi cancels, so ||H(t) psi_t|| = ||K(t) psi_0|| and
<psi_t, H(t) psi_t> = <psi_0, K(t) psi_0>: exact on the full space, from
H_omega, x and p applied to psi_0 once.

All norm-based bound checks quote the kept-block operator norm of S_F,
which is unbounded on the full space, so they are finite-dimensional
surrogates.  The stability verdict carries that caveat as its block_note;
the transition-bound reports carry no copy of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterator

import numpy as np

from .core_fock import (
    OscillatorParams,
    TruncatedOperator,
    Truncation,
    _displacement,
    _integer_field,
    _oscillator_op,
    _padded_state,
    number_basis_energies,
    x_norm,
    xp_operators,
)
from .drive_model import (
    DriveSpec,
    _check_finite,
    _chi,
    _conjugated_h,
    _hf_coeffs,
    _monodromy_scalars,
    _sf_scalars,
    eval_drive,
    floquet_scalars,
    is_resonant_period,
)
from .errors import InvalidIntervalError, NumericError
from .propagator import _factored_states

__all__ = [
    "Classification",
    "classify_monodromy",
    "build_HF",
    "build_UF",
    "build_SF",
    "StabilityReport",
    "stability_scan",
    "energy_bound_constant",
    "TransitionBoundReport",
    "transition_bound_check",
]

_BLOCK_NOTE = (
    "S_F is linear in x and p, hence unbounded; norms quoted here are "
    "kept-block truncations and the bound checks are finite-dimensional "
    "surrogates."
)

_IDENTITY_COEFF_TOL = 1e-12


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
    weight = abs(spec.coefficient(n)) + abs(spec.coefficient(-n))
    if weight <= _IDENTITY_COEFF_TOL:
        return Classification.RESONANT_IDENTITY_MULTIPLE
    return Classification.RESONANT_ABSOLUTELY_CONTINUOUS


def _hf_matrix(spec: DriveSpec, params: OscillatorParams, dim: int) -> np.ndarray:
    x, p, one = _hf_coeffs(_monodromy_scalars(spec, params), params)
    if not all(math.isfinite(c) for c in (x, p, one)):
        raise NumericError(f"H_F is not finite: its x, p and 1 coefficients are {x}, {p}, {one}")
    return _oscillator_op(params.omega, dim, h=1.0, x=x, p=p, one=one)


def build_HF(spec: DriveSpec, params: OscillatorParams, trunc: Truncation) -> TruncatedOperator:
    """Quasi-energy operator on the kept block.

    The matrix elements do not depend on the working dimension, so no
    padding is involved; only exponentials of H_F need padded arithmetic.
    """
    _check_periods(spec, params)
    return TruncatedOperator.hermitian_op(_hf_matrix(spec, params, trunc.n_keep))


def _uf_matrix(spec: DriveSpec, params: OscillatorParams, t: float, n: int) -> np.ndarray:
    """The n x n block of U_F(t) from exact entries."""
    fs = floquet_scalars(spec, params, t)
    return np.exp(1j * fs.big_phi) * _displacement(params.omega, fs.f2, fs.f1, n, n)


def build_UF(spec: DriveSpec, params: OscillatorParams, trunc: Truncation, t: float) -> TruncatedOperator:
    """Periodic factor U_F(t) on the kept block, from exact entries."""
    _check_periods(spec, params)
    return TruncatedOperator(_uf_matrix(spec, params, float(t), trunc.n_keep))


def _sf_matrices(spec: DriveSpec, params: OscillatorParams, ts, dim: int) -> Iterator[np.ndarray]:
    """S_F at each time in ts, in order, from one evaluation of the scalars."""
    x, p, one, _ = _sf_scalars(spec, params, np.asarray(ts, dtype=float))
    for j in range(x.size):
        yield _oscillator_op(params.omega, dim, x=x[j], p=p[j], one=one[j])


def build_SF(spec: DriveSpec, params: OscillatorParams, trunc: Truncation, t: float) -> TruncatedOperator:
    """Co-rotating generator S_F(t) = i U_F^{-1} dU_F/dt = U_F^{-1} H(t) U_F - H_F
    on the kept block."""
    _check_periods(spec, params)
    (s_f,) = _sf_matrices(spec, params, (float(t),), trunc.n_keep)
    return TruncatedOperator.hermitian_op(s_f)


# ---------------------------------------------------------------------------
# energy bound and stability scan


def _own_levels(psi0, trunc: Truncation) -> np.ndarray:
    """psi0, checked by _padded_state, up to its last nonzero level."""
    return np.trim_zeros(_padded_state(psi0, trunc), "b")


def energy_bound_constant(
    spec: DriveSpec,
    params: OscillatorParams,
    trunc: Truncation,
    psi0: np.ndarray,
    sup_samples: int = 8,
) -> float:
    """C_psi = ||H_F psi|| + a ||(H_F + i) psi||, a = sup_t ||S_F(t)(H_F + i)^{-1}||,
    a bound on ||H(t) psi_t|| at all times for any psi0 (arXiv 0710.0768;
    a is S_F's bound relative to H_F, Kato IV.1).  H_F is tridiagonal, so
    for psi0 on m levels both norms are exact on levels 0..m.  a is taken on
    levels 0..n_keep/2, the sup over the sup_samples times jT/sup_samples (on
    nonresonant.json it reads 0.057271006579 from block 25 up).  psi0 must
    be normalized and fit the working dimension (ValueError otherwise).
    """
    sup_samples = _integer_field(sup_samples, "sup_samples")
    if sup_samples < 1:
        raise ValueError(f"sup_samples must be >= 1, got {sup_samples}")
    psi = np.append(_own_levels(psi0, trunc), 0.0)
    m = trunc.n_keep // 2 + 1
    hf = _hf_matrix(spec, params, max(m, psi.size))
    hf_psi = hf[: psi.size, : psi.size] @ psi
    inv_shifted = np.linalg.inv(hf[:m, :m] + 1j * np.eye(m))
    sup = 0.0
    for s_blk in _sf_matrices(spec, params, np.arange(sup_samples) * params.period_T / sup_samples, m):
        sup = max(sup, float(np.linalg.norm(s_blk @ inv_shifted, 2)))
    return float(np.linalg.norm(hf_psi) + sup * np.linalg.norm(hf_psi + 1j * psi))


@dataclass
class StabilityReport:
    """Energy diagnostics of psi_t = U(t, 0) psi0 on a uniform time grid.

    energy_norms and mean_energy are ||H(t) psi_t|| and <H(t)> on the full
    space (module docstring); high_mode_population is the exact weight of
    psi_t above the kept block, never negative, the leak meter.  verdict is
    "bounded" or "growing"; fit_exponent is the least-squares slope of log
    mean energy against log t over the last half of the grid. paper_bound
    is C_psi (energy_bound_constant), or None for resonant drives, where
    the uniform bound does not apply.  leak_warning is set when
    high_mode_population exceeds 1e-6.
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


def _time_grid(params: OscillatorParams, n_periods: int, samples_per_period: int) -> np.ndarray:
    """samples_per_period uniform times per period over n_periods, both ends in."""
    return np.linspace(0.0, n_periods * params.period_T, n_periods * samples_per_period + 1)


def _exact_energies(spec: DriveSpec, omega, psi0: np.ndarray, t_grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(||K(t) psi0||, <psi0, K(t) psi0>) at each time of t_grid: the
    full-space ||H(t) psi_t|| and <H(t)> (module docstring), from one chi and
    one drive evaluation over the grid.  K is tridiagonal, so for psi0 on m
    levels K psi0 lives on m + 1, where H_omega, x and p applied to psi0 are
    exact; no propagator, padding or psi is involved.  omega is a
    float, or a 1-d array of them for one row of each per omega, every row
    bit for bit the one its omega gives alone.  NumericError if an energy is
    not finite, naming the first omega of an array whose energies are not."""
    w = np.asarray(omega, dtype=float)[..., None]  # (1,) for a float, (m, 1) for m of them
    psi = np.zeros(np.size(psi0) + 1, dtype=complex)
    psi[:-1] = np.ravel(psi0)
    x, p = xp_operators(omega, psi.size)
    h_psi = number_basis_energies(w, psi.size) * psi
    images = np.stack(np.broadcast_arrays(h_psi, x @ psi, p @ psi, psi), axis=-2)
    chi = _chi(spec, w, t_grid, 0.0)
    f = eval_drive(spec, t_grid)
    cos_u, sin_u = np.cos(w * t_grid), np.sin(w * t_grid)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, not warned about
        # U(t, 0) is a phase times e^{-i phi1 x} e^{i (phi2/omega) p} e^{-i t H_omega}
        x, p, one = _conjugated_h(w, f, -chi.real, chi.imag)
        coeffs = np.stack([np.ones_like(x), x * cos_u - w * p * sin_u, (x / w) * sin_u + p * cos_u, one], axis=-1)
        k_psi = coeffs @ images
        energy_norms = np.linalg.norm(k_psi, axis=-1)
        mean_energy = np.real(k_psi @ psi.conj())
    finite = np.ravel(np.isfinite(energy_norms).all(axis=-1) & np.isfinite(mean_energy).all(axis=-1))
    if not finite.all():
        first = int(np.argmin(finite))
        at = "" if np.ndim(omega) == 0 else f" at omega = {float(np.ravel(omega)[first])!r}"
        raise NumericError(
            f"the energies are not finite (drive up to {np.abs(f).max():.3e}, "
            f"|chi| up to {np.abs(chi.reshape(-1, f.size)[first]).max():.3e}): the drive is too large{at}"
        )
    return energy_norms, mean_energy


def _population_above(spec: DriveSpec, params: OscillatorParams, psi0, t_grid: np.ndarray, n: int) -> np.ndarray:
    """The exact weight of U(t, 0) psi0 on the levels n and up at each time
    of t_grid.  D(beta)|k> lies below (|beta| + sqrt(k))^2 but for a few
    levels, so while half the weight or more is below n (|beta| at most
    sqrt(n) + sqrt(K), psi0 on K levels) the states on (max(sqrt(n),
    |beta| + sqrt(K)) + 8)^2 levels hold it all: it is their sum, with no
    floor.  Past that it is 1 minus the weight below n."""
    chi, root_k = _chi(spec, params.omega, t_grid, 0.0), math.sqrt(psi0.size)
    # fmin passes a non-finite chi on, for _displacement_table to refuse
    beta = np.fmin(np.abs(chi).max() / math.sqrt(2.0 * params.omega), math.sqrt(n) + root_k)
    rows = math.ceil((max(math.sqrt(n), beta + root_k) + 8.0) ** 2)
    weights = np.abs(_factored_states(params, chi, psi0, t_grid, rows)) ** 2
    below = weights[:, :n].sum(axis=1)
    return np.where(below < 0.5, 1.0 - below, weights[:, n:].sum(axis=1))


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
) -> StabilityReport:
    """Track ||H(t) psi_t|| and <H(t)> over n_periods.

    The energies are the full-space values ||K(t) psi0|| and
    <psi0, K(t) psi0> (module docstring, _exact_energies), so they do not
    saturate when psi_t outgrows the working space.  psi_t itself is only
    the leak meter: high_mode_population is its exact weight above the kept
    block (_population_above), and leak_warning flips when that weight
    exceeds 1e-6.  Non-resonant drives also get the uniform bound C_psi and
    the verdict compares sup ||H psi|| against it; resonant drives are
    judged by the growth exponent alone.  psi0 is cut after its last
    nonzero level first, so trailing zeros cost nothing.
    """
    n_periods = _integer_field(n_periods, "n_periods")
    samples_per_period = _integer_field(samples_per_period, "samples_per_period")
    if n_periods < 1 or samples_per_period < 1:
        raise ValueError("n_periods and samples_per_period must be >= 1")
    classification = classify_monodromy(spec, params)
    t_grid = _time_grid(params, n_periods, samples_per_period)

    psi0 = _own_levels(psi0, trunc)
    pad_pop = _population_above(spec, params, psi0, t_grid, trunc.n_keep)
    energy_norms, mean_energy = _exact_energies(spec, params.omega, psi0, t_grid)

    sup_bound = float(energy_norms.max())
    exponent = _fit_exponent(t_grid, mean_energy)

    paper_bound = None
    if classification is Classification.NON_RESONANT:
        paper_bound = energy_bound_constant(spec, params, trunc, psi0, samples_per_period)
    within = paper_bound is not None and sup_bound <= paper_bound * (1.0 + 1e-6)
    verdict = "growing" if exponent > 0.5 and not within else "bounded"

    return StabilityReport(
        t_grid=t_grid,
        energy_norms=energy_norms,
        mean_energy=mean_energy,
        high_mode_population=pad_pop,
        sup_bound=sup_bound,
        paper_bound=paper_bound,
        fit_exponent=exponent,
        verdict=verdict,
        classification=classification,
        leak_warning=bool(pad_pop.max() > 1e-6),
    )


# ---------------------------------------------------------------------------
# the transition-probability bound


@dataclass
class TransitionBoundReport:
    """Check of the order-p transition bound

        ||P(t, D1) U(t,s) P(s, D2)|| <= C_p / dist(D1, D2)^p.

    P(tau, D) projects onto the levels n < n_keep of H(tau), energies
    E_n(tau) = omega (n + 1/2) - f(tau)^2/(2 omega^2), in D.  lhs is exact,
    C_p kept-block.  transition_bound_check gives p = 1 with
    C_1 = 2 sup ||S_F|| over 64 points of one period;
    commutators.higher_order_bound_check gives p in 1..4 with C_p the max of
    ||X_p|| on sup_xn_norm's [0,T)^2 grid, a lower estimate of sup ||X_p||,
    taken over the nodes t >= s alone since ||X_p(s,t)|| = ||X_p(t,s)||.
    The point intervals D1 = (E_n, E_n) and D2 = (E_m, E_m) of two levels,
    from the formula or from a kept-block eigensolve, give the
    eigenvalue-resolved form |<n(t)| U(t,s) |m(s)>| <= C_p / |E_n - E_m|^p."""

    p: int
    t: float
    s: float
    interval_1: tuple[float, float]
    interval_2: tuple[float, float]
    dist: float
    lhs: float
    c_p: float
    rhs: float
    ok: bool


def _sup_sf_norm(spec: DriveSpec, params: OscillatorParams, trunc: Truncation, samples: int = 64) -> float:
    """max ||S_F(tau)|| over samples uniform points of one period, kept block.

    S_F = x x + p p + c (_sf_scalars) is z a + conj(z) a^dag + c with
    |z| = hypot(x, omega p)/sqrt(2 omega).  The diagonal unitary
    diag(e^{i n arg z}) maps it to |z| (a + a^dag) + c = hypot(x, omega p) x + c
    on every truncation, and the truncated x has a spectrum symmetric about 0,
    so ||S_F|| = |c| + hypot(x, omega p) ||x||: no matrix is formed.
    """
    x, p, one, _ = _sf_scalars(spec, params, np.arange(samples) * params.period_T / samples)
    return float(np.max(np.abs(one) + np.hypot(x, params.omega * p) * x_norm(params.omega, trunc.n_keep)))


def _levels(omega: float, f: np.ndarray, n: int) -> np.ndarray:
    """Levels 0..n-1 of H(tau) = H_omega + f(tau) x, one row per value of f:
    omega (n + 1/2) - f^2/(2 omega^2), -inf where f^2 overflows."""
    with np.errstate(over="ignore"):  # the caller refuses a level that is not finite
        shift = f * f / (2.0 * omega * omega)
    return number_basis_energies(omega, n) - shift[:, None]


def _in_window(levels: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Indices of the levels in [lo, hi], each end widened by 16 ulps of the
    level, so that a kept-block eigenvalue, within a few ulps of its level,
    picks that level as a point interval."""
    slack = 16.0 * np.finfo(float).eps * np.maximum(1.0, np.abs(levels))
    return np.flatnonzero((levels >= lo - slack) & (levels <= hi + slack))


def _transition_bound(
    spec: DriveSpec,
    params: OscillatorParams,
    trunc: Truncation,
    p: int,
    t: float,
    s: float,
    interval_1: tuple[float, float],
    interval_2: tuple[float, float],
    c_p: Callable[[], float],
) -> TransitionBoundReport:
    """The order-p check behind both public ones.

    Checks the periods, the times and the intervals (ordered and apart),
    picks the levels n < n_keep of H(t) and H(s) in each closed interval
    (_in_window) and takes lhs from their exact eigenbasis:
    H(tau) = D(b) H_omega D(b)^dag - f^2/(2 omega^2), b = -f/(omega sqrt(2 omega)),
    and the factored U(t, s) = D(beta_U) e^{-i (t - s) H_omega} up to a phase,
    beta_U = -i conj(chi(t, s))/sqrt(2 omega), so D(b_t)^dag U D(b_s) is
    D(beta_U - b_t + b_s e^{-i omega (t - s)}) e^{-i (t - s) H_omega} up to a
    phase, and lhs the norm of that displacement's selected rows and columns.
    Only then does it call c_p, so a bad input never pays for the constant.
    NumericError if a level of H(t) or H(s), or C_p, is not finite.
    """
    _check_periods(spec, params)
    t, s = float(t), float(s)
    _check_finite(t=t, s=s)
    lo1, hi1 = float(interval_1[0]), float(interval_1[1])
    lo2, hi2 = float(interval_2[0]), float(interval_2[1])
    if not (lo1 <= hi1 and lo2 <= hi2):
        raise InvalidIntervalError("intervals must satisfy lo <= hi")
    dist = max(lo2 - hi1, lo1 - hi2, 0.0)
    if dist <= 0.0:
        raise InvalidIntervalError(
            f"intervals [{lo1}, {hi1}] and [{lo2}, {hi2}] overlap or touch"
        )

    omega = params.omega
    f_t, f_s = eval_drive(spec, np.array([t, s]))
    levels_t, levels_s = _levels(omega, np.array([f_t, f_s]), trunc.n_keep)
    if not (np.isfinite(levels_t[0]) and np.isfinite(levels_s[0])):
        raise NumericError(f"the levels of H(t), H(s) are not finite at f = {f_t}, {f_s}: the drive is too large")
    idx_t = _in_window(levels_t, lo1, hi1)
    idx_s = _in_window(levels_s, lo2, hi2)

    lhs = 0.0
    if idx_t.size and idx_s.size:
        # z = sqrt(2 omega) beta; the levels are consecutive, so the block is a corner
        z = -1j * np.conj(_chi(spec, omega, t, s)) + (f_t - f_s * np.exp(-1j * omega * (t - s))) / omega
        block = _displacement(omega, z.imag, -z.real, idx_t[-1] + 1, idx_s[-1] + 1)
        lhs = float(np.linalg.norm(block[idx_t[0] :, idx_s[0] :], 2))

    constant = c_p()
    if not np.isfinite(constant):
        raise NumericError(f"C_{p} = {constant} is not finite: the drive is too large")
    rhs = constant / dist**p
    return TransitionBoundReport(
        p=p,
        t=t,
        s=s,
        interval_1=(lo1, hi1),
        interval_2=(lo2, hi2),
        dist=dist,
        lhs=lhs,
        c_p=constant,
        rhs=rhs,
        ok=lhs <= rhs * (1.0 + 1e-6),
    )


def transition_bound_check(
    spec: DriveSpec,
    params: OscillatorParams,
    trunc: Truncation,
    t: float,
    s: float,
    interval_1: tuple[float, float],
    interval_2: tuple[float, float],
) -> TransitionBoundReport:
    """The first-order transition bound between two times: p = 1 and
    C_1 = 2 sup_tau ||S_F(tau)|| over 64 points of one period.

    Picks the levels of H(t) and H(s) in the closed intervals (ties within
    a few ulps included) and compares the exact ||P1 U P2||, one block of one
    displacement, against C_1 / dist.
    """
    return _transition_bound(
        spec, params, trunc, 1, t, s, interval_1, interval_2,
        lambda: 2.0 * _sup_sf_norm(spec, params, trunc),
    )
