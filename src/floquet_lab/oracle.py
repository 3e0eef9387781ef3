"""Brute-force time stepping, used as the independent check on every
closed form in the package.

Two single-step schemes:

  midpoint: U_step = exp(-i h H(t + h/2)), second order.
  cf4: the fourth-order commutator-free scheme with two exponentials per
       step built from the Gauss-Legendre nodes t + (1/2 -+ sqrt(3)/6) h,

           U_step = exp(-i h (a1 H1 + a2 H2)) exp(-i h (a2 H1 + a1 H2)),
           a1 = (3 - 2 sqrt(3))/12,  a2 = (3 + 2 sqrt(3))/12,

       the right factor acting first (heavy weight on the early node).

PeriodStepper.segment steps on the structure of H(t) = H_omega + f(t) x:
every step generator, for either scheme, is c H_omega + g x with real c
and g, a real symmetric tridiagonal matrix.  A segment evaluates the drive
once, vectorised over all its nodes, checks all its generators once, and
takes each exponential's real eigenpairs from LAPACK dstevd (_dstevd); no
dense H(t) and no step exponential is ever formed.  The product is carried
in the current eigenbasis instead: with E_j = V_j diag(e^{-i w_j}) V_j^T
in order of action,

    a_1 = diag(e^{-i w_1}) V_1^T,
    a_j = diag(e^{-i w_j}) (V_j^T V_{j-1}) a_{j-1},
    U   = V_last a_last,

so each exponential costs one real overlap product and one real product
on the stacked real and imaginary parts of a, and only a and the previous
V are kept.  A segment whose step phase h max|f(t_j)| ||x|| reaches
1/eps = 2^52 raises NumericError: at that size no digit of the phase
survives.  propagate_generic keeps stepping any Hamiltonian given as a
dense matrix builder, through matrix_exp.

Stepping happens at the padded dimension; trims are applied only at the
end.  U(t, s) is stepped from s: the span past the whole periods once, and
the whole periods as powers of the monodromy at s's phase, U(s + T, s),
which is exact for T-periodic Hamiltonians up to floating-point
reassociation.  Both are segments, and PeriodStepper.segment is the one
place that folds a start into [0, T) and keys a span, so on one stepper
U(t + kT, s + kT) reuses the segments of U(t, s).  integrate and
evolve_state each step on a PeriodStepper of their own, which keeps its
segments for that call only.

The closed forms do not import this module: only the CLI and the package
namespace do, so the check stays independent of what it checks.  It is
also the package's one user of scipy, for dstevd, which _dstevd imports
on its first call, so no command but the oracle's loads scipy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .core_fock import (
    OscillatorParams,
    TruncatedOperator,
    Truncation,
    _integer_field,
    _padded_state,
    matrix_exp,
    number_basis_energies,
    x_norm,
    x_off_diagonal,
)
from .drive_model import DriveSpec, _check_finite, eval_drive
from .errors import NumericError

__all__ = [
    "propagate_generic",
    "PeriodStepper",
    "integrate",
    "evolve_state",
]

_SQRT3 = math.sqrt(3.0)
_CF4_A1 = (3.0 - 2.0 * _SQRT3) / 12.0
_CF4_A2 = (3.0 + 2.0 * _SQRT3) / 12.0
_CF4_C1 = 0.5 - _SQRT3 / 6.0
_CF4_C2 = 0.5 + _SQRT3 / 6.0

SCHEMES = ("midpoint", "cf4")


def _step(h_builder, t0: float, h: float, scheme: str) -> np.ndarray:
    if scheme == "midpoint":
        return matrix_exp(-1j * h * h_builder(t0 + 0.5 * h))
    if scheme == "cf4":
        h1 = h_builder(t0 + _CF4_C1 * h)
        h2 = h_builder(t0 + _CF4_C2 * h)
        first = matrix_exp(-1j * h * (_CF4_A2 * h1 + _CF4_A1 * h2))
        second = matrix_exp(-1j * h * (_CF4_A1 * h1 + _CF4_A2 * h2))
        return second @ first
    raise ValueError(f"unknown scheme {scheme!r}, expected one of {SCHEMES}")


def _dstevd(d: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs (w, V) of the real symmetric tridiagonal matrix with
    diagonal d and off-diagonal e, so that exp(-i T) = V diag(e^{-i w}) V^T,
    from LAPACK dstevd, the driver scipy.linalg.eigh_tridiagonal picks for
    all eigenpairs, without the wrapper's validation cost.  The caller has
    checked the bands: float arrays of n >= 2 and n - 1 finite entries.  A
    solver failure (info != 0) or an overflowing eigenvalue, which no check
    of the input can rule out, raises NumericError.
    """
    from scipy.linalg import lapack

    w, v, info = lapack.dstevd(d, e)
    if info != 0:
        raise NumericError(f"tridiagonal eigensolver dstevd failed with info = {info}")
    if not np.all(np.isfinite(w)):
        raise NumericError("tridiagonal eigenvalues overflowed")
    return w, v


def propagate_generic(h_builder, dim: int, s: float, t: float, n_steps: int, scheme: str = "cf4") -> np.ndarray:
    """Propagator of a generic Hamiltonian h_builder(time) -> (dim, dim).

    Steps uniformly from s to t; works in either time direction.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    u = np.eye(dim, dtype=complex)
    if t == s:
        return u
    h = (t - s) / n_steps
    for j in range(n_steps):
        u = _step(h_builder, s + j * h, h, scheme) @ u
    return u


@dataclass
class PeriodStepper:
    """Stepping engine for one (drive, oscillator, truncation) triple.

    Exploits U(t + T, s + T) = U(t, s): U(t, s) is the partial product
    from s past the whole periods times a power of the monodromy at s's
    phase.  Segments are kept read-only, so a repeated request returns the
    array stepped first.
    """

    spec: DriveSpec
    params: OscillatorParams
    trunc: Truncation
    steps_per_period: int = 128
    scheme: str = "cf4"
    # (phase, span) to 12 digits in units of T -> segment
    _segments: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self.steps_per_period = _integer_field(self.steps_per_period, "steps_per_period")
        if self.steps_per_period < 16:
            raise ValueError(f"steps_per_period must be >= 16, got {self.steps_per_period}")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")

    @property
    def dim(self) -> int:
        return self.trunc.dim

    def _steps_for(self, span: float) -> int:
        frac = abs(span) / self.spec.period
        return max(1, int(math.ceil(self.steps_per_period * frac - 1e-12)))

    @functools.cached_property
    def _x_band(self) -> tuple[np.ndarray, float]:
        """x's off-diagonal at the working dimension and its spectral norm."""
        return x_off_diagonal(self.params.omega, self.dim), x_norm(self.params.omega, self.dim)

    def segment(self, start: float, span: float, keep: int | None = None) -> np.ndarray:
        """U(start + span, start), read-only, stepped once per stepper; with
        keep, only its leading keep x keep block, stepped on keep columns.

        The start is folded into [0, T).  At start = k T, fmod can return T
        less one ulp, whose phase would round to 1.0: that start is folded to
        0.0.  A request whose phase, span and keep agree with an earlier one's
        (phase and span to 12 digits in units of T) reuses that one's
        segment, as the starts of a time grid at the same phase in later
        periods do.
        """
        if span == 0.0:
            return np.eye(self.dim if keep is None else keep, dtype=complex)
        big_t = self.spec.period
        t_mod = math.fmod(start, big_t)
        if t_mod < 0.0:
            t_mod += big_t
        phase = round(t_mod / big_t, 12)
        if phase == 1.0:
            t_mod = phase = 0.0
        key = (phase, round(span / big_t, 12), keep)
        u = self._segments.get(key)
        if u is None:
            u = self._stepped(t_mod, t_mod + span, self._steps_for(span), keep)
            u.setflags(write=False)
            self._segments[key] = u
        return u

    def _stepped(self, s: float, t: float, n_steps: int, keep: int | None = None) -> np.ndarray:
        """propagate_generic(H, dim, s, t, n_steps, scheme) on the (diag, off)
        form of the step generators.

        Exponential k of a step is exp(-i h sum_m mix[k][m] H(node m)) =
        exp(-i h (c H_omega + g_k x)) with c = sum_m mix[k][m], which is 1
        for midpoint and a1 + a2 = 1/2 for both cf4 factors, so the diagonal
        h c E_n is shared by every exponential and only the off-diagonal
        h g_k x_{n,n+1} changes.  Rows of mix are in order of action.

        The whole batch of generators is checked once, for a finite drive, a
        step phase below 2^52 and finite bands; each eigensolve then goes to
        _dstevd, which still checks info and the eigenvalues.  The
        exponentials, flattened in order of action, are chained in their
        eigenbases (module docstring).  Each real-by-complex product is one
        real GEMM on a.view(float), whose rows interleave re and im.  The
        columns of a evolve apart, so with keep only its first keep columns
        are carried and only V_last's first keep rows multiply them: the
        leading keep x keep block of the full product.
        """
        h = (t - s) / n_steps
        t0 = s + np.arange(n_steps) * h
        if self.scheme == "midpoint":
            nodes, mix = (t0 + 0.5 * h,), ((1.0,),)
        else:
            nodes = (t0 + _CF4_C1 * h, t0 + _CF4_C2 * h)
            mix = ((_CF4_A2, _CF4_A1), (_CF4_A1, _CF4_A2))
        f = eval_drive(self.spec, np.concatenate(nodes)).reshape(len(nodes), n_steps)
        x_off, x_nrm = self._x_band
        f_max = float(np.abs(f).max())
        # f(t) x must stay finite; the negated comparison also catches NaN.
        # An x band below 1 cannot overflow a finite f, and dividing by it would.
        if not f_max <= np.finfo(float).max / max(x_off[-1], 1.0):
            raise NumericError("H(t) = H_omega + f(t) x contains NaN or Inf at a step node")
        # a step phase of 1/eps = 2^52 rad or more keeps no digit of exp(-i h f x)
        phase = abs(h) * f_max * x_nrm
        if phase >= 1.0 / np.finfo(float).eps:
            raise NumericError(
                f"oracle step phase h max|f| ||x|| = {phase:.3e} reaches 2^52: "
                "no digit of a step exponential survives"
            )
        diag = (h * sum(mix[0])) * number_basis_energies(self.params.omega, self.dim)
        offs = ((h * np.asarray(mix)) @ f).T.reshape(-1, 1) * x_off
        if not (np.all(np.isfinite(diag)) and np.all(np.isfinite(offs))):
            raise NumericError("tridiagonal input contains NaN or Inf")
        w, v = _dstevd(diag, offs[0])
        a = np.exp(-1j * w)[:, None] * v.T[:, :keep]
        for off in offs[1:]:
            v_prev = v
            w, v = _dstevd(diag, off)
            a = ((v.T @ v_prev) @ a.view(float)).view(complex)
            a *= np.exp(-1j * w)[:, None]
        return (v[:keep] @ a.view(float)).view(complex)

    def u(self, t: float, s: float, keep: int | None = None) -> np.ndarray:
        """U(t, s) at the padded dimension, stepped from s: the segment from s
        past the whole periods times the power of M = segment(s, T), the
        monodromy at s's phase.  t < s gives the adjoint of U(s, t).  Within
        one period the result is the segment itself, which is read-only, and
        with keep only its leading keep x keep block (segment); past a period
        keep is ignored and the full product returned."""
        if t < s:
            return self.u(s, t, keep).conj().T
        big_t = self.spec.period
        n = math.floor((t - s) / big_t)
        tau = (t - s) - n * big_t
        if tau >= big_t:  # guard against floating rollover
            tau -= big_t
            n += 1
        if n == 0:
            return self.segment(s, tau, keep)
        u = self.segment(s, tau)
        acc = np.eye(self.dim, dtype=complex)
        base = self.segment(s, big_t)
        # binary powering keeps 200-period runs cheap and deterministic
        while n:
            if n & 1:
                acc = base @ acc
            base = base @ base
            n >>= 1
        return u @ acc


def integrate(
    spec: DriveSpec,
    params: OscillatorParams,
    trunc: Truncation,
    t: float,
    s: float,
    steps_per_period: int = 128,
    scheme: str = "cf4",
) -> TruncatedOperator:
    """Brute-force U(t, s), trimmed to the kept block: stepped from s, with
    whole periods taken as powers of the monodromy at s's phase.  A span
    within one period is stepped on the kept columns alone."""
    stepper = PeriodStepper(spec, params, trunc, steps_per_period, scheme)
    t, s = float(t), float(s)
    _check_finite(t=t, s=s)
    u = stepper.u(t, s, trunc.n_keep)
    return TruncatedOperator(u[: trunc.n_keep, : trunc.n_keep].copy())


def evolve_state(
    spec: DriveSpec,
    params: OscillatorParams,
    trunc: Truncation,
    psi0: np.ndarray,
    t_grid,
    steps_per_period: int = 128,
    scheme: str = "cf4",
) -> np.ndarray:
    """The states U(t_i, 0) psi0 on an increasing time grid, as a
    (len(t_grid), dim) array at the padded dimension.  Each state is the
    last one carried by U(t_i, t_{i-1}), on one PeriodStepper, so grid
    steps at the same phase in later periods reuse their segments."""
    psi = _padded_state(psi0, trunc)
    times = np.asarray(t_grid, dtype=float)
    if times.ndim != 1 or times.size == 0 or np.any(np.diff(times) < 0):
        raise ValueError("t_grid must be a non-empty increasing 1-d array")
    _check_finite(t_grid=times)

    stepper = PeriodStepper(spec, params, trunc, steps_per_period, scheme)
    states = np.empty((times.size, trunc.dim), dtype=complex)
    t_prev = 0.0
    for i, ti in enumerate(times.tolist()):
        psi = stepper.u(ti, t_prev) @ psi
        states[i] = psi
        t_prev = ti
    return states
