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
takes each exponential's real eigenpairs from the LAPACK dstevd core of
core_fock.tridiagonal_eigh; no dense H(t) and no step exponential is ever
formed.  The product is carried in the current
eigenbasis instead: with E_j = V_j diag(e^{-i w_j}) V_j^T in order of
action,

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
end.  Multi-period evolutions compose the one-period propagator instead of
re-stepping every period, which is exact for T-periodic Hamiltonians up to
floating-point reassociation.

integrate and evolve_state share one process-wide LRU of PeriodSteppers,
keyed on (spec, params, trunc, steps_per_period, scheme), so a repeated
evolution on one setup reuses the segments, the monodromy included, that an
earlier call stepped, and still gets the bits a fresh stepper would give it
(PeriodStepper.segment).  The cache keeps at most _STEPPER_CACHE_SIZE = 8
steppers and _SEGMENT_CACHE_BYTES = 16 MiB of their segments, evicting the
least recently used after each call; a stepper over the byte cap on its own
is not kept, and a call that raises adds or reorders no stepper.  The
sub-period remainder of u_from_zero is used once per t, so it is stepped
without being cached.  There is no lock: nothing runs the oracle on more
than one thread.
"""

from __future__ import annotations

import contextlib
import functools
import math
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from .core_fock import (
    OscillatorParams,
    TruncatedOperator,
    Truncation,
    _dstevd,
    matrix_exp,
    number_basis_energies,
    x_norm,
    x_off_diagonal,
)
from .drive_model import DriveSpec, eval_drive
from .errors import NumericError

__all__ = [
    "hamiltonian_at",
    "propagate_generic",
    "PeriodStepper",
    "integrate",
    "EvolveResult",
    "evolve_state",
]

_SQRT3 = math.sqrt(3.0)
_CF4_A1 = (3.0 - 2.0 * _SQRT3) / 12.0
_CF4_A2 = (3.0 + 2.0 * _SQRT3) / 12.0
_CF4_C1 = 0.5 - _SQRT3 / 6.0
_CF4_C2 = 0.5 + _SQRT3 / 6.0

SCHEMES = ("midpoint", "cf4")

# Bounds of the shared stepper cache: steppers kept, and the total bytes of
# the segments they hold.
_STEPPER_CACHE_SIZE = 8
_SEGMENT_CACHE_BYTES = 16 * 2**20
_STEPPERS: OrderedDict = OrderedDict()


def hamiltonian_at(spec: DriveSpec, params: OscillatorParams, t: float, dim: int) -> np.ndarray:
    """H(t) = H_omega + f(t) x at the given dimension, dense, with f(t) x
    written onto the two bands."""
    h = np.diag(number_basis_energies(params.omega, dim)).astype(complex)
    band = float(eval_drive(spec, t)) * x_off_diagonal(params.omega, dim)
    n = np.arange(dim - 1)
    h[n, n + 1] = band
    h[n + 1, n] = band
    return h


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

    Exploits U(t + T, s + T) = U(t, s): propagators from time zero are the
    within-period partial product times powers of the monodromy.

    Segments are cached read-only, because integrate and evolve_state share
    one stepper per setup across calls (module docstring): a hit returns the
    array an earlier call stepped, and skips the drive and phase checks that
    ran on its step batch when it was built.
    """

    spec: DriveSpec
    params: OscillatorParams
    trunc: Truncation
    steps_per_period: int = 128
    scheme: str = "cf4"
    # (folded start, span) -> segment, and (phase, span) to 12 digits in
    # units of T -> segment; the shared cache empties the second per call
    _segments: dict = field(default_factory=dict, repr=False)
    _rounded: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
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

    def segment(self, start: float, span: float) -> np.ndarray:
        """U(start + span, start), read-only, stepped once per stepper.

        The start is folded into [0, T).  At start = k T, fmod can return T
        less one ulp, whose phase would round to 1.0: that start is folded to
        0.0.  A segment is kept under its exact folded start and span, so one
        that an earlier call stepped holds the bits a fresh stepper would step
        now.  Within one call (for a stepper used directly, over its life) a
        request whose phase and span agree with an earlier one's to 12 digits
        in units of T reuses that one's segment, as the starts of a time grid
        at the same phase in later periods do.
        """
        if span == 0.0:
            return np.eye(self.dim, dtype=complex)
        big_t = self.spec.period
        t_mod = math.fmod(start, big_t)
        if t_mod < 0.0:
            t_mod += big_t
        phase = round(t_mod / big_t, 12)
        if phase == 1.0:
            t_mod = phase = 0.0
        key = (phase, round(span / big_t, 12))
        u = self._rounded.get(key)
        if u is None:
            u = self._segments.get((t_mod, span))
            if u is None:
                u = self._stepped(t_mod, t_mod + span, self._steps_for(span))
                u.setflags(write=False)
                self._segments[(t_mod, span)] = u
            self._rounded[key] = u
        return u

    def _segment_bytes(self) -> int:
        return sum(u.nbytes for u in self._segments.values())

    def _stepped(self, s: float, t: float, n_steps: int) -> np.ndarray:
        """propagate_generic(H, dim, s, t, n_steps, scheme) on the (diag, off)
        form of the step generators.

        Exponential k of a step is exp(-i h sum_m mix[k][m] H(node m)) =
        exp(-i h (c H_omega + g_k x)) with c = sum_m mix[k][m], which is 1
        for midpoint and a1 + a2 = 1/2 for both cf4 factors, so the diagonal
        h c E_n is shared by every exponential and only the off-diagonal
        h g_k x_{n,n+1} changes.  Rows of mix are in order of action.

        The whole batch of generators is checked once, for a finite drive, a
        step phase below 2^52 and finite bands; each eigensolve then goes to
        the dstevd core, which still checks info and the eigenvalues.  The
        exponentials, flattened in order of action, are chained in their
        eigenbases (module docstring).  Each real-by-complex product is one
        real GEMM on a.view(float), whose rows interleave re and im.
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
        a = np.exp(-1j * w)[:, None] * v.T
        for off in offs[1:]:
            v_prev = v
            w, v = _dstevd(diag, off)
            a = ((v.T @ v_prev) @ a.view(float)).view(complex)
            a *= np.exp(-1j * w)[:, None]
        return (v @ a.view(float)).view(complex)

    def monodromy(self) -> np.ndarray:
        return self.segment(0.0, self.spec.period)

    def u_from_zero(self, t: float) -> np.ndarray:
        """U(t, 0) at the padded dimension; the remainder past the whole
        periods is stepped, not cached."""
        big_t = self.spec.period
        n = math.floor(t / big_t)
        tau = t - n * big_t
        if tau >= big_t:  # guard against floating rollover
            tau -= big_t
            n += 1
        if tau > 0.0:
            u = self._stepped(0.0, tau, self._steps_for(tau))
        else:
            u = np.eye(self.dim, dtype=complex)
        if n == 0:
            return u
        m = self.monodromy()
        if n < 0:
            m = m.conj().T
            n = -n
        acc = np.eye(self.dim, dtype=complex)
        base = m
        # binary powering keeps 200-period runs cheap and deterministic
        while n:
            if n & 1:
                acc = base @ acc
            base = base @ base
            n >>= 1
        return u @ acc

    def u(self, t: float, s: float) -> np.ndarray:
        """U(t, s) = U(t, 0) U(s, 0)^dagger at the padded dimension."""
        if s == 0.0:
            return self.u_from_zero(t)
        return self.u_from_zero(t) @ self.u_from_zero(s).conj().T


@contextlib.contextmanager
def _shared_stepper(*key):
    """The cached PeriodStepper of key = (spec, params, trunc,
    steps_per_period, scheme), or a new one.  When the body returns, the
    stepper becomes the most recently used and the cache bounds are applied;
    when it raises, no stepper is added or reordered (a cached one keeps the
    segments the call completed).  A key that does not hash, such as a 0-d
    array step count, gets a stepper that is not shared."""
    try:
        stepper = _STEPPERS.get(key)
    except TypeError:
        yield PeriodStepper(*key)
        return
    if stepper is None:
        stepper = PeriodStepper(*key)
    stepper._rounded.clear()
    yield stepper
    _STEPPERS.pop(key, None)
    if stepper._segment_bytes() <= _SEGMENT_CACHE_BYTES:
        _STEPPERS[key] = stepper
        while (
            len(_STEPPERS) > _STEPPER_CACHE_SIZE
            or sum(kept._segment_bytes() for kept in _STEPPERS.values()) > _SEGMENT_CACHE_BYTES
        ):
            _STEPPERS.popitem(last=False)


def integrate(
    spec: DriveSpec,
    params: OscillatorParams,
    trunc: Truncation,
    t: float,
    s: float,
    steps_per_period: int = 128,
    scheme: str = "cf4",
) -> TruncatedOperator:
    """Brute-force U(t, s), trimmed to the kept block."""
    t, s = float(t), float(s)
    for name, value in (("t", t), ("s", s)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    with _shared_stepper(spec, params, trunc, steps_per_period, scheme) as stepper:
        full = stepper.u(t, s)
    return TruncatedOperator(full[: trunc.n_keep, : trunc.n_keep].copy())


@dataclass
class EvolveResult:
    """States on a time grid, kept at the padded dimension.

    pad_population[i] is the probability weight sitting above the kept
    block at times[i]; edge_warning flips when the initial support starts
    near the truncation edge or the pad weight ever exceeds 1e-6.
    """

    times: np.ndarray
    states: np.ndarray
    norms: np.ndarray
    pad_population: np.ndarray
    edge_warning: bool


def evolve_state(
    spec: DriveSpec,
    params: OscillatorParams,
    trunc: Truncation,
    psi0: np.ndarray,
    t_grid,
    steps_per_period: int = 128,
    scheme: str = "cf4",
) -> EvolveResult:
    """Evolve a normalized state over an increasing time grid from t = 0."""
    psi0 = np.asarray(psi0, dtype=complex).ravel()
    if psi0.size > trunc.dim:
        raise ValueError(f"psi0 has {psi0.size} components, working dimension is {trunc.dim}")
    nrm = float(np.linalg.norm(psi0))
    # the negated comparison also refuses a NaN norm
    if not abs(nrm - 1.0) <= 1e-12:
        raise ValueError(f"psi0 must be normalized, got norm {nrm}")
    times = np.asarray(t_grid, dtype=float)
    if times.ndim != 1 or times.size == 0 or np.any(np.diff(times) < 0):
        raise ValueError("t_grid must be a non-empty increasing 1-d array")
    if not np.all(np.isfinite(times)):
        raise ValueError("t_grid must hold finite times")

    psi = np.zeros(trunc.dim, dtype=complex)
    psi[: psi0.size] = psi0
    support = np.nonzero(np.abs(psi) > 1e-10)[0]
    edge_warning = bool(support.size and support[-1] > trunc.n_keep // 2)

    states = np.empty((times.size, trunc.dim), dtype=complex)
    t_cur = 0.0
    with _shared_stepper(spec, params, trunc, steps_per_period, scheme) as stepper:
        for i, ti in enumerate(times):
            span = ti - t_cur
            if span:
                # whole periods advance via the monodromy, remainder via one segment
                n_whole = int(math.floor(span / spec.period + 1e-12))
                for _ in range(n_whole):
                    psi = stepper.segment(t_cur, spec.period) @ psi
                    t_cur += spec.period
                rem = ti - t_cur
                if abs(rem) > 1e-12 * max(1.0, abs(ti)):
                    psi = stepper.segment(t_cur, rem) @ psi
                t_cur = ti
            states[i] = psi

    norms = np.linalg.norm(states, axis=1)
    pad_pop = np.sum(np.abs(states[:, trunc.n_keep :]) ** 2, axis=1)
    if pad_pop.size and pad_pop.max() > 1e-6:
        edge_warning = True
    return EvolveResult(
        times=times, states=states, norms=norms, pad_population=pad_pop, edge_warning=edge_warning
    )
