"""The X_n operators behind the higher-order transition bounds.

    X_n(t,s) = sum_k (n choose k) (-1)^k H(t)^{n-k} U(t,s) H(s)^k

stay bounded for the driven oscillator, and compressing them between
spectral projectors of H(t) and H(s) yields transition bounds that decay
like dist(Delta_1, Delta_2)^{-p}.  Left and right multiplication commute,
so the sum is X_n = (L_{H(t)} - R_{H(s)})^n U(t,s), the n-th step of
X_{k+1} = H(t) X_k - X_k H(s) from X_0 = U(t,s).  X_n is built two
independent ways, both by that two-sided recursion: from H(t), H(s) and
the kept block of the factored U (xn_operator), and in the co-rotating
frame as Z_{k+1} = K_F(t) Z_k - Z_k K_F(s) with K_F = H_F + S_F
(xn_operator_via_floquet).  verify's commutators suite checks one
against the other.

The kept-block recursion runs on a stack of times t at one s as readily
as on one (_xn_block), which is how sup_xn_norm takes its grid max one
row at a time.  Two identities halve and lighten that max.  U(s,t) =
U(t,s)^dag, and the recursion carries the adjoint through, so
X_n(s,t) = (-1)^n X_n(t,s)^dag and ||X_n(s,t)|| = ||X_n(t,s)||: on a grid
whose t and s nodes are the same times, the nodes t >= s give the max.
And U's factor e^{-i psi(t,s)} is a global phase that no norm sees, so
the max needs no psi.
"""

from __future__ import annotations

import numpy as np

from .core_fock import OscillatorParams, TruncatedOperator, Truncation, _integer_field, matrix_exp
from .drive_model import DriveSpec, _check_finite, hamiltonian_at, psi
from .errors import NumericError
from .floquet import (
    TransitionBoundReport,
    _hf_matrix,
    _sf_matrices,
    _transition_bound,
    _uf_matrix,
)
from .propagator import _factored_matrix

__all__ = [
    "xn_operator",
    "xn_operator_via_floquet",
    "sup_xn_norm",
    "higher_order_bound_check",
]


# ---------------------------------------------------------------------------
# the X_n operators and the order-p transition bound


def _order(n) -> int:
    """The order n of X_n as an int in 0..4 (ValueError otherwise)."""
    n = _integer_field(n, "n")
    if not 0 <= n <= 4:
        raise ValueError("n is limited to 0..4 at desk scale")
    return n


def _xn_block(
    spec: DriveSpec,
    params: OscillatorParams,
    trunc: Truncation,
    n: int,
    ts,
    s: float,
    psi_ts,
    h_ts: np.ndarray,
    h_s: np.ndarray,
) -> np.ndarray:
    """X_n(t,s) on the kept block, for a time t or for a 1-d array of them
    at one time s (a stack, one block per t): n steps of
    X <- H(t) X - X H(s) from the kept block of the factored U(t,s), whose
    phase is e^{-i psi_ts}.  h_ts is H(t) on the kept block, or the stack
    of them, and h_s is H(s).  One chi covers every t.  NumericError if an
    entry is not finite."""
    x = _factored_matrix(spec, params, ts, s, trunc.n_keep, psi_ts)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, not warned about
        for _ in range(n):
            x = h_ts @ x - x @ h_s
    if not np.all(np.isfinite(x)):
        raise NumericError(f"X_{n} is not finite (H(s) up to {np.abs(h_s).max():.3e}): the drive is too large")
    return x


def xn_operator(
    spec: DriveSpec,
    params: OscillatorParams,
    trunc: Truncation,
    n: int,
    t: float,
    s: float,
) -> TruncatedOperator:
    """X_n(t,s) = (L_{H(t)} - R_{H(s)})^n U(t,s) on the kept block: n steps
    of X_{k+1} = H(t) X_k - X_k H(s) from the factored X_0 = U(t,s)."""
    n = _order(n)
    t, s = float(t), float(s)
    psi_ts = psi(spec, params, t, s)
    nk = trunc.n_keep
    h_t = hamiltonian_at(spec, params, t, nk)
    h_s = hamiltonian_at(spec, params, s, nk)
    return TruncatedOperator(_xn_block(spec, params, trunc, n, t, s, psi_ts, h_t, h_s))


def xn_operator_via_floquet(
    spec: DriveSpec,
    params: OscillatorParams,
    trunc: Truncation,
    n: int,
    t: float,
    s: float,
) -> TruncatedOperator:
    """Dual construction X_n = U_F(t) Z_n U_F(s)^dag, at n_keep + n_pad, with
    Z_{k+1} = K_F(t) Z_k - Z_k K_F(s), Z_0 = e^{-i(t-s)H_F}, where
    K_F(tau) = H_F + S_F(tau) = U_F(tau)^{-1} H(tau) U_F(tau): the recursion
    of xn_operator in the co-rotating frame; U_F's entries are exact.

    Independent of xn_operator except for the shared scalar kernels; used
    as its cross-check.
    """
    n = _order(n)
    t, s = float(t), float(s)
    _check_finite(t=t, s=s)
    hf = _hf_matrix(spec, params, trunc.dim)
    z = matrix_exp(-1j * (t - s) * hf)
    sf_t, sf_s = _sf_matrices(spec, params, (t, s), trunc.dim)
    k_t, k_s = hf + sf_t, hf + sf_s
    for _ in range(n):
        z = k_t @ z - z @ k_s
    uf_t = _uf_matrix(spec, params, t, trunc.dim)
    uf_s = _uf_matrix(spec, params, s, trunc.dim)
    full = uf_t @ z @ uf_s.conj().T
    return TruncatedOperator(full[: trunc.n_keep, : trunc.n_keep].copy())


def sup_xn_norm(
    spec: DriveSpec,
    params: OscillatorParams,
    trunc: Truncation,
    n: int,
    grid_points: int = 16,
) -> float:
    """max ||X_n(t,s)|| over a uniform grid on [0,T)^2, kept block.

    This is a lower estimate of sup ||X_n|| over the plane, not the sup:
    ||X_n(t,s)|| depends on t mod T, s mod T and omega (t - s) mod 2 pi,
    and the grid fixes the third by the first two.  grid_points must be
    >= 2 (ValueError): one point sees only X_n(0, 0) = 0.

    Only the nodes t >= s are evaluated, since ||X_n(s,t)|| = ||X_n(t,s)||,
    and U's global phase is left out (module docstring).  H(t) is built
    once per grid time; each s takes one _xn_block call on its row of
    t >= s and one batched spectral norm.
    """
    n = _order(n)
    grid_points = _integer_field(grid_points, "grid_points")
    if grid_points < 2:
        raise ValueError(f"grid_points must be >= 2, got {grid_points}")
    taus = np.linspace(0.0, params.period_T, grid_points, endpoint=False)
    h = np.stack([hamiltonian_at(spec, params, tau, trunc.n_keep) for tau in taus.tolist()])
    sup = 0.0
    for j, s in enumerate(taus.tolist()):
        row = _xn_block(spec, params, trunc, n, taus[j:], s, 0.0, h[j:], h[j])
        sup = max(sup, float(np.linalg.norm(row, 2, axis=(-2, -1)).max()))
    return sup


def higher_order_bound_check(
    spec: DriveSpec,
    params: OscillatorParams,
    trunc: Truncation,
    p: int,
    t: float,
    s: float,
    interval_1: tuple[float, float],
    interval_2: tuple[float, float],
    grid_points: int = 16,
) -> TransitionBoundReport:
    """Order-p decay of transition amplitudes between spectral windows, with
    C_p = sup_xn_norm(p, grid_points).  The first-order bound
    2 sup||S_F||/dist is transition_bound_check's.
    """
    p = _integer_field(p, "p")
    grid_points = _integer_field(grid_points, "grid_points")
    if not 1 <= p <= 4:
        raise ValueError("p is limited to 1..4 at desk scale")
    if grid_points < 2:
        raise ValueError(f"grid_points must be >= 2, got {grid_points}")
    return _transition_bound(
        spec, params, trunc, p, t, s, interval_1, interval_2,
        lambda: sup_xn_norm(spec, params, trunc, p, grid_points),
    )
