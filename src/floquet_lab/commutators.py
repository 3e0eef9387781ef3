"""The X_n operators behind the higher-order transition bounds.

    X_n(t,s) = sum_k (n choose k) (-1)^k H(t)^{n-k} U(t,s) H(s)^k

stay bounded for the driven oscillator, and compressing them between
spectral projectors of H(t) and H(s) yields transition bounds that decay
like dist(Delta_1, Delta_2)^{-p}.  Left and right multiplication commute,
so the sum is X_n = (L_{H(t)} - R_{H(s)})^n U(t,s), the n-th step of
X_{k+1} = H(t) X_k - X_k H(s) from X_0 = U(t,s).  X_n is built two
independent ways, both by that two-sided recursion: from H(t), H(s) and
the factored U on the kept block (xn_operator), and in the co-rotating
frame as Z_{k+1} = K_F(t) Z_k - Z_k K_F(s) with K_F = H_F + S_F
(xn_operator_via_floquet).  verify's commutators suite checks one
against the other.
"""

from __future__ import annotations

import numpy as np

from .core_fock import OscillatorParams, TruncatedOperator, Truncation, matrix_exp
from .drive_model import DriveSpec, _check_finite, hamiltonian_at
from .floquet import (
    TransitionBoundReport,
    _hf_matrix,
    _sf_matrices,
    _transition_bound,
    _uf_matrix,
)
from .propagator import propagator_factored

__all__ = [
    "xn_operator",
    "xn_operator_via_floquet",
    "sup_xn_norm",
    "higher_order_bound_check",
]


# ---------------------------------------------------------------------------
# the X_n operators and the order-p transition bound


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
    if not 0 <= n <= 4:
        raise ValueError("n is limited to 0..4 at desk scale")
    nk = trunc.n_keep
    x = propagator_factored(spec, params, trunc, float(t), float(s)).entries
    h_t = hamiltonian_at(spec, params, float(t), nk)
    h_s = hamiltonian_at(spec, params, float(s), nk)
    for _ in range(n):
        x = h_t @ x - x @ h_s
    return TruncatedOperator(x)


def xn_operator_via_floquet(
    spec: DriveSpec,
    params: OscillatorParams,
    trunc: Truncation,
    n: int,
    t: float,
    s: float,
) -> TruncatedOperator:
    """Dual construction X_n = U_F(t) Z_n U_F(s)^{-1} with the recursion
    Z_{k+1} = K_F(t) Z_k - Z_k K_F(s), Z_0 = e^{-i(t-s)H_F}, where
    K_F(tau) = H_F + S_F(tau) = U_F(tau)^{-1} H(tau) U_F(tau): the recursion
    of xn_operator in the co-rotating frame.

    Independent of xn_operator except for the shared scalar kernels; used
    as its cross-check.
    """
    if not 0 <= n <= 4:
        raise ValueError("n is limited to 0..4 at desk scale")
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
    full = uf_t @ z @ np.linalg.inv(uf_s)
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
    and the grid fixes the third by the first two.
    """
    if grid_points < 1:
        raise ValueError(f"grid_points must be >= 1, got {grid_points}")
    big_t = params.period_T
    taus = np.linspace(0.0, big_t, grid_points, endpoint=False)
    sup = 0.0
    for ti in taus:
        for si in taus:
            xn = xn_operator(spec, params, trunc, n, float(ti), float(si)).entries
            sup = max(sup, float(np.linalg.norm(xn, 2)))
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
    if not 1 <= p <= 4:
        raise ValueError("p is limited to 1..4 at desk scale")
    if grid_points < 1:
        raise ValueError(f"grid_points must be >= 1, got {grid_points}")
    return _transition_bound(
        spec, params, trunc, p, t, s, interval_1, interval_2,
        lambda: sup_xn_norm(spec, params, trunc, p, grid_points),
    )
