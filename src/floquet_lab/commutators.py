"""Iterated commutators, the F_{p,k} word polynomials, and the
higher-order transition bounds they generate.

ad_A X = AX - XA, ad_A^{n+1} X = ad_A(ad_A^n X). Two closed identities
drive everything here:

    A^p B = sum_k (p choose k) (ad_A^{p-k} B) A^k,
    (A+B)^p = A^p + sum_{k<p} F_{p,k}(B, ad_A B, ad_A^2 B, ...) A^k,

where F_{p,k} is a polynomial in non-commuting symbols x_0, x_1, ...,
x_{p-k-1} with non-negative integer coefficients, generated by

    F_{1,0} = x_0,   F_{p,p} = 1,
    F_{p+1,k} = F_{p,k-1} + sum_{l=k}^{p} (l choose k) F_{p,l} x_{l-k}.

The operators

    X_n(t,s) = sum_k (n choose k) (-1)^k H(t)^{n-k} U(t,s) H(s)^k

stay bounded for the driven oscillator, and compressing them between
spectral projectors of H(t) and H(s) yields transition bounds that decay
like dist(Delta_1, Delta_2)^{-p}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core_fock import OscillatorParams, TruncatedOperator, Truncation, matrix_exp
from .drive_model import DriveSpec
from .errors import NumericError
from .floquet import (
    _BLOCK_NOTE,
    _hf_matrix,
    _sf_matrix,
    _sup_sf_norm,
    _transition_window,
    _uf_matrix,
)
from .oracle import hamiltonian_at
from .propagator import propagator_factored

__all__ = [
    "FPolynomial",
    "f_polynomial",
    "ap_commute",
    "xn_operator",
    "xn_operator_via_floquet",
    "sup_xn_norm",
    "HigherOrderBoundReport",
    "higher_order_bound_check",
]


# ---------------------------------------------------------------------------
# the F_{p,k} word polynomials


@dataclass(frozen=True)
class FPolynomial:
    """Polynomial in non-commuting symbols x_0 .. x_{p-k-1}.

    terms maps a word (tuple of symbol indices, read left to right as a
    product) to its non-negative integer coefficient; the empty word is
    the identity.
    """

    p: int
    k: int
    terms: tuple

    def coefficients(self) -> dict:
        return dict(self.terms)

    def evaluate(self, symbols: list) -> np.ndarray:
        """Substitute matrices for the symbols x_j and sum the words."""
        dim = symbols[0].shape[0]
        out = np.zeros((dim, dim), dtype=complex)
        for word, coeff in self.terms:
            acc = np.eye(dim, dtype=complex)
            for idx in word:
                acc = acc @ symbols[idx]
            out += coeff * acc
        return out

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "k": self.k,
            "terms": [
                {"coefficient": coeff, "word": list(word)} for word, coeff in self.terms
            ],
        }


def _canon(terms: dict) -> tuple:
    items = [(word, coeff) for word, coeff in terms.items() if coeff != 0]
    items.sort(key=lambda wc: (len(wc[0]), wc[0]))
    return tuple(items)


def f_polynomial(p: int, k: int) -> FPolynomial:
    """F_{p,k} built by the recursion from F_{1,0} = x_0, F_{p,p} = 1."""
    if not (0 <= k <= p):
        raise IndexError(f"need 0 <= k <= p, got p={p}, k={k}")
    if p < 1:
        raise IndexError("p must be >= 1")
    # row[k] = coefficient dict of F_{p,k}
    row = {0: {(0,): 1}, 1: {(): 1}}
    for q in range(1, p):
        nxt = {q + 1: {(): 1}}
        for kk in range(q + 1):
            acc: dict = {}
            if kk >= 1:
                for word, coeff in row[kk - 1].items():
                    acc[word] = acc.get(word, 0) + coeff
            for ell in range(kk, q + 1):
                mult = math.comb(ell, kk)
                for word, coeff in row[ell].items():
                    grown = word + (ell - kk,)
                    acc[grown] = acc.get(grown, 0) + mult * coeff
            nxt[kk] = acc
        row = nxt
    return FPolynomial(p=p, k=k, terms=_canon(row[k]))


def ap_commute(a: TruncatedOperator, b: TruncatedOperator, p: int) -> TruncatedOperator:
    """A^p B rewritten as sum_k (p choose k)(ad_A^{p-k} B) A^k.

    Returns the rewritten sum after verifying it against the direct
    product.
    """
    am = a.entries if isinstance(a, TruncatedOperator) else np.asarray(a, dtype=complex)
    bm = b.entries if isinstance(b, TruncatedOperator) else np.asarray(b, dtype=complex)
    if p < 0:
        raise ValueError("p must be >= 0")
    dim = am.shape[0]
    ad_pows = [bm]
    for _ in range(p):
        ad_pows.append(am @ ad_pows[-1] - ad_pows[-1] @ am)
    a_pows = [np.eye(dim, dtype=complex)]
    for _ in range(p):
        a_pows.append(a_pows[-1] @ am)
    out = np.zeros_like(bm)
    for k in range(p + 1):
        out += math.comb(p, k) * (ad_pows[p - k] @ a_pows[k])
    direct = a_pows[p] @ bm
    scale = max(float(np.linalg.norm(direct)), 1.0)
    if float(np.linalg.norm(out - direct)) > 1e-10 * scale:
        raise NumericError(f"A^p B rewriting failed self-check at p={p}")
    return TruncatedOperator(out)


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
    """X_n(t,s) = sum_k (n choose k)(-1)^k H(t)^{n-k} U(t,s) H(s)^k on the
    kept block."""
    if not 0 <= n <= 4:
        raise ValueError("n is limited to 0..4 at desk scale")
    nk = trunc.n_keep
    u = propagator_factored(spec, params, trunc, float(t), float(s)).entries
    h_t = hamiltonian_at(spec, params, float(t), nk)
    h_s = hamiltonian_at(spec, params, float(s), nk)
    ht_pows = [np.eye(nk, dtype=complex)]
    hs_pows = [np.eye(nk, dtype=complex)]
    for _ in range(n):
        ht_pows.append(ht_pows[-1] @ h_t)
        hs_pows.append(hs_pows[-1] @ h_s)
    out = np.zeros((nk, nk), dtype=complex)
    for k in range(n + 1):
        out += math.comb(n, k) * ((-1) ** k) * (ht_pows[n - k] @ u @ hs_pows[k])
    return TruncatedOperator(out)


def xn_operator_via_floquet(
    spec: DriveSpec,
    params: OscillatorParams,
    trunc: Truncation,
    n: int,
    t: float,
    s: float,
) -> TruncatedOperator:
    """Dual construction X_n = U_F(t) Z_n U_F(s)^{-1} with the recursion
    Z_{n+1} = ad_{H_F} Z_n + S_F(t) Z_n - Z_n S_F(s), Z_0 = e^{-i(t-s)H_F}.

    Independent of the direct binomial assembly except for the shared
    scalar kernels; used as its cross-check.
    """
    if not 0 <= n <= 4:
        raise ValueError("n is limited to 0..4 at desk scale")
    nk = trunc.n_keep
    hf = _hf_matrix(spec, params, trunc.dim)
    z = matrix_exp(-1j * (float(t) - float(s)) * hf)
    sf_t = _sf_matrix(spec, params, float(t), trunc.dim)
    sf_s = _sf_matrix(spec, params, float(s), trunc.dim)
    for _ in range(n):
        z = (hf @ z - z @ hf) + sf_t @ z - z @ sf_s
    uf_t = _uf_matrix(spec, params, float(t), trunc.dim)
    uf_s = _uf_matrix(spec, params, float(s), trunc.dim)
    full = uf_t @ z @ np.linalg.inv(uf_s)
    return TruncatedOperator(full[:nk, :nk].copy())


def sup_xn_norm(
    spec: DriveSpec,
    params: OscillatorParams,
    trunc: Truncation,
    n: int,
    grid_points: int = 16,
) -> float:
    """max ||X_n(t,s)|| over a uniform grid on [0,T]^2, kept block.

    Periodicity of the Floquet construction reduces the sup over the
    whole plane to one period square.
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


@dataclass
class HigherOrderBoundReport:
    """||P(t,D1) U(t,s) P(s,D2)|| <= C_p / dist^p with C_p = sup ||X_p||."""

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
    first_order_rhs: float | None
    block_note: str = field(default=_BLOCK_NOTE)

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "t": float(self.t),
            "s": float(self.s),
            "interval_1": [float(v) for v in self.interval_1],
            "interval_2": [float(v) for v in self.interval_2],
            "dist": float(self.dist),
            "lhs": float(self.lhs),
            "c_p": float(self.c_p),
            "rhs": float(self.rhs),
            "ok": self.ok,
            "first_order_rhs": None
            if self.first_order_rhs is None
            else float(self.first_order_rhs),
            "block_note": self.block_note,
        }


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
    c_p: float | None = None,
) -> HigherOrderBoundReport:
    """Order-p decay of transition amplitudes between spectral windows.

    Pass a precomputed c_p to reuse one grid sup across several interval
    pairs. At p = 1 the first-order bound 2 sup||S_F||/dist is reported
    alongside for comparison.
    """
    if not 1 <= p <= 4:
        raise ValueError("p is limited to 1..4 at desk scale")
    if grid_points < 1:
        raise ValueError(f"grid_points must be >= 1, got {grid_points}")
    win = _transition_window(spec, params, trunc, t, s, interval_1, interval_2)

    if c_p is None:
        c_p = sup_xn_norm(spec, params, trunc, p, grid_points)
    rhs = c_p / win.dist**p
    first_order = None
    if p == 1:
        first_order = 2.0 * _sup_sf_norm(spec, params, trunc) / win.dist
    return HigherOrderBoundReport(
        p=p,
        t=float(t),
        s=float(s),
        interval_1=win.interval_1,
        interval_2=win.interval_2,
        dist=win.dist,
        lhs=win.lhs,
        c_p=float(c_p),
        rhs=float(rhs),
        ok=win.lhs <= rhs * (1.0 + 1e-6),
        first_order_rhs=first_order,
    )
