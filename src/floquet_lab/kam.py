"""Iterative diagonalization of a quasi-periodically perturbed Floquet
matrix.

The arena is the Fourier x level space: basis vectors |k, (m, j)> with
k in [-k_max, k_max] and j running over the multiplicity of level m. The
unperturbed operator is diagonal,

    K_0 |k, (m, j)> = (k omega + h_m) |k, (m, j)>,

and the perturbation V is a multiplication operator in time, i.e. block
Toeplitz in k: its (k1, k2) block depends only on q = k1 - k2. Every
operator the iteration touches shares that structure (it commutes with
the Fourier shift), so the engine stores operators as symbols: arrays of
level-space blocks S_q for |q| <= cap = 6 k_max (or V's band, if
wider). A symbol acts on functions of theta = omega t as
multiplication by the matrix function S(theta) = sum_q e^{i q theta} S_q
(the symbol calculus of block-Toeplitz operators; Boettcher &
Silbermann). Products, exp(A) and the functions of ad_A therefore act
pointwise on a grid of at least 3 cap + 1 angles, and an FFT returns
their blocks: exactly for a product of two symbols, and up to aliasing
from |q| > 2 cap, far below round-off for the small generators of a KAM
step, for a function of ad_A. Only ad_{K_0}, which differentiates in
theta, acts on the blocks themselves. The k truncation enters only when
a symbol is materialized to a dense window, which is done for norms only.

The recursion (G_{-1} = 0, G_0 = V_0, Phi(x) = (1/x)(e^x - (e^x-1)/x)):

    [A_s, K_0 + D(G_s)] = -(1-D)(G_s - G_{s-1}),
    G_{s+1} = G_s + exp(ad_{A_s}) ... exp(ad_{A_0})(V_{s+1} - V_s)
              + ad_{A_s} Phi(ad_{A_s})(1-D)(G_s - G_{s-1}),
    W_s = e^{A_{s-1}} ... e^{A_0},

drives ||(1-D)(W_s(K_0+V)W_s^+ - K_0)|| to zero unless a small
denominator k omega + h_n - h_m obstructs the homological equation, in
which case the run aborts with the offending pair. Converged runs
satisfy W(K_0+V)W^+ = K_0 + D(G_inf) and reconstruct the propagator of
H_0 + V(omega t) as U(t,s) = W(t)* e^{-i(t-s)(H_0+G)} W(s).
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy import fft as sp_fft

from .core_fock import TruncatedOperator, matrix_exp
from .errors import NotConvergedError, NumericError, SmallDenominatorError

__all__ = [
    "FloquetMatrixSpace",
    "BlockPerturbation",
    "random_perturbation",
    "detect_resonances",
    "eps_v_norm",
    "weighted_block_norm",
    "KamConfig",
    "KamState",
    "KamResult",
    "kam_iterate",
    "level_hamiltonian",
    "reconstruct_propagator",
    "load_problem",
    "problem_to_json_dict",
    "history_to_jsonl",
]

# symbols keep Fourier offsets |q| <= _BAND_CAP_FACTOR * k_max (or V's band)
_BAND_CAP_FACTOR = 6


@dataclass(frozen=True)
class FloquetMatrixSpace:
    """Truncated Fourier x level arena for the iteration.

    levels is a sequence of (h_m, multiplicity) with pairwise distinct
    eigenvalues; the gap Delta_0 = min |h_m - h_n| must be positive.
    Basis ordering is k outer (ascending), level inner.
    """

    k_max: int
    levels: tuple
    omega: float

    def __post_init__(self):
        if not isinstance(self.k_max, int) or self.k_max < 0:
            raise ValueError(f"k_max must be a non-negative integer, got {self.k_max}")
        if not (math.isfinite(self.omega) and self.omega > 0):
            raise ValueError(f"omega must be positive and finite, got {self.omega}")
        lv = tuple((float(h), int(m)) for h, m in self.levels)
        if not lv:
            raise ValueError("levels must be non-empty")
        for h, m in lv:
            if not math.isfinite(h):
                raise ValueError("level eigenvalues must be finite")
            if m < 1:
                raise ValueError("level multiplicities must be >= 1")
        hs = [h for h, _ in lv]
        gaps = [abs(a - b) for i, a in enumerate(hs) for b in hs[i + 1 :]]
        if gaps and min(gaps) <= 0.0:
            raise ValueError("level eigenvalues must be pairwise distinct (Delta_0 > 0)")
        object.__setattr__(self, "levels", lv)

    @property
    def n_levels(self) -> int:
        return len(self.levels)

    @property
    def level_dim(self) -> int:
        return sum(m for _, m in self.levels)

    @property
    def total_dim(self) -> int:
        return (2 * self.k_max + 1) * self.level_dim

    @property
    def h_expanded(self) -> np.ndarray:
        """Level eigenvalue at each of the L level-space basis indices."""
        return np.repeat([h for h, _ in self.levels], [m for _, m in self.levels])

    @property
    def level_of_index(self) -> np.ndarray:
        return np.repeat(np.arange(self.n_levels), [m for _, m in self.levels])

    def level_slice(self, n: int) -> slice:
        start = sum(m for _, m in self.levels[:n])
        return slice(start, start + self.levels[n][1])

    @property
    def delta_0(self) -> float:
        hs = [h for h, _ in self.levels]
        return min(abs(a - b) for i, a in enumerate(hs) for b in hs[i + 1 :]) if len(hs) > 1 else math.inf


# ---------------------------------------------------------------------------
# symbols: (2 cap + 1, L, L) arrays, block S_q at index q + cap


def _cap(sym: np.ndarray) -> int:
    return (len(sym) - 1) // 2

def _as_array(sym: dict, cap: int, ell: int) -> np.ndarray:
    out = np.zeros((2 * cap + 1, ell, ell), dtype=complex)
    for q, blk in sym.items():
        out[q + cap] = blk
    return out

def _as_dict(sym: np.ndarray) -> dict:
    """Non-zero blocks of an array symbol keyed by q, ascending."""
    return {q - _cap(sym): blk.copy() for q, blk in enumerate(sym) if np.any(blk)}

def _to_grid(sym: np.ndarray, n_grid: int) -> np.ndarray:
    """S(theta_j) at theta_j = 2 pi j / n_grid, j = 0 .. n_grid - 1."""
    cap = _cap(sym)
    padded = np.zeros((n_grid,) + sym.shape[1:], dtype=complex)
    padded[: cap + 1] = sym[cap:]
    padded[n_grid - cap :] = sym[:cap]
    return sp_fft.ifft(padded, axis=0, norm="forward")

def _from_grid(vals: np.ndarray, cap: int) -> np.ndarray:
    """Fourier blocks |q| <= cap of grid values; exact for a product of two
    cap-band symbols when the grid has at least 3 cap + 1 points."""
    coef = sp_fft.fft(vals, axis=0, norm="forward")
    return np.concatenate([coef[len(coef) - cap :], coef[: cap + 1]])

def _dagger(vals: np.ndarray) -> np.ndarray:
    return vals.conj().swapaxes(-1, -2)

def _adjoint(sym: np.ndarray) -> np.ndarray:
    """Symbol of the adjoint operator: (S^+)_q = (S_{-q})^+."""
    return _dagger(sym[::-1])

def _grid_size(cap: int) -> int:
    return sp_fft.next_fast_len(3 * cap + 1)

def _denominators(space: FloquetMatrixSpace, cap: int, d: np.ndarray) -> np.ndarray:
    """q omega + d_a - d_b for every q in [-cap, cap]."""
    q = np.arange(-cap, cap + 1)[:, None, None]
    return q * space.omega + d[:, None] - d[None, :]

def _same_level(space: FloquetMatrixSpace) -> np.ndarray:
    level_of = space.level_of_index
    return level_of[:, None] == level_of[None, :]

def _block_diag(space: FloquetMatrixSpace, mat: np.ndarray) -> np.ndarray:
    return np.where(_same_level(space), mat, 0.0)

def _sym_d(space: FloquetMatrixSpace, x: np.ndarray) -> np.ndarray:
    """Diagonal part w.r.t. the K_0 decomposition: q = 0, same level."""
    out = np.zeros_like(x)
    out[_cap(x)] = _block_diag(space, x[_cap(x)])
    return out

def _sym_offd(space: FloquetMatrixSpace, x: np.ndarray) -> np.ndarray:
    return x - _sym_d(space, x)

def _materialize(space: FloquetMatrixSpace, sym: np.ndarray) -> np.ndarray:
    """Dense window: block (k1, k2) = S_{k1 - k2}, zero beyond the cap."""
    cap, nk, ell = _cap(sym), 2 * space.k_max + 1, space.level_dim
    out = np.zeros((nk, ell, nk, ell), dtype=complex)
    for q in range(-min(cap, nk - 1), min(cap, nk - 1) + 1):
        if np.any(sym[q + cap]):  # zero blocks leave their pages untouched
            k1 = np.arange(max(q, 0), nk + min(q, 0))
            out[k1, :, k1 - q] = sym[q + cap]
    return out.reshape(space.total_dim, space.total_dim)

def _dense_norm(mat: np.ndarray) -> float:
    """Spectral norm; an exactly zero matrix returns 0.0 without an SVD."""
    return float(np.linalg.norm(mat, 2)) if np.any(mat) else 0.0

def _sym_norm(space: FloquetMatrixSpace, sym: np.ndarray) -> float:
    return _dense_norm(_materialize(space, sym)) if np.any(sym) else 0.0

def _spectral_norms(mats: list) -> list:
    """Spectral norms of matrices or stacks of matrices (the last two axes).

    One np.linalg.norm call per distinct matrix shape; the batched SVD
    gives each matrix the value a call on it alone would.
    """
    groups: dict = {}
    for i, mat in enumerate(mats):
        groups.setdefault(mat.shape[-2:], []).append(i)
    out: list = [None] * len(mats)
    for shape, idx in groups.items():
        flat = [mats[i].reshape(-1, *shape) for i in idx]
        norms = np.linalg.norm(np.concatenate(flat), 2, axis=(-2, -1))
        bounds = np.cumsum([len(f) for f in flat])[:-1]
        for i, part in zip(idx, np.split(norms, bounds)):
            out[i] = part.reshape(mats[i].shape[:-2])
    return out


# ---------------------------------------------------------------------------
# the perturbation


@dataclass(frozen=True)
class BlockPerturbation:
    """Fourier blocks V_{knm} of a T-periodic level-space perturbation.

    blocks maps (k, n, m) -> complex matrix of shape M_n x M_m; the
    multiplication operator V(omega t) = sum_k e^{i k omega t} V_k is
    self-adjoint iff V_{knm} = (V_{-k,m,n})^+ for every block.
    """

    blocks: dict

    def __post_init__(self):
        norm_blocks = {}
        scale = 0.0
        for (k, n, m), blk in self.blocks.items():
            arr = np.asarray(blk, dtype=complex)
            if arr.ndim != 2:
                raise ValueError(f"block {(k, n, m)} is not a matrix")
            norm_blocks[(int(k), int(n), int(m))] = arr
            scale = max(scale, float(np.abs(arr).max(initial=0.0)))
        for (k, n, m), arr in norm_blocks.items():
            partner = norm_blocks.get((-k, m, n))
            hermit = partner.conj().T if partner is not None else np.zeros_like(arr).T
            if np.abs(arr - hermit).max(initial=0.0) > 1e-12 * max(scale, 1.0):
                raise ValueError(
                    f"hermiticity violated: V[{k},{n},{m}] != V[{-k},{m},{n}]^+"
                )
        object.__setattr__(self, "blocks", norm_blocks)

    @classmethod
    def zero(cls) -> "BlockPerturbation":
        return cls(blocks={})

    def symbol(self, space: FloquetMatrixSpace) -> dict:
        ell = space.level_dim
        out: dict = {}
        for (k, n, m), blk in self.blocks.items():
            if n >= space.n_levels or m >= space.n_levels:
                raise ValueError(f"block {(k, n, m)} references a level outside the space")
            sl_n, sl_m = space.level_slice(n), space.level_slice(m)
            exp_n, exp_m = space.levels[n][1], space.levels[m][1]
            if blk.shape != (exp_n, exp_m):
                raise ValueError(
                    f"block {(k, n, m)} has shape {blk.shape}, expected {(exp_n, exp_m)}"
                )
            target = out.setdefault(k, np.zeros((ell, ell), dtype=complex))
            target[sl_n, sl_m] += blk
        return {q: blk for q, blk in out.items() if np.any(blk)}

    def to_json_list(self) -> list:
        items = []
        for (k, n, m) in sorted(self.blocks):
            blk = self.blocks[(k, n, m)]
            items.append(
                {
                    "k": k,
                    "n": n,
                    "m": m,
                    "re": blk.real.tolist(),
                    "im": blk.imag.tolist(),
                }
            )
        return items

    @classmethod
    def from_json_list(cls, items: list) -> "BlockPerturbation":
        blocks = {}
        for it in items:
            blk = np.asarray(it["re"], dtype=float) + 1j * np.asarray(it["im"], dtype=float)
            blocks[(int(it["k"]), int(it["n"]), int(it["m"]))] = blk
        return cls(blocks=blocks)


def random_perturbation(
    space: FloquetMatrixSpace,
    rng: np.random.Generator,
    k_band: int,
    r: float,
    eps_target: float,
) -> BlockPerturbation:
    """Dense random Hermitian perturbation scaled to eps_v_norm = eps_target."""
    blocks = {}
    for k in range(0, k_band + 1):
        for n in range(space.n_levels):
            for m in range(space.n_levels):
                if k == 0 and m < n:
                    continue
                shape = (space.levels[n][1], space.levels[m][1])
                blk = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                if k == 0 and n == m:
                    blk = 0.5 * (blk + blk.conj().T)
                blocks[(k, n, m)] = blk
                if (k, n, m) != (0, m, n):
                    blocks[(-k, m, n)] = blk.conj().T
    v = BlockPerturbation(blocks=blocks)
    eps = eps_v_norm(v, r)
    if eps == 0.0:
        return v
    factor = eps_target / eps
    return BlockPerturbation(
        blocks={key: factor * blk for key, blk in v.blocks.items()}
    )


def detect_resonances(space: FloquetMatrixSpace, tol: float | None = None) -> list:
    """Near-collisions q omega + h_n - h_m ~ 0 between distinct cells.

    Returns a sorted list of (q, n, m, gap) with |gap| < tol, excluding
    the trivial q = 0, n = m case. These are exactly the couplings whose
    homological denominators vanish.
    """
    if tol is None:
        tol = 1e-8 * space.omega
    hs = [h for h, _ in space.levels]
    hits = []
    for q in range(-2 * space.k_max, 2 * space.k_max + 1):
        for n, hn in enumerate(hs):
            for m, hm in enumerate(hs):
                if q == 0 and n == m:
                    continue
                gap = q * space.omega + hn - hm
                if abs(gap) < tol:
                    hits.append((q, n, m, gap))
    hits.sort(key=lambda item: (abs(item[3]), item[0], item[1], item[2]))
    return hits


def eps_v_norm(v: BlockPerturbation, r: float) -> float:
    """eps_V = sup_n sum_m sum_k (1 + |k|)^r ||V_{knm}||.

    ||V_{knm}|| is the spectral norm of each block, taken in one batched
    call per block shape; zero blocks contribute zero.
    """
    if r < 0:
        raise ValueError("r must be >= 0")
    norms = _spectral_norms(list(v.blocks.values()))
    per_n: dict = {}
    for (k, n, m), norm in zip(v.blocks, norms):
        w = (1.0 + abs(k)) ** r * float(norm)
        per_n[n] = per_n.get(n, 0.0) + w
    return max(per_n.values(), default=0.0)


def weighted_block_norm(space: FloquetMatrixSpace, sym: dict, nu: float) -> float:
    """sup_n sum_m sum_k (1+|k|)^nu ||X_{knm}|| for a symbol-form operator.

    ||X_{knm}|| is the spectral norm of the (n, m) level sub-block of the
    symbol's k block, taken in one batched call per sub-block shape; zero
    sub-blocks contribute zero.
    """
    if not sym:
        return 0.0
    stack = np.stack(list(sym.values()))
    slices = [space.level_slice(n) for n in range(space.n_levels)]
    norms = _spectral_norms([stack[:, sn, sm] for sn in slices for sm in slices])
    weights = np.array([(1.0 + abs(q)) ** nu for q in sym])
    # terms[n, m, q]; add.accumulate sums each row in order, q then m, where
    # np.sum would sum pairwise, so the row sums match a per-block loop's
    terms = (np.array(norms) * weights).reshape(space.n_levels, space.n_levels, -1)
    per_n = np.add.accumulate(terms.transpose(0, 2, 1).reshape(space.n_levels, -1), axis=1)
    return float(per_n[:, -1].max())


# ---------------------------------------------------------------------------
# the homological equation


def _solve_sym(
    space: FloquetMatrixSpace,
    e_level: np.ndarray,
    y: np.ndarray,
    guard: float,
) -> tuple[np.ndarray, float]:
    """Symbol-form homological solve against K_0 dressed by the level
    matrix e_level = D(G) blocks; returns (A, min denominator used).

    The first needed denominator below the guard, by ascending q and then
    row-major within the block, aborts the solve."""
    # rotate within level blocks so the dressed diagonal is scalar
    ell = space.level_dim
    rot = np.eye(ell, dtype=complex)
    d = space.h_expanded.astype(float).copy()
    for n in range(space.n_levels):
        sl = space.level_slice(n)
        blk = e_level[sl, sl]
        if blk.shape[0] == 1:
            d[sl.start] += float(blk[0, 0].real)
        else:
            vals, vecs = np.linalg.eigh(blk)
            rot[sl, sl] = vecs
            d[sl] += vals
    rotated = rot.conj().T @ y @ rot
    cap = _cap(y)
    denom = _denominators(space, cap, d)
    needed = rotated != 0.0
    needed[cap] &= ~_same_level(space)
    bad = needed & (np.abs(denom) < guard)
    if np.any(bad):
        qi, a_idx, b_idx = np.argwhere(bad)[0]
        q, level_of = int(qi) - cap, space.level_of_index
        raise SmallDenominatorError(
            f"denominator {denom[qi, a_idx, b_idx]:.3e} below guard {guard:.3e} "
            f"for coupling q={q}, levels "
            f"{level_of[a_idx]} and {level_of[b_idx]}",
            pair=(q, int(level_of[a_idx]), int(level_of[b_idx])),
            gap=float(denom[qi, a_idx, b_idx]),
        )
    min_denom = float(np.abs(denom[needed]).min()) if np.any(needed) else math.inf
    a_sym = np.zeros_like(rotated)
    np.divide(rotated, denom, out=a_sym, where=needed)
    return rot @ a_sym @ rot.conj().T, min_denom


# ---------------------------------------------------------------------------
# the iteration


def _is_number(value, kind=numbers.Real) -> bool:
    """A finite number of the given kind; a bool is not a number here."""
    return isinstance(value, kind) and not isinstance(value, bool) and math.isfinite(value)


@dataclass(frozen=True)
class KamConfig:
    max_iters: int = 20
    tol: float = 1e-10
    min_denom_guard: float | None = None
    schedule: str = "constant"
    r_weight: float = 2.0
    nu_weight: float = 1.0

    def __post_init__(self):
        if self.schedule not in ("constant", "fourier_cutoff"):
            raise ValueError(f"unknown schedule {self.schedule!r}")
        if not (_is_number(self.max_iters, numbers.Integral) and self.max_iters >= 1):
            raise ValueError(f"max_iters must be an integer >= 1, got {self.max_iters!r}")
        if not (_is_number(self.tol) and self.tol > 0):
            raise ValueError(f"tol must be a positive finite number, got {self.tol!r}")
        if not (_is_number(self.r_weight) and self.r_weight >= 0):
            raise ValueError(f"r_weight must be a finite number >= 0, got {self.r_weight!r}")
        if not _is_number(self.nu_weight):
            raise ValueError(f"nu_weight must be a finite number, got {self.nu_weight!r}")
        guard = self.min_denom_guard
        if guard is not None and not (isinstance(guard, float) and math.isfinite(guard) and guard > 0):
            raise ValueError(f"min_denom_guard must be None or a positive finite float, got {guard!r}")


@dataclass
class KamState:
    """Residuals after iteration s, W_s = e^{A_{s-1}} ... e^{A_0}.

    The norms are spectral norms of the dense windows of the
    block-Toeplitz operators, which are not kept. A window of a lattice
    unitary is not unitary at its k edges, so unitary_w_residual
    measures the operator itself: the worst level-space defect of
    W_s(t) over a period.
    """

    s: int
    offdiag_residual: float
    min_denominator: float
    eps_v: float
    conj_residual: float
    herm_g_residual: float
    antiherm_a_residual: float
    unitary_w_residual: float

    def summary_dict(self) -> dict:
        return {
            "s": self.s,
            "offdiag_residual": float(self.offdiag_residual),
            "min_denominator": None
            if math.isinf(self.min_denominator)
            else float(self.min_denominator),
            "eps_v": float(self.eps_v),
            "conj_residual": float(self.conj_residual),
            "herm_g_residual": float(self.herm_g_residual),
            "antiherm_a_residual": float(self.antiherm_a_residual),
            "unitary_w_residual": float(self.unitary_w_residual),
        }


@dataclass
class KamResult:
    """Outcome of kam_iterate.

    status is "converged", "small_denominator_abort", or
    "iteration_limit". history holds one KamState per iteration. A
    converged run sets w_blocks, the Fourier symbols of W, and g_level,
    the level-space block of D(G_inf); both feed the propagator
    reconstruction.
    """

    status: str
    space: FloquetMatrixSpace
    history: list
    w_blocks: dict | None = None
    g_level: np.ndarray | None = None
    iterations: int = 0
    final_residual: float = math.nan
    edge_leak: float = 0.0
    w_weighted_norm: float = math.nan
    abort_pair: tuple | None = None
    abort_gap: float | None = None
    message: str = ""

    @property
    def converged(self) -> bool:
        return self.status == "converged"

    def propagator(self, t: float, s: float) -> TruncatedOperator:
        if not self.converged:
            raise NotConvergedError(
                f"cannot reconstruct a propagator from status {self.status!r}",
                iterations=self.iterations,
                residual=self.final_residual,
            )
        return reconstruct_propagator(self.space, self.w_blocks, self.g_level, t, s)


def _schedule_symbol(
    space: FloquetMatrixSpace, v_sym: np.ndarray, config: KamConfig, s: int
) -> np.ndarray:
    """V_s: V itself, or under the Fourier cutoff schedule its |q| <= k_s part."""
    if config.schedule == "constant":
        return v_sym
    cuts, c = [], 1
    while c < space.k_max:
        cuts.append(c)
        c *= 2
    q = np.abs(np.arange(len(v_sym)) - _cap(v_sym))[:, None, None]
    return np.where(q <= (cuts[s] if s < len(cuts) else space.k_max), v_sym, 0.0)


def _conjugate(w_vals: np.ndarray, x: np.ndarray) -> np.ndarray:
    """W X W^+ for W given by its grid values and X by its symbol."""
    return _from_grid(w_vals @ _to_grid(x, len(w_vals)) @ _dagger(w_vals), _cap(x))


class _PointwiseAd:
    """Functions of ad_A for an anti-Hermitian symbol A, applied pointwise.

    iA(theta) = U diag(mu) U^+ on the grid, so e^A = U e^{-i mu} U^+ and
    ad_A multiplies entry (a, b) of U^+ X U by x = -i delta, delta =
    mu_a - mu_b. On that basis exp(ad_A) is e^x (exp), the series
    sum_{n>=1} ad_A^{n-1} / n! is E1(x) = expm1(x) / x = e^{x/2}
    sinc(delta / 2 pi) (e1), and ad_A Phi(ad_A) is e^x - E1(x).
    """

    def __init__(self, a_sym: np.ndarray, n_grid: int):
        self.mu, self.u = np.linalg.eigh(1j * _to_grid(a_sym, n_grid))
        self.uh = _dagger(self.u)
        delta = self.mu[:, :, None] - self.mu[:, None, :]
        self.exp = np.exp(-1j * delta)
        self.e1 = np.exp(-0.5j * delta) * np.sinc(delta / (2 * math.pi))
        self.n_grid, self.cap = n_grid, _cap(a_sym)

    def apply(self, *terms) -> np.ndarray:
        """sum_k f_k(ad_A) X_k for (factor of f_k, symbol X_k) pairs."""
        acc = sum(f * (self.uh @ _to_grid(x, self.n_grid) @ self.u) for f, x in terms)
        return _from_grid(self.u @ acc @ self.uh, self.cap)

    def expm1_times(self, vals: np.ndarray) -> np.ndarray:
        """(e^{A(theta)} - 1) Y(theta) for grid values Y."""
        return (self.u * np.expm1(-1j * self.mu)[:, None, :]) @ self.uh @ vals


def _kam_step(a_sym, n_grid, w_sym, g, dv, rhs, c, k0_gaps) -> tuple:
    """Conjugate by e^{A_s}: (W_{s+1}, G_{s+1}, c_{s+1}) from W_s, G_s, c_s,
    V_{s+1} - V_s and the homological right-hand side (1-D)(G_s - G_{s-1}).

    A function of its own so that the grid arrays are freed before the
    next record materializes its norm windows (peak memory)."""
    ad = _PointwiseAd(a_sym, n_grid)
    # W_{s+1} = e^{A_s} W_s. Only the step goes through the grid, so the
    # transform's round-off scales with A_s, not with the identity in W.
    w_vals = _to_grid(w_sym, n_grid)
    w_step = ad.expm1_times(w_vals)
    # G_{s+1} = G_s + exp(ad_{A_s}) ... exp(ad_{A_0}) (V_{s+1} - V_s)
    #           + ad_{A_s} Phi(ad_{A_s}) (1-D)(G_s - G_{s-1})
    if np.any(dv):
        g = g + _conjugate(w_vals + w_step, dv)
    g = g + ad.apply((ad.exp - ad.e1, rhs))
    # for X = K_0 + c: e^A X e^{-A} = K_0 + exp(ad_A) c + E1(ad_A) B, B = -ad_{K_0} A
    c = ad.apply((ad.exp, c), (ad.e1, -k0_gaps * a_sym))
    return w_sym + _from_grid(w_step, _cap(w_sym)), g, c


def kam_iterate(
    space: FloquetMatrixSpace,
    v: BlockPerturbation,
    config: KamConfig | None = None,
) -> KamResult:
    """Run the G_s/A_s recurrence until the off-diagonal residual of
    W_s(K_0+V)W_s^+ - K_0 falls below tol.

    Operators are symbols with Fourier offsets capped at cap =
    _BAND_CAP_FACTOR * k_max, widened to V's band if that reaches further.
    Each iteration takes one batched eigh of the
    Hermitian iA_s(theta) on the theta grid; in that eigenbasis exp(A_s)
    and every function of ad_{A_s} the recurrence needs is an entrywise
    factor (see _PointwiseAd).
    """
    if config is None:
        config = KamConfig()
    guard = config.min_denom_guard
    if guard is None:
        guard = 1e-8 * space.omega
    ell = space.level_dim
    v_dict = v.symbol(space)
    # the symbols hold V whole, however far its Fourier band reaches
    cap = max(1, _BAND_CAP_FACTOR * space.k_max, *map(abs, v_dict))
    n_grid = _grid_size(cap)
    k0_gaps = _denominators(space, cap, space.h_expanded)

    v_sym = _as_array(v_dict, cap, ell)
    v_herm_dev = np.linalg.norm(v_sym - _adjoint(v_sym))
    if v_herm_dev > 1e-12 * max(1.0, float(np.linalg.norm(v_sym))):
        raise ValueError("perturbation is not Hermitian as a total operator")
    eps_v = eps_v_norm(v, config.r_weight)
    edge_leak = sum(
        float(np.linalg.norm(blk, 2)) for q, blk in v_dict.items() if abs(q) == space.k_max
    )

    def v_s(s: int) -> np.ndarray:
        return _schedule_symbol(space, v_sym, config, s)

    g = v_s(0)                      # G_0 = V_0
    delta_g = g                     # G_s - G_{s-1}, with G_{-1} = 0
    w_sym = np.zeros_like(v_sym)
    w_sym[cap] = np.eye(ell)
    # c = W_s (K_0 + V) W_s^+ - K_0, maintained incrementally
    c = v_sym
    history: list = []
    taus = np.linspace(0.0, 2 * math.pi / space.omega, 24, endpoint=False)
    w_phases = np.exp(1j * np.arange(-cap, cap + 1) * space.omega * taus[:, None])

    def _record(s: int, a_sym: np.ndarray | None, offdiag: float, min_denom: float):
        a_sym = np.zeros_like(g) if a_sym is None else a_sym
        wt = np.tensordot(w_phases, w_sym, axes=1)
        w_unit = float(np.linalg.norm(wt @ _dagger(wt) - np.eye(ell), 2, axis=(-2, -1)).max())
        # conjugation identity for the schedule operator V_s
        c_sched = c
        dv = v_s(s) - v_sym
        if np.any(dv):
            c_sched = c + _conjugate(_to_grid(w_sym, n_grid), dv)
        target = _sym_d(space, g) + _sym_offd(space, delta_g)
        history.append(
            KamState(
                s=s,
                offdiag_residual=offdiag,
                min_denominator=min_denom,
                eps_v=eps_v,
                conj_residual=_sym_norm(space, c_sched - target),
                herm_g_residual=_sym_norm(space, g - _adjoint(g)),
                antiherm_a_residual=_sym_norm(space, a_sym + _adjoint(a_sym)),
                unitary_w_residual=w_unit,
            )
        )

    for s in range(config.max_iters + 1):
        offdiag = _sym_norm(space, _sym_offd(space, c))
        if offdiag < config.tol:
            _record(s, None, offdiag, math.inf)
            g_level = _block_diag(space, g[cap])
            w_blocks = _as_dict(w_sym)
            return KamResult(
                status="converged",
                space=space,
                history=history,
                w_blocks=w_blocks,
                g_level=0.5 * (g_level + g_level.conj().T),
                iterations=s,
                final_residual=offdiag,
                edge_leak=edge_leak,
                w_weighted_norm=weighted_block_norm(space, w_blocks, config.nu_weight),
                message=f"off-diagonal residual {offdiag:.3e} below tol after {s} iterations",
            )
        if s == config.max_iters:
            _record(s, None, offdiag, math.inf)
            return KamResult(
                status="iteration_limit",
                space=space,
                history=history,
                iterations=s,
                final_residual=offdiag,
                edge_leak=edge_leak,
                message=f"residual {offdiag:.3e} still above tol {config.tol:.3e}",
            )

        rhs = _sym_offd(space, delta_g)
        try:
            a_sym, min_denom = _solve_sym(space, _block_diag(space, g[cap]), rhs, guard)
        except SmallDenominatorError as err:
            _record(s, None, offdiag, abs(err.gap) if err.gap is not None else math.nan)
            return KamResult(
                status="small_denominator_abort",
                space=space,
                history=history,
                iterations=s,
                final_residual=offdiag,
                edge_leak=edge_leak,
                abort_pair=err.pair,
                abort_gap=err.gap,
                message=str(err),
            )
        _record(s, a_sym, offdiag, min_denom)

        w_sym, g_next, c = _kam_step(a_sym, n_grid, w_sym, g, v_s(s + 1) - v_s(s), rhs, c, k0_gaps)
        delta_g = g_next - g
        g = g_next

    raise NumericError("kam_iterate exited its loop without a result")


# ---------------------------------------------------------------------------
# propagator reconstruction and problem I/O


def level_hamiltonian(
    space: FloquetMatrixSpace, v: BlockPerturbation, t: float
) -> np.ndarray:
    """H(t) = H_0 + V(omega t) on the level space."""
    out = np.diag(space.h_expanded).astype(complex)
    sym = v.symbol(space)
    for q, blk in sym.items():
        out = out + np.exp(1j * q * space.omega * t) * blk
    return out


def _w_at(space: FloquetMatrixSpace, w_blocks: dict, t: float) -> np.ndarray:
    ell = space.level_dim
    out = np.zeros((ell, ell), dtype=complex)
    for q, blk in w_blocks.items():
        out = out + np.exp(1j * q * space.omega * t) * blk
    return out


def reconstruct_propagator(
    space: FloquetMatrixSpace,
    w_blocks: dict,
    g_level,
    t: float,
    s: float,
) -> TruncatedOperator:
    """U(t, s) = W(t)* exp(-i(t-s)(H_0 + G)) W(s) on the level space.

    w_blocks are the Fourier symbols of W (W(t) = sum_q e^{i q omega t}
    W_q); g_level is the level-space G, an L x L matrix.
    """
    ell = space.level_dim
    g_level = np.asarray(g_level, dtype=complex)
    if g_level.shape != (ell, ell):
        raise ValueError(f"g_level has shape {g_level.shape}, expected {(ell, ell)}")
    g_level = _block_diag(space, 0.5 * (g_level + g_level.conj().T))
    h_eff = np.diag(space.h_expanded).astype(complex) + g_level
    core = matrix_exp(-1j * (float(t) - float(s)) * h_eff)
    u = _w_at(space, w_blocks, t).conj().T @ core @ _w_at(space, w_blocks, s)
    return TruncatedOperator(u, basis_tag="levels")


def problem_to_json_dict(
    space: FloquetMatrixSpace,
    v: BlockPerturbation,
    config: KamConfig,
) -> dict:
    doc = {
        "omega": float(space.omega),
        "k_max": space.k_max,
        "levels": [{"h": float(h), "mult": m} for h, m in space.levels],
        "V_blocks": v.to_json_list(),
        "r": float(config.r_weight),
        "nu": float(config.nu_weight),
        "schedule": config.schedule,
        "max_iters": config.max_iters,
        "tol": float(config.tol),
    }
    if config.min_denom_guard is not None:
        doc["min_denom_guard"] = config.min_denom_guard
    return doc


def load_problem(source) -> tuple[FloquetMatrixSpace, BlockPerturbation, KamConfig]:
    """Parse a problem dict or JSON text into (space, V, config)."""
    data = json.loads(source) if isinstance(source, str) else source
    space = FloquetMatrixSpace(
        k_max=int(data["k_max"]),
        levels=tuple((lv["h"], lv.get("mult", 1)) for lv in data["levels"]),
        omega=float(data["omega"]),
    )
    v = BlockPerturbation.from_json_list(data.get("V_blocks", []))

    def number(key, name, default):
        """data[key] as a float; the error names the KamConfig field."""
        value = data.get(key, default)
        try:
            if isinstance(value, bool):
                raise TypeError
            return float(value)
        except (TypeError, ValueError, OverflowError):
            raise ValueError(f"{name} must be a number, got {value!r}") from None

    # an integral max_iters such as 20.0 is read as 20; 2.7 stays a float and is refused
    max_iters = number("max_iters", "max_iters", 20)
    guard = data.get("min_denom_guard")
    config = KamConfig(
        max_iters=int(max_iters) if max_iters.is_integer() else max_iters,
        tol=number("tol", "tol", 1e-10),
        min_denom_guard=None if guard is None else number("min_denom_guard", "min_denom_guard", None),
        schedule=data.get("schedule", "constant"),
        r_weight=number("r", "r_weight", 2.0),
        nu_weight=number("nu", "nu_weight", 1.0),
    )
    return space, v, config


def history_to_jsonl(history: list) -> str:
    return "\n".join(json.dumps(st.summary_dict(), sort_keys=True) for st in history) + "\n"
