"""Iterative diagonalization of a quasi-periodically perturbed Floquet
matrix.

The arena is the Fourier x level space: basis vectors |k, (m, j)> with
k in [-k_max, k_max] and j running over the multiplicity of level m. The
unperturbed operator is diagonal,

    K_0 |k, (m, j)> = (k omega + h_m) |k, (m, j)>,

and the perturbation V is a multiplication operator in time, i.e. block
Toeplitz in k: its (k1, k2) block depends only on q = k1 - k2. Every
operator the iteration touches shares that structure (it commutes with
the Fourier shift), so the engine stores operators as symbols: a map
q -> (L x L) level-space block. Products, commutators, and exponentials
act on symbols by convolution, which realizes the infinite-lattice
algebra exactly; the k truncation only enters when a symbol is
materialized to a dense matrix for norms and reports.

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
from dataclasses import dataclass

import numpy as np

from .core_fock import TruncatedOperator, matrix_exp
from .errors import NotConvergedError, NumericError, SmallDenominatorError

__all__ = [
    "FloquetMatrixSpace",
    "BlockPerturbation",
    "random_perturbation",
    "build_k0",
    "detect_resonances",
    "eps_v_norm",
    "weighted_block_norm",
    "diagonal_part",
    "solve_homological",
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

_DEGEN_RTOL = 1e-12
_SERIES_MAX_TERMS = 200


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
# symbols: q -> L x L block, representing a block-Toeplitz operator


def _sym_clean(sym: dict) -> dict:
    return {q: blk for q, blk in sym.items() if np.any(blk)}

def _sym_identity(dim: int) -> dict:
    return {0: np.eye(dim, dtype=complex)}

def _sym_add(a: dict, b: dict, beta: complex = 1.0) -> dict:
    out = {q: blk.copy() for q, blk in a.items()}
    for q, blk in b.items():
        if q in out:
            out[q] = out[q] + beta * blk
        else:
            out[q] = beta * blk
    return _sym_clean(out)

def _sym_scale(a: dict, c: complex) -> dict:
    return _sym_clean({q: c * blk for q, blk in a.items()})

def _sym_mul(a: dict, b: dict, cap: int) -> dict:
    out: dict = {}
    for qa, ba in a.items():
        for qb, bb in b.items():
            q = qa + qb
            if abs(q) > cap:
                continue
            prod = ba @ bb
            if q in out:
                out[q] += prod
            else:
                out[q] = prod
    return _sym_clean(out)

def _sym_dagger(a: dict) -> dict:
    return {-q: blk.conj().T.copy() for q, blk in a.items()}

def _sym_comm(a: dict, b: dict, cap: int) -> dict:
    return _sym_add(_sym_mul(a, b, cap), _sym_mul(b, a, cap), -1.0)

def _sym_fro(a: dict) -> float:
    return math.sqrt(sum(float(np.sum(np.abs(blk) ** 2)) for blk in a.values()))

def _sym_exp(a: dict, dim: int, cap: int, tol: float = 1e-16) -> dict:
    acc = _sym_identity(dim)
    term = _sym_identity(dim)
    scale = max(1.0, _sym_fro(a))
    for n in range(1, _SERIES_MAX_TERMS):
        term = _sym_scale(_sym_mul(a, term, cap), 1.0 / n)
        acc = _sym_add(acc, term)
        if _sym_fro(term) < tol * scale:
            return acc
    raise NumericError("symbol exponential series failed to terminate")

def _sym_exp_ad(a: dict, x: dict, cap: int, tol: float = 1e-16) -> dict:
    """exp(ad_A) X = sum ad_A^n X / n! on symbols."""
    acc = {q: blk.copy() for q, blk in x.items()}
    term = x
    scale = max(1.0, _sym_fro(x))
    for n in range(1, _SERIES_MAX_TERMS):
        term = _sym_scale(_sym_comm(a, term, cap), 1.0 / n)
        if not term:
            return acc
        acc = _sym_add(acc, term)
        if _sym_fro(term) < tol * scale:
            return acc
    raise NumericError("adjoint exponential series failed to terminate")

def _sym_phi_ad(a: dict, z: dict, cap: int, tol: float = 1e-16) -> dict:
    """Phi(ad_A) Z with Phi(x) = sum_n (n+1) x^n / (n+2)!."""
    acc = _sym_scale(z, 0.5)
    term = z
    scale = max(1.0, _sym_fro(z))
    for n in range(1, _SERIES_MAX_TERMS):
        term = _sym_comm(a, term, cap)
        if not term:
            return acc
        coeff = (n + 1) / math.factorial(n + 2)
        acc = _sym_add(acc, term, coeff)
        if _sym_fro(term) * coeff < tol * scale:
            return acc
    raise NumericError("Phi(ad_A) series failed to terminate")

def _ad_k0(space: FloquetMatrixSpace, a: dict) -> dict:
    """ad_{K_0} on symbols: entrywise multiplication by q omega + h_n - h_m."""
    h = space.h_expanded
    out = {}
    for q, blk in a.items():
        fac = q * space.omega + h[:, None] - h[None, :]
        out[q] = fac * blk
    return _sym_clean(out)

def _sym_block_diag(space: FloquetMatrixSpace, mat: np.ndarray) -> np.ndarray:
    out = np.zeros_like(mat)
    for n in range(space.n_levels):
        sl = space.level_slice(n)
        out[sl, sl] = mat[sl, sl]
    return out

def _sym_d(space: FloquetMatrixSpace, x: dict) -> dict:
    """Diagonal part w.r.t. the K_0 decomposition: q = 0, same level."""
    blk = x.get(0)
    if blk is None:
        return {}
    return _sym_clean({0: _sym_block_diag(space, blk)})

def _sym_offd(space: FloquetMatrixSpace, x: dict) -> dict:
    out = {q: blk.copy() for q, blk in x.items()}
    if 0 in out:
        out[0] = out[0] - _sym_block_diag(space, out[0])
    return _sym_clean(out)

def _materialize(space: FloquetMatrixSpace, sym: dict) -> np.ndarray:
    ell = space.level_dim
    nk = 2 * space.k_max + 1
    out = np.zeros((space.total_dim, space.total_dim), dtype=complex)
    for q, blk in sym.items():
        for k1 in range(nk):
            k2 = k1 - q
            if 0 <= k2 < nk:
                out[k1 * ell : (k1 + 1) * ell, k2 * ell : (k2 + 1) * ell] = blk
    return out

def _dense_norm(mat: np.ndarray) -> float:
    """Spectral norm; an exactly zero matrix returns 0.0 without an SVD."""
    return float(np.linalg.norm(mat, 2)) if np.any(mat) else 0.0

def _sym_norm(space: FloquetMatrixSpace, sym: dict) -> float:
    if not sym:
        return 0.0
    return _dense_norm(_materialize(space, sym))

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
        return _sym_clean(out)

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


def build_k0(space: FloquetMatrixSpace) -> TruncatedOperator:
    """Diagonal K_0 with entries k omega + h_m, k outer, level inner."""
    h = space.h_expanded
    diag = np.concatenate(
        [k * space.omega + h for k in range(-space.k_max, space.k_max + 1)]
    )
    return TruncatedOperator.hermitian_op(np.diag(diag).astype(complex), basis_tag="floquet")


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
# diagonal projection and the homological equation (dense forms)


def diagonal_part(x: np.ndarray, space: FloquetMatrixSpace) -> np.ndarray:
    """Projection onto the diagonal w.r.t. the spectral decomposition of
    K_0: entries connecting distinct K_0 eigenvalues are zeroed, entries
    inside a degenerate eigenspace are kept."""
    x = np.asarray(x)
    diag = np.diag(build_k0(space).entries).real
    scale = max(1.0, float(np.abs(diag).max()))
    keep = np.abs(diag[:, None] - diag[None, :]) <= _DEGEN_RTOL * scale
    return np.where(keep, x, 0.0)


def solve_homological(
    k_dressed: np.ndarray,
    y: np.ndarray,
    space: FloquetMatrixSpace,
    min_denom_guard: float | None = None,
) -> np.ndarray:
    """Solve [A, K_dressed] = -(1-D)Y in the eigenbasis of K_dressed.

    Entrywise A_ab = Y_ab / (lambda_a - lambda_b) on non-degenerate
    pairs (so that [A, K]_ab = -Y_ab) and A_ab = 0 on degenerate ones.
    A needed denominator below the guard raises a small-denominator
    error carrying the offending pair and gap.
    """
    if min_denom_guard is None:
        min_denom_guard = 1e-8 * space.omega
    k_dressed = np.asarray(k_dressed, dtype=complex)
    y = np.asarray(y, dtype=complex)
    off = k_dressed - np.diag(np.diag(k_dressed))
    scale = max(1.0, float(np.abs(k_dressed).max(initial=0.0)))
    if np.abs(off).max(initial=0.0) <= 1e-14 * scale:
        lam = np.diag(k_dressed).real
        rot = None
    else:
        lam, rot = np.linalg.eigh(k_dressed)
    yr = y if rot is None else rot.conj().T @ y @ rot
    gaps = lam[:, None] - lam[None, :]
    degenerate = np.abs(gaps) <= _DEGEN_RTOL * max(1.0, float(np.abs(lam).max()))
    needed = (~degenerate) & (yr != 0.0)
    bad = needed & (np.abs(gaps) < min_denom_guard)
    if np.any(bad):
        a_idx, b_idx = np.argwhere(bad)[0]
        gap = float(gaps[a_idx, b_idx])
        raise SmallDenominatorError(
            f"homological denominator {gap} below guard {min_denom_guard} "
            f"for pair ({a_idx}, {b_idx})",
            pair=(int(a_idx), int(b_idx)),
            gap=gap,
        )
    a = np.zeros_like(yr)
    np.divide(yr, gaps, out=a, where=needed)
    if rot is not None:
        a = rot @ a @ rot.conj().T
    return a


def _solve_sym(
    space: FloquetMatrixSpace,
    e_level: np.ndarray,
    y: dict,
    guard: float,
    cap: int,
) -> tuple[dict, float]:
    """Symbol-form homological solve against K_0 dressed by the level
    matrix e_level = D(G) blocks; returns (A, min denominator used)."""
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
    rotated = {q: rot.conj().T @ blk @ rot for q, blk in y.items()}
    level_of = space.level_of_index
    min_denom = math.inf
    a_sym: dict = {}
    for q, blk in rotated.items():
        denom = q * space.omega + d[:, None] - d[None, :]
        needed = blk != 0.0
        if q == 0:
            same_level = level_of[:, None] == level_of[None, :]
            needed = needed & ~same_level
        if not np.any(needed):
            continue
        gaps = np.abs(denom[needed])
        small = float(gaps.min())
        if small < guard:
            a_idx, b_idx = np.argwhere(needed & (np.abs(denom) < guard))[0]
            raise SmallDenominatorError(
                f"denominator {denom[a_idx, b_idx]:.3e} below guard {guard:.3e} "
                f"for coupling q={q}, levels "
                f"{level_of[a_idx]} and {level_of[b_idx]}",
                pair=(q, int(level_of[a_idx]), int(level_of[b_idx])),
                gap=float(denom[a_idx, b_idx]),
            )
        min_denom = min(min_denom, small)
        a_blk = np.zeros_like(blk)
        np.divide(blk, denom, out=a_blk, where=needed)
        a_sym[q] = a_blk
    a_sym = {q: rot @ blk @ rot.conj().T for q, blk in a_sym.items()}
    return _sym_clean(a_sym), min_denom


# ---------------------------------------------------------------------------
# the iteration


@dataclass(frozen=True)
class KamConfig:
    max_iters: int = 20
    tol: float = 1e-10
    min_denom_guard: float | None = None
    schedule: str = "constant"
    cutoff_steps: tuple | None = None
    r_weight: float = 2.0
    nu_weight: float = 1.0
    series_tol: float = 1e-16
    band_cap_factor: int = 6

    def __post_init__(self):
        if self.schedule not in ("constant", "fourier_cutoff"):
            raise ValueError(f"unknown schedule {self.schedule!r}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not (self.tol > 0):
            raise ValueError("tol must be positive")


@dataclass
class KamState:
    """Snapshot after iteration s: W_s = e^{A_{s-1}} ... e^{A_0}.

    g, a, w are dense windows of the block-Toeplitz operators (the
    window of a lattice unitary is not unitary at its k edges, so
    unitary_w_residual measures the operator itself: the worst
    level-space defect of W_s(t) over a period).
    """

    s: int
    g: np.ndarray
    a: np.ndarray
    w: np.ndarray
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
    "iteration_limit". w_blocks holds the Fourier symbols of W, g_level
    the level-space block of D(G_inf); both feed the propagator
    reconstruction.
    """

    status: str
    space: FloquetMatrixSpace
    history: list
    w: np.ndarray | None = None
    g_inf: np.ndarray | None = None
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


def _schedule_symbols(
    space: FloquetMatrixSpace, v_sym: dict, config: KamConfig
) -> list:
    """V_s symbols for s = 0..max_iters; constant or Fourier cutoff."""
    count = config.max_iters + 1
    if config.schedule == "constant":
        return [v_sym] * count
    if config.cutoff_steps is not None:
        cuts = list(config.cutoff_steps)
    else:
        cuts, c = [], 1
        while c < space.k_max:
            cuts.append(c)
            c *= 2
    out = []
    for s in range(count):
        k_s = cuts[s] if s < len(cuts) else space.k_max
        out.append(_sym_clean({q: blk for q, blk in v_sym.items() if abs(q) <= k_s}))
    return out


def kam_iterate(
    space: FloquetMatrixSpace,
    v: BlockPerturbation,
    config: KamConfig | None = None,
) -> KamResult:
    """Run the G_s/A_s recurrence until the off-diagonal residual of
    W_s(K_0+V)W_s^+ - K_0 falls below tol.

    Everything is computed in symbol (block-Toeplitz) arithmetic, which
    preserves the shift-commutation structure exactly; k products are
    capped at band_cap_factor * k_max Fourier offsets.
    """
    if config is None:
        config = KamConfig()
    guard = config.min_denom_guard
    if guard is None:
        guard = 1e-8 * space.omega
    ell = space.level_dim
    cap = max(1, config.band_cap_factor * space.k_max)
    stol = config.series_tol

    v_sym = v.symbol(space)
    v_herm_dev = _sym_fro(_sym_add(v_sym, _sym_dagger(v_sym), -1.0))
    if v_herm_dev > 1e-12 * max(1.0, _sym_fro(v_sym)):
        raise ValueError("perturbation is not Hermitian as a total operator")
    eps_v = eps_v_norm(v, config.r_weight)
    edge_leak = sum(
        float(np.linalg.norm(blk, 2)) for q, blk in v_sym.items() if abs(q) == space.k_max
    )
    v_s = _schedule_symbols(space, v_sym, config)

    g = v_s[0]                      # G_0 = V_0
    delta_g = g                     # G_s - G_{s-1}, with G_{-1} = 0
    w_sym = _sym_identity(ell)
    a_list: list = []
    # c = W_s (K_0 + V) W_s^+ - K_0, maintained incrementally
    c = v_sym
    history: list = []

    def _record(s: int, a_sym: dict, offdiag: float, min_denom: float):
        w_dense = _materialize(space, w_sym)
        g_dense = _materialize(space, g)
        a_dense = _materialize(space, a_sym)
        w_unit = 0.0
        for tau in np.linspace(0.0, 2 * math.pi / space.omega, 24, endpoint=False):
            wt = _w_at(space, w_sym, tau)
            w_unit = max(
                w_unit,
                float(np.linalg.norm(wt @ wt.conj().T - np.eye(ell), 2)),
            )
        # conjugation identity for the schedule operator V_s
        c_sched = c
        if config.schedule != "constant":
            dv = _sym_add(v_s[min(s, config.max_iters)], v_sym, -1.0)
            if dv:
                wdvw = _sym_mul(_sym_mul(w_sym, dv, cap), _sym_dagger(w_sym), cap)
                c_sched = _sym_add(c, wdvw)
        target = _sym_add(_sym_d(space, g), _sym_offd(space, delta_g))
        conj_res = _sym_norm(space, _sym_add(c_sched, target, -1.0))
        history.append(
            KamState(
                s=s,
                g=g_dense,
                a=a_dense,
                w=w_dense,
                offdiag_residual=offdiag,
                min_denominator=min_denom,
                eps_v=eps_v,
                conj_residual=conj_res,
                herm_g_residual=_dense_norm(g_dense - g_dense.conj().T),
                antiherm_a_residual=_dense_norm(a_dense + a_dense.conj().T),
                unitary_w_residual=w_unit,
            )
        )

    for s in range(config.max_iters + 1):
        offdiag = _sym_norm(space, _sym_offd(space, c))
        if offdiag < config.tol:
            _record(s, {}, offdiag, math.inf)
            g_level = _sym_block_diag(space, g.get(0, np.zeros((ell, ell), dtype=complex)))
            return KamResult(
                status="converged",
                space=space,
                history=history,
                w=history[-1].w,
                g_inf=history[-1].g,
                w_blocks={q: blk.copy() for q, blk in w_sym.items()},
                g_level=0.5 * (g_level + g_level.conj().T),
                iterations=s,
                final_residual=offdiag,
                edge_leak=edge_leak,
                w_weighted_norm=weighted_block_norm(space, w_sym, config.nu_weight),
                message=f"off-diagonal residual {offdiag:.3e} below tol after {s} iterations",
            )
        if s == config.max_iters:
            _record(s, {}, offdiag, math.inf)
            return KamResult(
                status="iteration_limit",
                space=space,
                history=history,
                iterations=s,
                final_residual=offdiag,
                edge_leak=edge_leak,
                message=f"residual {offdiag:.3e} still above tol {config.tol:.3e}",
            )

        e_level = _sym_block_diag(space, g.get(0, np.zeros((ell, ell), dtype=complex)))
        rhs = _sym_offd(space, delta_g)
        try:
            a_sym, min_denom = _solve_sym(space, e_level, rhs, guard, cap)
        except SmallDenominatorError as err:
            _record(s, {}, offdiag, abs(err.gap) if err.gap is not None else math.nan)
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

        # G_{s+1}
        g_next = g
        dv = _sym_add(v_s[s + 1], v_s[s], -1.0)
        if dv:
            chain = dv
            for a_prev in a_list:
                chain = _sym_exp_ad(a_prev, chain, cap, stol)
            chain = _sym_exp_ad(a_sym, chain, cap, stol)
            g_next = _sym_add(g_next, chain)
        correction = _sym_comm(a_sym, _sym_phi_ad(a_sym, rhs, cap, stol), cap)
        g_next = _sym_add(g_next, correction)
        delta_g = _sym_add(g_next, g, -1.0)
        g = g_next
        a_list.append(a_sym)

        # advance W and the conjugated operator: for X = K_0 + c,
        # e^A X e^{-A} = K_0 + exp(ad_A) c + sum_{n>=1} ad_A^{n-1} B / n!
        # with B = ad_A K_0 = -ad_{K_0} A.
        w_sym = _sym_mul(_sym_exp(a_sym, ell, cap, stol), w_sym, cap)
        b = _sym_scale(_ad_k0(space, a_sym), -1.0)
        c_new = _sym_exp_ad(a_sym, c, cap, stol)
        term = b
        c_new = _sym_add(c_new, term)
        scale = max(1.0, _sym_fro(b))
        for n in range(2, _SERIES_MAX_TERMS):
            term = _sym_scale(_sym_comm(a_sym, term, cap), 1.0 / n)
            if not term:
                break
            c_new = _sym_add(c_new, term)
            if _sym_fro(term) < stol * scale:
                break
        c = c_new

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
    g_inf,
    t: float,
    s: float,
) -> TruncatedOperator:
    """U(t, s) = W(t)* exp(-i(t-s)(H_0 + G)) W(s) on the level space.

    w_blocks are the Fourier symbols of W (W(t) = sum_q e^{i q omega t}
    W_q); g_inf is either the level-space G or a full Fourier x level
    matrix, from which the central diagonal block is extracted.
    """
    ell = space.level_dim
    g_inf = np.asarray(g_inf, dtype=complex)
    if g_inf.shape == (ell, ell):
        g_level = g_inf
    elif g_inf.shape == (space.total_dim, space.total_dim):
        ctr = space.k_max * ell
        g_level = g_inf[ctr : ctr + ell, ctr : ctr + ell]
    else:
        raise ValueError(f"g_inf has unsupported shape {g_inf.shape}")
    g_level = _sym_block_diag(space, 0.5 * (g_level + g_level.conj().T))
    h_eff = np.diag(space.h_expanded).astype(complex) + g_level
    core = matrix_exp(-1j * (float(t) - float(s)) * h_eff)
    u = _w_at(space, w_blocks, t).conj().T @ core @ _w_at(space, w_blocks, s)
    return TruncatedOperator(u, basis_tag="levels")


def problem_to_json_dict(
    space: FloquetMatrixSpace,
    v: BlockPerturbation,
    config: KamConfig,
) -> dict:
    return {
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


def load_problem(source) -> tuple[FloquetMatrixSpace, BlockPerturbation, KamConfig]:
    """Parse a problem dict or JSON text into (space, V, config)."""
    data = json.loads(source) if isinstance(source, str) else source
    space = FloquetMatrixSpace(
        k_max=int(data["k_max"]),
        levels=tuple((lv["h"], lv.get("mult", 1)) for lv in data["levels"]),
        omega=float(data["omega"]),
    )
    v = BlockPerturbation.from_json_list(data.get("V_blocks", []))
    config = KamConfig(
        max_iters=int(data.get("max_iters", 20)),
        tol=float(data.get("tol", 1e-10)),
        min_denom_guard=data.get("min_denom_guard"),
        schedule=data.get("schedule", "constant"),
        r_weight=float(data.get("r", 2.0)),
        nu_weight=float(data.get("nu", 1.0)),
    )
    return space, v, config


def history_to_jsonl(history: list) -> str:
    return "\n".join(json.dumps(st.summary_dict(), sort_keys=True) for st in history) + "\n"
