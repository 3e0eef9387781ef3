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
theta, acts on the blocks themselves. A norm is that of the whole
block-Laurent operator, ||L(S)|| = sup_theta ||S(theta)|| (ibid.), taken
as the max over the same grid (for the Hermitian residuals, of the
largest |eigenvalue|); no dense k window is ever formed.

The recursion (G_{-1} = 0, G_0 = V, Phi(x) = (1/x)(e^x - (e^x-1)/x)):

    [A_s, K_0 + D(G_s)] = -(1-D)(G_s - G_{s-1}),
    G_{s+1} = G_s + ad_{A_s} Phi(ad_{A_s})(1-D)(G_s - G_{s-1}),
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

from .core_fock import TruncatedOperator, _integer_field, _objects_field, _real_field, matrix_exp
from .errors import NotConvergedError, NumericError, SmallDenominatorError

__all__ = [
    "FloquetMatrixSpace",
    "BlockPerturbation",
    "random_perturbation",
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
    def h_expanded(self) -> np.ndarray:
        """Level eigenvalue at each of the L level-space basis indices."""
        return np.repeat([h for h, _ in self.levels], [m for _, m in self.levels])

    @property
    def level_of_index(self) -> np.ndarray:
        return np.repeat(np.arange(self.n_levels), [m for _, m in self.levels])

    def level_slice(self, n: int) -> slice:
        start = sum(m for _, m in self.levels[:n])
        return slice(start, start + self.levels[n][1])


# ---------------------------------------------------------------------------
# symbols: (2 cap + 1, L, L) arrays, block S_q at index q + cap


def _cap(sym: np.ndarray) -> int:
    return (len(sym) - 1) // 2

def _as_array(sym: dict, cap: int, ell: int) -> np.ndarray:
    out = np.zeros((2 * cap + 1, ell, ell), dtype=complex)
    if sym:
        out[np.fromiter(sym, dtype=np.int64, count=len(sym)) + cap] = list(sym.values())
    return out

def _as_dict(sym: np.ndarray) -> dict:
    """Non-zero blocks of an array symbol keyed by q, ascending: views of
    one fresh copy."""
    nonzero = np.flatnonzero(sym.any(axis=(1, 2)))
    return dict(zip((nonzero - _cap(sym)).tolist(), sym[nonzero]))

def _to_grid(sym: np.ndarray, n_grid: int) -> np.ndarray:
    """S(theta_j) at theta_j = 2 pi j / n_grid, j = 0 .. n_grid - 1."""
    cap = _cap(sym)
    padded = np.zeros((n_grid,) + sym.shape[1:], dtype=complex)
    padded[: cap + 1] = sym[cap:]
    padded[n_grid - cap :] = sym[:cap]
    return np.fft.ifft(padded, axis=0, norm="forward")

def _from_grid(vals: np.ndarray, cap: int) -> np.ndarray:
    """Fourier blocks |q| <= cap of grid values; exact for a product of two
    cap-band symbols when the grid has at least 3 cap + 1 points."""
    coef = np.fft.fft(vals, axis=0, norm="forward")
    return np.concatenate([coef[len(coef) - cap :], coef[: cap + 1]])

def _dagger(vals: np.ndarray) -> np.ndarray:
    return vals.conj().swapaxes(-1, -2)

def _adjoint(sym: np.ndarray) -> np.ndarray:
    """Symbol of the adjoint operator: (S^+)_q = (S_{-q})^+."""
    return _dagger(sym[::-1])

def _grid_size(cap: int) -> int:
    """The smallest n >= 3 cap + 1 whose prime factors are all in
    {2, 3, 5, 7, 11}, a length pocketfft transforms fast."""
    n = 3 * cap + 1
    while True:
        rest = n
        for p in (2, 3, 5, 7, 11):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return n
        n += 1

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

def _hermitian_norm(vals: np.ndarray) -> float:
    """Largest spectral norm over a stack of the Hermitian parts
    (M + M^+) / 2, the largest |eigenvalue|, from one batched eigvalsh;
    overwrites vals. For a Hermitian M it is ||M|| to round-off."""
    vals += _dagger(vals)
    return 0.5 * float(np.abs(np.linalg.eigvalsh(vals)).max())

def _sym_norm(sym: np.ndarray) -> float:
    """sup_theta ||S(theta)||, the norm of the block-Laurent operator of a
    Hermitian symbol, as the max over the engine's theta grid of the
    Hermitian part's largest |eigenvalue|; 0.0 for an exactly zero
    symbol. Every caller passes a Hermitian symbol (a round-off-level
    non-Hermitian part is dropped); a general one needs an SVD."""
    if not np.any(sym):
        return 0.0
    return _hermitian_norm(_to_grid(sym, _grid_size(_cap(sym))))

def _spectral_norms(stack: np.ndarray) -> np.ndarray:
    """Spectral norms of a stack of matrices (the last two axes), one per
    leading index. A 1 x 1 matrix takes its modulus, which agrees with the
    SVD to round-off; any other shape takes one batched np.linalg.norm
    call, which gives each matrix the value a call on it alone would.
    """
    if stack.shape[-2:] == (1, 1):
        return np.abs(stack[..., 0, 0])
    return np.linalg.norm(stack, 2, axis=(-2, -1))


# ---------------------------------------------------------------------------
# the perturbation


class BlockPerturbation:
    """Fourier blocks V_{knm} of a T-periodic level-space perturbation.

    blocks maps (k, n, m) -> complex matrix of shape M_n x M_m; the
    multiplication operator V(omega t) = sum_k e^{i k omega t} V_k is
    self-adjoint iff V_{knm} = (V_{-k,m,n})^+ for every block.

    The blocks are kept packed in one complex array, with one index row
    (k, n, m, rows, cols, start) per block: a dict of small arrays costs
    some 250 bytes a block. The blocks property unpacks them, in the
    order given, into a fresh dict of read-only views; symbol and
    eps_v_norm read the packed arrays whole and never unpack them.
    """

    __slots__ = ("_index", "_data")

    def __init__(self, blocks: dict):
        norm_blocks = {}
        scale = 0.0
        for (k, n, m), blk in blocks.items():
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
        starts = np.cumsum([0] + [arr.size for arr in norm_blocks.values()])
        self._index = np.array(
            [(*key, *arr.shape, start) for (key, arr), start in zip(norm_blocks.items(), starts)],
            dtype=np.int64,
        ).reshape(-1, 6)
        self._data = np.concatenate([arr.ravel() for arr in norm_blocks.values()] or [np.zeros(0, complex)])
        self._data.flags.writeable = False

    @property
    def blocks(self) -> dict:
        return {
            (k, n, m): self._data[start : start + rows * cols].reshape(rows, cols)
            for k, n, m, rows, cols, start in self._index.tolist()
        }

    @classmethod
    def zero(cls) -> "BlockPerturbation":
        return cls(blocks={})

    def _shape_groups(self):
        """(mask over the blocks, stack of their matrices) per distinct
        block shape, each stack in block order: gathers from the packed
        data, with no loop over blocks."""
        rows, cols, start = self._index[:, 3:].T
        wide = int(cols.max(initial=0)) + 1
        shape_key = rows * wide + cols
        for key in np.unique(shape_key).tolist():
            (n_rows, n_cols), mask = divmod(key, wide), shape_key == key
            yield mask, self._data[start[mask, None] + np.arange(n_rows * n_cols)].reshape(-1, n_rows, n_cols)

    def symbol(self, space: FloquetMatrixSpace) -> dict:
        """The level-space blocks S_q = sum over (n, m) of V_{qnm}, placed at
        the rows of level n and the columns of level m, for every q with a
        non-zero block; q in order of first appearance among the blocks.

        One scatter of the packed data into an (n_q, L, L) array. A block
        that references a level outside the space, or whose shape is not
        M_n x M_m, raises ValueError naming the first such block.
        """
        k, n, m, rows, cols, start = self._index.T
        mult = np.array([mu for _, mu in space.levels])
        outside = (n < 0) | (n >= space.n_levels) | (m < 0) | (m >= space.n_levels)
        n_in, m_in = np.where(outside, 0, n), np.where(outside, 0, m)
        misshapen = ~outside & ((rows != mult[n_in]) | (cols != mult[m_in]))
        if np.any(outside | misshapen):
            i = int(np.argmax(outside | misshapen))
            key = tuple(self._index[i, :3].tolist())
            if outside[i]:
                raise ValueError(f"block {key} references a level outside the space")
            raise ValueError(
                f"block {key} has shape {(int(rows[i]), int(cols[i]))}, "
                f"expected {(int(mult[n[i]]), int(mult[m[i]]))}"
            )
        qs, first, q_of_block = np.unique(k, return_index=True, return_inverse=True)
        order = np.argsort(first)
        slot = np.empty_like(order)
        slot[order] = np.arange(len(order))
        # entry e of block b sits at offset e - start_b in the row-major block
        block = np.repeat(np.arange(len(k)), rows * cols)
        offset = np.arange(len(self._data)) - start[block]
        level_start = np.cumsum(mult) - mult
        ell = space.level_dim
        out = np.zeros((len(qs), ell, ell), dtype=complex)
        out[
            slot[q_of_block][block],
            level_start[n_in][block] + offset // cols[block],
            level_start[m_in][block] + offset % cols[block],
        ] += self._data
        keep = out.any(axis=(1, 2))
        return dict(zip(qs[order][keep].tolist(), out[keep]))

    def to_json_list(self) -> list:
        items = []
        blocks = self.blocks
        for (k, n, m) in sorted(blocks):
            blk = blocks[(k, n, m)]
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
        """The blocks of a list of {k, n, m, re, im} objects: integer k, n, m
        and re, im matrices of finite numbers of one shape, or ValueError
        naming the field."""
        blocks = {}
        for i, it in enumerate(_objects_field(items, "V_blocks")):
            name = f"V_blocks[{i}]"
            key = tuple(_integer_field(it[f], f"{name}.{f}") for f in ("k", "n", "m"))
            real, imag = (_matrix_field(it[f], f"{name}.{f}") for f in ("re", "im"))
            if real.shape != imag.shape:
                raise ValueError(f"{name}.im must have the shape {real.shape} of {name}.re, got {imag.shape}")
            blocks[key] = real + 1j * imag
        return cls(blocks=blocks)


def _matrix_field(value, name: str) -> np.ndarray:
    """A problem field read as a real matrix of finite numbers; anything else
    raises ValueError naming the field."""
    try:
        out = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        out = np.array(np.nan)
    if out.ndim != 2 or not np.all(np.isfinite(out)):
        raise ValueError(f"{name} must be a matrix of finite numbers")
    return out


def random_perturbation(
    space: FloquetMatrixSpace,
    rng: np.random.Generator,
    k_band: int,
    r: float,
    eps_target: float,
) -> BlockPerturbation:
    """Dense random Hermitian perturbation scaled to eps_v_norm = eps_target.

    k_band must be an integer >= 0, r and eps_target finite numbers >= 0;
    anything else raises ValueError naming the argument before any draw."""
    _require(_is_number(k_band, numbers.Integral) and k_band >= 0, "k_band", "an integer >= 0", k_band)
    _require(_is_number(r) and r >= 0, "r", "a finite number >= 0", r)
    _require(_is_number(eps_target) and eps_target >= 0, "eps_target", "a finite number >= 0", eps_target)
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
    # a real factor keeps every block's partner its exact conjugate transpose,
    # so the checked instance is rescaled in place of a second construction
    v._data = (eps_target / eps) * v._data
    v._data.flags.writeable = False
    return v


def eps_v_norm(v: BlockPerturbation, r: float) -> float:
    """eps_V = sup_n sum_m sum_k (1 + |k|)^r ||V_{knm}||.

    Read from the packed blocks: ||V_{knm}|| is the spectral norm of each
    block, taken once per block shape (the modulus of a 1 x 1 block, one
    batched SVD for any other shape); zero blocks contribute zero. Each
    level's sum runs in block order. r must be a finite number >= 0
    (ValueError otherwise).
    """
    _require(_is_number(r) and r >= 0, "r", "a finite number >= 0", r)
    k, n = v._index[:, 0], v._index[:, 1]
    if not len(k):
        return 0.0
    norms = np.empty(len(k))
    for mask, stack in v._shape_groups():
        norms[mask] = _spectral_norms(stack)
    abs_k, k_of_block = np.unique(np.abs(k), return_inverse=True)
    weights = np.array([(1.0 + q) ** r for q in abs_k.tolist()])
    _, n_of_block = np.unique(n, return_inverse=True)
    # bincount adds each level's terms in block order, as a per-block loop would
    return float(np.bincount(n_of_block, weights=weights[k_of_block] * norms).max())


def weighted_block_norm(space: FloquetMatrixSpace, sym: dict, nu: float) -> float:
    """sup_n sum_m sum_k (1+|k|)^nu ||X_{knm}|| for a symbol-form operator.

    ||X_{knm}|| is the spectral norm of the (n, m) level sub-block of the
    symbol's k block, taken once per sub-block shape: when every level has
    multiplicity 1 that is the modulus of each entry, otherwise one
    batched SVD per pair of multiplicities. Zero sub-blocks contribute
    zero. nu must be a finite number (ValueError otherwise).
    """
    _require(_is_number(nu), "nu", "a finite number", nu)
    if not sym:
        return 0.0
    stack = np.stack(list(sym.values()))
    mult = np.array([mu for _, mu in space.levels])
    level_start = np.cumsum(mult) - mult
    norms = np.empty((len(stack), space.n_levels, space.n_levels))  # norms[q, n, m]
    for rows in np.unique(mult).tolist():
        ns = np.flatnonzero(mult == rows)
        row_idx = (level_start[ns, None] + np.arange(rows))[:, None, :, None]
        for cols in np.unique(mult).tolist():
            ms = np.flatnonzero(mult == cols)
            col_idx = (level_start[ms, None] + np.arange(cols))[None, :, None, :]
            norms[:, ns[:, None], ms] = _spectral_norms(stack[:, row_idx, col_idx])
    weights = np.array([(1.0 + abs(q)) ** nu for q in sym])
    # terms[n, (q, m)]; add.accumulate sums each row in order, q then m, where
    # np.sum would sum pairwise, so the row sums match a per-block loop's
    terms = (norms * weights[:, None, None]).transpose(1, 0, 2).reshape(space.n_levels, -1)
    return float(np.add.accumulate(terms, axis=1)[:, -1].max())


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

    A level of multiplicity 1 is dressed by its diagonal entry alone; only
    when some level is degenerate does the solve rotate into the
    eigenbasis of the dressed level blocks (and back). The first needed
    denominator below the guard, by ascending q and then row-major within
    the block, aborts the solve."""
    h = space.h_expanded
    d = h + e_level.diagonal().real
    degenerate = [n for n, (_, mult) in enumerate(space.levels) if mult > 1]
    rot = None
    if degenerate:
        # rotate within the degenerate level blocks so the dressed diagonal is scalar
        rot = np.eye(space.level_dim, dtype=complex)
        for n in degenerate:
            sl = space.level_slice(n)
            vals, vecs = np.linalg.eigh(e_level[sl, sl])
            rot[sl, sl] = vecs
            d[sl] = h[sl] + vals
        y = rot.conj().T @ y @ rot
    cap = _cap(y)
    denom = _denominators(space, cap, d)
    needed = y != 0.0
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
    a_sym = np.zeros(y.shape, dtype=complex)
    np.divide(y, denom, out=a_sym, where=needed)
    return (a_sym if rot is None else rot @ a_sym @ rot.conj().T), min_denom


# ---------------------------------------------------------------------------
# the iteration


def _is_number(value, kind=numbers.Real) -> bool:
    """A number of the given kind that converts to a finite float; a bool is
    not a number here."""
    if not isinstance(value, kind) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def _require(ok: bool, name: str, rule: str, value) -> None:
    """ValueError "<name> must be <rule>, got <value>" unless ok."""
    if not ok:
        raise ValueError(f"{name} must be {rule}, got {value!r}")


@dataclass(frozen=True)
class KamConfig:
    max_iters: int = 20
    tol: float = 1e-10
    min_denom_guard: float | None = None
    r_weight: float = 2.0
    nu_weight: float = 1.0

    def __post_init__(self):
        _require(_is_number(self.max_iters, numbers.Integral) and self.max_iters >= 1,
                 "max_iters", "an integer >= 1", self.max_iters)
        _require(_is_number(self.tol) and self.tol > 0, "tol", "a positive finite number", self.tol)
        _require(_is_number(self.r_weight) and self.r_weight >= 0, "r_weight", "a finite number >= 0", self.r_weight)
        _require(_is_number(self.nu_weight), "nu_weight", "a finite number", self.nu_weight)
        guard = self.min_denom_guard
        _require(guard is None or (isinstance(guard, float) and math.isfinite(guard) and guard > 0),
                 "min_denom_guard", "None or a positive finite float", guard)


@dataclass
class KamState:
    """Residuals after iteration s, W_s = e^{A_{s-1}} ... e^{A_0}.

    offdiag_residual, conj_residual, herm_g_residual and
    antiherm_a_residual are norms of the whole block-Laurent operators of
    Hermitian symbols, sup_theta ||S(theta)||: the max over the engine's
    grid of _grid_size(cap) angles of the largest |eigenvalue| of the
    Hermitian part (S(theta_j) + S(theta_j)^+) / 2, from one batched
    eigvalsh. With c = W_s(K_0+V)W_s^+ - K_0 the symbols are (1-D)c,
    c - D(G_s) - (1-D)(G_s - G_{s-1}), i(G_s - G_s^+) and A_s + A_s^+.
    unitary_w_residual is the worst level-space defect
    ||W_s(t) W_s(t)^+ - 1|| at 24 times over a period, from the same
    eigvalsh.
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
            raise NotConvergedError(f"cannot reconstruct a propagator from status {self.status!r}")
        return reconstruct_propagator(self.space, self.w_blocks, self.g_level, t, s)


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


def _kam_step(a_sym, n_grid, w_sym, g, rhs, c, k0_gaps) -> tuple:
    """Conjugate by e^{A_s}: (W_{s+1}, G_{s+1}, c_{s+1}) from W_s, G_s, c_s
    and the homological right-hand side (1-D)(G_s - G_{s-1}).

    A function of its own so that its grid arrays are freed before the
    next record grids its residuals (peak memory)."""
    ad = _PointwiseAd(a_sym, n_grid)
    # W_{s+1} = e^{A_s} W_s. Only the step goes through the grid, so the
    # transform's round-off scales with A_s, not with the identity in W.
    w_step = ad.expm1_times(_to_grid(w_sym, n_grid))
    # G_{s+1} = G_s + ad_{A_s} Phi(ad_{A_s}) (1-D)(G_s - G_{s-1})
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
    W_s(K_0+V)W_s^+ - K_0, in the operator norm sup_theta ||S(theta)||,
    falls below tol.

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

    g = v_sym                       # G_0 = V
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
        w_unit = _hermitian_norm(wt @ _dagger(wt) - np.eye(ell))
        target = _sym_d(space, g) + _sym_offd(space, delta_g)
        history.append(
            KamState(
                s=s,
                offdiag_residual=offdiag,
                min_denominator=min_denom,
                eps_v=eps_v,
                conj_residual=_sym_norm(c - target),
                herm_g_residual=_sym_norm(1j * (g - _adjoint(g))),
                antiherm_a_residual=_sym_norm(a_sym + _adjoint(a_sym)),
                unitary_w_residual=w_unit,
            )
        )

    for s in range(config.max_iters + 1):
        offdiag = _sym_norm(_sym_offd(space, c))
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
            _record(s, None, offdiag, abs(err.gap))
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

        w_sym, g_next, c = _kam_step(a_sym, n_grid, w_sym, g, rhs, c, k0_gaps)
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
    return TruncatedOperator(u)


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
        k_max=_integer_field(data["k_max"], "k_max"),
        levels=tuple(
            (_real_field(lv["h"], "h"), _integer_field(lv.get("mult", 1), "mult"))
            for lv in _objects_field(data["levels"], "levels")
        ),
        omega=_real_field(data["omega"], "omega"),
    )
    v = BlockPerturbation.from_json_list(data.get("V_blocks", []))
    if data.get("schedule", "constant") != "constant":
        raise ValueError(f"schedule must be \"constant\" or absent, got {data['schedule']!r}")
    guard = data.get("min_denom_guard")
    config = KamConfig(
        max_iters=_integer_field(data.get("max_iters", 20), "max_iters"),
        tol=_real_field(data.get("tol", 1e-10), "tol"),
        min_denom_guard=None if guard is None else _real_field(guard, "min_denom_guard"),
        r_weight=_real_field(data.get("r", 2.0), "r_weight"),
        nu_weight=_real_field(data.get("nu", 1.0), "nu_weight"),
    )
    return space, v, config


def history_to_jsonl(history: list) -> str:
    return "\n".join(json.dumps(st.summary_dict(), sort_keys=True) for st in history) + "\n"
