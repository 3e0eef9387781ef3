import json
import math
import tracemalloc

import numpy as np
import pytest

from floquet_lab import (
    BlockPerturbation,
    FloquetMatrixSpace,
    KamConfig,
    NotConvergedError,
    SmallDenominatorError,
    eps_v_norm,
    kam_iterate,
    level_hamiltonian,
    load_problem,
    random_perturbation,
    reconstruct_propagator,
    weighted_block_norm,
)
from floquet_lab import kam
from floquet_lab.kam import history_to_jsonl, problem_to_json_dict
from floquet_lab.oracle import propagate_generic

GOLDEN = (1 + math.sqrt(5)) / 2
LEVELS = ((0.5, 1), (1.5, 1), (2.5, 1), (3.5, 1))


@pytest.fixture(scope="module")
def space():
    return FloquetMatrixSpace(k_max=8, levels=LEVELS, omega=GOLDEN)


@pytest.fixture(scope="module")
def rough_v(space):
    return random_perturbation(space, np.random.default_rng(7), k_band=3, r=2.0, eps_target=0.01)


@pytest.fixture(scope="module")
def golden_result(space, rough_v):
    return kam_iterate(space, rough_v, KamConfig(max_iters=12, tol=1e-10))


class TestSpace:
    def test_dimensions(self, space):
        assert space.n_levels == 4
        assert space.level_dim == 4
        assert (2 * space.k_max + 1) * space.level_dim == 17 * 4

    def test_multiplicities(self):
        sp = FloquetMatrixSpace(k_max=1, levels=((0.0, 2), (1.0, 3)), omega=1.0)
        assert sp.level_dim == 5
        assert list(sp.h_expanded) == [0.0, 0.0, 1.0, 1.0, 1.0]
        assert list(sp.level_of_index) == [0, 0, 1, 1, 1]
        assert sp.level_slice(1) == slice(2, 5)

    def test_validation(self):
        with pytest.raises(ValueError):
            FloquetMatrixSpace(k_max=-1, levels=LEVELS, omega=1.0)
        with pytest.raises(ValueError):
            FloquetMatrixSpace(k_max=1, levels=LEVELS, omega=0.0)
        with pytest.raises(ValueError):
            FloquetMatrixSpace(k_max=1, levels=((0.5, 1), (0.5, 1)), omega=1.0)
        with pytest.raises(ValueError):
            FloquetMatrixSpace(k_max=1, levels=((0.5, 0),), omega=1.0)
        with pytest.raises(ValueError):
            FloquetMatrixSpace(k_max=1, levels=(), omega=1.0)

class TestPerturbation:
    def test_hermiticity_enforced(self):
        with pytest.raises(ValueError):
            BlockPerturbation(blocks={(1, 0, 1): np.array([[0.1]])})

    def test_round_trip(self, space, rough_v):
        data = rough_v.to_json_list()
        back = BlockPerturbation.from_json_list(data)
        for key, blk in rough_v.blocks.items():
            assert np.allclose(back.blocks[key], blk, atol=1e-15)

    def test_blocks_are_packed_read_only_copies(self, space):
        """The constructor copies the blocks into one array; blocks returns
        read-only views of it, in the order given. A 12-level perturbation
        of band 2 (720 blocks) holds under 100 kB (about 60 kB), where a
        dict of 1 x 1 arrays held about 150 kB."""
        blk = np.array([[0.25 + 0.5j]])
        v = BlockPerturbation(blocks={(1, 0, 1): blk, (-1, 1, 0): blk.conj().T})
        blk[0, 0] = 9.0
        assert list(v.blocks) == [(1, 0, 1), (-1, 1, 0)]
        assert v.blocks[(1, 0, 1)][0, 0] == 0.25 + 0.5j
        with pytest.raises(ValueError):
            v.blocks[(1, 0, 1)][0, 0] = 1.0
        sp = FloquetMatrixSpace(k_max=12, levels=tuple((0.5 + n, 1) for n in range(12)), omega=GOLDEN)
        rng = np.random.default_rng(3)
        random_perturbation(sp, rng, k_band=2, r=2.0, eps_target=0.002)  # first-call caches
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            big = random_perturbation(sp, rng, k_band=2, r=2.0, eps_target=0.002)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(big.blocks) == 720
        assert held < 100_000

    def test_eps_norm_hand_value(self):
        v = BlockPerturbation(
            blocks={
                (0, 0, 0): np.array([[0.5]]),
                (2, 0, 1): np.array([[0.25]]),
                (-2, 1, 0): np.array([[0.25]]),
            }
        )
        # row 0: (1+0)^2*0.5 + (1+2)^2*0.25; row 1: (1+2)^2*0.25
        assert eps_v_norm(v, 2.0) == pytest.approx(0.5 + 9 * 0.25)

    def test_weighted_block_norm(self, space):
        sym = {0: np.eye(space.level_dim, dtype=complex)}
        assert weighted_block_norm(space, sym, 1.0) == pytest.approx(1.0)

    def test_random_perturbation_targets_norm(self, space, rough_v):
        assert eps_v_norm(rough_v, 2.0) == pytest.approx(0.01)

    @pytest.mark.parametrize("mult, k_band", [(1, 2), (2, 1)])
    def test_random_perturbation_rescales_the_checked_instance(self, monkeypatch, mult, k_band):
        """The draw is checked once and its packed data rescaled: the result
        is, bit for bit, a second construction from the rescaled blocks, its
        data stays read-only, and no draw follows the norm."""
        sp = FloquetMatrixSpace(k_max=4, levels=tuple((0.5 + n, mult) for n in range(5)), omega=GOLDEN)
        rng = np.random.default_rng(11)
        seen = []

        def spy(v, r):
            seen.append((BlockPerturbation(v.blocks), rng.bit_generator.state))
            return eps_v_norm(v, r)

        monkeypatch.setattr(kam, "eps_v_norm", spy)
        v = random_perturbation(sp, rng, k_band=k_band, r=2.0, eps_target=0.03)
        (drawn, state), = seen
        factor = 0.03 / eps_v_norm(drawn, 2.0)
        ref = BlockPerturbation(blocks={key: factor * blk for key, blk in drawn.blocks.items()})
        assert np.array_equal(v._index, ref._index)
        assert v._data.tobytes() == ref._data.tobytes()
        assert not v._data.flags.writeable
        assert rng.bit_generator.state == state


def _block_norm(blk):
    """Spectral norm of one block: its modulus if it is 1 x 1, else one
    np.linalg.norm call."""
    return float(abs(blk[0, 0]) if blk.shape == (1, 1) else np.linalg.norm(blk, 2))


def _eps_v_norm_loop(v, r):
    """Per-block reference for eps_v_norm: one _block_norm per block."""
    per_n: dict = {}
    for (k, n, m), blk in v.blocks.items():
        w = (1.0 + abs(k)) ** r * _block_norm(blk)
        per_n[n] = per_n.get(n, 0.0) + w
    return max(per_n.values(), default=0.0)


def _weighted_block_norm_loop(space, sym, nu):
    """Per-block reference for weighted_block_norm: one _block_norm per
    non-zero level sub-block, summed by symbol key, then column level."""
    per_n = np.zeros(space.n_levels)
    for q, blk in sym.items():
        w = (1.0 + abs(q)) ** nu
        for n in range(space.n_levels):
            for m in range(space.n_levels):
                sub = blk[space.level_slice(n), space.level_slice(m)]
                if np.any(sub):
                    per_n[n] += w * _block_norm(sub)
    return float(per_n.max(initial=0.0))


def _random_symbol(space, rng, qs):
    ell = space.level_dim
    return {q: rng.normal(size=(ell, ell)) + 1j * rng.normal(size=(ell, ell)) for q in qs}


class TestBatchedNorms:
    """The batched block norms equal the per-block loops bit for bit."""

    MIXED = FloquetMatrixSpace(k_max=2, levels=((0.0, 2), (1.0, 3), (2.5, 1)), omega=GOLDEN)

    @pytest.mark.parametrize("nu", [0, 1, 2])
    @pytest.mark.parametrize("mixed", [False, True], ids=["mult1", "mixed"])
    def test_weighted_block_norm_random(self, space, mixed, nu):
        sp = self.MIXED if mixed else space
        sym = _random_symbol(sp, np.random.default_rng(11 + nu), [0, 3, -1, 7, -12, 1])
        assert weighted_block_norm(sp, sym, nu) == _weighted_block_norm_loop(sp, sym, nu)

    @pytest.mark.parametrize("mixed", [False, True], ids=["mult1", "mixed"])
    def test_weighted_block_norm_zero_blocks(self, space, mixed):
        sp = self.MIXED if mixed else space
        sym = _random_symbol(sp, np.random.default_rng(3), [2, 0, -2, 5])
        sym[5][:] = 0.0
        sl0, sl1 = sp.level_slice(0), sp.level_slice(1)
        sym[0][sl0, sl1] = 0.0
        sym[2][sl1, :] = 0.0
        sym[-2][:, sl0] = 0.0
        for nu in (0, 1.5):
            assert weighted_block_norm(sp, sym, nu) == _weighted_block_norm_loop(sp, sym, nu)
        only_zero = {4: np.zeros((sp.level_dim, sp.level_dim), dtype=complex)}
        assert weighted_block_norm(sp, only_zero, 1.0) == 0.0

    def test_empty_symbol(self, space):
        assert weighted_block_norm(space, {}, 1.0) == 0.0
        assert weighted_block_norm(self.MIXED, {}, 1.0) == 0.0

    @pytest.mark.parametrize("r", [0.0, 1.0, 2.0])
    @pytest.mark.parametrize("mixed", [False, True], ids=["mult1", "mixed"])
    def test_eps_v_norm_random(self, space, mixed, r):
        sp = self.MIXED if mixed else space
        v = random_perturbation(sp, np.random.default_rng(17), k_band=3, r=2.0, eps_target=0.3)
        assert eps_v_norm(v, r) == _eps_v_norm_loop(v, r)

    def test_eps_v_norm_zero_blocks(self):
        sp = self.MIXED
        v = random_perturbation(sp, np.random.default_rng(23), k_band=2, r=2.0, eps_target=0.1)
        blocks = dict(v.blocks)
        for key in ((1, 0, 1), (-1, 1, 0), (0, 2, 2)):
            blocks[key] = np.zeros_like(blocks[key])
        v0 = BlockPerturbation(blocks=blocks)
        assert eps_v_norm(v0, 2.0) == _eps_v_norm_loop(v0, 2.0)

    def test_zero_perturbation(self):
        assert eps_v_norm(BlockPerturbation.zero(), 2.0) == 0.0

    def test_one_by_one_blocks_take_the_modulus(self):
        """1 x 1 blocks skip the SVD; the modulus agrees with it to round-off."""
        rng = np.random.default_rng(31)
        for scale in (1e-20, 1e-3, 1.0, 1e5):
            z = scale * (rng.normal(size=(400, 1, 1)) + 1j * rng.normal(size=(400, 1, 1)))
            got = kam._spectral_norms(z)
            ref = np.linalg.norm(z, 2, axis=(-2, -1))
            assert got.shape == (400,)
            assert np.all(np.abs(got - ref) <= 1e-15 * ref)


def _symbol_loop(space, v):
    """Per-block reference for BlockPerturbation.symbol: each block added
    into its q's level-space matrix, q in order of first appearance."""
    ell = space.level_dim
    start = np.cumsum([0] + [m for _, m in space.levels]).tolist()
    out: dict = {}
    for (k, n, m), blk in v.blocks.items():
        target = out.setdefault(k, np.zeros((ell, ell), dtype=complex))
        target[start[n] : start[n + 1], start[m] : start[m + 1]] += blk
    return {q: blk for q, blk in out.items() if np.any(blk)}


def _hermitian_blocks(rng, keys, mult):
    """Random blocks V_{knm} for the given (k, n, m) with their partners
    V_{-k,m,n} = V_{knm}^+; mult maps a level key to its multiplicity."""
    blocks = {}
    for k, n, m in keys:
        shape = (mult[n], mult[m])
        blk = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        if (k, n) == (0, m):
            blk = blk + blk.conj().T
        blocks[(k, n, m)] = blk
        blocks[(-k, m, n)] = blk.conj().T
    return blocks


class TestBlockBookkeeping:
    """symbol and eps_v_norm read the packed blocks whole; these hold them
    to the per-block references and refusals bit for bit."""

    MIXED = TestBatchedNorms.MIXED

    @pytest.mark.parametrize("bad", [(1, 0, 7), (1, -1, 2), (2, 4, 0)])
    def test_block_outside_the_space_is_refused(self, space, bad):
        k, n, m = bad
        blocks = {(0, 0, 0): np.array([[0.01]]), bad: np.array([[0.002]]), (-k, m, n): np.array([[0.002]])}
        with pytest.raises(ValueError) as err:
            kam_iterate(space, BlockPerturbation(blocks=blocks))
        assert str(err.value) == f"block {bad} references a level outside the space"

    def test_block_of_the_wrong_shape_is_refused(self, space):
        blk = np.array([[0.01, 0.02]])
        v = BlockPerturbation(blocks={(0, 1, 1): np.array([[0.01]]), (1, 0, 1): blk, (-1, 1, 0): blk.conj().T})
        with pytest.raises(ValueError) as err:
            kam_iterate(space, v)
        assert str(err.value) == "block (1, 0, 1) has shape (1, 2), expected (1, 1)"

    def test_the_first_bad_block_in_block_order_is_named(self):
        sp = self.MIXED
        wide, one = np.full((2, 2), 0.01), np.array([[0.01]])
        blocks = {(0, 1, 1): np.eye(3), (1, 0, 2): wide[:1], (-1, 2, 0): wide[:1].T,
                  (0, 5, 5): one, (2, 0, 0): wide, (-2, 0, 0): wide}
        with pytest.raises(ValueError, match=r"^block \(1, 0, 2\) has shape \(1, 2\), expected \(2, 1\)$"):
            BlockPerturbation(blocks=blocks).symbol(sp)
        del blocks[(1, 0, 2)], blocks[(-1, 2, 0)]
        with pytest.raises(ValueError, match=r"^block \(0, 5, 5\) references a level outside the space$"):
            BlockPerturbation(blocks=blocks).symbol(sp)

    @pytest.mark.parametrize("mixed", [False, True], ids=["mult1", "mixed"])
    def test_symbol_keys_in_first_appearance_order(self, space, mixed):
        """q comes out in order of first appearance (here 2, -2, 0, 1, -1),
        a q whose blocks are all zero (3) is dropped, and level_hamiltonian,
        which sums in that order, is unchanged to the bit."""
        sp = self.MIXED if mixed else space
        mult = {n: m for n, (_, m) in enumerate(sp.levels)}
        keys = [(2, 0, 1), (0, 1, 1), (1, 2, 0), (0, 0, 2), (3, 1, 2), (2, 2, 2), (1, 1, 1)]
        blocks = _hermitian_blocks(np.random.default_rng(41), keys, mult)
        blocks[(3, 1, 2)] = np.zeros_like(blocks[(3, 1, 2)])
        blocks[(-3, 2, 1)] = np.zeros_like(blocks[(-3, 2, 1)])
        v = BlockPerturbation(blocks=blocks)
        sym, ref = v.symbol(sp), _symbol_loop(sp, v)
        assert list(sym) == list(ref) == [2, -2, 0, 1, -1]
        for q, blk in ref.items():
            assert np.array_equal(sym[q], blk)
        for t in (0.0, 0.37, 2.9):
            expected = np.diag(sp.h_expanded).astype(complex)
            for q, blk in ref.items():
                expected = expected + np.exp(1j * q * sp.omega * t) * blk
            assert np.array_equal(level_hamiltonian(sp, v, t), expected)

    @pytest.mark.parametrize("r", [0.0, 1.0, 2.5, 3])
    def test_eps_v_norm_on_negative_and_gappy_level_keys(self, r):
        """eps_v_norm needs no space: level keys may be negative or leave
        gaps, and shapes may mix; each level's sum runs in block order."""
        mult = {-3: 1, 5: 2, 2: 1, 11: 3}
        keys = [(1, -3, 5), (0, 2, 2), (2, -3, -3), (0, 11, 5), (3, 5, 2), (1, 11, -3), (0, -3, 2), (4, 11, 11)]
        v = BlockPerturbation(blocks=_hermitian_blocks(np.random.default_rng(43), keys, mult))
        assert eps_v_norm(v, r) == _eps_v_norm_loop(v, r)


class TestTypedRefusals:
    """The public KAM helpers refuse a non-finite, negative, boolean or
    text weight with a ValueError that names the argument."""

    @pytest.mark.parametrize("r", [math.nan, math.inf, -0.5, True, "2", None])
    def test_eps_v_norm_weight(self, rough_v, r):
        with pytest.raises(ValueError, match="^r must be a finite number >= 0"):
            eps_v_norm(rough_v, r)

    @pytest.mark.parametrize("nu", [math.nan, -math.inf, True, "1"])
    def test_weighted_block_norm_weight(self, space, nu):
        with pytest.raises(ValueError, match="^nu must be a finite number"):
            weighted_block_norm(space, {0: np.eye(space.level_dim, dtype=complex)}, nu)
        with pytest.raises(ValueError, match="^nu must be a finite number"):
            weighted_block_norm(space, {}, nu)

    @pytest.mark.parametrize(
        "field, value, rule",
        [
            ("eps_target", math.nan, "a finite number >= 0"),
            ("eps_target", math.inf, "a finite number >= 0"),
            ("eps_target", -1e-3, "a finite number >= 0"),
            ("eps_target", "0.1", "a finite number >= 0"),
            ("k_band", -1, "an integer >= 0"),
            ("k_band", 1.5, "an integer >= 0"),
            ("k_band", True, "an integer >= 0"),
            ("r", math.nan, "a finite number >= 0"),
            ("r", -1.0, "a finite number >= 0"),
        ],
    )
    def test_random_perturbation_arguments(self, space, field, value, rule):
        """Refused before any draw: the generator's state does not move."""
        args = {"k_band": 2, "r": 2.0, "eps_target": 0.01, field: value}
        rng = np.random.default_rng(19)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=f"^{field} must be {rule}, got "):
            random_perturbation(space, rng, **args)
        assert rng.bit_generator.state == state

    def test_valid_arguments_of_numpy_types(self, space):
        """numpy integers and floats are numbers; the draws match the
        Python-typed call's."""
        a = random_perturbation(space, np.random.default_rng(2), k_band=2, r=2.0, eps_target=0.01)
        b = random_perturbation(space, np.random.default_rng(2), k_band=np.int64(2), r=np.float64(2.0),
                                eps_target=np.float64(0.01))
        assert list(a.blocks) == list(b.blocks)
        assert all(np.array_equal(a.blocks[key], b.blocks[key]) for key in a.blocks)


def _homological_lhs(space, e_level, a):
    """[A, K_0 + E] for a symbol A and a level-space matrix E at q = 0:
    block q is A_q E - E A_q - (q omega + h_a - h_b) A_q."""
    k0_gaps = kam._denominators(space, kam._cap(a), space.h_expanded)
    return a @ e_level - e_level @ a - k0_gaps * a


def _symbol(cap, ell, cells):
    """A (2 cap + 1, L, L) symbol with the given {(q, a, b): value} entries."""
    sym = np.zeros((2 * cap + 1, ell, ell), dtype=complex)
    for (q, a, b), val in cells.items():
        sym[q + cap, a, b] = val
    return sym


class TestHomologicalSolve:
    """kam._solve_sym, the solve the iteration runs: [A, K_0 + D(G)] = -Y
    for Y = (1-D)Y, one division per cell in the basis where K_0 + D(G)
    is diagonal."""

    SP2 = FloquetMatrixSpace(k_max=1, levels=((0.0, 1), (1.0, 1)), omega=GOLDEN)
    MIXED = TestBatchedNorms.MIXED
    # omega = 1: q omega + h_a - h_b is exactly 0 at q = 1 (0, 1), 2 (1, 2),
    # 3 (0, 2) and their mirrors
    RES = FloquetMatrixSpace(k_max=1, levels=((0.5, 1), (1.5, 1), (3.5, 1)), omega=1.0)

    def test_two_level_example(self):
        e_level = np.zeros((2, 2))
        y = _symbol(1, 2, {(0, 0, 1): 0.2 + 0.1j, (0, 1, 0): -(0.2 - 0.1j)})
        a, min_denom = kam._solve_sym(self.SP2, e_level, y, 1e-8)
        assert np.abs(_homological_lhs(self.SP2, e_level, a) + y).max() <= 1e-14
        assert a[1, 0, 1] == pytest.approx(y[1, 0, 1] / (0.0 - 1.0))
        assert min_denom == 1.0

    def test_random_dense(self):
        """A random Hermitian symbol against K_0 dressed by a random D(G)
        that is not diagonal inside the levels of multiplicity 2 and 3."""
        sp, cap, ell = self.MIXED, 3, self.MIXED.level_dim
        rng = np.random.default_rng(5)
        y = _random_array_symbol(rng, cap, ell)
        y = kam._sym_offd(sp, 0.5 * (y + kam._adjoint(y)))
        e = 0.05 * (rng.normal(size=(ell, ell)) + 1j * rng.normal(size=(ell, ell)))
        e_level = kam._block_diag(sp, e + e.conj().T)
        a, min_denom = kam._solve_sym(sp, e_level, y, 1e-8)
        assert np.abs(_homological_lhs(sp, e_level, a) + y).max() <= 1e-12
        # Hermitian data yields an anti-Hermitian generator
        assert np.abs(a + kam._adjoint(a)).max() <= 1e-12
        assert not np.any(kam._sym_d(sp, a))
        assert 0.0 < min_denom < 1.0

    def test_guard_abort_carries_pair(self):
        """The first denominator below the guard in ascending q aborts, with
        its (q, n, m), whether it is exactly zero or just below the guard."""
        y = _symbol(3, 3, {(3, 0, 2): 1.0, (2, 1, 2): 1.0, (-1, 1, 0): 1.0, (-3, 0, 1): 1.0})
        with pytest.raises(SmallDenominatorError) as err:
            kam._solve_sym(self.RES, np.zeros((3, 3)), y, 1e-8)
        assert err.value.pair == (-1, 1, 0)
        assert err.value.gap == 0.0
        # dressing level 1 by 1e-10 opens that gap, still below the guard
        with pytest.raises(SmallDenominatorError) as err:
            kam._solve_sym(self.RES, np.diag([0.0, 1e-10, 0.0]), y, 1e-8)
        assert err.value.pair == (-1, 1, 0)
        assert 0.0 < abs(err.value.gap) < 1e-8
        # the later cells abort the solve once the first one is gone
        y[-1 + 3] = 0.0
        with pytest.raises(SmallDenominatorError) as err:
            kam._solve_sym(self.RES, np.zeros((3, 3)), y, 1e-8)
        assert err.value.pair == (2, 1, 2)

    def test_true_degeneracy_is_skipped_not_guarded(self):
        """q = 0 cells inside a level of multiplicity 2 are structure: their
        zero denominators neither abort nor divide."""
        y = _symbol(2, 6, {(0, 0, 1): 1.0, (0, 1, 0): 1.0})
        a, min_denom = kam._solve_sym(self.MIXED, np.zeros((6, 6)), y, 1e-8)
        assert np.abs(a).max() == 0.0
        assert min_denom == math.inf

    def test_degenerate_entries_skipped(self):
        sp = FloquetMatrixSpace(k_max=1, levels=((1.0, 2), (2.0, 1)), omega=GOLDEN)
        y = _symbol(1, 3, {(0, 0, 1): 0.7, (0, 0, 2): 0.3, (0, 2, 0): -0.3})
        a, _ = kam._solve_sym(sp, np.zeros((3, 3)), y, 1e-8)
        assert a[1, 0, 1] == 0.0 and a[1, 1, 0] == 0.0
        assert a[1, 0, 2] == pytest.approx(0.3 / (1.0 - 2.0))


def _solve_sym_rotating(space, e_level, y, guard):
    """Reference for kam._solve_sym that always rotates: an identity
    rotation on every level of multiplicity 1."""
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
    cap = kam._cap(y)
    denom = kam._denominators(space, cap, d)
    needed = rotated != 0.0
    needed[cap] &= ~kam._same_level(space)
    a_sym = np.zeros_like(rotated)
    np.divide(rotated, denom, out=a_sym, where=needed)
    return rot @ a_sym @ rot.conj().T


class TestSolveRotation:
    """_solve_sym rotates only when some level is degenerate."""

    MIXED = TestBatchedNorms.MIXED

    def _case(self, sp, seed):
        rng = np.random.default_rng(seed)
        ell = sp.level_dim
        y = _random_array_symbol(rng, 4, ell)
        y = kam._sym_offd(sp, 0.5 * (y + kam._adjoint(y)))
        e = 0.05 * (rng.normal(size=(ell, ell)) + 1j * rng.normal(size=(ell, ell)))
        return kam._block_diag(sp, e + e.conj().T), y

    @staticmethod
    def _eigh_shapes(monkeypatch):
        seen, eigh = [], np.linalg.eigh

        def recording_eigh(a, *args, **kwargs):
            seen.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
        return seen

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_multiplicity_one_equals_the_identity_rotation(self, space, monkeypatch, seed):
        e_level, y = self._case(space, seed)
        expected = _solve_sym_rotating(space, e_level, y, 1e-8)
        seen = self._eigh_shapes(monkeypatch)
        a, _ = kam._solve_sym(space, e_level, y, 1e-8)
        assert seen == []
        assert np.array_equal(a, expected)

    def test_degenerate_levels_still_rotate(self, monkeypatch):
        e_level, y = self._case(self.MIXED, 4)
        expected = _solve_sym_rotating(self.MIXED, e_level, y, 1e-8)
        seen = self._eigh_shapes(monkeypatch)
        a, _ = kam._solve_sym(self.MIXED, e_level, y, 1e-8)
        assert seen == [(2, 2), (3, 3)]
        assert np.array_equal(a, expected)


class TestDiagonalPart:
    """kam._sym_d, the projection D the iteration runs: the q = 0 block,
    level by level, with the cells inside a degenerate level kept."""

    MIXED = TestBatchedNorms.MIXED

    def test_idempotent_and_degenerate_keep(self):
        x = _random_array_symbol(np.random.default_rng(9), 2, 6)
        dx = kam._sym_d(self.MIXED, x)
        assert np.array_equal(kam._sym_d(self.MIXED, dx), dx)
        # levels 0 (indices 0, 1) and 1 (indices 2, 3, 4) keep their cells
        assert dx[2, 0, 1] == x[2, 0, 1] and dx[2, 2, 4] == x[2, 2, 4]
        assert dx[2, 1, 2] == 0.0 and dx[2, 4, 5] == 0.0
        assert not np.any(np.delete(dx, 2, axis=0))

    def test_kills_offdiagonal_norm(self):
        x = _random_array_symbol(np.random.default_rng(9), 2, 6)
        offd = kam._sym_offd(self.MIXED, x)
        assert np.abs(kam._sym_d(self.MIXED, offd)).max() == 0.0
        assert np.array_equal(kam._sym_d(self.MIXED, x) + offd, x)


class TestIteration:
    def test_zero_perturbation(self, space):
        res = kam_iterate(space, BlockPerturbation.zero())
        assert res.converged and res.iterations == 0
        assert list(res.w_blocks) == [0]
        assert np.array_equal(res.w_blocks[0], np.eye(space.level_dim))
        assert np.abs(res.g_level).max() == 0.0

    def test_diagonal_perturbation(self, space):
        v = BlockPerturbation(
            blocks={
                (0, 0, 0): np.array([[0.03]]),
                (0, 1, 1): np.array([[-0.02]]),
                (0, 2, 2): np.array([[0.01]]),
                (0, 3, 3): np.array([[0.005]]),
            }
        )
        res = kam_iterate(space, v)
        assert res.converged and res.iterations == 0
        assert np.allclose(res.g_level, np.diag([0.03, -0.02, 0.01, 0.005]))

    def test_golden_instance_converges(self, golden_result):
        res = golden_result
        assert res.converged
        assert res.iterations <= 8
        assert res.final_residual < 1e-10
        resids = [st.offdiag_residual for st in res.history]
        for early, late in zip(resids, resids[1:]):
            if early > 1e-14:
                assert late <= 0.5 * early
        assert max(st.conj_residual for st in res.history) <= 1e-8
        assert max(st.herm_g_residual for st in res.history) <= 1e-9
        assert max(st.antiherm_a_residual for st in res.history) <= 1e-9
        assert max(st.unitary_w_residual for st in res.history) <= 1e-9
        # the terminal record carries A = 0: its residual is exact, no SVD
        assert res.history[-1].antiherm_a_residual == 0.0

    def test_golden_history_metadata(self, golden_result, space, rough_v):
        first = golden_result.history[0]
        assert first.s == 0
        assert first.eps_v == pytest.approx(eps_v_norm(rough_v, 2.0))
        assert first.min_denominator > 0.0
        assert math.isfinite(golden_result.w_weighted_norm)

    def test_resonant_aborts_with_diagnostics(self):
        sp = FloquetMatrixSpace(k_max=8, levels=LEVELS, omega=1.0)
        v = BlockPerturbation(
            blocks={
                (1, 0, 1): np.array([[0.004]]),
                (-1, 1, 0): np.array([[0.004]]),
                (1, 1, 2): np.array([[0.003j]]),
                (-1, 2, 1): np.array([[-0.003j]]),
            }
        )
        res = kam_iterate(sp, v)
        assert res.status == "small_denominator_abort"
        assert res.abort_pair is not None
        assert res.abort_pair[0] in (1, -1)
        assert abs(res.abort_gap) <= 1e-8
        assert not res.converged
        with pytest.raises(NotConvergedError):
            res.propagator(1.0, 0.0)

    def test_iteration_limit_status(self, space, rough_v):
        res = kam_iterate(space, rough_v, KamConfig(max_iters=1, tol=1e-15))
        assert res.status == "iteration_limit"
        assert not res.converged

    def test_config_validation(self):
        with pytest.raises(ValueError):
            KamConfig(max_iters=0)
        # an int beyond the float range is not a finite number
        with pytest.raises(ValueError, match="max_iters"):
            KamConfig(max_iters=10**400)
        with pytest.raises(ValueError, match="r_weight"):
            KamConfig(r_weight=10**400)
        with pytest.raises(ValueError):
            KamConfig(tol=0.0)
        for guard in (0.0, -1.0, math.nan, math.inf, "abc"):
            with pytest.raises(ValueError, match="min_denom_guard"):
                KamConfig(min_denom_guard=guard)

    def test_working_set_holds_no_dense_window(self):
        """A run keeps symbols and scalars, not (2 k_max + 1) L-square
        windows: with the result alive, what it still holds on a 12-level,
        k_max = 12 arena stays below one 300 x 300 complex window."""
        omega = GOLDEN * 1.01
        levels = tuple((0.5 + (GOLDEN - 1) * omega * n, 1) for n in range(12))
        sp = FloquetMatrixSpace(k_max=12, levels=levels, omega=omega)
        v = random_perturbation(sp, np.random.default_rng(12), k_band=2, r=2.0, eps_target=0.002)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            res = kam_iterate(sp, v, KamConfig(max_iters=8, tol=1e-10))
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert res.converged and res.iterations >= 2
        assert held < ((2 * sp.k_max + 1) * sp.level_dim) ** 2 * 16


    def test_no_svd_wider_than_the_level_space(self, monkeypatch):
        """Every residual a run reports comes from one eigvalsh of a stack
        of level-space blocks, and none from an SVD. On a 12-level,
        k_max = 12 arena, whose 1 x 1 blocks take their modulus in the block
        norms, the run takes no SVD at all."""
        import numpy.linalg._linalg as linalg_impl

        omega = GOLDEN * 1.01
        levels = tuple((0.5 + (GOLDEN - 1) * omega * n, 1) for n in range(12))
        sp = FloquetMatrixSpace(k_max=12, levels=levels, omega=omega)
        v = random_perturbation(sp, np.random.default_rng(12), k_band=2, r=2.0, eps_target=0.002)
        svd_shapes, eig_shapes = [], []
        svd, eigvalsh = linalg_impl.svd, np.linalg.eigvalsh

        def recording_svd(a, *args, **kwargs):
            svd_shapes.append(np.shape(a))
            return svd(a, *args, **kwargs)

        def recording_eigvalsh(a, *args, **kwargs):
            eig_shapes.append(np.shape(a))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(linalg_impl, "svd", recording_svd)
        monkeypatch.setattr(np.linalg, "eigvalsh", recording_eigvalsh)
        res = kam_iterate(sp, v, KamConfig(max_iters=8, tol=1e-10))
        assert res.converged and res.iterations >= 2
        assert eig_shapes, "the residual norms no longer go through numpy's eigvalsh; the guard is blind"
        n_grid, ell = kam._grid_size(6 * sp.k_max), sp.level_dim
        assert set(eig_shapes) == {(n_grid, ell, ell), (24, ell, ell)}
        assert svd_shapes == []


class TestPropagator:
    def test_matches_brute_force(self, space, rough_v, golden_result):
        """W(t)^dag exp(-i(t-s)(H_0+G)) W(s) against direct integration of
        the time-dependent level Hamiltonian."""
        big_t = 2 * math.pi / space.omega
        worst = 0.0
        for t in (0.3 * big_t, 1.0 * big_t, 1.7 * big_t, 2.5 * big_t, 3.0 * big_t):
            u_kam = golden_result.propagator(t, 0.0).entries
            u_ref = propagate_generic(
                lambda tt: level_hamiltonian(space, rough_v, tt),
                space.level_dim,
                0.0,
                t,
                n_steps=max(64, int(220 * t / big_t)),
            )
            worst = max(worst, float(np.linalg.norm(u_kam - u_ref, 2)))
        assert worst <= 1e-5

    def test_unitary_and_composes(self, space, golden_result):
        u = golden_result.propagator(0.7, 0.0).entries
        assert np.linalg.norm(u @ u.conj().T - np.eye(space.level_dim), 2) <= 1e-10
        u10 = golden_result.propagator(1.0, 0.0).entries
        u1h = golden_result.propagator(1.0, 0.7).entries
        assert np.linalg.norm(u1h @ u - u10, 2) <= 1e-10

    def test_reconstruct_accepts_level_g(self, space, golden_result):
        u1 = reconstruct_propagator(
            space, golden_result.w_blocks, golden_result.g_level, 0.4, 0.1
        ).entries
        u2 = golden_result.propagator(0.4, 0.1).entries
        assert np.allclose(u1, u2, atol=1e-14)

    def test_perturbation_band_wider_than_the_cap(self):
        """Blocks of V beyond the cap of 6 k_max widen the symbols instead of
        dropping out: the propagator still matches direct integration."""
        sp = FloquetMatrixSpace(k_max=1, levels=((0.5, 1), (1.5, 1)), omega=GOLDEN)
        v = BlockPerturbation(
            blocks={
                (1, 0, 1): np.array([[0.003]]),
                (-1, 1, 0): np.array([[0.003]]),
                (9, 0, 1): np.array([[0.002j]]),
                (-9, 1, 0): np.array([[-0.002j]]),
            }
        )
        res = kam_iterate(sp, v)
        assert res.converged
        assert max(res.w_blocks) >= 9
        t = 2 * math.pi / sp.omega
        u_ref = propagate_generic(lambda tt: level_hamiltonian(sp, v, tt), sp.level_dim, 0.0, t, 600)
        assert np.linalg.norm(res.propagator(t, 0.0).entries - u_ref, 2) <= 1e-6


class TestSerialization:
    def test_problem_round_trip(self, space, rough_v):
        cfg = KamConfig(max_iters=9, tol=1e-9, min_denom_guard=1e-6)
        doc = problem_to_json_dict(space, rough_v, cfg)
        text = json.dumps(doc)
        sp2, v2, cfg2 = load_problem(text)
        assert sp2 == space
        assert cfg2 == cfg
        assert "min_denom_guard" not in problem_to_json_dict(space, rough_v, KamConfig())
        for key, blk in rough_v.blocks.items():
            assert np.allclose(v2.blocks[key], blk, atol=1e-15)

    @pytest.mark.parametrize("schedule", ["fourier_cutoff", None])
    def test_schedule_is_constant_or_absent(self, space, rough_v, schedule):
        doc = problem_to_json_dict(space, rough_v, KamConfig())
        assert "schedule" not in doc
        assert load_problem(dict(doc, schedule="constant"))[2] == load_problem(doc)[2]
        with pytest.raises(ValueError, match="schedule"):
            load_problem(dict(doc, schedule=schedule))

    def test_history_jsonl(self, golden_result):
        text = history_to_jsonl(golden_result.history)
        lines = [json.loads(line) for line in text.strip().splitlines()]
        assert len(lines) == len(golden_result.history)
        for i, row in enumerate(lines):
            assert row["s"] == i
            assert "offdiag_residual" in row and "conj_residual" in row


def _capped_product(a, b):
    """Direct convolution of two (2 cap + 1, L, L) symbols, kept on |q| <= cap."""
    cap = (len(a) - 1) // 2
    out = np.zeros_like(a, dtype=complex)
    nonzero_b = [qb for qb in range(-cap, cap + 1) if np.any(b[qb + cap])]
    for qa in range(-cap, cap + 1):
        if not np.any(a[qa + cap]):
            continue
        for qb in nonzero_b:
            if abs(qa + qb) <= cap:
                out[qa + qb + cap] += a[qa + cap] @ b[qb + cap]
    return out


def _random_array_symbol(rng, cap, ell, band=None, scale=1.0):
    band = cap if band is None else band
    sym = np.zeros((2 * cap + 1, ell, ell), dtype=complex)
    sym[cap - band : cap + band + 1] = scale * (
        rng.normal(size=(2 * band + 1, ell, ell)) + 1j * rng.normal(size=(2 * band + 1, ell, ell))
    )
    return sym


def _materialize(space, sym):
    """Dense (2 k_max + 1) L window of a symbol: block (k1, k2) = S_{k1 - k2},
    zero beyond the cap. The reference the symbol norm is measured against."""
    cap, nk, ell = kam._cap(sym), 2 * space.k_max + 1, space.level_dim
    out = np.zeros((nk, ell, nk, ell), dtype=complex)
    for q in range(-min(cap, nk - 1), min(cap, nk - 1) + 1):
        k1 = np.arange(max(q, 0), nk + min(q, 0))
        out[k1, :, k1 - q] = sym[q + cap]
    return out.reshape(nk * ell, nk * ell)


def _anti_hermitian(sym):
    """(S - S^+) / 2 as a total operator: (S^+)_q = (S_{-q})^+."""
    return 0.5 * (sym - sym[::-1].conj().transpose(0, 2, 1))


class TestArraySymbols:
    """The theta-grid core against direct Fourier-block arithmetic."""

    @pytest.mark.parametrize("cap", [1, 4, 9, 48])
    def test_grid_product_is_the_capped_convolution(self, cap):
        rng = np.random.default_rng(cap)
        a, b = (_random_array_symbol(rng, cap, 3) for _ in range(2))
        ref = _capped_product(a, b)
        tol = 1e-15 * np.abs(ref).max()
        for n_grid in (3 * cap + 1, kam._grid_size(cap)):
            grid = kam._from_grid(kam._to_grid(a, n_grid) @ kam._to_grid(b, n_grid), cap)
            assert np.abs(grid - ref).max() <= tol
            assert np.abs(grid[[0, -1]] - ref[[0, -1]]).max() <= tol  # |q| = cap
        # one point fewer aliases the product's |q| = 2 cap tail onto q = -+cap
        short = kam._from_grid(kam._to_grid(a, 3 * cap) @ kam._to_grid(b, 3 * cap), cap)
        assert np.abs(short[0] - ref[0]).max() > 1e3 * tol

    def test_grid_size_is_scipys_next_fast_len(self):
        """The grid length is scipy.fft.next_fast_len(3 cap + 1), computed
        without importing scipy.fft."""
        from scipy.fft import next_fast_len

        assert [kam._grid_size(cap) for cap in range(2000)] == [next_fast_len(3 * cap + 1) for cap in range(2000)]

    def test_array_dict_round_trip(self, space):
        sym = _random_symbol(space, np.random.default_rng(4), [-3, 0, 2, 5])
        arr = kam._as_array(sym, 6, space.level_dim)
        back = kam._as_dict(arr)
        assert list(back) == [-3, 0, 2, 5]
        for q, blk in sym.items():
            assert np.array_equal(back[q], blk)

    def test_materialize_is_block_toeplitz(self, space):
        cap = 2 * space.k_max
        arr = _random_array_symbol(np.random.default_rng(8), cap, space.level_dim)
        dense = _materialize(space, arr)
        ell, nk = space.level_dim, 2 * space.k_max + 1
        for k1 in range(nk):
            for k2 in range(nk):
                blk = dense[k1 * ell : (k1 + 1) * ell, k2 * ell : (k2 + 1) * ell]
                assert np.array_equal(blk, arr[k1 - k2 + cap])
        # offsets beyond a smaller cap are zero
        small = _materialize(space, arr[cap - 3 : cap + 4])
        assert not np.any(small[: ell, 4 * ell : 5 * ell])
        assert np.array_equal(small[: ell, 3 * ell : 4 * ell], arr[cap - 3])


class TestSymbolNorm:
    """kam._sym_norm: sup_theta ||S(theta)|| of a Hermitian symbol, the norm
    of the whole block-Laurent operator, as the max over the engine's theta
    grid of the largest |eigenvalue|."""

    @staticmethod
    def _banded(k_max, ell, band, seed):
        """A Hermitian symbol of the engine's cap, 6 k_max, with blocks
        |q| <= band: a random symbol plus its adjoint."""
        sym = _random_array_symbol(np.random.default_rng(seed), 6 * k_max, ell, band=band)
        return sym + kam._adjoint(sym)

    @staticmethod
    def _svd_grid_max(sym):
        """The batched-SVD grid max the norm took before it assumed a
        Hermitian symbol."""
        vals = kam._to_grid(sym, kam._grid_size(kam._cap(sym)))
        return float(np.linalg.norm(vals, 2, axis=(-2, -1)).max())

    def test_constant_symbol_is_its_block_norm(self):
        sym = np.zeros((13, 5, 5), dtype=complex)
        blk = np.random.default_rng(2).normal(size=(5, 5)) + 1j
        sym[6] = blk + blk.conj().T
        assert kam._sym_norm(sym) == pytest.approx(np.linalg.norm(sym[6], 2), rel=1e-15)
        assert kam._sym_norm(np.zeros_like(sym)) == 0.0

    @pytest.mark.parametrize("k_max, ell, band", [(2, 1, 1), (2, 3, 1), (4, 4, 2), (8, 6, 2), (12, 12, 2)])
    def test_equals_the_svd_grid_max(self, k_max, ell, band):
        """On Hermitian symbols, and on i times anti-Hermitian ones (the
        herm_g residual's i(G - G^+)), the eigvalsh norm is the batched-SVD
        grid max to 1e-14 relative."""
        for seed in range(5):
            sym = self._banded(k_max, ell, band, seed)
            assert kam._sym_norm(sym) == pytest.approx(self._svd_grid_max(sym), rel=1e-14, abs=0.0)
            raw = _random_array_symbol(np.random.default_rng(100 + seed), 6 * k_max, ell, band=band)
            anti = raw - kam._adjoint(raw)
            assert kam._sym_norm(1j * anti) == pytest.approx(self._svd_grid_max(anti), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("k_max, ell, band", [(2, 3, 1), (4, 1, 2), (4, 4, 2), (8, 6, 2)])
    def test_bounds_the_dense_window(self, k_max, ell, band):
        """The window is a compression of the operator, so its norm is
        below sup_theta; the grid max sits above it on banded symbols."""
        sp = FloquetMatrixSpace(k_max=k_max, levels=tuple((0.5 + n, 1) for n in range(ell)), omega=GOLDEN)
        for seed in range(5):
            sym = self._banded(k_max, ell, band, seed)
            assert kam._sym_norm(sym) >= np.linalg.norm(_materialize(sp, sym), 2)

    @pytest.mark.parametrize("k_max, ell", [(8, 1), (8, 6), (12, 4)])
    def test_close_to_the_sup(self, k_max, ell):
        """On V-like symbols (band 2) the grid max is within 1e-3 of the
        max over a 16 times finer grid, and never above it."""
        for seed in range(5):
            sym = self._banded(k_max, ell, 2, seed)
            n_fine = 16 * kam._grid_size(kam._cap(sym))
            fine = np.linalg.norm(kam._to_grid(sym, n_fine), 2, axis=(-2, -1)).max()
            got = kam._sym_norm(sym)
            assert fine * (1 - 1e-3) <= got <= fine * (1 + 1e-15)


class TestPointwiseAd:
    """exp(ad_A), E1(ad_A) and ad_A Phi(ad_A) applied pointwise in theta
    against their power series on Fourier blocks.

    A and X have |q| <= 1 and ||ad_A|| < 0.9, so 24 series terms reach
    1e-20; the series run on a cap of 26, where no product is truncated,
    and are cut back to the working cap at the end, so they give the
    exact Fourier blocks of the true operators.
    """

    CAP, WIDE, ELL, TERMS = 12, 26, 4, 24

    @pytest.fixture(scope="class")
    def pair(self):
        rng = np.random.default_rng(21)
        a = _anti_hermitian(_random_array_symbol(rng, self.WIDE, self.ELL, band=1, scale=0.08))
        x = _random_array_symbol(rng, self.WIDE, self.ELL, band=1)
        return a, x

    def _series(self, a, x, coeff):
        """sum_n coeff(n) ad_A^n X on the wide cap."""
        acc = coeff(0) * x
        term = x
        for n in range(1, self.TERMS):
            term = _capped_product(a, term) - _capped_product(term, a)
            acc = acc + coeff(n) * term
        return acc

    def _narrow(self, sym):
        return sym[self.WIDE - self.CAP : self.WIDE + self.CAP + 1]

    @pytest.mark.parametrize(
        "factor, coeff",
        [
            (lambda ad: ad.exp, lambda n: 1 / math.factorial(n)),
            (lambda ad: ad.e1, lambda n: 1 / math.factorial(n + 1)),
            (lambda ad: ad.exp - ad.e1, lambda n: n / math.factorial(n + 1)),
        ],
        ids=["exp", "E1", "ad_Phi"],
    )
    def test_against_power_series(self, pair, factor, coeff):
        a, x = pair
        spread = np.abs(np.linalg.eigvalsh(1j * kam._to_grid(a, 64))).max()
        assert 0.2 < spread < 0.45  # ||ad_A|| <= 2 spread
        ad = kam._PointwiseAd(self._narrow(a), kam._grid_size(self.CAP))
        got = ad.apply((factor(ad), self._narrow(x)))
        ref = self._narrow(self._series(a, x, coeff))
        assert np.abs(ref).max() > 0.1
        assert np.abs(got - ref).max() <= 1e-14

    def test_exp_step(self, pair):
        """W = 1 + (e^A - 1) 1 is unitary on the grid and its blocks are
        those of the exponential series of A."""
        a, _ = pair
        n_grid = kam._grid_size(self.CAP)
        ad = kam._PointwiseAd(self._narrow(a), n_grid)
        eye = np.broadcast_to(np.eye(self.ELL, dtype=complex), (n_grid, self.ELL, self.ELL))
        w = eye + ad.expm1_times(eye)
        assert np.abs(w @ w.conj().transpose(0, 2, 1) - eye).max() <= 1e-15
        term = np.zeros_like(a)
        term[self.WIDE] = np.eye(self.ELL)
        exp_a = term.copy()
        for n in range(1, self.TERMS):
            term = _capped_product(a, term) / n
            exp_a = exp_a + term
        assert np.abs(kam._from_grid(w, self.CAP) - self._narrow(exp_a)).max() <= 1e-15


class TestPinnedGolden:
    """kam_golden and kam_resonant against the values the dict-and-series
    engine printed before the array core replaced it. The history
    residuals are sup_theta norms on the engine's grid."""

    G_DIAG = (5.169917173119521e-08, -1.766725487897953e-05, -1.050776979265276e-06,
              -6.823197454573142e-05)
    # (offdiag, conj, herm_g, antiherm_a, unitary_w) per record. The norms
    # assume Hermitian symbols (eigvalsh of the Hermitian part); against
    # the earlier batched SVD, three round-off-level values moved:
    # conj 1.865443073287072e-19 -> 1.710100197116133e-19 (s = 1) and
    # 2.169739792406009e-19 -> 2.097112583314967e-19 (s = 2), where c - target
    # has a non-Hermitian part at the round-off floor, and the last offdiag
    # 1.9056872335523836e-15 -> 1.9056872313991782e-15 (2.2e-24 absolute).
    HISTORY = (
        (4.3230703405004316e-04, 0.0, 0.0, 1.916251500205591e-19, 0.0),
        (7.324568195752592e-08, 1.710100197116133e-19, 4.4461573253306235e-23,
         1.8771238922399546e-23, 4.44141561974888e-16),
        (1.9056872313991782e-15, 2.097112583314967e-19, 4.44615732169252e-23, 0.0,
         6.661339154907187e-16),
    )

    def test_golden(self):
        from floquet_lab.cli import shipped_config_path
        space, v, config = load_problem(json.loads(open(shipped_config_path("kam_golden.json")).read()))
        res = kam_iterate(space, v, config)
        assert res.status == "converged" and res.iterations == 2
        assert res.message == "off-diagonal residual 1.906e-15 below tol after 2 iterations"
        got = [(st.offdiag_residual, st.conj_residual, st.herm_g_residual, st.antiherm_a_residual,
                st.unitary_w_residual) for st in res.history]
        assert len(got) == len(self.HISTORY)
        for row, pinned in zip(got, self.HISTORY):
            assert row == pytest.approx(pinned, rel=1e-12, abs=0.0)
        assert np.allclose(res.g_level, np.diag(self.G_DIAG), rtol=1e-12, atol=1e-20)
        assert res.w_weighted_norm == pytest.approx(1.0021580460579997, rel=1e-12)
        assert len(res.w_blocks) == 2 * 6 * space.k_max + 1

    def test_resonant_abort_pair(self):
        from floquet_lab.cli import shipped_config_path
        space, v, config = load_problem(json.loads(open(shipped_config_path("kam_resonant.json")).read()))
        res = kam_iterate(space, v, config)
        assert res.status == "small_denominator_abort"
        assert list(res.abort_pair) == [-1, 1, 0]
        assert res.abort_gap == 0.0
