"""The four seeded workloads.

Each workload turns its seed into inputs, runs one job at a time through
the public API or the in-process CLI, and checks every result. Jobs come
in fixed cycles: the cycle layout (job kinds, sizes, configs) is the
same for every seed, and the seed draws only the values inside it, so
runs with different seeds do the same mix of work. Parameters that set a
job's cost are stratified by slot, so each slot's cost barely moves with
the seed.

Library calls go through attribute lookups on ``floquet_lab`` (``fl.``)
and ``floquet_lab.cli`` at call time, so the traced run sees them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import floquet_lab as fl
from floquet_lab import cli

# reference pass (untimed): CF4 oracle at 128 steps per period
REF_STEPS = 128
REF_TOL = 1e-6
KAM_REF_TOL = 1e-5

# Away from whole oscillator periods of elapsed time the single-exponential
# form agrees with the others to ~1e-13. When the elapsed time falls short
# of a whole period by less than about 0.005 periods, it is off by O(1) on
# the kept block and no error is raised. Timed (t, s) draws keep
# MIN_ELAPSED_DISTANCE; oracle_reuse's near_resonant slot falls short by
# NEAR_RESONANT periods on purpose, so that defect stays visible.
MIN_ELAPSED_DISTANCE = 0.05
NEAR_RESONANT = (0.002, 0.004)

# input pools and job cycles draw from independent seed streams
_POOL, _CYCLE = 1, 2
WARM_UP_CYCLE = 1_000_000  # the warm-up job comes from a cycle no run times


class CheckFailed(Exception):
    """A timed result did not pass its correctness check."""


@dataclass
class Job:
    """One timed job. A ``known_defect`` job is one that the package gets
    wrong today on purpose; it counts as failed like any other, but its
    failed check does not make the run's results count as incorrect."""

    kind: str
    args: dict
    reference: bool = False
    known_defect: bool = False
    id: int = -1
    key: tuple = field(default=())


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng([seed, *key])


def _stratified(rng: np.random.Generator, n: int, lo: float, hi: float) -> np.ndarray:
    """n draws in [lo, hi), draw i from the i-th of n equal strata, so
    each slot of a cycle gets about the same value under every seed."""
    u = (np.arange(n) + rng.uniform(size=n)) / n
    return lo + (hi - lo) * u


def _draw_s(rng, t: float, omega: float, lo: float, hi: float) -> float:
    """s in [lo, hi) with t - s at least MIN_ELAPSED_DISTANCE oscillator
    periods away from a whole number of them (zero included)."""
    for _ in range(1000):
        s = float(rng.uniform(lo, hi))
        r = (t - s) * omega / (2 * math.pi)
        if abs(r - round(r)) >= MIN_ELAPSED_DISTANCE:
            return s
    raise ValueError(f"no admissible s in [{lo}, {hi}) for t = {t}")


def _fourier_drive(rng, period: float, harmonics: int, amp_lo: float, amp_hi: float):
    coeffs = {}
    for k in range(1, harmonics + 1):
        c = 0.5 * rng.uniform(amp_lo, amp_hi) * np.exp(1j * rng.uniform(0.0, 2 * math.pi))
        coeffs[k] = complex(c)
        coeffs[-k] = complex(np.conj(c))
    return fl.DriveSpec.from_fourier(period, coeffs)


def _config_dict(spec, omega: float, n_keep: int, n_pad: int) -> dict:
    return {
        "system": {"omega": omega, "period": spec.period},
        "drive": spec.to_json_dict(),
        "truncation": {"n_keep": n_keep, "n_pad": n_pad},
        "tolerances": {"steps_per_period": 128, "scheme": "cf4"},
    }


def _halfblock_dev(a: np.ndarray, b: np.ndarray, n_keep: int) -> float:
    half = n_keep // 2
    return float(np.linalg.norm(a[:half, :half] - b[:half, :half], 2))


def _require(cond: bool, message: str):
    if not cond:
        raise CheckFailed(message)


def _run_cli(argv: list) -> int:
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        return int(exc.code) if isinstance(exc.code, int) else 2


class Workload:
    """Base: subclasses build inputs in __init__ and define the cycle."""

    name = ""
    cycle_len = 0
    trace_cycles = 1  # cycles the traced run repeats, fixed so its counts repeat

    def __init__(self, seed: int, tmpdir: Path):
        self.seed = seed
        self.tmpdir = Path(tmpdir)
        self.record: dict = {}
        self._kept: list = []  # (job, data) re-checked by the reference pass

    def cycle(self, k: int) -> list:
        raise NotImplementedError

    def warm_up(self) -> Job:
        return self.cycle(WARM_UP_CYCLE)[0]

    def run(self, job: Job):
        raise NotImplementedError

    def check(self, job: Job, output) -> None:
        raise NotImplementedError

    def reference(self) -> list:
        """[(job id, deviation, ok)] for the jobs kept by check()."""
        return []

    def finish(self, jobs: list) -> None:
        """Add workload-specific facts about the timed jobs to the record."""

    def _keep(self, item: tuple) -> None:
        # the traced run checks the same jobs again; keep each job once
        if all(kept[0] is not item[0] for kept in self._kept):
            self._kept.append(item)

    def _pick_reference(self, k: int, jobs: list, eligible) -> None:
        # a seeded pick from the first two cycles; warm-up cycles are never kept
        if k < 2:
            slots = [i for i, job in enumerate(jobs) if eligible(job)]
            jobs[int(_rng(self.seed, _CYCLE, k, 99).choice(slots))].reference = True


# ---------------------------------------------------------------------------
# closed_forms: library calls, no oracle stepping


class ClosedForms(Workload):
    """Closed forms, Floquet operators and bound checks on a pool of eight
    non-resonant Fourier drives; one job in eight gives its drive as 32
    samples instead, which the package cannot integrate today."""

    name = "closed_forms"
    cycle_len = 8
    trace_cycles = 4
    SAMPLED_SLOT = 5
    BOUND_SLOTS = (3, 7)  # every fourth job adds the order-2 bound check

    def __init__(self, seed, tmpdir):
        super().__init__(seed, tmpdir)
        rng = _rng(seed, _POOL)
        # T omega / 2 pi: whole part 1 or 2 by slot, fraction stratified,
        # since it sets the quadrature panels behind the bound checks
        fracs = _stratified(rng, self.cycle_len, 0.05, 0.95)
        self.pool = []
        for i in range(self.cycle_len):
            omega = float(rng.uniform(0.8, 1.25))
            ratio = 1 + (i // 2) % 2 + float(fracs[i])
            period = 2 * math.pi * ratio / omega
            spec = _fourier_drive(rng, period, 1 + i % 3, 0.01, 0.08)
            n_keep = 32 if i % 2 == 0 else 48
            params = fl.OscillatorParams(omega=omega, period_T=period)
            self.pool.append((spec, params, fl.Truncation(n_keep=n_keep, n_pad=n_keep)))
        spec, params, trunc = self.pool[self.SAMPLED_SLOT]
        ts = np.linspace(0.0, spec.period, 32, endpoint=False)
        sampled = fl.DriveSpec.from_samples(spec.period, ts, fl.eval_drive(spec, ts))
        self.sampled = (sampled, params, trunc)

    def cycle(self, k):
        rng = _rng(self.seed, _CYCLE, k)
        t_frac = _stratified(rng, self.cycle_len, 0.1, 2.0)
        jobs = []
        for i in range(self.cycle_len):
            spec, params, trunc = self.sampled if i == self.SAMPLED_SLOT else self.pool[i]
            period, omega = params.period_T, params.omega
            t = float(t_frac[i] * period)
            s = _draw_s(rng, t, omega, 0.0, 0.9 * t)
            a = int(rng.integers(1, 3))
            jobs.append(
                Job(
                    "sampled" if i == self.SAMPLED_SLOT else "fourier",
                    {
                        "slot": i,
                        "spec": spec,
                        "params": params,
                        "trunc": trunc,
                        "t": t,
                        "s": s,
                        "interval_1": (0.0, a * omega),
                        "interval_2": ((a + 1) * omega, (a + 4) * omega),
                        "bound": i in self.BOUND_SLOTS,
                    },
                    known_defect=i == self.SAMPLED_SLOT,
                )
            )
        self._pick_reference(k, jobs, lambda job: job.kind == "fourier")
        return jobs

    def run(self, job):
        a = job.args
        spec, params, trunc, t, s = a["spec"], a["params"], a["trunc"], a["t"], a["s"]
        out = {
            "factored": fl.propagator_factored(spec, params, trunc, t, s).entries,
            "single": fl.propagator_single_exp(spec, params, trunc, t, s).entries,
            "hf": fl.build_HF(spec, params, trunc).entries,
            "uf": fl.build_UF(spec, params, trunc, t).entries,
            "tb": fl.transition_bound_check(spec, params, trunc, t, s, a["interval_1"], a["interval_2"]),
        }
        if a["bound"]:
            out["hob"] = fl.higher_order_bound_check(
                spec, params, trunc, 2, t, s, a["interval_1"], a["interval_2"], grid_points=4
            )
        return out

    def check(self, job, out):
        n_keep = job.args["trunc"].n_keep
        dev = _halfblock_dev(out["factored"], out["single"], n_keep)
        _require(dev <= 1e-8, f"factored vs single-exp half-block {dev:.3e} > 1e-8")
        _require(bool(out["tb"].ok), "transition bound violated")
        _require(bool(np.all(np.isfinite(out["hf"]))), "H_F not finite")
        _require(bool(np.all(np.isfinite(out["uf"]))), "U_F not finite")
        if "hob" in out:
            _require(math.isfinite(out["hob"].c_p), "order-2 constant not finite")
        if job.reference:
            self._keep((job, out["factored"]))

    def reference(self):
        rows = []
        for job, factored in self._kept:
            a = job.args
            oracle = fl.integrate(a["spec"], a["params"], a["trunc"], a["t"], a["s"], REF_STEPS, "cf4")
            dev = _halfblock_dev(factored, oracle.entries, a["trunc"].n_keep)
            rows.append((job.id, dev, dev <= REF_TOL))
        return rows


# ---------------------------------------------------------------------------
# oracle_reuse: CLI propagate/stability on four configs that repeat


class OracleReuse(Workload):
    """``propagate --form all`` and ``stability`` through the in-process CLI
    on the three shipped oscillator configs plus one seeded variant."""

    name = "oracle_reuse"
    cycle_len = 20
    trace_cycles = 1
    EXPECTED = {
        "nonresonant": ("NonResonant", "bounded"),
        "resonant_identity": ("ResonantIdentityMultiple", "bounded"),
        "resonant_growth": ("ResonantAbsolutelyContinuous", "growing"),
        "variant": ("NonResonant", "bounded"),
    }
    # (kind, config) per slot; resonant_growth has dimension 192, so it
    # only runs short stability jobs, one per cycle: at about six times
    # the cost of the others, more would leave few jobs in a run. A cycle
    # takes a little over half of a 24-second run, so runs hold two whole
    # cycles, 40 jobs, over a wide range of host speeds. A propagate job
    # draws t in the first period and s close to T - t, so it steps about
    # one period, as a stability job does; on the dimension-96 configs
    # these form one group of like jobs that holds the median and the
    # tail. The near_resonant slots are propagate jobs whose elapsed time
    # falls short of one oscillator period by NEAR_RESONANT periods.
    LAYOUT = (
        ("propagate", "nonresonant"),
        ("stability", "resonant_identity"),
        ("propagate", "variant"),
        ("propagate", "nonresonant"),
        ("propagate", "resonant_identity"),
        ("stability", "variant"),
        ("stability", "nonresonant"),
        ("stability", "resonant_growth"),
        ("near_resonant", "nonresonant"),
        ("propagate", "resonant_identity"),
        ("propagate", "variant"),
        ("stability", "nonresonant"),
        ("propagate", "resonant_identity"),
        ("propagate", "nonresonant"),
        ("stability", "variant"),
        ("propagate", "variant"),
        ("stability", "resonant_identity"),
        ("propagate", "nonresonant"),
        ("near_resonant", "nonresonant"),
        ("propagate", "resonant_identity"),
    )

    def __init__(self, seed, tmpdir):
        super().__init__(seed, tmpdir)
        rng = _rng(seed, _POOL)
        configs = {
            name: json.loads(Path(cli.shipped_config_path(f"{name}.json")).read_text())
            for name in ("nonresonant", "resonant_identity", "resonant_growth")
        }
        period = 2 * math.pi * float(rng.uniform(1.2, 1.8))
        harmonic_amp = float(rng.uniform(0.01, 0.05))
        variant = fl.DriveSpec.sine(period, amplitude=harmonic_amp)
        configs["variant"] = _config_dict(variant, 1.0, 32, 32)
        self.paths, self.parsed = {}, {}
        for name, data in configs.items():
            path = self.tmpdir / f"{name}.json"
            path.write_text(json.dumps(data, sort_keys=True, indent=2))
            self.paths[name] = str(path)
            # parsed the way the CLI parses it: (spec, params, trunc, opts, debug)
            self.parsed[name] = cli._load_config(str(path))
        self.out = str(self.tmpdir / "out")

    def cycle(self, k):
        rng = _rng(self.seed, _CYCLE, k)
        kinds = [kind for kind, name in self.LAYOUT if name != "resonant_growth"]
        u = iter(_stratified(rng, kinds.count("propagate"), 0.55, 0.95))
        periods = iter(_stratified(rng, kinds.count("stability"), 5, 21).astype(int))
        jobs = []
        for kind, name in self.LAYOUT:
            _, params, _, opts, _ = self.parsed[name]
            big_t, omega = params.period_T, params.omega
            args = {"config": name}
            if kind == "propagate":
                frac = float(next(u))
                args["t"] = frac * big_t
                args["s"] = _draw_s(rng, args["t"], omega, (0.95 - frac) * big_t, (1.05 - frac) * big_t)
            elif kind == "near_resonant":
                args["s"] = float(rng.uniform(0.05, 0.25)) * big_t
                args["t"] = args["s"] + (1 - float(rng.uniform(*NEAR_RESONANT))) * 2 * math.pi / omega
            elif name == "resonant_growth":
                # under 6 periods the growth fit cannot call it growing
                args["periods"] = int(rng.integers(6, 9))
            else:
                args["periods"] = int(next(periods))
            key = (name, opts["steps_per_period"], opts["scheme"])
            jobs.append(Job(kind, args, known_defect=kind == "near_resonant", key=key))
        self._pick_reference(k, jobs, lambda job: job.kind == "propagate")
        return jobs

    def run(self, job):
        a = job.args
        if job.kind != "stability":
            argv = ["propagate", self.paths[a["config"]], "--t", repr(a["t"]), "--s", repr(a["s"]),
                    "--form", "all", "--out", self.out + ".json"]
        else:
            argv = ["stability", self.paths[a["config"]], "--periods", str(a["periods"]),
                    "--out-csv", self.out + ".csv"]
        return _run_cli(argv)

    def check(self, job, code):
        _require(code == 0, f"exit code {code}")
        name = job.args["config"]
        if job.kind != "stability":
            payload = json.loads(Path(self.out + ".json").read_text())
            diffs = payload["metadata"]["tolerances"]["halfblock_cross_form_differences"]
            worst = max(diffs.values())
            _require(worst <= 1e-6, f"cross-form half-block difference {worst:.3e} > 1e-6")
            if job.reference:
                mat = payload["propagator"]
                self._keep((job, np.asarray(mat["re"]) + 1j * np.asarray(mat["im"])))
        else:
            verdict = json.loads(Path(self.out + ".verdict.json").read_text())
            got = (verdict["classification"], verdict["verdict"])
            _require(got == self.EXPECTED[name], f"{name}: verdict {got}, expected {self.EXPECTED[name]}")

    def reference(self):
        rows = []
        for job, factored in self._kept:
            spec, params, trunc, _, _ = self.parsed[job.args["config"]]
            oracle = fl.integrate(spec, params, trunc, job.args["t"], job.args["s"], REF_STEPS, "cf4")
            dev = _halfblock_dev(factored, oracle.entries, trunc.n_keep)
            rows.append((job.id, dev, dev <= REF_TOL))
        return rows

    def finish(self, jobs):
        seen = {self.warm_up().key}
        repeats = 0
        for job in jobs:
            repeats += job.key in seen
            seen.add(job.key)
        self.record["reuse_share"] = repeats / len(jobs) if jobs else 0.0


# ---------------------------------------------------------------------------
# omega_sweep: CLI resonance scans, no reuse, rows on the thread pool


class OmegaSweep(Workload):
    """``resonance-scan`` on a fresh seeded drive and omega window per job;
    two windows in five put a grid point exactly on a resonance."""

    name = "omega_sweep"
    cycle_len = 5
    trace_cycles = 1
    # most jobs have 7 steps, so the median and the tail fall inside one
    # group of like jobs; slots 1 and 4 straddle a resonance
    STEPS = (5, 7, 7, 7, 9)
    HARMONICS = (1, 2, 2, 2, 1)  # the drive's harmonics set a row's quadrature cost
    STRADDLE = (1, 4)
    N_KEEP, N_PAD = 32, 16

    def __init__(self, seed, tmpdir):
        super().__init__(seed, tmpdir)
        self.out = str(self.tmpdir / "scan.csv")

    def cycle(self, k):
        rng = _rng(self.seed, _CYCLE, k)
        widths = _stratified(rng, self.cycle_len, 0.15, 0.4)
        ratios = _stratified(rng, self.cycle_len, 1.1, 1.9)
        jobs = []
        for i, steps in enumerate(self.STEPS):
            period = 2 * math.pi * float(ratios[i])
            spec = _fourier_drive(rng, period, self.HARMONICS[i], 0.01, 0.05)
            width = float(widths[i])
            h = width / (steps - 1)
            if i in self.STRADDLE:
                center = float(rng.uniform(0.7, 1.4))
                harmonic = max(1, round(period * center / (2 * math.pi)))
                lo = 2 * math.pi * harmonic / period - int(rng.integers(1, steps - 1)) * h
            else:
                lo = float(rng.uniform(0.6, 1.4))
            hi = lo + (steps - 1) * h
            path = self.tmpdir / f"sweep_{k}_{i}.json"
            path.write_text(json.dumps(_config_dict(spec, 1.0, self.N_KEEP, self.N_PAD)))
            jobs.append(Job("scan", {"path": str(path), "spec": spec, "lo": lo, "hi": hi, "steps": steps}))
        return jobs

    def run(self, job):
        a = job.args
        return _run_cli(["resonance-scan", a["path"], "--omega-range", f"{a['lo']!r}:{a['hi']!r}",
                         "--steps", str(a["steps"]), "--out-csv", self.out])

    @staticmethod
    def _grid(job) -> np.ndarray:
        return np.linspace(job.args["lo"], job.args["hi"], job.args["steps"])

    @staticmethod
    def expected_class(spec, omega: float) -> str:
        """The classification from T omega / 2 pi and the drive's harmonics."""
        ratio = spec.period * omega / (2 * math.pi)
        n = round(ratio)
        if n < 1 or abs(ratio - n) >= 1e-9:
            return "NonResonant"
        weight = abs(spec.coefficient(n)) + abs(spec.coefficient(-n))
        return "ResonantIdentityMultiple" if weight <= 1e-12 else "ResonantAbsolutelyContinuous"

    def check(self, job, code):
        _require(code == 0, f"exit code {code}")
        a = job.args
        lines = Path(self.out).read_text().splitlines()
        _require(lines[0] == "omega,classification,growth_exponent,sup_energy", "bad header")
        grid = self._grid(job)
        _require(len(lines) == a["steps"] + 1, f"{len(lines) - 1} rows for {a['steps']} steps")
        for omega, line in zip(grid, lines[1:]):
            w, cls, exponent, energy = line.split(",")
            _require(float(w) == float(omega), f"row omega {w} out of grid order")
            want = self.expected_class(a["spec"], float(omega))
            _require(cls == want, f"omega {w}: {cls}, expected {want}")
            _require(math.isfinite(float(exponent)) and math.isfinite(float(energy)), "non-finite row")

    def finish(self, jobs):
        rows = [(job.args["spec"], float(w)) for job in jobs for w in self._grid(job)]
        keys = {(spec.to_json(), w) for spec, w in rows}
        self.record["reuse_share"] = 1.0 - len(keys) / len(rows) if rows else 0.0
        self.record["resonant_rows"] = sum(self.expected_class(spec, w) != "NonResonant" for spec, w in rows)


# ---------------------------------------------------------------------------
# kam_lattice: the iterative diagonalization


class KamLattice(Workload):
    """``kam`` CLI jobs on both shipped problems and ``kam_iterate`` on
    seeded synthetic arenas; one arena in six is resonant on purpose."""

    name = "kam_lattice"
    cycle_len = 8
    trace_cycles = 1
    THETA = (math.sqrt(5) - 1) / 2  # level spacing over omega: badly approximable
    # per slot: a shipped problem, or (levels, k_max, resonant). The three
    # fast jobs, four like 12 x 12 arenas and one slow 16 x 16 arena put
    # the median and the tail inside the group of 12 x 12 arenas.
    LAYOUT = (
        "kam_golden",
        (12, 12, False),
        (12, 12, False),
        "kam_resonant",
        (12, 12, False),
        (16, 16, False),
        (8, 16, True),
        (12, 12, False),
    )

    def __init__(self, seed, tmpdir):
        super().__init__(seed, tmpdir)
        self.out = str(self.tmpdir / "kam")

    def _arena(self, rng, n_levels: int, k_max: int, resonant: bool, eps: float):
        omega = (1 + math.sqrt(5)) / 2 * float(rng.uniform(0.95, 1.05))
        spacing = (self.THETA + float(rng.uniform(-3e-4, 3e-4))) * omega
        h = 0.5 + float(rng.uniform(0.0, 0.2)) + spacing * np.arange(n_levels)
        if resonant:
            h[1] = h[0] + omega  # levels 0 and 1 sit exactly one omega apart
        space = fl.FloquetMatrixSpace(k_max=k_max, levels=tuple((float(x), 1) for x in h), omega=omega)
        v = fl.random_perturbation(space, rng, k_band=2, r=2.0, eps_target=eps)
        if resonant:
            # no static shift on the pair, so the dressed gap stays exactly zero
            v = fl.BlockPerturbation(
                blocks={key: blk for key, blk in v.blocks.items() if key not in ((0, 0, 0), (0, 1, 1))}
            )
        return space, v

    def cycle(self, k):
        rng = _rng(self.seed, _CYCLE, k)
        n_arenas = sum(not isinstance(slot, str) for slot in self.LAYOUT)
        eps = iter(_stratified(rng, n_arenas, 0.001, 0.003))
        jobs = []
        for slot in self.LAYOUT:
            if isinstance(slot, str):
                jobs.append(Job("cli", {"problem": slot}))
                continue
            n_levels, k_max, resonant = slot
            space, v = self._arena(rng, n_levels, k_max, resonant, float(next(eps)))
            jobs.append(Job("resonant" if resonant else "arena", {"space": space, "v": v}))
        self._pick_reference(k, jobs, lambda job: job.kind == "arena" and job.args["space"].n_levels < 16)
        return jobs

    def run(self, job):
        if job.kind == "cli":
            return _run_cli(["kam", cli.shipped_config_path(f"{job.args['problem']}.json"),
                             "--out-history", self.out + ".jsonl", "--out-result", self.out + ".json"])
        return fl.kam_iterate(job.args["space"], job.args["v"], fl.KamConfig(max_iters=8, tol=1e-10))

    def check(self, job, out):
        if job.kind == "cli":
            result = json.loads(Path(self.out + ".json").read_text())
            if job.args["problem"] == "kam_resonant":
                _require(out == cli.EXIT_SMALL_DENOM, f"exit code {out}, expected {cli.EXIT_SMALL_DENOM}")
                _require(result["status"] == "small_denominator_abort", result["status"])
                return
            _require(out == 0, f"exit code {out}")
            _require(result["status"] == "converged", result["status"])
            _require(result["final_residual"] < 1e-10, f"residual {result['final_residual']:.3e}")
            history = [json.loads(line) for line in Path(self.out + ".jsonl").read_text().splitlines()]
            conj = max(st["conj_residual"] for st in history)
            _require(conj <= 1e-8, f"conjugation residual {conj:.3e} > 1e-8")
            return
        if job.kind == "resonant":
            _require(out.status == "small_denominator_abort", f"status {out.status}, expected an abort")
            q, n, m = out.abort_pair
            _require(abs(q) == 1 and {n, m} == {0, 1}, f"abort at {out.abort_pair}, expected the pair (0, 1)")
            return
        _require(out.status == "converged", f"status {out.status}")
        _require(out.final_residual < 1e-10, f"residual {out.final_residual:.3e}")
        conj = max(st.conj_residual for st in out.history)
        _require(conj <= 1e-8, f"conjugation residual {conj:.3e} > 1e-8")
        if job.reference:
            self._keep((job, {q: blk.copy() for q, blk in out.w_blocks.items()}, out.g_level.copy()))

    def reference(self):
        rows = []
        for job, w_blocks, g_level in self._kept:
            space, v = job.args["space"], job.args["v"]
            sym = v.symbol(space)
            h0 = np.diag(space.h_expanded).astype(complex)

            def h_of(t):
                return h0 + sum(np.exp(1j * q * space.omega * t) * blk for q, blk in sym.items())

            period = 2 * math.pi / space.omega
            worst = 0.0
            for t in (0.3 * period, 1.7 * period):
                u_kam = fl.reconstruct_propagator(space, w_blocks, g_level, t, 0.0).entries
                u_ref = fl.oracle.propagate_generic(
                    h_of, space.level_dim, 0.0, t, max(64, int(220 * t / period))
                )
                worst = max(worst, float(np.linalg.norm(u_kam - u_ref, 2)))
            rows.append((job.id, worst, worst <= KAM_REF_TOL))
        return rows


WORKLOADS = {cls.name: cls for cls in (ClosedForms, OracleReuse, OmegaSweep, KamLattice)}
