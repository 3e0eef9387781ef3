"""End-to-end acceptance battery.

One test per numbered criterion, ordered; every test re-measures its
quantity from scratch, asserts the stated tolerance and runtime cap, and
prints one ACCEPTANCE line (visible under pytest -s).  The battery only
goes through public API plus, for the determinism criterion,
``python -m floquet_lab.cli`` in fresh subprocesses, run from the same
package that this test process imported.
"""

import cmath
import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import floquet_lab
from floquet_lab import (
    BlockPerturbation,
    Classification,
    DriveSpec,
    FloquetMatrixSpace,
    KamConfig,
    OscillatorParams,
    Truncation,
    build_HF,
    build_SF,
    build_UF,
    higher_order_bound_check,
    kam_iterate,
    level_hamiltonian,
    matrix_exp,
    propagator_factored,
    propagator_single_exp,
    psi,
    random_perturbation,
    split_forward,
    split_inverse,
    stability_scan,
    transition_bound_check,
)
from floquet_lab.core_fock import number_basis_energies, xp_operators
from floquet_lab.cli import shipped_config_path
from floquet_lab.drive_model import hamiltonian_at
from floquet_lab.oracle import integrate, propagate_generic

P12 = 13  # projector onto Fock levels 0..12


def _norm2(block: np.ndarray) -> float:
    return float(np.linalg.norm(block, 2))


def _ground() -> np.ndarray:
    vec = np.zeros(1, dtype=complex)
    vec[0] = 1.0
    return vec


def _shipped(name: str):
    """Load a packaged configuration into library objects."""
    with open(shipped_config_path(name), encoding="utf-8") as fh:
        data = json.load(fh)
    params = OscillatorParams(
        omega=float(data["system"]["omega"]), period_T=float(data["system"]["period"])
    )
    spec = DriveSpec.from_json_dict(data["drive"])
    trunc = Truncation(
        n_keep=int(data["truncation"]["n_keep"]), n_pad=int(data["truncation"]["n_pad"])
    )
    return spec, params, trunc


def test_01_reordering_identity_as_operators():
    """exp(-itH + i(mu/w)p + i nu x) against its reordered product form,
    materialized on a dim-96 basis and compared on the kept 48 block."""
    start = time.monotonic()
    rng = np.random.default_rng(11)
    dim, keep = 96, 48
    worst = 0.0
    for _ in range(50):
        omega = float(rng.uniform(0.5, 2.0))
        mu = float(rng.uniform(-1.5, 1.5))
        nu = float(rng.uniform(-1.5, 1.5))
        t = float(rng.uniform(0.05, 0.95) * 2 * math.pi / omega)
        x, p = xp_operators(omega, dim)
        h = np.diag(number_basis_energies(omega, dim)).astype(complex)
        xi, eta, phase = split_forward(mu, nu, t, omega)
        lhs = matrix_exp(-1j * t * h + 1j * (mu / omega) * p + 1j * nu * x)
        rhs = (
            cmath.exp(-1j * phase)
            * matrix_exp(1j * (xi / omega) * p)
            @ matrix_exp(1j * eta * x)
            @ matrix_exp(-1j * t * h)
        )
        worst = max(worst, _norm2((lhs - rhs)[:keep, :keep]))
    elapsed = time.monotonic() - start
    assert worst <= 1e-7
    assert elapsed <= 30.0
    print(
        f"ACCEPTANCE 1: PASS - reordering identity, max 48-block deviation "
        f"{worst:.3e} over 50 draws ({elapsed:.1f}s)"
    )


def test_02_split_round_trip():
    start = time.monotonic()
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(1000):
        omega = float(rng.uniform(0.5, 2.0))
        mu = float(rng.uniform(-3.0, 3.0))
        nu = float(rng.uniform(-3.0, 3.0))
        t = float(rng.uniform(-0.999, 0.999)) * 2 * math.pi / omega
        xi, eta, phase = split_forward(mu, nu, t, omega)
        back = split_inverse(xi, eta, t, omega)
        worst = max(worst, abs(back[0] - mu), abs(back[1] - nu), abs(back[2] - phase))
    elapsed = time.monotonic() - start
    assert worst <= 1e-10
    assert elapsed <= 1.0
    print(
        f"ACCEPTANCE 2: PASS - split round trip, max parameter error "
        f"{worst:.3e} over 1000 draws ({elapsed:.2f}s)"
    )


def test_03_closed_forms_match_integrator():
    """Both closed forms against the CF4 integrator at unit drive amplitude,
    plus the sign sensitivity of the accumulated phase.

    The single-exponential route exponentiates one generator whose p and x
    coefficients scale like csc(omega*delta/2) with delta the elapsed time
    modulo 2pi/omega; near the ends of that cycle the intermediate
    excursion outruns any fixed padding.  The grid therefore samples each
    cycle at interior phases, where a 48+48 truncation resolves both
    closed forms; coverage of [0, 5T] stays on the drive timescale because
    T/(2pi) is irrational.
    """
    start = time.monotonic()
    big_t = 2 * math.pi * math.sqrt(2)
    params = OscillatorParams(omega=1.0, period_T=big_t)
    spec = DriveSpec.sine(big_t, amplitude=1.0)
    trunc = Truncation(n_keep=48, n_pad=48)

    cycle_phases = (1.3, 2.9, 4.6)
    times = sorted(m * 2 * math.pi + d for m in range(7) for d in cycle_phases)[:20]
    assert len(times) == 20 and 0.0 < times[0] and times[-1] < 5 * big_t

    max_clean = 0.0
    max_flip = 0.0
    for t in times:
        u_num = integrate(spec, params, trunc, t, 0.0, steps_per_period=256).entries
        u_fac = propagator_factored(spec, params, trunc, t, 0.0).entries
        u_se = propagator_single_exp(spec, params, trunc, t, 0.0).entries
        dev_fac = _norm2((u_fac - u_num)[:, :P12])
        dev_se = _norm2((u_se - u_num)[:, :P12])
        assert dev_fac <= 1e-6
        assert dev_se <= 1e-6
        max_clean = max(max_clean, dev_fac, dev_se)
        # flip the sign of the accumulated phase in the factored form
        psi_t = psi(spec, params, t, 0.0)
        dev_bad = _norm2((u_fac * cmath.exp(2j * psi_t) - u_num)[:, :P12])
        max_flip = max(max_flip, dev_bad)
    elapsed = time.monotonic() - start
    assert max_flip >= 1e6 * max_clean
    print(
        f"ACCEPTANCE 3: PASS - closed forms vs integrator, max deviation "
        f"{max_clean:.3e} at 20 times; phase flip raises it to {max_flip:.3e} "
        f"({elapsed:.1f}s)"
    )


def test_04_floquet_decomposition():
    start = time.monotonic()
    spec, params, trunc = _shipped("nonresonant.json")
    keep = trunc.n_keep
    big_t = params.period_T

    dev_id = _norm2(build_UF(spec, params, trunc, 0.0).entries - np.eye(keep))
    assert dev_id <= 1e-12

    dev_per = 0.0
    for t in (0.0, 0.37 * big_t, 0.81 * big_t):
        a = build_UF(spec, params, trunc, t).entries
        b = build_UF(spec, params, trunc, t + big_t).entries
        dev_per = max(dev_per, _norm2(a - b))
    assert dev_per <= 1e-7

    # U(t, 0) = U_F(t) exp(-i t H_F) on the low-lying block; the rotation
    # is exponentiated at padded dimension so its own truncation error
    # stays out of the comparison
    hf_pad = build_HF(spec, params, Truncation(trunc.dim, 0)).entries
    dev_split = 0.0
    for t in (0.31 * big_t, 1.62 * big_t, 3.9 * big_t):
        u = propagator_factored(spec, params, trunc, t, 0.0).entries
        uf = build_UF(spec, params, trunc, t).entries
        rot = matrix_exp(-1j * t * hf_pad)[:keep, :keep]
        dev_split = max(dev_split, _norm2((u - uf @ rot)[:P12, :P12]))
    assert dev_split <= 1e-6

    h0 = hamiltonian_at(spec, params, 0.0, keep)
    hf = build_HF(spec, params, trunc).entries
    sf0 = build_SF(spec, params, trunc, 0.0).entries
    dev_gen = _norm2(h0 - hf - sf0)
    assert dev_gen <= 1e-8

    # S_F = i U_F^{-1} dU_F/dt by central differences, on the half block
    t0, eps = 0.42 * big_t, 1e-6
    big = Truncation(trunc.dim, 0)
    up = build_UF(spec, params, big, t0 + eps).entries
    dn = build_UF(spec, params, big, t0 - eps).entries
    mid = build_UF(spec, params, big, t0).entries
    approx = 1j * np.linalg.inv(mid) @ ((up - dn) / (2 * eps))
    sf = build_SF(spec, params, big, t0).entries
    half = keep // 2
    dev_sf = _norm2((approx - sf)[:half, :half])
    assert dev_sf <= 1e-5

    elapsed = time.monotonic() - start
    print(
        f"ACCEPTANCE 4: PASS - decomposition {dev_split:.3e}, U_F(0) {dev_id:.3e}, "
        f"periodicity {dev_per:.3e}, generator at 0 {dev_gen:.3e}, "
        f"S_F fin-diff {dev_sf:.3e} ({elapsed:.1f}s)"
    )


def test_05_stability_dichotomy():
    start = time.monotonic()

    spec_nr, params_nr, trunc_nr = _shipped("nonresonant.json")
    bounded = stability_scan(
        spec_nr, params_nr, trunc_nr, _ground(), n_periods=200, samples_per_period=4
    )
    assert bounded.classification is Classification.NON_RESONANT
    assert bounded.verdict == "bounded"
    assert bounded.paper_bound is not None
    assert bounded.sup_bound <= bounded.paper_bound * (1.0 + 1e-6)

    spec_g, params_g, trunc_g = _shipped("resonant_growth.json")
    growing = stability_scan(
        spec_g, params_g, trunc_g, _ground(), n_periods=60, samples_per_period=4
    )
    assert growing.classification is Classification.RESONANT_ABSOLUTELY_CONTINUOUS
    assert growing.verdict == "growing"
    assert 1.9 <= growing.fit_exponent <= 2.1

    # driving only the decoupled harmonic leaves a scalar monodromy
    spec_i, params_i, trunc_i = _shipped("resonant_identity.json")
    u = propagator_factored(spec_i, params_i, trunc_i, params_i.period_T, 0.0).entries
    half = trunc_i.n_keep // 2
    blk = u[:half, :half]
    dev_mono = _norm2(blk - blk[0, 0] * np.eye(half))
    assert dev_mono <= 1e-7

    elapsed = time.monotonic() - start
    assert elapsed <= 300.0
    print(
        f"ACCEPTANCE 5: PASS - bounded sup {bounded.sup_bound:.4f} <= "
        f"{bounded.paper_bound:.4f} over 200 periods, growth exponent "
        f"{growing.fit_exponent:.3f}, scalar monodromy deviation {dev_mono:.3e} "
        f"({elapsed:.1f}s)"
    )


def test_06_transition_bounds():
    start = time.monotonic()
    spec, params, trunc = _shipped("nonresonant.json")
    t = 0.7 * params.period_T
    pairs = [
        ((0.0, 1.2), (2.3, 3.6)),
        ((0.2, 2.2), (4.0, 6.2)),
        ((1.3, 2.8), (7.0, 9.5)),
    ]
    n = trunc.n_keep
    vals_t = np.linalg.eigh(hamiltonian_at(spec, params, t, n))[0]
    vals_s = np.linalg.eigh(hamiltonian_at(spec, params, 0.0, n))[0]
    margins = []
    level_pairs = 0
    for iv1, iv2 in pairs:
        first = transition_bound_check(spec, params, trunc, t, 0.0, iv1, iv2)
        assert first.ok
        # the eigenvalue-resolved form: one check per pair E_n(t) in D1,
        # E_m(s) in D2, on the point intervals of the two eigenvalues; a
        # nonzero lhs shows that each point interval picked its level
        for e_n in vals_t[(vals_t >= iv1[0]) & (vals_t <= iv1[1])]:
            for e_m in vals_s[(vals_s >= iv2[0]) & (vals_s <= iv2[1])]:
                level = transition_bound_check(spec, params, trunc, t, 0.0, (e_n, e_n), (e_m, e_m))
                assert level.ok and level.lhs > 0.0
                level_pairs += 1
        second = higher_order_bound_check(spec, params, trunc, 2, t, 0.0, iv1, iv2, grid_points=16)
        assert second.ok
        margins.append((first.rhs / max(first.lhs, 1e-300), second.rhs / max(second.lhs, 1e-300)))
    elapsed = time.monotonic() - start
    assert elapsed <= 120.0
    assert level_pairs > 0
    loosest = min(min(m) for m in margins)
    print(
        f"ACCEPTANCE 6: PASS - first- and second-order bounds hold on 3 "
        f"interval pairs and {level_pairs} level pairs, smallest rhs/lhs margin "
        f"{loosest:.2e} ({elapsed:.1f}s)"
    )


def test_08_iterative_diagonalization():
    start = time.monotonic()
    golden = (1 + math.sqrt(5)) / 2
    levels = ((0.5, 1), (1.5, 1), (2.5, 1), (3.5, 1))
    space = FloquetMatrixSpace(k_max=8, levels=levels, omega=golden)

    # (a) trivial inputs converge without iterating
    res0 = kam_iterate(space, BlockPerturbation.zero())
    assert res0.converged and res0.iterations <= 1
    vdiag = BlockPerturbation(
        blocks={
            (0, 0, 0): np.array([[0.03]]),
            (0, 1, 1): np.array([[-0.02]]),
            (0, 2, 2): np.array([[0.01]]),
            (0, 3, 3): np.array([[0.005]]),
        }
    )
    resd = kam_iterate(space, vdiag)
    assert resd.converged and resd.iterations <= 1

    # (b) rough perturbation on the golden-ratio instance
    rough = random_perturbation(space, np.random.default_rng(7), k_band=3, r=2.0, eps_target=0.01)
    res = kam_iterate(space, rough, KamConfig(max_iters=12, tol=1e-10))
    assert res.converged
    assert res.final_residual < 1e-10
    conj_worst = max(st.conj_residual for st in res.history)
    assert conj_worst <= 1e-8

    # (c) drive frequency equal to a level gap aborts with diagnostics
    sp_res = FloquetMatrixSpace(k_max=8, levels=levels, omega=1.0)
    v_res = BlockPerturbation(
        blocks={
            (1, 0, 1): np.array([[0.004]]),
            (-1, 1, 0): np.array([[0.004]]),
            (1, 1, 2): np.array([[0.003j]]),
            (-1, 2, 1): np.array([[-0.003j]]),
        }
    )
    aborted = kam_iterate(sp_res, v_res)
    assert aborted.status == "small_denominator_abort"
    assert aborted.abort_pair is not None and aborted.abort_pair[0] in (1, -1)
    assert abs(aborted.abort_gap) <= 1e-8

    # (d) reconstructed propagator against direct integration
    big_t = 2 * math.pi / space.omega
    worst_u = 0.0
    for t in (0.3 * big_t, 1.0 * big_t, 1.7 * big_t, 2.5 * big_t, 3.0 * big_t):
        u_kam = res.propagator(t, 0.0).entries
        u_ref = propagate_generic(
            lambda tt: level_hamiltonian(space, rough, tt),
            space.level_dim,
            0.0,
            t,
            n_steps=max(64, int(220 * t / big_t)),
        )
        worst_u = max(worst_u, _norm2(u_kam - u_ref))
    assert worst_u <= 1e-5

    elapsed = time.monotonic() - start
    assert elapsed <= 120.0
    print(
        f"ACCEPTANCE 8: PASS - trivial cases immediate, golden residual "
        f"{res.final_residual:.3e} in {res.iterations} iters (conjugation "
        f"{conj_worst:.3e}), band pattern exact, resonant abort at gap "
        f"{aborted.abort_gap:.1e}, propagator vs oracle {worst_u:.3e} "
        f"({elapsed:.1f}s)"
    )


def _run_cli(args, cwd) -> subprocess.CompletedProcess:
    """Run the CLI in a fresh process started in ``cwd``.

    The child gets the absolute root of the imported ``floquet_lab`` first
    on its ``PYTHONPATH``, so it runs the code under test whether that came
    from an install or from a relative ``PYTHONPATH=src``, which would not
    resolve from ``cwd``.
    """
    env = dict(os.environ)
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(floquet_lab.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "floquet_lab.cli", *args],
        capture_output=True,
        cwd=cwd,
        env=env,
        check=False,
    )


def test_09_cli_determinism(tmp_path):
    """Every subcommand, run twice in fresh processes on shipped configs,
    byte for byte."""
    nonres = shipped_config_path("nonresonant.json")
    identity = shipped_config_path("resonant_identity.json")

    outputs = []
    for tag in ("a", "b"):
        d = tmp_path / tag
        d.mkdir()
        u = d / "u.json"
        r = _run_cli(["propagate", nonres, "--t", "2.5", "--form", "all", "--out", str(u)], d)
        assert r.returncode == 0, r.stderr
        csv = d / "stab.csv"
        r = _run_cli(
            ["stability", identity, "--periods", "3", "--samples", "4", "--out-csv", str(csv)], d
        )
        assert r.returncode == 0, r.stderr
        scan = d / "scan.csv"
        r = _run_cli(
            ["resonance-scan", nonres, "--omega-range", "0.8:1.2", "--steps", "3",
             "--out-csv", str(scan)], d
        )
        assert r.returncode == 0, r.stderr
        hist, result = d / "kam.jsonl", d / "kam.json"
        r = _run_cli(
            ["kam", shipped_config_path("kam_golden.json"),
             "--out-history", str(hist), "--out-result", str(result)], d
        )
        assert r.returncode == 0, r.stderr
        res_result = d / "kam_res.json"
        r = _run_cli(
            ["kam", shipped_config_path("kam_resonant.json"),
             "--out-history", str(d / "kam_res.jsonl"), "--out-result", str(res_result)], d
        )
        assert r.returncode == 5, r.stderr
        verify = _run_cli(["verify", "--suite", "commutators"], d)
        assert verify.returncode == 0, verify.stderr
        outputs.append(
            {
                "propagate": u.read_bytes(),
                "stability_csv": csv.read_bytes(),
                "stability_verdict": (d / "stab.verdict.json").read_bytes(),
                "scan": scan.read_bytes(),
                "kam_history": hist.read_bytes(),
                "kam_result": result.read_bytes(),
                "kam_resonant": res_result.read_bytes(),
                "verify_stdout": verify.stdout,
            }
        )
    first, second = outputs
    for key in first:
        assert first[key] == second[key], f"{key} differs between runs"
    print(
        f"ACCEPTANCE 9: PASS - {len(first)} output streams byte-identical "
        f"across repeated runs of all 5 subcommands"
    )
