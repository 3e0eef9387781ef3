"""Command-line front end.

Subcommands: propagate (closed forms vs. integrator), stability (energy
tracking with verdict sidecar), resonance-scan (classification sweep
over omega), kam (iterative diagonalization driver), verify (invariant
suites). All outputs are deterministic: floats use shortest round-trip
decimals, JSON keys are sorted, rows follow the input grid order, and
failures write a machine-readable error object to stderr. That object is
all a failure writes there: warnings raised on the way to it are listed
inside it under "warnings".

Exit codes: 0 success, 2 configuration or argument error, 3 resonant
time difference where only the factored form exists, 4 numeric failure,
5 small-denominator abort, 6 iteration limit.

The argument parser is built once per process, and main dispatches by the
subcommand's function name at call time, so a cmd_* function rebound on
this module after import is the one that runs.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import math
import sys
import warnings
from importlib.resources import files

import numpy as np

from .core_fock import (
    OscillatorParams,
    Truncation,
    _integer_field,
    _oscillator_op,
    _real_field,
    matrix_exp,
)
from .drive_model import DriveSpec, _chi, _psi, hamiltonian_at, mu_nu_sigma, phi12, psi
from .errors import FloquetLabError, NumericError, ResonantTimeError
from .floquet import _exact_energies, _fit_exponent, _time_grid, classify_monodromy, stability_scan
from .oracle import evolve_state, integrate
from .propagator import _factored_states, propagator_factored, propagator_single_exp

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RESONANT_TIME = 3
EXIT_NUMERIC = 4
EXIT_SMALL_DENOM = 5
EXIT_ITERATION_LIMIT = 6

_HALF_NOTE = "half-block means the leading n_keep/2 rows and columns"

# resonance-scan rows per _exact_energies call: their arrays over the 97-time grid peak near 3 MB
_SCAN_CHUNK = 128


def _emit_error(exc: BaseException, code: int, held: list) -> int:
    payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    if held:
        payload["error"]["warnings"] = [f"{w.category.__name__}: {w.message}" for w in held]
    if isinstance(exc, ResonantTimeError):
        payload["error"]["elapsed"] = float(exc.elapsed)
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)
    return code


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors surface as JSON on stderr."""

    def error(self, message):
        print(
            json.dumps({"error": {"type": "ArgumentError", "message": message}}, sort_keys=True),
            file=sys.stderr,
        )
        raise SystemExit(EXIT_CONFIG)


# ---------------------------------------------------------------------------
# configuration


def _load_json_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as err:
        raise ValueError(f"config file not found: {path}") from err
    except json.JSONDecodeError as err:
        raise ValueError(f"malformed JSON in {path}: {err}") from err


def _object(value, name: str) -> dict:
    """A config block read as a JSON object; ValueError naming it otherwise."""
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be an object, got {value!r}")
    return value


def _parse_config(data: dict):
    try:
        system = data["system"]
        params = OscillatorParams(
            omega=_real_field(system["omega"], "omega"), period_T=_real_field(system["period"], "period")
        )
        spec = DriveSpec.from_json_dict(_object(data["drive"], "drive"))
        tr = data["truncation"]
        trunc = Truncation(
            n_keep=_integer_field(tr["n_keep"], "n_keep"), n_pad=_integer_field(tr["n_pad"], "n_pad")
        )
    except (KeyError, TypeError) as err:
        raise ValueError(f"config missing or malformed field: {err}") from err
    # every command forms dense complex dim x dim matrices
    if 16 * trunc.dim**2 > np.iinfo(np.intp).max:
        raise ValueError(
            f"the working dimension n_keep + n_pad = {trunc.dim} is too large: "
            "a dense complex matrix of that size exceeds numpy's index range"
        )
    if abs(spec.period - params.period_T) > 1e-12 * params.period_T:
        raise ValueError(
            f"drive period {spec.period} does not match system period {params.period_T}"
        )
    tol = _object(data.get("tolerances", {}), "tolerances")
    opts = {
        "steps_per_period": _integer_field(tol.get("steps_per_period", 128), "steps_per_period"),
        "scheme": str(tol.get("scheme", "cf4")),
    }
    return spec, params, trunc, opts, _object(data.get("debug", {}), "debug")


def _load_config(path: str):
    return _parse_config(_load_json_file(path))


def shipped_config_path(name: str) -> str:
    """Filesystem path of a packaged configuration file."""
    return str(files("floquet_lab").joinpath("configs", name))


def _write_text(path: str, text: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _json_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _matrix_payload(mat: np.ndarray) -> dict:
    return {
        "dim": int(mat.shape[0]),
        "re": mat.real.tolist(),
        "im": mat.imag.tolist(),
    }


# ---------------------------------------------------------------------------
# propagate


def _build_form(form: str, spec, params, trunc, t: float, s: float, opts) -> np.ndarray:
    if form == "factored":
        return propagator_factored(spec, params, trunc, t, s).entries
    if form == "single-exp":
        return propagator_single_exp(spec, params, trunc, t, s).entries
    if form == "oracle":
        return integrate(spec, params, trunc, t, s, opts["steps_per_period"], opts["scheme"]).entries
    raise ValueError(f"unknown propagator form {form!r}")


def cmd_propagate(args) -> int:
    spec, params, trunc, opts, _ = _load_config(args.config)
    t, s = _real_field(args.t, "--t"), _real_field(args.s, "--s")
    forms = ["factored", "single-exp", "oracle"] if args.form == "all" else [args.form]
    mats = {form: _build_form(form, spec, params, trunc, t, s, opts) for form in forms}

    p1, p2 = phi12(spec, params, t, s)
    kernels = {
        "phi1": float(p1),
        "phi2": float(p2),
        "psi": float(psi(spec, params, t, s)),
    }
    if "single-exp" in mats:
        mns = mu_nu_sigma(spec, params, t, s)
        kernels.update(
            {
                "mu": float(mns.mu),
                "nu": float(mns.nu),
                "sigma": float(mns.sigma),
                "whole_periods": int(mns.whole_periods),
                "delta": float(mns.delta),
            }
        )

    primary = mats[forms[0]]
    half = trunc.n_keep // 2
    block = primary[:half, :half]
    tolerances = {
        "halfblock_unitarity_defect": float(np.linalg.norm(block.conj().T @ block - np.eye(half), 2)),
        "halfblock_note": _HALF_NOTE,
    }
    if len(forms) > 1:
        diffs = {}
        names = list(mats)
        for i, a in enumerate(names):
            for b in names[i + 1 :]:
                d = float(np.linalg.norm(mats[a][:half, :half] - mats[b][:half, :half], 2))
                diffs[f"{a}_vs_{b}"] = float(d)
        tolerances["halfblock_cross_form_differences"] = diffs

    payload = {
        "metadata": {
            "form": args.form,
            "t": float(t),
            "s": float(s),
            "n_keep": trunc.n_keep,
            "n_pad": trunc.n_pad,
            "scalar_kernels": kernels,
            "tolerances": tolerances,
        },
        "propagator": _matrix_payload(primary),
    }
    _write_text(args.out, _json_dumps(payload))
    return EXIT_OK


# ---------------------------------------------------------------------------
# stability


def _parse_state(text: str, trunc: Truncation) -> np.ndarray:
    """The --state value, ground, fock:n or coherent:a, as a normalized
    vector; ValueError naming the flag otherwise."""
    if text == "ground":
        return np.ones(1, dtype=complex)
    kind, _, arg = text.partition(":")
    if kind not in ("fock", "coherent"):
        raise ValueError(f"--state must be ground, fock:n or coherent:a, got {text!r}")
    try:
        value = int(arg) if kind == "fock" else complex(arg)
    except ValueError as err:
        raise ValueError(f"--state {text!r}: {err}") from err
    if kind == "fock":
        if value < 0 or value >= trunc.n_keep:
            raise ValueError(f"--state {text!r}: fock level {value} outside the kept block")
        vec = np.zeros(value + 1, dtype=complex)
        vec[value] = 1.0
        return vec
    # levels 0..n_keep/2: the state starts well inside the kept block, so
    # high_mode_population reads what the drive moves out, not the cut
    n_max = trunc.n_keep // 2 + 1
    vec = np.zeros(n_max, dtype=complex)
    term = 1.0 + 0j
    for n in range(n_max):
        vec[n] = term
        term = term * value / math.sqrt(n + 1)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, not warned about
        nrm = float(np.linalg.norm(vec))
    if not (math.isfinite(nrm) and cmath.isfinite(value)):
        raise ValueError(f"--state {text!r}: the amplitude is not finite or overflows, so no normalized state")
    # the full coherent state has norm^2 exp(|a|^2); the kept levels hold
    # nrm^2 of it, and the tolerance is _padded_state's on the norm
    left_out = -math.expm1(2.0 * math.log(nrm) - abs(value) * abs(value))
    if left_out > 1e-12:
        raise ValueError(
            f"--state {text!r}: {left_out:.3g} of the coherent state's weight lies above level "
            f"{n_max - 1} = n_keep/2, so it would be a different state; lower |a| or raise n_keep"
        )
    vec /= nrm
    return vec


def _verdict_sidecar_path(out_csv: str) -> str:
    base = out_csv[: -len(".csv")] if out_csv.endswith(".csv") else out_csv
    return base + ".verdict.json"


def cmd_stability(args) -> int:
    spec, params, trunc, _, _ = _load_config(args.config)
    if args.periods < 1:
        raise ValueError(f"--periods must be >= 1, got {args.periods}")
    if args.samples < 1:
        raise ValueError(f"--samples must be >= 1, got {args.samples}")
    psi0 = _parse_state(args.state, trunc)
    report = stability_scan(spec, params, trunc, psi0, n_periods=args.periods, samples_per_period=args.samples)
    _write_text(args.out_csv, report.to_csv_text())
    _write_text(_verdict_sidecar_path(args.out_csv), _json_dumps(report.to_json_dict()))
    return EXIT_OK


# ---------------------------------------------------------------------------
# resonance scan


def _scan_row(spec, params: OscillatorParams, t_grid, energy_norms, mean_energy) -> str:
    """One row: the classification, and the growth exponent and sup of the
    ground state's energies over t_grid, that omega's row of one batch of
    _exact_energies."""
    return ",".join(
        [
            str(float(params.omega)),
            classify_monodromy(spec, params).value,
            str(_fit_exponent(t_grid, mean_energy)),
            str(float(energy_norms.max())),
        ]
    )


def cmd_resonance_scan(args) -> int:
    """Rows on the ground state's energies over 24 periods at 4 samples
    each; all rows share that grid, so the energies of _SCAN_CHUNK rows at a
    time come from one _exact_energies call over their omegas."""
    spec, params, _, _, _ = _load_config(args.config)
    try:
        lo_s, hi_s = args.omega_range.split(":", 1)
        lo, hi = float(lo_s), float(hi_s)
    except ValueError as err:
        raise ValueError(
            f"--omega-range must be 'lo:hi', got {args.omega_range!r}"
        ) from err
    if not (0 < lo < hi < math.inf):
        raise ValueError(f"omega range must be finite and satisfy 0 < lo < hi, got {lo}:{hi}")
    if args.steps < 2:
        raise ValueError(f"--steps must be >= 2, got {args.steps}")
    grid = np.linspace(lo, hi, args.steps)
    t_grid = _time_grid(params, 24, 4)
    rows = []
    for start in range(0, grid.size, _SCAN_CHUNK):
        chunk = grid[start : start + _SCAN_CHUNK]
        row_params = [OscillatorParams(omega=w, period_T=params.period_T) for w in chunk]
        norms, means = _exact_energies(spec, chunk, np.ones(1, dtype=complex), t_grid)
        rows += [_scan_row(spec, p, t_grid, n, m) for p, n, m in zip(row_params, norms, means)]
    text = "omega,classification,growth_exponent,sup_energy\n" + "\n".join(rows) + "\n"
    _write_text(args.out_csv, text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# kam


def cmd_kam(args) -> int:
    from . import kam as kam_mod

    space, v, config = kam_mod.load_problem(_load_json_file(args.problem))
    result = kam_mod.kam_iterate(space, v, config)
    _write_text(args.out_history, kam_mod.history_to_jsonl(result.history))

    payload = {
        "status": result.status,
        "iterations": result.iterations,
        "final_residual": float(result.final_residual),
        "eps_v": float(result.history[-1].eps_v) if result.history else None,
        "edge_leak": float(result.edge_leak),
        "message": result.message,
    }
    if result.converged:
        payload["w_weighted_norm"] = float(result.w_weighted_norm)
        payload["g_level"] = _matrix_payload(result.g_level)
        payload["w_blocks"] = {
            str(q): _matrix_payload(blk) for q, blk in sorted(result.w_blocks.items())
        }
    if result.abort_pair is not None:
        payload["abort_pair"] = list(result.abort_pair)
        payload["abort_gap"] = float(result.abort_gap)
    _write_text(args.out_result, _json_dumps(payload))

    if result.status == "converged":
        return EXIT_OK
    if result.status == "small_denominator_abort":
        return EXIT_SMALL_DENOM
    return EXIT_ITERATION_LIMIT


# ---------------------------------------------------------------------------
# verify


def _suite_appendix(config_path: str) -> list:
    spec, params, trunc, opts, debug = _load_config(config_path)

    checks = []
    rng = np.random.default_rng(2024)
    # closed factored form against the integrator, optionally corrupted
    t_probe = 0.37 * params.period_T
    u_fact = propagator_factored(spec, params, trunc, t_probe, 0.0).entries
    if debug.get("flip_psi_sign"):
        u_fact = u_fact * cmath.exp(2j * psi(spec, params, t_probe, 0.0))
    u_orc = integrate(spec, params, trunc, t_probe, 0.0, opts["steps_per_period"], opts["scheme"]).entries
    half = trunc.n_keep // 2
    dev = float(np.linalg.norm(u_fact[:half, :half] - u_orc[:half, :half], 2))
    checks.append(("factored_vs_integrator_halfblock", dev <= 1e-6, dev))

    # the closed-form trajectory of stability, with its global phase, against the stepped one
    t_grid = np.linspace(0.0, 6 * params.period_T, 25)
    psi0 = np.ones(1, dtype=complex)
    chi, phase = _chi(spec, params.omega, t_grid, 0.0), np.exp(-1j * _psi(spec, params.omega, t_grid, 0.0))
    closed = _factored_states(params, chi, psi0, t_grid, trunc.dim) * phase[:, None]
    stepped = evolve_state(spec, params, trunc, psi0, t_grid, opts["steps_per_period"], opts["scheme"])
    dev = float(np.linalg.norm(closed - stepped, axis=1).max())
    checks.append(("stability_closed_form_vs_oracle", dev <= 1e-6, dev))
    # the full-space energies against H(t) psi_t of those truncated states
    exact, _ = _exact_energies(spec, params.omega, psi0, t_grid)
    truncated = np.linalg.norm(
        [hamiltonian_at(spec, params, t, trunc.dim) @ state for t, state in zip(t_grid, closed)], axis=1
    )
    gap = float(np.max(np.abs(exact - truncated) / truncated))
    checks.append(("stability_exact_vs_truncated", gap <= 1e-12, gap))

    # operator identity: displaced exponential refactored through x and p
    from .propagator import split_forward, split_inverse

    dim = 48
    w = params.omega
    for i in range(6):
        mu = float(rng.uniform(-1.5, 1.5))
        nu = float(rng.uniform(-1.5, 1.5))
        tt = float(rng.uniform(0.05, 0.9) * (2 * math.pi / w))
        xi, eta, phase = split_forward(mu, nu, tt, w)
        lhs = matrix_exp(_oscillator_op(w, dim, h=-1j * tt, x=1j * nu, p=1j * (mu / w)))
        rhs = (
            cmath.exp(-1j * phase)
            * matrix_exp(_oscillator_op(w, dim, p=1j * (xi / w)))
            @ matrix_exp(_oscillator_op(w, dim, x=1j * eta))
            @ matrix_exp(_oscillator_op(w, dim, h=-1j * tt))
        )
        half_dim = dim // 2
        dev_i = float(np.linalg.norm((lhs - rhs)[:half_dim, :half_dim], 2))
        checks.append((f"factorization_identity_draw{i}", dev_i <= 1e-7, dev_i))
        back = split_inverse(xi, eta, tt, w)
        rt = max(abs(back[0] - mu), abs(back[1] - nu), abs(back[2] - phase))
        checks.append((f"split_roundtrip_draw{i}", rt <= 1e-10, rt))
    return checks


def _suite_floquet(config_path: str) -> list:
    from .floquet import build_HF, build_SF, build_UF

    spec, params, trunc, opts, _ = _load_config(config_path)
    h_f = build_HF(spec, params, trunc).entries
    checks = []
    big_t = params.period_T

    def u_f(t):
        return build_UF(spec, params, trunc, t).entries

    def s_f(t):
        return build_SF(spec, params, trunc, t).entries

    uf0 = u_f(0.0)
    dev = float(np.linalg.norm(uf0 - np.eye(trunc.n_keep), 2))
    checks.append(("u_f_at_zero_is_identity", dev <= 1e-12, dev))

    ufT = u_f(big_t)
    dev = float(np.linalg.norm(ufT - uf0, 2))
    checks.append(("u_f_periodicity", dev <= 1e-7, dev))

    # holds by construction (S_F is H conjugated through U_F less H_F, and U_F(0) = 1);
    # s_f_finite_difference below is the independent check of that identity
    h0 = hamiltonian_at(spec, params, 0.0, trunc.n_keep)
    recon = h_f + s_f(0.0)
    dev = float(np.linalg.norm(h0 - recon, 2))
    checks.append(("h0_equals_hf_plus_sf0", dev <= 1e-8, dev))

    half = trunc.n_keep // 2
    for i, frac in enumerate((0.31, 0.77)):
        t = frac * big_t
        u = integrate(spec, params, trunc, t, 0.0, opts["steps_per_period"], opts["scheme"]).entries
        reduced = u_f(t) @ matrix_exp(-1j * t * h_f)
        dev = float(np.linalg.norm((u - reduced)[:half, :half], 2))
        checks.append((f"decomposition_t{i}", dev <= 1e-6, dev))

    # the fourth-order central difference: truncation eps^4 and round-off 1/eps balance near eps = 1e-3
    eps = 1e-3
    t0 = 0.4 * big_t
    dudt = (8.0 * (u_f(t0 + eps) - u_f(t0 - eps)) - (u_f(t0 + 2 * eps) - u_f(t0 - 2 * eps))) / (12 * eps)
    sf_fd = 1j * u_f(t0).conj().T @ dudt
    dev = float(np.linalg.norm((sf_fd - s_f(t0))[:half, :half], 2))
    checks.append(("s_f_finite_difference", dev <= 1e-9, dev))
    return checks


def _suite_commutators(config_path: str) -> list:
    from .commutators import xn_operator, xn_operator_via_floquet

    spec, params, trunc, _, _ = _load_config(config_path)
    t, s = 0.63 * params.period_T, 0.21 * params.period_T
    half = trunc.n_keep // 2
    checks = []
    for n in range(5):
        direct = xn_operator(spec, params, trunc, n, t, s).entries[:half, :half]
        dual = xn_operator_via_floquet(spec, params, trunc, n, t, s).entries[:half, :half]
        dev = float(np.linalg.norm(direct - dual, 2))
        scale = max(1.0, float(np.linalg.norm(direct, 2)))
        checks.append((f"xn_dual_routes_n{n}", dev <= 1e-8 * scale, dev))
    return checks


def _suite_kam() -> list:
    from . import kam as kam_mod

    checks = []
    space, v, config = kam_mod.load_problem(
        _load_json_file(shipped_config_path("kam_golden.json"))
    )
    res = kam_mod.kam_iterate(space, v, config)
    checks.append(("golden_converged", res.converged, res.status))
    if res.converged:
        checks.append(
            ("golden_residual", res.final_residual < 1e-10, res.final_residual)
        )
        conj = max(st.conj_residual for st in res.history)
        checks.append(("golden_conjugation_identity", conj <= 1e-8, conj))

    res0 = kam_mod.kam_iterate(
        space, kam_mod.BlockPerturbation.zero(), kam_mod.KamConfig()
    )
    checks.append(
        ("zero_v_one_step", res0.converged and res0.iterations == 0, res0.iterations)
    )

    space_r, v_r, config_r = kam_mod.load_problem(
        _load_json_file(shipped_config_path("kam_resonant.json"))
    )
    res_r = kam_mod.kam_iterate(space_r, v_r, config_r)
    checks.append(
        ("resonant_aborts", res_r.status == "small_denominator_abort", res_r.status)
    )
    return checks


def cmd_verify(args) -> int:
    config = args.config or shipped_config_path("nonresonant.json")
    suites = {
        "appendix": lambda: _suite_appendix(config),
        "floquet": lambda: _suite_floquet(config),
        "commutators": lambda: _suite_commutators(config),
        "kam": _suite_kam,
    }
    names = list(suites) if args.suite == "all" else [args.suite]
    all_ok = True
    for name in names:
        for check, ok, detail in suites[name]():
            all_ok &= bool(ok)
            print(f"{'PASS' if ok else 'FAIL'} {name}.{check} ({detail})")
    print("verify: OK" if all_ok else "verify: FAILED")
    return EXIT_OK if all_ok else 1


# ---------------------------------------------------------------------------
# entry point


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="floquet-lab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("propagate", help="evaluate U(t, s) in a chosen form")
    p.add_argument("config")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--s", type=float, default=0.0)
    p.add_argument("--form", choices=["factored", "single-exp", "oracle", "all"], default="factored")
    p.add_argument("--out", required=True)
    p.set_defaults(func="cmd_propagate")

    p = sub.add_parser("stability", help="energy tracking over many periods")
    p.add_argument("config")
    p.add_argument("--periods", type=int, required=True)
    p.add_argument("--samples", type=int, default=8)
    p.add_argument("--state", default="ground")
    p.add_argument("--out-csv", required=True)
    p.set_defaults(func="cmd_stability")

    p = sub.add_parser("resonance-scan", help="classification sweep over omega")
    p.add_argument("config")
    p.add_argument("--omega-range", required=True, help="lo:hi")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--out-csv", required=True)
    p.set_defaults(func="cmd_resonance_scan")

    p = sub.add_parser("kam", help="run the iterative diagonalization")
    p.add_argument("problem")
    p.add_argument("--out-history", required=True)
    p.add_argument("--out-result", required=True)
    p.set_defaults(func="cmd_kam")

    p = sub.add_parser("verify", help="run invariant suites")
    p.add_argument("--suite", choices=["appendix", "floquet", "commutators", "kam", "all"], default="all")
    p.add_argument("--config", default=None)
    p.set_defaults(func="cmd_verify")

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # Warnings are held so that a failing run's stderr is the one JSON error
    # object, which lists them; a run that returns prints them as usual.  A
    # caller's "error" filter would turn numpy's into exceptions on the way,
    # so it is held as Python's default; any other action stays the caller's.
    with warnings.catch_warnings(record=True) as held:
        if next((f[0] for f in warnings.filters if issubclass(RuntimeWarning, f[2])), None) == "error":
            warnings.simplefilter("default", RuntimeWarning)
        try:
            code = globals()[args.func](args)
        except ResonantTimeError as err:
            return _emit_error(err, EXIT_RESONANT_TIME, held)
        except NumericError as err:
            return _emit_error(err, EXIT_NUMERIC, held)
        except MemoryError as err:
            # numpy names the shape that the config's sizes asked for
            too_large = MemoryError(f"out of memory, the config's sizes are too large: {err}")
            return _emit_error(too_large, EXIT_CONFIG, held)
        except (ValueError, KeyError, OSError) as err:
            return _emit_error(err, EXIT_CONFIG, held)
        except FloquetLabError as err:
            return _emit_error(err, EXIT_NUMERIC, held)
    for w in held:
        warnings.showwarning(w.message, w.category, w.filename, w.lineno, w.file, w.line)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
