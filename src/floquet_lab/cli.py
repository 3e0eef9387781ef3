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
"""

from __future__ import annotations

import argparse
import cmath
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
    _real_field,
    matrix_exp,
    number_basis_energies,
    xp_operators,
)
from .drive_model import DriveSpec, mu_nu_sigma, phi12, psi
from .errors import (
    FloquetLabError,
    InvalidIntervalError,
    InvalidTruncationError,
    NotConvergedError,
    NumericError,
    ResonanceError,
    ResonantTimeError,
    SmallDenominatorError,
)
from .floquet import classify_monodromy, stability_scan
from .oracle import integrate
from .propagator import propagator_factored, propagator_single_exp

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RESONANT_TIME = 3
EXIT_NUMERIC = 4
EXIT_SMALL_DENOM = 5
EXIT_ITERATION_LIMIT = 6

_HALF_NOTE = "half-block means the leading n_keep/2 rows and columns"


def _emit_error(exc: BaseException, code: int, held: list) -> int:
    payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    if held:
        payload["error"]["warnings"] = [f"{w.category.__name__}: {w.message}" for w in held]
    if isinstance(exc, SmallDenominatorError):
        payload["error"]["pair"] = list(exc.pair) if exc.pair is not None else None
        payload["error"]["gap"] = float(exc.gap) if exc.gap is not None else None
    if isinstance(exc, ResonantTimeError):
        payload["error"]["elapsed"] = float(exc.elapsed) if exc.elapsed is not None else None
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


def _parse_config(data: dict):
    try:
        system = data["system"]
        params = OscillatorParams(
            omega=_real_field(system["omega"], "omega"), period_T=_real_field(system["period"], "period")
        )
        spec = DriveSpec.from_json_dict(data["drive"])
        tr = data["truncation"]
        trunc = Truncation(
            n_keep=_integer_field(tr["n_keep"], "n_keep"), n_pad=_integer_field(tr["n_pad"], "n_pad")
        )
    except (KeyError, TypeError) as err:
        raise ValueError(f"config missing or malformed field: {err}") from err
    if abs(spec.period - params.period_T) > 1e-12 * params.period_T:
        raise ValueError(
            f"drive period {spec.period} does not match system period {params.period_T}"
        )
    tol = data.get("tolerances", {})
    opts = {
        "steps_per_period": _integer_field(tol.get("steps_per_period", 128), "steps_per_period"),
        "scheme": str(tol.get("scheme", "cf4")),
    }
    debug = data.get("debug", {})
    return spec, params, trunc, opts, debug


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
        return integrate(
            spec, params, trunc, t, s, steps_per_period=opts["steps_per_period"],
            scheme=opts["scheme"],
        ).entries
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
        "halfblock_unitarity_defect": float(
            float(np.linalg.norm(block.conj().T @ block - np.eye(half), 2))
        ),
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
    if text == "ground":
        vec = np.zeros(1, dtype=complex)
        vec[0] = 1.0
        return vec
    if text.startswith("fock:"):
        n = int(text.split(":", 1)[1])
        if n < 0 or n >= trunc.n_keep:
            raise ValueError(f"fock level {n} outside the kept block")
        vec = np.zeros(n + 1, dtype=complex)
        vec[n] = 1.0
        return vec
    if text.startswith("coherent:"):
        alpha = complex(text.split(":", 1)[1])
        n_max = max(1, trunc.n_keep // 4)
        vec = np.zeros(n_max, dtype=complex)
        term = 1.0 + 0j
        for n in range(n_max):
            vec[n] = term
            term = term * alpha / math.sqrt(n + 1)
        vec /= np.linalg.norm(vec)
        return vec
    raise ValueError(f"unknown state spec {text!r} (use ground, fock:n, coherent:a)")


def _verdict_sidecar_path(out_csv: str) -> str:
    base = out_csv[: -len(".csv")] if out_csv.endswith(".csv") else out_csv
    return base + ".verdict.json"


def cmd_stability(args) -> int:
    spec, params, trunc, opts, _ = _load_config(args.config)
    if args.periods < 1:
        raise ValueError(f"--periods must be >= 1, got {args.periods}")
    if args.samples < 1:
        raise ValueError(f"--samples must be >= 1, got {args.samples}")
    psi0 = _parse_state(args.state, trunc)
    report = stability_scan(
        spec,
        params,
        trunc,
        psi0,
        n_periods=args.periods,
        samples_per_period=args.samples,
        steps_per_period=opts["steps_per_period"],
        scheme=opts["scheme"],
    )
    _write_text(args.out_csv, report.to_csv_text())
    _write_text(_verdict_sidecar_path(args.out_csv), _json_dumps(report.to_json_dict()))
    return EXIT_OK


# ---------------------------------------------------------------------------
# resonance scan


def _scan_row(spec, params, trunc, opts, omega: float) -> str:
    p = OscillatorParams(omega=omega, period_T=params.period_T)
    classification = classify_monodromy(spec, p)
    vec = np.zeros(1, dtype=complex)
    vec[0] = 1.0
    report = stability_scan(
        spec,
        p,
        trunc,
        vec,
        n_periods=24,
        samples_per_period=4,
        steps_per_period=min(96, opts["steps_per_period"]),
        scheme=opts["scheme"],
    )
    sup_energy = float(np.max(report.energy_norms))
    return ",".join(
        [
            str(float(omega)),
            classification.value,
            str(float(report.fit_exponent)),
            str(float(sup_energy)),
        ]
    )


def cmd_resonance_scan(args) -> int:
    spec, params, trunc, opts, _ = _load_config(args.config)
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
    rows = [_scan_row(spec, params, trunc, opts, w) for w in grid]
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
        psi_val = psi(spec, params, t_probe, 0.0)
        u_fact = u_fact * cmath.exp(2j * psi_val)
    u_orc = integrate(
        spec, params, trunc, t_probe, 0.0, steps_per_period=opts["steps_per_period"],
        scheme=opts["scheme"],
    ).entries
    half = trunc.n_keep // 2
    dev = float(np.linalg.norm(u_fact[:half, :half] - u_orc[:half, :half], 2))
    checks.append(("factored_vs_integrator_halfblock", dev <= 1e-6, dev))

    # operator identity: displaced exponential refactored through x and p
    from .propagator import split_forward, split_inverse

    dim = 48
    x, p = xp_operators(params.omega, dim)
    h = np.diag(number_basis_energies(params.omega, dim)).astype(complex)
    for i in range(6):
        mu = float(rng.uniform(-1.5, 1.5))
        nu = float(rng.uniform(-1.5, 1.5))
        tt = float(rng.uniform(0.05, 0.9) * (2 * math.pi / params.omega))
        xi, eta, phase = split_forward(mu, nu, tt, params.omega)
        lhs = matrix_exp(-1j * tt * h + 1j * (mu / params.omega) * p + 1j * nu * x)
        rhs = (
            cmath.exp(-1j * phase)
            * matrix_exp(1j * (xi / params.omega) * p)
            @ matrix_exp(1j * eta * x)
            @ matrix_exp(-1j * tt * h)
        )
        half_dim = dim // 2
        dev_i = float(np.linalg.norm((lhs - rhs)[:half_dim, :half_dim], 2))
        checks.append((f"factorization_identity_draw{i}", dev_i <= 1e-7, dev_i))
        back = split_inverse(xi, eta, tt, params.omega)
        rt = max(abs(back[0] - mu), abs(back[1] - nu), abs(back[2] - phase))
        checks.append((f"split_roundtrip_draw{i}", rt <= 1e-10, rt))
    return checks


def _suite_floquet(config_path: str) -> list:
    from .floquet import build_HF, build_SF, build_UF
    from .oracle import hamiltonian_at

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

    eps = 1e-6
    t0 = 0.4 * big_t
    um = u_f(t0 - eps)
    up = u_f(t0 + eps)
    dudt = (up - um) / (2 * eps)
    sf_fd = 1j * np.linalg.inv(u_f(t0)) @ dudt
    dev = float(np.linalg.norm((sf_fd - s_f(t0))[:half, :half], 2))
    checks.append(("s_f_finite_difference", dev <= 1e-5, dev))
    return checks


def _suite_commutators() -> list:
    from .commutators import ap_commute, f_polynomial

    checks = []
    rng = np.random.default_rng(11)
    for i in range(4):
        dim = 12
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        a = 0.5 * (a + a.conj().T)
        b = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        for p in (2, 3, 4):
            lhs = ap_commute(a, b, p).entries
            rhs = np.linalg.matrix_power(a, p) @ b
            dev = float(
                np.linalg.norm(lhs - rhs, 2) / max(1.0, np.linalg.norm(rhs, 2))
            )
            checks.append((f"power_commutation_draw{i}_p{p}", dev <= 1e-10, dev))
    f20 = f_polynomial(2, 0).coefficients()
    checks.append(("f_poly_2_0", f20 == {(1,): 1, (0, 0): 1}, str(sorted(f20.items()))))
    f21 = f_polynomial(2, 1).coefficients()
    checks.append(("f_poly_2_1", f21 == {(0,): 2}, str(sorted(f21.items()))))
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
        "commutators": _suite_commutators,
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


def _build_parser() -> _Parser:
    parser = _Parser(prog="floquet-lab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("propagate", help="evaluate U(t, s) in a chosen form")
    p.add_argument("config")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--s", type=float, default=0.0)
    p.add_argument("--form", choices=["factored", "single-exp", "oracle", "all"], default="factored")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_propagate)

    p = sub.add_parser("stability", help="energy tracking over many periods")
    p.add_argument("config")
    p.add_argument("--periods", type=int, required=True)
    p.add_argument("--samples", type=int, default=8)
    p.add_argument("--state", default="ground")
    p.add_argument("--out-csv", required=True)
    p.set_defaults(func=cmd_stability)

    p = sub.add_parser("resonance-scan", help="classification sweep over omega")
    p.add_argument("config")
    p.add_argument("--omega-range", required=True, help="lo:hi")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--out-csv", required=True)
    p.set_defaults(func=cmd_resonance_scan)

    p = sub.add_parser("kam", help="run the iterative diagonalization")
    p.add_argument("problem")
    p.add_argument("--out-history", required=True)
    p.add_argument("--out-result", required=True)
    p.set_defaults(func=cmd_kam)

    p = sub.add_parser("verify", help="run invariant suites")
    p.add_argument("--suite", choices=["appendix", "floquet", "commutators", "kam", "all"], default="all")
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # Warnings are held so that a failing run's stderr is the one JSON error
    # object, which lists them; a run that returns prints them as usual.
    with warnings.catch_warnings(record=True) as held:
        try:
            code = args.func(args)
        except ResonantTimeError as err:
            return _emit_error(err, EXIT_RESONANT_TIME, held)
        except SmallDenominatorError as err:
            return _emit_error(err, EXIT_SMALL_DENOM, held)
        except NotConvergedError as err:
            return _emit_error(err, EXIT_ITERATION_LIMIT, held)
        except NumericError as err:
            return _emit_error(err, EXIT_NUMERIC, held)
        except (
            ValueError,
            KeyError,
            OSError,
            InvalidTruncationError,
            InvalidIntervalError,
            ResonanceError,
        ) as err:
            return _emit_error(err, EXIT_CONFIG, held)
        except FloquetLabError as err:
            return _emit_error(err, EXIT_NUMERIC, held)
    for w in held:
        warnings.showwarning(w.message, w.category, w.filename, w.lineno, w.file, w.line)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
