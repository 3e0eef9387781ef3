"""floquet-lab benchmark: one command, four seeded workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: closed_forms, oracle_reuse, omega_sweep, kam_lattice (see
bench/README.md). Each is a closed loop with one client: the next job
starts when the previous one returns.

This launcher sets the thread environment (one BLAS thread, two CLI scan
threads) and puts this checkout's ``src`` on ``PYTHONPATH`` by absolute
path, then starts ``bench/worker.py``. Set-up time is measured in
``SETUP_RUNS`` fresh processes (all but the last only set up; the last
measures), each scaled by the host probe that process runs right after
set-up, and the median is reported. Each job time is scaled the same way
by the probes run next to it (see ``worker.host_scales``). The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``. The line before it is the run record. Both are also
written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

import tracing
from worker import BENCH_DIR, END_TO_END_UNITS, OUT_DIR, REFERENCE_PROBE_S, ROOT, SRC

WORKLOADS = ("closed_forms", "oracle_reuse", "omega_sweep", "kam_lattice")
SETUP_RUNS = 3
WORKER_TIMEOUT_S = 160.0
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "FLOQUET_LAB_THREADS": "2",
}


def worker_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


def start_worker(args, setup_only: bool, deadline: float) -> tuple[float, float, dict | None]:
    """Run one worker to completion; returns (set-up seconds, the host
    probe time measured right after set-up, result or None)."""
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=worker_env(), cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise SystemExit(f"worker exceeded the run's time limit: {' '.join(cmd)}")
    finally:
        # on a timeout or a SIGTERM to this launcher, the worker goes too
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with code {proc.returncode}: {' '.join(cmd)}")
    lines = out.splitlines()
    ready = [float(line.split()[1]) for line in lines if line.startswith("READY ")]
    probe = [float(line.split()[1]) for line in lines if line.startswith("PROBE ")]
    if len(ready) != 1 or len(probe) != 1:
        raise SystemExit("worker did not report the end of set-up")
    result = None if setup_only else json.loads(lines[-1])
    return ready[0] - spawned, probe[0], result


def git_commit() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def with_units(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def build_result(args, setup_samples: list, worker: dict) -> tuple[dict, dict]:
    """(final result line, run record) from the set-up samples and the
    measuring worker's output."""
    if args.trace:
        metrics = with_units(worker["per_layer"], tracing.per_layer_units())
    else:
        scaled = [seconds * REFERENCE_PROBE_S / probe for seconds, probe in setup_samples]
        values = {"setup_s": statistics.median(scaled), **worker["metrics"]}
        metrics = with_units(values, END_TO_END_UNITS)
    record = {
        "nproc": os.cpu_count(),
        "thread_env": THREAD_ENV,
        "git_commit": git_commit(),
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_samples": [{"seconds": sec, "host_probe_s": probe} for sec, probe in setup_samples],
        **worker["record"],
    }
    result = {
        "correct": worker["wrong"] == 0,
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "metrics": metrics,
    }
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="floquet-lab benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "floquet_lab" / "__init__.py").is_file():
        print(f"benchmark: no floquet_lab source under {SRC}", file=sys.stderr)
        return 2

    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    deadline = time.monotonic() + WORKER_TIMEOUT_S
    samples = [start_worker(args, True, deadline)[:2] for _ in range(SETUP_RUNS - 1)]
    setup_s, probe, worker = start_worker(args, False, deadline)
    samples.append((setup_s, probe))
    result, record = build_result(args, samples, worker)

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.record.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps({"run_record": record}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
