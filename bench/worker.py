"""One benchmark process: set up one workload, run it, print the result.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

``bench/run.py`` starts this with the thread environment already set and
``src`` on ``PYTHONPATH``. The worker prints ``READY`` once set-up is done
(package import, config generation and parsing, one untimed warm-up
job); with ``--setup-only`` it exits there. Otherwise it runs whole job
cycles for about ``--seconds``, checks each result, runs the untimed
reference pass and prints one JSON object as its last line.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
TMP_ROOT = ROOT / ".bench_tmp"
OUT_DIR = ROOT / ".bench_out"

END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "jobs_per_s": "1/s",
    "ok_ratio": "1",
    "peak_rss_mb": "MB",
}


def use_checkout_source() -> None:
    """Import floquet_lab from this checkout's src/ and nowhere else."""
    if not (SRC / "floquet_lab" / "__init__.py").is_file():
        raise SystemExit(f"no package source at {SRC / 'floquet_lab'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import floquet_lab

    if Path(floquet_lab.__file__).resolve().parent != SRC / "floquet_lab":
        raise SystemExit(f"floquet_lab imported from {floquet_lab.__file__}, not from {SRC}")


# Times are scaled to a host on which one HostProbe call takes this long.
# The probe is the benchmark's own fixed mix of small numpy and scipy
# linear algebra and interpreter work, and it calls no floquet_lab code,
# so a change to the package cannot move it; what moves it is the speed
# the shared host gives this process, which drifts by tens of percent
# within seconds. A probe runs after every job, and each job is scaled by
# the median of the PROBE_WINDOW probes nearest to it, so a job and its
# scale see the same host. Every job evicts the probe's data from the
# caches, so each timed probe starts cold, whatever the job was.
REFERENCE_PROBE_S = 0.003
PROBE_WINDOW = 4
MAX_WALL_FACTOR = 2.0
SETUP_PROBES = 25


class HostProbe:
    """A fixed small workload whose time gauges the host's speed."""

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        a = rng.standard_normal((48, 48))
        self.sym = a + a.T
        self.gen = 0.1 * (rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40)))
        self.small = rng.standard_normal((8, 8))
        self()  # first call loads scipy.linalg

    def __call__(self) -> float:
        import numpy as np
        import scipy.linalg

        start = time.perf_counter()
        for _ in range(3):
            np.linalg.eigh(self.sym)
        scipy.linalg.expm(self.gen)
        for _ in range(20):
            np.linalg.svd(self.small)
        acc = 0
        for i in range(4000):
            acc += i * i
        return time.perf_counter() - start


def host_scales(probes: list) -> list:
    """Per job, the factor that takes its seconds to seconds on the
    reference host. ``probes[i]`` ran just before job i and
    ``probes[i + 1]`` just after it; each job uses the median of the
    PROBE_WINDOW probes centred on it (fewer at the ends of the run)."""
    half = PROBE_WINDOW // 2
    return [
        REFERENCE_PROBE_S / statistics.median(probes[max(0, i - half + 1) : i + half + 1])
        for i in range(len(probes) - 1)
    ]


def tail(latencies: list) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    jobs beyond it; with ten jobs or fewer, the fastest job."""
    ordered = sorted(latencies)
    n = len(ordered)
    idx = max(0, n - 11)
    return ordered[idx], 100.0 * (idx + 1) / n


class Outcome:
    __slots__ = ("job", "seconds", "error", "detail")

    def __init__(self, job, seconds, error=None, detail=""):
        self.job, self.seconds, self.error, self.detail = job, seconds, error, detail


def run_job(wl, job, tracer=None) -> Outcome:
    """Time one job, then check it outside the timed span."""
    if tracer is not None:
        tracer.job = job.id
    start = time.perf_counter()
    try:
        output = wl.run(job)
    except Exception as exc:  # a job that raises is a failed job, never a crash
        return Outcome(job, time.perf_counter() - start, type(exc).__name__, str(exc))
    seconds = time.perf_counter() - start
    from workloads import CheckFailed

    try:
        wl.check(job, output)
    except CheckFailed as exc:
        return Outcome(job, seconds, "CheckFailed", str(exc))
    except Exception as exc:  # an unreadable output fails its check
        return Outcome(job, seconds, "CheckFailed", f"{type(exc).__name__}: {exc}")
    return Outcome(job, seconds)


def _wrong(outcomes: list) -> int:
    """Results that failed their check, known defects aside."""
    return sum(o.error == "CheckFailed" and not o.job.known_defect for o in outcomes)


def timed_loop(wl, seconds: float, min_cycles: int, max_jobs: int | None, probe) -> tuple[list, list, list]:
    """Whole cycles, with one host probe after each job, until the scaled
    job time is as close to ``seconds`` as a cycle boundary allows (at
    least ``min_cycles``); returns (cycles, outcomes, probe times).

    Whole cycles keep the job mix, and so ``ok_ratio`` and ``jobs_per_s``,
    the same in every run. Counting scaled rather than wall seconds keeps
    the number of cycles, and so the percentile ``latency_tail_s`` reads,
    the same whatever speed the host runs at; wall time is capped at
    MAX_WALL_FACTOR times ``seconds``."""
    cycles, outcomes, probes = [], [], [probe()]
    start = time.perf_counter()
    scaled = 0.0
    k = 0
    while True:
        jobs = wl.cycle(k)
        cycle_scaled = 0.0
        for job in jobs:
            job.id = len(outcomes)
            outcomes.append(run_job(wl, job))
            probes.append(probe())
            cycle_scaled += outcomes[-1].seconds * REFERENCE_PROBE_S / statistics.median(probes[-PROBE_WINDOW:])
            if max_jobs is not None and len(outcomes) >= max_jobs:
                cycles.append(jobs)
                return cycles, outcomes, probes
        cycles.append(jobs)
        k += 1
        scaled += cycle_scaled
        if k >= min_cycles and (
            scaled + 0.5 * cycle_scaled >= seconds or time.perf_counter() - start >= MAX_WALL_FACTOR * seconds
        ):
            return cycles, outcomes, probes


def run_workload(wl, seconds: float, trace: bool, max_jobs: int | None = None) -> dict:
    """Run a set-up workload in this process; returns metrics, counts and
    the run record (and the tracer, under "spans", when traced)."""
    min_cycles = wl.trace_cycles if trace else 1
    cycles, outcomes, probes = timed_loop(wl, seconds, min_cycles, max_jobs, HostProbe())
    scales = host_scales(probes)
    jobs = [job for cycle in cycles for job in cycle][: len(outcomes)]
    lat = [o.seconds for o in outcomes]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    traced = None
    if trace:
        import tracing

        tracer = tracing.Tracer(threads=int(os.environ.get("FLOQUET_LAB_THREADS", "2")))
        replay = [job for cycle in cycles[: wl.trace_cycles] for job in cycle][: len(outcomes)]
        # each replayed job runs untraced, then traced, back to back, so the
        # overhead compares warm runs of the same job on the same host
        untraced, traced = [], []
        for job in replay:
            untraced.append(run_job(wl, job))
            tracer.install()
            try:
                traced.append(run_job(wl, job, tracer))
            finally:
                tracer.uninstall()

    reference = wl.reference()
    failed_ids = {o.job.id for o in outcomes if o.error}
    failed_ids |= {job_id for job_id, _, ok in reference if not ok}
    wrong = _wrong(outcomes) + sum(not ok for _, _, ok in reference)
    errors: dict = {}
    for o in outcomes:
        if o.error:
            errors[o.error] = errors.get(o.error, 0) + 1
    wl.finish(jobs)

    ok = len(outcomes) - len(failed_ids)
    scaled = [seconds * factor for seconds, factor in zip(lat, scales)]
    value, pct = tail(scaled)
    raw = {"latency_p50_s": statistics.median(lat), "latency_tail_s": tail(lat)[0], "jobs_per_s": ok / sum(lat)}
    result = {
        "attempted": len(outcomes),
        "failed": len(failed_ids),
        "wrong": wrong,
        "metrics": {
            "latency_p50_s": statistics.median(scaled),
            "latency_tail_s": value,
            "jobs_per_s": ok / sum(scaled),
            "ok_ratio": ok / len(outcomes),
            "peak_rss_mb": rss_mb,
        },
        "record": {
            "workload": wl.name,
            "seed": wl.seed,
            "jobs": len(outcomes),
            "cycles": len(cycles),
            "timed_wall_s": sum(lat),
            "host_probe_median_s": statistics.median(probes),
            "host_scale_median": statistics.median(scales),
            "unscaled": raw,
            "tail_percentile": pct,
            "fail_ratio": len(failed_ids) / len(outcomes),
            "errors_by_class": errors,
            "known_defect_failures": sum(bool(o.error) and o.job.known_defect for o in outcomes),
            "failures": [
                {"job": o.job.id, "kind": o.job.kind, "error": o.error, "detail": o.detail[:200]}
                for o in outcomes
                if o.error
            ][:20],
            "reference": {
                "checked": len(reference),
                "misses": sum(not ok for _, _, ok in reference),
                "worst_deviation": max((dev for _, dev, _ in reference), default=0.0),
            },
            **wl.record,
            **versions(),
        },
    }
    if traced is not None:
        traced_p50 = statistics.median(o.seconds for o in traced)
        untraced_p50 = statistics.median(o.seconds for o in untraced)
        per_layer = tracer.metrics()
        per_layer[tracing.OVERHEAD_METRIC] = traced_p50 - untraced_p50
        result["per_layer"] = per_layer
        result["record"]["trace"] = {
            "jobs": len(traced),
            "spans": len(tracer.spans),
            "traced_p50_s": traced_p50,
            "untraced_p50_s": untraced_p50,
            "overhead_p50_s": traced_p50 - untraced_p50,
            "errors_by_class": dict(tracer.errors),
            "failed": sum(1 for o in traced if o.error),
            "wrong": _wrong(traced),
            "wrappers_left": tracer.installed,
        }
        result["wrong"] += result["record"]["trace"]["wrong"]
        result["spans"] = tracer
    return result


def versions() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    use_checkout_source()
    sys.path.insert(0, str(BENCH_DIR))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}")
    TMP_ROOT.mkdir(exist_ok=True)
    tmpdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=TMP_ROOT))
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, tmpdir)
        warm = wl.warm_up()
        warm_outcome = run_job(wl, warm)
        if warm_outcome.error == "CheckFailed":
            raise SystemExit(f"warm-up job failed its check: {warm_outcome.detail}")
        print(f"READY {time.monotonic()!r}", flush=True)
        probe = HostProbe()
        print(f"PROBE {statistics.median([probe() for _ in range(SETUP_PROBES)])!r}", flush=True)
        if args.setup_only:
            return 0
        result = run_workload(wl, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    tracer = result.pop("spans", None)
    if tracer is not None:
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write_spans(OUT_DIR / f"{args.workload}-seed{args.seed}.spans.jsonl")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SystemExit:
        raise
    except Exception:
        traceback.print_exc()
        sys.exit(1)
