"""Self-check of the benchmark: a tiny run of every workload.

Checks that every end-to-end metric comes out on every workload with its
declared unit, that the traced run reports exactly the declared per-layer
names, and that an untraced run installs no wrappers.
"""

import json
import sys
from argparse import Namespace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import worker  # noqa: E402

worker.use_checkout_source()

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

DECLARED = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
SEED = 3


def _package_bindings() -> dict:
    """Every name bound in a floquet_lab module or on PeriodStepper."""
    bindings = {}
    for mod in tracing._package_modules():
        for attr, value in vars(mod).items():
            bindings[(mod.__name__, attr)] = id(value)
    stepper = sys.modules["floquet_lab.oracle"].PeriodStepper
    for attr, value in vars(stepper).items():
        bindings[("PeriodStepper", attr)] = id(value)
    return bindings


def _tiny_run(name, tmp_path, trace):
    wl = workloads.WORKLOADS[name](SEED, tmp_path)
    result = worker.run_workload(wl, seconds=0.0, trace=trace, max_jobs=2)
    args = Namespace(workload=name, seed=SEED, seconds=0.0, trace=int(trace))
    return run.build_result(args, [(0.5, 0.002), (0.6, 0.003), (0.7, 0.002)], result)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(name, tmp_path, monkeypatch):
    installs = []
    monkeypatch.setattr(tracing.Tracer, "install", lambda self: installs.append(self))
    before = _package_bindings()

    result, record = _tiny_run(name, tmp_path, trace=False)

    assert installs == [] and _package_bindings() == before
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] == 2
    declared = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert record["workload"] == name and record["seed"] == SEED
    for key in ("nproc", "blas", "python", "numpy", "scipy", "thread_env", "git_commit", "jobs",
                "tail_percentile"):
        assert key in record


def test_traced_run_reports_the_declared_layers(tmp_path):
    before = _package_bindings()

    result, record = _tiny_run("closed_forms", tmp_path, trace=True)

    assert _package_bindings() == before
    assert record["trace"]["wrappers_left"] == 0
    declared = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert declared == tracing.per_layer_units()
    assert result["metrics"]["floquet.transition_bound_check.calls"]["value"] == 2
    assert result["metrics"]["core_fock.matrix_exp.calls"]["value"] > 0


def test_tail_is_the_highest_percentile_with_ten_jobs_beyond():
    assert worker.tail(list(range(30))) == (19, 100.0 * 20 / 30)
    assert worker.tail([3.0, 1.0, 2.0]) == (1.0, 100.0 / 3)


def test_each_job_is_scaled_by_the_probes_around_it():
    ref = worker.REFERENCE_PROBE_S
    assert worker.host_scales([ref] * 5) == [1.0] * 4
    # probes[i] ran before job i and probes[i + 1] after it
    scales = worker.host_scales([ref, ref, 2 * ref, 2 * ref, 2 * ref])
    assert scales == pytest.approx([1.0, 1 / 1.5, 0.5, 0.5])
