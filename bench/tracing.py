"""Per-layer tracing from outside the package.

The package modules import each other's functions by name (``from
.core_fock import matrix_exp`` in six modules), so a wrapper has to be
bound under every name that refers to the original function, in every
``floquet_lab`` module. Methods are wrapped on their class.

A ``Tracer`` records one span per wrapped call: its metric-prefix name,
start, end, parent span and job id. Spans stay in memory until the run
ends. ``uninstall`` puts every original object back.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import threading
import time
from collections import Counter, defaultdict

# layer -> public functions wrapped; the metric prefix is "<layer>.<function>"
LAYERS = {
    "core_fock": ("matrix_exp",),
    "drive_model": (
        "phi12",
        "psi",
        "mu_nu_sigma",
        "floquet_scalars",
        "floquet_scalar_derivs",
        "eval_drive",
    ),
    "propagator": ("propagator_factored", "propagator_single_exp"),
    "oracle": ("integrate", "evolve_state", "PeriodStepper.segment", "propagate_generic"),
    "floquet": (
        "stability_scan",
        "transition_bound_check",
        "build_HF",
        "build_UF",
        "classify_monodromy",
        "energy_bound_constant",
    ),
    "commutators": ("higher_order_bound_check", "xn_operator", "sup_xn_norm"),
    "kam": ("kam_iterate", "weighted_block_norm", "eps_v_norm"),
    "cli": ("main",),
}

# counts measured at the same boundaries, with their units
COUNTERS = {
    "drive_model.errors": "count",
    "oracle.steps": "count",
    "oracle.stepper_builds": "count",
    "oracle.segment_hit_ratio": "1",
    "kam.iterations": "count",
    "kam.aborts": "count",
    "cli.bytes_written": "bytes",
    "cli.pool_busy_ratio": "1",
}

OVERHEAD_METRIC = "bench.trace_overhead_p50_s"


def span_names() -> list:
    return [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in span_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(COUNTERS)
    units[OVERHEAD_METRIC] = "s"
    return units


def _package_modules() -> list:
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "floquet_lab" or name.startswith("floquet_lab."))
    ]


class Tracer:
    """Installs wrappers, records spans and counts, and restores the package."""

    def __init__(self, threads: int):
        self.threads = threads
        self.spans = []  # (id, name, start, end, parent, job)
        self.job = None
        self.errors = Counter()
        self.counts = Counter()
        self.row_busy_s = 0.0
        self.scan_wall_s = 0.0
        self._ids = itertools.count(1)
        self._row_lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = self._stack()
        self._patches = []  # (namespace, attribute, original)

    # -- span bookkeeping

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span(self, name: str, fn, on_result=None):
        layer = name.split(".", 1)[0]
        from floquet_lab.errors import FloquetLabError

        def wrapper(*args, **kwargs):
            stack = self._stack()
            # calls on the CLI's scan pool hang under the span that started them
            parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
            sid = next(self._ids)
            stack.append((sid, name))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except FloquetLabError as err:
                if layer == "drive_model" and (parent is None or not parent[1].startswith("drive_model.")):
                    self.errors[type(err).__name__] += 1
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((sid, name, start, end, parent[0] if parent else None, self.job))
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, fn, before=None, timed=None):
        """Count-only wrapper: no span, so it takes no self time from anyone."""

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                if timed is not None:
                    timed(time.perf_counter() - start)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- hooks for the extra counts

    def _count_steps(self, args, kwargs, _result):
        self.counts["oracle.steps"] += int(kwargs["n_steps"] if "n_steps" in kwargs else args[4])

    def _count_kam(self, _args, _kwargs, result):
        self.counts["kam.iterations"] += int(result.iterations)
        self.counts["kam.aborts"] += int(result.status == "small_denominator_abort")

    def _count_bytes(self, args, kwargs):
        text = kwargs["text"] if "text" in kwargs else args[1]
        self.counts["cli.bytes_written"] += len(text.encode("utf-8"))

    def _count_build(self, _args, _kwargs):
        self.counts["oracle.stepper_builds"] += 1

    def _add_row(self, seconds: float):
        with self._row_lock:
            self.row_busy_s += seconds

    def _add_scan(self, seconds: float):
        self.scan_wall_s += seconds

    # -- install / uninstall

    def _rebind_everywhere(self, original, replacement):
        for mod in _package_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def _rebind_attr(self, namespace, attr, replacement):
        self._patches.append((namespace, attr, namespace.__dict__[attr]))
        setattr(namespace, attr, replacement)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        importlib.import_module("floquet_lab.cli")
        hooks = {"oracle.propagate_generic": self._count_steps, "kam.kam_iterate": self._count_kam}
        for layer, fns in LAYERS.items():
            home = importlib.import_module(f"floquet_lab.{layer}")
            for fn_name in fns:
                name = f"{layer}.{fn_name}"
                if "." in fn_name:
                    cls_name, method = fn_name.split(".")
                    cls = getattr(home, cls_name)
                    self._rebind_attr(cls, method, self._span(name, cls.__dict__[method]))
                else:
                    original = getattr(home, fn_name)
                    self._rebind_everywhere(original, self._span(name, original, hooks.get(name)))
        cli = sys.modules["floquet_lab.cli"]
        oracle = sys.modules["floquet_lab.oracle"]
        self._rebind_attr(cli, "_write_text", self._counter(cli._write_text, before=self._count_bytes))
        self._rebind_attr(cli, "_scan_row", self._counter(cli._scan_row, timed=self._add_row))
        self._rebind_attr(
            cli, "cmd_resonance_scan", self._counter(cli.cmd_resonance_scan, timed=self._add_scan)
        )
        self._rebind_attr(
            oracle.PeriodStepper,
            "__post_init__",
            self._counter(oracle.PeriodStepper.__post_init__, before=self._count_build),
        )

    def uninstall(self):
        for namespace, attr, original in reversed(self._patches):
            setattr(namespace, attr, original)
        self._patches = []

    @property
    def installed(self) -> int:
        return len(self._patches)

    # -- reports

    def self_times(self) -> tuple[Counter, dict]:
        """Per-name call counts and self time: a span's duration minus the
        part of its interval that the union of its children covers."""
        children = defaultdict(list)
        for sid, _name, start, end, parent, _job in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        calls = Counter()
        self_s = defaultdict(float)
        for sid, name, start, end, _parent, _job in self.spans:
            covered = 0.0
            cursor = start
            for c_start, c_end in sorted(children.get(sid, ())):
                lo, hi = max(c_start, cursor), min(c_end, end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            calls[name] += 1
            self_s[name] += (end - start) - covered
        return calls, self_s

    def metrics(self) -> dict:
        calls, self_s = self.self_times()
        out = {}
        for name in span_names():
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        segments = calls["oracle.PeriodStepper.segment"]
        generic = calls["oracle.propagate_generic"]
        out["drive_model.errors"] = sum(self.errors.values())
        out["oracle.steps"] = self.counts["oracle.steps"]
        out["oracle.stepper_builds"] = self.counts["oracle.stepper_builds"]
        out["oracle.segment_hit_ratio"] = 1.0 - generic / segments if segments else 0.0
        out["kam.iterations"] = self.counts["kam.iterations"]
        out["kam.aborts"] = self.counts["kam.aborts"]
        out["cli.bytes_written"] = self.counts["cli.bytes_written"]
        capacity = self.scan_wall_s * self.threads
        out["cli.pool_busy_ratio"] = self.row_busy_s / capacity if capacity else 0.0
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, job in self.spans:
                fh.write(
                    json.dumps(
                        {"id": sid, "name": name, "start": start, "end": end, "parent": parent, "job": job}
                    )
                    + "\n"
                )
