"""Span recorder for the traced run, and the per-layer metrics it yields.

`SpanRecorder.install` replaces each traced femtonet function with a
wrapper at every module attribute that holds it (so both
`femtonet.spectrum.build_plan` and the `build_plan` that
`femtonet.experiments` imported are covered).  A span is kept in memory as
(name, start, end, parent index, op id, attrs) and the spans are written
out at exit.  Self time is a span's duration minus the time its child
spans cover; the program is single-threaded, so children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import defaultdict

RADIO_SCHEMES = ("dedicated", "shared", "static-reuse", "dynamic-reuse")
CAC_SCHEMES = ("proposed", "non-prioritized", "aqos", "hard-qos", "guard")
FIG4_COUNTS = (60, 100, 300, 600, 1000)
DYNAMIC_BRANCHES = ("0", "1", "2", "2-independent", "3", "shrink")
DYNAMIC_EVENTS = ("shrink", "shrink-failed", "repair-exhausted")
KERNEL_BACKENDS = ("pure-python", "compiled")
KERNEL_CHAINS = ("erlang-2", "adaptive-156-state", "mbs-3-stream")
VIDEO_FUNCS = ("allocate_popularity", "technique_two_level", "technique_multi_level")


def _plan_attrs(args, kwargs, plan):
    topo = args[1] if len(args) > 1 else kwargs["topo"]
    events = defaultdict(int)
    for event in plan.events:
        events[event[0]] += 1
    return {"scheme": plan.scheme, "n": len(topo.femtocells),
            "branches": dict(plan.branch_counts), "events": dict(events)}


# (span name, module, function, attrs(args, kwargs, result) or None)
TRACED = (
    ("topology.place_femtocells", "topology", "place_femtocells", None),
    ("spectrum.build_plan", "spectrum", "build_plan", _plan_attrs),
    ("radio.sir", "radio", "sir", lambda a, k, r: {"sources": len(r.per_source)}),
    ("neighborlist.scan_from_geometry", "neighborlist", "scan_from_geometry",
     lambda a, k, r: {"faps": len(r.levels_dbm)}),
    ("neighborlist.build_list_from_femto", "neighborlist", "build_list_from_femto",
     lambda a, k, r: {"n_f": r.n_f, "m_hidden": r.m_hidden}),
    ("queueing.solve_ch6", "queueing", "solve_ch6",
     lambda a, k, r: {"scheme": r.extra["scheme"], "iterations": r.iterations}),
    ("queueing.solve_two_tier", "queueing", "solve_two_tier",
     lambda a, k, r: {"iterations": r.iterations}),
    ("queueing.solve_ch7", "queueing", "solve_ch7", None),
    ("admission.rebalance", "admission", "rebalance", None),
    *((f"videoalloc.{f}", "videoalloc", f, None) for f in VIDEO_FUNCS),
    ("des.simulate_des", "des", "simulate_des",
     lambda a, k, r: {"calls": sum(s["seen"] for s in r.per_stream)}),
    ("experiments.run_experiment", "experiments", "run_experiment", None),
    ("experiments.result_to_csv", "experiments", "result_to_csv", None),
    # resolving a scenario: from a file, from a preset, or by overrides
    ("scenario.resolve", "scenario", "load_scenario", None),
    ("scenario.resolve", "scenario", "scenario_from_preset", None),
    ("scenario.resolve", "scenario", "apply_overrides", None),
)


class SpanRecorder:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op, attrs]
        self._stack: list[int] = []
        self.op_id = None

    @contextlib.contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index, None)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op_id, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int, attrs) -> None:
        self.spans[index][2] = time.perf_counter()
        self.spans[index][5] = attrs
        self._stack.pop()

    def wrap(self, name: str, fn, attrs_of):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index, attrs_of(args, kwargs, result)
                            if attrs_of and result is not None else None)
            return result

        return traced

    def install(self) -> None:
        """Patch every femtonet module attribute bound to a traced function."""
        modules = [m for n, m in sys.modules.items()
                   if n == "femtonet" or n.startswith("femtonet.")]
        for name, module, func, attrs_of in TRACED:
            original = getattr(sys.modules[f"femtonet.{module}"], func)
            wrapper = self.wrap(name, original, attrs_of)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans) -> list[float]:
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent is not None:
            child[parent] += end - start
    return [s[2] - s[1] - c for s, c in zip(spans, child)]


def per_layer(spans, ci_misses: int, ci_checks: int, kernel: dict) -> dict[str, float]:
    """Every per-layer metric, named after the femtonet module it measures.

    A metric of a module the workload never calls reads 0."""
    selfs = self_times(spans)
    calls = defaultdict(int)
    busy = defaultdict(float)
    sums = defaultdict(float)
    plan_ms = defaultdict(list)
    for span, own in zip(spans, selfs):
        name, start, end, _, _, attrs = span
        attrs = attrs or {}
        key = name
        if name == "spectrum.build_plan" and attrs:
            key = f"{name}.{attrs['scheme']}"
            plan_ms[f"{key}.n{attrs['n']}"].append(1e3 * (end - start))
            if attrs["scheme"] == "dynamic-reuse":
                for branch, n in attrs["branches"].items():
                    sums[f"spectrum.dynamic.branch.{branch}"] += n
                for event, n in attrs["events"].items():
                    sums[f"spectrum.dynamic.events.{event}"] += n
        elif name == "queueing.solve_ch6" and attrs:
            key = f"{name}.{attrs['scheme']}"
        calls[key] += 1
        busy[key] += own
        for field, value in attrs.items():
            if isinstance(value, (int, float)):
                sums[f"{key}.{field}"] += value

    m: dict[str, float] = {}

    def calls_self(key):
        m[f"{key}.calls"] = calls[key]
        m[f"{key}.self_s"] = busy[key]

    def mean(key, field):
        return sums[f"{key}.{field}"] / calls[key] if calls[key] else 0.0

    calls_self("topology.place_femtocells")
    for scheme in RADIO_SCHEMES:
        calls_self(f"spectrum.build_plan.{scheme}")
    for scheme in ("static-reuse", "dynamic-reuse"):
        for n in FIG4_COUNTS:
            samples = plan_ms[f"spectrum.build_plan.{scheme}.n{n}"]
            m[f"spectrum.build_plan.{scheme}.n{n}.ms"] = (
                sum(samples) / len(samples) if samples else 0.0)
    for branch in DYNAMIC_BRANCHES:
        m[f"spectrum.dynamic.branch.{branch}"] = sums[f"spectrum.dynamic.branch.{branch}"]
    for event in DYNAMIC_EVENTS:
        m[f"spectrum.dynamic.events.{event}"] = sums[f"spectrum.dynamic.events.{event}"]
    calls_self("radio.sir")
    m["radio.sir.sources_per_call"] = mean("radio.sir", "sources")
    calls_self("neighborlist.scan_from_geometry")
    faps = sums["neighborlist.scan_from_geometry.faps"]
    m["neighborlist.scan_from_geometry.us_per_fap"] = (
        1e6 * busy["neighborlist.scan_from_geometry"] / faps if faps else 0.0)
    calls_self("neighborlist.build_list_from_femto")
    m["neighborlist.list.n_f_mean"] = mean("neighborlist.build_list_from_femto", "n_f")
    m["neighborlist.list.m_hidden_mean"] = mean("neighborlist.build_list_from_femto",
                                                "m_hidden")
    for scheme in CAC_SCHEMES:
        key = f"queueing.solve_ch6.{scheme}"
        calls_self(key)
        m[f"{key}.iterations_mean"] = mean(key, "iterations")
    calls_self("queueing.solve_two_tier")
    m["queueing.solve_two_tier.iterations_mean"] = mean("queueing.solve_two_tier",
                                                        "iterations")
    calls_self("queueing.solve_ch7")
    calls_self("admission.rebalance")
    for func in VIDEO_FUNCS:
        calls_self(f"videoalloc.{func}")
    calls_self("des.simulate_des")
    des_busy = busy["des.simulate_des"]
    m["des.sim_calls_per_s"] = sums["des.simulate_des.calls"] / des_busy if des_busy else 0.0
    m["des.ci_miss_frac"] = ci_misses / ci_checks if ci_checks else 0.0
    for backend in KERNEL_BACKENDS:
        for chain in KERNEL_CHAINS:
            rate = kernel.get(backend, {}).get(chain, 0.0)
            m[f"des.kernel.{backend}.{chain}.mcalls_per_s"] = rate
    m["experiments.run_experiment.self_s"] = busy["experiments.run_experiment"]
    m["experiments.result_to_csv.self_s"] = busy["experiments.result_to_csv"]
    m["scenario.resolve.self_s"] = busy["scenario.resolve"]
    return m


def module_shares(spans, phase: str) -> dict[str, float]:
    """Self seconds per femtonet module (plus `bench` for the benchmark's own
    op glue), over the spans of the set-up (`phase="setup"`) or the ops."""
    selfs = self_times(spans)
    out = defaultdict(float)
    for span, own in zip(spans, selfs):
        in_ops = span[4] is not None
        if in_ops != (phase == "ops"):
            continue
        module = "bench" if span[0] == "op" else span[0].split(".")[0]
        out[module] += own
    return dict(out)
