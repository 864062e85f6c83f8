"""Spans and counters around quasikit's public functions, installed from outside.

``Tracer.install`` replaces each traced function wherever the program looks
it up: the module attribute, every other quasikit module that took the name
with ``from ... import``, and class attributes for methods.  The json calls
made from ``quasikit.cli`` are traced through a stand-in ``json`` module in
that namespace only.  ``uninstall`` puts every original back.

A span is (id, name, start, end, parent id, command id); spans stay in memory
until ``aggregate`` folds them into per-function self time and call counts.
Self time is a span's duration minus the durations of its direct children;
calls nest strictly in this single-threaded program, so children never
overlap.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
import types
from collections import defaultdict

# (metric prefix, module, qualified attribute)
TARGETS = [
    ("cli.dispatch", "quasikit.cli", "dispatch"),
    ("cli.emit_plotdata", "quasikit.cli", "emit_plotdata"),
    ("manifest.add_input", "quasikit.manifest", "RunManifest.add_input"),
    ("sequences.SequenceSpec.from_json", "quasikit.sequences", "SequenceSpec.from_json"),
    ("sequences.make_sequence", "quasikit.sequences", "make_sequence"),
    ("sequences.convex_regularize", "quasikit.sequences", "convex_regularize"),
    ("sequences.is_log_convex", "quasikit.sequences", "is_log_convex"),
    ("sequences.RegularizedSequence.to_json", "quasikit.sequences", "RegularizedSequence.to_json"),
    ("qa.analyze", "quasikit.qa", "analyze"),
    ("qa.beta_sequence", "quasikit.qa", "beta_sequence"),
    ("qa.root_series", "quasikit.qa", "root_series"),
    ("qa.ratio_series", "quasikit.qa", "ratio_series"),
    ("qa.liminf_check", "quasikit.qa", "liminf_check"),
    ("qa.chain_holds", "quasikit.qa", "chain_holds"),
    ("qa.QAReport.to_json", "quasikit.qa", "QAReport.to_json"),
    ("series.diagnose_series", "quasikit.series", "diagnose_series"),
    ("series.SeriesReport.to_json", "quasikit.series", "SeriesReport.to_json"),
    ("bang.BangVector.from_json", "quasikit.bang", "BangVector.from_json"),
    ("bang.bang_norm", "quasikit.bang", "bang_norm"),
    ("bang.bang_distance", "quasikit.bang", "bang_distance"),
    ("jets.FunctionSpec.from_json", "quasikit.jets", "FunctionSpec.from_json"),
    ("jets.jet_eval", "quasikit.jets", "jet_eval"),
    ("jets.jet_derivatives", "quasikit.jets", "jet_derivatives"),
    ("jets.derivative_envelope", "quasikit.jets", "derivative_envelope"),
    ("jets.monotonicity_check", "quasikit.jets", "monotonicity_check"),
    ("jets.zero_spacing_experiment", "quasikit.jets", "zero_spacing_experiment"),
    ("gontcharoff.build", "quasikit.gontcharoff", "build"),
    ("gontcharoff.GontcharoffPoly.eval", "quasikit.gontcharoff", "GontcharoffPoly.eval"),
    ("gontcharoff.GontcharoffPoly.eval_magnitude", "quasikit.gontcharoff", "GontcharoffPoly.eval_magnitude"),
    ("gontcharoff.GontcharoffPoly.derivative", "quasikit.gontcharoff", "GontcharoffPoly.derivative"),
    ("gontcharoff.swap_identity_residual", "quasikit.gontcharoff", "swap_identity_residual"),
    ("gontcharoff.decomposition_residual", "quasikit.gontcharoff", "decomposition_residual"),
    ("gontcharoff.gontcharoff_bound", "quasikit.gontcharoff", "gontcharoff_bound"),
    ("weights.make_weight", "quasikit.weights", "make_weight"),
    ("weights.m_eval", "quasikit.weights", "m_eval"),
    ("weights.weight_inf", "quasikit.weights", "weight_inf"),
    ("weights.omega", "quasikit.weights", "omega"),
    ("weights.weight_inf_integer", "quasikit.weights", "weight_inf_integer"),
    ("weights.shift_bound_check", "quasikit.weights", "shift_bound_check"),
    ("weights.algebra_check", "quasikit.weights", "algebra_check"),
]
JSON_TARGETS = [("cli.json_load", "load"), ("cli.json_dumps", "dumps")]

SPAN_NAMES = [name for name, _, _ in TARGETS] + [name for name, _ in JSON_TARGETS]
COUNTERS = [
    "cli.report_bytes",
    "cli.csv_bytes",
    "sequences.terms",
    "sequences.principal_count",
    "series.terms",
    "jets.jet_coeffs",
    "jets.bisection_evals",
    "gontcharoff.sweep_samples",
]

def _bind(args, kwargs, index: int, name: str):
    """The argument at ``index`` or passed by ``name``."""
    return args[index] if len(args) > index else kwargs[name]


def _count(tracer: "Tracer", name: str, args, kwargs, result, parent: str | None) -> None:
    """Counters taken at the traced call's boundary."""
    c = tracer.counters
    if name == "cli.json_dumps":
        c["cli.report_bytes"] += len(result) + 1  # the CLI appends a newline
    elif name == "cli.emit_plotdata":
        c["cli.csv_bytes"] += os.path.getsize(_bind(args, kwargs, 1, "path"))
    elif name == "sequences.make_sequence":
        c["sequences.terms"] += result.length
    elif name == "sequences.convex_regularize":
        c["sequences.principal_count"] += len(result.principal)
    elif name == "series.diagnose_series":
        c["series.terms"] += len(result.terms)
    elif name == "bang.bang_norm":
        c["bang.reduction_bound"] += result.reduction_bound
        c["bang.horizon"] += _bind(args, kwargs, 0, "x").horizon
    elif name == "jets.jet_eval":
        c["jets.jet_coeffs"] += _bind(args, kwargs, 2, "order") + 1
        if parent == "jets.zero_spacing_experiment":
            c["jets.bisection_evals"] += 1
    elif name == "gontcharoff.swap_identity_residual" and parent == "cli.dispatch":
        c["gontcharoff.sweep_samples"] += 1


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counters: defaultdict[str, float] = defaultdict(float)
        self.command = -1
        self._stack: list[tuple[int, str]] = []
        self._next_id = 0
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else (None, None)
            stack.append((sid, name))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, parent[0], self.command))
            _count(self, name, args, kwargs, result, parent[1])
            return result

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "quasikit" or n.startswith("quasikit.")]
        for name, module_name, qualname in TARGETS:
            owner = sys.modules[module_name]
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            if path:  # a method or classmethod on a class every caller shares
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    self._set(owner, attr, classmethod(self.wrap(name, raw.__func__)))
                else:
                    self._set(owner, attr, self.wrap(name, raw))
                continue
            original = getattr(owner, attr)
            wrapped = self.wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, wrapped)
        cli = sys.modules["quasikit.cli"]
        proxy = types.ModuleType("json")
        proxy.__dict__.update(vars(json))
        for name, attr in JSON_TARGETS:
            setattr(proxy, attr, self.wrap(name, getattr(json, attr)))
        self._set(cli, "json", proxy)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def aggregate(self) -> dict:
        """Per-name self time and calls, counters, and the per-command total
        of outermost spans."""
        child_time: defaultdict[int, float] = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        self_s: defaultdict[str, float] = defaultdict(float)
        calls: defaultdict[str, int] = defaultdict(int)
        outer = 0.0
        for sid, name, start, end, parent, _ in self.spans:
            self_s[name] += (end - start) - child_time[sid]
            calls[name] += 1
            if parent is None:
                outer += end - start
        return {
            "self_s": dict(self_s),
            "calls": dict(calls),
            "counters": dict(self.counters),
            "outer_s": outer,
        }

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            for sid, name, start, end, parent, command in self.spans:
                handle.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                         "parent": parent, "command": command}) + "\n")


def layer_metrics(summary: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from one aggregated traced pass."""
    out: dict[str, tuple[float, str]] = {}
    for name in SPAN_NAMES:
        out[f"{name}.self_s"] = (summary["self_s"].get(name, 0.0), "s")
        out[f"{name}.calls"] = (float(summary["calls"].get(name, 0)), "count")
    counters = summary["counters"]
    for name in COUNTERS:
        out[name] = (float(counters.get(name, 0.0)), "bytes" if name.endswith("_bytes") else "count")
    horizon = counters.get("bang.horizon", 0.0)
    out["bang.reduction_ratio"] = (counters.get("bang.reduction_bound", 0.0) / horizon if horizon else 0.0, "ratio")
    return out
