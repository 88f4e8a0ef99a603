"""In-memory span tracing around the public functions of each ldscheme module.

Tracer.install() wraps every public function defined in the six layer
modules and rebinds the wrapper wherever an ldscheme namespace holds the
original (so `rare_event.minimize_action` and `cli.mc_probability`, which
were imported by name, are traced too).  A call made while the innermost
open span belongs to the same layer is not a new span, so
`perturbed_fenchel -> fenchel` or `minimize_action -> action` counts once.

Counters come from the objects the layers return (conjugate results,
minimizer results, estimate reports, trajectories) and from the model
callbacks of every model built by `kernel.affine_model`.  Spans stay in
memory until write_spans() is called after the traced pass.
"""

from __future__ import annotations

import csv
import dataclasses
import gzip
import importlib
import inspect
import math
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

LAYERS = ("kernel", "conjugate", "scheme", "action", "rare_event", "cli")
ROOT_LAYER = "bench"


class Span:
    __slots__ = ("id", "parent", "trace", "layer", "name", "start", "end", "child")

    def __init__(self, id_, parent, trace, layer, name, start):
        self.id = id_
        self.parent = parent
        self.trace = trace
        self.layer = layer
        self.name = name
        self.start = start
        self.end = start
        self.child = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.child


class Tracer:
    """Span recorder plus layer counters; install() / uninstall() patch the package."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.newton_iters: list[int] = []
        self.minimize_results: list[dict] = []
        self.trace_id = 0
        self._stack: list[Span] = []
        self._undo: list[tuple[object, str, object]] = []
        self._classes: dict = {}  # result types of the layers, filled by install()

    # -- spans -------------------------------------------------------------

    def _open(self, layer, name) -> Span:
        parent = self._stack[-1].id if self._stack else -1
        span = Span(len(self.spans), parent, self.trace_id, layer, name, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span):
        span.end = time.perf_counter()
        self._stack.pop()
        if self._stack:
            self._stack[-1].child += span.end - span.start

    @contextmanager
    def span(self, name, layer=ROOT_LAYER):
        """A span opened by the benchmark itself (a pass or one task)."""
        s = self._open(layer, name)
        try:
            yield s
        finally:
            self._close(s)

    def _inside(self, layer) -> bool:
        return any(s.layer == layer for s in self._stack)

    # -- patching ----------------------------------------------------------

    def _wrap(self, layer, name, fn, observe=None, transform=None):
        stack = self._stack

        def traced(*args, **kwargs):
            if stack and stack[-1].layer == layer:
                result = fn(*args, **kwargs)
                return transform(result) if transform else result
            span = self._open(layer, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if transform:
                result = transform(result)
            if observe:
                observe(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        return traced

    def install(self):
        """Wrap the public functions of every layer module and rebind them everywhere."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = {layer: importlib.import_module(f"ldscheme.{layer}") for layer in LAYERS}
        self._classes = {
            "conjugate": modules["conjugate"].ConjugateResult,
            "minimize": modules["action"].MinimizeResult,
            "estimate": modules["rare_event"].EstimateReport,
            "rate": modules["rare_event"].RateReport,
            "martingale": modules["rare_event"].MartingaleCheck,
            "ode": modules["rare_event"].OdeReport,
        }
        replacement = {}
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                observe = transform = None
                if layer == "kernel" and name == "affine_model":
                    transform = self._counted_model
                elif layer == "scheme" and name == "simulate":
                    observe = self._observe_simulate
                elif layer in ("conjugate", "action", "rare_event"):
                    observe = self._observe_result
                replacement[obj] = self._wrap(layer, name, obj, observe, transform)
        namespaces = [importlib.import_module("ldscheme"), *modules.values()]
        for ns in namespaces:
            for attr, val in list(vars(ns).items()):
                if inspect.isfunction(val) and val in replacement:
                    self._undo.append((ns, attr, val))
                    setattr(ns, attr, replacement[val])

    def uninstall(self):
        for ns, attr, val in reversed(self._undo):
            setattr(ns, attr, val)
        self._undo.clear()

    # -- counters ----------------------------------------------------------

    def _counter(self, key, fn):
        counts = self.counts

        def counted(*args):
            counts[key] += 1
            return fn(*args)

        return counted

    def _counted_model(self, model):
        hess = model.cgf_hess
        return dataclasses.replace(
            model,
            cgf=self._counter("kernel.cgf_calls", model.cgf),
            cgf_grad=self._counter("kernel.cgf_grad_calls", model.cgf_grad),
            cgf_hess=None if hess is None else self._counter("kernel.cgf_hess_calls", hess),
        )

    def _observe_simulate(self, traj):
        self.counts["scheme.simulate.steps"] += traj.n
        if self._inside("rare_event"):
            self.counts["rare_event.loop_steps"] += traj.n

    def _observe_result(self, result):
        c = self._classes
        if isinstance(result, c["conjugate"]):
            self.newton_iters.append(result.iterations)
            if result.status != "converged":
                self.counts["conjugate.not_converged"] += 1
        elif isinstance(result, c["minimize"]):
            halvings = sum(round(-math.log2(row[3])) for row in result.log if row[3] > 0.0)
            self.minimize_results.append(
                {
                    "iterations": result.iterations,
                    "converged": bool(result.converged),
                    "grad_norm": float(result.grad_norm),
                    "halvings": int(halvings),
                }
            )
        elif isinstance(result, c["estimate"]) or isinstance(result, c["martingale"]):
            self.counts["rare_event.report_steps"] += result.samples * result.n
        elif isinstance(result, c["rate"]):
            self.counts["rare_event.report_steps"] += sum(r.samples * r.n for r in result.estimates)
        elif isinstance(result, c["ode"]):
            self.counts["rare_event.report_steps"] += sum(r["samples"] * r["n"] for r in result.rows)

    # -- results -----------------------------------------------------------

    def layer_times(self):
        """{(layer, name): [calls, total_s, self_s]} and {layer: self_s}."""
        by_fn = defaultdict(lambda: [0, 0.0, 0.0])
        by_layer = defaultdict(float)
        for s in self.spans:
            rec = by_fn[(s.layer, s.name)]
            rec[0] += 1
            rec[1] += s.duration
            rec[2] += s.self_time
            by_layer[s.layer] += s.self_time
        return by_fn, by_layer

    def layer_metrics(self) -> dict:
        """The per-layer metrics of one traced pass, keyed as in BENCHMARK.json."""
        by_fn, by_layer = self.layer_times()
        conj_calls = sum(rec[0] for (layer, _), rec in by_fn.items() if layer == "conjugate")
        conj_self = by_layer["conjugate"]
        mins = self.minimize_results
        sim_calls, sim_total, _ = by_fn[("scheme", "simulate")]
        batched_steps = self.counts["rare_event.report_steps"] - self.counts["rare_event.loop_steps"]
        re_self = by_layer["rare_event"]
        return {
            "conjugate.calls": conj_calls,
            "conjugate.self_s": conj_self,
            "conjugate.us_per_call": 1e6 * conj_self / conj_calls if conj_calls else 0.0,
            "conjugate.newton_iters": int(sum(self.newton_iters)),
            "conjugate.newton_iters_p99": float(np.percentile(self.newton_iters, 99)) if self.newton_iters else 0.0,
            "conjugate.not_converged": self.counts["conjugate.not_converged"],
            "kernel.self_s": by_layer["kernel"],
            "kernel.cgf_calls": self.counts["kernel.cgf_calls"],
            "kernel.cgf_grad_calls": self.counts["kernel.cgf_grad_calls"],
            "kernel.cgf_hess_calls": self.counts["kernel.cgf_hess_calls"],
            "action.self_s": by_layer["action"],
            "action.minimize.calls": len(mins),
            "action.minimize.self_s": by_fn[("action", "minimize_action")][2],
            "action.minimize.iters": sum(r["iterations"] for r in mins),
            "action.minimize.line_search_halvings": sum(r["halvings"] for r in mins),
            "action.minimize.converged_ratio": sum(r["converged"] for r in mins) / len(mins) if mins else 0.0,
            "action.minimize.final_grad_norm": max((r["grad_norm"] for r in mins), default=0.0),
            "action.limit_ode.self_s": by_fn[("action", "limit_ode")][2],
            "rare_event.self_s": re_self,
            "rare_event.replica_steps": batched_steps,
            "rare_event.replica_steps_per_s": batched_steps / re_self if re_self > 0.0 else 0.0,
            "scheme.self_s": by_layer["scheme"],
            "scheme.simulate.calls": sim_calls,
            "scheme.simulate.steps_per_s": self.counts["scheme.simulate.steps"] / sim_total if sim_total > 0.0 else 0.0,
            "cli.self_s": by_layer["cli"],
            "bench.self_s": by_layer[ROOT_LAYER],
            "trace.spans": len(self.spans),
        }

    def write_spans(self, path):
        """All spans as gzip'd CSV, times in microseconds from the first span."""
        t0 = self.spans[0].start if self.spans else 0.0
        with gzip.open(path, "wt", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "parent", "trace", "layer", "name", "start_us", "end_us"])
            for s in self.spans:
                writer.writerow(
                    [s.id, s.parent, s.trace, s.layer, s.name,
                     round(1e6 * (s.start - t0), 3), round(1e6 * (s.end - t0), 3)]
                )
