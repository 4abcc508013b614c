"""Outside-in per-layer tracing of the tunesim package.

The tracer wraps the public functions of each tunesim module, plus a few
named hot methods, from outside the package: nothing under src/ is edited.
A function imported by name into another module (``from .ranking import
is_stable``) is a second reference to the same object, so every module
attribute that is the original object is patched, not only the one in the
defining module. Leaving the context restores every original.

Self time of a call is its duration minus the durations of the wrapped calls
made inside it, so the self times of all layers sum to the time of the
outermost wrapped calls.
"""

from __future__ import annotations

import importlib
import inspect
import math
import os
import time
from dataclasses import dataclass

MODULES = ("benchgen", "core", "ranking", "scheduler", "simulator", "experiment", "cli")

# layer name -> (module, class, method); methods are patched on the class
METHODS = {
    "core.RungLadder.sorted_rung": ("core", "RungLadder", "sorted_rung"),
    "core.RungLadder.insert": ("core", "RungLadder", "insert"),
    "scheduler.get_job": ("scheduler", "Scheduler", "get_job"),
    "scheduler.report": ("scheduler", "Scheduler", "report"),
    "simulator.metric": ("simulator", "LearningCurveTable", "metric"),
    "simulator.incremental_cost": ("simulator", "LearningCurveTable", "incremental_cost"),
}


def _count_sorted_rung(args, result):
    return {"entries": len(result)}


def _count_is_stable(args, result):
    _, top, below = args
    return {"entries": len(top) + len(below), "unstable": 0 if result else 1}


def _count_get_job(args, result):
    return {"none": 1 if result is None else 0}


def _count_write_trace(args, result):
    return {"bytes": os.path.getsize(args[1])}


# layer name -> function(args, result) -> counter increments, read after the call
COUNTERS = {
    "core.RungLadder.sorted_rung": _count_sorted_rung,
    "ranking.is_stable": _count_is_stable,
    "scheduler.get_job": _count_get_job,
    "simulator.write_trace": _count_write_trace,
}


@dataclass
class LayerStats:
    calls: int = 0
    s: float = 0.0  # total time, children included
    self_s: float = 0.0  # total time minus wrapped children


class Tracer:
    """Context manager that times every wrapped call while it is active.

    ``targets`` maps a layer name to a (namespace, attribute) pair naming the
    defining location of a function; ``namespaces`` lists every object whose
    attributes may hold further references to it. With no arguments the
    tunesim package is traced as described in the module docstring. The
    duration of every call is kept for the layers named in ``sampled``.
    """

    def __init__(
        self,
        targets=None,
        namespaces=None,
        clock=time.perf_counter,
        counters=None,
        sampled=(),
    ):
        if targets is None:
            targets, namespaces = tunesim_targets()
        self.targets = targets
        self.namespaces = list(namespaces or [])
        self.counters = COUNTERS if counters is None else counters
        self.clock = clock
        self.stats: dict[str, LayerStats] = {}
        self.counts: dict[str, dict[str, int]] = {}
        self.samples: dict[str, list[float]] = {layer: [] for layer in sampled}
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        try:
            for layer, (owner, attr) in self.targets.items():
                original = vars(owner)[attr]
                wrapper = self._wrap(layer, original)
                for space in [owner] + [s for s in self.namespaces if s is not owner]:
                    if vars(space).get(attr) is original:
                        self._patches.append((space, attr, original))
                        setattr(space, attr, wrapper)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._patches:
            space, attr, original = self._patches.pop()
            setattr(space, attr, original)

    def _wrap(self, layer: str, fn):
        stats = self.stats.setdefault(layer, LayerStats())
        counter = self.counters.get(layer)
        counts = self.counts.setdefault(layer, {})
        samples = self.samples.get(layer)
        stack = self._stack
        clock = self.clock

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                stats.calls += 1
                stats.s += elapsed
                stats.self_s += elapsed - children
                if stack:
                    stack[-1] += elapsed
                if samples is not None:
                    samples.append(elapsed)
            if counter is not None:
                for key, value in counter(args, result).items():
                    counts[key] = counts.get(key, 0) + value
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", layer)
        return traced

    def flat(self) -> dict[str, float]:
        """Every statistic as ``<layer>.<stat>``, counters included."""
        out: dict[str, float] = {}
        for layer, st in self.stats.items():
            out[f"{layer}.calls"] = st.calls
            out[f"{layer}.s"] = st.s
            out[f"{layer}.self_s"] = st.self_s
            for key, value in self.counts[layer].items():
                out[f"{layer}.{key}"] = value
        return out


def tunesim_targets():
    """Public functions of every tunesim module, plus the METHODS hot spots."""
    package = importlib.import_module("tunesim")
    modules = {name: importlib.import_module(f"tunesim.{name}") for name in MODULES}
    targets = {}
    for short, module in modules.items():
        for attr, obj in vars(module).items():
            if (
                inspect.isfunction(obj)
                and not attr.startswith("_")
                and obj.__module__ == module.__name__
            ):
                targets[f"{short}.{attr}"] = (module, attr)
    for layer, (short, cls, attr) in METHODS.items():
        targets[layer] = (getattr(modules[short], cls), attr)
    return targets, [package, *modules.values()]


def percentile(samples, q: float):
    """The q-quantile (0 < q < 1) by the nearest-rank rule, or None when
    fewer than ten samples lie beyond it."""
    ordered = sorted(samples)
    rank = math.ceil(round(q * len(ordered), 9))  # 1-based
    if len(ordered) - rank < 10:
        return None
    return ordered[max(rank, 1) - 1]
