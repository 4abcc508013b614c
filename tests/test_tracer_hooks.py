"""The per-layer tracer in perfbench/ patches some tunesim methods by name.

This guard loads the tracer by path and checks that every name it patches
still resolves to a function on its class, so renaming one fails here rather
than only in a traced benchmark run.
"""

from __future__ import annotations

import importlib.util
import inspect
import json
import os
import sys

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")
BENCHMARK = os.path.join(os.path.dirname(__file__), os.pardir, "BENCHMARK.json")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up by name
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_patched_method_resolves_to_a_function_on_its_class():
    tracer = _load_tracer()
    assert tracer.METHODS
    targets, _ = tracer.tunesim_targets()
    for layer, (short, cls, attr) in tracer.METHODS.items():
        owner = getattr(importlib.import_module(f"tunesim.{short}"), cls)
        assert inspect.isfunction(vars(owner).get(attr)), f"{layer}: {cls}.{attr}"
        assert targets[layer] == (owner, attr)



def test_every_benchmark_layer_is_one_the_tracer_wraps():
    """A per_layer name is a traced layer and one of its measures: core.RungLadder.insert.s
    is the .s of layer core.RungLadder.insert."""
    with open(BENCHMARK, encoding="utf-8") as handle:
        names = [layer["name"] for layer in json.load(handle)["per_layer"]]
    targets, _ = _load_tracer().tunesim_targets()
    assert names
    assert [name for name in names if name.rpartition(".")[0] not in targets] == []
