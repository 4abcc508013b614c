"""Self-tests of the benchmark's tracer and percentile rule.

Run from the repository root: python3 -m pytest perfbench/test_tracer.py
"""

from __future__ import annotations

import os
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from tracer import METHODS, Tracer, percentile, tunesim_targets  # noqa: E402


class FakeClock:
    """A clock that moves only when the code under test says so."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def _fake_layers(clock):
    """outer spends 1 s itself and calls inner twice; inner spends 2 s each
    and calls leaf, which spends 0.5 s. A second module imports inner by name."""
    mod = types.ModuleType("fake")
    other = types.ModuleType("fake_user")

    def leaf():
        clock.advance(0.5)

    def inner():
        clock.advance(2.0)
        mod.leaf()
        return "inner"

    def outer():
        clock.advance(1.0)
        mod.inner()
        other.inner()
        return "outer"

    mod.leaf, mod.inner, mod.outer = leaf, inner, outer
    other.inner = inner
    targets = {f"fake.{name}": (mod, name) for name in ("leaf", "inner", "outer")}
    return mod, other, targets


def test_self_time_of_nested_calls():
    clock = FakeClock()
    mod, other, targets = _fake_layers(clock)
    with Tracer(targets, [mod, other], clock=clock, counters={}) as tracer:
        assert mod.outer() == "outer"
    flat = tracer.flat()
    assert flat["fake.outer.s"] == pytest.approx(6.0)
    assert flat["fake.outer.self_s"] == pytest.approx(1.0)
    assert flat["fake.inner.calls"] == 2  # one call through the by-name import
    assert flat["fake.inner.s"] == pytest.approx(5.0)
    assert flat["fake.inner.self_s"] == pytest.approx(4.0)
    assert flat["fake.leaf.self_s"] == pytest.approx(1.0)
    self_total = sum(v for k, v in flat.items() if k.endswith(".self_s"))
    assert self_total == pytest.approx(flat["fake.outer.s"])


def test_self_time_when_a_wrapped_call_raises():
    clock = FakeClock()
    mod, other, targets = _fake_layers(clock)

    def failing():
        clock.advance(3.0)
        mod.leaf()
        raise ValueError("boom")

    mod.failing = failing
    targets["fake.failing"] = (mod, "failing")
    with Tracer(targets, [mod], clock=clock, counters={}) as tracer:
        with pytest.raises(ValueError):
            mod.failing()
        mod.leaf()
    flat = tracer.flat()
    assert flat["fake.failing.self_s"] == pytest.approx(3.0)
    assert flat["fake.leaf.calls"] == 2
    assert flat["fake.leaf.self_s"] == pytest.approx(1.0)


def test_exit_restores_every_original_even_after_an_error():
    clock = FakeClock()
    mod, other, targets = _fake_layers(clock)
    before = (mod.leaf, mod.inner, mod.outer, other.inner)
    with pytest.raises(RuntimeError):
        with Tracer(targets, [mod, other], clock=clock, counters={}):
            assert mod.inner is not before[1] and other.inner is mod.inner
            raise RuntimeError("leave early")
    assert (mod.leaf, mod.inner, mod.outer, other.inner) == before


def _tunesim_references():
    """Every (namespace, attribute, object) that a traced run may patch."""
    targets, namespaces = tunesim_targets()
    refs = set()
    for owner, attr in targets.values():
        for space in [owner, *namespaces]:
            obj = vars(space).get(attr)
            if obj is not None:
                refs.add((id(space), attr, id(obj)))
    return targets, refs


def test_tunesim_tracer_restores_the_package():
    from tunesim import cli, experiment, ranking, scheduler
    from tunesim.core import RungLadder

    targets, before = _tunesim_references()
    assert set(METHODS) <= set(targets)
    with Tracer():
        # functions imported by name are patched where they are imported
        assert scheduler.is_stable is ranking.is_stable
        for patched in (scheduler.is_stable, experiment.simulate, cli.crossing_report,
                        cli.load, vars(RungLadder)["sorted_rung"]):
            assert hasattr(patched, "__wrapped__")
    _, after = _tunesim_references()
    assert after == before
    assert not hasattr(scheduler.is_stable, "__wrapped__")
    assert not hasattr(vars(RungLadder)["sorted_rung"], "__wrapped__")


def test_percentile_needs_ten_samples_beyond_it():
    assert percentile(range(1, 100), 0.9) is None  # 99 samples: 9 beyond p90
    assert percentile(range(1, 101), 0.9) == 90  # 100 samples: 10 beyond
    assert percentile(range(1, 1001), 0.9) == 900
    assert percentile(range(1, 21), 0.5) == 10
    assert percentile(range(1, 20), 0.5) is None
    assert percentile([], 0.5) is None
