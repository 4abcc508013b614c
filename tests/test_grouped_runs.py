"""Grouped simulation: run_cells simulates the pasha and no-increase cells of
one seed pair in one event loop until their growth decisions part. It must
give what one simulate call per cell gives: the same cells, the same trace
bytes, the same error and the same trace files on disk after it."""

from __future__ import annotations

import dataclasses
import os
import tempfile
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tunesim import (
    CurveModel,
    ExperimentSpec,
    LearningCurveTable,
    MethodSpec,
    ResourceSpec,
    SchedulerConfig,
    TunesimError,
    UsageError,
    generate,
    run_cells,
    simulate,
    write_trace,
)
from tunesim import experiment
from tunesim.experiment import CellResult, _trace_name
from tunesim.scheduler import Scheduler

from util import TOP_CHURN

RESOURCES = ResourceSpec(1, 3, 27)

# (method token, pair_below_cap); rrr's tight threshold makes it grow, and it
# refuses the negated metrics of a minimize table
POOL = tuple(
    (token, below)
    for token in ("pasha:soft:0.025", "pasha:soft-sigma:1", "pasha:rbo:p=0.9,t=0.5",
                  "pasha:direct", "pasha:always-unstable", "pasha:rrr:p=0.9,t=0.01")
    for below in (False, True)
) + (("no-increase", False), ("asha", False), ("random", False))

# default: pasha never grows; churn: its checks fail; minimize: churn negated,
# which rrr refuses; short: 9 units, under pasha's and asha's ceiling of 27
TABLE_KINDS = ("default", "churn", "minimize", "short")


def method(token: str, below: bool) -> MethodSpec:
    spec = MethodSpec.parse(token)
    return dataclasses.replace(spec, name=token + "@below", pair_below_cap=True) if below else spec


def table(kind: str, n: int, seed: int) -> LearningCurveTable:
    if kind == "short":
        return generate(n, 9, CurveModel(), seed)
    made = generate(n, 27, CurveModel() if kind == "default" else TOP_CHURN, seed)
    if kind != "minimize":
        return made
    return LearningCurveTable(made.ids, -made.metrics, made.costs, -made.finals, flipped=True)


def cell_config(spec: ExperimentSpec, m: MethodSpec, ss: int) -> SchedulerConfig:
    return SchedulerConfig(
        resources=spec.resources, num_configs=spec.num_configs, mode=m.mode,
        criterion=m.criterion, seed=ss, pair_below_cap=m.pair_below_cap,
        random_draws=m.random_draws,
    )


def run_each(spec, tables, traces_dir):
    """run_cells as one simulate call per cell, in its order, with its naming."""
    cells = []
    for m in spec.methods:
        for ss in spec.scheduler_seeds:
            for bs in spec.benchmark_seeds:
                t = tables[bs]
                try:
                    result = simulate(cell_config(spec, m, ss), t, spec.workers,
                                      collect_trace=traces_dir is not None)
                except TunesimError as exc:
                    raise type(exc)(
                        f"cell (method {m.name!r}, scheduler seed {ss}, "
                        f"benchmark seed {bs}): {exc}"
                    ) from exc
                if traces_dir is not None:
                    write_trace(result.trace, os.path.join(traces_dir, _trace_name(m.name, ss, bs)))
                cells.append(CellResult(
                    m.name, ss, bs, t.display_metric(result.chosen_metric_full),
                    result.wall_clock, result.max_resources, result.units_consumed,
                    result.jobs_executed,
                ))
    return cells


def outcome(run, spec, tables, traces_dir):
    """The cells or the error, and every trace file's bytes."""
    try:
        result = run(spec, tables, traces_dir)
    except TunesimError as exc:
        result = type(exc).__name__, str(exc)
    files = {}
    if traces_dir is not None:
        for name in sorted(os.listdir(traces_dir)):
            with open(os.path.join(traces_dir, name), "rb") as handle:
                files[name] = handle.read()
    return result, files


def parts(config, other, t, events) -> bool:
    """Whether other's scheduler, fed config's run, raises or ever holds
    another cap than config's after a report; or other's ceiling exceeds the
    table's units."""
    if Scheduler(other, t.config_ids()).ceiling > t.resource_units:
        return True
    own, mine = Scheduler(config, t.config_ids()), Scheduler(other, t.config_ids())
    pending = {}
    for ev in events:
        if ev.kind == "assign":
            job = own.get_job()
            assert mine.get_job() == job  # the caps agreed so far
            pending[job.config, job.rung] = job
            continue
        job = pending.pop((ev.config, ev.rung))
        own.report(job, ev.metric)
        try:
            mine.report(job, ev.metric)
        except TunesimError:
            return True
        if mine.cap != own.cap:
            return True
    return False


@st.composite
def grids(draw):
    picks = draw(st.lists(st.sampled_from(POOL), min_size=1, max_size=6, unique=True))
    n = draw(st.integers(12, 40))
    spec = ExperimentSpec(
        methods=tuple(method(*p) for p in picks),
        resources=RESOURCES,
        num_configs=n,
        workers=draw(st.integers(1, 4)),
        scheduler_seeds=tuple(draw(st.lists(st.integers(0, 20), min_size=1, max_size=2,
                                            unique=True))),
        benchmark_seeds=tuple(draw(st.lists(st.integers(0, 20), min_size=1, max_size=2,
                                            unique=True))),
    )
    kind = draw(st.sampled_from(TABLE_KINDS))
    return spec, {bs: table(kind, n, bs) for bs in spec.benchmark_seeds}


def grid(picks, kind, n=30, workers=2, seeds=(0, 1), bench_seeds=(0,)):
    spec = ExperimentSpec(
        methods=tuple(method(*p) for p in picks), resources=RESOURCES, num_configs=n,
        workers=workers, scheduler_seeds=seeds, benchmark_seeds=bench_seeds,
    )
    return spec, {bs: table(kind, n, bs) for bs in bench_seeds}


SOFT = ("pasha:soft:0.025", False)
SIGMA = ("pasha:soft-sigma:1", False)
RRR = ("pasha:rrr:p=0.9,t=0.01", False)
ALWAYS = ("pasha:always-unstable", False)
NO_INCREASE = ("no-increase", False)


class TestRunCellsMatchesOneSimulatePerCell:
    @settings(max_examples=60, deadline=None)
    @given(case=grids())
    # pasha agrees with no-increase, and the cells that follow it copy its trace
    @example(case=grid([SOFT, SIGMA, NO_INCREASE, ("asha", False)], "default"))
    # members part from a growing leader and from each other
    @example(case=grid([ALWAYS, SOFT, ("pasha:soft:0.025", True), NO_INCREASE], "churn"))
    # a member's check raises; its own cell, later, is the one named
    @example(case=grid([NO_INCREASE, SOFT, RRR], "minimize"))
    # pasha's ceiling is over the table's units: no-increase leads alone
    @example(case=grid([NO_INCREASE, SOFT], "short"))
    def test_cells_traces_and_errors_are_equal(self, case):
        spec, tables = case
        with tempfile.TemporaryDirectory() as grouped, tempfile.TemporaryDirectory() as each:
            assert outcome(run_cells, spec, tables, grouped) == outcome(
                run_each, spec, tables, each)
        assert outcome(run_cells, spec, tables, None) == outcome(run_each, spec, tables, None)

    def test_followers_are_not_simulated(self):
        """On the default table pasha never grows, so each seed pair's pasha
        and no-increase cells are one simulation."""
        spec, tables = grid([SOFT, SIGMA, NO_INCREASE, ("asha", False)], "default")
        with mock.patch.object(experiment, "simulate", wraps=simulate) as counted:
            run_cells(spec, tables)
        assert counted.call_count == 2 * len(spec.scheduler_seeds)

    def test_methods_that_would_share_trace_files_are_refused(self):
        """Method names "p:q" and "p_q" map to the same trace file names. With
        traces_dir set, run_cells refuses them, naming both, before any cell
        runs or any trace file is written; without it both run."""
        methods = (
            dataclasses.replace(MethodSpec.parse("pasha:soft:0.025"), name="p:q"),
            MethodSpec("p_q", mode="asha"),
        )
        spec = ExperimentSpec(
            methods=methods, resources=RESOURCES, num_configs=20, scheduler_seeds=(0, 1)
        )
        tables = {0: table("default", 20, 0)}
        with tempfile.TemporaryDirectory() as parent:
            with mock.patch.object(experiment, "simulate", wraps=simulate) as counted:
                with pytest.raises(
                    UsageError, match="^methods 'p:q' and 'p_q' write the same trace files$"
                ):
                    run_cells(spec, tables, os.path.join(parent, "traces"))
            assert counted.call_count == 0
            assert os.listdir(parent) == []
        assert [c.method for c in run_cells(spec, tables)] == ["p:q", "p:q", "p_q", "p_q"]


POOLED = [p for p in POOL if p[0].startswith("pasha") or p[0] == "no-increase"]


class TestSimulateSame:
    @settings(max_examples=40, deadline=None)
    @given(
        picks=st.lists(st.sampled_from(POOLED), min_size=1, max_size=6, unique=True),
        kind=st.sampled_from(TABLE_KINDS),
        n=st.integers(12, 40),
        seed=st.integers(0, 20),
        workers=st.integers(1, 4),
    )
    @example(picks=[NO_INCREASE, SOFT, SIGMA], kind="short", n=20, seed=0, workers=2)
    @example(picks=[NO_INCREASE, SOFT, RRR], kind="minimize", n=30, seed=0, workers=2)
    @example(picks=[ALWAYS, SOFT, NO_INCREASE], kind="churn", n=30, seed=0, workers=2)
    def test_same_lists_exactly_the_members_that_never_parted(
        self, picks, kind, n, seed, workers
    ):
        spec, tables = grid(picks, kind, n=n, workers=workers, seeds=(seed,))
        config, *also = [cell_config(spec, m, seed) for m in spec.methods]
        t = tables[0]
        try:
            alone = simulate(config, t, workers, collect_trace=True)
        except TunesimError as exc:
            with pytest.raises(type(exc), match="^" + repr(str(exc))[1:-1]):
                simulate(config, t, workers, collect_trace=True, also=also)
            return
        result = simulate(config, t, workers, collect_trace=True, also=also)
        assert dataclasses.replace(result, same=()) == alone
        for i, other in enumerate(also):
            parted = parts(config, other, t, alone.trace)
            assert (i not in result.same) == parted
            if not parted:
                assert simulate(other, t, workers, collect_trace=True) == alone

    def test_configs_that_start_at_another_cap_are_refused(self):
        spec, tables = grid([SOFT, ("asha", False)], "default")
        config, other = (cell_config(spec, m, 0) for m in spec.methods)
        with pytest.raises(UsageError, match="grouped config 0 .* starting cap"):
            simulate(config, tables[0], 2, also=[other])

    def test_configs_of_another_seed_are_refused(self):
        spec, tables = grid([SOFT, NO_INCREASE], "default")
        config, other = (cell_config(spec, m, 0) for m in spec.methods)
        with pytest.raises(UsageError, match="grouped config 0"):
            simulate(config, tables[0], 2, also=[dataclasses.replace(other, seed=1)])

    def test_the_random_baseline_shares_no_jobs(self):
        spec, tables = grid([("random", False), NO_INCREASE], "default")
        config, other = (cell_config(spec, m, 0) for m in spec.methods)
        with pytest.raises(UsageError, match="random baseline runs no jobs to share"):
            simulate(config, tables[0], 2, also=[other])
