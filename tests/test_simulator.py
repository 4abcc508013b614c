"""Discrete-event simulation: accounting, determinism, traces, replay."""

from __future__ import annotations

import dataclasses
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tunesim import (
    Curve,
    DataError,
    InternalError,
    LearningCurveTable,
    RankingCriterion,
    ResourceSpec,
    SchedulerConfig,
    SimResult,
    TraceEvent,
    UsageError,
    read_trace,
    replay_trace,
    simulate,
    speedup,
    write_trace,
)

from util import table_from_rows


def run(mode, table, *, n, spec=(1, 3, 9), workers=1, seed=0, trace=True, **kw):
    config = SchedulerConfig(
        resources=ResourceSpec(*spec), num_configs=n, mode=mode, seed=seed, **kw
    )
    return simulate(config, table, workers=workers, collect_trace=trace)


def rising_table(n, units, slope=0.01):
    rows = {
        i: [0.5 + slope * i + 0.001 * u for u in range(units)] for i in range(n)
    }
    return table_from_rows(rows)


class TestTableValidation:
    def test_rejects_zero_units(self):
        with pytest.raises(DataError, match="resource_units"):
            LearningCurveTable(resource_units=0, curves={0: Curve((0.5,), (1.0,), 0.5)})

    def test_rejects_empty_table(self):
        with pytest.raises(DataError, match="at least one config"):
            LearningCurveTable(resource_units=1, curves={})

    def test_rejects_negative_config_id(self):
        with pytest.raises(DataError, match="-3"):
            LearningCurveTable(
                resource_units=1, curves={-3: Curve((0.5,), (1.0,), 0.5)}
            )

    def test_rejects_ragged_curve_naming_the_config(self):
        curves = {
            0: Curve((0.5, 0.6), (1.0, 1.0), 0.6),
            7: Curve((0.5,), (1.0, 1.0), 0.5),
        }
        with pytest.raises(DataError, match="config 7"):
            LearningCurveTable(resource_units=2, curves=curves)

    def test_rejects_non_finite_metric(self):
        with pytest.raises(DataError, match="non-finite"):
            LearningCurveTable(
                resource_units=1, curves={0: Curve((math.nan,), (1.0,), 0.5)}
            )

    def test_rejects_non_positive_cost(self):
        with pytest.raises(DataError, match="costs"):
            LearningCurveTable(
                resource_units=1, curves={0: Curve((0.5,), (0.0,), 0.5)}
            )

    def test_metric_lookup_is_one_indexed(self):
        table = table_from_rows({0: [0.1, 0.2, 0.3]})
        assert table.metric(0, 1) == 0.1
        assert table.metric(0, 3) == 0.3

    def test_metric_beyond_coverage_names_config_and_request(self):
        table = table_from_rows({4: [0.1] * 27})
        with pytest.raises(DataError, match=r"config 4 covers 27 units; requested 81"):
            table.metric(4, 81)

    def test_metric_rejects_non_integer_resource(self):
        table = table_from_rows({0: [0.1, 0.2]})
        with pytest.raises(DataError, match="integer"):
            table.metric(0, 1.5)

    def test_unknown_config_is_a_data_error(self):
        table = table_from_rows({0: [0.1]})
        with pytest.raises(DataError, match="no curve for config 9"):
            table.metric(9, 1)

    def test_incremental_cost_sums_the_half_open_resume_range(self):
        costs = {0: [1.0, 2.0, 4.0, 8.0]}
        table = table_from_rows({0: [0.5] * 4}, costs=costs)
        assert table.incremental_cost(0, 0, 4) == 15.0
        assert table.incremental_cost(0, 1, 3) == 6.0
        assert table.incremental_cost(0, 3, 4) == 8.0

    def test_incremental_cost_rejects_a_backwards_range(self):
        table = table_from_rows({0: [0.5] * 4})
        with pytest.raises(InternalError, match="resume range"):
            table.incremental_cost(0, 3, 3)

    def test_display_metric_restores_minimize_direction(self):
        table = table_from_rows({0: [0.5]})
        assert table.display_metric(-0.25) == -0.25
        table.flipped = True
        assert table.display_metric(-0.25) == 0.25


class TestAccounting:
    def test_single_worker_wall_clock_is_the_exact_unit_cost_sum(self):
        table = rising_table(16, 9)
        res = run("asha", table, n=16)
        # every unit costs exactly 1 second, so serial time equals units
        assert res.wall_clock == float(res.units_consumed)

    def test_single_worker_wall_clock_matches_a_trace_recomputation(self):
        costs = {
            i: [0.25 + ((i * 7 + u) % 5) * 0.125 for u in range(9)] for i in range(12)
        }
        table = table_from_rows(
            {i: [0.5 + 0.01 * i] * 9 for i in range(12)}, costs=costs
        )
        res = run("asha", table, n=12)
        acc = 0.0
        done: dict[int, int] = {}
        for ev in res.trace:
            if ev.kind != "assign":
                continue
            acc = acc + table.incremental_cost(ev.config, done.get(ev.config, 0), ev.resource)
            done[ev.config] = ev.resource
        assert res.wall_clock == acc

    def test_checkpoint_resume_never_pays_for_a_unit_twice(self):
        table = rising_table(9, 9)
        res = run("asha", table, n=9)
        paid = {}
        for ev in res.trace:
            if ev.kind == "assign":
                paid[ev.config] = max(paid.get(ev.config, 0), ev.resource)
        assert res.units_consumed == sum(paid.values())

    def test_parallel_workers_overlap_equal_cost_jobs(self):
        table = table_from_rows({i: [0.5 + 0.1 * i] for i in range(3)})
        serial = run("one-epoch", table, n=3, spec=(1, 3, 9), workers=1)
        parallel = run("one-epoch", table, n=3, spec=(1, 3, 9), workers=3)
        assert serial.wall_clock == 3.0
        assert parallel.wall_clock == 1.0
        assert serial.chosen == parallel.chosen == 2

    def test_adding_workers_shrinks_wall_clock_or_changes_the_work(self):
        # extra workers promote speculatively, so the job set itself can
        # change; when it does not, more parallelism can only help
        costs = {
            i: [0.5 + ((i + u) % 3) * 0.25 for u in range(27)] for i in range(27)
        }
        table = table_from_rows(
            {i: [0.4 + 0.01 * i + 0.002 * u for u in range(27)] for i in range(27)},
            costs=costs,
        )
        results = [
            run("asha", table, n=27, spec=(1, 3, 27), workers=w) for w in (1, 2, 4, 8)
        ]
        for prev, more in zip(results, results[1:]):
            jobs_prev = sorted((e.config, e.resource) for e in prev.trace if e.kind == "complete")
            jobs_more = sorted((e.config, e.resource) for e in more.trace if e.kind == "complete")
            assert more.wall_clock <= prev.wall_clock or jobs_prev != jobs_more

    def test_simulation_is_deterministic_for_a_fixed_seed(self):
        table = rising_table(20, 27)
        first = run("pasha", table, n=20, spec=(1, 3, 27), workers=4, seed=11)
        second = run("pasha", table, n=20, spec=(1, 3, 27), workers=4, seed=11)
        assert first == second
        third = run("pasha", table, n=20, spec=(1, 3, 27), workers=4, seed=12)
        assert first.trace != third.trace

    def test_rejects_a_non_positive_worker_count(self):
        table = rising_table(4, 3)
        with pytest.raises(UsageError, match="workers"):
            run("asha", table, n=4, spec=(1, 3, 9), workers=0)

    def test_table_shorter_than_the_ladder_fails_at_first_use(self):
        # a 27-unit table accepts the run until a job actually targets 81
        table = rising_table(81, 27)
        with pytest.raises(DataError, match="covers 27 units; requested 81"):
            run("asha", table, n=81, spec=(1, 3, 81))


class TestRandomBaseline:
    def test_consumes_nothing_and_reports_a_full_fidelity_metric(self):
        table = rising_table(10, 3)
        res = run("random", table, n=10, spec=(1, 3, 9), seed=5)
        assert res.wall_clock == 0.0
        assert res.units_consumed == 0
        assert res.jobs_executed == 0
        assert res.max_resources == 0
        assert res.chosen_metric_full == table.final_metric(res.chosen)

    def test_same_seed_same_choice(self):
        table = rising_table(10, 3)
        picks = {run("random", table, n=10, spec=(1, 3, 9), seed=3).chosen for _ in range(4)}
        assert len(picks) == 1

    def test_pool_size_caps_the_draw(self):
        table = rising_table(10, 3)
        for seed in range(30):
            res = run(
                "random", table, n=10, spec=(1, 3, 9), seed=seed, random_draws=2
            )
            assert res.chosen in range(10)

    def test_pool_larger_than_the_universe_is_rejected(self):
        table = rising_table(4, 3)
        with pytest.raises(DataError, match="universe"):
            run("random", table, n=4, spec=(1, 3, 9), random_draws=9)


class TestSpeedup:
    def make(self, wall):
        return SimResult(
            wall_clock=wall,
            chosen=0,
            chosen_metric_full=0.9,
            max_resources=1,
            jobs_executed=1,
            units_consumed=1,
        )

    def test_reference_against_itself_is_one(self):
        assert speedup(self.make(3600.0), self.make(3600.0)) == 1.0

    def test_ratio_of_wall_clocks(self):
        value = speedup(self.make(10800.0), self.make(8280.0))
        assert value == pytest.approx(10800.0 / 8280.0)

    def test_zero_cost_candidate_is_infinitely_fast(self):
        assert speedup(self.make(3600.0), self.make(0.0)) == math.inf


class TestTraceIO:
    def events(self):
        return [
            TraceEvent(0.0, 0, 3, 0, 1, None, "assign"),
            TraceEvent(0.1 + 0.2, 0, 3, 0, 1, 0.123456789012345, "complete"),
        ]

    def test_round_trip_preserves_floats_exactly(self, tmp_path):
        path = str(tmp_path / "run.trace")
        write_trace(self.events(), path)
        assert read_trace(path) == self.events()

    def test_simulated_trace_survives_the_file_format(self, tmp_path):
        costs = {i: [1.0 / 3.0 + 0.01 * i] * 9 for i in range(8)}
        table = table_from_rows({i: [0.5 + 0.03 * i] * 9 for i in range(8)}, costs=costs)
        res = run("asha", table, n=8, workers=2)
        path = str(tmp_path / "run.trace")
        write_trace(res.trace, path)
        assert read_trace(path) == res.trace

    def test_wrong_field_count_names_file_and_line(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text("0.0\t0\t3\t0\t1\t-\tassign\n0.5\t0\t3\n")
        with pytest.raises(DataError, match=r"bad\.trace:2: expected 7 trace fields"):
            read_trace(str(path))

    def test_unparseable_number_names_the_line(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text("zero\t0\t3\t0\t1\t-\tassign\n")
        with pytest.raises(DataError, match=r"bad\.trace:1"):
            read_trace(str(path))

    def test_unknown_event_kind_is_rejected(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text("0.0\t0\t3\t0\t1\t-\tlaunch\n")
        with pytest.raises(DataError, match="unknown event kind 'launch'"):
            read_trace(str(path))


class TestReplay:
    def setup_run(self, mode="pasha", workers=3):
        table = rising_table(18, 27)
        config = SchedulerConfig(
            resources=ResourceSpec(1, 3, 27), num_configs=18, mode=mode, seed=7
        )
        res = simulate(config, table, workers=workers, collect_trace=True)
        return table, config, res

    def test_replay_reproduces_the_ladder(self):
        for mode in ("asha", "pasha", "one-epoch", "no-increase"):
            table, config, res = self.setup_run(mode=mode)
            sched = replay_trace(res.trace, config, table)
            assert sched.ladder == res.ladder

    def test_tampered_assignment_is_a_divergence(self):
        table, config, res = self.setup_run()
        first = res.trace[0]
        tampered = [
            TraceEvent(
                first.time, first.worker, first.config + 1, first.rung,
                first.resource, first.metric, first.kind,
            )
        ] + res.trace[1:]
        with pytest.raises(InternalError, match="divergence"):
            replay_trace(tampered, config, table)

    def test_completion_without_assignment_is_a_data_error(self):
        table, config, res = self.setup_run()
        completes = [ev for ev in res.trace if ev.kind == "complete"]
        with pytest.raises(DataError, match="never assigned"):
            replay_trace(completes, config, table)

    def test_random_baseline_has_nothing_to_replay(self):
        table = rising_table(4, 3)
        config = SchedulerConfig(
            resources=ResourceSpec(1, 3, 9), num_configs=4, mode="random", seed=0
        )
        with pytest.raises(UsageError, match="random"):
            replay_trace([], config, table)


REPLAY_CRITERIA = (
    "soft:0.025", "direct", "soft-sigma:1", "soft-mean-dist", "rbo:p=0.9,t=0.5",
    "rrr", "always-unstable",
)


@st.composite
def replay_setups(draw):
    eta = draw(st.integers(2, 4))
    r = draw(st.integers(1, 2))
    cap = draw(st.integers(eta**2 * r, eta**3 * r + 2))
    mode = draw(st.sampled_from(("asha", "pasha", "one-epoch", "no-increase")))
    options = {}
    if mode == "pasha":
        options["criterion"] = RankingCriterion.parse(draw(st.sampled_from(REPLAY_CRITERIA)))
        options["pair_below_cap"] = draw(st.booleans())
    n = draw(st.integers(1, 40))
    config = SchedulerConfig(
        resources=ResourceSpec(r, eta, cap), num_configs=n, mode=mode,
        seed=draw(st.integers(0, 2**16)), **options,
    )
    # rounded metrics and costs make exact metric ties and simultaneous
    # completions common; metrics stay positive so rrr is defined
    rng = random.Random(draw(st.integers(0, 2**16)))
    rows = {c: [round(rng.uniform(0.1, 1.0), 1) for _ in range(cap)] for c in range(n)}
    costs = {c: [rng.choice((0.5, 1.0, 1.5)) for _ in range(cap)] for c in range(n)}
    return config, table_from_rows(rows, costs), draw(st.integers(1, 8))


class TestReplayProperty:
    @settings(max_examples=150, deadline=None)
    @given(setup=replay_setups())
    def test_replay_rebuilds_an_equal_ladder(self, setup):
        config, table, workers = setup
        res = simulate(config, table, workers=workers, collect_trace=True)
        assert replay_trace(res.trace, config, table).ladder == res.ladder
        for rung in res.ladder.rungs:
            assert rung == sorted(rung, key=lambda e: (-e.metric, e.completion_index))

    @settings(max_examples=150, deadline=None)
    @given(setup=replay_setups())
    def test_accounting_matches_the_trace(self, setup):
        config, table, workers = setup
        res = simulate(config, table, workers=workers, collect_trace=True)
        assigns = [ev for ev in res.trace if ev.kind == "assign"]
        completes = [ev for ev in res.trace if ev.kind == "complete"]
        assert res.jobs_executed == len(assigns) == len(completes)
        # each assignment pays the units between the config's last completion and its target
        checkpoint: dict[int, int] = {}
        units = 0
        for ev in res.trace:
            if ev.kind == "assign":
                units += ev.resource - checkpoint.get(ev.config, 0)
            else:
                checkpoint[ev.config] = ev.resource
        assert res.units_consumed == units
        assert res.wall_clock == completes[-1].time

    @settings(max_examples=150, deadline=None)
    @given(setup=replay_setups())
    def test_chosen_is_the_best_of_the_highest_nonempty_rung(self, setup):
        config, table, workers = setup
        res = simulate(config, table, workers=workers, collect_trace=True)
        completes = [ev for ev in res.trace if ev.kind == "complete"]
        top = max(ev.rung for ev in completes)
        # best metric first; min keeps the earliest completion among exact ties
        best = min((ev for ev in completes if ev.rung == top), key=lambda ev: -ev.metric)
        assert res.chosen == best.config
        assert res.max_resources == best.resource
        assert res.chosen_metric_full == table.final_metric(best.config)

    @settings(max_examples=150, deadline=None)
    @given(setup=replay_setups(), pair_below_cap=st.booleans())
    def test_always_unstable_pasha_is_trace_identical_to_asha(self, setup, pair_below_cap):
        config, table, workers = setup
        asha = dataclasses.replace(config, mode="asha", criterion=None, pair_below_cap=False)
        forced = dataclasses.replace(
            config,
            mode="pasha",
            criterion=RankingCriterion.parse("always-unstable"),
            pair_below_cap=pair_below_cap,
        )
        expected = simulate(asha, table, workers=workers, collect_trace=True)
        res = simulate(forced, table, workers=workers, collect_trace=True)
        assert res.trace == expected.trace
        assert (res.chosen, res.max_resources, res.units_consumed, res.wall_clock) == (
            expected.chosen,
            expected.max_resources,
            expected.units_consumed,
            expected.wall_clock,
        )
