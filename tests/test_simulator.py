"""Discrete-event simulation: accounting, determinism, traces, replay."""

from __future__ import annotations

import dataclasses
import math
import os
import random
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tunesim import (
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

from tunesim.core import _left_sum
from util import table_from_rows, trace_text


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
            LearningCurveTable(ids=[0], metrics=[[]], costs=[[]], finals=[0.5])

    def test_rejects_empty_table(self):
        with pytest.raises(DataError, match="at least one config"):
            LearningCurveTable(ids=[], metrics=[], costs=[], finals=[])

    def test_rejects_negative_config_id(self):
        with pytest.raises(DataError, match="-3"):
            LearningCurveTable(ids=[-3], metrics=[[0.5]], costs=[[1.0]], finals=[0.5])

    def test_rejects_ragged_curve_naming_the_config(self):
        with pytest.raises(DataError, match="config 7"):
            LearningCurveTable(
                ids=[0, 7], metrics=[[0.5, 0.6], [0.5]], costs=[[1.0, 1.0], [1.0, 1.0]],
                finals=[0.6, 0.5],
            )

    @pytest.mark.parametrize(
        "metrics, costs, message",
        [
            # the short row belongs to the smallest id: the others set the width
            ([[0.5], [0.5, 0.6], [0.5, 0.6]], [[1.0, 1.0]] * 3, "config 2 has 1 metric and 2"),
            ([[0.5, 0.6]] * 3, [[1.0, 1.0], [1.0, 1.0], [1.0]], "config 9 has 2 metric and 1"),
        ],
    )
    def test_a_ragged_row_is_named_in_id_order(self, metrics, costs, message):
        with pytest.raises(DataError, match=f"{message} cost entries; expected 2$"):
            LearningCurveTable(ids=[2, 5, 9], metrics=metrics, costs=costs, finals=[0.6] * 3)

    def test_values_that_are_no_numbers_keep_numpys_error(self):
        with pytest.raises(ValueError, match="could not convert") as caught:
            LearningCurveTable(ids=[0], metrics=[["high"]], costs=[[1.0]], finals=[0.5])
        assert not isinstance(caught.value, DataError)

    def test_rejects_cost_rows_of_another_width_than_the_metric_rows(self):
        message = "every metric row has 2 entries but every cost row has 1$"
        with pytest.raises(DataError, match=message):
            LearningCurveTable(
                ids=[9, 7], metrics=[[0.5, 0.6], [0.5, 0.6]], costs=[[1.0], [1.0]],
                finals=[0.6, 0.6],
            )

    def test_rejects_non_finite_metric(self):
        with pytest.raises(DataError, match="non-finite"):
            LearningCurveTable(ids=[0], metrics=[[math.nan]], costs=[[1.0]], finals=[0.5])

    def test_rejects_non_positive_cost(self):
        with pytest.raises(DataError, match="costs"):
            LearningCurveTable(ids=[0], metrics=[[0.5]], costs=[[0.0]], finals=[0.5])

    def test_rejects_a_duplicate_config_id(self):
        with pytest.raises(DataError, match="duplicate config id 4"):
            LearningCurveTable(
                ids=[4, 1, 4], metrics=[[0.5]] * 3, costs=[[1.0]] * 3, finals=[0.5] * 3
            )

    @pytest.mark.parametrize(
        "change, shapes",
        [
            ({"metrics": [[0.5]]}, r"\(2,\), \(1,\), \(2,\), \(2,\), \(2,\)"),
            ({"metrics": [0.5, 0.5]}, r"\(2,\), \(\), \(2,\), \(2,\), \(2,\)"),
            ({"costs": [[[1.0]]] * 2}, r"\(2,\), \(2,\), \(2, 1\), \(2,\), \(2,\)"),
            ({"finals": [[0.5]] * 2}, r"\(2,\), \(2,\), \(2,\), \(2, 1\), \(2,\)"),
            ({"ids": [[0, 1]]}, r"\(1, 2\), \(2,\), \(2,\), \(2,\), \(2,\)"),
            ({"payloads": ["a"]}, r"\(2,\), \(2,\), \(2,\), \(2,\), \(1,\)"),
        ],
    )
    def test_rejects_arrays_of_different_lengths(self, change, shapes):
        fields = dict(ids=[0, 1], metrics=[[0.5]] * 2, costs=[[1.0]] * 2, finals=[0.5] * 2)
        with pytest.raises(DataError, match=f"per config: \\({shapes}\\)$"):
            LearningCurveTable(**{**fields, **change})

    def test_bad_rows_are_named_in_ascending_id_order(self):
        metrics = [[0.5], [math.inf], [math.nan]]
        with pytest.raises(DataError, match="config 3$"):
            LearningCurveTable(ids=[8, 5, 3], metrics=metrics, costs=[[1.0]] * 3, finals=[0.5] * 3)

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



def _two_config_table(**changes):
    fields = dict(
        ids=[5, 2],
        metrics=[[0.4, 0.7], [0.5, 0.6]],
        costs=[[1.5, 1.0], [1.0, 2.0]],
        finals=[0.7, 0.6],
        payloads=["b", "a"],
    )
    return LearningCurveTable(**{**fields, **changes})


class TestTableArrays:
    def test_rows_are_held_in_ascending_id_order(self):
        table = _two_config_table()
        assert table.config_ids() == [2, 5]
        assert table.metrics.tolist() == [[0.5, 0.6], [0.4, 0.7]]
        assert table.costs.tolist() == [[1.0, 2.0], [1.5, 1.0]]
        assert table.finals.tolist() == [0.6, 0.7]
        assert table.payloads == ("a", "b")
        assert table.resource_units == 2
        assert table.metric(5, 2) == 0.7 and table.final_metric(2) == 0.6

    @pytest.mark.parametrize(
        "change",
        [
            {"ids": [5, 3]},
            {"metrics": [[0.4, 0.7], [0.5, 0.65]]},
            {"costs": [[1.5, 1.0], [1.0, 2.5]]},
            {"finals": [0.7, 0.61]},
            {"payloads": ["b", "c"]},
            {"payloads": ["b", "a\x00"]},
            {"flipped": True},
            {"metric_name": "loss"},
            {"unit_label": "step"},
        ],
        ids=lambda change: next(iter(change)),
    )
    def test_a_copy_changed_in_one_place_compares_unequal(self, change):
        table = _two_config_table()
        assert table == _two_config_table()
        assert table == dataclasses.replace(table)
        assert table != _two_config_table(**change)
        assert _two_config_table(**change) != table

    def test_arrays_are_read_only(self):
        table = _two_config_table()
        for array in (table.ids, table.metrics, table.costs, table.finals):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1
        with pytest.raises(ValueError, match="read-only"):
            table.metrics[0, 0] = 0.9

    def test_the_arguments_are_copied(self):
        metrics = np.array([[0.5, 0.6], [0.4, 0.7]])
        table = LearningCurveTable(ids=[2, 5], metrics=metrics, costs=np.ones((2, 2)),
                                   finals=[0.6, 0.7])
        metrics[0, 0] = 0.9
        assert table.metric(2, 1) == 0.5

    def test_lookups_return_python_floats(self):
        table = _two_config_table()
        for value in (table.metric(2, 1), table.incremental_cost(2, 0, 2), table.final_metric(5)):
            assert type(value) is float

    @pytest.mark.parametrize("resource", [True, 1.0, np.int64(1)])
    def test_a_resource_that_is_not_a_plain_int_is_refused(self, resource):
        table = _two_config_table()
        with pytest.raises(DataError, match="integer"):
            table.metric(2, resource)
        with pytest.raises(DataError, match="integer"):
            table.incremental_cost(2, 0, resource)

    def test_each_lookup_refuses_what_its_inline_test_lets_through(self):
        table = _two_config_table()
        with pytest.raises(DataError, match="no curve for config 3"):
            table.incremental_cost(3, 0, 1)
        with pytest.raises(DataError, match="no curve for config 3"):
            table.final_metric(3)
        with pytest.raises(DataError, match="config 2 covers 2 units; requested 3"):
            table.incremental_cost(2, 1, 3)
        with pytest.raises(DataError, match="config 2 covers 2 units; requested 0"):
            table.metric(2, 0)
        with pytest.raises(InternalError, match=r"resume range \(-1, 1\]"):
            table.incremental_cost(2, -1, 1)


@st.composite
def cost_queries(draw):
    """A table whose ids are given out of order, with widely spread costs so
    that the summation order shows in the last bit, and resume ranges on it."""
    units = draw(st.integers(1, 24))
    ids = draw(st.lists(st.integers(0, 10**6), min_size=1, max_size=6, unique=True))
    cost = st.floats(1e-6, 1e6)
    costs = [draw(st.lists(cost, min_size=units, max_size=units)) for _ in ids]
    table = LearningCurveTable(ids, [[0.5] * units for _ in ids], costs, [0.5 for _ in ids])
    ranges = st.tuples(st.integers(0, units - 1), st.integers(1, units)).filter(
        lambda r: r[0] < r[1]
    )
    queries = draw(st.lists(st.tuples(st.integers(0, len(ids) - 1), ranges), max_size=12))
    return table, ids, costs, queries


class TestSegmentSums:
    @settings(max_examples=200, deadline=None)
    @given(setup=cost_queries())
    def test_each_cost_is_the_left_fold_of_its_row_slice(self, setup):
        table, ids, costs, queries = setup
        for _ in range(2):  # the second pass reads the kept sums
            for i, (start, target) in queries:
                expected = _left_sum(np.array(costs[i])[start:target].tolist())
                assert table.incremental_cost(ids[i], start, target).hex() == expected.hex()


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

    @pytest.mark.parametrize("mode", ["pasha", "asha", "one-epoch", "no-increase"])
    @pytest.mark.parametrize("n", [1, 5, 20])
    def test_workers_beyond_the_config_count_change_nothing(self, mode, n):
        # at most one job per config is in flight, so workers n and up never get one
        costs = {i: [0.5 + ((i + u) % 3) * 0.25 for u in range(27)] for i in range(n)}
        table = table_from_rows(
            {i: [0.4 + 0.01 * i + 0.002 * u for u in range(27)] for i in range(n)}, costs=costs
        )
        enough, more = (run(mode, table, n=n, spec=(1, 3, 27), workers=w) for w in (n, 3 * n + 7))
        assert enough == more
        assert trace_text(enough.trace) == trace_text(more.trace)

    def test_workers_beyond_the_config_count_cost_no_memory(self):
        table = rising_table(8, 9)
        run("asha", table, n=8, workers=1)  # fill the table's cost sums first
        tracemalloc.start()
        try:
            run("asha", table, n=8, workers=10**6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_rejects_a_non_positive_worker_count(self):
        table = rising_table(4, 3)
        with pytest.raises(UsageError, match="workers"):
            run("asha", table, n=4, spec=(1, 3, 9), workers=0)

    def test_table_shorter_than_the_ladder_fails_at_first_use(self):
        # a 27-unit table is refused before asha issues a job that targets 81
        table = rising_table(81, 27)
        with pytest.raises(DataError, match="covers 27 units; requested 81"):
            run("asha", table, n=81, spec=(1, 3, 81))

    def test_pasha_is_refused_a_table_shorter_than_its_ceiling(self):
        # on these stable curves pasha would stop growing at 9 units
        table = rising_table(81, 27)
        with pytest.raises(DataError, match="covers 27 units; requested 81"):
            run("pasha", table, n=81, spec=(1, 3, 81))

    @pytest.mark.parametrize(
        "mode, ceiling", [("asha", 18), ("pasha", 18), ("no-increase", 18), ("one-epoch", 2)]
    )
    def test_every_training_mode_checks_its_ceiling_before_the_first_job(self, mode, ceiling):
        table = rising_table(9, 1)
        with pytest.raises(DataError, match=f"covers 1 units; requested {ceiling}$"):
            run(mode, table, n=9, spec=(2, 3, 18))
        assert run(mode, rising_table(9, ceiling), n=9, spec=(2, 3, 18)).jobs_executed > 0


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

    def test_assigns_share_their_completion_time_and_write_like_the_oracle(self, tmp_path):
        costs = {i: [0.1 * (i % 3 + 1)] * 9 for i in range(12)}
        table = table_from_rows({i: [0.5 + 0.03 * i] * 9 for i in range(12)}, costs=costs)
        trace = run("asha", table, n=12, workers=3).trace
        assert any(
            a.kind == "assign" and a.time is c.time and c.kind == "complete"
            for c, a in zip(trace, trace[1:])
        )
        path = tmp_path / "run.trace"
        write_trace(trace, str(path))
        assert path.read_bytes() == trace_text(trace).encode("utf-8")

    def test_event_is_a_named_tuple(self):
        event = TraceEvent(0.5, 1, 7, 0, 1, None, "assign")
        assert event == (0.5, 1, 7, 0, 1, None, "assign")
        assert event[2] == event.config == 7 and event[-1] == event.kind

    def test_simulated_events_are_named_tuples_like_constructor_built_ones(self):
        trace = run("asha", rising_table(9, 9), n=9, workers=2).trace
        assert {event.kind for event in trace} == {"assign", "complete"}
        for event in trace:
            built = TraceEvent(**event._asdict())
            assert type(event) is TraceEvent
            assert event == built and repr(event) == repr(built) and hash(event) == hash(built)
            assert event[0] == event.time and event[5] == event.metric

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

    def test_a_file_that_is_not_utf8_is_refused_naming_the_file(self, tmp_path):
        # no line number: the decoder reads ahead of the line it fails on
        path = tmp_path / "bad.trace"
        path.write_bytes(b"0.0\t0\t3\t0\t1\t-\tassign\n\xff\n")
        with pytest.raises(DataError) as caught:
            read_trace(str(path))
        assert str(caught.value) == f"{path}: not UTF-8 text (invalid start byte)"


SIGNED_ZEROS = st.sampled_from((0.0, -0.0))
FINITE = st.one_of(SIGNED_ZEROS, st.floats(allow_nan=False, allow_infinity=False))
BIG_IDS = st.one_of(st.integers(0, 9), st.integers(0, 2**80))


@st.composite
def trace_events(draw):
    """Events whose times are fresh floats, the previous event's float object,
    an equal but distinct float, or the previous time negated (so 0.0 meets -0.0)."""
    events = []
    for _ in range(draw(st.integers(0, 25))):
        how = draw(st.sampled_from(("fresh", "same", "copy", "negated"))) if events else "fresh"
        previous = events[-1].time if events else None
        if how == "same":
            time = previous
        elif how == "copy":
            time = float.fromhex(previous.hex())
            assert time is not previous
        elif how == "negated":
            time = -previous
        else:
            time = draw(FINITE)
        kind = draw(st.sampled_from(("assign", "complete")))
        metric = draw(st.one_of(st.none(), FINITE))
        events.append(
            TraceEvent(time, draw(BIG_IDS), draw(BIG_IDS), draw(BIG_IDS), draw(BIG_IDS),
                       metric, kind)
        )
    return events


class TestTraceWriterProperty:
    @settings(max_examples=300, deadline=None)
    @given(events=trace_events())
    def test_writer_matches_the_per_event_formatter_and_round_trips(self, events):
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "run.trace")
            write_trace(iter(events), path)
            with open(path, "rb") as handle:
                assert handle.read() == trace_text(events).encode("utf-8")
            back = read_trace(path)
        assert back == events
        assert list(map(repr, back)) == list(map(repr, events))  # tells -0.0 from 0.0


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
        sched = replay_trace(res.trace, config, table)
        assert sched.ladder == res.ladder
        # the cap is always a ladder level, and no job went above it
        assert sched.levels[sched.top_index] == sched.cap
        assert res.max_resources <= sched.cap
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


# pasha criteria that stop early and that grow; soft:0 decides as direct does
ACCOUNTING_CRITERIA = ("soft:0.025", "soft:0", "soft-sigma:1", "rbo:p=0.9,t=0.5")


@st.composite
def accounting_setups(draw):
    """A config, the configs grouped with it, a fresh table and a worker count;
    the ceiling is a power of eta or lies between two."""
    eta = draw(st.integers(2, 4))
    r = draw(st.integers(1, 2))
    power = r * eta ** draw(st.integers(2, 3))
    between = power + draw(st.integers(1, min(power * (eta - 1) - 1, 20)))
    cap = draw(st.sampled_from((power, between)))
    n = draw(st.integers(1, 30))
    seed = draw(st.integers(0, 2**16))

    def config(mode):
        options = {}
        if mode == "pasha":
            criterion = draw(st.sampled_from(ACCOUNTING_CRITERIA))
            options["criterion"] = RankingCriterion.parse(criterion)
            options["pair_below_cap"] = draw(st.booleans())
        return SchedulerConfig(ResourceSpec(r, eta, cap), n, mode=mode, seed=seed, **options)

    mode = draw(st.sampled_from(("asha", "pasha", "one-epoch", "no-increase")))
    also = []
    if mode in ("pasha", "no-increase"):  # they start at one cap, so they may share jobs
        modes = draw(st.lists(st.sampled_from(("pasha", "no-increase")), max_size=3))
        also = [config(m) for m in modes]
    # tenths make metric ties common; halves make simultaneous completions
    # common, and spread costs make a sum's order show in its last bit
    rng = random.Random(draw(st.integers(0, 2**16)))
    steady = draw(st.booleans())  # one metric per config at every unit: pasha stops
    rows = {}
    for c in range(n):
        base = round(rng.uniform(0.1, 1.0), 1)
        rows[c] = [base if steady else round(rng.uniform(0.1, 1.0), 1) for _ in range(cap)]
    if draw(st.booleans()):
        costs = {c: [rng.choice((0.5, 1.0, 1.5)) for _ in range(cap)] for c in range(n)}
    else:
        costs = {c: [rng.uniform(1e-3, 1e3) for _ in range(cap)] for c in range(n)}
    return config(mode), also, table_from_rows(rows, costs), draw(st.integers(1, 6))


class TestTraceAccountingOracle:
    """Totals recomputed from the trace alone: no ladder, no rung levels and no
    table cache, only the events and the per-unit costs."""

    @settings(max_examples=150, deadline=None)
    @given(setup=accounting_setups())
    def test_times_and_totals_follow_from_the_trace(self, setup):
        config, also, table, workers = setup
        res = simulate(config, table, workers, collect_trace=True, also=also)
        costs = {c: table.costs[i].tolist() for i, c in enumerate(table.config_ids())}
        done: dict[int, int] = {}  # config -> its last completed resource
        running = {}  # worker -> (assign event, resource the job resumes from)
        ranges = set()
        jobs = units = 0
        for ev in res.trace:
            if ev.kind == "assign":
                assert ev.worker not in running
                running[ev.worker] = (ev, done.get(ev.config, 0))
                continue
            assigned, previous = running.pop(ev.worker)
            assert (ev.config, ev.rung, ev.resource) == (
                assigned.config, assigned.rung, assigned.resource)
            seconds = 0
            for unit_cost in costs[ev.config][previous : ev.resource]:
                seconds = seconds + unit_cost
            assert ev.time == assigned.time + seconds
            done[ev.config] = ev.resource
            ranges.add((previous, ev.resource))
            jobs += 1
            units += ev.resource - previous
        assert not running
        totals = (jobs, units, res.trace[-1].time)  # the last event is a completion
        assert (res.jobs_executed, res.units_consumed, res.wall_clock) == totals
        # one cost range per target level, and the table summed no other
        assert len({target for _, target in ranges}) == len(ranges)
        assert set(table._segments) == ranges
        for i in res.same:
            alone = simulate(also[i], table, workers)
            assert (alone.jobs_executed, alone.units_consumed, alone.wall_clock) == totals
