"""Synthetic benchmark generation, the file format, and crossing analytics."""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import itertools
import math
import os
import re
import subprocess
import sys
import tempfile
import types
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tunesim import (
    CurveModel,
    DataError,
    FormatError,
    GenerationError,
    LearningCurveTable,
    crossing_report,
    generate,
    load,
    save,
)
from tunesim import benchgen
from tunesim.benchgen import FORMAT_MAGIC

from util import table_from_rows


DEFAULT = CurveModel()


class TestCurveModel:
    def test_defaults_are_valid(self):
        assert DEFAULT.family == "power_law"
        assert DEFAULT.crossing_horizon == 5

    @pytest.mark.parametrize(
        "field,value",
        [
            ("family", "sigmoid"),
            ("crossing_horizon", 0),
            ("noise_std", -0.1),
            ("tail_theta", 0.0),
            ("tail_theta", 1.0),
            ("decay", 0.0),
            ("top_metric", 0.0),
            ("head_gap", 0.0),
            ("head_jitter", 0.0),
            ("gap_scale", 0.0),
            ("head_count", 0),
            ("early_scale", -0.01),
            ("damp_lo", 0.5),  # collides with damp_hi below
            ("cost_mean", 0.0),
            ("cost_spread", -1.0),
        ],
    )
    def test_rejects_out_of_range_fields(self, field, value):
        kwargs = {field: value}
        if field == "damp_lo":
            kwargs["damp_hi"] = 0.5
        with pytest.raises(GenerationError):
            CurveModel(**kwargs)


class TestGenerate:
    def test_same_seed_same_table(self):
        first = generate(12, 9, DEFAULT, seed=3)
        second = generate(12, 9, DEFAULT, seed=3)
        assert first == second

    def test_different_seeds_differ(self):
        assert generate(12, 9, DEFAULT, seed=3) != generate(12, 9, DEFAULT, seed=4)

    def test_rejects_empty_benchmark(self):
        with pytest.raises(GenerationError, match="n_configs"):
            generate(0, 9, DEFAULT, seed=0)

    def test_units_must_cover_the_crossing_horizon(self):
        with pytest.raises(GenerationError, match="crossing horizon"):
            generate(8, 4, DEFAULT, seed=0)

    @pytest.mark.parametrize(
        ("n", "floor", "needed"), [(1024, "-0.0466", 0.9666), (2048, "-0.0816", 1.0017)]
    )
    def test_metric_floor_error_names_the_smallest_top_metric(self, n, floor, needed):
        # the default model cannot generate n configs; the named value can,
        # and one step of the fourth decimal below it cannot
        message = f"metric floor {floor} is not positive; .* top_metric to at least {needed:.4f}$"
        with pytest.raises(GenerationError, match=message):
            generate(n, 81, DEFAULT, seed=0)
        assert len(generate(n, 81, CurveModel(top_metric=needed), seed=0).config_ids()) == n
        with pytest.raises(GenerationError, match="is not positive"):
            generate(n, 81, CurveModel(top_metric=needed - 1e-4), seed=0)

    def test_noise_that_reaches_zero_is_refused_naming_a_top_metric_that_generates(self):
        # the latent floor is positive; observation noise carries stored metrics below 0
        model = CurveModel(top_metric=0.9666, noise_std=0.01, hard=True)
        message = "metric floor -0.0216 is not positive; .* top_metric to at least 0.9882$"
        with pytest.raises(GenerationError, match=message):
            generate(1024, 81, model, seed=0)
        table = generate(1024, 81, dataclasses.replace(model, top_metric=0.9882), seed=0)
        assert table.metrics.min() > 0 and table.finals.min() > 0
        with pytest.raises(GenerationError, match="is not positive"):
            generate(1024, 81, dataclasses.replace(model, top_metric=0.9881), seed=0)

    def test_ids_are_a_permutation(self):
        table = generate(20, 9, DEFAULT, seed=1)
        assert sorted(table.config_ids()) == list(range(20))

    def test_noiseless_curves_rise_strictly(self):
        table = generate(24, 27, DEFAULT, seed=0)
        for metrics, final in zip(table.metrics.tolist(), table.finals.tolist()):
            assert all(b > a for a, b in zip(metrics, metrics[1:]))
            assert final == metrics[-1]

    def test_noiseless_order_is_settled_at_the_horizon(self):
        # early perturbations cross curves, but never at or past the horizon
        for seed in range(5):
            table = generate(24, 27, DEFAULT, seed=seed)
            report = crossing_report(table)
            assert report, "expected some early-phase crossings"
            assert all(level < DEFAULT.crossing_horizon for _, level in report)

    def test_disagreement_with_the_final_order_only_shrinks(self):
        for seed in range(5):
            table = generate(24, 27, DEFAULT, seed=seed)
            ids = table.config_ids()
            matrix = table.metrics
            final = matrix[:, -1]
            discordant = []
            for u in range(matrix.shape[1]):
                bad = sum(
                    1
                    for i, j in itertools.combinations(range(len(ids)), 2)
                    if (matrix[i, u] - matrix[j, u]) * (final[i] - final[j]) < 0
                )
                discordant.append(bad)
            assert all(b <= a for a, b in zip(discordant, discordant[1:]))
            assert discordant[DEFAULT.crossing_horizon - 1] == 0

    def test_costs_are_one_constant_rate_per_config(self):
        table = generate(10, 9, DEFAULT, seed=2)
        for costs in table.costs.tolist():
            assert len(set(costs)) == 1
            assert costs[0] > 0

    def test_zero_cost_spread_pins_every_rate_to_the_mean(self):
        model = CurveModel(cost_mean=2.5, cost_spread=0.0)
        table = generate(6, 9, model, seed=0)
        assert all(c == 2.5 for c in table.costs[:, 0])

    def test_noise_too_large_for_the_separation_is_refused(self):
        with pytest.raises(GenerationError, match="reorder curves beyond resource 5"):
            generate(16, 27, CurveModel(noise_std=0.01), seed=0)

    def test_hard_flag_permits_reordering_noise(self):
        table = generate(16, 27, CurveModel(noise_std=0.01, hard=True), seed=0)
        assert len(table.config_ids()) == 16

    def test_noise_perturbs_observations_and_finals(self):
        clean = generate(8, 27, CurveModel(noise_std=0.2, hard=True), seed=5)
        base = generate(8, 27, DEFAULT, seed=5)
        assert clean != base
        assert clean.finals[0] != clean.metrics[0, -1]


class TestSaveLoad:
    def test_round_trip_is_the_identity(self, tmp_path):
        table = generate(10, 9, DEFAULT, seed=7)
        path = str(tmp_path / "bench.csv")
        save(table, path)
        assert load(path) == table

    def test_minimize_direction_round_trip(self, tmp_path):
        table = generate(6, 9, DEFAULT, seed=1)
        table.flipped = True  # stored maximize-normalized, file keeps minimize
        path = str(tmp_path / "loss.csv")
        save(table, path)
        with open(path) as handle:
            text = handle.read()
        assert "direction=minimize" in text
        again = load(path)
        assert again == table
        assert again.flipped

    def test_minimize_file_is_negated_on_ingestion(self, tmp_path):
        path = tmp_path / "loss.csv"
        path.write_text(
            FORMAT_MAGIC + "\n"
            "units=2\nmetric=loss\ndirection=minimize\nconfigs=1\n\n"
            "0,,0.5,0.25,1.0,1.0,0.2\n"
        )
        table = load(str(path))
        assert table.metrics[0].tolist() == [-0.5, -0.25]
        assert table.final_metric(0) == -0.2
        assert table.display_metric(table.metric(0, 2)) == 0.25

    def test_saved_bytes_are_deterministic(self, tmp_path):
        table = generate(10, 9, DEFAULT, seed=7)
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        save(table, a)
        save(generate(10, 9, DEFAULT, seed=7), b)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_payload_with_commas_survives_the_round_trip(self, tmp_path):
        table = LearningCurveTable(
            ids=[3], metrics=[[0.5, 0.6]], costs=[[1.0, 1.0]], finals=[0.6],
            payloads=["lr=0.1,depth=4"],
        )
        path = str(tmp_path / "bench.csv")
        save(table, path)
        assert load(path).payloads == ("lr=0.1,depth=4",)

    @pytest.mark.parametrize("payload", ["a\nb", "a\rb", "a\r\nb", "a\x0cb", "a\x85b", "a\u2028b"])
    def test_payload_with_a_line_break_survives_the_round_trip(self, tmp_path, payload):
        table = LearningCurveTable(
            ids=[3, 1], metrics=[[0.5, 0.6], [0.4, 0.5]], costs=[[1.0, 1.0], [1.0, 2.0]],
            finals=[0.6, 0.5], payloads=[payload, "x"],
        )
        path = str(tmp_path / "bench.csv")
        save(table, path)
        assert load(path) == table

    def test_bad_row_after_a_multi_line_payload_names_its_file_line(self, tmp_path):
        path = self.write(
            tmp_path, '0,"a\nb",0.1,0.2,1.0,1.0,0.2\n1,,0.1,fast,1.0,1.0,0.2\n',
            header=FORMAT_MAGIC + "\nunits=2\nmetric=m\ndirection=maximize\nconfigs=2\n\n",
        )
        with pytest.raises(FormatError, match="line 9:"):  # the payload spans lines 7-8
            load(path)

    def write(self, tmp_path, body, header=None):
        head = header if header is not None else (
            FORMAT_MAGIC + "\nunits=2\nmetric=m\ndirection=maximize\nconfigs=1\n\n"
        )
        path = tmp_path / "bench.csv"
        path.write_text(head + body)
        return str(path)

    def test_wrong_magic_is_named_as_line_one(self, tmp_path):
        path = self.write(tmp_path, "", header="not-a-benchmark\nunits=2\n\n")
        with pytest.raises(FormatError, match=f"line 1: not a {FORMAT_MAGIC} file"):
            load(path)

    def test_header_without_blank_line_terminator(self, tmp_path):
        path = tmp_path / "bench.csv"
        path.write_text(FORMAT_MAGIC + "\nunits=2\ndirection=maximize\nconfigs=0\n")
        with pytest.raises(FormatError, match="header never ends"):
            load(path)

    def test_missing_required_key(self, tmp_path):
        path = self.write(
            tmp_path, "0,,0.1,0.2,1.0,1.0,0.2\n",
            header=FORMAT_MAGIC + "\nunits=2\nconfigs=1\n\n",
        )
        with pytest.raises(FormatError, match="missing the direction key"):
            load(path)

    def test_malformed_header_line(self, tmp_path):
        path = self.write(
            tmp_path, "", header=FORMAT_MAGIC + "\nunits\n\n"
        )
        with pytest.raises(FormatError, match="line 2: expected key=value"):
            load(path)

    def test_non_integer_units(self, tmp_path):
        path = self.write(
            tmp_path, "",
            header=FORMAT_MAGIC + "\nunits=two\ndirection=maximize\nconfigs=0\n\n",
        )
        with pytest.raises(FormatError, match="header:"):
            load(path)

    def test_unknown_direction(self, tmp_path):
        path = self.write(
            tmp_path, "",
            header=FORMAT_MAGIC + "\nunits=2\ndirection=sideways\nconfigs=0\n\n",
        )
        with pytest.raises(FormatError, match="maximize or minimize"):
            load(path)

    def test_short_row_names_its_line(self, tmp_path):
        path = self.write(tmp_path, "0,,0.1,0.2,1.0,1.0\n")
        with pytest.raises(FormatError, match="line 7: expected 7 fields, got 6"):
            load(path)

    def test_duplicate_config_id_names_its_line(self, tmp_path):
        body = "0,,0.1,0.2,1.0,1.0,0.2\n0,,0.1,0.2,1.0,1.0,0.2\n"
        path = self.write(
            tmp_path, body,
            header=FORMAT_MAGIC + "\nunits=2\ndirection=maximize\nconfigs=2\n\n",
        )
        with pytest.raises(FormatError, match="line 7: duplicate config id 0"):
            load(path)

    def test_negative_id_is_rejected(self, tmp_path):
        path = self.write(tmp_path, "-1,,0.1,0.2,1.0,1.0,0.2\n")
        with pytest.raises(FormatError, match="line 7: config ids"):
            load(path)

    def test_non_finite_value_is_rejected(self, tmp_path):
        path = self.write(tmp_path, "0,,0.1,inf,1.0,1.0,0.2\n")
        with pytest.raises(FormatError, match="line 7: non-finite"):
            load(path)

    def test_non_positive_cost_is_rejected(self, tmp_path):
        path = self.write(tmp_path, "0,,0.1,0.2,1.0,0.0,0.2\n")
        with pytest.raises(FormatError, match="line 7: costs"):
            load(path)

    def test_unparseable_number_names_its_line(self, tmp_path):
        path = self.write(tmp_path, "0,,0.1,fast,1.0,1.0,0.2\n")
        with pytest.raises(FormatError, match="line 7:"):
            load(path)

    def test_row_count_must_match_the_header(self, tmp_path):
        path = self.write(
            tmp_path, "0,,0.1,0.2,1.0,1.0,0.2\n",
            header=FORMAT_MAGIC + "\nunits=2\ndirection=maximize\nconfigs=3\n\n",
        )
        with pytest.raises(FormatError, match="declares 3 configs but the file holds 1"):
            load(path)

    @pytest.mark.parametrize(
        "body, message",
        [("0,,0.1,fast,1.0,1.0,0.2\n", "line 7: could not convert string to float: 'fast'"),
         ("0,,0.1,inf,1.0,1.0,0.2\n", "line 7: non-finite"),
         ("0,,0.1,0.2,1.0,1.0,0.2\n1,,0.1,0.2,1.0,1.0,0.2\n", "header declares 1 configs")],
    )
    def test_every_refusal_names_the_path_first(self, tmp_path, body, message):
        path = self.write(tmp_path, body)
        with pytest.raises(FormatError) as refused:
            load(path)
        assert str(refused.value).startswith(f"{path}: {message}")

    def test_a_file_that_is_not_utf8_is_named_without_a_line(self, tmp_path):
        path = self.write(tmp_path, "0,,0.1,0.2,1.0,1.0,0.2\n")
        with open(path, "ab") as handle:
            handle.write(b"1,\xff,0.1,0.2,1.0,1.0,0.2\n")
        with pytest.raises(FormatError) as refused:
            load(path)
        assert str(refused.value) == f"{path}: not UTF-8 text (invalid start byte)"


@st.composite
def small_tables(draw):
    """Tables of 1-6 configs x 1-5 units with arbitrary finite metrics, either
    direction, and csv-hostile payloads (commas, quotes, spaces, line breaks)."""
    units = draw(st.integers(1, 5))
    metric = st.floats(-1e6, 1e6, allow_nan=False)
    cost = st.floats(1e-6, 1e6)
    payload = st.text(st.sampled_from("ab, \"'=;:.-_0\r\n\x0c\x85\u2028"), max_size=6)
    ids = draw(st.lists(st.integers(0, 10**6), min_size=1, max_size=6, unique=True))
    name = st.text(st.sampled_from("abXY09_-"), min_size=1, max_size=8)
    return LearningCurveTable(
        ids=ids,
        metrics=[draw(st.lists(metric, min_size=units, max_size=units)) for _ in ids],
        costs=[draw(st.lists(cost, min_size=units, max_size=units)) for _ in ids],
        finals=[draw(metric) for _ in ids],
        payloads=[draw(payload) for _ in ids],
        metric_name=draw(name),
        unit_label=draw(name),
        flipped=draw(st.booleans()),
    )


class TestSaveLoadProperty:
    @settings(max_examples=150, deadline=None)
    @given(table=small_tables())
    def test_save_then_load_is_the_identity(self, table):
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "bench.csv")
            save(table, path)
            assert load(path) == table

    @settings(max_examples=150, deadline=None)
    @given(table=small_tables())
    def test_load_then_save_reproduces_the_file(self, table):
        with tempfile.TemporaryDirectory() as d:
            first, second = os.path.join(d, "a.csv"), os.path.join(d, "b.csv")
            save(table, first)
            save(load(first), second)
            with open(first, "rb") as a, open(second, "rb") as b:
                assert a.read() == b.read()


class TestCrossingReport:
    def test_parallel_constant_curves_never_cross(self):
        table = table_from_rows({0: [0.5, 0.5, 0.5], 1: [0.4, 0.4, 0.4]})
        assert crossing_report(table) == []

    def test_single_config_has_no_pairs(self):
        table = table_from_rows({0: [0.5, 0.6]})
        assert crossing_report(table) == []

    def test_reports_the_last_deviating_level(self):
        # pair order flips at level 2 and settles again at level 3
        table = table_from_rows({0: [0.5, 0.5, 0.6], 1: [0.4, 0.6, 0.5]})
        assert crossing_report(table) == [((0, 1), 2)]

    def test_tie_at_one_level_counts_as_a_deviation(self):
        table = table_from_rows({0: [0.5, 0.5], 1: [0.5, 0.6]})
        assert crossing_report(table) == [((0, 1), 1)]

    def test_exactly_equal_curves_report_nothing(self):
        table = table_from_rows({0: [0.5, 0.6], 1: [0.5, 0.6]})
        assert crossing_report(table) == []

    def test_deviation_at_the_penultimate_level(self):
        rows = {
            0: [0.1, 0.2, 0.9, 0.4],
            1: [0.2, 0.3, 0.3, 0.5],
        }
        assert crossing_report(table_from_rows(rows)) == [((0, 1), 3)]


@contextlib.contextmanager
def _collector(enabled: bool):
    """The cyclic collector switched on or off for the block, and on after it."""
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        gc.enable()


class TestCrossingReportCollector:
    """crossing_report pauses the cyclic collector while it builds the report,
    and leaves it as it found it."""

    CROSSING = {0: [0.5, 0.5, 0.6], 1: [0.4, 0.6, 0.5]}

    @pytest.mark.parametrize("enabled", [True, False])
    def test_state_is_kept_after_a_return(self, enabled):
        with _collector(enabled):
            assert crossing_report(table_from_rows(self.CROSSING)) == [((0, 1), 2)]
            assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False])
    def test_state_is_kept_after_a_raise(self, enabled):
        # ids that cannot be indexed fail while the report is built
        broken = types.SimpleNamespace(metrics=table_from_rows(self.CROSSING).metrics, ids=None)
        with _collector(enabled):
            with pytest.raises(TypeError):
                crossing_report(broken)
            assert gc.isenabled() is enabled

    def test_paused_while_pairs_are_compared(self):
        seen, signs = [], benchgen._signs

        def spy(a, b):
            seen.append(gc.isenabled())
            return signs(a, b)

        with _collector(True), mock.patch.object(benchgen, "_signs", spy):
            crossing_report(table_from_rows(self.CROSSING))
        # the first call finds the disordered units, before the pause
        assert seen == [True, False, False]


def _oracle_crossings(table):
    """Each pair compared level by level in plain Python."""
    def sign(x):
        return (x > 0) - (x < 0)

    report = []
    for a, b in itertools.combinations(table.config_ids(), 2):
        ma, mb = (table.metrics[table.config_ids().index(c)].tolist() for c in (a, b))
        final = sign(ma[-1] - mb[-1])
        deviating = [u + 1 for u in range(len(ma)) if sign(ma[u] - mb[u]) != final]
        if deviating:
            report.append(((a, b), deviating[-1]))
    return report


class TestCrossingReportOracle:
    def test_noisy_generated_table(self):
        table = generate(40, 9, CurveModel(noise_std=0.02, hard=True), seed=3)
        expected = _oracle_crossings(table)
        assert len(expected) > 100
        assert crossing_report(table) == expected

    def test_coarse_values_with_many_ties(self):
        rng = np.random.default_rng(7)
        rows = {c: [float(v) for v in rng.integers(0, 3, 5) / 10] for c in range(30)}
        table = table_from_rows(rows)
        expected = _oracle_crossings(table)
        assert expected
        assert crossing_report(table) == expected


@st.composite
def crossing_tables(draw):
    """(table, shape, block): 1-40 configs, often few, x 1-9 units of metrics
    in quarter steps, 2-9 of them, so ties abound, and a _CROSSING_BLOCK from
    one row per block to one block for the whole table. The shape is "any";
    "settled", every column a strictly increasing image of the last, so no
    unit is disordered; or "churned", where the first two configs swap at
    every unit but the last."""
    n = draw(st.one_of(st.integers(1, 4), st.integers(1, 40)))
    units = draw(st.integers(1, 9))
    ids = draw(st.lists(st.integers(0, 10**6), min_size=n, max_size=n, unique=True))
    level = st.integers(-4, draw(st.integers(-3, 4))).map(lambda q: q / 4)
    rows = [draw(st.lists(level, min_size=units, max_size=units)) for _ in ids]
    shape = draw(st.sampled_from(["any", "settled", "churned"]))
    if shape == "settled":
        rows = [[row[-1] * (u + 1) + u for u in range(units)] for row in rows]
    elif shape == "churned" and n > 1:
        rows[0] = [5.0] * (units - 1) + [-5.0]
        rows[1] = [-5.0] * (units - 1) + [5.0]
    table = table_from_rows(dict(zip(ids, rows)))
    return table, shape, draw(st.integers(1, 2000))


class TestCrossingReportProperty:
    @settings(max_examples=300, deadline=None)
    @given(case=crossing_tables())
    def test_equals_the_pairwise_oracle(self, case):
        table, shape, block = case
        with mock.patch.object(benchgen, "_CROSSING_BLOCK", block):
            report = crossing_report(table)
        assert report == _oracle_crossings(table)
        if shape == "settled":
            assert report == []
        swapped = tuple(table.ids[np.abs(table.metrics[:, -1]) == 5].tolist())
        if shape == "churned" and len(swapped) == 2 and table.resource_units > 1:
            assert (swapped, table.resource_units - 1) in report


# Tokens the one-pass parser and the row-by-row reader must read alike: quoted
# payloads (well formed or not), spellings float() and int() accept and numpy
# may not, non-finite values, bad costs and ids, and whitespace.
_PAYLOADS = ['""', '"a,b"', '"say ""hi"""', '"#1,x"', "#1", 'x"a,b"', ' "a,b"', '"a"b', '"open',
             '"a\nb"', '"a\rb"', '"a\r\nb"', "a\rb", "a\x0cb", "\x85", '"\u2028"']
_IDS = ["-1", "-0", "+7", "007", "1_0", " 7 ", "1.0", "",
        "9223372036854775807", "9223372036854775808", "-9223372036854775809", str(2**64)]
_VALUES = ["nan", "-inf", "1e999", "1e-400", "0", "-0.0", "-1.5", "1_0", "+.5", "5.",
           " 0.25", "0.25\t", "\xa00.25 ", "0x1p-2", "fast", ""]
_SPACES = [" ", "\t", "\xa0"]

_MUTATIONS = st.one_of(
    st.tuples(st.just("field"), st.integers(0), st.just(0), st.sampled_from(_IDS)),
    st.tuples(st.just("field"), st.integers(0), st.just(1), st.sampled_from(_PAYLOADS)),
    st.tuples(st.just("field"), st.integers(0), st.integers(2), st.sampled_from(_VALUES)),
    st.tuples(st.just("pad"), st.integers(0), st.integers(0), st.sampled_from(_SPACES)),
    st.tuples(st.just("insert"), st.integers(0), st.just(0), st.sampled_from(["", " ", ",", '"'])),
    st.tuples(st.just("drop-field"), st.integers(0), st.just(0), st.just("")),
    st.tuples(st.just("extra-field"), st.integers(0), st.just(0), st.just("0.5")),
    st.tuples(st.just("repeat-row"), st.integers(0), st.just(0), st.just("")),
    st.tuples(st.just("copy-id"), st.integers(0), st.integers(0), st.just("")),
)


def _mutate(rows, mutation):
    kind, at, j, token = mutation
    if kind == "insert" or not rows:
        return rows[: at % (len(rows) + 1)] + [token] + rows[at % (len(rows) + 1) :]
    i = at % len(rows)
    fields = rows[i].split(",")
    j %= len(fields)
    if kind == "field":
        fields[j] = token
    elif kind == "pad":
        fields[j] = token + fields[j] + token
    elif kind == "drop-field":
        fields.pop()
    elif kind == "extra-field":
        fields.append(token)
    elif kind == "repeat-row":
        return rows + [rows[i]]
    elif kind == "copy-id":
        fields[0] = rows[j % len(rows)].split(",")[0]
    return rows[:i] + [",".join(fields)] + rows[i + 1 :]


def _outcome(path):
    """The loaded table with every float as its bits, or the error raised."""
    try:
        table = load(path)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    rows = [
        (config, payload, [x.hex() for x in metrics], [x.hex() for x in costs], final.hex())
        for config, payload, metrics, costs, final in zip(
            table.config_ids(), table.payloads, table.metrics.tolist(),
            table.costs.tolist(), table.finals.tolist(),
        )
    ]
    return table.resource_units, table.metric_name, table.unit_label, table.flipped, rows


def _outcome_by_line(path):
    with mock.patch.object(benchgen, "_array_pass", lambda handle, dtype: None):
        return _outcome(path)


class TestOnePassLoad:
    """load parses rows in one numpy pass and falls back to the row-by-row reader;
    both must give the same table, bit for bit, or the same error."""

    @settings(max_examples=400, deadline=None)
    @given(
        table=small_tables(),
        mutations=st.lists(_MUTATIONS, max_size=3),
        minimize=st.booleans(),
        no_rows=st.booleans(),
    )
    def test_one_pass_and_row_by_row_agree(self, table, mutations, minimize, no_rows):
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "bench.csv")
            save(table, path)
            with open(path, encoding="utf-8", newline="") as handle:
                head, _, body = handle.read().partition("\n\n")
            header = head.split("\n") + [""]
            rows = body.split("\r\n")[:-1]  # csv ends each saved row with \r\n
            if minimize:
                header = [
                    "direction=minimize" if h.startswith("direction=") else h for h in header
                ]
            if no_rows:
                header = ["configs=0" if h.startswith("configs=") else h for h in header]
                rows = []
            for mutation in mutations:
                rows = _mutate(rows, mutation)
            with open(path, "w", encoding="utf-8", newline="") as handle:
                handle.write("\n".join(header + rows) + "\n")
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                fast = _outcome(path)
            assert caught == []
            assert fast == _outcome_by_line(path)

    @settings(max_examples=50, deadline=None)
    @given(table=small_tables())
    def test_saved_tables_take_the_one_pass(self, table):
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "bench.csv")
            save(table, path)
            with mock.patch.object(
                benchgen, "_csv_records", side_effect=AssertionError("fell back")
            ):
                assert load(path) == table

    @pytest.mark.parametrize(
        "payload",
        [
            '"' + "p\n" * 70_000 + '"',  # no line is longer than the limit
            '"' + 'abc""\n' * 30_000 + '"',  # nor does a quote pair
        ],
        ids=["short-lines", "escaped-quotes-in-short-lines"],
    )
    def test_quoted_field_over_the_csv_limit_goes_to_the_row_reader(self, tmp_path, payload):
        path = tmp_path / "bench.csv"
        path.write_text(
            FORMAT_MAGIC + "\nunits=1\ndirection=maximize\nconfigs=1\n\n"
            f"0,{payload},0.5,1.0,0.5\n"
        )
        with pytest.raises(FormatError, match="line 6: field larger than field limit"):
            load(str(path))

    def test_no_rows_raise_no_warning_even_as_errors(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text(FORMAT_MAGIC + "\nunits=2\ndirection=maximize\nconfigs=0\n\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="at least one config"):
                load(str(path))

    def test_spellings_only_python_reads_still_load(self, tmp_path):
        big = 2**64
        path = tmp_path / "bench.csv"
        path.write_text(
            FORMAT_MAGIC + "\nunits=1\ndirection=maximize\nconfigs=2\n\n"
            f"1_0,,0.5,1_0.5,0.5\n{big},,0.25,1.0,0.25\n"
        )
        table = load(str(path))
        assert table.config_ids() == [10, big]
        assert table.costs[0].tolist() == [10.5]

    def test_ids_read_row_by_row_stay_int64(self, tmp_path):
        path = tmp_path / "bench.csv"
        path.write_text(
            FORMAT_MAGIC + "\nunits=1\ndirection=maximize\nconfigs=2\n\n"
            "1_0,,0.5,1.0,0.5\n3,,0.25,1.0,0.25\n"
        )
        table = load(str(path))
        assert table.config_ids() == [3, 10]
        assert table.ids.dtype == np.int64

    @pytest.mark.parametrize("refused_first", [True, False])
    def test_the_first_bad_record_in_file_order_is_named(self, tmp_path, refused_first):
        """A non-finite metric and an unparsable record: whichever comes first
        is named, as the cells reader names a cells file's."""
        refused, unparsable = "0,,nan,1.0,0.5", "1,,x,1.0,0.5"
        rows = [refused, unparsable] if refused_first else [unparsable, refused]
        path = tmp_path / "bench.csv"
        path.write_text(
            FORMAT_MAGIC + "\nunits=1\ndirection=maximize\nconfigs=2\n\n" + "\n".join(rows) + "\n"
        )
        reason = (
            "non-finite metric in curve for config 0" if refused_first
            else "could not convert string to float: 'x'"
        )
        with pytest.raises(FormatError) as raised:
            load(str(path))
        assert str(raised.value) == f"{path}: line 6: {reason}"

    def test_load_leaves_numpy_ma_unimported(self, tmp_path):
        """np.unique imports numpy.ma the first time it runs, 10-19 ms inside
        the first load of every tunesim process; the duplicate-id test must
        not pay it. A fresh interpreter shows what load itself imports; numpy
        1.x imports numpy.ma with numpy itself, so there is nothing to test."""
        path = tmp_path / "bench.csv"
        save(generate(16, 9, DEFAULT, 0), str(path))
        code = (
            "import sys\n"
            "import numpy\n"
            "print('numpy.ma' in sys.modules)\n"
            "from tunesim.benchgen import load\n"
            "load(sys.argv[1])\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        src = os.path.dirname(os.path.dirname(benchgen.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run(
            [sys.executable, "-c", code, str(path)], env=env, capture_output=True, text=True,
            timeout=60, check=True,
        )
        if done.stdout.startswith("True"):
            pytest.skip("this numpy imports numpy.ma on import numpy")
        assert done.stdout == "False\nFalse\n"


# One fault per entry: a negative id, another row's id, or a non-finite
# metric or final, or a bad cost, at (row, column) positions taken modulo the
# table's shape
_FAULTS = st.one_of(
    st.tuples(st.just("id"), st.integers(0), st.just(0), st.integers(-3, -1)),
    st.tuples(st.just("copy-id"), st.integers(0), st.integers(0), st.just(None)),
    st.tuples(st.just("metric"), st.integers(0), st.integers(0),
              st.sampled_from([math.nan, math.inf, -math.inf])),
    st.tuples(st.just("final"), st.integers(0), st.just(0),
              st.sampled_from([math.nan, math.inf, -math.inf])),
    st.tuples(st.just("cost"), st.integers(0), st.integers(0),
              st.sampled_from([0.0, -0.0, -1.5, math.nan, math.inf, -math.inf])),
)


@st.composite
def faulty_rows(draw):
    """units and rows of [id, metrics, costs, final], in file order, with one
    to three faults injected (a later one may undo an earlier one)."""
    n, units = draw(st.integers(1, 8)), draw(st.integers(1, 3))
    ids = draw(st.lists(st.integers(0, 50), min_size=n, max_size=n, unique=True))
    rows = [[config, [0.5 + 0.01 * u for u in range(units)], [1.0] * units, 0.6] for config in ids]
    for kind, i, j, value in draw(st.lists(_FAULTS, min_size=1, max_size=3)):
        row = rows[i % n]
        if kind == "id":
            row[0] = value
        elif kind == "copy-id":
            row[0] = rows[j % n][0]
        elif kind == "final":
            row[3] = value
        else:
            row[1 if kind == "metric" else 2][j % units] = value
    return units, rows


def _first_fault(rows):
    """The oracle of the row rule: the index of the first bad row, checked one
    row at a time in the order given, and the table's reason; None if none."""
    held = set()
    for i, (config, metrics, costs, final) in enumerate(rows):
        if config < 0:
            return i, f"config ids must be >= 0, got {config}"
        if config in held:
            return i, f"duplicate config id {config}"
        held.add(config)
        if not all(map(math.isfinite, [*metrics, final])):
            return i, f"non-finite metric in curve for config {config}"
        if not all(math.isfinite(c) and c > 0 for c in costs):
            return i, f"costs for config {config} must be finite and > 0"
    return None


class TestFirstBadRow:
    """LearningCurveTable names the first bad row in ascending id order and
    load the first in file order, by its line, each with that row's first
    reason; a record that does not parse after it is not reported."""

    @settings(max_examples=300, deadline=None)
    @given(case=faulty_rows(), unparsed_after=st.booleans())
    def test_the_table_and_load_name_the_first_bad_row(self, case, unparsed_after):
        units, rows = case
        ids, metrics, costs, finals = (list(column) for column in zip(*rows))
        in_id_order = _first_fault(sorted(rows, key=lambda row: row[0]))  # a stable sort
        if in_id_order is None:
            table = LearningCurveTable(ids, metrics, costs, finals)
        else:
            with pytest.raises(DataError, match=re.escape(in_id_order[1]) + "$"):
                LearningCurveTable(ids, metrics, costs, finals)

        lines = [",".join([str(r[0]), "", *map(repr, [*r[1], *r[2], r[3]])]) for r in rows]
        if unparsed_after:
            lines.append(",".join(["0", "", *["fast"] * (2 * units + 1)]))
        text = f"{FORMAT_MAGIC}\nunits={units}\ndirection=maximize\nconfigs={len(lines)}\n\n"
        in_file_order = _first_fault(rows)  # the data rows start on line 6
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "bench.csv")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text + "".join(line + "\n" for line in lines))
            if in_file_order is not None:
                line, reason = 6 + in_file_order[0], in_file_order[1]
            elif unparsed_after:
                line, reason = 6 + len(rows), "could not convert string to float: 'fast'"
            else:
                assert load(path) == table
                return
            with pytest.raises(FormatError, match=re.escape(f"line {line}: {reason}") + "$"):
                load(path)
