"""Synthetic benchmark generation, the file format, and crossing analytics."""

from __future__ import annotations

import itertools
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tunesim import (
    Curve,
    CurveModel,
    FormatError,
    GenerationError,
    LearningCurveTable,
    crossing_report,
    generate,
    load,
    save,
)
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

    def test_ids_are_a_permutation(self):
        table = generate(20, 9, DEFAULT, seed=1)
        assert sorted(table.curves) == list(range(20))

    def test_noiseless_curves_rise_strictly(self):
        table = generate(24, 27, DEFAULT, seed=0)
        for curve in table.curves.values():
            assert all(b > a for a, b in zip(curve.metrics, curve.metrics[1:]))
            assert curve.final_metric == curve.metrics[-1]

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
            ids = sorted(table.curves)
            matrix = np.array([table.curves[c].metrics for c in ids])
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
        for curve in table.curves.values():
            assert len(set(curve.costs)) == 1
            assert curve.costs[0] > 0

    def test_zero_cost_spread_pins_every_rate_to_the_mean(self):
        model = CurveModel(cost_mean=2.5, cost_spread=0.0)
        table = generate(6, 9, model, seed=0)
        assert all(c.costs[0] == 2.5 for c in table.curves.values())

    def test_noise_too_large_for_the_separation_is_refused(self):
        with pytest.raises(GenerationError, match="reorder curves beyond resource 5"):
            generate(16, 27, CurveModel(noise_std=0.01), seed=0)

    def test_hard_flag_permits_reordering_noise(self):
        table = generate(16, 27, CurveModel(noise_std=0.01, hard=True), seed=0)
        assert len(table.curves) == 16

    def test_noise_perturbs_observations_and_finals(self):
        clean = generate(8, 27, CurveModel(noise_std=0.2, hard=True), seed=5)
        base = generate(8, 27, DEFAULT, seed=5)
        assert clean != base
        some = next(iter(clean.curves.values()))
        assert some.final_metric != some.metrics[-1]


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
        assert table.curves[0].metrics == (-0.5, -0.25)
        assert table.curves[0].final_metric == -0.2
        assert table.display_metric(table.curves[0].metrics[1]) == 0.25

    def test_saved_bytes_are_deterministic(self, tmp_path):
        table = generate(10, 9, DEFAULT, seed=7)
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        save(table, a)
        save(generate(10, 9, DEFAULT, seed=7), b)
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_payload_with_commas_survives_the_round_trip(self, tmp_path):
        curve = Curve((0.5, 0.6), (1.0, 1.0), 0.6, payload="lr=0.1,depth=4")
        table = LearningCurveTable(resource_units=2, curves={3: curve})
        path = str(tmp_path / "bench.csv")
        save(table, path)
        assert load(path).curves[3].payload == "lr=0.1,depth=4"

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


@st.composite
def small_tables(draw):
    """Tables of 1-6 configs x 1-5 units with arbitrary finite metrics, either
    direction, and csv-hostile payloads (commas, quotes, spaces)."""
    units = draw(st.integers(1, 5))
    metric = st.floats(-1e6, 1e6, allow_nan=False)
    cost = st.floats(1e-6, 1e6)
    payload = st.text(st.sampled_from("ab, \"'=;:.-_0"), max_size=6)
    ids = draw(st.lists(st.integers(0, 10**6), min_size=1, max_size=6, unique=True))
    curves = {
        config: Curve(
            metrics=tuple(draw(st.lists(metric, min_size=units, max_size=units))),
            costs=tuple(draw(st.lists(cost, min_size=units, max_size=units))),
            final_metric=draw(metric),
            payload=draw(payload),
        )
        for config in ids
    }
    name = st.text(st.sampled_from("abXY09_-"), min_size=1, max_size=8)
    return LearningCurveTable(
        resource_units=units,
        curves=curves,
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


def _oracle_crossings(table):
    """Each pair compared level by level in plain Python."""
    def sign(x):
        return (x > 0) - (x < 0)

    report = []
    for a, b in itertools.combinations(table.config_ids(), 2):
        ma, mb = table.curves[a].metrics, table.curves[b].metrics
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
