"""Experiment grids: table resolution, aggregation, and report emission."""

from __future__ import annotations

import csv
import dataclasses
import io
import math
import os
import statistics
import sys
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tunesim import (
    CellResult,
    CurveModel,
    DataError,
    ExperimentSpec,
    LearningCurveTable,
    MethodSpec,
    RankingCriterion,
    ResourceSpec,
    UsageError,
    aggregate,
    emit_report,
    generate,
    read_cells,
    report_cells,
    run_cells,
    run_experiment,
    save,
    write_cells,
)
from tunesim import experiment
from tunesim.core import _moments, _std
from tunesim.experiment import (
    CELL_FIELDS,
    ExperimentReport,
    MethodRow,
    reference_method,
    resolve_tables,
)
from tunesim.simulator import _speedup_factor

from util import table_from_rows

SMALL_MODEL = CurveModel(crossing_horizon=2, head_count=4)


def small_spec(**kw):
    defaults = dict(
        methods=(MethodSpec.parse("asha"), MethodSpec.parse("one-epoch")),
        resources=ResourceSpec(1, 3, 9),
        num_configs=8,
    )
    defaults.update(kw)
    return ExperimentSpec(**defaults)


def generated_tables(spec, units=9):
    """One SMALL_MODEL table per benchmark seed of spec, for run_cells."""
    return {
        bs: generate(spec.num_configs, units, SMALL_MODEL, bs) for bs in spec.benchmark_seeds
    }


def seed_files(tmp_path, seeds):
    """Save small_spec's 8-config, 9-unit table per seed as bench-{seed}.csv;
    return the path pattern."""
    for bs in seeds:
        save(generate(8, 9, SMALL_MODEL, bs), str(tmp_path / f"bench-{bs}.csv"))
    return str(tmp_path / "bench-{seed}.csv")


class TestMethodSpec:
    def test_plain_mode(self):
        spec = MethodSpec.parse("asha")
        assert spec == MethodSpec(name="asha", mode="asha")

    def test_progressive_mode_with_criterion(self):
        spec = MethodSpec.parse("pasha:soft:0.05")
        assert spec.name == "pasha:soft:0.05"
        assert spec.mode == "pasha"
        assert spec.criterion.kind == "soft"
        assert spec.criterion.epsilon == 0.05

    def test_progressive_mode_without_criterion_defers_to_the_default(self):
        assert MethodSpec.parse("pasha").criterion is None

    def test_criterion_on_a_fixed_mode_is_refused(self):
        with pytest.raises(UsageError, match="takes no ranking criterion"):
            MethodSpec.parse("asha:soft:0.025")

    def test_unknown_mode(self):
        with pytest.raises(UsageError, match="unknown method 'sha'"):
            MethodSpec.parse("sha")

    def test_bad_criterion_spelling_propagates(self):
        with pytest.raises(UsageError):
            MethodSpec.parse("pasha:bogus")

    def test_options_plumb_through(self):
        spec = dataclasses.replace(MethodSpec.parse("pasha"), pair_below_cap=True)
        assert spec.pair_below_cap
        spec = dataclasses.replace(MethodSpec.parse("random"), random_draws=7)
        assert spec.random_draws == 7

    @pytest.mark.parametrize(
        "token, options, name",
        [
            ("asha", {"pair_below_cap": True}, "pair_below_cap"),
            ("random", {"pair_below_cap": True}, "pair_below_cap"),
            ("pasha:direct", {"random_draws": 3}, "random_draws"),
            ("one-epoch", {"random_draws": 3}, "random_draws"),
        ],
    )
    def test_options_outside_their_mode_are_refused(self, token, options, name):
        with pytest.raises(UsageError, match=f"{name} applies only to mode"):
            dataclasses.replace(MethodSpec.parse(token), **options)
        with pytest.raises(UsageError, match=f"{name} applies only to mode"):
            MethodSpec(name=token, mode=token.partition(":")[0], **options)

    @pytest.mark.parametrize("mode", ["asha", "one-epoch", "no-increase", "random"])
    def test_criterion_outside_pasha_is_refused(self, mode):
        with pytest.raises(UsageError, match=f"criterion applies only to mode 'pasha', not '{mode}'"):
            MethodSpec(name=mode, mode=mode, criterion=RankingCriterion("rbo"))


class TestExperimentSpec:
    def test_requires_a_method(self):
        with pytest.raises(UsageError, match="at least one method"):
            small_spec(methods=())

    def test_rejects_duplicate_method_names(self):
        with pytest.raises(UsageError, match="duplicate"):
            small_spec(methods=(MethodSpec.parse("asha"), MethodSpec.parse("asha")))

    def test_rejects_zero_workers(self):
        with pytest.raises(UsageError, match="workers"):
            small_spec(workers=0)

    def test_rejects_empty_seed_lists(self):
        with pytest.raises(UsageError, match="seed"):
            small_spec(scheduler_seeds=())
        with pytest.raises(UsageError, match="seed"):
            small_spec(benchmark_seeds=())

    @pytest.mark.parametrize(
        "field, seeds, seed, what",
        [
            ("scheduler_seeds", (0, 0, 1), 0, "scheduler"),
            ("scheduler_seeds", (3, 1, 2, 3, 1), 1, "scheduler"),
            ("benchmark_seeds", (2, 2), 2, "benchmark"),
        ],
    )
    def test_rejects_a_repeated_seed(self, field, seeds, seed, what):
        with pytest.raises(
            UsageError, match=f"^seed {seed} is listed more than once in the {what} seeds$"
        ):
            small_spec(**{field: seeds})

    def test_rejects_unknown_report_format(self):
        with pytest.raises(UsageError, match="format"):
            small_spec(format="html")


class TestResolveTables:
    def test_without_a_benchmark_path_is_a_usage_error(self):
        with pytest.raises(UsageError, match="pass tables to run_cells"):
            resolve_tables(small_spec())
        with pytest.raises(UsageError, match="pass tables to run_cells"):
            run_experiment(small_spec())

    def test_shared_file_is_loaded_once(self, tmp_path):
        path = str(tmp_path / "bench.csv")
        save(generate(8, 9, SMALL_MODEL, 0), path)
        spec = small_spec(benchmark=path, benchmark_seeds=(0, 1))
        tables = resolve_tables(spec)
        assert tables[0] is tables[1]

    def test_missing_seed_files_are_imputed_by_averaging(self, tmp_path):
        t0 = generate(6, 9, SMALL_MODEL, 0)
        t2 = generate(6, 9, SMALL_MODEL, 2)
        save(t0, str(tmp_path / "bench-0.csv"))
        save(t2, str(tmp_path / "bench-2.csv"))
        spec = small_spec(
            benchmark=str(tmp_path / "bench-{seed}.csv"),
            benchmark_seeds=(0, 1, 2),
        )
        tables = resolve_tables(spec)
        assert tables[0] == t0
        assert tables[2] == t2
        for row, config in enumerate(t0.config_ids()):
            expect = [
                statistics.fmean(pair)
                for pair in zip(t0.metrics[row].tolist(), t2.metrics[row].tolist())
            ]
            assert tables[1].metrics[row].tolist() == expect
            assert tables[1].final_metric(config) == statistics.fmean(
                (t0.final_metric(config), t2.final_metric(config))
            )
            assert tables[1].costs[row].tolist() == [
                statistics.fmean(pair)
                for pair in zip(t0.costs[row].tolist(), t2.costs[row].tolist())
            ]

    def test_imputation_is_fmean_per_value_not_np_mean(self, tmp_path):
        # over three seeds, np.mean's rounding differs from fmean in some cells
        available = [generate(64, 9, CurveModel(noise_std=0.01, hard=True), s) for s in (0, 1, 2)]
        for seed, table in enumerate(available):
            save(table, str(tmp_path / f"bench-{seed}.csv"))
        spec = small_spec(
            benchmark=str(tmp_path / "bench-{seed}.csv"), benchmark_seeds=(0, 1, 2, 3)
        )
        imputed = resolve_tables(spec)[3]
        for name in ("metrics", "costs", "finals"):
            columns = zip(*(getattr(t, name).ravel().tolist() for t in available))
            expect = [statistics.fmean(v) for v in columns]
            assert getattr(imputed, name).ravel().tolist() == expect
        stacked = np.mean([t.metrics for t in available], axis=0)
        assert (stacked != imputed.metrics).any()

    def test_no_seed_file_at_all_is_an_error(self, tmp_path):
        spec = small_spec(
            benchmark=str(tmp_path / "nope-{seed}.csv"),
            benchmark_seeds=(0, 1),
        )
        with pytest.raises(DataError, match="no benchmark file exists"):
            resolve_tables(spec)

    def test_disagreeing_seed_files_cannot_impute(self, tmp_path):
        save(generate(6, 9, SMALL_MODEL, 0), str(tmp_path / "bench-0.csv"))
        save(generate(7, 9, SMALL_MODEL, 2), str(tmp_path / "bench-2.csv"))
        spec = small_spec(
            benchmark=str(tmp_path / "bench-{seed}.csv"),
            benchmark_seeds=(0, 1, 2),
            num_configs=6,
        )
        with pytest.raises(DataError, match="cannot impute"):
            resolve_tables(spec)


MAX = sys.float_info.max
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, MAX, -MAX, 1.0, -0.5]


@st.composite
def value_groups(draw, k):
    """One value of k tables: any floats, special ones, or k 53-bit mantissas
    at one exponent shifted 0-10 bits apart, around that of 1 or anywhere from
    the subnormals to near float max; 10 bits is past the exact sum's reach."""
    kind = draw(st.sampled_from(["any", "special", "near", "near"]))
    if kind == "any":
        return [draw(st.floats(allow_nan=False, allow_infinity=False)) for _ in range(k)]
    if kind == "special":
        return [draw(st.sampled_from(SPECIAL)) for _ in range(k)]
    low = draw(st.one_of(st.integers(-60, -50), st.integers(-1100, 961)))
    mantissa, shift = st.integers(-(2**53) + 1, 2**53 - 1), st.integers(0, 10)
    return [math.ldexp(draw(mantissa), low + draw(shift)) for _ in range(k)]


@st.composite
def seed_tables(draw):
    """1-5 tables of 1-70 configs (past one 64-row chunk) x 1-2 units, each
    value one of 1-10 value_groups placed at random; costs take each value's
    magnitude."""
    k, n, units = draw(st.integers(1, 5)), draw(st.integers(1, 70)), draw(st.integers(1, 2))
    groups = np.array(draw(st.lists(value_groups(k), min_size=1, max_size=10)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    values = groups[rng.integers(0, len(groups), n * (2 * units + 1))].T.reshape(k, n, -1)
    costs = np.abs(values[:, :, units:-1])
    costs[costs == 0] = 5e-324
    return [
        LearningCurveTable(ids=range(n), metrics=v[:, :units], costs=c, finals=v[:, -1])
        for v, c in zip(values, costs)
    ]


def _fmean_or_exact(values):
    """statistics.fmean, or where fsum refuses a finite sum whose partial sums
    overflow, that sum rounded once over len(values); OverflowError if the sum
    itself is beyond the float range."""
    try:
        return statistics.fmean(values)
    except OverflowError:
        return float(sum(map(Fraction, values))) / len(values)


class TestAverageTables:
    @settings(max_examples=300, deadline=None)
    @given(tables=seed_tables())
    def test_equals_fmean_per_value(self, tables):
        expect = {}
        try:
            for name in ("metrics", "costs", "finals"):
                columns = zip(*(getattr(t, name).ravel().tolist() for t in tables))
                expect[name] = [_fmean_or_exact(v).hex() for v in columns]
        except OverflowError:
            with pytest.raises(DataError, match="overflows a float"):
                experiment._average_tables(tables)
            return
        mean = experiment._average_tables(tables)
        for name, values in expect.items():
            assert [v.hex() for v in getattr(mean, name).ravel().tolist()] == values

    @pytest.mark.parametrize("values", [[MAX, MAX, -MAX], [MAX, MAX, -MAX, 1.0]])
    def test_a_finite_sum_fsum_refuses_is_still_averaged(self, values):
        # the first sum is exact in int64; the second's exponents spread too wide
        with pytest.raises(OverflowError):
            math.fsum(values)
        mean = experiment._average_tables([table_from_rows({0: [v]}) for v in values])
        assert mean.metrics[0, 0] == float(sum(map(Fraction, values))) / len(values)

    def test_overflow_names_the_value_and_config(self):
        tables = [table_from_rows({4: [1.0, MAX]}) for _ in range(2)]
        with pytest.raises(DataError, match="config 4's metric at unit 2 overflows a float"):
            experiment._average_tables(tables)


class TestFloatFacts:
    """What _average_tables' exact sum takes from numpy, pinned so that each
    supported Python and numpy checks it."""

    def test_int64_to_float64_rounds_half_to_even(self):
        ints = np.array([2**53 + 1, 2**53 + 3, -(2**53) - 1, -(2**53) - 3], dtype=np.int64)
        expect = [2.0**53, 2.0**53 + 4, -(2.0**53), -(2.0**53) - 4]
        assert ints.astype(np.float64).tolist() == expect

    @settings(max_examples=300, deadline=None)
    @given(st.integers(-(2**63), 2**63 - 1))
    def test_int64_to_float64_rounds_as_python_int_to_float(self, value):
        assert np.array([value], dtype=np.int64).astype(np.float64)[0] == float(value)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_frexp_mantissa_round_trip_is_exact(self, value):
        fraction, exponent = np.frexp(value)
        mantissa = np.ldexp(fraction, 53).astype(np.int64)
        assert abs(int(mantissa)) < 2**53 and mantissa == np.ldexp(fraction, 53)
        assert np.ldexp(float(mantissa), exponent - 53) == value

    def test_left_shift_of_a_negative_int64_is_multiplication(self):
        assert (np.array([-(2**53) + 1], dtype=np.int64) << 9).tolist() == [(-(2**53) + 1) * 2**9]


class TestRunCells:
    def test_grid_covers_every_combination(self):
        spec = small_spec(scheduler_seeds=(0, 1, 2), benchmark_seeds=(5, 6))
        cells = run_cells(spec, tables=generated_tables(spec))
        assert len(cells) == 2 * 3 * 2
        combos = {(c.method, c.scheduler_seed, c.benchmark_seed) for c in cells}
        assert len(combos) == 12
        assert all(c.runtime > 0 and c.units > 0 and c.jobs > 0 for c in cells)

    def test_metric_is_reported_in_display_direction(self):
        # a minimize benchmark is stored negated; reports restore the sign
        table = LearningCurveTable(
            ids=[0, 1], metrics=[[-0.5], [-0.6]], costs=[[1.0], [1.0]], finals=[-0.4, -0.3],
            flipped=True,
        )
        spec = small_spec(
            methods=(MethodSpec.parse("one-epoch"),),
            num_configs=2,
        )
        cells = run_cells(spec, tables={0: table})
        assert cells[0].metric == 0.4

    def test_failures_name_the_offending_cell(self):
        spec = small_spec(
            methods=(MethodSpec.parse("asha"),),
            resources=ResourceSpec(1, 3, 81),
            num_configs=81,
            scheduler_seeds=(4,),
            benchmark_seeds=(9,),
        )
        with pytest.raises(DataError, match=r"cell \(method 'asha', scheduler seed 4, benchmark seed 9\)"):
            run_cells(spec, tables=generated_tables(spec, units=27))

    def test_traces_are_written_with_sanitized_names(self, tmp_path):
        spec = small_spec(
            methods=(MethodSpec.parse("pasha:soft:0.025"),),
            scheduler_seeds=(1,),
        )
        run_cells(spec, tables=generated_tables(spec), traces_dir=str(tmp_path))
        assert os.path.exists(tmp_path / "pasha_soft_0.025-s1-b0.trace")


class TestAggregate:
    def cell(self, method, ss, bs, metric, runtime, max_r=9):
        return CellResult(
            method=method, scheduler_seed=ss, benchmark_seed=bs,
            metric=metric, runtime=runtime, max_resources=max_r, units=10, jobs=5,
        )

    def test_single_cell_row_is_verbatim(self):
        report = aggregate([self.cell("pasha", 0, 0, 0.91, 120.0)])
        row = report.rows[0]
        assert row.name == "pasha"
        assert row.metric_mean == 0.91 and row.metric_std == 0.0
        assert row.runtime_mean == 120.0 and row.runtime_std == 0.0
        assert row.max_resources_mean == 9.0 and row.max_resources_std == 0.0
        assert row.speedup == 1.0 and row.repetitions == 1
        assert report.reference == "pasha"

    def test_reference_prefers_the_fixed_budget_baseline(self):
        assert reference_method(["one-epoch", "asha", "pasha"]) == "asha"
        assert reference_method(["one-epoch", "pasha"]) == "one-epoch"
        cells = [
            self.cell("one-epoch", 0, 0, 0.8, 50.0),
            self.cell("asha", 0, 0, 0.9, 200.0),
        ]
        report = aggregate(cells)
        by_name = {r.name: r for r in report.rows}
        assert report.reference == "asha"
        assert by_name["asha"].speedup == 1.0
        assert by_name["one-epoch"].speedup == 4.0

    def test_zero_runtime_method_is_infinitely_fast(self):
        cells = [
            self.cell("asha", 0, 0, 0.9, 200.0),
            self.cell("random", 0, 0, 0.7, 0.0),
        ]
        by_name = {r.name: r for r in aggregate(cells).rows}
        assert by_name["random"].speedup == math.inf

    def test_matches_an_independent_recomputation(self):
        cells = []
        for method, base in (("asha", 0.90), ("pasha:soft:0.025", 0.89)):
            for ss in range(3):
                for bs in range(2):
                    cells.append(
                        self.cell(
                            method, ss, bs,
                            base + 0.01 * ss - 0.002 * bs,
                            100.0 + 13.0 * ss + 7.0 * bs + (0.0 if method == "asha" else -40.0),
                            max_r=81 if method == "asha" else 27,
                        )
                    )
        report = aggregate(cells)
        for row in report.rows:
            mine = [c for c in cells if c.method == row.name]
            assert row.repetitions == 6
            assert row.metric_mean == pytest.approx(
                statistics.fmean(c.metric for c in mine), rel=1e-15
            )
            assert row.metric_std == pytest.approx(
                statistics.stdev(c.metric for c in mine), rel=1e-15
            )
            assert row.runtime_mean == pytest.approx(
                statistics.fmean(c.runtime for c in mine), rel=1e-15
            )
        ref = statistics.fmean(c.runtime for c in cells if c.method == "asha")
        other = statistics.fmean(c.runtime for c in cells if c.method != "asha")
        assert report.rows[1].speedup == pytest.approx(ref / other, rel=1e-15)

    def test_cell_order_does_not_matter(self):
        cells = [
            self.cell("asha", ss, bs, 0.9 + 0.01 * ss, 100.0 + bs)
            for ss in range(3)
            for bs in range(2)
        ]
        assert aggregate(cells) == aggregate(list(reversed(cells)))

    def test_empty_and_inconsistent_inputs(self):
        with pytest.raises(DataError, match="no cells"):
            aggregate([])
        with pytest.raises(DataError, match="unknown method"):
            aggregate([self.cell("asha", 0, 0, 0.9, 1.0)], method_order=["pasha"])
        with pytest.raises(DataError, match="has no cells"):
            aggregate([self.cell("asha", 0, 0, 0.9, 1.0)], method_order=["asha", "pasha"])

    @pytest.mark.parametrize(
        "bad, field",
        [
            ((math.nan, 1.0, 9), "metric"),
            ((0.9, math.inf, 9), "runtime"),
            ((0.9, 1.0, math.nan), "max resource"),
        ],
    )
    def test_non_finite_cells_are_a_data_error_naming_the_method(self, bad, field):
        metric, runtime, max_r = bad
        cells = [
            self.cell("asha", 0, 0, 0.9, 1.0),
            self.cell("pasha", 0, 0, metric, runtime, max_r),
        ]
        with pytest.raises(DataError, match=f"method 'pasha' .* non-finite {field}"):
            aggregate(cells)

    def test_opposite_infinities_are_named_too(self):
        cells = [self.cell("asha", 0, 0, 0.9, math.inf), self.cell("asha", 1, 0, 0.9, -math.inf)]
        with pytest.raises(DataError, match="method 'asha' .* non-finite runtime"):
            aggregate(cells)

    def test_two_cells_give_the_sample_std(self):
        cells = [self.cell("asha", 0, 0, 0.5, 0.0), self.cell("asha", 1, 0, 0.5, 2.0)]
        row = aggregate(cells).rows[0]
        assert row.metric_std == 0.0
        assert row.runtime_mean == 1.0 and row.runtime_std == math.sqrt(2.0)

    @settings(max_examples=60, deadline=None)
    @given(
        values=st.lists(
            st.tuples(
                st.sampled_from(("asha", "pasha", "random")),
                st.floats(-1e300, 1e300) | st.sampled_from((0.0, -0.0, 5e-324, 0.1)),
                st.floats(0.0, 1e300) | st.sampled_from((0.0, 5e-324, 0.3)),
                st.sampled_from((1, 3, 9, 27, 81)),
            ),
            min_size=1,
            max_size=30,
        ),
        data=st.data(),
    )
    def test_report_is_equal_under_any_permutation_of_its_cells(self, values, data):
        cells = [
            self.cell(method, i, 0, metric, runtime, max_r)
            for i, (method, metric, runtime, max_r) in enumerate(values)
        ]
        order = sorted({c.method for c in cells})
        shuffled = data.draw(st.permutations(cells))
        assert aggregate(shuffled, order) == aggregate(cells, order)


FLOATS = st.one_of(
    st.floats(0.0, 1.0),
    st.floats(-1e300, 1e300),
    st.sampled_from((0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 1e300, 0.9)),
)


class TestSpread:
    @pytest.mark.skipif(
        sys.version_info < (3, 11), reason="stdev rounds twice before Python 3.11"
    )
    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(FLOATS, min_size=2, max_size=60))
    def test_equals_statistics_stdev(self, values):
        assert _std(*_moments(np.array(values)), 1) == statistics.stdev(values)

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(FLOATS, min_size=2, max_size=60))
    def test_is_the_correctly_rounded_root_of_the_exact_sample_variance(self, values):
        # oracle: the exact sample variance V in rationals; the float s is
        # correctly rounded iff sqrt(V) lies within the midpoints to its neighbors
        exact = [Fraction(v) for v in values]
        mean = sum(exact) / len(exact)
        variance = sum((x - mean) ** 2 for x in exact) / (len(exact) - 1)
        s = _std(*_moments(np.array(values)), 1)
        below = max(Fraction(0), (Fraction(s) + Fraction(math.nextafter(s, 0.0))) / 2)
        above = (Fraction(s) + Fraction(math.nextafter(s, math.inf))) / 2
        assert below**2 <= variance <= above**2

    @pytest.mark.parametrize("value", [0.1, -0.0, 5e-324, 1e300, -7.0])
    def test_constant_and_single_value_columns_have_no_spread(self, value):
        for n in (1, 2, 3, 57):
            assert _std(*_moments(np.full(n, value)), 1) == 0.0

    @pytest.mark.parametrize(
        "pair, expected",
        [
            ((0.0, 2.0), math.sqrt(2.0)),
            ((5e-324, 0.0), 5e-324),
            ((-(2.0**900), 2.0**900), math.sqrt(2.0) * 2.0**900),
        ],
    )
    def test_two_values(self, pair, expected):
        assert _std(*_moments(np.array(pair)), 1) == expected


class TestReportEmission:
    def report(self):
        rows = (
            MethodRow("asha", 0.9123, 0.0012, 7200.0, 360.0, 1.0, 81.0, 0.0, 20),
            MethodRow("pasha:soft:0.025", 0.9101, 0.0034, 3600.0, 180.0, 2.0, 27.0, 9.0, 20),
            MethodRow("random", 0.8413, 0.0512, 0.0, 0.0, math.inf, 0.0, 0.0, 20),
        )
        return ExperimentReport(rows=rows, metric_name="accuracy", reference="asha")

    def test_markdown_layout_is_stable(self):
        expected = (
            "| Method | accuracy | Runtime | Speedup | Max resources | Repetitions |\n"
            "| --- | --- | --- | --- | --- | --- |\n"
            "| asha | 0.9123 ± 0.0012 | 2.0h ± 0.1h | 1.0x | 81.0 ± 0.0 | 20 |\n"
            "| pasha:soft:0.025 | 0.9101 ± 0.0034 | 1.0h ± 0.1h | 2.0x | 27.0 ± 9.0 | 20 |\n"
            "| random | 0.8413 ± 0.0512 | 0.0s ± 0.0s | -- | 0.0 ± 0.0 | 20 |\n"
        )
        assert emit_report(self.report(), "markdown") == expected

    def test_runtime_switches_to_hours_at_a_tenth_of_an_hour(self):
        row = MethodRow("m", 0.9, 0.0, 360.0, 0.0, 1.0, 9.0, 0.0, 1)
        report = ExperimentReport((row,), "accuracy", "m")
        assert "0.1h ± 0.0h" in emit_report(report)
        row = MethodRow("m", 0.9, 0.0, 359.9, 0.0, 1.0, 9.0, 0.0, 1)
        report = ExperimentReport((row,), "accuracy", "m")
        assert "359.9s ± 0.0s" in emit_report(report)

    def test_csv_preserves_raw_values_next_to_display_text(self):
        text = emit_report(self.report(), "csv")
        rows = list(csv.reader(io.StringIO(text)))
        header = rows[0]
        assert header[0] == "method"
        asha = dict(zip(header, rows[1]))
        assert float(asha["runtime_mean_s"]) == 7200.0
        assert asha["runtime_display"] == "2.0h±0.1h"
        assert float(asha["speedup"]) == 1.0
        rand = dict(zip(header, rows[3]))
        assert rand["speedup_display"] == "--"
        assert float(rand["speedup"]) == math.inf

    def test_method_names_with_commas_stay_one_field(self):
        row = MethodRow("pasha:rbo:p=0.9,t=0.99", 0.9, 0.0, 10.0, 0.0, 1.0, 9.0, 0.0, 1)
        report = ExperimentReport((row,), "accuracy", "pasha:rbo:p=0.9,t=0.99")
        rows = list(csv.reader(io.StringIO(emit_report(report, "csv"))))
        assert rows[1][0] == "pasha:rbo:p=0.9,t=0.99"

    def test_unknown_format_is_refused(self):
        with pytest.raises(UsageError, match="format"):
            emit_report(self.report(), "html")


# the fields of up to eight cells, method names holding csv's special characters
CELL_ROWS = st.lists(
    st.tuples(
        st.text(st.sampled_from('ab:,"\r\n \t') | st.characters(
            blacklist_categories=("Cs",), blacklist_characters="\x00"
        ), max_size=10),
        st.integers(-(2**80), 2**80),
        st.integers(-(2**80), 2**80),
        st.floats(allow_nan=False, allow_infinity=False)
        | st.sampled_from((-0.0, 5e-324, 2.2250738585072014e-308, 1e308)),
        st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from((-0.0, 1e308)),
        st.integers(0, 2**70),
        st.integers(0, 2**70),
        st.integers(0, 2**70),
    ),
    min_size=1,
    max_size=8,
)


class TestCellsIO:
    def cells(self):
        return [
            CellResult("asha", 0, 0, 0.912345678901234, 123.456789, 81, 594, 77),
            CellResult("pasha:soft:0.025", 1, 2, -0.25, 0.1 + 0.2, 9, 10, 5),
        ]

    def test_round_trip_preserves_floats_exactly(self, tmp_path):
        path = str(tmp_path / "cells.csv")
        write_cells(self.cells(), path)
        assert read_cells(path) == self.cells()

    def test_cell_is_a_named_tuple_equal_to_its_plain_tuple(self):
        cell = CellResult(
            method="asha", scheduler_seed=0, benchmark_seed=0, metric=0.9,
            runtime=1.5, max_resources=81, units=594, jobs=77,
        )
        assert cell == ("asha", 0, 0, 0.9, 1.5, 81, 594, 77)
        assert cell._fields == (
            "method", "scheduler_seed", "benchmark_seed", "metric",
            "runtime", "max_resources", "units", "jobs",
        )
        assert repr(cell) == (
            "CellResult(method='asha', scheduler_seed=0, benchmark_seed=0, metric=0.9, "
            "runtime=1.5, max_resources=81, units=594, jobs=77)"
        )

    @settings(
        max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(rows=CELL_ROWS)
    def test_write_then_read_gives_the_same_cells(self, tmp_path, rows):
        cells = [CellResult(*row) for row in rows]
        path = str(tmp_path / "cells.csv")
        write_cells(cells, path)
        back = read_cells(path)
        assert [repr(c) for c in back] == [repr(c) for c in cells]  # repr tells -0.0 from 0.0

    def test_carriage_return_in_a_method_name_survives(self, tmp_path):
        path = str(tmp_path / "cells.csv")
        cells = [
            CellResult("c\rd", 0, 0, 0.5, 1.0, 9, 10, 5),
            CellResult("e\r\nf", 0, 0, 0.5, 1.0, 9, 10, 5),
        ]
        write_cells(cells, path)
        assert read_cells(path) == cells

    def test_each_method_name_is_one_object(self, tmp_path):
        path = str(tmp_path / "cells.csv")
        write_cells(self.cells() * 3, path)
        back = read_cells(path)
        assert len({id(c.method) for c in back}) == 2

    @pytest.mark.parametrize(
        "metric, runtime, field",
        [("nan", "1.0", "metric"), ("0.9", "inf", "runtime"), ("-inf", "nan", "metric")],
    )
    def test_non_finite_value_names_its_line(self, tmp_path, metric, runtime, field):
        path = str(tmp_path / "cells.csv")
        write_cells(self.cells(), path)
        with open(path, "a", newline="") as handle:
            handle.write(f"asha,0,1,{metric},{runtime},9,10,5\r\n")
        with pytest.raises(DataError, match=rf"cells\.csv:4: non-finite {field}"):
            read_cells(path)

    def test_non_finite_value_after_a_multi_line_name_names_its_physical_line(self, tmp_path):
        path = str(tmp_path / "cells.csv")
        write_cells([CellResult("a\nb", 0, 0, 0.5, 1.0, 9, 10, 5)], path)  # lines 2-3
        with open(path, "a", newline="") as handle:
            handle.write("asha,0,1,nan,1.0,9,10,5\r\n")
        with pytest.raises(DataError, match=r"cells\.csv:4: non-finite metric"):
            read_cells(path)

    def test_malformed_multi_line_record_names_its_first_line(self, tmp_path):
        path = str(tmp_path / "cells.csv")
        write_cells([CellResult("a\nb", 0, 0, 0.5, 1.0, 9, 10, 5)], path)  # lines 2-3
        with open(path, "a", newline="") as handle:
            handle.write('"c\r\nd",0,1\r\n')  # lines 4-5
        with pytest.raises(DataError, match=r"cells\.csv:4: expected 8 fields, got 3"):
            read_cells(path)

    def test_foreign_header_is_rejected(self, tmp_path):
        path = tmp_path / "cells.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(DataError, match="not a per-run cells file"):
            read_cells(str(path))

    def test_short_row_names_its_line(self, tmp_path):
        path = str(tmp_path / "cells.csv")
        write_cells(self.cells(), path)
        with open(path, "a") as handle:
            handle.write("asha,0,1\n")
        with pytest.raises(DataError, match=r"cells\.csv:4: expected 8 fields"):
            read_cells(path)

    def test_unparseable_number_names_its_line(self, tmp_path):
        path = tmp_path / "cells.csv"
        header = ",".join(
            ("method", "scheduler_seed", "benchmark_seed", "metric",
             "runtime_s", "max_resources", "units", "jobs")
        )
        path.write_text(header + "\nasha,zero,0,0.9,1.0,9,10,5\n")
        with pytest.raises(DataError, match=r"cells\.csv:2"):
            read_cells(str(path))

    def test_empty_file_is_an_error(self, tmp_path):
        path = str(tmp_path / "cells.csv")
        write_cells(self.cells(), path)
        with open(path, "w") as handle:
            handle.write(
                "method,scheduler_seed,benchmark_seed,metric,"
                "runtime_s,max_resources,units,jobs\n"
            )
        with pytest.raises(DataError, match="no data rows"):
            read_cells(path)


# Spellings the one-pass parser and the row-by-row reader must read alike: ones
# int() and float() accept and numpy may not, non-finite values, quoted and
# half-quoted method names with line breaks inside quotes, and blank lines.
_CELL_INTS = ["1_0", "+7", " 7 ", '"7"', "٧", str(2**63), str(-(2**63) - 1), "-0", "1.0", ""]
_CELL_FLOATS = ["Infinity", "-inf", "nan", "1_0.5", "+.5", " 0.5 ", '"0.5"', "1e999", "0x1p-2"]
_CELL_NAMES = ['"a"b', '"c\r\nd"', '"e\nf"', '"g\rh"', '""', ' "a,b"', '"x""y"', '"open']

_CELL_MUTATIONS = st.one_of(
    st.tuples(st.just("field"), st.integers(0), st.sampled_from((1, 2, 5, 6, 7)),
              st.sampled_from(_CELL_INTS)),
    st.tuples(st.just("field"), st.integers(0), st.sampled_from((3, 4)),
              st.sampled_from(_CELL_FLOATS)),
    st.tuples(st.just("field"), st.integers(0), st.just(0), st.sampled_from(_CELL_NAMES)),
    st.tuples(st.just("copy-method"), st.integers(0), st.integers(0), st.just("")),
    st.tuples(st.just("insert"), st.integers(0), st.just(0), st.sampled_from(["", " "])),
)


def _csv_field(value: str) -> str:
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="").writerow([value])
    return buffer.getvalue()


def _mutate_cells(rows, mutation):
    """rows, one list of csv field texts per line, with one mutation applied."""
    kind, at, j, token = mutation
    i = at % len(rows)
    if kind == "insert":
        return rows[:i] + [[token]] + rows[i:]
    row = list(rows[i])
    if kind == "field":
        row[j % len(row)] = token
    else:  # copy-method: two rows of one method make a group of two
        row[0] = rows[j % len(rows)][0]
    return rows[:i] + [row] + rows[i + 1 :]


def _outcome(read, path):
    """repr of what read(path) returns, which tells -0.0 from 0.0, or the error."""
    try:
        return repr(read(path))
    except (DataError, OverflowError) as exc:
        return type(exc).__name__, str(exc)


def _cells_by_line_only(path):
    with mock.patch.object(experiment, "_array_pass", lambda handle, dtype: None):
        return read_cells(path)


def _report_by_groups(cells):
    """aggregate's report worked out from a list of cells per method, the way
    aggregate did before it folded columns, each mean from the exact rational
    sum: the oracle for the grouping. A value or sum beyond float range is the
    DataError aggregate names it with."""
    groups = {}
    for cell in cells:
        groups.setdefault(cell.method, []).append(cell)

    def mean_std(name, field, values):
        try:
            floats = [float(v) for v in values]
        except OverflowError:
            raise DataError(f"method {name!r} has a cell whose {field} overflows a float")
        try:
            mean = float(sum(map(Fraction, floats))) / len(floats)
            return mean, _std(*_moments(np.array(floats)), 1)
        except OverflowError:
            raise DataError(f"method {name!r}: the mean or std of its {field} overflows a float")

    stats = {
        name: [
            mean_std(name, field, [getattr(c, attr) for c in group])
            for field, attr in (("metric", "metric"), ("runtime", "runtime"),
                                ("max resource", "max_resources"))
        ]
        for name, group in groups.items()
    }
    reference = reference_method(list(groups))
    rows = []
    for name, group in groups.items():
        (metric, metric_std), (runtime, runtime_std), (max_r, max_r_std) = stats[name]
        factor = 1.0 if name == reference else _speedup_factor(stats[reference][1][0], runtime)
        rows.append(MethodRow(name, metric, metric_std, runtime, runtime_std, factor,
                              max_r, max_r_std, len(group)))
    return ExperimentReport(tuple(rows), "metric", reference)


class TestOnePassCells:
    """read_cells parses rows in one numpy pass and falls back to the row-by-row
    reader: both must give the same cells or the same error. report_cells folds
    the same pass's columns and must give the report of those cells."""

    @settings(
        max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(rows=CELL_ROWS, mutations=st.lists(_CELL_MUTATIONS, max_size=3))
    def test_one_pass_row_by_row_and_column_fold_agree(self, tmp_path, rows, mutations):
        lines = [
            [_csv_field(method), str(ss), str(bs), repr(metric), repr(runtime), str(max_r),
             str(units), str(jobs)]
            for method, ss, bs, metric, runtime, max_r, units, jobs in rows
        ]
        for mutation in mutations:
            lines = _mutate_cells(lines, mutation)
        path = tmp_path / "cells.csv"
        path.write_bytes(
            "".join(",".join(line) + "\r\n" for line in [list(CELL_FIELDS), *lines]).encode()
        )
        path = str(path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cells = _outcome(read_cells, path)
            report = _outcome(report_cells, path)
        assert caught == []
        assert cells == _outcome(_cells_by_line_only, path)
        assert report == _outcome(lambda p: aggregate(read_cells(p)), path)
        assert report == _outcome(lambda p: _report_by_groups(read_cells(p)), path)

    def test_written_cells_take_the_one_pass(self, tmp_path):
        path = str(tmp_path / "cells.csv")
        cells = [
            CellResult(method, ss, 0, 0.5 + ss / 8, 10.0 * ss, 3**ss, 10, 5)
            for ss in range(4)
            for method in ("one-epoch", "asha", 'a "b",\r\nc')
        ]
        write_cells(cells, path)
        with mock.patch.object(
            experiment, "_cells_by_line", side_effect=AssertionError("fell back")
        ):
            assert read_cells(path) == cells
            assert report_cells(path) == aggregate(cells)


class TestRunExperiment:
    def test_end_to_end_report_and_persisted_cells_agree(self, tmp_path):
        cells_path = str(tmp_path / "cells.csv")
        spec = small_spec(
            benchmark=seed_files(tmp_path, (0, 1, 2)),
            scheduler_seeds=(0, 1),
            benchmark_seeds=(0, 1, 2),
        )
        report = run_experiment(spec, cells_out=cells_path)
        assert report.metric_name == "accuracy"
        assert [r.name for r in report.rows] == ["asha", "one-epoch"]
        assert all(r.repetitions == 6 for r in report.rows)
        again = aggregate(
            read_cells(cells_path), [m.name for m in spec.methods], "accuracy"
        )
        assert again == report

    def test_rerunning_the_same_spec_reproduces_the_report(self, tmp_path):
        spec = small_spec(
            benchmark=seed_files(tmp_path, (1,)), scheduler_seeds=(3,), benchmark_seeds=(1,)
        )
        assert run_experiment(spec) == run_experiment(spec)
