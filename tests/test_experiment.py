"""Experiment grids: table resolution, aggregation, and report emission."""

from __future__ import annotations

import csv
import io
import math
import os
import statistics

import pytest

from tunesim import (
    CellResult,
    Curve,
    CurveModel,
    DataError,
    ExperimentSpec,
    LearningCurveTable,
    MethodSpec,
    ResourceSpec,
    UsageError,
    aggregate,
    emit_report,
    generate,
    read_cells,
    run_cells,
    run_experiment,
    save,
    write_cells,
)
from tunesim.experiment import (
    ExperimentReport,
    MethodRow,
    reference_method,
    resolve_tables,
)

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
        spec = MethodSpec.parse("pasha", pair_below_cap=True)
        assert spec.pair_below_cap
        spec = MethodSpec.parse("random", random_draws=7)
        assert spec.random_draws == 7


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
        for config in t0.config_ids():
            expect = [
                statistics.fmean(pair)
                for pair in zip(t0.curves[config].metrics, t2.curves[config].metrics)
            ]
            assert list(tables[1].curves[config].metrics) == expect
            assert tables[1].curves[config].final_metric == statistics.fmean(
                (t0.curves[config].final_metric, t2.curves[config].final_metric)
            )

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
        curves = {
            0: Curve((-0.5,), (1.0,), -0.4),
            1: Curve((-0.6,), (1.0,), -0.3),
        }
        table = LearningCurveTable(resource_units=1, curves=curves, flipped=True)
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
