"""Experiment protocol: method sweeps over seeded repetitions, aggregation
into mean-and-std tables, and report emission.

A run is a grid of (method, scheduler seed, benchmark seed) cells. Each cell
is one simulation; aggregation is a deterministic fold over cells sorted by
seed, so results never depend on execution order. Speedup factors are ratios
of mean runtimes against the reference method (asha when present, else the
first method listed).
"""

from __future__ import annotations

import csv
import io
import math
import os
import statistics
from dataclasses import dataclass, replace

import numpy as np

from .benchgen import load
from .core import DataError, ResourceSpec, TunesimError, UsageError
from .ranking import RankingCriterion
from .scheduler import MODES, SchedulerConfig, check_mode_options
from .simulator import LearningCurveTable, simulate, write_trace

SEED_PLACEHOLDER = "{seed}"

REPORT_FORMATS = ("markdown", "csv")

CELL_FIELDS = (
    "method",
    "scheduler_seed",
    "benchmark_seed",
    "metric",
    "runtime_s",
    "max_resources",
    "units",
    "jobs",
)


@dataclass(frozen=True)
class MethodSpec:
    """One column of the comparison: a scheduling mode plus its options."""

    name: str
    mode: str
    criterion: RankingCriterion | None = None
    pair_below_cap: bool = False
    random_draws: int | None = None

    def __post_init__(self) -> None:
        check_mode_options(self)

    @classmethod
    def parse(
        cls,
        token: str,
        pair_below_cap: bool = False,
        random_draws: int | None = None,
    ) -> "MethodSpec":
        """Build from a method token such as "asha" or "pasha:soft:0.025".

        Everything after the first colon is a ranking criterion spelling and
        is only meaningful for the progressive mode.
        """
        mode, sep, rest = token.partition(":")
        if mode not in MODES:
            raise UsageError(
                f"unknown method {mode!r}; expected one of " + ", ".join(MODES)
            )
        criterion = None
        if sep:
            if mode != "pasha":
                raise UsageError(f"method {mode!r} takes no ranking criterion")
            criterion = RankingCriterion.parse(rest)
        return cls(
            name=token,
            mode=mode,
            criterion=criterion,
            pair_below_cap=pair_below_cap,
            random_draws=random_draws,
        )


@dataclass(frozen=True)
class ExperimentSpec:
    """A complete experiment: who runs, on what, and how often.

    The benchmark is a file path: a literal "{seed}" expands to each
    benchmark seed, and missing seed files are imputed by averaging the
    available ones elementwise. Without one, pass the tables to run_cells.
    """

    methods: tuple[MethodSpec, ...]
    resources: ResourceSpec
    num_configs: int
    benchmark: str | None = None
    workers: int = 1
    scheduler_seeds: tuple[int, ...] = (0,)
    benchmark_seeds: tuple[int, ...] = (0,)
    format: str = "markdown"

    def __post_init__(self) -> None:
        if not self.methods:
            raise UsageError("at least one method is required")
        names = [m.name for m in self.methods]
        if len(set(names)) != len(names):
            raise UsageError(f"duplicate method names: {names}")
        if self.workers < 1:
            raise UsageError(f"workers must be >= 1, got {self.workers}")
        if not self.scheduler_seeds or not self.benchmark_seeds:
            raise UsageError("need at least one scheduler seed and one benchmark seed")
        if self.format not in REPORT_FORMATS:
            raise UsageError(
                f"unknown report format {self.format!r}; expected one of "
                + ", ".join(REPORT_FORMATS)
            )


@dataclass(frozen=True)
class CellResult:
    """Outcome of one simulation in the repetition grid."""

    method: str
    scheduler_seed: int
    benchmark_seed: int
    metric: float  # chosen config's full-fidelity metric, display direction
    runtime: float  # simulated seconds
    max_resources: int
    units: int
    jobs: int


@dataclass(frozen=True)
class MethodRow:
    """Aggregated line of the report; stds use the n-1 denominator (0 for n=1)."""

    name: str
    metric_mean: float
    metric_std: float
    runtime_mean: float
    runtime_std: float
    speedup: float  # inf when this method spent no simulated time
    max_resources_mean: float
    max_resources_std: float
    repetitions: int


@dataclass(frozen=True)
class ExperimentReport:
    rows: tuple[MethodRow, ...]
    metric_name: str
    reference: str


def _average_tables(tables: list[LearningCurveTable]) -> LearningCurveTable:
    first = tables[0]
    for other in tables[1:]:
        if (
            other.resource_units != first.resource_units
            or not np.array_equal(other.ids, first.ids)
            or other.flipped != first.flipped
        ):
            raise DataError(
                "benchmark seeds disagree on units, direction, or config ids; "
                "cannot impute the missing seeds"
            )
    # statistics.fmean per value (np.mean rounds differently), one config at a time:
    # a table-sized list of Python floats would raise peak memory
    units = first.resource_units
    mean = np.empty((len(first.ids), 2 * units + 1))
    for i, out in enumerate(mean):
        rows = [[*t.metrics[i].tolist(), *t.costs[i].tolist(), t.finals.item(i)] for t in tables]
        out[:] = [statistics.fmean(v) for v in zip(*rows)]
    return replace(first, metrics=mean[:, :units], costs=mean[:, units:-1], finals=mean[:, -1])


def resolve_tables(spec: ExperimentSpec) -> dict[int, LearningCurveTable]:
    """One table per benchmark seed, loaded from the spec's benchmark path.

    A path without the seed placeholder is shared across all benchmark seeds.
    With the placeholder, seeds whose file is absent receive the elementwise
    average of the seeds that do exist.
    """
    if spec.benchmark is None:
        raise UsageError("no benchmark path to load tables from; pass tables to run_cells")
    if SEED_PLACEHOLDER not in spec.benchmark:
        table = load(spec.benchmark)
        return {bs: table for bs in spec.benchmark_seeds}
    available: dict[int, LearningCurveTable] = {}
    missing: list[int] = []
    for bs in spec.benchmark_seeds:
        path = spec.benchmark.replace(SEED_PLACEHOLDER, str(bs))
        if os.path.exists(path):
            available[bs] = load(path)
        else:
            missing.append(bs)
    if not available:
        raise DataError(f"no benchmark file exists for any seed of {spec.benchmark!r}")
    tables = dict(available)
    if missing:
        imputed = _average_tables([available[bs] for bs in sorted(available)])
        for bs in missing:
            tables[bs] = imputed
    return tables


def _trace_name(method: str, scheduler_seed: int, benchmark_seed: int) -> str:
    safe = method.replace(":", "_").replace("/", "_")
    return f"{safe}-s{scheduler_seed}-b{benchmark_seed}.trace"


def run_cells(
    spec: ExperimentSpec,
    tables: dict[int, LearningCurveTable] | None = None,
    traces_dir: str | None = None,
) -> list[CellResult]:
    """Simulate every (method, scheduler seed, benchmark seed) cell.

    Any simulation failure is re-raised with the offending cell named. With
    traces_dir set, each cell's event trace is written there as well.
    """
    if tables is None:
        tables = resolve_tables(spec)
    if traces_dir is not None:
        os.makedirs(traces_dir, exist_ok=True)
    cells: list[CellResult] = []
    for method in spec.methods:
        for ss in spec.scheduler_seeds:
            for bs in spec.benchmark_seeds:
                table = tables[bs]
                config = SchedulerConfig(
                    resources=spec.resources,
                    num_configs=spec.num_configs,
                    mode=method.mode,
                    criterion=method.criterion,
                    seed=ss,
                    pair_below_cap=method.pair_below_cap,
                    random_draws=method.random_draws,
                )
                try:
                    result = simulate(
                        config, table, spec.workers, collect_trace=traces_dir is not None
                    )
                except TunesimError as exc:
                    raise type(exc)(
                        f"cell (method {method.name!r}, scheduler seed {ss}, "
                        f"benchmark seed {bs}): {exc}"
                    ) from exc
                if traces_dir is not None and result.trace is not None:
                    write_trace(
                        result.trace, os.path.join(traces_dir, _trace_name(method.name, ss, bs))
                    )
                cells.append(
                    CellResult(
                        method=method.name,
                        scheduler_seed=ss,
                        benchmark_seed=bs,
                        metric=table.display_metric(result.chosen_metric_full),
                        runtime=result.wall_clock,
                        max_resources=result.max_resources,
                        units=result.units_consumed,
                        jobs=result.jobs_executed,
                    )
                )
    return cells


def _mean_std(values: list[float]) -> tuple[float, float]:
    mean = statistics.fmean(values)
    std = statistics.stdev(values) if len(values) > 1 else 0.0
    return mean, std


def reference_method(names: list[str]) -> str:
    for name in names:
        if name.split(":", 1)[0] == "asha":
            return name
    return names[0]


def aggregate(
    cells: list[CellResult],
    method_order: list[str] | None = None,
    metric_name: str = "metric",
) -> ExperimentReport:
    """Fold per-run cells into one row per method.

    Methods appear in method_order, or in first-appearance order when it is
    omitted. Cells are sorted by seed within each method before averaging, so
    the result is independent of the order the cells arrived in.
    """
    if not cells:
        raise DataError("no cells to aggregate")
    if method_order is None:
        method_order = []
        for cell in cells:
            if cell.method not in method_order:
                method_order.append(cell.method)
    groups: dict[str, list[CellResult]] = {name: [] for name in method_order}
    for cell in cells:
        if cell.method not in groups:
            raise DataError(f"cell names unknown method {cell.method!r}")
        groups[cell.method].append(cell)
    for name, group in groups.items():
        if not group:
            raise DataError(f"method {name!r} has no cells")
        group.sort(key=lambda c: (c.scheduler_seed, c.benchmark_seed))
    reference = reference_method(method_order)
    reference_runtime = statistics.fmean(c.runtime for c in groups[reference])
    rows = []
    for name in method_order:
        group = groups[name]
        metric_mean, metric_std = _mean_std([c.metric for c in group])
        runtime_mean, runtime_std = _mean_std([c.runtime for c in group])
        max_mean, max_std = _mean_std([float(c.max_resources) for c in group])
        if name == reference:
            factor = 1.0
        elif runtime_mean == 0.0:
            factor = math.inf
        else:
            factor = reference_runtime / runtime_mean
        rows.append(
            MethodRow(
                name=name,
                metric_mean=metric_mean,
                metric_std=metric_std,
                runtime_mean=runtime_mean,
                runtime_std=runtime_std,
                speedup=factor,
                max_resources_mean=max_mean,
                max_resources_std=max_std,
                repetitions=len(group),
            )
        )
    return ExperimentReport(rows=tuple(rows), metric_name=metric_name, reference=reference)


def run_experiment(
    spec: ExperimentSpec,
    traces_dir: str | None = None,
    cells_out: str | None = None,
) -> ExperimentReport:
    """Run the full grid and aggregate it; optionally persist per-run data."""
    tables = resolve_tables(spec)
    cells = run_cells(spec, tables=tables, traces_dir=traces_dir)
    if cells_out is not None:
        write_cells(cells, cells_out)
    metric_name = tables[spec.benchmark_seeds[0]].metric_name
    return aggregate(cells, [m.name for m in spec.methods], metric_name)


def _runtime_text(mean: float, std: float) -> str:
    # hours once the mean reaches 0.1 h; the std follows the mean's unit
    if mean >= 360.0:
        return f"{mean / 3600:.1f}h ± {std / 3600:.1f}h"
    return f"{mean:.1f}s ± {std:.1f}s"


def _speedup_text(factor: float) -> str:
    return f"{factor:.1f}x" if math.isfinite(factor) else "--"


def emit_report(report: ExperimentReport, format: str = "markdown") -> str:
    """Render the report; both formats carry the same numbers.

    The csv form additionally preserves raw seconds and raw ratios next to
    every formatted value, so nothing is lost to display rounding.
    """
    if format not in REPORT_FORMATS:
        raise UsageError(
            f"unknown report format {format!r}; expected one of " + ", ".join(REPORT_FORMATS)
        )
    if format == "markdown":
        lines = [
            f"| Method | {report.metric_name} | Runtime | Speedup | Max resources | Repetitions |",
            "| --- | --- | --- | --- | --- | --- |",
        ]
        for row in report.rows:
            lines.append(
                f"| {row.name} "
                f"| {row.metric_mean:.4f} ± {row.metric_std:.4f} "
                f"| {_runtime_text(row.runtime_mean, row.runtime_std)} "
                f"| {_speedup_text(row.speedup)} "
                f"| {row.max_resources_mean:.1f} ± {row.max_resources_std:.1f} "
                f"| {row.repetitions} |"
            )
        return "\n".join(lines) + "\n"
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(
        [
            "method",
            "repetitions",
            "metric_mean",
            "metric_std",
            "runtime_mean_s",
            "runtime_std_s",
            "runtime_display",
            "speedup",
            "speedup_display",
            "max_resources_mean",
            "max_resources_std",
        ]
    )
    for row in report.rows:
        writer.writerow(
            [
                row.name,
                row.repetitions,
                repr(row.metric_mean),
                repr(row.metric_std),
                repr(row.runtime_mean),
                repr(row.runtime_std),
                _runtime_text(row.runtime_mean, row.runtime_std).replace(" ", ""),
                repr(row.speedup),
                _speedup_text(row.speedup),
                repr(row.max_resources_mean),
                repr(row.max_resources_std),
            ]
        )
    return buffer.getvalue()


def write_cells(cells: list[CellResult], path: str) -> None:
    """Persist per-run results so reports can be re-derived later."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CELL_FIELDS)
        for c in cells:
            writer.writerow(
                [
                    c.method,
                    c.scheduler_seed,
                    c.benchmark_seed,
                    repr(c.metric),
                    repr(c.runtime),
                    c.max_resources,
                    c.units,
                    c.jobs,
                ]
            )


def read_cells(path: str) -> list[CellResult]:
    with open(path, "r", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != list(CELL_FIELDS):
            raise DataError(f"{path}: not a per-run cells file (unexpected header)")
        cells = []
        for number, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(CELL_FIELDS):
                raise DataError(
                    f"{path}:{number}: expected {len(CELL_FIELDS)} fields, got {len(row)}"
                )
            try:
                cells.append(
                    CellResult(
                        method=row[0],
                        scheduler_seed=int(row[1]),
                        benchmark_seed=int(row[2]),
                        metric=float(row[3]),
                        runtime=float(row[4]),
                        max_resources=int(row[5]),
                        units=int(row[6]),
                        jobs=int(row[7]),
                    )
                )
            except ValueError as exc:
                raise DataError(f"{path}:{number}: {exc}") from exc
    if not cells:
        raise DataError(f"{path}: no data rows")
    return cells
