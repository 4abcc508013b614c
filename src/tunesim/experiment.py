"""Experiment protocol: method sweeps over seeded repetitions, aggregation
into mean-and-std tables, and report emission.

A run is a grid of (method, scheduler seed, benchmark seed) cells. Each cell
is one simulation; aggregation sums each method's cells exactly, so results
never depend on execution order. Speedup factors are ratios of mean runtimes
against the reference method (asha when present, else the first method
listed).
"""

from __future__ import annotations

import csv
import io
import math
import os
import shutil
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .benchgen import _csv_field, _read_records, load
from .core import DataError, ResourceSpec, TunesimError, UsageError, _moments, _rounded, _std
from .ranking import RankingCriterion
from .scheduler import MODES, SchedulerConfig, _Mode
from .simulator import LearningCurveTable, _average_tables, _speedup_factor, simulate, write_trace

SEED_PLACEHOLDER = "{seed}"

REPORT_FORMATS = ("markdown", "csv")

# the cells file's columns in CellResult order: (header name, the type its text parses to,
# field count)
_CELL_COLUMNS = (
    ("method", str, 1), ("scheduler_seed", int, 1), ("benchmark_seed", int, 1), ("metric", float, 1),
    ("runtime_s", float, 1), ("max_resources", int, 1), ("units", int, 1), ("jobs", int, 1),
)
CELL_FIELDS = tuple(name for name, _, _ in _CELL_COLUMNS)


@dataclass(frozen=True)
class MethodSpec(_Mode):
    """One column of the comparison: a scheduling mode plus its options."""

    name: str

    @classmethod
    def parse(cls, token: str) -> "MethodSpec":
        """Build from a method token such as "asha" or "pasha:soft:0.025".

        Everything after the first colon is a ranking criterion spelling and
        is only meaningful for the progressive mode. Set the mode's options
        with dataclasses.replace, which checks them as the constructor does.
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
        return cls(name=token, mode=mode, criterion=criterion)


@dataclass(frozen=True)
class ExperimentSpec:
    """A complete experiment: who runs, on what, and how often.

    The benchmark is a file path: a literal "{seed}" expands to each
    benchmark seed, and missing seed files are imputed by averaging the
    available ones elementwise. Without one, pass the tables to run_cells.
    Each seed list names a seed at most once, and no scheduler seed is
    negative: random.Random(-s) draws exactly as random.Random(s).
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
        if self.num_configs < 1:
            raise UsageError(f"num_configs must be >= 1, got {self.num_configs}")
        if self.workers < 1:
            raise UsageError(f"workers must be >= 1, got {self.workers}")
        if not self.scheduler_seeds or not self.benchmark_seeds:
            raise UsageError("need at least one scheduler seed and one benchmark seed")
        if min(self.scheduler_seeds) < 0:  # it would repeat the cells of its absolute value
            raise UsageError(f"scheduler seeds must be >= 0, got {min(self.scheduler_seeds)}")
        for what, seeds in (("scheduler", self.scheduler_seeds), ("benchmark", self.benchmark_seeds)):
            ordered = sorted(seeds)  # a repeated seed would weight its cells twice in the report
            repeated = [a for a, b in zip(ordered, ordered[1:]) if a == b]
            if repeated:
                raise UsageError(f"seed {repeated[0]} is listed more than once in the {what} seeds")
        _check_format(self.format)


def _check_format(format: str) -> None:
    if format not in REPORT_FORMATS:
        raise UsageError(
            f"unknown report format {format!r}; expected one of " + ", ".join(REPORT_FORMATS)
        )


class CellResult(NamedTuple):
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
        try:
            imputed = _average_tables([available[bs] for bs in sorted(available)])
        except DataError as exc:
            raise DataError(
                f"cannot impute seeds {missing} of {spec.benchmark!r} "
                f"from the mean of seeds {sorted(available)}: {exc}"
            ) from None
        for bs in missing:
            tables[bs] = imputed
    return tables


def _trace_name(method: str, scheduler_seed: int, benchmark_seed: int) -> str:
    safe = method.replace(":", "_").replace("/", "_")
    return f"{safe}-s{scheduler_seed}-b{benchmark_seed}.trace"


# the modes whose runs start at one cap and can share an event loop (see simulate)
GROUPED_MODES = ("pasha", "no-increase")

# the fields a MethodSpec passes on to the SchedulerConfig of each of its runs
_MODE_FIELDS = tuple(f.name for f in fields(_Mode))


def run_cells(
    spec: ExperimentSpec,
    tables: dict[int, LearningCurveTable] | None = None,
    traces_dir: str | None = None,
) -> list[CellResult]:
    """Simulate every (method, scheduler seed, benchmark seed) cell.

    Any simulation failure is re-raised with the offending cell named. With
    traces_dir set, each cell's event trace is written there as well; two
    methods whose names _trace_name maps to the same file name are then a
    UsageError, before any cell runs.

    A pasha or no-increase cell is simulated together with the later pasha
    and no-increase cells of its seeds (simulate's also). The cells whose
    every growth decision matched take its result, and its trace file is
    copied for them when the loop reaches them; the others are simulated
    in their turn. Cells, traces and errors are those of one simulate call
    per cell.
    """
    if tables is None:
        tables = resolve_tables(spec)
    if traces_dir is not None:
        first: dict[str, str] = {}  # trace file name at seed 0 -> the first method named
        for method in spec.methods:
            other = first.setdefault(_trace_name(method.name, 0, 0), method.name)
            if other != method.name:
                raise UsageError(
                    f"methods {other!r} and {method.name!r} write the same trace files"
                )
        os.makedirs(traces_dir, exist_ok=True)

    def config(method: MethodSpec, ss: int) -> SchedulerConfig:
        options = {name: getattr(method, name) for name in _MODE_FIELDS}
        return SchedulerConfig(spec.resources, spec.num_configs, seed=ss, **options)

    # (method index, ss, bs) of a cell not yet reached that shares an earlier
    # cell's result -> (its result fields, that earlier cell's trace file)
    shared: dict[tuple[int, int, int], tuple[tuple, str | None]] = {}
    cells: list[CellResult] = []
    for i, method in enumerate(spec.methods):
        for ss in spec.scheduler_seeds:
            for bs in spec.benchmark_seeds:
                path = None
                if traces_dir is not None:
                    path = os.path.join(traces_dir, _trace_name(method.name, ss, bs))
                fields, source_path = shared.pop((i, ss, bs), (None, None))
                if fields is not None:
                    if path is not None:
                        shutil.copyfile(source_path, path)
                    cells.append(CellResult(method.name, ss, bs, *fields))
                    continue
                group = []  # the later methods whose cells here may share this one's result
                if method.mode in GROUPED_MODES:
                    group = [
                        j
                        for j in range(i + 1, len(spec.methods))
                        if spec.methods[j].mode in GROUPED_MODES and (j, ss, bs) not in shared
                    ]
                table = tables[bs]
                try:
                    result = simulate(
                        config(method, ss),
                        table,
                        spec.workers,
                        collect_trace=path is not None,
                        also=tuple(config(spec.methods[j], ss) for j in group),
                    )
                except TunesimError as exc:
                    raise type(exc)(
                        f"cell (method {method.name!r}, scheduler seed {ss}, "
                        f"benchmark seed {bs}): {exc}"
                    ) from exc
                if path is not None:
                    write_trace(result.trace, path)
                fields = (
                    table.display_metric(result.chosen_metric_full),
                    result.wall_clock,
                    result.max_resources,
                    result.units_consumed,
                    result.jobs_executed,
                )
                for index in result.same:
                    shared[group[index], ss, bs] = (fields, path)
                cells.append(CellResult(method.name, ss, bs, *fields))
    return cells


def _mean_std(values: np.ndarray, method: str, field: str) -> tuple[float, float]:
    """Mean and sample std of one method's column, both from one exact sum
    per column (_moments). The mean is the sum rounded once, over n, as
    math.fsum(values) / n gives it whenever fsum returns. A value beyond
    float range, or a mean or std beyond it, is a DataError naming the
    method; no running sum is involved, so the order of the values cannot
    change which."""
    try:
        array = np.asarray(values, dtype=np.float64)
    except OverflowError:  # an int too large for a float
        raise DataError(f"method {method!r} has a cell whose {field} overflows a float") from None
    if not np.isfinite(array).all():
        raise DataError(f"method {method!r} has a cell with a non-finite {field}")
    n, s1, s2, low = _moments(array)
    try:
        return _rounded(s1, low) / n, _std(n, s1, s2, low, 1)
    except OverflowError:
        raise DataError(f"method {method!r}: the mean or std of its {field} overflows a float") from None


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
    omitted; a name listed twice in it is a UsageError. Each mean and std
    comes from one exact sum per column (_moments), rounded once, so neither
    the result nor a DataError refusing a mean or std beyond the float range
    depends on the order the cells arrived in. A non-finite metric, runtime
    or max resource is a DataError naming the method.
    """
    if not cells:
        raise DataError("no cells to aggregate")
    methods, _, _, metrics, runtimes, max_resources, _, _ = zip(*cells)
    names, codes = _method_codes(methods)
    columns = [np.array(column, dtype=object) for column in (metrics, runtimes, max_resources)]
    return _fold(names, codes, columns, method_order, metric_name)


def _method_codes(methods) -> tuple[list[str], np.ndarray]:
    """The distinct method names in first-appearance order, one string object
    per name, and each cell's index into them."""
    index: dict[str, int] = {}
    codes = [index.setdefault(method, len(index)) for method in methods]
    return list(index), np.array(codes, dtype=np.intp)


def _fold(
    names: list[str],
    codes: np.ndarray,
    columns: list[np.ndarray],
    method_order: list[str] | None,
    metric_name: str,
) -> ExperimentReport:
    """aggregate's report from columns: each cell's method as a code into
    names, and its metric, runtime and max resource.

    Each method's cells are one mask over the codes. The sums are exact, so
    the order of the cells cannot move a bit of the result.
    """
    if method_order is None:
        method_order = names
    slots = {name: k for k, name in enumerate(method_order)}
    if len(slots) != len(method_order):  # a repeated name would print its row twice
        repeated = next(name for k, name in enumerate(method_order) if slots[name] != k)
        raise UsageError(f"method {repeated!r} is listed more than once in the method order")
    for name in names:
        if name not in slots:
            raise DataError(f"cell names unknown method {name!r}")
    codes = np.array([slots[name] for name in names], dtype=np.intp)[codes]
    stats = {}
    for slot, name in enumerate(slots):
        mask = codes == slot
        count = int(np.count_nonzero(mask))
        if not count:
            raise DataError(f"method {name!r} has no cells")
        stats[name] = count, *(
            _mean_std(column[mask], name, field)
            for column, field in zip(columns, ("metric", "runtime", "max resource"))
        )
    reference = reference_method(method_order)
    reference_runtime = stats[reference][2][0]
    rows = []
    for name in method_order:
        count, (metric_mean, metric_std), (runtime_mean, runtime_std), (max_mean, max_std) = stats[name]
        factor = 1.0 if name == reference else _speedup_factor(reference_runtime, runtime_mean)
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
                repetitions=count,
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


# the csv report's columns: header name -> the field text of a MethodRow
_CSV_COLUMNS = {
    "method": lambda row: row.name,
    "repetitions": lambda row: row.repetitions,
    "metric_mean": lambda row: repr(row.metric_mean),
    "metric_std": lambda row: repr(row.metric_std),
    "runtime_mean_s": lambda row: repr(row.runtime_mean),
    "runtime_std_s": lambda row: repr(row.runtime_std),
    "runtime_display": lambda row: _runtime_text(row.runtime_mean, row.runtime_std).replace(" ", ""),
    "speedup": lambda row: repr(row.speedup),
    "speedup_display": lambda row: _speedup_text(row.speedup),
    "max_resources_mean": lambda row: repr(row.max_resources_mean),
    "max_resources_std": lambda row: repr(row.max_resources_std),
}


def emit_report(report: ExperimentReport, format: str = "markdown") -> str:
    """Render the report; both formats carry the same numbers.

    The csv form additionally preserves raw seconds and raw ratios next to
    every formatted value, so nothing is lost to display rounding.
    """
    _check_format(format)
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
    writer.writerow(_CSV_COLUMNS)
    writer.writerows([cell(row) for cell in _CSV_COLUMNS.values()] for row in report.rows)
    return buffer.getvalue()


def write_cells(cells: list[CellResult], path: str) -> None:
    """Persist per-run results so reports can be re-derived later.

    The bytes are csv.writer's: each row is one f-string, and a method name's
    field is the text csv.writer gives it, so a name holding a `,`, `"`, `\\r`
    or `\\n` is quoted.
    """
    names: dict[str, str] = {}  # method name -> its field text
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(CELL_FIELDS) + "\r\n")
        for method, ss, bs, metric, runtime, max_resources, units, jobs in cells:
            name = names.get(method)
            if name is None:
                name = names[method] = _csv_field(method)
            handle.write(
                f"{name},{ss},{bs},{metric!r},{runtime!r},{max_resources},{units},{jobs}\r\n"
            )


def read_cells(path: str) -> list[CellResult]:
    """Read a cells file back; a bad row, or a non-finite metric or runtime, is
    a DataError naming the first physical line of its record (see
    benchgen._read_records)."""
    names, codes, columns = _cell_columns(path)
    methods = [names[code] for code in codes.tolist()]
    return list(map(CellResult, methods, *(column.tolist() for column in columns)))


def report_cells(path: str) -> ExperimentReport:
    """The report of a cells file, equal to aggregate(read_cells(path)).

    Each method's metric, runtime and max resource columns are folded as
    read_cells parses them, without a CellResult per row.
    """
    names, codes, (_, _, metrics, runtimes, max_resources, _, _) = _cell_columns(path)
    return _fold(names, codes, [metrics, runtimes, max_resources], None, "metric")


def _cell_columns(path: str) -> tuple[list[str], np.ndarray, list[np.ndarray]]:
    """A cells file's method names in first-appearance order, each row's index
    into them, and its other seven fields as columns in CELL_FIELDS order."""

    def error(line: int, message) -> DataError:
        return DataError(f"{path}:{line}: {message}")

    try:
        with open(path, "r", encoding="utf-8", newline="") as handle:
            try:
                header = next(csv.reader([handle.readline()]), None)
            except csv.Error as exc:
                raise error(1, exc) from exc
            if header != list(CELL_FIELDS):
                raise DataError(f"{path}: not a per-run cells file (unexpected header)")
            methods, *columns = _read_records(handle, 1, _CELL_COLUMNS, _first_non_finite, error)
    except UnicodeDecodeError as exc:  # no line: the decoder reads ahead
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    if not methods.size:
        raise DataError(f"{path}: no data rows")
    names, codes = _method_codes(methods.tolist())
    return names, codes, columns


def _first_non_finite(_method, _ss, _bs, metrics, runtimes, *_) -> tuple[int, str] | None:
    """The first cell whose metric or runtime is not finite, with the reason."""
    bad = ~(np.isfinite(metrics) & np.isfinite(runtimes))
    if not bad.any():
        return None
    row = int(bad.argmax())
    return row, f"non-finite {'runtime' if math.isfinite(metrics[row]) else 'metric'}"
