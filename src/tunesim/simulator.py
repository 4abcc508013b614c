"""Deterministic discrete-event simulation of parallel asynchronous workers
executing scheduler jobs against a tabulated learning-curve benchmark.

Parallelism exists only inside the simulation's model of time: the event loop
itself is single threaded, events are processed in (time, worker index) order,
and a rerun with the same inputs is byte identical.
"""

from __future__ import annotations

import heapq
import math
import statistics
from bisect import insort
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .core import ConfigId, DataError, InternalError, RungLadder, UsageError, _left_sum
from .scheduler import Job, Scheduler, SchedulerConfig, _draws


@dataclass
class LearningCurveTable:
    """Tabulated benchmark: per config, a metric and a cost per resource unit.

    Row i of each read-only array belongs to config ids[i], in ascending id
    order: metrics[i, u - 1] is the value after u units, costs[i, u - 1] the
    wall-clock seconds of unit u, finals[i] the full-fidelity metric used for
    reporting and payloads[i] an optional opaque hyperparameter description.
    The arguments may list the configs in any order; the table keeps sorted
    copies.

    Metrics are stored larger-is-better; tables loaded from a minimize-direction
    file are negated on ingestion and marked flipped so reports can restore the
    original sign.
    """

    ids: np.ndarray
    metrics: np.ndarray
    costs: np.ndarray
    finals: np.ndarray
    payloads: Sequence[str] | None = None  # None: an empty payload per config
    metric_name: str = "metric"
    unit_label: str = "unit"
    flipped: bool = False
    resource_units: int = field(init=False)
    _rows: dict[ConfigId, int] = field(init=False, repr=False)  # config id -> row
    # (start, target) -> every row's cost of those units; see incremental_cost
    _segments: dict[tuple[int, int], np.ndarray] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        ids = np.asarray(self.ids)
        if ids.dtype.kind not in "iu":  # ids beyond int64 stay Python ints
            ids = np.array(self.ids, dtype=object)
        try:
            metrics, costs = (np.asarray(a, dtype=np.float64) for a in (self.metrics, self.costs))
        except ValueError as error:  # rows of different lengths, or values that are no numbers
            raise _ragged_rows(ids, self.metrics, self.costs) or error
        finals = np.asarray(self.finals, dtype=np.float64)
        n = ids.size
        payloads = ("",) * n if self.payloads is None else tuple(self.payloads)
        if n == 0:
            raise DataError("a benchmark needs at least one config")
        shapes = ids.shape, metrics.shape[:-1], costs.shape[:-1], finals.shape, (len(payloads),)
        if set(shapes) != {(n,)}:  # metrics and costs hold one row per config
            raise DataError(f"one id, metric row, cost row, final and payload per config: {shapes}")
        units = metrics.shape[1]
        if units < 1:
            raise DataError(f"resource_units must be >= 1, got {units}")
        if costs.shape[1] != units:
            raise DataError(
                f"every metric row has {units} entries but every cost row has {costs.shape[1]}"
            )
        order = np.argsort(ids, kind="stable")
        ids, metrics, costs, finals = ids[order], metrics[order], costs[order], finals[order]
        bad = _first_bad_row(ids, metrics, costs, finals)
        if bad is not None:
            raise DataError(bad[1])
        for array in (ids, metrics, costs, finals):
            array.flags.writeable = False
        self.ids, self.metrics, self.costs, self.finals = ids, metrics, costs, finals
        self.payloads = tuple([payloads[i] for i in order.tolist()])
        self.resource_units = units
        self._rows = dict(zip(ids.tolist(), range(n)))
        self._segments = {}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LearningCurveTable):
            return NotImplemented
        arrays = ("ids", "metrics", "costs", "finals")
        return all(np.array_equal(getattr(self, a), getattr(other, a)) for a in arrays) and (
            (self.payloads, self.metric_name, self.unit_label, self.flipped)
            == (other.payloads, other.metric_name, other.unit_label, other.flipped)
        )

    def config_ids(self) -> list[ConfigId]:
        return self.ids.tolist()

    def _row(self, config: ConfigId) -> int:
        row = self._rows.get(config)
        if row is None:
            raise DataError(f"no curve for config {config}")
        return row

    def _check_units(self, config: ConfigId, resource: int) -> None:
        if not isinstance(resource, int) or isinstance(resource, bool):
            raise DataError(f"resource must be an integer unit, got {resource!r}")
        if not 1 <= resource <= self.resource_units:
            raise DataError(
                f"curve for config {config} covers {self.resource_units} units; "
                f"requested {resource}"
            )

    def metric(self, config: ConfigId, resource: int) -> float:
        """Metric after training config for resource units (1-indexed)."""
        row = self._rows.get(config)
        if row is None or resource.__class__ is not int or not 0 < resource <= self.resource_units:
            row = self._row(config)
            self._check_units(config, resource)
        return self.metrics.item(row, resource - 1)

    def incremental_cost(self, config: ConfigId, start: int, target: int) -> float:
        """Seconds to continue config from start units (already paid) to target.

        The first call for a (start, target) range sums that range for every
        row at once and keeps the n sums, so the table grows by one n-vector
        per distinct range; the simulator asks for one range per ladder level.
        The columns are added left to right, and each elementwise IEEE
        addition rounds as the per-row left fold does (np.sum would not).
        """
        row = self._rows.get(config)
        if row is None or target.__class__ is not int or not (
            0 <= start < target <= self.resource_units
        ):
            row = self._row(config)
            if not 0 <= start < target:
                raise InternalError(f"bad resume range ({start}, {target}] for config {config}")
            self._check_units(config, target)
        sums = self._segments.get((start, target))
        if sums is None:
            sums = self._segments[start, target] = _left_sum(self.costs[:, start:target].T)
        return sums.item(row)

    def final_metric(self, config: ConfigId) -> float:
        return self.finals.item(self._row(config))

    def display_metric(self, value: float) -> float:
        """Undo the ingestion negation for minimize-direction benchmarks."""
        return -value if self.flipped else value


def _ragged_rows(ids: np.ndarray, metrics, costs) -> DataError | None:
    """The refusal naming the first config, in id order, whose metric or cost row
    length differs from the commonest metric row length; None if no row does."""
    rows = sorted(zip(ids.tolist(), map(len, metrics), map(len, costs)))
    width = statistics.mode(m for _, m, _ in rows) if rows else None
    for config, m, c in rows:
        if m != width or c != width:
            return DataError(
                f"curve for config {config} has {m} metric and {c} cost entries; expected {width}"
            )
    return None


def _first_bad_row(ids: np.ndarray, metrics, costs, finals) -> tuple[int, str] | None:
    """The first row, in the order given, that a table refuses, with the
    reason naming its config; None if every row is valid.

    Within a row the faults are checked in this order: a negative id, an id
    an earlier row already holds, a non-finite metric or final, and a cost
    that is not finite and > 0.
    """
    order = np.argsort(ids, kind="stable")
    repeated = np.zeros(ids.size, dtype=bool)
    repeated[order[1:][ids[order[1:]] == ids[order[:-1]]]] = True
    checks = (
        (ids < 0, "config ids must be >= 0, got {}"),
        (repeated, "duplicate config id {}"),
        (~(np.isfinite(metrics).all(axis=1) & np.isfinite(finals)),
         "non-finite metric in curve for config {}"),
        (~(np.isfinite(costs) & (costs > 0)).all(axis=1),
         "costs for config {} must be finite and > 0"),
    )
    bad = np.any([fault for fault, _ in checks], axis=0)
    if not bad.any():
        return None
    row = int(bad.argmax())
    return row, next(reason.format(ids[row]) for fault, reason in checks if fault[row])


def _fmean(values: list[float]) -> float:
    """The exact sum rounded once, over len(values): statistics.fmean(values)
    whenever fsum returns. OverflowError when that sum is beyond float range."""
    try:
        total = math.fsum(values)
    except OverflowError:  # fsum also refuses a finite sum whose partial sums overflow
        total = float(sum(map(Fraction, values)))
    return total / len(values)


def _average_tables(tables: list[LearningCurveTable]) -> LearningCurveTable:
    """The tables' elementwise _fmean, for a seed whose table is missing. A
    DataError names the first value, metrics before costs before finals,
    whose sum overflows."""
    first = tables[0]
    for other in tables[1:]:
        if (
            other.resource_units != first.resource_units
            or not np.array_equal(other.ids, first.ids)
            or other.flipped != first.flipped
        ):
            raise DataError("the tables disagree on units, direction, or config ids")
    # 64 rows at a time: a value's k 53-bit mantissas, shifted to its smallest
    # exponent, sum exactly in int64 when the exponents spread at most `spread`
    # bits, and the cast to float64 rounds that sum once, to nearest even, as
    # fsum does. A sum of 0 (whose sign fsum decides), one that overflows, or
    # one too wide goes to _fmean value by value. A subnormal sum is exact: it
    # is a multiple of 2**-1074, as every float is, below 2**-1022.
    k = len(tables)
    spread = 62 - 53 - (k - 1).bit_length()
    means = {}
    for name in ("metrics", "costs", "finals"):
        means[name] = mean = np.empty_like(getattr(first, name))
        for start in range(0, len(mean), 64):
            values = np.stack([getattr(t, name)[start : start + 64] for t in tables])
            fraction, exponent = np.frexp(values)
            mantissa = np.ldexp(fraction, 53).astype(np.int64)
            zero = mantissa == 0
            low = np.where(zero, 1 << 11, exponent).min(axis=0)
            shift = np.where(zero, 0, exponent - low)
            total = (mantissa << np.minimum(shift, spread)).sum(axis=0)
            with np.errstate(over="ignore"):
                rounded = np.ldexp(total.astype(np.float64), low - 53)
            mean[start : start + 64] = rounded / k
            exact = (shift.max(axis=0) <= spread) & (total != 0) & np.isfinite(rounded)
            for row, *unit in zip(*np.nonzero(~exact)):
                try:
                    mean[(start + row, *unit)] = _fmean(values[(slice(None), row, *unit)].tolist())
                except OverflowError:
                    what = f"{name[:-1]} at unit {unit[0] + 1}" if unit else "final metric"
                    raise DataError(
                        f"the sum of config {first.ids[start + row]}'s {what} overflows a float"
                    ) from None
    return replace(first, **means)


class TraceEvent(NamedTuple):
    """One simulation event, in a stable field order suitable for diffing."""

    time: float
    worker: int
    config: ConfigId
    rung: int
    resource: int
    metric: float | None  # None for assignments
    kind: str  # "assign" or "complete"


@dataclass
class SimResult:
    """Outcome of one simulated tuning run."""

    wall_clock: float  # simulated seconds; max over workers of last completion
    chosen: ConfigId
    chosen_metric_full: float  # full-fidelity metric of the chosen config
    max_resources: int  # resource level of the highest rung reached
    jobs_executed: int
    units_consumed: int  # total incremental resource units paid
    ladder: RungLadder | None = None
    trace: list[TraceEvent] | None = None
    same: tuple[int, ...] = ()  # indexes of simulate's also whose result this is too


def _random_result(
    config: SchedulerConfig, table: LearningCurveTable, collect_trace: bool
) -> SimResult:
    """The random baseline: draw a pool, pick uniformly, train nothing."""
    pool, rng = _draws(table.config_ids(), config.seed, config.random_draws or config.num_configs)
    chosen = rng.choice(pool)
    return SimResult(
        wall_clock=0.0,
        chosen=chosen,
        chosen_metric_full=table.final_metric(chosen),
        max_resources=0,
        jobs_executed=0,
        units_consumed=0,
        ladder=None,
        trace=[] if collect_trace else None,
    )


def simulate(
    config: SchedulerConfig,
    table: LearningCurveTable,
    workers: int,
    collect_trace: bool = False,
    also: Sequence[SchedulerConfig] = (),
) -> SimResult:
    """Run one scheduler against one benchmark with the given worker count.

    Whenever a worker is free it asks the scheduler for a job; the job's
    duration is the sum of per-unit costs from the level the config was
    promoted at to the job's target (pause and resume are free): a job at
    rung k resumes from levels[k - 1], and one at rung 0 from 0. Simultaneous
    completions are ordered by worker index. Every completion polls the idle
    workers in index order until one finds nothing to do, so a cap growth can
    wake workers that found nothing earlier. Every issued job completes into
    the ladder before the run ends, so the run's job and unit totals are read
    from the final ladder: each entry of rung k is one job that trained from
    its resume point to levels[k].

    also lists further configs to run in the same event loop (see
    Scheduler): each leaves it at its first growth decision that differs
    from config's, or when its own check raises, and one whose ceiling
    exceeds the table's units never joins, so its own run raises. The
    result's same holds the indexes of the configs that never left: for
    each, simulate(also[i], table, workers, collect_trace) returns this
    result but for an empty same.
    """
    if workers < 1:
        raise UsageError(f"workers must be >= 1, got {workers}")
    if config.mode == "random":
        if also:
            raise UsageError("the random baseline runs no jobs to share with other configs")
        return _random_result(config, table, collect_trace)
    draws, _ = _draws(table.config_ids(), config.seed, config.num_configs)
    sched = Scheduler(config, draws, also=also)
    if sched.ceiling > table.resource_units:  # refused before the first job, in every mode
        raise DataError(
            f"the benchmark covers {table.resource_units} units; requested {sched.ceiling}"
        )
    sched.members = [m for m in sched.members if m.ceiling <= table.resource_units]
    get_job, report = sched.get_job, sched.report
    metric_at, incremental_cost = table.metric, table.incremental_cost
    heappush, heappop = heapq.heappush, heapq.heappop
    resume = (0, *sched.levels)  # resume[k]: the units a job at rung k starts from
    heap: list[tuple[float, int, Job]] = []  # no two entries share a worker: jobs never compare
    # ascending worker index; each config has at most one job in flight, so a
    # worker at index num_configs or above would never get one
    idle = list(range(min(workers, config.num_configs)))
    trace: list[TraceEvent] = []
    record, event = trace.append, tuple.__new__
    now = 0.0
    while True:
        # Poll the idle workers in index order until one finds no job. get_job
        # changes nothing when it returns None, so polling the workers after
        # that one would return None as well.
        assigned = 0
        for worker in idle:
            job = get_job()
            if job is None:
                break
            config, rung, target = job
            heappush(heap, (now + incremental_cost(config, resume[rung], target), worker, job))
            if collect_trace:
                # tuple.__new__ skips the named tuple's Python-level argument binding
                record(event(TraceEvent, (now, worker, config, rung, target, None, "assign")))
            assigned += 1
        del idle[:assigned]
        if not heap:
            break
        now, worker, job = heappop(heap)
        config, rung, target = job
        metric = metric_at(config, target)
        report(job, metric)
        if collect_trace:
            record(event(TraceEvent, (now, worker, config, rung, target, metric, "complete")))
        insort(idle, worker)
    if not sched.should_stop():
        raise InternalError(
            "simulation drained its event queue before the scheduler was finished"
        )
    chosen, _, max_resources = sched.best_config()
    jobs = [len(entries) for entries in sched.ladder.rungs]
    return SimResult(
        wall_clock=now,  # the last completion's time
        chosen=chosen,
        chosen_metric_full=table.final_metric(chosen),
        max_resources=max_resources,
        jobs_executed=sum(jobs),
        units_consumed=sum(n * (b - a) for n, a, b in zip(jobs, resume, sched.levels)),
        ladder=sched.ladder,
        trace=trace if collect_trace else None,
        same=tuple(m.index for m in sched.members),
    )


def _speedup_factor(reference: float, candidate: float) -> float:
    """reference / candidate seconds; a candidate that took 0 s is infinitely faster."""
    return math.inf if candidate == 0 else reference / candidate


def speedup(reference: SimResult, candidate: SimResult) -> float:
    """Ratio of wall clocks; infinity when the candidate spent no simulated time."""
    return _speedup_factor(reference.wall_clock, candidate.wall_clock)


def write_trace(events: Iterable[TraceEvent], path: str) -> None:
    """Line-delimited trace: time, worker, config, rung, resource, metric, kind."""
    lines = []
    last_time, time_text = object(), ""
    for time, worker, config, rung, resource, metric, kind in events:
        if time is not last_time:  # an assign shares its completion's float
            last_time, time_text = time, repr(time)
        metric_text = "-" if metric is None else repr(metric)
        lines.append(
            f"{time_text}\t{worker}\t{config}\t{rung}\t{resource}\t{metric_text}\t{kind}\n"
        )
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("".join(lines))


def read_trace(path: str) -> list[TraceEvent]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except UnicodeDecodeError as exc:  # no line: the decoder reads ahead
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    events: list[TraceEvent] = []
    for number, line in enumerate(lines, start=1):
        parts = line.rstrip("\n").split("\t")
        if len(parts) != 7:
            raise DataError(f"{path}:{number}: expected 7 trace fields, got {len(parts)}")
        try:
            events.append(
                TraceEvent(
                    time=float(parts[0]),
                    worker=int(parts[1]),
                    config=int(parts[2]),
                    rung=int(parts[3]),
                    resource=int(parts[4]),
                    metric=None if parts[5] == "-" else float(parts[5]),
                    kind=parts[6],
                )
            )
        except ValueError as exc:
            raise DataError(f"{path}:{number}: {exc}") from exc
        if events[-1].kind not in ("assign", "complete"):
            raise DataError(f"{path}:{number}: unknown event kind {parts[6]!r}")
    return events


def replay_trace(
    events: Sequence[TraceEvent], config: SchedulerConfig, table: LearningCurveTable
) -> Scheduler:
    """Drive a fresh scheduler through a recorded trace and return it.

    The scheduler is deterministic given the seed and the order of reports,
    so the returned ladder must equal the one the original run produced; any
    divergence raises.
    """
    sched = Scheduler(config, _draws(table.config_ids(), config.seed, config.num_configs)[0])
    pending: dict[tuple[ConfigId, int], Job] = {}
    for ev in events:
        if ev.kind == "assign":
            job = sched.get_job()
            if job is None or (job.config, job.rung, job.target_resource) != (
                ev.config,
                ev.rung,
                ev.resource,
            ):
                raise InternalError(
                    f"trace divergence at t={ev.time}: recorded config {ev.config} "
                    f"rung {ev.rung}, scheduler issued {job}"
                )
            pending[(job.config, job.rung)] = job
        else:
            key = (ev.config, ev.rung)
            if key not in pending or ev.metric is None:
                raise DataError(
                    f"trace completes config {ev.config} rung {ev.rung} "
                    "which was never assigned"
                )
            sched.report(pending.pop(key), ev.metric)
    return sched
