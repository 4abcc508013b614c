"""Deterministic discrete-event simulation of parallel asynchronous workers
executing scheduler jobs against a tabulated learning-curve benchmark.

Parallelism exists only inside the simulation's model of time: the event loop
itself is single threaded, events are processed in (time, worker index) order,
and a rerun with the same inputs is byte identical.
"""

from __future__ import annotations

import heapq
import math
import random
from bisect import insort
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

from .core import ConfigId, DataError, InternalError, RungLadder, UsageError
from .scheduler import Job, Scheduler, SchedulerConfig


@dataclass(frozen=True)
class Curve:
    """One config's tabulated run: metric and cost after each resource unit."""

    metrics: tuple[float, ...]  # metrics[u - 1] is the value after u units
    costs: tuple[float, ...]  # costs[u - 1] is the wall-clock seconds of unit u
    final_metric: float  # full-fidelity metric used for reporting
    payload: str = ""  # optional opaque hyperparameter description


@dataclass
class LearningCurveTable:
    """Tabulated benchmark: per config, a metric and a cost per resource unit.

    Metrics are stored larger-is-better; tables loaded from a minimize-direction
    file are negated on ingestion and marked flipped so reports can restore the
    original sign.
    """

    resource_units: int
    curves: dict[ConfigId, Curve]
    metric_name: str = "metric"
    unit_label: str = "unit"
    flipped: bool = False

    def __post_init__(self) -> None:
        if self.resource_units < 1:
            raise DataError(f"resource_units must be >= 1, got {self.resource_units}")
        if not self.curves:
            raise DataError("a benchmark needs at least one config")
        for config, curve in self.curves.items():
            if config < 0:
                raise DataError(f"config ids must be >= 0, got {config}")
            if len(curve.metrics) != self.resource_units or len(curve.costs) != self.resource_units:
                raise DataError(
                    f"curve for config {config} has {len(curve.metrics)} metric and "
                    f"{len(curve.costs)} cost entries; expected {self.resource_units}"
                )
            if not all(map(math.isfinite, curve.metrics)) or not math.isfinite(
                curve.final_metric
            ):
                raise DataError(f"non-finite metric in curve for config {config}")
            if not all(map(math.isfinite, curve.costs)) or min(curve.costs) <= 0:
                raise DataError(f"costs for config {config} must be finite and > 0")

    def config_ids(self) -> list[ConfigId]:
        return sorted(self.curves)

    def _curve(self, config: ConfigId) -> Curve:
        try:
            return self.curves[config]
        except KeyError:
            raise DataError(f"no curve for config {config}") from None

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
        curve = self._curve(config)
        self._check_units(config, resource)
        return curve.metrics[resource - 1]

    def incremental_cost(self, config: ConfigId, start: int, target: int) -> float:
        """Seconds to continue config from start units (already paid) to target."""
        curve = self._curve(config)
        if not 0 <= start < target:
            raise InternalError(f"bad resume range ({start}, {target}] for config {config}")
        self._check_units(config, target)
        return sum(curve.costs[start:target])

    def final_metric(self, config: ConfigId) -> float:
        return self._curve(config).final_metric

    def display_metric(self, value: float) -> float:
        """Undo the ingestion negation for minimize-direction benchmarks."""
        return -value if self.flipped else value


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


def _random_result(
    config: SchedulerConfig, table: LearningCurveTable, collect_trace: bool
) -> SimResult:
    """The random baseline: draw a pool, pick uniformly, train nothing."""
    pool_size = config.random_draws or config.num_configs
    ids = table.config_ids()
    if pool_size > len(ids):
        raise DataError(
            f"random baseline asked for {pool_size} draws from a universe of {len(ids)}"
        )
    rng = random.Random(config.seed)
    rng.shuffle(ids)
    chosen = rng.choice(ids[:pool_size])
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
) -> SimResult:
    """Run one scheduler against one benchmark with the given worker count.

    Whenever a worker is free it asks the scheduler for a job; the job's
    duration is the sum of per-unit costs between the config's previous
    checkpoint and the job's target (pause and resume are free). Simultaneous
    completions are ordered by worker index. Every completion polls the idle
    workers in index order until one finds nothing to do, so a cap growth can
    wake workers that found nothing earlier.
    """
    if workers < 1:
        raise UsageError(f"workers must be >= 1, got {workers}")
    if config.mode == "random":
        return _random_result(config, table, collect_trace)
    sched = Scheduler(config, table.config_ids())
    get_job, report = sched.get_job, sched.report
    metric_at, incremental_cost = table.metric, table.incremental_cost
    checkpoint: dict[ConfigId, int] = {}
    heap: list[tuple[float, int]] = []
    running: dict[int, Job] = {}
    idle = list(range(workers))  # ascending worker index
    trace: list[TraceEvent] = []
    jobs_executed = 0
    units_consumed = 0

    def assign_idle(now: float) -> None:
        """Poll the idle workers in index order until one finds no job.

        get_job changes nothing when it returns None, so polling the workers
        after that one would return None as well.
        """
        nonlocal jobs_executed, units_consumed
        assigned = 0
        for worker in idle:
            job = get_job()
            if job is None:
                break
            config, rung, target = job
            done = checkpoint.get(config, 0)
            units_consumed += target - done
            heapq.heappush(heap, (now + incremental_cost(config, done, target), worker))
            running[worker] = job
            if collect_trace:
                trace.append(TraceEvent(now, worker, config, rung, target, None, "assign"))
            assigned += 1
        jobs_executed += assigned
        del idle[:assigned]

    assign_idle(0.0)
    wall_clock = 0.0
    while heap:
        now, worker = heapq.heappop(heap)
        wall_clock = now
        job = running.pop(worker)
        config, rung, target = job
        metric = metric_at(config, target)
        checkpoint[config] = target
        report(job, metric)
        if collect_trace:
            trace.append(TraceEvent(now, worker, config, rung, target, metric, "complete"))
        insort(idle, worker)
        assign_idle(now)
    if not sched.should_stop():
        raise InternalError(
            "simulation drained its event queue before the scheduler was finished"
        )
    chosen, _, max_resources = sched.best_config()
    return SimResult(
        wall_clock=wall_clock,
        chosen=chosen,
        chosen_metric_full=table.final_metric(chosen),
        max_resources=max_resources,
        jobs_executed=jobs_executed,
        units_consumed=units_consumed,
        ladder=sched.ladder,
        trace=trace if collect_trace else None,
    )


def speedup(reference: SimResult, candidate: SimResult) -> float:
    """Ratio of wall clocks; infinity when the candidate spent no simulated time."""
    if candidate.wall_clock == 0:
        return math.inf
    return reference.wall_clock / candidate.wall_clock


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
    events: list[TraceEvent] = []
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
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
    sched = Scheduler(config, table.config_ids())
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
