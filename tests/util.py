"""Shared builders for hand-constructed tables and rank-ordered rung entries,
the brute-force soft-rank oracle the fast soft check is compared against, and
the one-f-string-per-event trace formatter the trace writer is compared
against."""

from __future__ import annotations

from dataclasses import dataclass

from tunesim import CurveModel, LearningCurveTable, ResourceSpec, SchedulerConfig
from tunesim.core import ConfigId, RungEntry
from tunesim.scheduler import Scheduler

# readable config ids for ranking tests
A, B, C, D, E = 0, 1, 2, 3, 4

# hard noise and tight gaps: the table the criterion and mode digests pin
NOISY_TIGHT = CurveModel(
    noise_std=0.01, hard=True, head_gap=0.005, head_jitter=0.002, gap_scale=0.01
)

# the top ranks keep crossing until late in training: the regime in which
# pasha grows its cap and its stability checks fail, where the default
# model's clean top ranks keep it at the starting cap
TOP_CHURN = CurveModel(
    damp_lo=0, damp_hi=0.01, early_scale=0.5, head_gap=0.005, head_jitter=0.002, gap_scale=0.01
)


def ranked(*pairs: tuple[int, float]) -> list[RungEntry]:
    """Rung entries from (config, metric) pairs given best first.

    Completion indices follow the argument order, so exact ties keep it.
    """
    return [RungEntry(c, m, completion_index=i) for i, (c, m) in enumerate(pairs)]


@dataclass(frozen=True)
class SoftRank:
    """Per rank position, the set of configs interchangeable at that position."""

    positions: tuple[frozenset[ConfigId], ...]


def soft_rank(ranked: list[RungEntry], epsilon: float) -> SoftRank:
    """Positions[i] holds every config whose metric is within epsilon of rank i's.

    Quadratic by construction: the reference definition of PASHA's soft
    ranking, kept as an oracle for the O(n) check inside tunesim.ranking.
    """
    if epsilon < 0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    positions = tuple(
        frozenset(e.config for e in ranked if abs(anchor.metric - e.metric) <= epsilon)
        for anchor in ranked
    )
    return SoftRank(positions)


def pasha_scheduler(resources: ResourceSpec) -> Scheduler:
    """A one-config pasha scheduler on the given geometry, at its starting cap."""
    return Scheduler(SchedulerConfig(resources=resources, num_configs=1, mode="pasha"), range(1))


def table_from_rows(
    rows: dict[int, list[float]],
    costs: dict[int, list[float]] | None = None,
    finals: dict[int, float] | None = None,
) -> LearningCurveTable:
    """Table with explicit metric rows; costs default to 1 second per unit."""
    units = len(next(iter(rows.values())))
    return LearningCurveTable(
        ids=list(rows),
        metrics=[rows[c] for c in rows],
        costs=[costs[c] if costs else [1.0] * units for c in rows],
        finals=[finals[c] if finals else rows[c][-1] for c in rows],
    )


class ScriptedSearcher:
    """Deterministic searcher handing out a fixed id sequence."""

    def __init__(self, order):
        self.order = list(order)
        self.next = 0

    def draw(self) -> int:
        config = self.order[self.next]
        self.next += 1
        return config


def trace_text(events) -> str:
    """The bytes write_trace must produce, formatted one event at a time.

    The trace writer's original formatting, kept as the oracle for the
    batched writer in tunesim.simulator.
    """
    lines = []
    for ev in events:
        metric = "-" if ev.metric is None else repr(ev.metric)
        lines.append(
            f"{ev.time!r}\t{ev.worker}\t{ev.config}\t{ev.rung}\t"
            f"{ev.resource}\t{metric}\t{ev.kind}\n"
        )
    return "".join(lines)
