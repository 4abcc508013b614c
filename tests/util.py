"""Shared builders for hand-constructed tables and rank-ordered rung entries,
and the brute-force soft-rank oracle the fast soft check is compared against."""

from __future__ import annotations

from dataclasses import dataclass

from tunesim import Curve, LearningCurveTable
from tunesim.core import ConfigId, RungEntry

# readable config ids for ranking tests
A, B, C, D, E = 0, 1, 2, 3, 4


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


def table_from_rows(
    rows: dict[int, list[float]],
    costs: dict[int, list[float]] | None = None,
    finals: dict[int, float] | None = None,
) -> LearningCurveTable:
    """Table with explicit metric rows; costs default to 1 second per unit."""
    units = len(next(iter(rows.values())))
    curves = {}
    for config, metrics in rows.items():
        curve_costs = costs[config] if costs else [1.0] * units
        final = finals[config] if finals else metrics[-1]
        curves[config] = Curve(
            metrics=tuple(metrics), costs=tuple(curve_costs), final_metric=final
        )
    return LearningCurveTable(resource_units=units, curves=curves)


class ScriptedSearcher:
    """Deterministic searcher handing out a fixed id sequence."""

    def __init__(self, order):
        self.order = list(order)
        self.next = 0

    def draw(self) -> int:
        config = self.order[self.next]
        self.next += 1
        return config
