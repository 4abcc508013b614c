"""Rank construction and rank-stability criteria over rung metric lists.

A stability check always compares the ranked entries of a top rung against
the ranked entries of the rung below it. The below list is first projected
onto the configs present in the top rung (promotion guarantees they exist
below), because positional comparison is only well defined over a common
config set.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Iterable, Sequence

from .core import ConfigId, InternalError, UsageError

CRITERION_KINDS = (
    "direct",
    "soft",
    "soft-sigma",
    "soft-mean-dist",
    "soft-median-dist",
    "rbo",
    "rrr",
    "arrr",
    "always-unstable",
)


@dataclass(frozen=True)
class RankedList:
    """Configs with metrics, best first, ties broken by completion order."""

    entries: tuple[tuple[ConfigId, float], ...]

    def configs(self) -> tuple[ConfigId, ...]:
        return tuple(c for c, _ in self.entries)

    def metrics(self) -> tuple[float, ...]:
        return tuple(m for _, m in self.entries)

    def restrict_to(self, keep: Iterable[ConfigId]) -> "RankedList":
        """Entries whose config is in keep, relative order preserved."""
        keep = set(keep)
        return RankedList(tuple(e for e in self.entries if e[0] in keep))

    def __len__(self) -> int:
        return len(self.entries)


def project(below: RankedList, top: RankedList) -> RankedList:
    """Below restricted to top's configs; errors if any are missing below."""
    top_configs = set(top.configs())
    restricted = below.restrict_to(top_configs)
    if len(restricted) != len(top_configs):
        missing = sorted(top_configs - set(restricted.configs()))
        raise InternalError(
            f"configs {missing} present in the top rung but missing below; "
            "the rung ladder is corrupt"
        )
    return restricted


def _soft_positions_ok(top: RankedList, below_projected: RankedList, epsilon: float) -> bool:
    """True iff each top config i has a below metric within epsilon of below rank i's.

    That is membership of top config i in the soft position i of the
    projected below list (every config within epsilon of rank i's metric),
    tested in O(n) without building the positions.
    """
    below_metric = dict(below_projected.entries)
    anchors = below_projected.metrics()
    return all(
        abs(anchors[i] - below_metric[c]) <= epsilon for i, c in enumerate(top.configs())
    )


def is_stable_soft(top: RankedList, below: RankedList, epsilon: float) -> bool:
    """True iff every top-rung config sits inside the below rung's soft position.

    The below list is projected onto the top rung's configs first; the soft
    positions are built from the projected below metrics.
    """
    return _soft_positions_ok(top, project(below, top), epsilon)


def is_stable_direct(top: RankedList, below: RankedList) -> bool:
    """Exact positional agreement; identical to the soft check at epsilon 0."""
    return is_stable_soft(top, below, 0.0)


def epsilon_sigma(below: RankedList, multiplier: int) -> float:
    """multiplier times the population standard deviation of below's metrics.

    Fewer than two entries carry no spread information, so the result is 0.
    """
    metrics = below.metrics()
    if len(metrics) < 2:
        return 0.0
    return multiplier * statistics.pstdev(metrics)


def _gaps(below: RankedList) -> list[float]:
    metrics = below.metrics()  # already descending
    return [metrics[i] - metrics[i + 1] for i in range(len(metrics) - 1)]


def epsilon_mean_distance(below: RankedList) -> float:
    """Mean gap between consecutive metrics sorted descending; 0 under two entries."""
    gaps = _gaps(below)
    return statistics.fmean(gaps) if gaps else 0.0


def epsilon_median_distance(below: RankedList) -> float:
    """Median gap between consecutive metrics sorted descending; 0 under two entries."""
    gaps = _gaps(below)
    return float(statistics.median(gaps)) if gaps else 0.0


def _check_p(p: float) -> None:
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must be in (0, 1], got {p}")


def rbo(
    top_order: Sequence[ConfigId], below_order: Sequence[ConfigId], p: float
) -> float:
    """Rank-biased overlap between two finite rankings of the same config set.

    Agreement at depth d is |prefix_d(top) & prefix_d(below)| / d. For p < 1
    the depth weights (1-p) * p^(d-1) are renormalized to the finite length n
    by 1 - p^n; at p = 1 those weights vanish, so the average overlap over
    all depths is returned instead.
    """
    _check_p(p)
    n = len(top_order)
    if n == 0:
        raise ValueError("rbo needs at least one config")
    if set(top_order) != set(below_order) or len(set(top_order)) != n:
        raise ValueError("rbo requires two orderings of the same config set")
    seen_top: set[ConfigId] = set()
    seen_below: set[ConfigId] = set()
    overlap = 0
    agreements = []
    for d in range(1, n + 1):
        a, b = top_order[d - 1], below_order[d - 1]
        if a == b:
            overlap += 1
        else:
            if a in seen_below:
                overlap += 1
            if b in seen_top:
                overlap += 1
        seen_top.add(a)
        seen_below.add(b)
        agreements.append(overlap / d)
    if p == 1.0:
        return sum(agreements) / n
    norm = 1.0 - p**n
    return sum((1.0 - p) * p ** (d - 1) / norm * agreements[d - 1] for d in range(1, n + 1))


def is_stable_rbo(top: RankedList, below: RankedList, p: float, threshold: float) -> bool:
    """Stable iff the overlap of top's order with the projected below order >= threshold."""
    below_projected = project(below, top)
    return rbo(top.configs(), below_projected.configs(), p) >= threshold


def _regret_weights(n: int, p: float) -> list[float]:
    total = sum(p**j for j in range(n))
    return [p**i / total for i in range(n)]


def _regret(top: RankedList, below_order: Sequence[ConfigId], p: float, absolute: bool) -> float:
    _check_p(p)
    n = len(top)
    if n == 0:
        raise ValueError("regret needs at least one config")
    metric_of = dict(top.entries)
    if set(below_order) != set(metric_of) or len(set(below_order)) != n:
        raise ValueError("below_order must be a permutation of the top rung's configs")
    f = top.metrics()
    if any(v <= 0 for v in f):
        raise ValueError("relative regret is undefined for metrics <= 0")
    f_prime = [metric_of[c] for c in below_order]
    weights = _regret_weights(n, p)
    score = 0.0
    for i in range(n):
        term = f[i] - f_prime[i]
        if absolute:
            term = abs(term)
        score += term / f[i] * weights[i]
    return score


def rrr(top: RankedList, below_order: Sequence[ConfigId], p: float) -> float:
    """Weighted relative metric loss of trusting the below-rung order at the top rung.

    Position i contributes (f_i - f'_i) / f_i with weight p^i / sum_j p^j,
    where f is the top rung's metrics in top order and f'_i is the top-rung
    metric of the config ranked i below. Terms can be negative, so the sum
    is signed; 0 means perfect agreement.
    """
    return _regret(top, below_order, p, absolute=False)


def arrr(top: RankedList, below_order: Sequence[ConfigId], p: float) -> float:
    """Like rrr but with |f_i - f'_i| in the numerator, so never negative."""
    return _regret(top, below_order, p, absolute=True)


@dataclass(frozen=True)
class RankingCriterion:
    """A rank-stability rule plus its parameters.

    kind is one of CRITERION_KINDS. epsilon applies to "soft", multiplier to
    "soft-sigma", p and threshold to "rbo", "rrr" and "arrr".
    "always-unstable" forces growth at every non-degenerate check and exists
    for diagnostics and equivalence testing.
    """

    kind: str
    epsilon: float = 0.0
    multiplier: int = 1
    p: float = 1.0
    threshold: float = 0.5

    def __post_init__(self) -> None:
        if self.kind not in CRITERION_KINDS:
            raise UsageError(
                f"unknown ranking criterion {self.kind!r}; expected one of "
                + ", ".join(CRITERION_KINDS)
            )
        if not math.isfinite(self.epsilon) or self.epsilon < 0:
            raise UsageError(f"epsilon must be finite and >= 0, got {self.epsilon}")
        if self.kind == "soft-sigma" and self.multiplier not in (1, 2, 3):
            raise UsageError(
                f"sigma multiplier must be 1, 2 or 3, got {self.multiplier}"
            )
        if not 0.0 < self.p <= 1.0:
            raise UsageError(f"p must be in (0, 1], got {self.p}")
        if not 0.0 <= self.threshold <= 1.0:
            raise UsageError(f"threshold must be in [0, 1], got {self.threshold}")

    @classmethod
    def parse(cls, text: str) -> "RankingCriterion":
        """Parse a spelling like soft:0.025, soft-sigma:2, rbo:p=0.5,t=0.5."""
        head, _, rest = text.strip().partition(":")
        try:
            if head == "direct" or head == "soft-mean-dist" or head == "soft-median-dist":
                if rest:
                    raise UsageError(f"{head} takes no parameters, got {rest!r}")
                return cls(head)
            if head == "always-unstable":
                if rest:
                    raise UsageError(f"{head} takes no parameters, got {rest!r}")
                return cls(head)
            if head == "soft":
                if not rest:
                    raise UsageError("soft needs an epsilon, e.g. soft:0.025")
                return cls("soft", epsilon=float(rest))
            if head == "soft-sigma":
                if not rest:
                    raise UsageError("soft-sigma needs a multiplier, e.g. soft-sigma:2")
                return cls("soft-sigma", multiplier=int(rest))
            if head in ("rbo", "rrr", "arrr"):
                p = 1.0
                threshold = 0.5 if head == "rbo" else 0.05
                if rest:
                    for item in rest.split(","):
                        key, _, value = item.partition("=")
                        if key == "p":
                            p = float(value)
                        elif key == "t":
                            threshold = float(value)
                        else:
                            raise UsageError(
                                f"unknown {head} parameter {key!r}; use p= and t="
                            )
                return cls(head, p=p, threshold=threshold)
        except (ValueError, TypeError) as exc:
            raise UsageError(f"bad criterion spelling {text!r}: {exc}") from exc
        raise UsageError(
            f"unknown ranking criterion {text!r}; expected one of "
            + ", ".join(CRITERION_KINDS)
        )

    def spelling(self) -> str:
        """Canonical text form, the inverse of parse."""
        if self.kind == "soft":
            return f"soft:{self.epsilon:g}"
        if self.kind == "soft-sigma":
            return f"soft-sigma:{self.multiplier}"
        if self.kind in ("rbo", "rrr", "arrr"):
            return f"{self.kind}:p={self.p:g},t={self.threshold:g}"
        return self.kind

    def __str__(self) -> str:
        return self.spelling()


def is_stable(criterion: RankingCriterion, top: RankedList, below: RankedList) -> bool:
    """Dispatch the criterion over a (top rung, below rung) ranked pair.

    The below list is projected onto the top rung's configs first; adaptive
    epsilon statistics are computed on that projected list. A top rung with
    fewer than two configs carries no ordering evidence, so every criterion
    reports stable for it.
    """
    below_projected = project(below, top)
    if len(top) <= 1:
        return True
    kind = criterion.kind
    if kind == "always-unstable":
        return False
    if kind == "direct":
        return _soft_positions_ok(top, below_projected, 0.0)
    if kind == "soft":
        return _soft_positions_ok(top, below_projected, criterion.epsilon)
    if kind == "soft-sigma":
        return _soft_positions_ok(
            top, below_projected, epsilon_sigma(below_projected, criterion.multiplier)
        )
    if kind == "soft-mean-dist":
        return _soft_positions_ok(
            top, below_projected, epsilon_mean_distance(below_projected)
        )
    if kind == "soft-median-dist":
        return _soft_positions_ok(
            top, below_projected, epsilon_median_distance(below_projected)
        )
    if kind == "rbo":
        return rbo(top.configs(), below_projected.configs(), criterion.p) >= criterion.threshold
    if kind == "rrr":
        return rrr(top, below_projected.configs(), criterion.p) <= criterion.threshold
    if kind == "arrr":
        return arrr(top, below_projected.configs(), criterion.p) <= criterion.threshold
    raise InternalError(f"criterion kind {kind!r} fell through the dispatcher")
